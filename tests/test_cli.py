import argparse
import functools
import json
import os
import platform
import re
import shlex
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import fractamine
import fractamine.cli as cli
import fractamine.multifractal as mf
import fractamine.training as training
from fractamine.activations import KINDS, ActivationSpec
from fractamine.cli import build_parser, corpus_to_json_dict, load_corpus, main
from fractamine.fourier_denoise import denoise, diagnostics
from fractamine.multifractal import MfaConfig
from fractamine.neuralnet import ModelConfig, config_json
from fractamine.series import (
    LabeledDataset,
    load_series,
    synth_binomial_cascade,
    synth_embedded_corpus,
    synth_fgn,
    synth_gaussian_noise,
)
from fractamine.training import TrainConfig


def run(argv):
    return main(argv)


def readme_section(title: str) -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_manifests_record_the_versions(tmp_path):
    series = tmp_path / "data" / "series.csv"
    assert run(["synth", "fgn", "--n", "1024", "--seed", "2", "--out", str(series.parent)]) == 0
    runs = {
        "an": ["analyze", "--input", str(series), "--method", "mf-dfa"],
        "tr": ["train-eval", "--docs", "12", "--epochs", "1"],
    }
    for out, argv in runs.items():
        assert run([*argv, "--out", str(tmp_path / out)]) == 0
        manifest = json.loads((tmp_path / out / "manifest.json").read_text())
        assert manifest["versions"] == {
            "fractamine": fractamine.__version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        }


class TestParsing:
    def test_no_command_is_usage_error(self):
        assert run([]) == 2

    def test_unknown_command(self):
        assert run(["frobnicate"]) == 2

    def test_bad_q_list(self, tmp_path):
        series = tmp_path / "s.csv"
        series.write_text("\n".join(str(v) for v in np.sin(np.arange(256) / 5)))
        code = run(
            ["analyze", "--input", str(series), "--q=abc", "--out", str(tmp_path / "o")]
        )
        assert code == 2

    def test_bad_scales_spec(self, tmp_path):
        series = tmp_path / "s.csv"
        series.write_text("\n".join(str(v) for v in np.sin(np.arange(256) / 5)))
        code = run(
            ["analyze", "--input", str(series), "--scales", "64", "--out", str(tmp_path / "o")]
        )
        assert code == 2

    def test_scales_flag_uses_the_default_grid(self):
        assert np.array_equal(cli._parse_scales("16:2048:20"), mf.default_scales(8192))

    def test_missing_input_file(self, tmp_path):
        code = run(["analyze", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
        assert code == 2

    def test_non_utf8_csv_names_file_and_line(self, tmp_path, capsys):
        series = tmp_path / "bad.csv"
        series.write_bytes(b"1.0\n\xff\xfe2.0\n")
        assert run(["analyze", "--input", str(series), "--out", str(tmp_path / "o")]) == 2
        assert f"{series}:2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--input", "{dir}"],
            ["train-eval", "--input", "{dir}"],
            ["train-eval", "--docs", "12", "--epochs", "1", "--out", "{file}"],
        ],
        ids=["analyze-input-dir", "train-eval-input-dir", "out-is-a-file"],
    )
    def test_unusable_path_exits_2(self, tmp_path, capsys, argv):
        taken = tmp_path / "taken.txt"
        taken.write_text("")
        argv = [a.format(dir=tmp_path, file=taken) for a in argv]
        if "--out" not in argv:
            argv += ["--out", str(tmp_path / "o")]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert str(tmp_path) in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "flag,message",
        [
            (["--q=abc"], "cannot parse q list 'abc'"),
            (["--q="], "q_grid must be nonempty"),
            (["--scales", "64"], "cannot parse scales '64'"),
        ],
        ids=["q-text", "q-empty", "scales"],
    )
    def test_bad_mfa_flag_says_what_is_wrong(self, tmp_path, capsys, flag, message):
        series = tmp_path / "s.csv"
        series.write_text("\n".join(str(v) for v in np.sin(np.arange(256) / 5)))
        assert run(["analyze", "--input", str(series), *flag, "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("q", ["nan,1,2", "inf,1,2"])
    def test_non_finite_q_exits_2_without_output(self, tmp_path, capsys, q):
        series = tmp_path / "s.csv"
        series.write_text("\n".join(str(v) for v in np.sin(np.arange(256) / 5)))
        out = tmp_path / "o"
        argv = ["analyze", "--input", str(series), "--method", "mf-dfa", f"--q={q}", "--out", str(out)]
        assert run(argv) == 2
        assert "q_grid must be finite" in capsys.readouterr().err
        assert not (out / "hurst.json").exists()

    def test_activation_parameter_the_kind_does_not_take(self, tmp_path, capsys):
        argv = ["train-eval", "--docs", "12", "--epochs", "1", "--activation", "relu", "--gamma", "2"]
        assert run([*argv, "--out", str(tmp_path / "o")]) == 2
        assert "gamma" in capsys.readouterr().err

    def test_config_flags_default_to_none(self):
        # a flag that sets a config field carries no default of its own,
        # so the dataclass default is the only copy
        config_dests = {
            f.name for config in (ModelConfig, MfaConfig, TrainConfig) for f in fields(config)
        } | {"activation", "gamma", "eta"}
        (subparsers,) = [
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        for command in ("analyze", "train-eval", "compare"):
            actions = [a for a in subparsers.choices[command]._actions if a.dest in config_dests]
            assert {a.dest for a in actions} >= {"method", "q_grid", "scales", "vol_window"}
            if command != "analyze":
                assert {a.dest for a in actions} >= {
                    "activation", "gamma", "eta", "hidden", "filters", "blocks", "conv_width",
                    "epochs", "lr_weights", "lr_activation", "seed",
                }
            for action in actions:
                assert action.default is None, (command, action.dest)
        # analyze takes where the series is and where the output goes; every
        # other flag sets an MfaConfig field
        analyze = {a.dest for a in subparsers.choices["analyze"]._actions} - {"help"}
        assert analyze <= {"input", "format", "out"} | {f.name for f in fields(MfaConfig)}

    def test_parser_registers_all_subcommands(self):
        parser = build_parser()
        text = parser.format_help()
        for cmd in ("analyze", "synth", "train-eval", "compare"):
            assert cmd in text


class TestSynth:
    def test_noise_writes_series_and_manifest(self, tmp_path):
        out = tmp_path / "o"
        assert run(["synth", "noise", "--n", "512", "--seed", "3", "--out", str(out)]) == 0
        values = np.loadtxt(out / "series.csv")
        assert values.shape == (512,)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["format_version"] == 1
        assert manifest["command"] == "synth"
        assert manifest["config"]["seed"] == 3

    @pytest.mark.parametrize(
        "kind,series",
        [
            ("noise", lambda: synth_gaussian_noise(1024, 2)),
            ("fgn", lambda: synth_fgn(1024, 0.7, 2)),
            ("cascade", lambda: synth_binomial_cascade(10, 0.75)),
        ],
    )
    def test_series_csv_matches_savetxt(self, tmp_path, kind, series):
        out = tmp_path / "o"
        assert run(["synth", kind, "--n", "1024", "--levels", "10", "--seed", "2", "--out", str(out)]) == 0
        expected = tmp_path / "expected.csv"
        np.savetxt(expected, series().values, fmt="%.17g")
        assert (out / "series.csv").read_bytes() == expected.read_bytes()

    def test_noise_deterministic_by_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["synth", "noise", "--n", "128", "--seed", "9", "--out", str(a)])
        run(["synth", "noise", "--n", "128", "--seed", "9", "--out", str(b)])
        assert np.array_equal(np.loadtxt(a / "series.csv"), np.loadtxt(b / "series.csv"))

    def test_fgn(self, tmp_path):
        out = tmp_path / "o"
        assert run(
            ["synth", "fgn", "--n", "1024", "--hurst", "0.7", "--seed", "1", "--out", str(out)]
        ) == 0
        assert np.loadtxt(out / "series.csv").shape == (1024,)

    def test_cascade(self, tmp_path):
        out = tmp_path / "o"
        assert run(["synth", "cascade", "--levels", "8", "--p", "0.7", "--out", str(out)]) == 0
        values = np.loadtxt(out / "series.csv")
        assert values.shape == (256,)
        assert values.sum() == pytest.approx(1.0)

    def test_corpus_round_trips_through_loader(self, tmp_path):
        out = tmp_path / "o"
        assert run(
            [
                "synth", "corpus", "--docs", "9", "--classes", "3", "--tokens", "5",
                "--dim", "8", "--seed", "2", "--out", str(out),
            ]
        ) == 0
        ds = load_corpus(str(out / "corpus.json"))
        assert len(ds.items) == 9
        assert ds.n_classes == 3
        assert ds.items[0][0].tokens.shape == (5, 8)

    @pytest.mark.parametrize(
        "argv", [["fgn", "--hurst", "1.5"], ["corpus", "--classes", "80", "--dim", "64"]], ids=["fgn", "corpus"]
    )
    def test_bad_input_refused_before_the_directory(self, tmp_path, argv):
        out = tmp_path / "o"
        assert run(["synth", *argv, "--out", str(out)]) == 2
        assert not out.exists()


class TestAnalyze:
    @pytest.fixture()
    def fgn_csv(self, tmp_path):
        out = tmp_path / "data"
        run(["synth", "fgn", "--n", "2048", "--hurst", "0.7", "--seed", "4", "--out", str(out)])
        return str(out / "series.csv")

    def test_writes_profile_and_manifest(self, fgn_csv, tmp_path):
        out = tmp_path / "an"
        assert run(
            ["analyze", "--input", fgn_csv, "--method", "mf-dfa", "--q=-2,0,2", "--out", str(out)]
        ) == 0
        profile = json.loads((out / "hurst.json").read_text())
        assert profile["format_version"] == 1
        assert profile["q"] == [-2.0, 0.0, 2.0]
        assert len(profile["H"]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"] == {
            "input": fgn_csv,
            "format": "csv",
            **config_json(MfaConfig(method="mf-dfa", q_grid=[-2.0, 0.0, 2.0])),
        }
        # mf-dfa does not denoise, so no diagnostics
        assert not os.path.exists(out / "denoise.json")

    def test_fs_mfa_emits_denoise_diagnostics(self, fgn_csv, tmp_path):
        out = tmp_path / "an"
        assert run(
            ["analyze", "--input", fgn_csv, "--method", "fs-mfa", "--out", str(out)]
        ) == 0
        diag = json.loads((out / "denoise.json").read_text())
        assert diag["format_version"] == 1
        assert "r_selected" in diag
        assert os.path.exists(out / "denoised.csv")

    @pytest.mark.parametrize("method", mf.METHODS)
    def test_denoises_once(self, fgn_csv, tmp_path, monkeypatch, method):
        # fs-mfa writes the estimator's own denoise; the other methods
        # denoise nothing and write neither file
        calls = {"cli": 0, "mf": 0}

        def counting(owner):
            def wrapped(series):
                calls[owner] += 1
                return denoise(series)

            return wrapped

        monkeypatch.setattr(cli, "denoise", counting("cli"))
        monkeypatch.setattr(mf, "denoise", counting("mf"))
        out = tmp_path / "an"
        assert run(["analyze", "--input", fgn_csv, "--method", method, "--out", str(out)]) == 0
        fs_mfa = method == "fs-mfa"
        assert calls == {"cli": 0, "mf": int(fs_mfa)}
        if not fs_mfa:
            assert not (out / "denoise.json").exists()
            assert not (out / "denoised.csv").exists()
            return
        denoised, model, r = denoise(load_series(fgn_csv))
        expected_json = json.dumps({"format_version": 1, **diagnostics(model, r)}, indent=2)
        assert (out / "denoise.json").read_text() == expected_json
        expected = tmp_path / "expected.csv"
        np.savetxt(expected, denoised.values, fmt="%.17g")
        assert (out / "denoised.csv").read_bytes() == expected.read_bytes()

    def test_denoise_flag_is_gone(self, fgn_csv, tmp_path):
        out = tmp_path / "an"
        argv = ["analyze", "--input", fgn_csv, "--method", "mf-dhv", "--denoise", "on", "--out", str(out)]
        assert run(argv) == 2
        assert not out.exists()

    def test_custom_scales(self, fgn_csv, tmp_path):
        out = tmp_path / "an"
        assert run(
            [
                "analyze", "--input", fgn_csv, "--method", "mf-dfa",
                "--scales", "16:512:10", "--q=2", "--out", str(out),
            ]
        ) == 0
        profile = json.loads((out / "hurst.json").read_text())
        assert profile["scales"][0] == 16
        assert profile["scales"][-1] == 512

    def test_short_series_refused_before_the_directory(self, tmp_path, capsys):
        series = tmp_path / "s.csv"
        series.write_text("\n".join(str(v) for v in np.sin(np.arange(50) / 5)))
        out = tmp_path / "o"
        assert run(["analyze", "--input", str(series), "--out", str(out)]) == 2
        assert "series too short" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        (["train-eval", "--docs", "7"], "7 documents leave the test split empty"),
        (["train-eval", "--docs", "3"], "3 documents leave the val split empty"),
        (["train-eval", "--tokens", "4"], "document 0 has 4 tokens"),
        (["train-eval", "--seed", "-1"], "seed must be at least 0"),
        (["compare", "--mode", "mfa", "--docs", "7"], "7 documents leave the test split empty"),
        (["compare", "--mode", "mfa", "--hidden", "0"], "hidden must be at least 1"),
        (["compare", "--mode", "activations", "--activation", "kdac"], "it takes no --activation"),
        (["compare", "--mode", "mfa", "--method", "mf-dfa"], "it takes no --method"),
        (["train-eval", "--dim", "48"], "document 0 has embedding width N = 48"),
        (["compare", "--mode", "mfa", "--dim", "48"], "document 0 has embedding width N = 48"),
    ],
    ids=[
        "train-docs-7", "train-docs-3", "train-tokens-4", "train-seed-minus-1", "compare-docs-7",
        "compare-hidden-0", "compare-activations-activation", "compare-mfa-method",
        "train-dim-48", "compare-dim-48",
    ],
)
def test_refused_run_trains_nothing_and_leaves_no_directory(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.setattr(cli, "train", lambda *a: pytest.fail("train ran"))
    monkeypatch.setattr(training, "hurst_features", lambda *a: pytest.fail("features ran"))
    out = tmp_path / "run"
    assert run([*argv, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


class TestTrainEval:
    def test_synthetic_run_writes_everything(self, tmp_path):
        out = tmp_path / "tr"
        code = run(
            [
                "train-eval", "--docs", "24", "--classes", "3", "--tokens", "8",
                "--dim", "64", "--separation", "4", "--hidden", "6", "--filters", "4",
                "--blocks", "1", "--conv-width", "2", "--epochs", "2",
                "--seed", "1", "--out", str(out),
            ]
        )
        assert code == 0
        for name in ("metrics.json", "history.json", "manifest.json", "checkpoint.json", "checkpoint.bin"):
            assert os.path.exists(out / name), name
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics["mean"]) == {"val", "test"}
        assert len(metrics["runs"]) == 1

    def test_synthesizes_the_corpus_synth_writes(self, tmp_path, monkeypatch):
        # one builder serves both commands, and one list of corpus flags both
        # manifests; dim is as wide as the default scales need, as train-eval requires
        flags = [
            "--docs", "10", "--classes", "2", "--tokens", "9", "--dim", "64",
            "--separation", "2.5", "--seed", "7",
        ]
        assert run(["synth", "corpus", *flags, "--out", str(tmp_path / "s")]) == 0
        built = []
        real_run_once = cli._run_once

        def recording(dataset, *args):
            built.append(dataset)
            return real_run_once(dataset, *args)

        monkeypatch.setattr(cli, "_run_once", recording)
        model = ["--epochs", "1", "--hidden", "2", "--filters", "2"]
        assert run(["train-eval", *flags, *model, "--out", str(tmp_path / "t")]) == 0
        written = load_corpus(str(tmp_path / "s" / "corpus.json"))
        (dataset,) = built
        assert dataset.n_classes == written.n_classes == 2
        assert [label for _, label in dataset.items] == [label for _, label in written.items]
        assert all(np.array_equal(a.tokens, b.tokens) for (a, _), (b, _) in zip(dataset.items, written.items))
        synth_config = json.loads((tmp_path / "s" / "manifest.json").read_text())["config"]
        train_config = json.loads((tmp_path / "t" / "manifest.json").read_text())["config"]
        assert train_config["data"] == "synthetic"
        corpus_keys = ["docs", "classes", "tokens", "dim", "separation"]
        assert list(synth_config)[2:] == list(train_config)[-5:] == corpus_keys
        assert all(synth_config[k] == train_config[k] for k in corpus_keys)

    def test_repeats_average(self, tmp_path):
        out = tmp_path / "tr"
        code = run(
            [
                "train-eval", "--docs", "18", "--classes", "3", "--tokens", "8",
                "--dim", "64", "--hidden", "5", "--filters", "3", "--blocks", "1",
                "--conv-width", "2", "--epochs", "1", "--seed", "0",
                "--repeats", "3", "--out", str(out),
            ]
        )
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert len(metrics["runs"]) == 3
        seeds = [r["seed"] for r in metrics["runs"]]
        assert seeds == [0, 1, 2]
        per_run = [r["metrics"]["test"]["accuracy"] for r in metrics["runs"]]
        assert metrics["mean"]["test"]["accuracy"] == pytest.approx(np.mean(per_run))

    def test_manifest_records_the_config_defaults(self, tmp_path):
        out = tmp_path / "tr"
        assert run(["train-eval", "--docs", "12", "--epochs", "1", "--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["model"] == config_json(ModelConfig(n_classes=3))
        assert config["train"] == config_json(TrainConfig(epochs=1, seed=0))

    @pytest.mark.parametrize("repeats", ["0", "-1"])
    def test_repeats_below_one_refused_before_any_file(self, tmp_path, capsys, monkeypatch, repeats):
        monkeypatch.setattr(cli, "train", lambda *a: pytest.fail("train ran"))
        out = tmp_path / "tr"
        assert run(["train-eval", "--docs", "12", "--repeats", repeats, "--out", str(out)]) == 2
        assert "--repeats" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_learning_rate_refused_before_any_file(self, tmp_path, capsys, lr):
        out = tmp_path / "tr"
        assert run(["train-eval", "--docs", "16", "--epochs", "1", "--lr", lr, "--out", str(out)]) == 2
        assert "lr_weights must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_separation_refused_by_name(self, tmp_path, capsys):
        out = tmp_path / "tr"
        assert run(["train-eval", "--docs", "16", "--separation", "nan", "--out", str(out)]) == 2
        assert "separation must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_scales_wider_than_the_embedding_refused(self, tmp_path, capsys, monkeypatch):
        # at the default width of 64 every document would fall back to
        # the all-0.5 Hurst vector
        forward = training.deffsi_forward
        monkeypatch.setattr(training, "deffsi_forward", lambda *a, **k: pytest.fail("forward ran"))
        argv = ["train-eval", "--docs", "30", "--epochs", "1", "--scales", "64:512:6"]
        assert run([*argv, "--out", str(tmp_path / "tr")]) == 2
        err = capsys.readouterr().err
        assert "mfa.scales" in err and "N = 64" in err and "2048" in err
        monkeypatch.setattr(training, "deffsi_forward", forward)
        argv = ["train-eval", "--docs", "12", "--epochs", "1", "--dim", "256", "--scales", "16:64:4"]
        assert run([*argv, "--out", str(tmp_path / "wide")]) == 0

    def test_manifest_records_the_synthetic_corpus(self, tmp_path):
        out = tmp_path / "tr"
        argv = ["train-eval", "--docs", "12", "--tokens", "9", "--separation", "3.5", "--epochs", "1"]
        assert run([*argv, "--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        recorded = {k: config[k] for k in ("data", "docs", "classes", "tokens", "dim", "separation")}
        assert recorded == {
            "data": "synthetic", "docs": 12, "classes": 3, "tokens": 9, "dim": 64, "separation": 3.5,
        }

    def test_manifest_of_an_input_corpus_names_only_the_file(self, tmp_path):
        corpus = tmp_path / "corpus.json"
        dataset = synth_embedded_corpus(12, 3, 8, 64, 4.0, seed=5)
        corpus.write_text(json.dumps(corpus_to_json_dict(dataset)))
        out = tmp_path / "tr"
        assert run(["train-eval", "--input", str(corpus), "--epochs", "1", "--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["data"] == str(corpus)
        assert not {"docs", "classes", "tokens", "dim", "separation"} & set(config)

    def test_mixed_embedding_widths_refused_before_features(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(training, "hurst_features", lambda *a: pytest.fail("features ran"))
        payload = corpus_to_json_dict(synth_embedded_corpus(20, 3, 8, 64, 4.0, seed=5))
        payload["documents"][13]["tokens"] = np.zeros((8, 48)).tolist()
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps(payload))
        argv = ["train-eval", "--input", str(corpus), "--epochs", "1", "--out", str(tmp_path / "tr")]
        assert run(argv) == 2
        assert "item 13 has embedding width 48, item 0 has 64" in capsys.readouterr().err

    def test_corpus_input_file(self, tmp_path):
        corpus_dir = tmp_path / "c"
        run(
            [
                "synth", "corpus", "--docs", "18", "--classes", "3", "--tokens", "8",
                "--dim", "64", "--seed", "5", "--out", str(corpus_dir),
            ]
        )
        out = tmp_path / "tr"
        code = run(
            [
                "train-eval", "--input", str(corpus_dir / "corpus.json"),
                "--hidden", "5", "--filters", "3", "--blocks", "1", "--conv-width", "2",
                "--epochs", "1", "--seed", "0", "--out", str(out),
            ]
        )
        assert code == 0


class TestCompare:
    def compare_args(self, mode, out):
        return [
            "compare", "--mode", mode, "--docs", "15", "--classes", "3",
            "--tokens", "8", "--dim", "64", "--hidden", "4", "--filters", "3",
            "--blocks", "1", "--conv-width", "2", "--epochs", "1",
            "--seed", "3", "--out", str(out),
        ]

    def test_activation_table_has_twelve_rows(self, tmp_path):
        out = tmp_path / "cmp"
        assert run(self.compare_args("activations", out)) == 0
        table = json.loads((out / "compare.json").read_text())
        assert len(table["rows"]) == 12
        kinds = [row["activation"] for row in table["rows"]]
        assert len(set(kinds)) == 12
        assert len({row["config_hash"] for row in table["rows"]}) == 1
        assert {row["seed"] for row in table["rows"]} == {3}

    def test_mfa_table_has_three_rows(self, tmp_path):
        out = tmp_path / "cmp"
        assert run(self.compare_args("mfa", out)) == 0
        table = json.loads((out / "compare.json").read_text())
        methods = [row["method"] for row in table["rows"]]
        assert methods == ["fs-mfa", "mf-dhv", "mf-dfa"]
        assert "excluded" in table

    def test_csv_mirror(self, tmp_path):
        out = tmp_path / "cmp"
        run(self.compare_args("mfa", out))
        lines = (out / "compare.csv").read_text().strip().splitlines()
        assert len(lines) == 4  # header + 3 rows
        assert lines[0].startswith("method,seed,config_hash")

    def test_manifest_records_the_synthetic_corpus(self, tmp_path, monkeypatch):
        metrics = {"accuracy": 0.0, "macro_f1": 0.0}
        monkeypatch.setattr(cli, "_run_once", lambda *a: (None, [], {"val": metrics, "test": metrics}))
        out = tmp_path / "cmp"
        assert run(self.compare_args("mfa", out)) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        recorded = {k: config[k] for k in ("data", "docs", "classes", "tokens", "dim", "separation")}
        assert recorded == {
            "data": "synthetic", "docs": 15, "classes": 3, "tokens": 8, "dim": 64, "separation": 4.0,
        }
        assert config["train"]["seed"] == 3

    def test_repeats_refused(self, tmp_path, capsys, monkeypatch):
        # compare runs each variant once; --repeats belongs to train-eval
        monkeypatch.setattr(cli, "_run_once", lambda *a: pytest.fail("a variant ran"))
        out = tmp_path / "cmp"
        assert run(self.compare_args("mfa", out) + ["--repeats", "2"]) == 2
        assert "--repeats" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--gamma", "2"], ["--eta", "0.5"]], ids=["gamma", "eta"])
    def test_activations_mode_refuses_gamma_and_eta(self, tmp_path, capsys, monkeypatch, flags):
        # every row runs its kind at the kind's defaults, so a given value would be dropped
        monkeypatch.setattr(cli, "_run_once", lambda *a: pytest.fail("a variant ran"))
        out = tmp_path / "cmp"
        assert run(self.compare_args("activations", out) + flags) == 2
        err = capsys.readouterr().err
        assert "--gamma" in err and "--eta" in err
        assert not out.exists()

    def test_mfa_manifest_and_hash_keep_the_mfa_base(self, tmp_path, monkeypatch):
        metrics = {"accuracy": 0.0, "macro_f1": 0.0}
        monkeypatch.setattr(cli, "_run_once", lambda *a: (None, [], {"val": metrics, "test": metrics}))
        configs, hashes = [], []
        for i, q in enumerate(["-2,2", "-4,0,4"]):
            out = tmp_path / f"cmp{i}"
            argv = self.compare_args("mfa", out) + [f"--q={q}", "--scales", "4:16:3", "--vol-window", "6"]
            assert run(argv) == 0
            configs.append(json.loads((out / "manifest.json").read_text())["config"])
            hashes.append({row["config_hash"] for row in json.loads((out / "compare.json").read_text())["rows"]})
        assert hashes[0] != hashes[1] and len(hashes[0]) == len(hashes[1]) == 1
        assert [c["config_hash"] for c in configs] == [h for (h,) in hashes]
        for config, q_grid in zip(configs, [[-2.0, 2.0], [-4.0, 0.0, 4.0]]):
            mfa = config["base"]["mfa"]
            assert "method" not in mfa  # the varied axis
            assert mfa["q_grid"] == q_grid
            assert mfa["scales"] == mf.log_spaced_scales(4, 16, 3).tolist()
            assert mfa["vol_window"] == 6

    @pytest.mark.parametrize("mode", ["activations", "mfa"])
    def test_variants_keep_every_base_field(self, tmp_path, monkeypatch, mode):
        seen = []

        def record(dataset, model_cfg, train_cfg):
            seen.append(model_cfg)
            metrics = {"accuracy": 0.0, "macro_f1": 0.0}
            return None, [], {"val": metrics, "test": metrics}

        base_mfa = MfaConfig(method="mf-dhv", q_grid=[-1.0, 1.0], vol_window=8, dfa_poly_order=2)
        monkeypatch.setattr(cli, "_run_once", record)
        monkeypatch.setattr(
            cli, "ModelConfig", functools.partial(ModelConfig, dense_width=7, attn_dim=5, mfa=base_mfa)
        )
        # --activation sets the base of the mfa table; the activations table refuses it
        argv = self.compare_args(mode, tmp_path / "cmp") + (["--activation", "kdac"] if mode == "mfa" else [])
        assert run(argv) == 0
        assert len(seen) == (12 if mode == "activations" else 3)
        for cfg in seen:
            assert (cfg.dense_width, cfg.attn_dim, cfg.hidden, cfg.conv_width) == (7, 5, 4, 2)
            assert cfg.mfa.dfa_poly_order == 2
            assert cfg.mfa.vol_window == 8
        if mode == "activations":
            assert [c.activation for c in seen] == [ActivationSpec(k) for k in KINDS]
            assert all(config_json(c.mfa) == config_json(base_mfa) for c in seen)
        else:
            assert [c.mfa.method for c in seen] == list(mf.METHODS)
            assert all(c.activation == ActivationSpec("kdac") for c in seen)


class TestReadmeCommands:
    def test_readme_commands_run_on_defaults(self, tmp_path):
        # the README's compare commands and a train-eval with no model
        # flags, shrunk to --docs 12 --epochs 1
        small = ["--docs", "12", "--epochs", "1"]
        for argv in (
            ["compare", "--mode", "activations", *small, "--seed", "0"],
            ["compare", "--mode", "mfa", *small, "--seed", "0"],
            ["train-eval", *small],
        ):
            out = tmp_path / "-".join(argv[:3])
            assert run([*argv, "--out", str(out)]) == 0, argv


    def test_readme_cli_commands_parse(self):
        # every `fractamine ...` line of the README's CLI shell blocks, with
        # backslash continuations joined, is a command the parser accepts
        script = "".join(re.findall(r"```sh\n(.*?)```", readme_section("CLI"), re.S)).replace("\\\n", " ")
        commands = [shlex.split(line)[1:] for line in script.splitlines() if line.startswith("fractamine ")]
        assert {argv[0] for argv in commands} == {"synth", "analyze", "train-eval", "compare"}
        parser = build_parser()
        for argv in commands:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README command does not parse: fractamine {shlex.join(argv)}")

    def test_readme_library_example_runs(self, tmp_path, monkeypatch):
        # the python blocks of the README's library example, joined as the
        # readme-commands CI job joins them, run in a fresh directory
        blocks = re.findall(r"```python\n(.*?)```", readme_section("Library example"), re.S)
        assert blocks
        monkeypatch.chdir(tmp_path)
        exec(compile("".join(blocks), "README.md", "exec"), {"__name__": "__main__"})
        assert (tmp_path / "model.json").is_file() and (tmp_path / "model.bin").is_file()

    def test_readme_cli_flags_exist(self):
        # the prose names flags too, and no CI job runs prose
        (subparsers,) = [
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        registered = {
            flag
            for command in subparsers.choices.values()
            for action in command._actions
            for flag in action.option_strings
        }
        named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme_section("CLI")))
        assert {"--format", "--gamma", "--eta", "--repeats"} <= named
        assert named - registered == set()


class TestArtifacts:
    def test_every_json_file_leads_with_format_version(self, tmp_path):
        series, corpus = tmp_path / "fgn" / "series.csv", tmp_path / "corpus" / "corpus.json"
        small = ["--epochs", "1", "--hidden", "4", "--filters", "3", "--seed", "2"]
        for argv in (
            ["synth", "fgn", "--n", "2048", "--seed", "4", "--out", str(series.parent)],
            ["analyze", "--input", str(series), "--method", "fs-mfa", "--out", str(tmp_path / "an")],
            ["synth", "corpus", "--docs", "12", "--tokens", "8", "--out", str(corpus.parent)],
            ["train-eval", "--input", str(corpus), *small, "--out", str(tmp_path / "tr")],
            ["compare", "--mode", "mfa", "--docs", "12", *small, "--out", str(tmp_path / "cmp")],
        ):
            assert run(argv) == 0, argv
        written = sorted(tmp_path.rglob("*.json"))
        assert {p.name for p in written} == {
            "manifest.json", "hurst.json", "denoise.json", "corpus.json",
            "metrics.json", "history.json", "checkpoint.json", "compare.json",
        }
        for path in written:
            assert next(iter(json.loads(path.read_text()))) == "format_version", path


class TestCorpusIO:
    def test_round_trip(self, tmp_path):
        ds = synth_embedded_corpus(6, 2, 4, 8, 3.0, seed=0)
        path = tmp_path / "c.json"
        payload = {"format_version": 1, **corpus_to_json_dict(ds)}
        path.write_text(json.dumps(payload))
        again = load_corpus(str(path))
        assert again.n_classes == 2
        assert all(
            np.array_equal(a.tokens, b.tokens)
            for (a, _), (b, _) in zip(ds.items, again.items)
        )

    def test_other_format_version_refused(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        dataset = synth_embedded_corpus(12, 3, 8, 64, 4.0, seed=5)
        path.write_text(json.dumps({"format_version": 99, **corpus_to_json_dict(dataset)}))
        with pytest.raises(ValueError, match="unsupported corpus format_version 99"):
            load_corpus(str(path))
        argv = ["train-eval", "--input", str(path), "--epochs", "1", "--out", str(tmp_path / "tr")]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "format_version 99" in err
        assert not (tmp_path / "tr").exists()

    def test_tagged_dataset_refused(self):
        ds = synth_embedded_corpus(6, 2, 4, 8, 3.0, seed=0)
        tagged = LabeledDataset(
            items=[(doc, np.zeros(doc.n_tokens, dtype=np.int64)) for doc, _ in ds.items], n_classes=2
        )
        with pytest.raises(ValueError, match="no per-token tags"):
            corpus_to_json_dict(tagged)

    def test_missing_format_version_accepted(self, tmp_path):
        path = tmp_path / "c.json"
        dataset = synth_embedded_corpus(6, 2, 4, 8, 3.0, seed=0)
        path.write_text(json.dumps(corpus_to_json_dict(dataset)))
        assert len(load_corpus(str(path)).items) == 6

    def test_missing_documents_key(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="documents"):
            load_corpus(str(path))

    def test_top_level_array_refused_naming_the_file(self, tmp_path, capsys):
        # an array used to raise AttributeError, and train-eval exited 1 with a traceback
        path = tmp_path / "c.json"
        payload = corpus_to_json_dict(synth_embedded_corpus(6, 2, 4, 8, 3.0, seed=0))
        path.write_text(json.dumps(payload["documents"]))
        with pytest.raises(ValueError, match="corpus JSON must be an object, got a list"):
            load_corpus(str(path))
        argv = ["train-eval", "--input", str(path), "--epochs", "1", "--out", str(tmp_path / "tr")]
        assert run(argv) == 2
        assert f"error: {path}: corpus JSON must be an object" in capsys.readouterr().err

    def test_documents_that_are_not_an_array_refused(self, tmp_path):
        # a dict used to iterate its keys: "document 0 lacks 'tokens' or 'label'"
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"documents": {"tokens": [[1.0, 2.0]], "label": 0}}))
        with pytest.raises(ValueError, match=re.escape(f"{path}: 'documents' must be an array, got a dict")):
            load_corpus(str(path))

    @pytest.mark.parametrize("n_classes", [2.7, "3", True, 0, None])
    def test_n_classes_that_is_not_a_whole_number_refused(self, tmp_path, n_classes):
        # 2.7 used to load as 2 and the error then blamed a label; "3" and true loaded
        payload = corpus_to_json_dict(synth_embedded_corpus(6, 2, 4, 8, 3.0, seed=0))
        payload["n_classes"] = n_classes
        path = tmp_path / "c.json"
        path.write_text(json.dumps(payload))
        message = f"{path}: n_classes {n_classes!r} is not a whole number of at least 1"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_corpus(str(path))

    def test_label_outside_n_classes_refused_naming_the_file(self, tmp_path):
        payload = corpus_to_json_dict(synth_embedded_corpus(6, 2, 4, 8, 3.0, seed=0))
        payload["documents"][3]["label"] = 5
        path = tmp_path / "c.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(f"{path}: item 3 label 5 outside [0, 2)")):
            load_corpus(str(path))

    def test_integral_float_n_classes_accepted(self, tmp_path):
        payload = corpus_to_json_dict(synth_embedded_corpus(6, 2, 4, 8, 3.0, seed=0))
        payload["n_classes"] = 3.0
        path = tmp_path / "c.json"
        path.write_text(json.dumps(payload))
        assert load_corpus(str(path)).n_classes == 3

    @pytest.mark.parametrize("label", [1.7, "1", True, None])
    def test_label_that_is_not_a_whole_number_refused(self, tmp_path, label):
        # 1.7 used to load as 1
        payload = corpus_to_json_dict(synth_embedded_corpus(6, 2, 4, 8, 3.0, seed=0))
        payload["documents"][4]["label"] = label
        path = tmp_path / "c.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"document 4 has label {label!r}, not a whole number"):
            load_corpus(str(path))

    def test_integral_float_label_accepted(self, tmp_path):
        payload = corpus_to_json_dict(synth_embedded_corpus(6, 2, 4, 8, 3.0, seed=0))
        payload["documents"][3]["label"] = 1.0
        path = tmp_path / "c.json"
        path.write_text(json.dumps(payload))
        assert load_corpus(str(path)).items[3][1] == 1

    @pytest.mark.parametrize(
        "tokens",
        [[[1.0, 2.0], [3.0]], [[1.0, "a"]], [["1.5", "2"]], [[1.0, None]], [[True, False]]],
        ids=["ragged", "string", "numeric-string", "null", "bool"],
    )
    def test_bad_tokens_refused_naming_the_document(self, tmp_path, tokens):
        payload = corpus_to_json_dict(synth_embedded_corpus(6, 2, 4, 2, 3.0, seed=0))
        payload["documents"][2]["tokens"] = tokens
        path = tmp_path / "c.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="document 2 tokens"):
            load_corpus(str(path))

    @pytest.mark.parametrize("record", [3, "tokens label"])
    def test_document_that_is_not_an_object_refused(self, tmp_path, record):
        # a number used to raise TypeError, and a string was searched for the key names
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"documents": [{"tokens": [[1.0, 2.0]], "label": 0}, record]}))
        with pytest.raises(ValueError, match="document 1 lacks 'tokens' or 'label'"):
            load_corpus(str(path))

    def test_document_missing_label(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"documents": [{"tokens": [[1.0, 2.0]]}]}))
        with pytest.raises(ValueError, match="label"):
            load_corpus(str(path))
