import json
import os

import numpy as np
import pytest

import fractamine.cli as cli
import fractamine.multifractal as mf
from fractamine.cli import build_parser, corpus_to_json_dict, load_corpus, main
from fractamine.fourier_denoise import denoise, diagnostics_json
from fractamine.series import load_series, synth_embedded_corpus


def run(argv):
    return main(argv)


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

    def test_missing_input_file(self, tmp_path):
        code = run(["analyze", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
        assert code == 2

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

    def test_bad_fgn_hurst(self, tmp_path):
        assert run(["synth", "fgn", "--hurst", "1.5", "--out", str(tmp_path / "o")]) == 2


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
        assert manifest["config"]["method"] == "mf-dfa"
        # mf-dfa does not denoise, so no diagnostics by default
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

    def test_denoise_flag_forces_diagnostics(self, fgn_csv, tmp_path):
        out = tmp_path / "an"
        assert run(
            [
                "analyze", "--input", fgn_csv, "--method", "mf-dfa",
                "--denoise", "on", "--out", str(out),
            ]
        ) == 0
        assert os.path.exists(out / "denoise.json")

    @pytest.mark.parametrize("method,flags", [("fs-mfa", []), ("mf-dhv", ["--denoise", "on"])])
    def test_denoises_once(self, fgn_csv, tmp_path, monkeypatch, method, flags):
        calls = []

        def counting(series):
            calls.append(len(series))
            return denoise(series)

        monkeypatch.setattr(cli, "denoise", counting)
        monkeypatch.setattr(mf, "denoise", counting)
        out = tmp_path / "an"
        assert run(["analyze", "--input", fgn_csv, "--method", method, *flags, "--out", str(out)]) == 0
        assert len(calls) == 1
        denoised, model, r = denoise(load_series(fgn_csv))
        assert (out / "denoise.json").read_text() == diagnostics_json(model, r)
        expected = tmp_path / "expected.csv"
        np.savetxt(expected, denoised.values, fmt="%.17g")
        assert (out / "denoised.csv").read_bytes() == expected.read_bytes()

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

    def test_repeats_average(self, tmp_path):
        out = tmp_path / "tr"
        code = run(
            [
                "train-eval", "--docs", "18", "--classes", "3", "--tokens", "8",
                "--dim", "64", "--hidden", "5", "--filters", "3", "--blocks", "1",
                "--conv-width", "2", "--epochs", "1", "--seed", "0",
                "--repeats", "2", "--out", str(out),
            ]
        )
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert len(metrics["runs"]) == 2
        seeds = [r["seed"] for r in metrics["runs"]]
        assert seeds == [0, 1]
        per_run = [r["metrics"]["test"]["accuracy"] for r in metrics["runs"]]
        assert metrics["mean"]["test"]["accuracy"] == pytest.approx(np.mean(per_run))

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

    def test_thread_env_parallel_result_matches_serial(self, tmp_path, monkeypatch):
        serial_out = tmp_path / "serial"
        run(self.compare_args("mfa", serial_out))
        monkeypatch.setenv("FRACTAMINE_THREADS", "3")
        parallel_out = tmp_path / "parallel"
        run(self.compare_args("mfa", parallel_out))
        a = json.loads((serial_out / "compare.json").read_text())
        b = json.loads((parallel_out / "compare.json").read_text())
        assert a["rows"] == b["rows"]

    def test_bad_thread_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRACTAMINE_THREADS", "lots")
        assert run(self.compare_args("mfa", tmp_path / "cmp")) == 2


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

    def test_missing_documents_key(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="documents"):
            load_corpus(str(path))

    def test_document_missing_label(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"documents": [{"tokens": [[1.0, 2.0]]}]}))
        with pytest.raises(ValueError, match="label"):
            load_corpus(str(path))
