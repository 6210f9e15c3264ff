"""Command-line interface.

Subcommands: analyze (denoise diagnostics and Hurst profile of a
series file), synth (oracle data generators), train-eval (train the
classifier on a corpus and report held-out metrics), compare (the
activation-zoo and multifractal-method harnesses). Every run writes a
manifest echoing its full effective configuration and the fractamine,
Python and numpy versions that ran it, and every JSON output carries
format_version. Exit codes: 0 success, 1 internal error, 2 usage or
input error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import traceback
from dataclasses import fields, replace

import numpy as np

from . import __version__
from .activations import KINDS, ActivationSpec
from .fourier_denoise import denoise, diagnostics
from .multifractal import METHODS, MfaConfig, hurst_profile, log_spaced_scales
from .neuralnet import ModelConfig, config_json, save_checkpoint
from .series import (
    EmbeddingMatrix,
    LabeledDataset,
    Series,
    load_series,
    synth_binomial_cascade,
    synth_embedded_corpus,
    synth_fgn,
    synth_gaussian_noise,
)
from .training import TrainConfig, evaluate, split_dataset, train

__all__ = ["main", "cmd_analyze", "cmd_synth", "cmd_train_eval", "cmd_compare"]

FORMAT_VERSION = 1


def _parse_q_list(text: str) -> np.ndarray:
    # an empty list parses here and MfaConfig refuses it
    try:
        return np.array([float(tok) for tok in text.split(",") if tok.strip() != ""])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse q list {text!r}, expected comma-separated reals"
        ) from None


def _parse_scales(text: str) -> np.ndarray:
    try:
        lo, hi, count = (int(tok) for tok in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse scales {text!r}, expected min:max:count"
        ) from None
    if lo < 4 or hi < lo or count < 1:
        raise argparse.ArgumentTypeError(
            f"bad scale range {text!r}: need 4 <= min <= max and count >= 1"
        )
    return log_spaced_scales(lo, hi, count)


def _parse_repeats(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r} as an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _write_json(path: str, payload: dict):
    payload = {"format_version": FORMAT_VERSION, **payload}
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2))


def _manifest(out_dir: str, command: str, config: dict):
    versions = {
        "fractamine": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    _write_json(
        os.path.join(out_dir, "manifest.json"),
        {"command": command, "versions": versions, "config": config},
    )


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _given(args, config) -> dict:
    """The flags given on the command line whose dest is a field of config.

    Every flag that sets a config field is named after it and defaults
    to None, so a flag left out keeps the config's own default.
    """
    values = {f.name: getattr(args, f.name, None) for f in fields(config)}
    return {name: value for name, value in values.items() if value is not None}


def _model_config_from_flags(args, n_classes: int) -> ModelConfig:
    base = ModelConfig(n_classes=n_classes)
    given = _given(args, base)
    params = {k: getattr(args, k) for k in ("gamma", "eta") if getattr(args, k) is not None}
    given["activation"] = ActivationSpec(given.get("activation", base.activation.kind), params)
    return replace(base, mfa=replace(base.mfa, **_given(args, base.mfa)), **given)


def cmd_analyze(args) -> int:
    series = load_series(args.input, format=args.format)
    cfg = replace(MfaConfig(), **_given(args, MfaConfig))
    out_dir = _ensure_out(args.out)

    profile = hurst_profile(series, cfg)
    do_denoise = args.denoise if args.denoise is not None else (cfg.method == "fs-mfa")
    if do_denoise:
        # fs-mfa has denoised the series already
        denoised, model, r = profile.denoised or denoise(series)
        _write_json(os.path.join(out_dir, "denoise.json"), diagnostics(model, r))
        _write_series_csv(os.path.join(out_dir, "denoised.csv"), denoised)

    _write_json(os.path.join(out_dir, "hurst.json"), profile.to_json_dict())

    _manifest(
        out_dir,
        "analyze",
        {
            "input": args.input,
            "format": args.format,
            **config_json(cfg),
            "denoise_diagnostics": bool(do_denoise),
        },
    )
    return 0


def _write_series_csv(path: str, series: Series):
    """One "%.17g" line per value, the bytes np.savetxt(path, values, fmt="%.17g") writes."""
    values = series.values.tolist()
    with open(path, "w") as fh:
        fh.write(("%.17g\n" * len(values)) % tuple(values))


def corpus_to_json_dict(dataset: LabeledDataset) -> dict:
    if dataset.tag_sequences is not None:
        raise ValueError("the corpus format has no per-token tags yet; cannot write a tagged dataset")
    return {
        "n_classes": dataset.n_classes,
        "documents": [
            {"tokens": doc.tokens.tolist(), "label": int(label)} for doc, label in dataset.items
        ],
    }


def load_corpus(path: str) -> LabeledDataset:
    with open(path) as fh:
        payload = json.load(fh)
    # a corpus written by hand may leave the version out
    version = payload.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported corpus format_version {version}")
    if "documents" not in payload:
        raise ValueError(f"{path}: corpus JSON needs a 'documents' array")
    docs = payload["documents"]
    if not docs:
        raise ValueError(f"{path}: corpus holds no documents")
    items = []
    for i, record in enumerate(docs):
        if "tokens" not in record or "label" not in record:
            raise ValueError(f"{path}: document {i} lacks 'tokens' or 'label'")
        label = record["label"]
        whole = isinstance(label, float) and label.is_integer()
        if not (whole or (isinstance(label, int) and not isinstance(label, bool))):
            raise ValueError(f"{path}: document {i} has label {label!r}, not a whole number")
        try:
            tokens = np.asarray(record["tokens"])  # ragged rows raise here
            if tokens.dtype.kind not in "iuf":
                raise ValueError(f"entries must be numbers, got {tokens.dtype} entries")
            items.append((EmbeddingMatrix(tokens), int(label)))
        except ValueError as exc:
            raise ValueError(f"{path}: document {i} tokens: {exc}") from None
    n_classes = int(payload.get("n_classes", max(label for _, label in items) + 1))
    return LabeledDataset(items=items, n_classes=n_classes)


def cmd_synth(args) -> int:
    out_dir = _ensure_out(args.out)
    config = {"kind": args.kind, "seed": args.seed}
    if args.kind == "noise":
        series = synth_gaussian_noise(args.n, args.seed)
        config["n"] = args.n
        _write_series_csv(os.path.join(out_dir, "series.csv"), series)
    elif args.kind == "fgn":
        series = synth_fgn(args.n, args.hurst, args.seed)
        config.update(n=args.n, hurst=args.hurst)
        _write_series_csv(os.path.join(out_dir, "series.csv"), series)
    elif args.kind == "cascade":
        series = synth_binomial_cascade(args.levels, args.p)
        config.update(levels=args.levels, p=args.p)
        del config["seed"]  # the cascade is deterministic by construction
        _write_series_csv(os.path.join(out_dir, "series.csv"), series)
    elif args.kind == "corpus":
        dataset = synth_embedded_corpus(
            args.docs, args.classes, args.tokens, args.dim, args.separation, args.seed
        )
        config.update(
            docs=args.docs,
            classes=args.classes,
            tokens=args.tokens,
            dim=args.dim,
            separation=args.separation,
        )
        _write_json(os.path.join(out_dir, "corpus.json"), corpus_to_json_dict(dataset))
    else:
        raise ValueError(f"unknown synth kind {args.kind!r}")
    _manifest(out_dir, "synth", config)
    return 0


def _data_record(args) -> dict:
    """The manifest's record of the corpus: its path, or the flags that
    synthesized it (the seed is TrainConfig.seed)."""
    if args.input:
        return {"data": args.input}
    flags = ("docs", "classes", "tokens", "dim", "separation")
    return {"data": "synthetic", **{name: getattr(args, name) for name in flags}}


def _dataset_from_flags(args, seed: int) -> LabeledDataset:
    if args.input:
        return load_corpus(args.input)
    return synth_embedded_corpus(
        args.docs, args.classes, args.tokens, args.dim, args.separation, seed
    )


def _run_once(dataset, model_cfg, train_cfg):
    splits = split_dataset(dataset, seed=train_cfg.seed)
    for name, part in zip(("train", "val", "test"), splits):
        if not len(part):
            msg = f"{len(dataset)} documents leave the {name} split empty; the 8:1:1 split needs 8"
            raise ValueError(msg)
    train_set, val_set, test_set = splits
    params, history = train(train_set, train_cfg, model_cfg)
    return params, history, {
        "val": evaluate(val_set, model_cfg, params),
        "test": evaluate(test_set, model_cfg, params),
    }


def cmd_train_eval(args) -> int:
    train_cfg = TrainConfig(**_given(args, TrainConfig))
    dataset = _dataset_from_flags(args, train_cfg.seed)
    model_cfg = _model_config_from_flags(args, dataset.n_classes)
    out_dir = _ensure_out(args.out)

    runs = []
    for rep in range(args.repeats):
        run_cfg = replace(train_cfg, seed=train_cfg.seed + rep)
        params, history, metrics = _run_once(dataset, model_cfg, run_cfg)
        runs.append({"seed": run_cfg.seed, "history": history, "metrics": metrics})
        if rep == 0:
            save_checkpoint(params, os.path.join(out_dir, "checkpoint"))
            _write_json(os.path.join(out_dir, "history.json"), {"history": history})

    def mean_over(split, key):
        return float(np.mean([r["metrics"][split][key] for r in runs]))

    metrics_payload = {
        "repeats": args.repeats,
        "mean": {
            split: {key: mean_over(split, key) for key in ("accuracy", "macro_f1")}
            for split in ("val", "test")
        },
        "runs": runs,
    }
    _write_json(os.path.join(out_dir, "metrics.json"), metrics_payload)
    _manifest(
        out_dir,
        "train-eval",
        {
            "model": config_json(model_cfg),
            "train": config_json(train_cfg),
            "repeats": args.repeats,
            **_data_record(args),
        },
    )
    return 0


def _config_hash(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def cmd_compare(args) -> int:
    train_cfg = TrainConfig(**_given(args, TrainConfig))
    dataset = _dataset_from_flags(args, train_cfg.seed)
    out_dir = _ensure_out(args.out)
    base_model = _model_config_from_flags(args, dataset.n_classes)

    base_payload = config_json(base_model)
    if args.mode == "activations":
        del base_payload["activation"]  # the varied axis
        variants = [(kind, replace(base_model, activation=ActivationSpec(kind))) for kind in KINDS]
        label_field = "activation"
    elif args.mode == "mfa":
        del base_payload["mfa"]
        variants = [
            (method, replace(base_model, mfa=replace(base_model.mfa, method=method)))
            for method in METHODS
        ]
        label_field = "method"
    else:
        raise ValueError(f"unknown compare mode {args.mode!r}")

    shared_hash = _config_hash({"base": base_payload, "train": config_json(train_cfg)})

    def run_variant(pair):
        label, model_cfg = pair
        _, _, metrics = _run_once(dataset, model_cfg, train_cfg)
        return {
            label_field: label,
            "seed": train_cfg.seed,
            "config_hash": shared_hash,
            "val_accuracy": metrics["val"]["accuracy"],
            "val_macro_f1": metrics["val"]["macro_f1"],
            "test_accuracy": metrics["test"]["accuracy"],
            "test_macro_f1": metrics["test"]["macro_f1"],
        }

    rows = [run_variant(v) for v in variants]

    payload = {"mode": args.mode, "rows": rows}
    if args.mode == "mfa":
        payload["excluded"] = "MF-DXA (paired-series cross-correlation) is out of scope"
    _write_json(os.path.join(out_dir, "compare.json"), payload)

    csv_path = os.path.join(out_dir, "compare.csv")
    fields = [label_field, "seed", "config_hash", "val_accuracy", "val_macro_f1", "test_accuracy", "test_macro_f1"]
    with open(csv_path, "w") as fh:
        fh.write(",".join(fields) + "\n")
        for row in rows:
            fh.write(",".join(str(row[f]) for f in fields) + "\n")

    _manifest(
        out_dir,
        "compare",
        {
            "mode": args.mode,
            "base": base_payload,
            "train": config_json(train_cfg),
            "config_hash": shared_hash,
            **_data_record(args),
        },
    )
    return 0


def _add_mfa_flags(parser):
    parser.add_argument("--method", choices=METHODS, default=None)
    parser.add_argument("--q", type=_parse_q_list, default=None, dest="q_grid", help="comma-separated q values")
    parser.add_argument("--scales", type=_parse_scales, default=None, help="min:max:count log-spaced windows")
    parser.add_argument("--vol-window", type=int, default=None, dest="vol_window")


def _add_model_flags(parser):
    parser.add_argument("--activation", choices=KINDS, default=None)
    parser.add_argument("--gamma", type=float, default=None)
    parser.add_argument("--eta", type=float, default=None)
    parser.add_argument("--hidden", type=int, default=None)
    parser.add_argument("--filters", type=int, default=None)
    parser.add_argument("--blocks", type=int, default=None)
    parser.add_argument("--conv-width", type=int, default=None, dest="conv_width")


def _add_train_flags(parser):
    parser.add_argument("--epochs", type=int, default=None)
    parser.add_argument("--lr", type=float, default=None, dest="lr_weights")
    parser.add_argument("--lr-act", type=float, default=None, dest="lr_activation")
    parser.add_argument("--seed", type=int, default=None, help="also seeds the synthetic corpus")


def _add_corpus_flags(parser):
    parser.add_argument("--input", default=None, help="corpus JSON path (omit to synthesize)")
    parser.add_argument("--docs", type=int, default=120)
    parser.add_argument("--classes", type=int, default=3)
    parser.add_argument("--tokens", type=int, default=12)
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--separation", type=float, default=4.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fractamine",
        description="Fourier-denoised multifractal series analysis and Hurst-aware classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="denoise diagnostics and Hurst profile of a series")
    p_analyze.add_argument("--input", required=True)
    p_analyze.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_mfa_flags(p_analyze)
    p_analyze.add_argument(
        "--denoise",
        choices=("on", "off"),
        default=None,
        help="write denoise diagnostics (default: on for fs-mfa, off otherwise)",
    )
    p_analyze.add_argument("--out", default=".")
    p_analyze.set_defaults(fn=cmd_analyze)

    p_synth = sub.add_parser("synth", help="generate oracle series or corpora")
    p_synth.add_argument("kind", choices=("noise", "fgn", "cascade", "corpus"))
    p_synth.add_argument("--n", type=int, default=8192)
    p_synth.add_argument("--hurst", type=float, default=0.7)
    p_synth.add_argument("--levels", type=int, default=13)
    p_synth.add_argument("--p", type=float, default=0.75)
    p_synth.add_argument("--docs", type=int, default=300)
    p_synth.add_argument("--classes", type=int, default=3)
    p_synth.add_argument("--tokens", type=int, default=12)
    p_synth.add_argument("--dim", type=int, default=64)
    p_synth.add_argument("--separation", type=float, default=4.0)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", default=".")
    p_synth.set_defaults(fn=cmd_synth)

    p_train = sub.add_parser("train-eval", help="train the classifier and report split metrics")
    _add_corpus_flags(p_train)
    _add_model_flags(p_train)
    _add_mfa_flags(p_train)
    _add_train_flags(p_train)
    p_train.add_argument("--repeats", type=_parse_repeats, default=1)
    p_train.add_argument("--out", default=".")
    p_train.set_defaults(fn=cmd_train_eval)

    p_cmp = sub.add_parser("compare", help="activation-zoo or multifractal-method comparison table")
    p_cmp.add_argument("--mode", choices=("activations", "mfa"), required=True)
    _add_corpus_flags(p_cmp)
    _add_model_flags(p_cmp)
    _add_mfa_flags(p_cmp)
    _add_train_flags(p_cmp)
    p_cmp.add_argument("--out", default=".")
    p_cmp.set_defaults(fn=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    if getattr(args, "denoise", None) is not None:
        args.denoise = args.denoise == "on"
    try:
        return args.fn(args)
    except (FileNotFoundError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
