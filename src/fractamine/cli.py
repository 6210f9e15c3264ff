"""Command-line interface.

Subcommands: analyze (denoise diagnostics and Hurst profile of a
series file), synth (oracle data generators), train-eval (train the
classifier on a corpus and report held-out metrics), compare (the
activation-zoo and multifractal-method harnesses). Every run writes a
manifest echoing its full effective configuration, and every JSON
output carries format_version. Exit codes: 0 success, 1 internal
error, 2 usage or input error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .activations import KINDS, ActivationSpec
from .fourier_denoise import denoise, diagnostics_json
from .multifractal import METHODS, MfaConfig, default_q_grid, hurst_profile
from .neuralnet import ModelConfig, save_checkpoint
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
    try:
        values = np.array([float(tok) for tok in text.split(",") if tok.strip() != ""])
    except ValueError:
        raise ValueError(f"cannot parse q list {text!r}, expected comma-separated reals") from None
    if values.size == 0:
        raise ValueError("q list is empty")
    return values


def _parse_scales(text: str) -> np.ndarray:
    try:
        lo, hi, count = (int(tok) for tok in text.split(":"))
    except ValueError:
        raise ValueError(f"cannot parse scales {text!r}, expected min:max:count") from None
    if lo < 4 or hi < lo or count < 1:
        raise ValueError(f"bad scale range {text!r}: need 4 <= min <= max and count >= 1")
    raw = np.exp(np.linspace(np.log(lo), np.log(hi), count))
    return np.unique(np.round(raw).astype(np.int64))


def _write_json(path: str, payload: dict):
    payload = {"format_version": FORMAT_VERSION, **payload}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)


def _manifest(out_dir: str, command: str, config: dict):
    _write_json(os.path.join(out_dir, "manifest.json"), {"command": command, "config": config})


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _mfa_config_from_flags(args) -> MfaConfig:
    q_grid = _parse_q_list(args.q) if args.q else default_q_grid()
    scales = _parse_scales(args.scales) if args.scales else None
    return MfaConfig(
        method=args.method,
        q_grid=q_grid,
        scales=scales,
        vol_window=args.vol_window,
    )


def _activation_from_flags(args) -> ActivationSpec:
    params = {}
    if args.activation == "sital":
        params = {"gamma": args.gamma, "eta": args.eta}
    return ActivationSpec(kind=args.activation, params=params)


def cmd_analyze(args) -> int:
    series = load_series(args.input, format=args.format)
    cfg = _mfa_config_from_flags(args)
    out_dir = _ensure_out(args.out)

    profile = hurst_profile(series, cfg)
    do_denoise = args.denoise if args.denoise is not None else (cfg.method == "fs-mfa")
    if do_denoise:
        # fs-mfa has denoised the series already
        denoised, model, r = profile.denoised or denoise(series)
        with open(os.path.join(out_dir, "denoise.json"), "w") as fh:
            fh.write(diagnostics_json(model, r))
        np.savetxt(os.path.join(out_dir, "denoised.csv"), denoised.values, fmt="%.17g")

    with open(os.path.join(out_dir, "hurst.json"), "w") as fh:
        fh.write(profile.to_json())

    _manifest(
        out_dir,
        "analyze",
        {
            "input": args.input,
            "format": args.format,
            "method": cfg.method,
            "q": [float(q) for q in cfg.q_grid],
            "scales": None if cfg.scales is None else [int(s) for s in cfg.scales],
            "vol_window": cfg.vol_window,
            "denoise_diagnostics": bool(do_denoise),
        },
    )
    return 0


def _write_series_csv(path: str, series: Series):
    np.savetxt(path, series.values, fmt="%.17g")


def corpus_to_json_dict(dataset: LabeledDataset) -> dict:
    return {
        "n_classes": dataset.n_classes,
        "documents": [
            {"tokens": doc.tokens.tolist(), "label": int(label)} for doc, label in dataset.items
        ],
    }


def load_corpus(path: str) -> LabeledDataset:
    with open(path) as fh:
        payload = json.load(fh)
    if "documents" not in payload:
        raise ValueError(f"{path}: corpus JSON needs a 'documents' array")
    docs = payload["documents"]
    if not docs:
        raise ValueError(f"{path}: corpus holds no documents")
    items = []
    for i, record in enumerate(docs):
        if "tokens" not in record or "label" not in record:
            raise ValueError(f"{path}: document {i} lacks 'tokens' or 'label'")
        items.append((EmbeddingMatrix(np.asarray(record["tokens"])), int(record["label"])))
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


def _dataset_from_flags(args) -> LabeledDataset:
    if args.input:
        return load_corpus(args.input)
    return synth_embedded_corpus(
        args.docs, args.classes, args.tokens, args.dim, args.separation, args.seed
    )


def _run_once(dataset, model_cfg, train_cfg):
    train_set, val_set, test_set = split_dataset(dataset, seed=train_cfg.seed)
    params, history = train(train_set, train_cfg, model_cfg)
    return params, history, {
        "val": evaluate(val_set, model_cfg, params),
        "test": evaluate(test_set, model_cfg, params),
    }


def cmd_train_eval(args) -> int:
    dataset = _dataset_from_flags(args)
    model_cfg = ModelConfig(
        n_classes=dataset.n_classes,
        hidden=args.hidden,
        filters=args.filters,
        blocks=args.blocks,
        conv_width=args.conv_width,
        activation=_activation_from_flags(args),
        mfa=_mfa_config_from_flags(args),
    )
    out_dir = _ensure_out(args.out)

    runs = []
    for rep in range(args.repeats):
        train_cfg = TrainConfig(
            lr_weights=args.lr,
            lr_activation=args.lr_act,
            epochs=args.epochs,
            seed=args.seed + rep,
        )
        params, history, metrics = _run_once(dataset, model_cfg, train_cfg)
        runs.append({"seed": train_cfg.seed, "history": history, "metrics": metrics})
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
            "model": model_cfg.to_json_dict(),
            "epochs": args.epochs,
            "lr": args.lr,
            "lr_act": args.lr_act,
            "seed": args.seed,
            "repeats": args.repeats,
            "data": args.input or "synthetic",
        },
    )
    return 0


def _config_hash(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _max_workers() -> int:
    raw = os.environ.get("FRACTAMINE_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError(f"FRACTAMINE_THREADS must be an integer, got {raw!r}") from None
    return max(1, workers)


def cmd_compare(args) -> int:
    dataset = _dataset_from_flags(args)
    out_dir = _ensure_out(args.out)
    base_model = ModelConfig(
        n_classes=dataset.n_classes,
        hidden=args.hidden,
        filters=args.filters,
        blocks=args.blocks,
        conv_width=args.conv_width,
        activation=_activation_from_flags(args),
        mfa=_mfa_config_from_flags(args),
    )
    train_cfg = TrainConfig(
        lr_weights=args.lr, lr_activation=args.lr_act, epochs=args.epochs, seed=args.seed
    )

    base_payload = base_model.to_json_dict()
    if args.mode == "activations":
        del base_payload["activation"]  # the varied axis
        variants = [(kind, ModelConfig(
            n_classes=base_model.n_classes,
            hidden=base_model.hidden,
            filters=base_model.filters,
            blocks=base_model.blocks,
            conv_width=base_model.conv_width,
            activation=ActivationSpec(kind),
            mfa=base_model.mfa,
        )) for kind in KINDS]
        label_field = "activation"
    elif args.mode == "mfa":
        del base_payload["mfa"]
        variants = []
        for method in METHODS:
            mfa = MfaConfig(
                method=method,
                q_grid=base_model.mfa.q_grid,
                scales=base_model.mfa.scales,
                vol_window=base_model.mfa.vol_window,
            )
            variants.append((method, ModelConfig(
                n_classes=base_model.n_classes,
                hidden=base_model.hidden,
                filters=base_model.filters,
                blocks=base_model.blocks,
                conv_width=base_model.conv_width,
                activation=base_model.activation,
                mfa=mfa,
            )))
        label_field = "method"
    else:
        raise ValueError(f"unknown compare mode {args.mode!r}")

    shared_hash = _config_hash(
        {"base": base_payload, "epochs": args.epochs, "lr": args.lr, "seed": args.seed}
    )

    def run_variant(pair):
        label, model_cfg = pair
        _, _, metrics = _run_once(dataset, model_cfg, train_cfg)
        return {
            label_field: label,
            "seed": args.seed,
            "config_hash": shared_hash,
            "val_accuracy": metrics["val"]["accuracy"],
            "val_macro_f1": metrics["val"]["macro_f1"],
            "test_accuracy": metrics["test"]["accuracy"],
            "test_macro_f1": metrics["test"]["macro_f1"],
        }

    workers = _max_workers()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(run_variant, variants))
    else:
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
            "seed": args.seed,
            "epochs": args.epochs,
            "config_hash": shared_hash,
            "threads": workers,
        },
    )
    return 0


def _add_mfa_flags(parser):
    parser.add_argument("--method", choices=METHODS, default="mf-dfa")
    parser.add_argument("--q", default=None, help="comma-separated q values")
    parser.add_argument("--scales", default=None, help="min:max:count log-spaced windows")
    parser.add_argument("--vol-window", type=int, default=16, dest="vol_window")


def _add_model_flags(parser):
    parser.add_argument("--activation", choices=KINDS, default="sital")
    parser.add_argument("--gamma", type=float, default=1.0)
    parser.add_argument("--eta", type=float, default=1.0)
    parser.add_argument("--hidden", type=int, default=32)
    parser.add_argument("--filters", type=int, default=32)
    parser.add_argument("--blocks", type=int, default=2)
    parser.add_argument("--conv-width", type=int, default=4, dest="conv_width")


def _add_train_flags(parser):
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--lr", type=float, default=3e-4)
    parser.add_argument("--lr-act", type=float, default=5e-4, dest="lr_act")
    parser.add_argument("--repeats", type=int, default=1)


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
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--out", default=".")
    p_train.set_defaults(fn=cmd_train_eval)

    p_cmp = sub.add_parser("compare", help="activation-zoo or multifractal-method comparison table")
    p_cmp.add_argument("--mode", choices=("activations", "mfa"), required=True)
    _add_corpus_flags(p_cmp)
    _add_model_flags(p_cmp)
    _add_mfa_flags(p_cmp)
    _add_train_flags(p_cmp)
    p_cmp.add_argument("--seed", type=int, default=0)
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
