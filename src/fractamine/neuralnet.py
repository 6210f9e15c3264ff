"""Hurst-aware sequence classifier.

Pipeline: two stacked bidirectional recurrent layers encode the token
embeddings; the encoded states are gate-fused with a projection of the
Hurst vector; residual convolution blocks compress the fused sequence;
additive attention re-weights the Hurst vector; a second gate merges
the pooled convolutional summary with the attended vector; a dense
stack and softmax head finish the job. The tagging variant keeps the
sequence length intact and emits per-token distributions.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .activations import ActivationSpec
from .autodiff import DiffArray
from .multifractal import MfaConfig, hurst_profile
from .series import EmbeddingMatrix, mean_embedding

__all__ = [
    "ModelConfig",
    "ModelParams",
    "birnn_forward",
    "gate_fuse",
    "scnn_forward",
    "attention_fv",
    "deffsi_forward",
    "hurst_features",
    "init_params",
    "save_checkpoint",
    "load_checkpoint",
]


@dataclass(frozen=True)
class ModelConfig:
    """Architecture knobs.

    Desk-scale defaults keep every test fast; full_scale() switches to
    the full-size production configuration (hidden 200, filters 256,
    five blocks).
    """

    n_classes: int = 3
    task: str = "classification"  # or "tagging"
    hidden: int = 32
    filters: int = 32
    blocks: int = 2
    conv_width: int = 4
    dense_width: int = 32
    attn_dim: int = 8
    activation: ActivationSpec = field(default_factory=lambda: ActivationSpec("sital"))
    mfa: MfaConfig = field(default_factory=lambda: MfaConfig(method="fs-mfa"))

    def __post_init__(self):
        if self.task not in ("classification", "tagging"):
            raise ValueError(f"unknown task {self.task!r}")
        for name in ("n_classes", "hidden", "filters", "blocks", "conv_width", "dense_width", "attn_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")

    def full_scale(self) -> "ModelConfig":
        return replace(self, hidden=200, filters=256, blocks=5)

    def to_json_dict(self) -> dict:
        mfa = self.mfa
        return {
            "n_classes": self.n_classes,
            "task": self.task,
            "hidden": self.hidden,
            "filters": self.filters,
            "blocks": self.blocks,
            "conv_width": self.conv_width,
            "dense_width": self.dense_width,
            "attn_dim": self.attn_dim,
            "activation": self.activation.to_json_dict(),
            "mfa": {
                "method": mfa.method,
                "q_grid": [float(q) for q in mfa.q_grid],
                "scales": None if mfa.scales is None else [int(s) for s in mfa.scales],
                "vol_window": mfa.vol_window,
                "dfa_poly_order": mfa.dfa_poly_order,
            },
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "ModelConfig":
        mfa = payload["mfa"]
        return cls(
            n_classes=payload["n_classes"],
            task=payload["task"],
            hidden=payload["hidden"],
            filters=payload["filters"],
            blocks=payload["blocks"],
            conv_width=payload["conv_width"],
            dense_width=payload["dense_width"],
            attn_dim=payload["attn_dim"],
            activation=ActivationSpec.from_json_dict(payload["activation"]),
            mfa=MfaConfig(
                method=mfa["method"],
                q_grid=np.asarray(mfa["q_grid"]),
                scales=None if mfa["scales"] is None else np.asarray(mfa["scales"]),
                vol_window=mfa["vol_window"],
                dfa_poly_order=mfa["dfa_poly_order"],
            ),
        )


@dataclass
class ModelParams:
    """Named parameter tensors plus the config they were built for."""

    config: ModelConfig
    embed_dim: int
    tensors: dict[str, DiffArray]

    def zero_grads(self):
        for t in self.tensors.values():
            t.grad = None


_INIT_SCALE = 0.08


def _uniform(rng, *shape) -> np.ndarray:
    return rng.uniform(-_INIT_SCALE, _INIT_SCALE, size=shape)


def _conv_channel_plan(cfg: ModelConfig) -> list[int]:
    """Input channel count of each convolution stage, pre-stage first."""
    c0 = 2 * cfg.hidden
    plan = [c0]
    channels = c0 + cfg.filters
    for _ in range(cfg.blocks):
        plan.append(channels)
        channels += cfg.filters
    return plan


def final_channels(cfg: ModelConfig) -> int:
    """Channel width after the last residual concatenation."""
    return 2 * cfg.hidden + (cfg.blocks + 1) * cfg.filters


def init_params(cfg: ModelConfig, embed_dim: int, seed: int) -> ModelParams:
    """Uniform(-0.08, 0.08) weights, zero biases, unit sital parameters."""
    rng = np.random.default_rng(seed)
    h = cfg.hidden
    f = cfg.filters
    w = cfg.conv_width
    m = int(cfg.mfa.q_grid.size)
    t: dict[str, np.ndarray] = {}

    in_dim = embed_dim
    for layer in range(2):
        for dirn in ("f", "b"):
            t[f"lstm{layer}{dirn}.wx"] = _uniform(rng, in_dim, 4 * h)
            t[f"lstm{layer}{dirn}.wh"] = _uniform(rng, h, 4 * h)
            t[f"lstm{layer}{dirn}.b"] = np.zeros(4 * h)
        in_dim = 2 * h

    t["fvproj.w"] = _uniform(rng, m, 2 * h)
    t["fvproj.b"] = np.zeros(2 * h)
    t["gate1.kappa"] = _uniform(rng, 2 * h, 2 * h)
    t["gate1.bias"] = np.zeros(2 * h)

    plan = _conv_channel_plan(cfg)
    t["conv.pre.c1.k"] = _uniform(rng, w, plan[0], f)
    t["conv.pre.c1.b"] = np.zeros(f)
    t["conv.pre.c2.k"] = _uniform(rng, w, f, f)
    t["conv.pre.c2.b"] = np.zeros(f)
    for i in range(cfg.blocks):
        t[f"conv.block{i}.c1.k"] = _uniform(rng, w, plan[i + 1], f)
        t[f"conv.block{i}.c1.b"] = np.zeros(f)
        t[f"conv.block{i}.c2.k"] = _uniform(rng, w, f, f)
        t[f"conv.block{i}.c2.b"] = np.zeros(f)

    k = cfg.attn_dim
    t["attn.w_mean"] = _uniform(rng, k)
    t["attn.w_pos"] = _uniform(rng, k)
    t["attn.bias"] = np.zeros(k)
    t["attn.q"] = _uniform(rng, k)

    cf = final_channels(cfg)
    t["fva_proj.w"] = _uniform(rng, m, cf)
    t["fva_proj.b"] = np.zeros(cf)
    t["gate2.kappa"] = _uniform(rng, cf, cf)
    t["gate2.bias"] = np.zeros(cf)

    t["dense0.w"] = _uniform(rng, cf, cfg.dense_width)
    t["dense0.b"] = np.zeros(cfg.dense_width)
    out_dim = cfg.n_classes
    t["head.w"] = _uniform(rng, cfg.dense_width, out_dim)
    t["head.b"] = np.zeros(out_dim)

    if cfg.activation.kind == "sital":
        for site in _sital_sites(cfg):
            t[f"act.{site}.gamma"] = np.asarray(cfg.activation.params["gamma"])
            t[f"act.{site}.eta"] = np.asarray(cfg.activation.params["eta"])

    return ModelParams(
        config=cfg,
        embed_dim=embed_dim,
        tensors={name: DiffArray(v) for name, v in t.items()},
    )


def _sital_sites(cfg: ModelConfig) -> list[str]:
    sites = ["conv.pre"]
    sites += [f"conv.block{i}" for i in range(cfg.blocks)]
    sites.append("dense0")
    return sites


def _site_activation(x: DiffArray, site: str, params: ModelParams) -> DiffArray:
    """Apply the configured nonlinearity at a named site.

    sital reads its per-site trainable (gamma, eta); every other kind
    is a fixed elementwise map.
    """
    spec = params.config.activation
    if spec.kind == "sital":
        return ad.sital_op(x, params.tensors[f"act.{site}.gamma"], params.tensors[f"act.{site}.eta"])
    return ad.activation(x, spec)


def birnn_forward(v: EmbeddingMatrix | DiffArray, params: ModelParams) -> DiffArray:
    """Two stacked bidirectional recurrent layers, output (n, 2h)."""
    x = v if isinstance(v, DiffArray) else DiffArray(v.tokens)
    t = params.tensors
    for layer in range(2):
        fwd = ad.lstm_layer(x, t[f"lstm{layer}f.wx"], t[f"lstm{layer}f.wh"], t[f"lstm{layer}f.b"])
        bwd = ad.lstm_layer(
            x, t[f"lstm{layer}b.wx"], t[f"lstm{layer}b.wh"], t[f"lstm{layer}b.b"], reverse=True
        )
        x = ad.concat([fwd, bwd], axis=1)
    return x


def gate_fuse(a: DiffArray, b: DiffArray, kappa: DiffArray, bias: DiffArray) -> DiffArray:
    """lambda = sigmoid(a @ kappa + bias); lambda*a + (1-lambda)*b.

    b may broadcast against a (the projected Hurst vector is shared
    across sequence positions).
    """
    lam = ad.sigmoid(ad.add(ad.matmul(a, kappa), bias))
    one_minus = ad.sub(DiffArray(np.ones_like(lam.data)), lam)
    return ad.add(ad.mul(lam, a), ad.mul(one_minus, b))


def scnn_forward(fvh: DiffArray, params: ModelParams) -> DiffArray:
    """Residual convolution stack.

    Pre-stage: conv + sital, conv, then channel-concat with the input
    center-cropped to the surviving length. Each block: max-pool, the
    same conv pair, channel-concat with the cropped pooled input. The
    tagging variant pads convolutions to constant length and skips
    pooling so every token keeps a position.
    """
    cfg = params.config
    t = params.tensors
    same = cfg.task == "tagging"

    def stage(x: DiffArray, site: str) -> DiffArray:
        w = cfg.conv_width
        need = 1 if same else 2 * (w - 1) + 1
        if x.data.shape[0] < need:
            raise ValueError(
                f"scnn stage {site}: sequence length {x.data.shape[0]} cannot absorb "
                f"two width-{w} convolutions"
            )
        y = ad.conv1d(x, t[f"{site}.c1.k"], t[f"{site}.c1.b"], same_length=same)
        y = _site_activation(y, site, params)
        y = ad.conv1d(y, t[f"{site}.c2.k"], t[f"{site}.c2.b"], same_length=same)
        if same:
            cropped = x
        else:
            trim = x.data.shape[0] - y.data.shape[0]
            cropped = ad.narrow(x, 0, trim // 2, y.data.shape[0])
        return ad.concat([cropped, y], axis=1)

    x = stage(fvh, "conv.pre")
    for i in range(cfg.blocks):
        if not same:
            if x.data.shape[0] < 2:
                raise ValueError(f"scnn stage conv.block{i}: length {x.data.shape[0]} cannot be pooled")
            x = ad.maxpool(x, 2, 2)
        x = stage(x, f"conv.block{i}")
    return x


def attention_fv(fv: DiffArray, params: ModelParams) -> DiffArray:
    """Additive attention over the Hurst vector.

    score_i = q . tanh(w_mean * mean(fv) + w_pos * fv_i + bias);
    weights = softmax(scores); output re-weights fv elementwise.
    """
    t = params.tensors
    m = fv.data.shape[0]
    mean_term = ad.mul(t["attn.w_mean"], ad.mean_all(fv))  # (k,)
    pos_term = ad.mul(ad.reshape(fv, (m, 1)), ad.reshape(t["attn.w_pos"], (1, -1)))  # (m, k)
    scores = ad.matmul(ad.tanh(ad.add(ad.add(pos_term, mean_term), t["attn.bias"])), t["attn.q"])
    weights = ad.softmax(scores)
    return ad.mul(weights, fv)


def hurst_features(v: EmbeddingMatrix, cfg: ModelConfig) -> np.ndarray:
    """Generalized Hurst vector of the mean-embedding signal.

    q values whose fit failed (too few valid scales) fall back to 0.5,
    the neutral no-memory exponent, so downstream layers always see
    finite inputs. Signals too short for any scale get the all-0.5
    vector for the same reason.
    """
    try:
        profile = hurst_profile(mean_embedding(v), cfg.mfa)
    except ValueError:
        return np.full(cfg.mfa.q_grid.size, 0.5)
    fv = profile.hurst.copy()
    fv[~np.isfinite(fv)] = 0.5
    return fv


def deffsi_forward(
    v: EmbeddingMatrix,
    cfg: ModelConfig,
    params: ModelParams,
    fv: np.ndarray | None = None,
) -> DiffArray:
    """Raw class scores for one document (or per-token scores when tagging).

    fv overrides the Hurst feature vector; callers that batch many
    forwards precompute it once per document since it does not depend
    on the trainable parameters.
    """
    if fv is None:
        fv = hurst_features(v, cfg)
    fv_t = DiffArray(fv)
    t = params.tensors

    h_seq = birnn_forward(v, params)
    fv_proj = ad.add(ad.matmul(fv_t, t["fvproj.w"]), t["fvproj.b"])
    fvh = gate_fuse(h_seq, fv_proj, t["gate1.kappa"], t["gate1.bias"])
    fvhc = scnn_forward(fvh, params)
    fva = attention_fv(fv_t, params)
    fva_proj = ad.add(ad.matmul(fva, t["fva_proj.w"]), t["fva_proj.b"])

    if cfg.task == "tagging":
        fused = gate_fuse(fvhc, fva_proj, t["gate2.kappa"], t["gate2.bias"])
    else:
        summary = ad.reduce_max(fvhc, axis=0)
        fused = gate_fuse(summary, fva_proj, t["gate2.kappa"], t["gate2.bias"])

    hidden = _site_activation(ad.add(ad.matmul(fused, t["dense0.w"]), t["dense0.b"]), "dense0", params)
    return ad.add(ad.matmul(hidden, t["head.w"]), t["head.b"])


def predict_proba(v: EmbeddingMatrix, cfg: ModelConfig, params: ModelParams, fv=None) -> np.ndarray:
    """Softmax class probabilities (per token when tagging)."""
    logits = deffsi_forward(v, cfg, params, fv=fv)
    return ad.softmax(logits).data


def save_checkpoint(params: ModelParams, prefix: str) -> tuple[str, str]:
    """Write <prefix>.json (config + manifest) and <prefix>.bin (float64 LE).

    Both files are written in full to temporary files in the target
    directory and flushed to disk before either is renamed into place,
    so a write that fails leaves an earlier checkpoint at prefix intact.
    Each rename is atomic; the pair of renames is not.
    """
    names = sorted(params.tensors)
    manifest = {}
    chunks = []
    offset = 0
    for name in names:
        arr = params.tensors[name].data
        manifest[name] = {"offset": offset, "shape": list(arr.shape)}
        flat = np.ascontiguousarray(arr, dtype="<f8").reshape(-1)
        chunks.append(flat)
        offset += flat.size
    header = {
        "format_version": 1,
        "config": params.config.to_json_dict(),
        "embed_dim": params.embed_dim,
        "total_values": offset,
        "manifest": manifest,
    }
    json_path = f"{prefix}.json"
    bin_path = f"{prefix}.bin"
    staged = {
        json_path: json.dumps(header, indent=2).encode(),
        bin_path: np.concatenate(chunks).tobytes(),
    }
    try:
        for path, data in staged.items():
            with open(f"{path}.tmp", "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
        for path in staged:
            os.replace(f"{path}.tmp", path)
    finally:
        for path in staged:
            if os.path.exists(f"{path}.tmp"):
                os.remove(f"{path}.tmp")
    return json_path, bin_path


def load_checkpoint(prefix: str) -> ModelParams:
    with open(f"{prefix}.json") as fh:
        header = json.load(fh)
    if header.get("format_version") != 1:
        raise ValueError(f"unsupported checkpoint format_version {header.get('format_version')}")
    with open(f"{prefix}.bin", "rb") as fh:
        blob = np.frombuffer(fh.read(), dtype="<f8")
    if blob.size != header["total_values"]:
        raise ValueError(
            f"checkpoint blob holds {blob.size} values, manifest expects {header['total_values']}"
        )
    cfg = ModelConfig.from_json_dict(header["config"])
    tensors = {}
    for name, entry in header["manifest"].items():
        shape = tuple(entry["shape"])
        size = int(np.prod(shape)) if shape else 1
        start = entry["offset"]
        tensors[name] = DiffArray(blob[start : start + size].reshape(shape).copy())
    return ModelParams(config=cfg, embed_dim=header["embed_dim"], tensors=tensors)
