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

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .activations import ActivationSpec
from .autodiff import DiffArray
from .multifractal import MfaConfig, hurst_profile
from .series import EmbeddingMatrix, check_count, mean_embedding

__all__ = [
    "ModelConfig",
    "ModelParams",
    "check_params_config",
    "config_json",
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
    """Architecture knobs, and the one copy of their defaults.

    The CLI sets only the fields whose flags are given. One block of
    width-2 convolutions is the criterion-09 shape; it accepts documents
    of 8 tokens or more (min_tokens).
    """

    n_classes: int = 3
    task: str = "classification"  # or "tagging"
    hidden: int = 32
    filters: int = 32
    blocks: int = 1
    conv_width: int = 2
    dense_width: int = 32
    attn_dim: int = 8
    activation: ActivationSpec = field(default_factory=lambda: ActivationSpec("sital"))
    mfa: MfaConfig = field(default_factory=lambda: MfaConfig(method="fs-mfa"))

    def __post_init__(self):
        if self.task not in ("classification", "tagging"):
            raise ValueError(f"unknown task {self.task!r}")
        for name in ("n_classes", "hidden", "filters", "blocks", "conv_width", "dense_width", "attn_dim"):
            check_count(name, getattr(self, name), 1)

    def min_tokens(self) -> int:
        """Shortest document the convolution and pooling stack accepts.

        Classification: each stage's two valid convolutions shorten the
        sequence by 2 * (conv_width - 1), and each block halves it
        (rounding down) before its stage, so the need is worked back
        from the last stage. Tagging pads and never pools: one token.
        """
        if self.task == "tagging":
            return 1
        shrink = 2 * (self.conv_width - 1)
        need = shrink + 1
        for _ in range(self.blocks):
            need = 2 * need + shrink
        return need

    @classmethod
    def from_json_dict(cls, payload: dict) -> "ModelConfig":
        """Read config_json's form back; every field, nested ones included,
        is required, and a missing key raises KeyError naming it."""
        values = _field_values(cls, payload)
        values["activation"] = ActivationSpec(**_field_values(ActivationSpec, values["activation"]))
        values["mfa"] = MfaConfig(**_field_values(MfaConfig, values["mfa"]))
        return cls(**values)


def _field_values(config_type, payload: dict) -> dict:
    return {f.name: payload[f.name] for f in fields(config_type)}


def _json_fields(pairs) -> dict:
    return {name: value.tolist() if isinstance(value, np.ndarray) else value for name, value in pairs}


def config_json(config) -> dict:
    """The JSON form of a config dataclass: its fields in order, nested
    configs as dicts and arrays as lists. ModelConfig.from_json_dict
    reads it back."""
    return asdict(config, dict_factory=_json_fields)


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
    """Two stacked bidirectional recurrent layers, output (n, 2h) as
    [forward | reverse]; each layer is one two-direction lstm_layer call."""
    x = v if isinstance(v, DiffArray) else DiffArray(v.tokens)
    t = params.tensors
    for layer in range(2):
        wx, wh, b = ([t[f"lstm{layer}{dirn}.{name}"] for dirn in "fb"] for name in ("wx", "wh", "b"))
        x = ad.lstm_layer(x, wx, wh, b, reverse=(False, True))
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
    need = cfg.min_tokens()
    if fvh.data.shape[0] < need:
        raise ValueError(
            f"scnn stage conv.pre: sequence length {fvh.data.shape[0]} is below "
            f"ModelConfig.min_tokens() = {need}"
        )

    def stage(x: DiffArray, site: str) -> DiffArray:
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

    if cfg.task == "classification":
        fvhc = ad.reduce_max(fvhc, axis=0)
    fused = gate_fuse(fvhc, fva_proj, t["gate2.kappa"], t["gate2.bias"])

    hidden = _site_activation(ad.add(ad.matmul(fused, t["dense0.w"]), t["dense0.b"]), "dense0", params)
    return ad.add(ad.matmul(hidden, t["head.w"]), t["head.b"])


def check_params_config(params: ModelParams, cfg: ModelConfig) -> None:
    """Refuse params built for a config other than cfg.

    The network reads params.config while the Hurst features follow
    cfg, so a mismatch would score a hybrid of the two. An equal config
    passes; the error names the fields that differ. The config object
    itself passes without a comparison.
    """
    if params.config is cfg:
        return
    built, given = config_json(params.config), config_json(cfg)
    if built != given:
        differ = ", ".join(name for name in given if built[name] != given[name])
        raise ValueError(f"the model parameters were built for another config (differing: {differ})")


def predict_proba(v: EmbeddingMatrix, cfg: ModelConfig, params: ModelParams, fv=None) -> np.ndarray:
    """Softmax class probabilities (per token when tagging); params must
    have been built for cfg (check_params_config) and for the document's
    embedding width. An fv override must be a finite vector with one
    entry per q of cfg.mfa.q_grid."""
    check_params_config(params, cfg)
    if v.dim != params.embed_dim:
        raise ValueError(
            f"the document has embedding width {v.dim}; the model parameters "
            f"were built for width {params.embed_dim}"
        )
    if fv is not None:
        fv = np.asarray(fv, dtype=np.float64)
        want = cfg.mfa.q_grid.size
        if fv.shape != (want,) or not np.all(np.isfinite(fv)):
            raise ValueError(f"fv must be a finite vector of length {want} (one per q), got shape {fv.shape}")
    logits = deffsi_forward(v, cfg, params, fv=fv)
    return ad.softmax(logits).data


def save_checkpoint(params: ModelParams, prefix: str) -> tuple[str, str]:
    """Write <prefix>.json (config + manifest) and <prefix>.bin (float64 LE).

    Both files are written in full to temporary files in the target
    directory and flushed to disk before either is renamed into place,
    so a write that fails leaves an earlier checkpoint at prefix intact.
    Each rename is atomic; the pair of renames is not, so the header
    carries the blob's sha256 and load_checkpoint refuses a header
    beside a blob from another save.
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
    blob = np.concatenate(chunks).tobytes()
    header = {
        "format_version": 1,
        "config": config_json(params.config),
        "embed_dim": params.embed_dim,
        "total_values": offset,
        "blob_sha256": hashlib.sha256(blob).hexdigest(),
        "manifest": manifest,
    }
    json_path = f"{prefix}.json"
    bin_path = f"{prefix}.bin"
    staged = {json_path: json.dumps(header, indent=2).encode(), bin_path: blob}
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
    """Read a checkpoint written by save_checkpoint.

    Raises ValueError when the blob's sha256 differs from the one in the
    header (for instance the header of one save beside the blob of
    another), or when the tensor names or shapes differ from what
    init_params builds for the stored config; the error names the
    tensor.
    """
    with open(f"{prefix}.json") as fh:
        header = json.load(fh)
    if header.get("format_version") != 1:
        raise ValueError(f"unsupported checkpoint format_version {header.get('format_version')}")
    with open(f"{prefix}.bin", "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    if digest != header.get("blob_sha256"):
        raise ValueError(
            f"{prefix}.bin has sha256 {digest}, the header expects {header.get('blob_sha256')}"
        )
    blob = np.frombuffer(raw, dtype="<f8")
    if blob.size != header["total_values"]:
        raise ValueError(
            f"checkpoint blob holds {blob.size} values, manifest expects {header['total_values']}"
        )
    cfg = ModelConfig.from_json_dict(header["config"])
    expected = init_params(cfg, header["embed_dim"], seed=0).tensors
    manifest = header["manifest"]
    unknown = sorted(manifest.keys() - expected.keys())
    if unknown:
        raise ValueError(f"checkpoint tensor {unknown[0]!r} is not part of the stored config")
    tensors = {}
    for name, template in expected.items():
        if name not in manifest:
            raise ValueError(f"checkpoint lacks tensor {name!r}")
        shape = tuple(manifest[name]["shape"])
        if shape != template.data.shape:
            raise ValueError(
                f"checkpoint tensor {name!r} has shape {shape}, the stored config "
                f"needs {template.data.shape}"
            )
        start = manifest[name]["offset"]
        tensors[name] = DiffArray(blob[start : start + template.data.size].reshape(shape).copy())
    return ModelParams(config=cfg, embed_dim=header["embed_dim"], tensors=tensors)
