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
import math
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
    "check_document",
    "check_params_config",
    "config_json",
    "birnn_forward",
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
        if not isinstance(self.activation, ActivationSpec):
            raise TypeError(f"activation must be an ActivationSpec, got {self.activation!r}")
        if not isinstance(self.mfa, MfaConfig):
            raise TypeError(f"mfa must be an MfaConfig, got {self.mfa!r}")
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


def _conv_sites(cfg: ModelConfig) -> list[str]:
    """Convolution stages in order; stage i takes 2*hidden + i*filters channels."""
    return ["conv.pre", *(f"conv.block{i}" for i in range(cfg.blocks))]


def final_channels(cfg: ModelConfig) -> int:
    """Channel width after the last residual concatenation."""
    return 2 * cfg.hidden + (cfg.blocks + 1) * cfg.filters


def _param_shapes(cfg: ModelConfig, embed_dim: int) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter tensor, in init_params' draw order."""
    h = cfg.hidden
    f = cfg.filters
    w = cfg.conv_width
    m = int(cfg.mfa.q_grid.size)
    shapes: dict[str, tuple[int, ...]] = {}

    in_dim = embed_dim
    for layer in range(2):
        for dirn in ("f", "b"):
            shapes[f"lstm{layer}{dirn}.wx"] = (in_dim, 4 * h)
            shapes[f"lstm{layer}{dirn}.wh"] = (h, 4 * h)
            shapes[f"lstm{layer}{dirn}.b"] = (4 * h,)
        in_dim = 2 * h

    shapes["fvproj.w"] = (m, 2 * h)
    shapes["fvproj.b"] = (2 * h,)
    shapes["gate1.kappa"] = (2 * h, 2 * h)
    shapes["gate1.bias"] = (2 * h,)

    for i, site in enumerate(_conv_sites(cfg)):
        shapes[f"{site}.c1.k"] = (w, 2 * h + i * f, f)
        shapes[f"{site}.c1.b"] = (f,)
        shapes[f"{site}.c2.k"] = (w, f, f)
        shapes[f"{site}.c2.b"] = (f,)

    k = cfg.attn_dim
    shapes["attn.w_mean"] = (k,)
    shapes["attn.w_pos"] = (k,)
    shapes["attn.bias"] = (k,)
    shapes["attn.q"] = (k,)

    cf = final_channels(cfg)
    shapes["fva_proj.w"] = (m, cf)
    shapes["fva_proj.b"] = (cf,)
    shapes["gate2.kappa"] = (cf, cf)
    shapes["gate2.bias"] = (cf,)

    shapes["dense0.w"] = (cf, cfg.dense_width)
    shapes["dense0.b"] = (cfg.dense_width,)
    shapes["head.w"] = (cfg.dense_width, cfg.n_classes)
    shapes["head.b"] = (cfg.n_classes,)

    if cfg.activation.kind == "sital":
        for site in (*_conv_sites(cfg), "dense0"):
            shapes[f"act.{site}.gamma"] = ()
            shapes[f"act.{site}.eta"] = ()
    return shapes


def is_activation_param(name: str) -> bool:
    """True for a trainable activation parameter (act.<site>.<name>)."""
    return name.startswith("act.")


def init_params(cfg: ModelConfig, embed_dim: int, seed: int) -> ModelParams:
    """Uniform(-0.08, 0.08) weights, zero biases, sital parameters at the
    spec's values, drawn in _param_shapes' order."""
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape in _param_shapes(cfg, embed_dim).items():
        if is_activation_param(name):
            value = np.asarray(cfg.activation.params[name.rsplit(".", 1)[1]])
        elif name.endswith((".b", ".bias")):
            value = np.zeros(shape)
        else:
            value = _uniform(rng, *shape)
        tensors[name] = DiffArray(value)
    return ModelParams(config=cfg, embed_dim=embed_dim, tensors=tensors)


def _site_activation(x: DiffArray, site: str, params: ModelParams) -> DiffArray:
    """Apply the configured nonlinearity at a named site.

    sital reads its per-site trainable (gamma, eta); every other kind
    is a fixed elementwise map.
    """
    spec = params.config.activation
    if spec.kind == "sital":
        return ad.sital_op(x, params.tensors[f"act.{site}.gamma"], params.tensors[f"act.{site}.eta"])
    return ad.activation(x, spec)


def _affine(x: DiffArray, name: str, params: ModelParams) -> DiffArray:
    """x @ <name>.w + <name>.b, one ad.affine node."""
    return ad.affine(x, params.tensors[f"{name}.w"], params.tensors[f"{name}.b"])


def birnn_forward(v: EmbeddingMatrix, params: ModelParams) -> DiffArray:
    """Two stacked bidirectional recurrent layers, output (n, 2h) as
    [forward | reverse]; each layer is one two-direction lstm_layer call."""
    x = DiffArray(v.tokens)
    t = params.tensors
    for layer in range(2):
        wx, wh, b = ([t[f"lstm{layer}{dirn}.{name}"] for dirn in "fb"] for name in ("wx", "wh", "b"))
        x = ad.lstm_layer(x, wx, wh, b, reverse=(False, True))
    return x


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

    x = fvh
    for i, site in enumerate(_conv_sites(cfg)):
        if i and not same:
            x = ad.maxpool(x, 2, 2)
        x = stage(x, site)
    return x


def attention_fv(fv: DiffArray, params: ModelParams) -> DiffArray:
    """Additive attention over the Hurst vector.

    score_i = q . tanh(w_mean * mean(fv) + w_pos * fv_i + bias);
    weights = softmax(scores); output re-weights fv elementwise. One
    ad.additive_attention node.
    """
    t = params.tensors
    return ad.additive_attention(fv, t["attn.w_mean"], t["attn.w_pos"], t["attn.bias"], t["attn.q"])


def hurst_features(v: EmbeddingMatrix, cfg: ModelConfig) -> np.ndarray:
    """Generalized Hurst vector of the mean-embedding signal: the fv
    that train, evaluate and predict_proba pass to deffsi_forward.

    q values whose fit failed (too few valid scales) fall back to 0.5,
    the neutral no-memory exponent, so downstream layers always see
    finite inputs. A width the estimator cannot analyse raises, as
    check_document does before any feature runs.
    """
    fv = hurst_profile(mean_embedding(v), cfg.mfa).hurst.copy()
    fv[~np.isfinite(fv)] = 0.5
    return fv


def deffsi_forward(v: EmbeddingMatrix, cfg: ModelConfig, params: ModelParams, fv: np.ndarray) -> DiffArray:
    """Raw class scores for one document (or per-token scores when tagging).

    fv is the document's Hurst feature vector, hurst_features(v, cfg).
    It does not depend on the trainable parameters, so train and
    evaluate compute it once per document, not once per forward.
    """
    fv_t = DiffArray(fv)
    t = params.tensors

    h_seq = birnn_forward(v, params)
    fvh = ad.gate(h_seq, _affine(fv_t, "fvproj", params), t["gate1.kappa"], t["gate1.bias"])
    fvhc = scnn_forward(fvh, params)
    fva_proj = _affine(attention_fv(fv_t, params), "fva_proj", params)

    if cfg.task == "classification":
        fvhc = ad.reduce_max(fvhc, axis=0)
    fused = ad.gate(fvhc, fva_proj, t["gate2.kappa"], t["gate2.bias"])
    hidden = _site_activation(_affine(fused, "dense0", params), "dense0", params)
    return _affine(hidden, "head", params)


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


def check_document(
    v: EmbeddingMatrix, cfg: ModelConfig, params: ModelParams | None, name: str = "the document"
) -> None:
    """Refuse a document the model cannot take; name opens the message.

    It needs cfg.min_tokens() tokens, an embedding width N that
    cfg.mfa.scales_for admits (the rule hurst_profile applies), and,
    given params, the width they were built for.
    """
    need = cfg.min_tokens()
    if v.n_tokens < need:
        raise ValueError(
            f"{name} has {v.n_tokens} tokens; a {cfg.task} model with blocks={cfg.blocks} "
            f"and conv_width={cfg.conv_width} needs at least {need} (ModelConfig.min_tokens())"
        )
    try:
        cfg.mfa.scales_for(v.dim)
    except ValueError as exc:
        raise ValueError(f"{name} has embedding width {exc}") from None
    if params is not None and v.dim != params.embed_dim:
        raise ValueError(
            f"{name} has embedding width {v.dim}; the model parameters "
            f"were built for width {params.embed_dim}"
        )


def predict_proba(v: EmbeddingMatrix, cfg: ModelConfig, params: ModelParams) -> np.ndarray:
    """Softmax class probabilities (per token when tagging); params must
    have been built for cfg (check_params_config), and the document must
    pass check_document, before hurst_features computes the document's
    feature vector for the forward pass."""
    check_params_config(params, cfg)
    check_document(v, cfg, params)
    logits = deffsi_forward(v, cfg, params, hurst_features(v, cfg))
    return ad.softmax(logits).data


def _blob_layout(shapes: dict[str, tuple[int, ...]]) -> tuple[dict[str, dict], int]:
    """Checkpoint manifest for a name->shape table: every tensor's
    {"offset", "shape"} in the float64 blob, packed in sorted-name
    order; and the blob's value count."""
    manifest = {}
    offset = 0
    for name in sorted(shapes):
        manifest[name] = {"offset": offset, "shape": list(shapes[name])}
        offset += math.prod(shapes[name])
    return manifest, offset


def save_checkpoint(params: ModelParams, prefix: str) -> tuple[str, str]:
    """Write <prefix>.json (config + manifest) and <prefix>.bin (float64 LE).

    Both files are written in full to temporary files in the target
    directory and flushed to disk before either is renamed into place,
    so a write that fails leaves an earlier checkpoint at prefix intact.
    Each rename is atomic; the pair of renames is not, so the header
    carries the blob's sha256 and load_checkpoint refuses a header
    beside a blob from another save.
    """
    manifest, total = _blob_layout({name: t.data.shape for name, t in params.tensors.items()})
    blob = np.concatenate([params.tensors[name].data for name in manifest], axis=None, dtype="<f8").tobytes()
    header = {
        "format_version": 1,
        "config": config_json(params.config),
        "embed_dim": params.embed_dim,
        "total_values": total,
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
    another), when a tensor's name, shape or offset in the header's
    manifest differs from the layout save_checkpoint writes for the
    stored config, or when the blob's value count differs from that
    layout's; the error names the tensor. It draws no random numbers.
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
    cfg = ModelConfig.from_json_dict(header["config"])
    expected = _param_shapes(cfg, header["embed_dim"])
    layout, total = _blob_layout(expected)
    manifest = header["manifest"]
    unknown = sorted(manifest.keys() - expected.keys())
    if unknown:
        raise ValueError(f"checkpoint tensor {unknown[0]!r} is not part of the stored config")
    for name, needed in expected.items():
        if name not in manifest:
            raise ValueError(f"checkpoint lacks tensor {name!r}")
        shape = tuple(manifest[name]["shape"])
        if shape != needed:
            raise ValueError(f"checkpoint tensor {name!r} has shape {shape}, the stored config needs {needed}")
        offset, at = manifest[name]["offset"], layout[name]["offset"]
        if offset != at:
            raise ValueError(f"checkpoint tensor {name!r} has offset {offset}, the stored config puts it at {at}")
    blob = np.frombuffer(raw, dtype="<f8")
    if blob.size != total:
        raise ValueError(f"checkpoint blob holds {blob.size} values, the stored config needs {total}")
    tensors = {}
    for name, shape in expected.items():
        start = layout[name]["offset"]
        tensors[name] = DiffArray(blob[start : start + math.prod(shape)].reshape(shape).copy())
    return ModelParams(config=cfg, embed_dim=header["embed_dim"], tensors=tensors)
