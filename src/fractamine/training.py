"""Deterministic single-instance trainer with Adam over one flat buffer.

The optimizer copies every parameter into one float64 vector and makes
each tensor a view of it; weights update at lr_weights and the
trainable activation parameters at lr_activation through one
per-element rate vector, in one vectorized Adam update per step.
Instances are visited in a seeded shuffle, one forward/backward per
instance, so a run is reproducible bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .neuralnet import (
    ModelConfig,
    ModelParams,
    check_document,
    check_params_config,
    deffsi_forward,
    hurst_features,
    init_params,
    is_activation_param,
)
from .series import LabeledDataset, check_count

__all__ = [
    "TrainConfig",
    "TrainingDiverged",
    "train",
    "evaluate",
    "split_dataset",
    "accuracy_score",
    "macro_f1_score",
]

# Adam's moment decay rates and denominator guard (Kingma & Ba 2015,
# arXiv 1412.6980)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    lr_weights: float = 3e-4
    lr_activation: float = 5e-4
    epochs: int = 20
    seed: int = 0

    def __post_init__(self):
        for name in ("lr_weights", "lr_activation"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        check_count("epochs", self.epochs, 1)
        check_count("seed", self.seed, 0)


class TrainingDiverged(RuntimeError):
    """Loss left the finite range; message names epoch and instance."""


class _Adam:
    """Adam over one flat float64 buffer that holds every parameter.

    __init__ copies the tensors in params.tensors into the buffer and
    rebinds each tensor's data to a view of it, so step() updates all
    of them in place. A backward pass gives every tensor a gradient, so
    step() gathers them into one flat buffer with one concatenate and
    runs one elementwise update over the whole buffer. It does the
    per-tensor arithmetic in the same order, so it is bit-identical to
    updating each tensor on its own.
    """

    def __init__(self, params: ModelParams, cfg: TrainConfig):
        self.step_count = 0
        self.tensors = list(params.tensors.values())
        ends = np.cumsum([t.data.size for t in self.tensors]).tolist()
        spans = zip([0, *ends[:-1]], ends)
        size = ends[-1]
        self.data = np.empty(size)
        self.lr = np.empty(size)
        for (name, tensor), (start, stop) in zip(params.tensors.items(), spans):
            self.data[start:stop] = tensor.data.reshape(-1)
            tensor.data = self.data[start:stop].reshape(tensor.data.shape)
            self.lr[start:stop] = cfg.lr_activation if is_activation_param(name) else cfg.lr_weights
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.grad = np.empty(size)
        self._work = (np.empty(size), np.empty(size))

    def step(self):
        self.step_count += 1
        bc1 = 1.0 - ADAM_BETA1**self.step_count
        bc2 = 1.0 - ADAM_BETA2**self.step_count
        g, m, v = self.grad, self.m, self.v
        np.concatenate([t.grad for t in self.tensors], axis=None, out=g)
        delta, denom = self._work
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=delta)
        v *= ADAM_BETA2
        np.multiply(g, 1.0 - ADAM_BETA2, out=delta)
        delta *= g
        v += delta
        # data -= lr * (m / bc1) / (sqrt(v / bc2) + eps), one operation at a time
        np.divide(m, bc1, out=delta)
        delta *= self.lr
        np.sqrt(np.divide(v, bc2, out=denom), out=denom)
        denom += ADAM_EPS
        delta /= denom
        self.data -= delta


def _precompute_features(dataset: LabeledDataset, model_cfg: ModelConfig) -> list[np.ndarray]:
    return [hurst_features(doc, model_cfg) for doc, _ in dataset.items]


def _check_inputs(dataset: LabeledDataset, model_cfg: ModelConfig, params: ModelParams | None):
    """Refuse, before any Hurst feature or forward pass, inputs the model
    cannot take.

    Given params must have been built for model_cfg
    (check_params_config). A tagging model needs a tagged dataset
    (LabeledDataset.tagged), and a classification model one of labels.
    Every document must pass check_document (token count, the width
    rule of mfa.scales_for, params width), and its target, label or
    tags, must lie in the model's [0, n_classes).
    """
    if params is not None:
        check_params_config(params, model_cfg)
    tagged = dataset.tagged
    if tagged != (model_cfg.task == "tagging"):
        has = "has per-token tags" if tagged else "has no per-token tags"
        raise ValueError(f"a task={model_cfg.task!r} model cannot take this dataset: it {has}")
    kind = "tag" if tagged else "label"
    for idx, (doc, target) in enumerate(dataset.items):
        check_document(doc, model_cfg, params, f"document {idx}")
        target = np.asarray(target)
        outside = target[(target < 0) | (target >= model_cfg.n_classes)]
        if outside.size:
            raise ValueError(
                f"document {idx} has {kind} {int(outside[0])} outside the model's "
                f"classes [0, n_classes={model_cfg.n_classes})"
            )


def train(
    dataset: LabeledDataset,
    cfg: TrainConfig,
    model_cfg: ModelConfig,
    params: ModelParams | None = None,
) -> tuple[ModelParams, list[dict]]:
    """Run the full loop; returns params and per-epoch history.

    history entries are {"epoch", "loss", "accuracy"} with the mean
    training loss and training accuracy of that pass. Non-finite loss
    aborts with the offending epoch and instance in the message.
    """
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    _check_inputs(dataset, model_cfg, params)
    if params is None:
        embed_dim = dataset.items[0][0].dim
        params = init_params(model_cfg, embed_dim, seed=cfg.seed)
    features = _precompute_features(dataset, model_cfg)

    rng = np.random.default_rng(cfg.seed)
    optimizer = _Adam(params, cfg)
    history: list[dict] = []
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(dataset))
        losses = np.empty(len(dataset))
        hits = 0
        total = 0
        for pos, idx in enumerate(order):
            doc, target = dataset.items[idx]
            params.zero_grads()
            logits = deffsi_forward(doc, model_cfg, params, fv=features[idx])
            loss = ad.cross_entropy(logits, target)
            value = float(loss.data)
            if not np.isfinite(value):
                raise TrainingDiverged(
                    f"non-finite loss {value} at epoch {epoch}, instance {int(idx)}"
                )
            loss.backward()
            optimizer.step()
            losses[pos] = value
            pred = np.argmax(logits.data, axis=-1)
            hits += int(np.sum(pred == target))
            total += pred.size
        history.append(
            {"epoch": epoch, "loss": float(losses.mean()), "accuracy": hits / total}
        )
    return params, history


def evaluate(dataset: LabeledDataset, model_cfg: ModelConfig, params: ModelParams) -> dict:
    """Accuracy and macro-F1 on a dataset with fixed parameters."""
    _check_inputs(dataset, model_cfg, params)
    features = _precompute_features(dataset, model_cfg)
    y_true: list[int] = []
    y_pred: list[int] = []
    for idx, (doc, target) in enumerate(dataset.items):
        logits = deffsi_forward(doc, model_cfg, params, fv=features[idx])
        y_true.extend(np.ravel(target).tolist())
        y_pred.extend(np.ravel(np.argmax(logits.data, axis=-1)).tolist())
    classes = model_cfg.n_classes
    return {
        "accuracy": accuracy_score(y_true, y_pred),
        "macro_f1": macro_f1_score(y_true, y_pred, classes),
    }


def accuracy_score(y_true, y_pred) -> float:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.size == 0:
        raise ValueError("no predictions to score")
    return float(np.mean(y_true == y_pred))


def macro_f1_score(y_true, y_pred, n_classes: int) -> float:
    """Unweighted mean of per-class F1; absent classes contribute 0."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    scores = []
    for c in range(n_classes):
        tp = float(np.sum((y_pred == c) & (y_true == c)))
        fp = float(np.sum((y_pred == c) & (y_true != c)))
        fn = float(np.sum((y_pred != c) & (y_true == c)))
        denom = 2 * tp + fp + fn
        scores.append(0.0 if denom == 0 else 2 * tp / denom)
    return float(np.mean(scores))


def split_dataset(
    dataset: LabeledDataset, seed: int
) -> tuple[LabeledDataset, LabeledDataset, LabeledDataset]:
    """Seeded 8:1:1 train/validation/test split preserving item order within parts."""
    n = len(dataset)
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(round(0.8 * n))
    n_val = int(round(0.1 * n))
    parts = (order[:n_train], order[n_train : n_train + n_val], order[n_train + n_val :])

    return tuple(
        LabeledDataset(items=[dataset.items[i] for i in p], n_classes=dataset.n_classes) for p in parts
    )
