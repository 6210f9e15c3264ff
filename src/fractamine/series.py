"""Series and dataset containers plus synthetic generators.

The generators double as test oracles: white noise and spectrally
synthesized fractional Gaussian noise have known Hurst exponents, and
the binomial cascade has a closed-form generalized Hurst profile, so
the estimators downstream can be validated without external data.
"""
from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Series",
    "EmbeddingMatrix",
    "LabeledDataset",
    "load_series",
    "synth_gaussian_noise",
    "synth_fgn",
    "synth_binomial_cascade",
    "synth_embedded_corpus",
    "mean_embedding",
    "cascade_hurst_oracle",
]


@dataclass(frozen=True)
class Series:
    """A finite 1-D signal. Values must be finite reals, length >= 1."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"series must be 1-D, got shape {arr.shape}")
        if arr.size < 1:
            raise ValueError("series must contain at least one value")
        if not np.all(np.isfinite(arr)):
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise ValueError(f"non-finite value at index {bad}")
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class EmbeddingMatrix:
    """Token embeddings, one row per token: shape (n_tokens, dim)."""

    tokens: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.tokens, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"embedding matrix must be 2-D, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("embedding matrix needs at least one token and one dimension")
        if not np.all(np.isfinite(arr)):
            raise ValueError("embedding matrix contains non-finite entries")
        object.__setattr__(self, "tokens", arr)

    @property
    def n_tokens(self) -> int:
        return int(self.tokens.shape[0])

    @property
    def dim(self) -> int:
        return int(self.tokens.shape[1])


@dataclass(frozen=True)
class LabeledDataset:
    """Document-target pairs, all documents of one embedding width.

    A target is an integer class label in [0, n_classes) or, for
    tagging, a sequence of one such integer per token of its document.
    Item 0 decides which (tagged); an item with the other kind of target
    is refused.
    """

    items: list[tuple[EmbeddingMatrix, int | np.ndarray]]
    n_classes: int

    @property
    def tagged(self) -> bool:
        return bool(self.items) and not isinstance(self.items[0][1], (int, np.integer))

    def __post_init__(self):
        if self.n_classes < 1:
            raise ValueError("n_classes must be positive")
        tagged = self.tagged
        for idx, (doc, target) in enumerate(self.items):
            if not isinstance(doc, EmbeddingMatrix):
                raise TypeError(f"item {idx} is not an EmbeddingMatrix")
            width = self.items[0][0].dim
            if doc.dim != width:
                raise ValueError(f"item {idx} has embedding width {doc.dim}, item 0 has {width}")
            # labels stay on this scalar path; an np.ndim test per item costs more
            if isinstance(target, (int, np.integer)):
                if tagged:
                    raise ValueError(f"item {idx} has a label, item 0 has per-token tags")
                if not 0 <= target < self.n_classes:
                    raise ValueError(f"item {idx} label {target} outside [0, {self.n_classes})")
                continue
            tags = np.asarray(target)
            if tags.ndim != 1 or tags.dtype.kind not in "iu":
                raise ValueError(f"item {idx} target is not an integer label or a sequence of integer tags")
            if not tagged:
                raise ValueError(f"item {idx} has per-token tags, item 0 has a label")
            if tags.size != doc.n_tokens:
                raise ValueError(f"item {idx}: {tags.size} tags for {doc.n_tokens} tokens")
            outside = tags[(tags < 0) | (tags >= self.n_classes)]
            if outside.size:
                raise ValueError(f"item {idx} tag {int(outside[0])} outside [0, {self.n_classes})")

    def __len__(self) -> int:
        return len(self.items)


def _csv_values(path: str, content: str) -> np.ndarray:
    """float() of every non-blank line, or an error naming the first bad one."""
    values = []
    for lineno, raw in enumerate(content.split("\n"), start=1):
        text = raw.strip()
        if not text:
            continue
        try:
            v = float(text)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: cannot parse {text!r} as a number") from None
        if not math.isfinite(v):
            raise ValueError(f"{path}:{lineno}: non-finite value {text!r}")
        values.append(v)
    if not values:
        raise ValueError(f"{path}: no numeric values found")
    return np.array(values)


# np.loadtxt opens a str path through np.lib._datasource, which would
# decompress files with these suffixes; they go to the Python walk,
# which reads every file as text
_COMPRESSED = (".bz2", ".gz", ".xz", ".lzma")


def load_series(path: str | os.PathLike, format: str = "csv") -> Series:
    """Read a Series from disk; path is a str or any path-like object.

    csv: one numeric value per line (blank lines ignored). numpy's C
    reader (np.loadtxt) parses the file first; a file it refuses, reads
    as empty, reads with more than one value on a line, or reads with a
    non-finite value goes through one Python walk, which returns float()
    of every non-blank line (so "1_000" is accepted) or names the first
    line that does not parse or is not finite. Both stages give the
    doubles float() gives. The file is opened with Python's open first,
    so a path that cannot be read raises Python's own error; a file that
    does not decode as text raises UnicodeDecodeError naming file:line.
    json: a bare numeric array, or an object with a "values" array;
    every item must be a JSON number (true and false are not), and a bad
    item is named by its index.
    """
    path = os.fspath(path)
    if format == "csv":
        with open(path) as fh:
            if not path.endswith(_COMPRESSED):
                try:
                    with warnings.catch_warnings():
                        # an empty file is refused by the Python walk, not warned about
                        warnings.filterwarnings("error", "loadtxt: input contained no data", UserWarning)
                        # loadtxt takes no absolute path for a URL to fetch
                        table = np.loadtxt(os.path.abspath(path), dtype=np.float64, comments=None, ndmin=2)
                    if table.shape[1] == 1:
                        return Series(table.ravel())
                except (ValueError, UserWarning):
                    pass
            try:
                content = fh.read()  # the whole file is decoded at once, so exc.object is all of it
            except UnicodeDecodeError as exc:
                line = exc.object.count(b"\n", 0, exc.start) + 1
                exc.reason += f" at {path}:{line}"
                raise
            return Series(_csv_values(path, content))
    if format == "json":
        with open(path) as fh:
            payload = json.load(fh)
        if isinstance(payload, dict):
            if "values" not in payload:
                raise ValueError(f"{path}: JSON object lacks a 'values' array")
            payload = payload["values"]
        if not isinstance(payload, list) or not payload:
            raise ValueError(f"{path}: expected a non-empty numeric array")
        for idx, item in enumerate(payload):
            if isinstance(item, bool) or not isinstance(item, (int, float)):
                raise ValueError(f"{path}: item at index {idx} is not a number: {item!r}")
        try:
            return Series(np.asarray(payload, dtype=np.float64))
        except (ValueError, OverflowError) as exc:  # OverflowError: an int beyond float range
            raise ValueError(f"{path}: {exc}") from None
    raise ValueError(f"unknown format {format!r}, expected 'csv' or 'json'")


def synth_gaussian_noise(n: int, seed: int) -> Series:
    """n iid standard-normal samples, deterministic in seed."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    return Series(rng.standard_normal(n))


def synth_fgn(n: int, hurst: float, seed: int) -> Series:
    """Stationary Gaussian noise with target Hurst exponent.

    Spectral synthesis: white noise is filtered in the frequency domain
    by f^(-(2H-1)/2), which shapes the power spectrum to f^(1-2H), the
    spectrum of fractional Gaussian noise. The zero-frequency bin is
    dropped and the output is standardized. Accuracy is adequate for a
    +/-0.1 estimator oracle, not for exact covariance reproduction.
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (0, 1), got {hurst}")
    if n < 64:
        raise ValueError("n must be at least 64 for a usable spectrum")
    rng = np.random.default_rng(seed)
    white = rng.standard_normal(n)
    spec = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n)
    filt = np.ones_like(freqs)
    filt[1:] = freqs[1:] ** (-(2.0 * hurst - 1.0) / 2.0)
    filt[0] = 0.0
    x = np.fft.irfft(spec * filt, n)
    return Series((x - x.mean()) / x.std())


def synth_binomial_cascade(levels: int, p: float) -> Series:
    """Deterministic binomial multiplicative cascade of length 2**levels.

    Mass splits (p, 1-p) at every dyadic level, so the value at index i
    is p**(levels - ones(i)) * (1-p)**ones(i) where ones(i) counts set
    bits. Normalized to unit total mass. Ground truth for the
    generalized Hurst profile is cascade_hurst_oracle.
    """
    if not 1 <= levels <= 24:
        raise ValueError(f"levels must lie in [1, 24], got {levels}")
    if not 0.5 < p < 1.0:
        raise ValueError(f"p must lie in (0.5, 1), got {p}")
    n = 1 << levels
    idx = np.arange(n, dtype=np.uint32)
    ones = np.zeros(n, dtype=np.int64)
    # popcount via repeated halving keeps this allocation-light at levels=24
    work = idx.copy()
    for _ in range(levels):
        ones += work & 1
        work >>= 1
    x = p ** (levels - ones).astype(np.float64) * (1.0 - p) ** ones.astype(np.float64)
    return Series(x / x.sum())


def cascade_hurst_oracle(q, p: float):
    """Closed-form h(q) of the binomial cascade, h(0) by its limit."""
    q = np.asarray(q, dtype=np.float64)
    scalar = q.ndim == 0
    q = np.atleast_1d(q)
    out = np.empty_like(q)
    nz = q != 0
    out[nz] = 1.0 / q[nz] - np.log2(p ** q[nz] + (1.0 - p) ** q[nz]) / q[nz]
    out[~nz] = -0.5 * np.log2(p * (1.0 - p))
    return float(out[0]) if scalar else out


def synth_embedded_corpus(
    n_docs: int,
    n_classes: int,
    n_tokens: int,
    dim: int,
    separation: float,
    seed: int,
) -> LabeledDataset:
    """Class-conditional Gaussian token embeddings.

    Class c gets mean (separation/sqrt(2)) * e_{c mod dim}, so any two
    class means sit exactly `separation` apart in Euclidean distance.
    Tokens are the class mean plus unit Gaussian noise. Labels cycle
    c = i mod n_classes, giving a balanced corpus.
    """
    for name, count in (("n_docs", n_docs), ("n_classes", n_classes), ("n_tokens", n_tokens), ("dim", dim)):
        check_count(name, count, 1)
    if not (np.isfinite(separation) and separation >= 0):
        raise ValueError(f"separation must be finite and nonnegative, got {separation}")
    if n_classes > dim:
        raise ValueError("need n_classes <= dim so class means occupy distinct axes")
    rng = np.random.default_rng(seed)
    means = np.zeros((n_classes, dim))
    for c in range(n_classes):
        means[c, c % dim] = separation / np.sqrt(2.0)
    items = []
    for i in range(n_docs):
        label = i % n_classes
        tokens = means[label] + rng.standard_normal((n_tokens, dim))
        items.append((EmbeddingMatrix(tokens), label))
    return LabeledDataset(items=items, n_classes=n_classes)


def check_count(name: str, value, least: int) -> None:
    """Refuse a config count that is not an integer of at least `least`.

    Python and numpy integers pass; floats, integral or not, and bools
    are refused, and the error names the field.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def mean_embedding(m: EmbeddingMatrix) -> Series:
    """Average over tokens, producing one length-dim signal."""
    return Series(m.tokens.mean(axis=0))
