"""Synthetic Gaussian-blob datasets and label-noise injection.

Class centers are rows of a +/-1 Hadamard-style matrix truncated to the
feature dimension, which keeps every pair of centers far apart as long as
the class count does not exceed the next power of two above the dimension.
Past that limit truncated rows can collide, so a deterministic axis
lattice is used instead.

Noise models:
* symmetric: each label flips with probability epsilon to a uniformly
  random *different* class.
* asymmetric: flips follow a caller-supplied class map (a class -> class
  dict over exactly the classes [0, C)), each source label flipping with
  probability epsilon.
* pairflip: shorthand for the cyclic map y -> (y+1) mod C.
* instance: symmetric noise with a per-sample flip probability, set by the
  features through a random projection and rescaled to mean epsilon.

Dataset CSV schema (external interface): header f0..f{d-1},label_true,
label_noisy; floats serialized with repr for exact round-trip; LF endings.
"""

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codebook import MAX_CODE_BITS, MAX_ELEMENTS, next_pow2, sylvester_rows
from .errors import CapacityError, ConfigError, DataIOError, ParseError, atomic_write

NOISE_KINDS = ("symmetric", "asymmetric", "pairflip", "instance")


@dataclass
class NoiseConfig:
    """The ``noise`` section of an experiment config, and what
    :func:`inject_noise` takes."""

    kind: str = "symmetric"
    epsilon: float = 0.4
    class_map: dict[int, int] | None = None

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ConfigError(f"noise.kind must be one of {NOISE_KINDS}, got {self.kind!r}")
        if not (0.0 <= self.epsilon < 1.0):
            raise ConfigError(f"noise.epsilon must lie in [0, 1), got {self.epsilon}")
        if self.kind == "asymmetric" and not self.class_map:
            raise ConfigError("noise.kind 'asymmetric' requires noise.class_map")
        if self.kind != "asymmetric" and self.class_map:
            raise ConfigError(f"noise.class_map is read by kind 'asymmetric' only, "
                              f"not {self.kind!r}")


@dataclass
class NoisyDataset:
    """Features plus both label columns.  Construction guarantees what
    training trusts unchecked, refusing anything else with DataIOError: 2-D
    features, both label columns (n,) vectors in [0, num_classes); a test
    split is also noise-free (ConfigError)."""

    features: np.ndarray      # (n, d) float64
    true_labels: np.ndarray   # (n,) int64
    noisy_labels: np.ndarray  # (n,) int64
    num_classes: int
    split: str = "train"

    def __post_init__(self):
        check_class_count(self.num_classes)
        if self.features.ndim != 2:
            raise DataIOError(f"features must be 2-D, got shape {self.features.shape}")
        n = self.features.shape[0]
        for name, arr in (("true_labels", self.true_labels),
                          ("noisy_labels", self.noisy_labels)):
            if arr.shape != (n,):
                raise DataIOError(f"{name} shape {arr.shape} != ({n},)")
            if arr.size and (arr.min() < 0 or arr.max() >= self.num_classes):
                raise DataIOError(f"{name} outside [0, {self.num_classes})")
        if self.split == "test" and not self.clean_mask.all():
            raise ConfigError("test split must stay noise-free")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def clean_mask(self) -> np.ndarray:
        """(n,) bool: where the noisy label equals the true one."""
        return self.true_labels == self.noisy_labels


def check_class_count(classes: int) -> None:
    """Refuse more classes than the widest codebook holds, before anything
    takes memory in proportion to the class count (noise injection does)."""
    if classes > MAX_CODE_BITS:
        raise CapacityError(f"{classes} classes exceed the {MAX_CODE_BITS}-class limit "
                            f"(the widest codebook holds {MAX_CODE_BITS})")


def check_class_map(cmap: dict, classes: int) -> None:
    """Refuse a class map that is not a map over exactly the classes
    [0, ``classes``): a missing source, or a source or target outside it."""
    check_class_count(classes)  # before the walk over every class
    missing = [k for k in range(classes) if k not in cmap]
    if missing:
        raise ConfigError(f"class_map missing source classes {missing}")
    unread = [k for k in cmap if not 0 <= k < classes]
    if unread:
        raise ConfigError(f"class_map sources outside [0, {classes}): {unread}")
    bad = [v for v in cmap.values() if not 0 <= v < classes]
    if bad:
        raise ConfigError(f"class_map targets outside [0, {classes}): {bad}")


def class_centers(classes: int, dim: int, scale: float) -> np.ndarray:
    """Well-separated class centers in R^dim.

    Prefers truncated +/-1 Hadamard rows (pairwise distance >= scale *
    sqrt(2*dim / overlap-bound)); when the class count is too large for the
    truncation to stay collision-free, falls back to an axis lattice where
    class i sits at 2*scale*(1 + i//dim) along axis i mod dim.  The centers
    are float64 whatever the type of ``scale``.
    """
    if classes > next_pow2(dim):
        centers = np.zeros((classes, dim))
        for i in range(classes):
            centers[i, i % dim] = 2.0 * scale * (1 + i // dim)
        return centers
    return float(scale) * sylvester_rows(classes, dim)


def check_blob_geometry(classes: int | None, dim: int, per_class: int, spread: float,
                        center_scale: float) -> None:
    """Refuse blobs that :func:`gen_blobs` cannot draw as documented."""
    for name, value, ok, need in (
            ("classes", classes, classes is not None and classes >= 2, ">= 2"),
            ("dim", dim, dim >= 2, ">= 2"),
            ("per_class", per_class, per_class >= 3, ">= 3 (one test row per class)"),
            ("spread", spread, math.isfinite(spread) and spread > 0.0, "finite and positive"),
            ("center_scale", center_scale, math.isfinite(center_scale), "finite")):
        if not ok:
            raise ConfigError(f"blob {name} must be {need}, got {value}")


def gen_blobs(classes: int, dim: int, n_per_class: int, spread: float,
              rng: "np.random.Generator", center_scale: float):
    """Gaussian clusters around the class centers; returns (train, test)
    with a stratified 80/20 split (round(0.2 * n) >= 1 test rows per class)."""
    check_blob_geometry(classes, dim, n_per_class, spread, center_scale)
    check_class_count(classes)
    if classes * n_per_class * dim > MAX_ELEMENTS:
        raise CapacityError(f"classes x n_per_class x dim = {classes}x{n_per_class}x{dim} "
                            f"exceeds the {MAX_ELEMENTS}-element limit")
    centers = class_centers(classes, dim, center_scale)
    x = np.empty((classes * n_per_class, dim))
    for c, block in enumerate(np.split(x, classes)):  # bitwise center + spread * normal()
        rng.standard_normal(out=block)
        block *= spread
        block += centers[c]
    y = np.repeat(np.arange(classes, dtype=np.int64), n_per_class)
    n_test = int(round(0.2 * n_per_class))
    test_idx = np.zeros(x.shape[0], dtype=bool)
    for c in range(classes):
        rows = np.flatnonzero(y == c)
        picked = rng.permutation(rows.size)[:n_test]
        test_idx[rows[picked]] = True
    def build(sel):
        return NoisyDataset(features=np.ascontiguousarray(x[sel]),
                            true_labels=y[sel].copy(), noisy_labels=y[sel].copy(),
                            num_classes=classes,
                            split="test" if sel is test_idx else "train")
    return build(~test_idx), build(test_idx)


def _instance_flip_probs(ds: NoisyDataset, epsilon: float,
                         idn_rng: "np.random.Generator") -> np.ndarray:
    w = idn_rng.normal(size=(ds.features.shape[1], ds.num_classes))  # the projection
    scores = (ds.features @ w)[np.arange(ds.n_samples), ds.true_labels]
    mu, sd = scores.mean(), scores.std()
    z = (scores - mu) / sd if sd > 0 else np.zeros_like(scores)
    # Bisect the offset so the mean clipped flip probability hits epsilon.
    def mean_prob(b):
        return float(np.clip(0.25 * z + b, 0.0, 1.0).mean())
    lo, hi = -3.0, 4.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mean_prob(mid) < epsilon:
            lo = mid
        else:
            hi = mid
    b = 0.5 * (lo + hi)
    if abs(mean_prob(b) - epsilon) > 1e-6:
        raise ConfigError(f"cannot calibrate instance noise to epsilon={epsilon}")
    return np.clip(0.25 * z + b, 0.0, 1.0)


def inject_noise(ds: NoisyDataset, noise: NoiseConfig, rng: "np.random.Generator",
                 idn_rng: "np.random.Generator") -> NoisyDataset:
    """Return the train split with noisy labels written in; the features
    are shared with ``ds``, not copied.

    Flips are drawn from ``rng``; instance noise draws its (dim, classes)
    random projection from ``idn_rng``, which the other kinds leave unused.
    Refuses test splits and datasets that already carry noise, so a second
    injection cannot silently compound, and symmetric or instance noise on
    fewer than 2 classes, where no other class exists to flip to.
    """
    if ds.split != "train":
        raise ConfigError("noise injection is train-split only")
    if not ds.clean_mask.all():
        raise ConfigError("dataset already has injected noise")
    n, c = ds.n_samples, ds.num_classes
    if noise.kind in ("symmetric", "instance") and c < 2:
        raise ConfigError(f"{noise.kind} noise needs at least 2 classes, got {c}")
    y = ds.true_labels.copy()
    noisy = y.copy()
    if noise.kind in ("symmetric", "instance"):
        # Symmetric noise is instance noise with a constant flip probability.
        probs = (noise.epsilon if noise.kind == "symmetric"
                 else _instance_flip_probs(ds, noise.epsilon, idn_rng))
        flips = rng.uniform(size=n) < probs
        draw = rng.integers(0, c - 1, size=n)
        draw = draw + (draw >= y)  # skip the true class
        noisy[flips] = draw[flips]
    else:
        cmap = noise.class_map if noise.kind == "asymmetric" else {i: (i + 1) % c for i in range(c)}
        check_class_map(cmap, c)
        flips = rng.uniform(size=n) < noise.epsilon
        mapped = np.array([cmap[int(v)] for v in y], dtype=np.int64)
        noisy[flips] = mapped[flips]
    return NoisyDataset(features=ds.features, true_labels=y,
                        noisy_labels=noisy, num_classes=c, split="train")


def save_csv(ds: NoisyDataset, path) -> None:
    """Write the dataset in the documented CSV schema (repr floats, LF)."""
    d = ds.features.shape[1]
    header = [f"f{j}" for j in range(d)] + ["label_true", "label_noisy"]
    line = ",".join(["%r"] * d + ["%d", "%d"]) + "\n"
    rows = zip(*ds.features.T.tolist(), ds.true_labels.tolist(), ds.noisy_labels.tolist())
    with atomic_write(path) as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(map(line.__mod__, rows))


def load_csv(path, num_classes: int | None = None, split: str = "train") -> NoisyDataset:
    """Read a dataset CSV; num_classes defaults to 1 + max label seen."""
    if num_classes is not None and num_classes < 1:
        raise ConfigError(f"a CSV dataset needs classes >= 1, got {num_classes}")
    path = Path(path)
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError(f"{path}: empty file, expected a header") from None
            d = len(header) - 2
            expected = [f"f{j}" for j in range(d)] + ["label_true", "label_noisy"]
            if d < 1 or header != expected:
                raise ParseError(f"{path}: bad header {header[:4]}...; expected f0..f{{d-1}},label_true,label_noisy")
            feats, yt, yn = [], [], []
            for lineno, row in enumerate(reader, start=2):
                if len(row) != d + 2:
                    raise ParseError(f"{path} line {lineno}: {len(row)} fields, expected {d + 2}")
                try:
                    feats.append([float(v) for v in row[:d]])
                    yt.append(int(row[d]))
                    yn.append(int(row[d + 1]))
                except ValueError as exc:
                    raise ParseError(f"{path} line {lineno}: {exc}") from None
                if not all(map(math.isfinite, feats[-1])):
                    raise ParseError(f"{path} line {lineno}: non-finite feature value")
    except OSError as exc:
        raise DataIOError(f"cannot read dataset {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: cannot decode: {exc}") from None
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise ParseError(f"{path} line {reader.line_num}: {exc}") from None
    x = np.array(feats, dtype=np.float64).reshape(len(feats), d)
    try:
        yt = np.array(yt, dtype=np.int64)
        yn = np.array(yn, dtype=np.int64)
    except OverflowError:
        raise ParseError(f"{path}: label outside the int64 range") from None
    c = num_classes if num_classes is not None else int(max(yt.max(initial=0), yn.max(initial=0))) + 1
    if yt.size and (yt.min() < 0 or yn.min() < 0 or yt.max() >= c or yn.max() >= c):
        raise ParseError(f"{path}: label outside [0, {c})")
    return NoisyDataset(features=np.ascontiguousarray(x), true_labels=yt,
                        noisy_labels=yn, num_classes=c, split=split)
