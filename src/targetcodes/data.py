"""Desk-scale datasets: hierarchical Gaussian blobs, long-tail subsampling,
CSV round-tripping, and deterministic batching.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import Matrix, Rng, atomic_open, derive_seed
from .errors import DimensionError, DomainError, FormatError

@dataclass
class Dataset:
    """Feature rows with non-negative integer labels.

    ``class_counts`` is ``np.bincount(y)``, so class k has
    ``class_counts[k]`` rows and the class count is ``max(y) + 1``.
    """

    X: Matrix
    y: np.ndarray
    class_counts: np.ndarray = field(init=False)

    @property
    def num_samples(self) -> int:
        return self.X.shape[0]

    @property
    def num_classes(self) -> int:
        return len(self.class_counts)

    def __post_init__(self):
        if self.X.shape[0] != self.y.shape[0]:
            raise DimensionError(
                f"{self.X.shape[0]} feature rows for {self.y.shape[0]} labels"
            )
        self.class_counts = np.bincount(self.y)


def make_blobs(
    num_classes: int,
    dim: int,
    num_groups: int,
    per_class: int,
    spread_within: float,
    spread_group: float,
    rng: Rng,
    class_center_spread: float = 1.0,
) -> Dataset:
    """Hierarchical Gaussian blobs: groups of related classes.

    Group centers are N(0, spread_group^2 I); each class center sits a
    N(0, class_center_spread^2 I) offset from its group center; samples are
    N(class_center, spread_within^2 I). Classes are assigned to groups in
    contiguous blocks (class k belongs to group k // (K/G)).
    """
    if num_classes < 1 or per_class < 1 or dim < 1 or num_groups < 1:
        raise DomainError("num_classes, dim, num_groups, per_class must be positive")
    if num_classes % num_groups != 0:
        raise DomainError(
            f"num_classes {num_classes} not divisible by num_groups {num_groups}"
        )
    spreads = (spread_within, spread_group, class_center_spread)
    if not all(np.isfinite(s) and s >= 0 for s in spreads):
        raise DomainError(f"spreads must be finite and non-negative, got {spreads}")
    group_centers = rng.normals(num_groups, dim) * spread_group
    class_centers = np.empty((num_classes, dim))
    per_group = num_classes // num_groups
    for k in range(num_classes):
        offset = rng.normals(1, dim)[0] * class_center_spread
        class_centers[k] = group_centers[k // per_group] + offset
    X = np.empty((num_classes * per_class, dim))
    y = np.empty(num_classes * per_class, dtype=np.intp)
    row = 0
    for k in range(num_classes):
        noise = rng.normals(per_class, dim) * spread_within
        X[row : row + per_class] = class_centers[k] + noise
        y[row : row + per_class] = k
        row += per_class
    if not np.isfinite(X).all():
        raise DomainError(f"spreads {spreads} overflow float64: features must be finite")
    return Dataset(X=X, y=y)


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def long_tail_counts(n_max: int, num_classes: int, ratio: float) -> list[int]:
    """Per-class keep counts decaying exponentially so max/min is ~ratio."""
    if not (np.isfinite(ratio) and ratio >= 1):
        raise DomainError(f"imbalance ratio must be finite and >= 1, got {ratio}")
    if num_classes == 1 or ratio == 1:
        return [n_max] * num_classes
    counts = [
        _round_half_up(n_max * ratio ** (-k / (num_classes - 1)))
        for k in range(num_classes)
    ]
    if counts[-1] < 1:
        need = int(np.ceil(ratio / 2))
        raise DomainError(
            f"per-class count {n_max} rounds the rarest class to zero at "
            f"ratio {ratio}; need at least {need}"
        )
    return counts


def long_tail_subsample(ds: Dataset, ratio: float, rng: Rng) -> Dataset:
    """Keep an exponentially decaying number of samples per class.

    Class k keeps round(n_max * ratio^(-k/(K-1))) samples drawn without
    replacement, so the resulting max/min count ratio matches ``ratio`` up
    to rounding. The input must be balanced. Feature values are untouched;
    ratio 1 returns the dataset unchanged.
    """
    counts = ds.class_counts
    if not np.all(counts == counts[0]):
        raise DomainError("long-tail subsampling expects a balanced dataset")
    n_max = int(counts[0])
    keep_counts = long_tail_counts(n_max, ds.num_classes, ratio)
    keep = []
    for k in range(ds.num_classes):
        class_idx = np.flatnonzero(ds.y == k)
        chosen = rng.sample(len(class_idx), keep_counts[k])
        keep.extend(class_idx[i] for i in chosen)
    keep = np.array(sorted(keep), dtype=np.intp)
    return Dataset(X=ds.X[keep].copy(), y=ds.y[keep].copy())


def split_per_class(ds: Dataset, test_per_class: int) -> tuple[Dataset, Dataset]:
    """Deterministically hold out the last ``test_per_class`` samples of
    every class (samples are i.i.d. within a class, so no shuffle needed)."""
    if test_per_class < 1:
        raise DomainError(f"test_per_class must be positive, got {test_per_class}")
    if np.any(ds.class_counts <= test_per_class):
        raise DomainError(
            f"every class needs more than {test_per_class} samples to split"
        )
    train_idx, test_idx = [], []
    for k in range(ds.num_classes):
        class_idx = np.flatnonzero(ds.y == k)
        train_idx.extend(class_idx[:-test_per_class])
        test_idx.extend(class_idx[-test_per_class:])

    def subset(idx):
        idx = np.array(sorted(idx), dtype=np.intp)
        return Dataset(X=ds.X[idx].copy(), y=ds.y[idx].copy())

    return subset(train_idx), subset(test_idx)


def save_csv(ds: Dataset, path) -> None:
    """Write `label,f0,...,fD-1` rows ending in CRLF; floats use %.17g so
    values round-trip bit-exactly."""
    dim = ds.X.shape[1]
    with atomic_open(path, "w", newline="") as fh:
        fh.write(",".join(["label"] + [f"f{i}" for i in range(dim)]) + "\r\n")
        for label, row in zip(ds.y, ds.X):
            fh.write(",".join([str(int(label))] + ["%.17g" % v for v in row]) + "\r\n")


def load_csv(path) -> Dataset:
    """Read a dataset written by :func:`save_csv`: integer labels and finite
    features. Fields are split at every comma, with no quoting and no
    comments; empty lines are skipped. A malformed file raises FormatError
    naming its line."""
    with open(path, encoding="utf-8") as fh:
        try:
            header = fh.readline().rstrip("\n").split(",")
            if header[0] != "label":
                raise FormatError(f"{path}: expected a 'label,f0,...' header")
            dim = len(header) - 1
            # As errors, warnings cover an empty input and float-form labels,
            # which older numpy releases accept with a DeprecationWarning.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = np.loadtxt(
                    fh,
                    delimiter=",",
                    dtype=[("y", np.intp), ("X", np.float64, (dim,))],
                    comments=None,
                    ndmin=1,
                )
        except FormatError:
            raise
        except (ValueError, UnicodeDecodeError, Warning) as exc:
            raise _format_error(path, str(exc)) from None
    X = np.ascontiguousarray(table["X"])
    if not np.isfinite(X).all():
        raise _format_error(path, "non-finite value")
    y = np.ascontiguousarray(table["y"])
    if y.min() < 0:
        raise FormatError(f"{path}: negative label {int(y.min())}")
    return Dataset(X=X, y=y)


def _bad_field(text: str, parse) -> bool:
    """Whether np.loadtxt refuses ``text``: Python's int and float also take
    digit separators and non-ASCII digits, which numpy does not."""
    text = text.strip()
    if "_" in text or not text.isascii():
        return True
    try:
        parse(text)
    except ValueError:
        return True
    return False


def _format_error(path, reason: str) -> FormatError:
    """Re-scan a file that :func:`load_csv` refused, in plain Python, and
    name its first bad line; ``reason`` is the message when none is found.
    Only a malformed file reaches this."""
    with open(path, "rb") as fh:
        raw = fh.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        lines = raw.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        line_no = raw.count(b"\n", 0, exc.start) + 1
        return FormatError(f"{path}:{line_no}: cannot decode byte 0x{raw[exc.start]:02x}")
    if not any(lines[1:]):
        return FormatError(f"{path}: no data rows")
    header = lines[0].split(",")
    for line_no, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != len(header):
            return FormatError(f"{path}:{line_no}: expected {len(header)} fields")
        if _bad_field(fields[0], int):
            return FormatError(f"{path}:{line_no}: invalid label {fields[0]!r}")
        for name, field in zip(header[1:], fields[1:]):
            if _bad_field(field, float):
                return FormatError(f"{path}:{line_no}: invalid value {field!r} in {name}")
            if not np.isfinite(float(field)):
                return FormatError(f"{path}:{line_no}: non-finite value in {name}")
    return FormatError(f"{path}: {reason}")


def batches(ds: Dataset, batch_size: int, seed: int, epoch: int) -> list[np.ndarray]:
    """Index slices covering one epoch, shuffled deterministically by
    (seed, epoch); the last slice holds the remainder."""
    n = ds.num_samples
    if batch_size < 1:
        raise DomainError(f"batch size must be positive, got {batch_size}")
    if batch_size > n:
        raise DomainError(f"batch size {batch_size} exceeds dataset size {n}")
    order = list(range(n))
    Rng(derive_seed(seed, epoch)).shuffle(order)
    return [
        np.array(order[start : start + batch_size], dtype=np.intp)
        for start in range(0, n, batch_size)
    ]
