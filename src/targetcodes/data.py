"""Desk-scale datasets: hierarchical Gaussian blobs, long-tail subsampling,
an IDX image loader, CSV round-tripping, and deterministic batching.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Matrix, Rng, derive_seed
from .errors import ConsistencyError, DimensionError, DomainError, FormatError

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass
class Dataset:
    """Feature rows with integer labels and per-class counts.

    ``groups`` optionally maps each class to a superclass id (synthetic
    blobs only); it survives subsampling but not CSV export.
    """

    X: Matrix
    y: np.ndarray
    class_counts: np.ndarray
    groups: Optional[np.ndarray] = None

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
        if int(self.class_counts.sum()) != self.y.shape[0]:
            raise ConsistencyError("class counts do not sum to the sample count")


@dataclass(frozen=True)
class BatchPlan:
    """Deterministic batch schedule: indices are shuffled by a generator
    seeded from (seed, epoch), then chunked."""

    batch_size: int
    seed: int
    drop_last: bool = False


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
    if spread_within < 0 or spread_group < 0:
        raise DomainError("spreads must be non-negative")
    group_centers = rng.normals(num_groups, dim) * spread_group
    class_centers = np.empty((num_classes, dim))
    per_group = num_classes // num_groups
    groups = np.arange(num_classes) // per_group
    for k in range(num_classes):
        offset = rng.normals(1, dim)[0] * class_center_spread
        class_centers[k] = group_centers[groups[k]] + offset
    X = np.empty((num_classes * per_class, dim))
    y = np.empty(num_classes * per_class, dtype=np.intp)
    row = 0
    for k in range(num_classes):
        noise = rng.normals(per_class, dim) * spread_within
        X[row : row + per_class] = class_centers[k] + noise
        y[row : row + per_class] = k
        row += per_class
    counts = np.full(num_classes, per_class, dtype=np.int64)
    return Dataset(X=X, y=y, class_counts=counts, groups=groups)


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def long_tail_counts(n_max: int, num_classes: int, ratio: float) -> list[int]:
    """Per-class keep counts decaying exponentially so max/min is ~ratio."""
    if ratio < 1:
        raise DomainError(f"imbalance ratio must be >= 1, got {ratio}")
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
    return Dataset(
        X=ds.X[keep].copy(),
        y=ds.y[keep].copy(),
        class_counts=np.array(keep_counts, dtype=np.int64),
        groups=None if ds.groups is None else ds.groups.copy(),
    )


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
    train_idx = np.array(sorted(train_idx), dtype=np.intp)
    test_idx = np.array(sorted(test_idx), dtype=np.intp)

    def subset(idx):
        yy = ds.y[idx].copy()
        return Dataset(
            X=ds.X[idx].copy(),
            y=yy,
            class_counts=np.bincount(yy, minlength=ds.num_classes),
            groups=None if ds.groups is None else ds.groups.copy(),
        )

    return subset(train_idx), subset(test_idx)


def select_classes(ds: Dataset, classes) -> Dataset:
    """Restrict to the given class ids and relabel them 0..len-1."""
    classes = list(classes)
    remap = {int(c): i for i, c in enumerate(classes)}
    mask = np.isin(ds.y, classes)
    y = np.array([remap[int(c)] for c in ds.y[mask]], dtype=np.intp)
    groups = None
    if ds.groups is not None:
        groups = np.array([ds.groups[c] for c in classes])
    return Dataset(
        X=ds.X[mask].copy(),
        y=y,
        class_counts=np.bincount(y, minlength=len(classes)),
        groups=groups,
    )


def _read_be_u32(raw: bytes, offset: int, what: str) -> int:
    if offset + 4 > len(raw):
        raise FormatError(f"truncated IDX file while reading {what}")
    return struct.unpack(">I", raw[offset : offset + 4])[0]


def load_idx(images_path, labels_path) -> Dataset:
    """Parse a big-endian IDX image/label file pair.

    Pixels are scaled from u8 to [0, 1] and flattened row-major to
    rows*cols features. Class counts cover 0..max(label).
    """
    with open(images_path, "rb") as fh:
        raw = fh.read()
    magic = _read_be_u32(raw, 0, "image magic")
    if magic != IDX_IMAGE_MAGIC:
        raise FormatError(f"bad image magic 0x{magic:08x}, expected 0x{IDX_IMAGE_MAGIC:08x}")
    n = _read_be_u32(raw, 4, "image count")
    rows = _read_be_u32(raw, 8, "row count")
    cols = _read_be_u32(raw, 12, "column count")
    if len(raw) != 16 + n * rows * cols:
        raise FormatError(
            f"image payload has {len(raw) - 16} bytes, expected {n * rows * cols}"
        )
    pixels = np.frombuffer(raw, dtype=np.uint8, offset=16)
    X = pixels.reshape(n, rows * cols).astype(np.float64) / 255.0

    with open(labels_path, "rb") as fh:
        raw = fh.read()
    magic = _read_be_u32(raw, 0, "label magic")
    if magic != IDX_LABEL_MAGIC:
        raise FormatError(f"bad label magic 0x{magic:08x}, expected 0x{IDX_LABEL_MAGIC:08x}")
    n_labels = _read_be_u32(raw, 4, "label count")
    if len(raw) != 8 + n_labels:
        raise FormatError(f"label payload has {len(raw) - 8} bytes, expected {n_labels}")
    if n_labels != n:
        raise ConsistencyError(f"{n} images but {n_labels} labels")
    y = np.frombuffer(raw, dtype=np.uint8, offset=8).astype(np.intp)
    counts = np.bincount(y, minlength=int(y.max()) + 1 if n else 1)
    return Dataset(X=X, y=y, class_counts=counts.astype(np.int64))


def write_idx_images(path, images: np.ndarray) -> None:
    """Write a u8 array (N, rows, cols) in IDX image format (test fixtures)."""
    n, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, rows, cols))
        fh.write(images.astype(np.uint8).tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    """Write a u8 label vector in IDX label format (test fixtures)."""
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABEL_MAGIC, len(labels)))
        fh.write(np.asarray(labels).astype(np.uint8).tobytes())


def save_csv(ds: Dataset, path) -> None:
    """Write `label,f0,...,fD-1` rows; floats use %.17g so values round-trip
    bit-exactly."""
    dim = ds.X.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + [f"f{i}" for i in range(dim)])
        for label, row in zip(ds.y, ds.X):
            writer.writerow([int(label)] + ["%.17g" % v for v in row])


def load_csv(path) -> Dataset:
    """Read a dataset written by :func:`save_csv`; features must be finite."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "label":
            raise FormatError(f"{path}: expected a 'label,f0,...' header")
        dim = len(header) - 1
        labels, rows = [], []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != dim + 1:
                raise FormatError(f"{path}:{line_no}: expected {dim + 1} fields")
            labels.append(int(row[0]))
            rows.append([float(v) for v in row[1:]])
    if not rows:
        raise FormatError(f"{path}: no data rows")
    X = np.array(rows, dtype=np.float64)
    finite = np.isfinite(X)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise FormatError(f"{path}:{row + 2}: non-finite value in {header[col + 1]}")
    y = np.array(labels, dtype=np.intp)
    if y.min() < 0:
        raise FormatError(f"{path}: negative label {int(y.min())}")
    return Dataset(
        X=X,
        y=y,
        class_counts=np.bincount(y, minlength=int(y.max()) + 1).astype(np.int64),
    )


def batches(ds: Dataset, plan: BatchPlan, epoch: int) -> list[np.ndarray]:
    """Index slices covering one epoch, shuffled deterministically by
    (plan.seed, epoch)."""
    n = ds.num_samples
    if plan.batch_size < 1:
        raise DomainError(f"batch size must be positive, got {plan.batch_size}")
    if plan.batch_size > n:
        raise DomainError(f"batch size {plan.batch_size} exceeds dataset size {n}")
    order = list(range(n))
    Rng(derive_seed(plan.seed, epoch)).shuffle(order)
    out = []
    for start in range(0, n, plan.batch_size):
        chunk = order[start : start + plan.batch_size]
        if plan.drop_last and len(chunk) < plan.batch_size:
            break
        out.append(np.array(chunk, dtype=np.intp))
    return out
