"""Dense float64 matrices and their binary encoding, a fixed deterministic
RNG, and a finite-difference gradient checker.

Matrices are plain 2-D C-contiguous ``numpy.ndarray`` objects with dtype
float64. The binary formats (code banks, checkpoints) share one matrix
encoding and one bounds-checked reader. The RNG is splitmix64, chosen over
the platform default so that a seed reproduces the same stream on every
machine.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, DomainError, FormatError, NumericError

Matrix = np.ndarray

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def as_matrix(values) -> Matrix:
    """Coerce array-like input to a 2-D float64 matrix."""
    a = np.asarray(values, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionError(f"matrix must be non-empty, got shape {a.shape}")
    return np.ascontiguousarray(a)


def pack_matrix(a: Matrix) -> bytes:
    """Little-endian encoding: u32 rows, u32 cols, then row-major f64 data."""
    r, c = a.shape
    return struct.pack("<II", r, c) + np.ascontiguousarray(a, dtype="<f8").tobytes()


class Reader:
    """Sequential reader over the bytes of a ``what`` file (e.g. "checkpoint");
    running past the end raises FormatError."""

    def __init__(self, raw: bytes, what: str):
        self.raw = raw
        self.what = what
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.raw):
            raise FormatError(f"truncated {self.what} file")
        out = self.raw[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def matrix(self) -> Matrix:
        """Read one matrix written by :func:`pack_matrix`."""
        r, c = self.unpack("<II")
        data = np.frombuffer(self.take(8 * r * c), dtype="<f8").astype(np.float64)
        return data.reshape(r, c)

    def finish(self) -> None:
        """Reject bytes left over after the last field."""
        if self.pos != len(self.raw):
            raise FormatError(f"trailing bytes after {self.what} payload")


class Rng:
    """splitmix64 pseudo-random generator.

    State advances by the 64-bit golden ratio constant each draw; the output
    mix is the standard splitmix64 finalizer. Normal deviates use Box-Muller
    on two fresh uniforms (no cached spare), so the full generator state is
    the single 64-bit integer exposed via ``state``.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    @property
    def state(self) -> int:
        return self._state

    @state.setter
    def state(self, value: int) -> None:
        self._state = int(value) & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def normal(self) -> float:
        """Standard normal deviate (Box-Muller, cosine branch)."""
        u1 = ((self.next_u64() >> 11) + 1) * 2.0**-53  # in (0, 1]
        u2 = (self.next_u64() >> 11) * 2.0**-53
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def normals(self, rows: int, cols: int) -> Matrix:
        """Matrix of i.i.d. standard normals, filled row-major."""
        return np.array(
            [[self.normal() for _ in range(cols)] for _ in range(rows)],
            dtype=np.float64,
        )

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), bias-free via rejection."""
        if n <= 0:
            raise DomainError(f"bound must be positive, got {n}")
        limit = ((1 << 64) // n) * n
        while True:
            r = self.next_u64()
            if r < limit:
                return r % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), order randomized."""
        if not 0 <= k <= n:
            raise DomainError(f"cannot sample {k} from {n}")
        pool = list(range(n))
        for i in range(k):
            j = i + self.below(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]


def derive_seed(seed: int, stream: int) -> int:
    """Child seed for a named component stream, a pure function of (seed, stream)."""
    rng = Rng((int(seed) ^ ((int(stream) + 1) * 0xD1B54A32D192ED03)) & _MASK64)
    return rng.next_u64()


@dataclass(frozen=True)
class GradCheckReport:
    """Outcome of one finite-difference comparison."""

    max_rel_err: float
    max_abs_err: float
    worst_index: tuple[int, int]
    passed: bool


def finite_diff_check(
    f: Callable[[Matrix], float],
    x,
    analytic_grad,
    h: float = 1e-5,
    tol: float = 1e-6,
) -> GradCheckReport:
    """Compare an analytic gradient of scalar-valued ``f`` against central
    differences at ``x``.

    Relative error uses max(|analytic|, |numeric|, 1e-8) as denominator;
    the check passes iff the worst relative error is within ``tol``.
    """
    x = as_matrix(x).copy()  # perturbed in place below, so never touch caller data
    g = as_matrix(analytic_grad)
    if x.shape != g.shape:
        raise DimensionError(f"gradient shape {g.shape} does not match x {x.shape}")
    if h <= 0:
        raise DomainError(f"step size must be positive, got {h}")
    max_rel = 0.0
    max_abs = 0.0
    worst = (0, 0)
    for r in range(x.shape[0]):
        for c in range(x.shape[1]):
            orig = x[r, c]
            x[r, c] = orig + h
            f_plus = float(f(x))
            x[r, c] = orig - h
            f_minus = float(f(x))
            x[r, c] = orig
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                raise NumericError(f"f returned a non-finite value near index {(r, c)}")
            numeric = (f_plus - f_minus) / (2.0 * h)
            abs_err = abs(float(g[r, c]) - numeric)
            rel_err = abs_err / max(abs(float(g[r, c])), abs(numeric), 1e-8)
            if rel_err > max_rel:
                max_rel = rel_err
                worst = (r, c)
            max_abs = max(max_abs, abs_err)
    return GradCheckReport(max_rel, max_abs, worst, max_rel <= tol)


def labels_array(labels: Sequence[int] | np.ndarray, num_classes: int) -> np.ndarray:
    """Validate integer labels against [0, num_classes) and return as an array."""
    y = np.asarray(labels)
    if y.ndim != 1:
        raise DimensionError(f"labels must be 1-D, got ndim={y.ndim}")
    if y.size == 0:
        raise DomainError("labels must be non-empty")
    if not np.issubdtype(y.dtype, np.integer):
        if not np.all(y == np.floor(y)):
            raise DomainError("labels must be integers")
        y = y.astype(np.int64)
    if y.min() < 0 or y.max() >= num_classes:
        bad = int(y[(y < 0) | (y >= num_classes)][0])
        raise DomainError(f"label {bad} outside [0, {num_classes})")
    return y.astype(np.intp)
