"""Dense float64 matrices and their binary encoding, a fixed deterministic
RNG, and a finite-difference gradient checker.

Matrices are plain 2-D C-contiguous ``numpy.ndarray`` objects with dtype
float64. The binary formats (code banks, checkpoints) share one matrix
encoding and one bounds-checked file reader. The RNG is splitmix64, chosen over
the platform default so that a seed reproduces the same stream on every
machine; its bulk methods draw the stream with numpy ``uint64`` arithmetic
and reproduce the scalar methods bit for bit. Every file the package writes
whole goes through ``atomic_open``, so a failed or killed write never
leaves a torn file in place of the old one.
"""

from __future__ import annotations

import math
import os
import struct
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import IO, Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import DimensionError, DomainError, FormatError, NumericError

Matrix = np.ndarray

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# uint64 scalars for the bulk draws; array arithmetic wraps mod 2**64 silently
_U0 = np.uint64(0)
_U_GOLDEN = np.uint64(_GOLDEN)
_U_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_U_MIX2 = np.uint64(0x94D049BB133111EB)


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
    """Sequential reader over an open binary ``what`` file (e.g.
    "checkpoint"), from its current position. Every read is checked against
    the bytes left in the file before anything is read or allocated, so
    running past the end raises FormatError and a header that claims more
    data than the file holds allocates nothing."""

    def __init__(self, fh: IO[bytes], what: str):
        self.fh = fh
        self.what = what
        self.left = os.fstat(fh.fileno()).st_size - fh.tell()

    def _claim(self, n: int) -> None:
        if n > self.left:
            raise FormatError(f"truncated {self.what} file")
        self.left -= n

    def take(self, n: int) -> bytes:
        self._claim(n)
        out = self.fh.read(n)
        if len(out) != n:  # the file shrank while it was read
            raise FormatError(f"truncated {self.what} file")
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def matrix(self) -> Matrix:
        """Read one matrix written by :func:`pack_matrix`."""
        r, c = self.unpack("<II")
        return self.floats(r, c)

    def floats(self, rows: int, cols: int) -> Matrix:
        """Read ``rows * cols`` f64 values as a new matrix."""
        self._claim(8 * rows * cols)  # before allocating
        return self._read_into(np.empty((rows, cols)))

    def skip(self, n: int) -> int:
        """Pass over the next ``n`` bytes unread; returns their offset,
        for :meth:`fill`."""
        self._claim(n)
        at = self.fh.tell()
        self.fh.seek(n, os.SEEK_CUR)
        return at

    def fill(self, out: Matrix, at: Optional[int] = None) -> None:
        """Read f64 values straight into the C-contiguous float64 ``out``:
        the next ones, or those :meth:`skip` passed at offset ``at``, after
        which reading goes on from their end."""
        if at is None:
            self._claim(out.nbytes)
        else:
            self.fh.seek(at)
        self._read_into(out)

    def _read_into(self, out: Matrix) -> Matrix:
        # NaN or infinity raises FormatError
        if self.fh.readinto(out) != out.nbytes:  # the file shrank while it was read
            raise FormatError(f"truncated {self.what} file")
        if sys.byteorder == "big":  # the file is little-endian
            out.byteswap(inplace=True)
        if not np.isfinite(out).all():
            raise FormatError(f"non-finite value in {self.what} file")
        return out

    def finish(self) -> None:
        """Reject bytes left over after the last field."""
        if self.left:
            raise FormatError(f"trailing bytes after {self.what} payload")


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs) -> Iterator[IO]:
    """Open a temporary file beside ``path`` for writing; when the block
    exits cleanly it replaces ``path`` in one ``os.replace``. When the block
    raises, the temporary file is removed and ``path`` keeps its old bytes.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class Rng:
    """splitmix64 pseudo-random generator.

    State advances by the 64-bit golden ratio constant each draw; the output
    mix is the standard splitmix64 finalizer. Normal deviates use Box-Muller
    on two fresh uniforms (no cached spare), so the full generator state is
    the single 64-bit integer exposed via ``state``.

    ``normals``, ``shuffle`` and ``sample`` draw in bulk, yet every value
    they return and the state they leave are bit for bit those of the
    scalar ``next_u64``/``normal``/``below`` calls, which stay the
    reference.
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

    def normal(self) -> float:
        """Standard normal deviate (Box-Muller, cosine branch)."""
        u1 = ((self.next_u64() >> 11) + 1) * 2.0**-53  # in (0, 1]
        u2 = (self.next_u64() >> 11) * 2.0**-53
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def _draws(self, m: int) -> np.ndarray:
        """The next ``m`` outputs of :meth:`next_u64` as a uint64 array."""
        z = np.arange(1, m + 1, dtype=np.uint64) * _U_GOLDEN + np.uint64(self._state)
        self._state = (self._state + m * _GOLDEN) & _MASK64
        z ^= z >> np.uint64(30)
        z *= _U_MIX1
        z ^= z >> np.uint64(27)
        z *= _U_MIX2
        z ^= z >> np.uint64(31)
        return z

    def normals(self, rows: int, cols: int) -> Matrix:
        """Matrix of i.i.d. standard normals, filled row-major: the values
        of ``rows * cols`` calls to :meth:`normal`."""
        out = np.empty(rows * cols)
        # 4096 values per pass, so the temporaries do not grow with the matrix
        for a in range(0, out.size, 4096):
            n = min(4096, out.size - a)
            z = self._draws(2 * n) >> np.uint64(11)
            u1 = (z[0::2] + np.uint64(1)) * 2.0**-53
            u2 = z[1::2] * 2.0**-53
            # math.log/math.cos, not np.log/np.cos: numpy's differ by an ulp on
            # some inputs; sqrt and * are correctly rounded in both
            log_u1 = np.fromiter(map(math.log, u1.tolist()), np.float64, n)
            cos_u2 = np.fromiter(map(math.cos, ((2.0 * math.pi) * u2).tolist()), np.float64, n)
            np.multiply(np.sqrt(-2.0 * log_u1), cos_u2, out=out[a : a + n])
        return out.reshape(rows, cols)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), bias-free via rejection."""
        if n <= 0:
            raise DomainError(f"bound must be positive, got {n}")
        limit = ((1 << 64) // n) * n
        while True:
            r = self.next_u64()
            if r < limit:
                return r % n

    def _below_many(self, bounds: np.ndarray) -> list[int]:
        """``[self.below(b) for b in bounds]`` for positive uint64 bounds,
        drawn in bulk with the same draws and the same final state."""
        out: list[int] = []
        while bounds.size:
            start = self._state
            r = self._draws(bounds.size)
            rem = (_U0 - bounds) % bounds  # 2**64 mod b; accept r < 2**64 - rem
            rejected = np.flatnonzero((rem != _U0) & (r >= _U0 - rem))
            k = int(rejected[0]) if rejected.size else bounds.size
            out.extend((r[:k] % bounds[:k]).tolist())
            if k < bounds.size:  # consume the rejected draw, redraw from there
                self._state = (start + (k + 1) * _GOLDEN) & _MASK64
            bounds = bounds[k:]
        return out

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        n = len(items)
        js = self._below_many(np.arange(n, 1, -1, dtype=np.uint64))
        for i, j in zip(range(n - 1, 0, -1), js):
            items[i], items[j] = items[j], items[i]

    def sample(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), order randomized."""
        if not 0 <= k <= n:
            raise DomainError(f"cannot sample {k} from {n}")
        pool = list(range(n))
        js = self._below_many(np.arange(n, n - k, -1, dtype=np.uint64))
        for i, j in enumerate(js):
            pool[i], pool[i + j] = pool[i + j], pool[i]
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
    """Validate integer-dtype labels against [0, num_classes); return them as intp."""
    y = np.asarray(labels)
    if y.ndim != 1:
        raise DimensionError(f"labels must be 1-D, got ndim={y.ndim}")
    if y.size == 0:
        raise DomainError("labels must be non-empty")
    if y.dtype.kind not in "iu":
        raise DomainError(f"labels must be integers, got {y.dtype}")
    if y.min() < 0 or y.max() >= num_classes:
        bad = int(y[(y < 0) | (y >= num_classes)][0])
        raise DomainError(f"label {bad} outside [0, {num_classes})")
    return y.astype(np.intp)
