"""Target-code banks: fixed Hadamard codewords and learnable binary codes.

A code bank stores one length-L codeword per class. Hadamard banks hold
rows sampled from a Sylvester-constructed Hadamard matrix and never change.
Learnable banks hold a real parameter matrix that is binarized by sign on
every read; the backward rule clips the incoming gradient to [-1, 1]
(a bounded straight-through estimator). A scaled-tanh activation is kept
as a smooth surrogate for ablations.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .core import Matrix, Reader, Rng, as_matrix, atomic_open, pack_matrix
from .errors import (
    CapacityError,
    DimensionError,
    DomainError,
    FormatError,
    NumericError,
    UsageError,
    VersionError,
)

HADAMARD_FIXED = "hadamard_fixed"
LEARNABLE = "learnable"

SIGN = "sign"
TANH_SCALED = "tanh_scaled"

STE_CLIPPED = "clipped"
STE_PASSTHROUGH = "passthrough"

_BANK_MAGIC = b"LTCB"
_BANK_VERSION = 2
_KIND_CODES = {HADAMARD_FIXED: 0, LEARNABLE: 1}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}
_ACTIVATION_CODES = {SIGN: 0, TANH_SCALED: 1}
_ACTIVATION_NAMES = {v: k for k, v in _ACTIVATION_CODES.items()}


@dataclass
class CodeBank:
    """K class codewords of length L, fixed or learnable.

    ``weights`` is the K x L parameter matrix, and K and L are read from
    its shape. For hadamard_fixed banks it holds the selected +-1
    codewords directly and must never be updated; for learnable banks it
    holds real parameters read through ``activate``.
    """

    kind: str
    weights: Matrix
    activation: str = SIGN
    tanh_scale: float = 1.0

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def code_length(self) -> int:
        return self.weights.shape[1]

    def __post_init__(self):
        if self.kind not in (HADAMARD_FIXED, LEARNABLE):
            raise UsageError(f"unknown code bank kind {self.kind!r}")
        if self.activation not in (SIGN, TANH_SCALED):
            raise UsageError(f"unknown activation {self.activation!r}")
        if not (np.isfinite(self.tanh_scale) and self.tanh_scale > 0):
            raise DomainError(f"tanh scale must be finite and positive, got {self.tanh_scale}")
        self.weights = as_matrix(self.weights)


def _is_power_of_two(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


def hadamard_matrix(m: int) -> Matrix:
    """m x m Hadamard matrix for m a power of two, m >= 2.

    Built by the Sylvester recursion: start from [[1, 1], [1, -1]] and
    repeatedly take the Kronecker product with that base block, which
    guarantees H @ H.T == m * I with exact +-1 entries.
    """
    if m < 2 or not _is_power_of_two(m):
        raise DomainError(f"Hadamard order must be a power of two >= 2, got {m}")
    base = np.array([[1.0, 1.0], [1.0, -1.0]])
    h = base
    while h.shape[0] < m:
        h = np.kron(h, base)
    return h


def select_hadamard_codes(m: int, num_classes: int, rng: Rng) -> CodeBank:
    """Draw ``num_classes`` distinct codewords from the order-m Hadamard matrix.

    The all-ones first row is excluded, so every selected codeword has
    exactly m/2 entries equal to +1 and all pairwise Hamming distances
    equal m/2. The class count is checked before the m x m matrix is built.
    """
    if num_classes < 1:
        raise DomainError(f"need at least one class, got {num_classes}")
    if num_classes > m - 1:
        raise CapacityError(
            "length of Hadamard target codes must exceed class count: "
            f"{num_classes} classes need length > {num_classes}, got {m}"
        )
    h = hadamard_matrix(m)
    rows = [1 + i for i in rng.sample(m - 1, num_classes)]
    return CodeBank(kind=HADAMARD_FIXED, weights=h[rows].copy())


def init_learnable_codes(
    num_classes: int,
    code_length: int,
    rng: Rng,
    activation: str = SIGN,
    tanh_scale: float = 1.0,
) -> CodeBank:
    """Learnable bank with i.i.d. standard-normal parameters.

    A symmetric zero-mean init gives each codeword a roughly balanced sign
    pattern from the start.
    """
    if num_classes < 2:
        raise DomainError(f"need at least two classes, got {num_classes}")
    if code_length < 1:
        raise DomainError(f"code length must be positive, got {code_length}")
    w = rng.normals(num_classes, code_length)
    return CodeBank(kind=LEARNABLE, weights=w, activation=activation, tanh_scale=tanh_scale)


def activate(bank: CodeBank) -> Matrix:
    """Activated codeword matrix S (K x L).

    sign mode maps w >= 0 to +1 and w < 0 to -1 (sign(0) is +1 so the
    output is always exactly binary); tanh_scaled returns tanh(scale * w).
    Hadamard banks return a read-only view of their stored +-1 rows.
    """
    if bank.kind == HADAMARD_FIXED:
        view = bank.weights.view()
        view.flags.writeable = False
        return view
    if bank.activation == SIGN:
        s = (bank.weights >= 0.0).astype(np.float64)
        s *= 2.0
        s -= 1.0
        return s
    return np.tanh(bank.tanh_scale * bank.weights)


def ste_backward(bank: CodeBank, grad_codes: Matrix, rule: str = STE_CLIPPED) -> Matrix:
    """Gradient w.r.t. the bank parameters given the gradient w.r.t. S.

    For sign activation the clipped rule maps each incoming entry into
    [-1, 1]; the passthrough rule forwards it unchanged. A tanh_scaled bank
    uses the exact derivative scale * (1 - tanh(scale * w)^2) instead.
    """
    if bank.kind == HADAMARD_FIXED:
        raise UsageError("fixed Hadamard codes receive no gradient")
    g = as_matrix(grad_codes)
    if g.shape != bank.weights.shape:
        raise DimensionError(
            f"gradient shape {g.shape} does not match bank {bank.weights.shape}"
        )
    if bank.activation == TANH_SCALED:
        t = np.tanh(bank.tanh_scale * bank.weights)
        return g * (bank.tanh_scale * (1.0 - t * t))
    if rule == STE_CLIPPED:
        return np.clip(g, -1.0, 1.0)
    if rule == STE_PASSTHROUGH:
        return g.copy()
    raise UsageError(f"unknown STE rule {rule!r}")


def update_codes(bank: CodeBank, grad_weights: Matrix, lr: float) -> None:
    """One plain gradient step on the bank parameters (no momentum, no decay)."""
    if bank.kind != LEARNABLE:
        raise UsageError("only learnable banks can be updated")
    g = as_matrix(grad_weights)
    if g.shape != bank.weights.shape:
        raise DimensionError(
            f"gradient shape {g.shape} does not match bank {bank.weights.shape}"
        )
    if not np.isfinite(g).all():
        raise NumericError("code gradient contains non-finite entries")
    bank.weights -= lr * g


def plus_one_counts(codes: Matrix) -> np.ndarray:
    """Per-row count of entries equal to +1 in a +-1 code matrix."""
    return (codes > 0).sum(axis=1)


def pairwise_hamming(codes: Matrix) -> np.ndarray:
    """K x K matrix of pairwise Hamming distances between +-1 codewords."""
    gram = codes @ codes.T
    length = codes.shape[1]
    return ((length - gram) / 2.0).round().astype(np.int64)


def normalized_correlation(codes: Matrix) -> Matrix:
    """K x K inner-product matrix divided by the code length."""
    return (codes @ codes.T) / codes.shape[1]


def mean_abs_off_diagonal(corr: Matrix) -> float:
    """Mean absolute off-diagonal entry of a square matrix."""
    k = corr.shape[0]
    if corr.shape[0] != corr.shape[1]:
        raise DimensionError(f"expected a square matrix, got {corr.shape}")
    if k < 2:
        return 0.0
    off = np.abs(corr).sum() - np.trace(np.abs(corr))
    return float(off / (k * (k - 1)))


def pack_bank(bank: CodeBank) -> bytes:
    """Little-endian bank section shared by LTCB files and LTCK checkpoints:
    u32 kind, u32 activation, f64 tanh scale, then the weights matrix."""
    head = struct.pack(
        "<IId", _KIND_CODES[bank.kind], _ACTIVATION_CODES[bank.activation], bank.tanh_scale
    )
    return head + pack_matrix(bank.weights)


def read_bank(rd: Reader) -> CodeBank:
    """Read one bank section written by :func:`pack_bank`."""
    kind_code, act_code, tanh_scale = rd.unpack("<IId")
    return _decode_bank(kind_code, act_code, tanh_scale, rd.matrix())


def _read_bank_v1(rd: Reader) -> CodeBank:
    # v1: u32 kind, u32 K, u32 L, f64 tanh scale, K*L f64; no activation
    # field, and every v1 bank was read as sign
    kind_code, k, length, tanh_scale = rd.unpack("<IIId")
    return _decode_bank(kind_code, _ACTIVATION_CODES[SIGN], tanh_scale, rd.floats(k, length))


def _decode_bank(kind_code: int, act_code: int, tanh_scale: float, weights) -> CodeBank:
    if kind_code not in _KIND_NAMES:
        raise FormatError(f"unknown code bank kind code {kind_code}")
    if act_code not in _ACTIVATION_NAMES:
        raise FormatError(f"unknown code bank activation code {act_code}")
    return CodeBank(
        kind=_KIND_NAMES[kind_code],
        weights=weights,
        activation=_ACTIVATION_NAMES[act_code],
        tanh_scale=tanh_scale,
    )


def save_bank(bank: CodeBank, path) -> None:
    """Write a bank as an LTCB file: magic "LTCB", u32 version 2, then the
    :func:`pack_bank` section."""
    with atomic_open(path, "wb") as fh:
        fh.write(_BANK_MAGIC + struct.pack("<I", _BANK_VERSION) + pack_bank(bank))


def load_bank(path) -> CodeBank:
    """Read an LTCB file written by :func:`save_bank`. Version 1 files,
    which did not store the activation, load as sign banks."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _BANK_MAGIC:
        raise FormatError(f"not a code bank file (bad magic {raw[:4]!r})")
    rd = Reader(raw, "code bank")
    rd.take(4)
    (version,) = rd.unpack("<I")
    if version == 1:
        bank = _read_bank_v1(rd)
    elif version == _BANK_VERSION:
        bank = read_bank(rd)
    else:
        raise VersionError(f"unsupported code bank version {version}")
    rd.finish()
    return bank
