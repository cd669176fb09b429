"""Forward values and analytic input-gradients for the training losses.

Four pieces: cross-entropy on logits, mean-squared error between semantic
codes and their class codewords, a global margin triplet loss over all
negative classes, and a correlation-consistency penalty pushing codewords
toward mutual orthogonality. ``compose_objective`` evaluates the parts a
training objective needs on one batch (plain cross-entropy, fixed-code
regularization, learnable-code regularization) and merges them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import BASELINE, HTC, MODES, Hyperparams
from .core import Matrix, as_matrix, labels_array
from .errors import DimensionError, DomainError, UsageError


@dataclass(frozen=True)
class LossBundle:
    """One objective evaluation: raw component values plus merged gradients.

    Component losses are stored unweighted; ``total`` applies the
    Hyperparams weights. ``grad_semantic`` and ``grad_codes`` are None for
    modes that do not use the corresponding branch.
    """

    total: float
    ce: float
    mse: float
    triplet: float
    corr: float
    grad_logits: Matrix
    grad_semantic: Optional[Matrix] = field(default=None, repr=False)
    grad_codes: Optional[Matrix] = field(default=None, repr=False)


def cross_entropy(logits, labels) -> tuple[float, Matrix]:
    """Mean negative log-softmax of the true class, with its logits gradient.

    Stabilized with log-sum-exp; the gradient is (softmax - onehot) / N.
    """
    logits = as_matrix(logits)
    n, k = logits.shape
    y = labels_array(labels, k)
    if y.shape[0] != n:
        raise DimensionError(f"{y.shape[0]} labels for {n} rows of logits")
    return _cross_entropy(logits, y)


def _cross_entropy(logits: Matrix, y: np.ndarray) -> tuple[float, Matrix]:
    """``cross_entropy`` on checked logits and labels."""
    n = logits.shape[0]
    rows = np.arange(n)
    shift = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shift)
    denom = exp.sum(axis=1, keepdims=True)
    log_probs = shift - np.log(denom)
    loss = -float(log_probs[rows, y].sum() / n)  # np.mean's sum and division, without its wrapper
    grad = exp / denom
    grad[rows, y] -= 1.0
    return loss, grad / n


def _code_batch(semantic, codes, labels) -> tuple[Matrix, Matrix, np.ndarray]:
    """The one check of a coding batch: semantic codes (N x L), codewords
    (K x L) and N labels in [0, K), returned as checked arrays."""
    v = as_matrix(semantic)
    s = as_matrix(codes)
    if v.shape[1] != s.shape[1]:
        raise DimensionError(
            f"semantic code length {v.shape[1]} does not match codewords {s.shape[1]}"
        )
    y = labels_array(labels, s.shape[0])
    if y.shape[0] != v.shape[0]:
        raise DimensionError(f"{y.shape[0]} labels for {v.shape[0]} semantic codes")
    return v, s, y


def _scatter_rows(out: Matrix, y: np.ndarray, rows: Matrix) -> Matrix:
    """``out[y[i]] += rows[i]`` for every i, in row order, as one
    ``np.add.at`` over the flattened C-contiguous K x L ``out`` (index
    ``y*L + column``): the 2-D call's adds, in its order, but faster."""
    length = out.shape[1]
    np.add.at(out.reshape(-1), (y[:, None] * length + np.arange(length)).ravel(), rows.ravel())
    return out


def _mse(
    v: Matrix, s: Matrix, y: np.ndarray, codes: bool = True
) -> tuple[float, Matrix, Optional[Matrix]]:
    """``mse_codes`` on a checked batch; its codeword gradient is None
    unless ``codes``."""
    n, length = v.shape
    diff = v - s[y]
    loss = float((diff * diff).sum() / (n * length))
    grad_v = (2.0 / (n * length)) * diff
    return loss, grad_v, _scatter_rows(np.zeros_like(s), y, -grad_v) if codes else None


def mse_codes(semantic, codes, labels) -> tuple[float, Matrix, Matrix]:
    """Mean squared error between semantic codes and their class codewords.

    Averaged over both samples and code positions. Returns the loss, the
    gradient w.r.t. the semantic codes (N x L), and the gradient w.r.t. the
    codeword matrix (K x L, zero rows for classes absent from the batch).
    """
    return _mse(*_code_batch(semantic, codes, labels))


def _triplet(v: Matrix, s: Matrix, y: np.ndarray, margin: float) -> tuple[float, Matrix, Matrix]:
    """``triplet_global`` on a checked batch."""
    n, k = v.shape[0], s.shape[0]
    if k < 2:
        raise DomainError("triplet loss needs at least two classes")
    rows = np.arange(n)
    corr = v @ s.T
    hinge = corr - corr[rows, y][:, None] + margin
    hinge[rows, y] = 0.0
    active = hinge > 0.0
    scale = 1.0 / (n * (k - 1))
    loss = float(hinge[active].sum() * scale)
    weights = active.astype(np.float64) * scale
    per_row = weights.sum(axis=1)
    grad_v = weights @ s - per_row[:, None] * s[y]
    grad_s = _scatter_rows(weights.T @ v, y, -per_row[:, None] * v)
    return loss, grad_v, grad_s


def triplet_global(semantic, codes, labels, margin: float) -> tuple[float, Matrix, Matrix]:
    """Hinge loss on (negative-class correlation - true-class correlation + margin)
    summed over every negative class of every sample.

    Correlation here is the plain inner product between a semantic code and
    a codeword. The average runs over N * (K - 1) pairs. Gradients flow only
    through strictly positive hinge terms; a hinge exactly at zero
    contributes nothing.
    """
    if margin < 0:
        raise DomainError(f"margin must be non-negative, got {margin}")
    return _triplet(*_code_batch(semantic, codes, labels), margin)


def corr_consistency(codes) -> tuple[float, Matrix]:
    """Mean absolute pairwise inner product between distinct codewords.

    Pushes the codeword matrix toward mutual orthogonality. The subgradient
    of each |s_k . s_j| term flows into both rows, with sign(0) taken as 0.
    """
    s = as_matrix(codes)
    k = s.shape[0]
    if k < 2:
        raise DomainError("correlation consistency needs at least two classes")
    gram = s @ s.T
    signs = np.sign(gram)
    np.fill_diagonal(signs, 0.0)
    scale = 1.0 / (k * (k - 1))
    off = np.abs(gram).sum() - np.abs(np.diag(gram)).sum()
    loss = float(off * scale)
    # each unordered pair appears twice in the double sum, hence the factor 2
    grad_s = (2.0 * scale) * (signs @ s)
    return loss, grad_s


def compose_objective(mode: str, hp: Hyperparams, logits, semantic, codes, labels) -> LossBundle:
    """The weighted objective for ``mode`` on one batch, with its gradients.

    baseline is cross-entropy on ``logits`` alone (``semantic`` and
    ``codes`` are unused and may be None); htc adds the weighted MSE between
    the semantic codes and their fixed class codewords; ltc adds the
    weighted triplet and correlation terms and sums all codeword gradients.
    """
    if mode not in MODES:
        raise UsageError(f"unknown mode {mode!r}")
    if mode == BASELINE:
        ce_loss, grad_logits = cross_entropy(logits, labels)
        return LossBundle(ce_loss, ce_loss, 0.0, 0.0, 0.0, grad_logits)
    v, s, y = _code_batch(semantic, codes, labels)  # the batch's one label check
    logits = as_matrix(logits)
    if logits.shape != (len(y), len(s)):
        raise DimensionError(
            f"logits shape {logits.shape} does not match {len(y)} labels and {len(s)} codewords"
        )
    ce_loss, grad_logits = _cross_entropy(logits, y)
    # htc's fixed codes take no gradient, so it skips building one
    mse_loss, mse_gv, mse_gs = _mse(v, s, y, codes=mode != HTC)
    if mode == HTC:
        total = ce_loss + hp.mse_weight * mse_loss
        return LossBundle(
            total, ce_loss, mse_loss, 0.0, 0.0, grad_logits,
            grad_semantic=hp.mse_weight * mse_gv,
        )
    tri_loss, tri_gv, tri_gs = _triplet(v, s, y, hp.margin)
    corr_loss, corr_gs = corr_consistency(s)
    total = (
        ce_loss
        + hp.mse_weight * mse_loss
        + hp.triplet_weight * tri_loss
        + hp.corr_weight * corr_loss
    )
    grad_semantic = hp.mse_weight * mse_gv + hp.triplet_weight * tri_gv
    grad_codes = (
        hp.mse_weight * mse_gs
        + hp.triplet_weight * tri_gs
        + hp.corr_weight * corr_gs
    )
    return LossBundle(
        total, ce_loss, mse_loss, tri_loss, corr_loss, grad_logits,
        grad_semantic=grad_semantic, grad_codes=grad_codes,
    )
