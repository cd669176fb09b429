"""Finite-difference verification of every analytic gradient in the package.

Builds random instances for each loss and for the full network backward
pass, compares against central differences, and reports one row per check.
Instances that land too close to a hinge or absolute-value kink (where the
subgradient is genuinely one-sided) are resampled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import losses as losses_mod
from . import network as net_mod
from .config import LTC, Hyperparams
from .core import GradCheckReport, Rng, derive_seed, finite_diff_check
from .errors import DomainError

_KINK_GUARD = 1e-4
_MAX_RESAMPLE = 200


@dataclass(frozen=True)
class CheckRow:
    """One named gradient check and its worst observed error."""

    name: str
    instances: int
    max_rel_err: float
    passed: bool


def _random_labels(rng: Rng, n: int, k: int) -> np.ndarray:
    return np.array([rng.below(k) for _ in range(n)], dtype=np.intp)


def _check_ce(rng: Rng, h: float, tol: float) -> GradCheckReport:
    n, k = 1 + rng.below(6), 2 + rng.below(6)
    logits = rng.normals(n, k) * 2.0
    y = _random_labels(rng, n, k)

    def f(x):
        return losses_mod.cross_entropy(x, y)[0]

    _, grad = losses_mod.cross_entropy(logits, y)
    return finite_diff_check(f, logits, grad, h=h, tol=tol)


def _check_mse(rng: Rng, h: float, tol: float, wrt: str) -> GradCheckReport:
    n, k, length = 1 + rng.below(6), 2 + rng.below(5), 4 + rng.below(8)
    v = rng.normals(n, length)
    s = rng.normals(k, length)
    y = _random_labels(rng, n, k)
    _, grad_v, grad_s = losses_mod.mse_codes(v, s, y)
    if wrt == "semantic":
        return finite_diff_check(
            lambda x: losses_mod.mse_codes(x, s, y)[0], v, grad_v, h=h, tol=tol
        )
    return finite_diff_check(
        lambda x: losses_mod.mse_codes(v, x, y)[0], s, grad_s, h=h, tol=tol
    )


def _triplet_instance(rng: Rng):
    """Instance with every hinge term safely away from zero."""
    for _ in range(_MAX_RESAMPLE):
        n, k, length = 1 + rng.below(5), 2 + rng.below(5), 4 + rng.below(6)
        v = rng.normals(n, length)
        s = rng.normals(k, length)
        y = _random_labels(rng, n, k)
        margin = abs(rng.normal()) * 2.0
        corr = v @ s.T
        hinge = corr - corr[np.arange(n), y][:, None] + margin
        hinge[np.arange(n), y] = 1.0  # diagonal excluded from the loss
        if np.abs(hinge).min() > _KINK_GUARD:
            return v, s, y, margin
    raise DomainError("could not sample a kink-free triplet instance")


def _check_triplet(rng: Rng, h: float, tol: float, wrt: str) -> GradCheckReport:
    v, s, y, margin = _triplet_instance(rng)
    _, grad_v, grad_s = losses_mod.triplet_global(v, s, y, margin)
    if wrt == "semantic":
        return finite_diff_check(
            lambda x: losses_mod.triplet_global(x, s, y, margin)[0], v, grad_v, h=h, tol=tol
        )
    return finite_diff_check(
        lambda x: losses_mod.triplet_global(v, x, y, margin)[0], s, grad_s, h=h, tol=tol
    )


def _corr_instance(rng: Rng):
    """Codeword matrix with no near-zero pairwise inner products."""
    for _ in range(_MAX_RESAMPLE):
        k, length = 2 + rng.below(5), 4 + rng.below(6)
        s = rng.normals(k, length)
        gram = s @ s.T
        np.fill_diagonal(gram, 1.0)
        if np.abs(gram).min() > _KINK_GUARD:
            return s
    raise DomainError("could not sample a kink-free correlation instance")


def _check_corr(rng: Rng, h: float, tol: float) -> GradCheckReport:
    s = _corr_instance(rng)
    _, grad_s = losses_mod.corr_consistency(s)
    return finite_diff_check(
        lambda x: losses_mod.corr_consistency(x)[0], s, grad_s, h=h, tol=tol
    )


def _network_instance(rng: Rng, hp: Hyperparams):
    """Toy model and batch whose ReLU units and hinge terms sit clear of
    their kinks, so central differences stay on one side."""
    dims = dict(input_dim=8, feature_widths=(10, 8), encoder_hidden=8)
    for _ in range(_MAX_RESAMPLE):
        model = net_mod.init_model(
            dims["input_dim"], dims["feature_widths"], hp.num_classes,
            dims["encoder_hidden"], hp.code_length, rng,
        )
        x = rng.normals(4, dims["input_dim"])
        y = _random_labels(rng, 4, hp.num_classes)
        s = np.where(rng.normals(hp.num_classes, hp.code_length) >= 0, 1.0, -1.0)
        _, _, v, cache = net_mod.forward(model, x, semantic=True)
        # the cache keeps layer inputs and outputs, not pre-activations, so
        # recompute each ReLU pre-activation from its cached input
        if any(
            np.abs(inp @ layer.weight + layer.bias).min() <= 1e-3
            for layer, (inp, _) in zip(model.all_layers(), cache.io)
            if layer.activation == net_mod.RELU
        ):
            continue
        corr = v @ s.T
        hinge = corr - corr[np.arange(4), y][:, None] + hp.margin
        hinge[np.arange(4), y] = 1.0
        if np.abs(hinge).min() <= _KINK_GUARD:
            continue
        return model, x, y, s
    raise DomainError("could not sample a kink-free network instance")


def _network_loss(model, x, y, s, hp) -> tuple[losses_mod.LossBundle, net_mod.ForwardCache]:
    _, logits, v, cache = net_mod.forward(model, x, semantic=True)
    return losses_mod.compose_objective(LTC, hp, logits, v, s, y), cache


def _check_network(rng: Rng, h: float, tol: float) -> GradCheckReport:
    hp = Hyperparams(num_classes=3, code_length=8, margin=2.0)
    for _ in range(_MAX_RESAMPLE):
        model, x, y, s = _network_instance(rng, hp)
        bundle, cache = _network_loss(model, x, y, s, hp)
        grads = net_mod.backward(cache, bundle.grad_logits, bundle.grad_semantic)
        nonzero = np.abs(model.grad[model.grad != 0.0])
        # entries near the central-difference resolution limit at h=1e-5
        # (roundoff eps*|f|/2h plus h^2 truncation) cannot be compared at
        # rel 1e-5; exact zeros are fine (dead units stay dead under h)
        if nonzero.size and nonzero.min() < 3e-5:
            continue
        break
    else:
        raise DomainError("could not sample a resolvable network instance")
    worst = GradCheckReport(0.0, 0.0, (0, 0), True)
    for layer, (gw, gb) in zip(model.all_layers(), grads):
        for param, analytic in ((layer.weight, gw), (layer.bias, gb)):
            original = param.copy()

            def f(p, _param=param):
                _param[...] = p  # in place: the layer is a view of the flat store
                return _network_loss(model, x, y, s, hp)[0].total

            rep = finite_diff_check(f, original, analytic, h=h, tol=tol)
            param[...] = original
            if rep.max_rel_err >= worst.max_rel_err:
                worst = rep
    return worst


def run_suite(
    seed: int,
    *,
    rounds: int,
    tol: float,
    h: float = 1e-5,
    perturb: bool = False,
) -> list[CheckRow]:
    """Run every gradient check ``rounds`` times and summarize per check.

    With ``perturb`` set, one analytic gradient entry is inflated by 10%
    before the cross-entropy comparison; the suite must then fail (negative
    control for the harness itself). ``rounds`` must be at least 1, and
    ``h`` and ``tol`` finite and positive.
    """
    if rounds < 1:
        raise DomainError(f"rounds must be at least 1, got {rounds}")
    for name, value in (("h", h), ("tol", tol)):
        if not (np.isfinite(value) and value > 0):
            raise DomainError(f"{name} must be finite and positive, got {value}")
    checks = {
        "ce": lambda r: _check_ce(r, h, tol),
        "mse": lambda r: max(
            _check_mse(r, h, tol, "semantic"), _check_mse(r, h, tol, "codes"),
            key=lambda rep: rep.max_rel_err,
        ),
        "triplet": lambda r: max(
            _check_triplet(r, h, tol, "semantic"), _check_triplet(r, h, tol, "codes"),
            key=lambda rep: rep.max_rel_err,
        ),
        "corr": lambda r: _check_corr(r, h, tol),
        "network": lambda r: _check_network(r, h, tol),
    }
    rows = []
    for name, fn in checks.items():
        rng = Rng(derive_seed(seed, hash_name(name)))
        worst = 0.0
        ok = True
        for _ in range(rounds):
            rep = fn(rng)
            worst = max(worst, rep.max_rel_err)
            ok = ok and rep.passed
        if perturb and name == "ce":
            rep = _perturbed_ce(rng, h, tol)
            worst = max(worst, rep.max_rel_err)
            ok = ok and rep.passed
        rows.append(CheckRow(name=name, instances=rounds, max_rel_err=worst, passed=ok))
    return rows


def _perturbed_ce(rng: Rng, h: float, tol: float) -> GradCheckReport:
    logits = rng.normals(3, 4)
    y = _random_labels(rng, 3, 4)
    _, grad = losses_mod.cross_entropy(logits, y)
    grad = grad.copy()
    grad[0, 0] = grad[0, 0] * 1.1 + 0.1  # injected bug
    return finite_diff_check(
        lambda x: losses_mod.cross_entropy(x, y)[0], logits, grad, h=h, tol=tol
    )


def hash_name(name: str) -> int:
    """Stable small integer for seeding per-check streams."""
    value = 0
    for ch in name:
        value = (value * 131 + ord(ch)) % (1 << 32)
    return value
