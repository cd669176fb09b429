"""Loss values, analytic gradients, and the composite objectives."""

import math

import numpy as np
import pytest

from targetcodes.codes import select_hadamard_codes
from targetcodes import losses
from targetcodes.config import Hyperparams
from targetcodes.core import Rng, finite_diff_check, labels_array
from targetcodes.errors import DimensionError, DomainError, UsageError
from targetcodes.losses import (
    compose_objective,
    corr_consistency,
    cross_entropy,
    mse_codes,
    triplet_global,
)


def random_labels(rng, n, k):
    return np.array([rng.below(k) for _ in range(n)], dtype=np.intp)


class TestCrossEntropy:
    def test_extreme_margin_closed_form(self):
        # softmax([10,-10]) puts 1/(1+e^-20) on class 0, so the loss is
        # log(1+e^-20), about 2.06e-9
        loss, grad = cross_entropy([[10.0, -10.0]], [0])
        assert loss == pytest.approx(math.log1p(math.exp(-20)), rel=1e-12)
        assert loss == pytest.approx(2.061153622e-9, rel=1e-6)
        assert np.abs(grad).max() < 1e-8

    def test_uniform_logits(self):
        loss, _ = cross_entropy([[0.0, 0.0, 0.0, 0.0]], [2])
        assert loss == pytest.approx(math.log(4.0), rel=1e-14)

    def test_grad_rows_sum_to_zero(self):
        rng = Rng(31)
        logits = rng.normals(6, 5)
        _, grad = cross_entropy(logits, random_labels(rng, 6, 5))
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-15)

    def test_shift_invariance(self):
        rng = Rng(32)
        logits = rng.normals(4, 3)
        y = random_labels(rng, 4, 3)
        base_loss, base_grad = cross_entropy(logits, y)
        shifted_loss, shifted_grad = cross_entropy(logits + 13.7, y)
        assert shifted_loss == pytest.approx(base_loss, rel=1e-12)
        np.testing.assert_allclose(shifted_grad, base_grad, atol=1e-14)

    def test_large_logits_stable(self):
        loss, grad = cross_entropy([[1000.0, -1000.0]], [1])
        assert math.isfinite(loss) and loss > 100
        assert np.isfinite(grad).all()

    def test_label_out_of_range(self):
        with pytest.raises(DomainError):
            cross_entropy([[0.0, 1.0]], [2])

    def test_gradient_matches_finite_differences(self):
        rng = Rng(33)
        for _ in range(5):
            logits = rng.normals(3, 4)
            y = random_labels(rng, 3, 4)
            _, grad = cross_entropy(logits, y)
            rep = finite_diff_check(lambda m: cross_entropy(m, y)[0], logits, grad)
            assert rep.passed, rep


class TestMseCodes:
    def test_perfect_match_zero(self):
        s = np.array([[1.0, -1.0], [-1.0, 1.0]])
        v = s[[0, 1, 0]]
        loss, gv, gs = mse_codes(v, s, [0, 1, 0])
        assert loss == 0.0
        assert not gv.any() and not gs.any()

    def test_hand_computed_value(self):
        # one sample, two positions: ((1-(-1))^2 + (-1-(-1))^2) / 2 = 2
        loss, _, _ = mse_codes([[1.0, -1.0]], [[-1.0, -1.0], [9.0, 9.0]], [0])
        assert loss == pytest.approx(2.0, rel=1e-15)

    def test_absent_class_rows_get_zero_gradient(self):
        rng = Rng(41)
        v = rng.normals(3, 4)
        s = rng.normals(5, 4)
        _, _, gs = mse_codes(v, s, [0, 0, 2])
        assert not gs[[1, 3, 4]].any()
        assert gs[[0, 2]].any()

    def test_gradients_match_finite_differences(self):
        rng = Rng(42)
        v = rng.normals(4, 8)
        s = rng.normals(3, 8)
        y = random_labels(rng, 4, 3)
        _, gv, gs = mse_codes(v, s, y)
        assert finite_diff_check(lambda m: mse_codes(m, s, y)[0], v, gv, tol=1e-6).passed
        assert finite_diff_check(lambda m: mse_codes(v, m, y)[0], s, gs, tol=1e-6).passed

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            mse_codes(np.zeros((2, 3)), np.zeros((2, 4)), [0, 1])


class TestTripletGlobal:
    def test_orthogonal_codes_margin_exactly_met(self):
        bank = select_hadamard_codes(8, 4, Rng(1))
        s = bank.weights
        y = [0, 1, 2, 3]
        v = s[y].astype(float)
        # v_i.s_y = L and v_i.s_k = 0, so every hinge is max(0 - L + L, 0) = 0
        loss, gv, gs = triplet_global(v, s, y, margin=8.0)
        assert loss == 0.0
        assert not gv.any() and not gs.any()

    def test_hand_computed_hinge(self):
        v = [[1.0, 1.0]]
        s = [[1.0, 1.0], [1.0, -1.0]]
        loss0, _, _ = triplet_global(v, s, [0], margin=2.0)
        loss1, _, _ = triplet_global(v, s, [0], margin=3.0)
        assert loss0 == 0.0
        assert loss1 == pytest.approx(1.0, rel=1e-15)

    def test_needs_two_classes(self):
        with pytest.raises(DomainError):
            triplet_global([[1.0]], [[1.0]], [0], margin=1.0)

    def test_non_increasing_in_true_class_correlation(self):
        # raising v.s_y while holding negative correlations fixed cannot
        # increase the loss; move v along s_y within an orthogonal code set
        s = select_hadamard_codes(8, 3, Rng(2)).weights
        rng = Rng(3)
        v = rng.normals(1, 8)
        y = [0]
        prev = triplet_global(v, s, y, margin=6.0)[0]
        for step in range(1, 4):
            bumped = v + step * 0.25 * s[0] / 8.0  # s_0 orthogonal to s_1, s_2
            cur = triplet_global(bumped, s, y, margin=6.0)[0]
            assert cur <= prev + 1e-12
            prev = cur

    def test_gradients_match_finite_differences_away_from_kinks(self):
        rng = Rng(44)
        done = 0
        while done < 5:
            v = rng.normals(3, 6)
            s = rng.normals(4, 6)
            y = random_labels(rng, 3, 4)
            margin = 1.5
            corr = v @ s.T
            hinge = corr - corr[np.arange(3), y][:, None] + margin
            hinge[np.arange(3), y] = 1.0
            if np.abs(hinge).min() < 1e-4:
                continue  # resample kink-adjacent instances
            _, gv, gs = triplet_global(v, s, y, margin)
            assert finite_diff_check(lambda m: triplet_global(m, s, y, margin)[0], v, gv, tol=1e-6).passed
            assert finite_diff_check(lambda m: triplet_global(v, m, y, margin)[0], s, gs, tol=1e-6).passed
            done += 1

    def test_hinge_exactly_at_zero_contributes_no_gradient(self):
        v = [[1.0, 0.0]]
        s = [[1.0, 0.0], [0.0, 1.0]]
        # v.s_neg - v.s_pos + margin = 0 - 1 + 1 = 0: inactive by convention
        loss, gv, gs = triplet_global(v, s, [0], margin=1.0)
        assert loss == 0.0
        assert not gv.any() and not gs.any()


class TestCorrConsistency:
    def test_hadamard_rows_orthogonal(self):
        s = select_hadamard_codes(16, 6, Rng(4)).weights
        loss, grad = corr_consistency(s)
        assert loss == 0.0
        assert not grad.any()

    def test_hand_computed_values(self):
        loss, _ = corr_consistency([[1.0, 1.0], [1.0, -1.0]])
        assert loss == 0.0
        loss, _ = corr_consistency([[1.0, 1.0], [1.0, 1.0]])
        assert loss == pytest.approx(2.0, rel=1e-15)

    def test_needs_two_classes(self):
        with pytest.raises(DomainError):
            corr_consistency([[1.0, 2.0]])

    def test_invariant_under_row_permutation_and_negation(self):
        rng = Rng(45)
        s = rng.normals(5, 7)
        base = corr_consistency(s)[0]
        assert corr_consistency(s[[4, 2, 0, 1, 3]])[0] == pytest.approx(base, rel=1e-12)
        flipped = s.copy()
        flipped[2] = -flipped[2]
        assert corr_consistency(flipped)[0] == pytest.approx(base, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = Rng(46)
        done = 0
        while done < 5:
            s = rng.normals(4, 6)
            gram = s @ s.T
            np.fill_diagonal(gram, 1.0)
            if np.abs(gram).min() < 1e-4:
                continue  # keep |.| kinks away from the perturbation
            _, grad = corr_consistency(s)
            assert finite_diff_check(lambda m: corr_consistency(m)[0], s, grad, tol=1e-6).passed
            done += 1


class TestComposeObjective:
    def hp(self, **kw):
        defaults = dict(num_classes=4, code_length=8, margin=2.0)
        defaults.update(kw)
        return Hyperparams(**defaults)

    def batch(self, rng):
        """(logits, semantic, codes, labels) for one batch, and the four
        loss parts computed on it directly."""
        n, k, length = 3, 4, 8
        logits = rng.normals(n, k)
        v = rng.normals(n, length)
        s = rng.normals(k, length)
        y = random_labels(rng, n, k)
        parts = (
            cross_entropy(logits, y),
            mse_codes(v, s, y),
            triplet_global(v, s, y, 2.0),
            corr_consistency(s),
        )
        return (logits, v, s, y), parts

    def test_baseline_total_is_ce(self):
        (logits, _, _, y), (ce, *_) = self.batch(Rng(51))
        bundle = compose_objective("baseline", self.hp(), logits, None, None, y)
        assert bundle.total == ce[0]
        np.testing.assert_array_equal(bundle.grad_logits, ce[1])
        assert bundle.grad_semantic is None and bundle.grad_codes is None

    def test_zero_weights_reduce_to_ce_plus_mse(self):
        inputs, (ce, mse, _, _) = self.batch(Rng(52))
        hp = self.hp(mse_weight=1.0, triplet_weight=0.0, corr_weight=0.0)
        bundle = compose_objective("ltc", hp, *inputs)
        assert bundle.total == pytest.approx(ce[0] + mse[0], rel=1e-15)

    def test_htc_forces_zero_code_gradient(self):
        # fixed codes take no gradient at all: htc leaves grad_codes unset
        inputs, (ce, mse, _, _) = self.batch(Rng(53))
        bundle = compose_objective("htc", self.hp(), *inputs)
        assert bundle.total == pytest.approx(ce[0] + mse[0], rel=1e-15)
        assert bundle.grad_codes is None
        assert bundle.grad_semantic.any()

    def test_ltc_merges_code_gradients(self):
        inputs, (_, mse, tri, corr) = self.batch(Rng(54))
        hp = self.hp(mse_weight=1.0, triplet_weight=0.01, corr_weight=0.1)
        bundle = compose_objective("ltc", hp, *inputs)
        expected = mse[2] + 0.01 * tri[2] + 0.1 * corr[1]
        np.testing.assert_array_equal(bundle.grad_codes, expected)
        expected_v = mse[1] + 0.01 * tri[1]
        np.testing.assert_allclose(bundle.grad_semantic, expected_v, atol=1e-15)

    def test_total_matches_manual_weighted_sum_to_machine_precision(self):
        inputs, (ce, mse, tri, corr) = self.batch(Rng(55))
        hp = self.hp(mse_weight=0.7, triplet_weight=0.03, corr_weight=0.2)
        bundle = compose_objective("ltc", hp, *inputs)
        manual = ce[0] + 0.7 * mse[0] + 0.03 * tri[0] + 0.2 * corr[0]
        assert bundle.total == manual

    def test_missing_parts_rejected(self):
        inputs, _ = self.batch(Rng(56))
        with pytest.raises(UsageError):
            compose_objective("nonsense", self.hp(), *inputs)

    @pytest.mark.parametrize("mode", ["htc", "ltc"])
    def test_one_label_check_per_coding_batch(self, monkeypatch, mode):
        calls = []

        def counted(labels, num_classes):
            calls.append(num_classes)
            return labels_array(labels, num_classes)

        inputs, _ = self.batch(Rng(58))
        monkeypatch.setattr(losses, "labels_array", counted)
        compose_objective(mode, self.hp(), *inputs)
        assert calls == [4]

    def test_logits_unlike_the_codewords_rejected(self):
        (logits, v, s, y), _ = self.batch(Rng(59))
        with pytest.raises(DimensionError, match="logits shape"):
            compose_objective("ltc", self.hp(), logits[:, :3], v, s, y)


def test_all_losses_non_negative_on_random_inputs():
    rng = Rng(57)
    for _ in range(20):
        n, k, length = 1 + rng.below(5), 2 + rng.below(5), 2 + rng.below(8)
        logits = rng.normals(n, k) * 3
        v = rng.normals(n, length)
        s = rng.normals(k, length)
        y = random_labels(rng, n, k)
        assert cross_entropy(logits, y)[0] >= 0
        assert mse_codes(v, s, y)[0] >= 0
        assert triplet_global(v, s, y, abs(rng.normal()))[0] >= 0
        assert corr_consistency(s)[0] >= 0


def test_mse_zero_iff_rows_match_codewords():
    rng = Rng(58)
    s = rng.normals(3, 4)
    y = [1, 2]
    v = s[y].copy()
    assert mse_codes(v, s, y)[0] == 0.0
    v[0, 0] += 1e-3
    assert mse_codes(v, s, y)[0] > 0.0


class TestHyperparams:
    def test_margin_defaults_to_code_length(self):
        hp = Hyperparams(num_classes=10, code_length=512)
        assert hp.margin == 512.0

    def test_explicit_margin_kept(self):
        hp = Hyperparams(num_classes=10, code_length=512, margin=256.0)
        assert hp.margin == 256.0

    def test_paper_style_defaults(self):
        hp = Hyperparams(num_classes=10)
        assert hp.code_length == 512
        assert hp.mse_weight == 1.0
        assert hp.triplet_weight == 0.01
        assert hp.corr_weight == 0.1
        assert hp.momentum == 0.9
        assert hp.weight_decay == 1e-4
        assert hp.decay_epochs == (40, 70)
        assert hp.decay_factor == 0.1

    def test_negative_weight_rejected(self):
        with pytest.raises(DomainError):
            Hyperparams(num_classes=2, mse_weight=-0.1)
