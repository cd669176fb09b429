"""Matrix validation, RNG determinism, and the finite-difference checker."""

import numpy as np
import pytest

from targetcodes.core import (
    Rng,
    as_matrix,
    derive_seed,
    finite_diff_check,
    labels_array,
)
from targetcodes.errors import DimensionError, DomainError, NumericError


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(123)
        b = Rng(123)
        assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]

    def test_normals_reproducible(self):
        assert np.array_equal(Rng(7).normals(4, 5), Rng(7).normals(4, 5))

    def test_known_splitmix_values(self):
        # splitmix64 with seed 0: first outputs of the reference algorithm
        r = Rng(0)
        assert r.next_u64() == 0xE220A8397B1DCDAF
        assert r.next_u64() == 0x6E789E6AA1B965F4

    def test_random_in_unit_interval(self):
        r = Rng(1)
        xs = [r.random() for _ in range(1000)]
        assert all(0.0 <= x < 1.0 for x in xs)
        assert abs(np.mean(xs) - 0.5) < 0.05

    def test_normal_moments(self):
        r = Rng(2)
        xs = np.array([r.normal() for _ in range(4000)])
        assert abs(xs.mean()) < 0.06
        assert abs(xs.std() - 1.0) < 0.05

    def test_shuffle_is_permutation(self):
        r = Rng(5)
        items = list(range(50))
        r.shuffle(items)
        assert sorted(items) == list(range(50))
        assert items != list(range(50))

    def test_sample_distinct(self):
        picks = Rng(6).sample(10, 10)
        assert sorted(picks) == list(range(10))

    def test_below_bounds(self):
        r = Rng(8)
        assert all(0 <= r.below(7) < 7 for _ in range(200))

    def test_state_roundtrip(self):
        r = Rng(9)
        r.next_u64()
        saved = r.state
        expected = [r.next_u64() for _ in range(5)]
        r2 = Rng(0)
        r2.state = saved
        assert [r2.next_u64() for _ in range(5)] == expected


class TestDeriveSeed:
    def test_pure_function(self):
        assert derive_seed(42, 3) == derive_seed(42, 3)

    def test_streams_distinct(self):
        seeds = {derive_seed(42, s) for s in range(16)}
        assert len(seeds) == 16


class TestFiniteDiffCheck:
    def test_sum_of_squares_closed_form(self):
        # d/dx sum(x^2) = 2x, so the analytic gradient of [[1,2]] is [[2,4]]
        x = np.array([[1.0, 2.0]])
        report = finite_diff_check(lambda m: float((m * m).sum()), x, [[2.0, 4.0]], h=1e-5)
        assert report.passed
        assert report.max_rel_err < 1e-7

    def test_constant_function(self):
        report = finite_diff_check(lambda m: 3.5, [[0.2, -1.0]], [[0.0, 0.0]])
        assert report.passed
        assert report.max_abs_err < 1e-12

    def test_wrong_gradient_rejected(self):
        x = np.array([[1.0, 2.0]])
        report = finite_diff_check(lambda m: float((m * m).sum()), x, [[2.0, 5.0]], h=1e-5)
        assert not report.passed
        assert report.worst_index == (0, 1)

    def test_ten_percent_perturbation_rejected(self):
        rng = Rng(21)
        for _ in range(5):
            x = rng.normals(3, 3)
            grad = 2.0 * x
            grad[1, 2] *= 1.1
            report = finite_diff_check(
                lambda m: float((m * m).sum()), x, grad, h=1e-5, tol=1e-6
            )
            assert not report.passed

    def test_does_not_mutate_input(self):
        x = np.array([[1.0, 2.0]])
        before = x.copy()
        finite_diff_check(lambda m: float(m.sum()), x, [[1.0, 1.0]])
        assert np.array_equal(x, before)

    def test_nonfinite_function_value(self):
        with pytest.raises(NumericError):
            finite_diff_check(lambda m: float("nan"), [[1.0]], [[0.0]])


class TestValidation:
    def test_as_matrix_rejects_1d(self):
        with pytest.raises(DimensionError):
            as_matrix([1.0, 2.0])

    def test_labels_out_of_range(self):
        with pytest.raises(DomainError, match="outside"):
            labels_array([0, 3], num_classes=3)

    def test_labels_pass_through(self):
        y = labels_array([2, 0, 1], num_classes=3)
        assert y.tolist() == [2, 0, 1]
