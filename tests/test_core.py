"""Matrix validation, RNG determinism, and the finite-difference checker."""

import hashlib

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


_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _unxorshift(y, s):
    """Inverse of x -> x ^ (x >> s) on 64-bit words."""
    x = y
    for _ in range(64 // s + 1):
        x = y ^ (x >> s)
    return x


def state_before_output(out, ahead=0):
    """A generator state whose (ahead+1)-th next_u64() returns ``out``."""
    z = _unxorshift(out, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & _M64
    z = _unxorshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & _M64
    z = _unxorshift(z, 30)
    return (z - (ahead + 1) * _GOLDEN) & _M64


def reference_shuffle(rng, items):
    for i in range(len(items) - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]


def reference_sample(rng, n, k):
    pool = list(range(n))
    for i in range(k):
        j = i + rng.below(n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


class TestBulkRngMatchesScalar:
    """The bulk methods reproduce the scalar stream bit for bit."""

    SEEDS = (0, 1, 2**63 + 7, 2**64 - 1)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("shape", [(1, 1), (3, 7), (128, 100)])
    def test_normals_equal_normal_loop(self, seed, shape):
        bulk, scalar = Rng(seed), Rng(seed)
        got = bulk.normals(*shape)
        want = np.array([scalar.normal() for _ in range(shape[0] * shape[1])])
        assert got.shape == shape
        assert got.tobytes() == want.reshape(shape).tobytes()
        assert bulk.state == scalar.state
        assert bulk.next_u64() == scalar.next_u64()

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", [0, 1, 2, 10, 827])
    def test_shuffle_and_sample_equal_reference(self, seed, n):
        bulk, scalar = Rng(seed), Rng(seed)
        got, want = list(range(n)), list(range(n))
        bulk.shuffle(got)
        reference_shuffle(scalar, want)
        assert got == want
        assert bulk.sample(n, n // 2) == reference_sample(scalar, n, n // 2)
        assert bulk.state == scalar.state
        assert bulk.next_u64() == scalar.next_u64()

    @pytest.mark.parametrize("ahead", [0, 5])
    def test_rejected_draw_in_shuffle(self, ahead):
        # 2**64 - 1 is rejected for every bound that is not a power of two
        start = state_before_output(_M64, ahead)
        bulk, scalar = Rng(0), Rng(0)
        bulk.state = scalar.state = start
        got, want = list(range(827)), list(range(827))
        bulk.shuffle(got)
        reference_shuffle(scalar, want)
        assert got == want
        assert bulk.state == scalar.state == (start + 827 * _GOLDEN) & _M64  # one extra draw

    @pytest.mark.parametrize("ahead", [0, 5])
    def test_rejected_draw_in_sample(self, ahead):
        start = state_before_output(_M64, ahead)
        bulk, scalar = Rng(0), Rng(0)
        bulk.state = scalar.state = start
        assert bulk.sample(100, 30) == reference_sample(scalar, 100, 30)
        assert bulk.state == scalar.state == (start + 31 * _GOLDEN) & _M64

    def test_pinned_normals_digest(self):
        digest = hashlib.sha256(Rng(0).normals(64, 64).tobytes()).hexdigest()
        assert digest == "154ecb0d74ebbb33e3018585cd4f6beb86902840f840c1c2a10285ff9f080e69"

    def test_pinned_shuffle_digest(self):
        items = list(range(1000))
        Rng(1).shuffle(items)
        digest = hashlib.sha256(np.array(items, dtype="<i8").tobytes()).hexdigest()
        assert digest == "6a3c3ee95ecd16063d198fd4b73352506fcbad741351eee78f2b56009f743bc9"


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

    @pytest.mark.parametrize("labels, dtype", [([0.0, 1.0], "float64"), ([True, False], "bool")])
    def test_labels_of_a_non_integer_dtype_refused(self, labels, dtype):
        with pytest.raises(DomainError, match=f"labels must be integers, got {dtype}$"):
            labels_array(labels, num_classes=3)

    def test_labels_pass_through(self):
        y = labels_array([2, 0, 1], num_classes=3)
        assert y.tolist() == [2, 0, 1]
