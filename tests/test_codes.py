"""Hadamard construction, code selection, binarizing activation, and the
clipped straight-through backward rule."""

import struct
import tracemalloc

import numpy as np
import pytest

from targetcodes import codes as codes_mod
from targetcodes.codes import (
    CodeBank,
    activate,
    hadamard_matrix,
    init_learnable_codes,
    load_bank,
    mean_abs_off_diagonal,
    normalized_correlation,
    pairwise_hamming,
    plus_one_counts,
    save_bank,
    select_hadamard_codes,
    ste_backward,
    update_codes,
)
from targetcodes.core import Rng, finite_diff_check
from targetcodes.errors import (
    CapacityError,
    DomainError,
    FormatError,
    NumericError,
    UsageError,
    VersionError,
)


class TestHadamardMatrix:
    def test_base_case(self):
        assert hadamard_matrix(2).tolist() == [[1.0, 1.0], [1.0, -1.0]]

    def test_order_four_orthogonal_by_direct_multiplication(self):
        h = hadamard_matrix(4)
        product = h @ h.T  # independent of the constructor's internals
        assert np.array_equal(product, 4.0 * np.eye(4))

    def test_order_eight_is_kron_of_four_and_two(self):
        expected = np.kron(hadamard_matrix(4), hadamard_matrix(2))
        assert np.array_equal(hadamard_matrix(8), expected)

    @pytest.mark.parametrize("m", [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024])
    def test_orthogonality_exact(self, m):
        h = hadamard_matrix(m)
        assert np.array_equal(h @ h.T, float(m) * np.eye(m))
        assert set(np.unique(h)) == {-1.0, 1.0}

    @pytest.mark.parametrize("m", [0, 1, 3, 6, 500])
    def test_rejects_non_powers_of_two(self, m):
        with pytest.raises(DomainError):
            hadamard_matrix(m)

    def test_matches_the_kronecker_recursion_bit_for_bit(self):
        base = np.array([[1.0, 1.0], [1.0, -1.0]])
        expected = base
        for m in (2, 4, 8, 16, 32, 64, 128, 256, 512):
            assert hadamard_matrix(m).tobytes() == expected.tobytes()
            expected = np.kron(expected, base)


class TestSelectHadamardCodes:
    def test_m4_k3_uses_all_non_first_rows(self):
        bank = select_hadamard_codes(4, 3, Rng(0))
        h = hadamard_matrix(4)
        rows = {tuple(r) for r in bank.weights}
        assert rows == {tuple(r) for r in h[1:]}
        assert plus_one_counts(bank.weights).tolist() == [2, 2, 2]

    def test_m4_k3_pairwise_distance_two(self):
        bank = select_hadamard_codes(4, 3, Rng(1))
        ham = pairwise_hamming(bank.weights)
        off = ham[~np.eye(3, dtype=bool)]
        assert set(off.tolist()) == {2}

    def test_capacity_error(self):
        with pytest.raises(CapacityError, match="exceed"):
            select_hadamard_codes(2, 2, Rng(0))

    def test_capacity_checked_before_the_matrix_is_built(self, monkeypatch):
        def unbuilt(m, rows):
            raise AssertionError(f"built rows of the order-{m} Hadamard matrix")

        monkeypatch.setattr(codes_mod, "_sylvester_rows", unbuilt)
        with pytest.raises(CapacityError, match="101 classes need length > 101, got 64"):
            select_hadamard_codes(64, 101, Rng(0))

    @pytest.mark.parametrize("m,k", [(8, 7), (16, 9), (64, 63), (256, 100)])
    def test_balance_and_distance_properties(self, m, k):
        bank = select_hadamard_codes(m, k, Rng(m + k))
        assert plus_one_counts(bank.weights).tolist() == [m // 2] * k
        ham = pairwise_hamming(bank.weights)
        off = ham[~np.eye(k, dtype=bool)]
        assert set(off.tolist()) == {m // 2}

    def test_builds_only_the_selected_rows(self):
        # the whole order-2048 matrix alone would take 2048 * 2048 * 8 = 33.5 MB
        tracemalloc.start()
        try:
            bank = select_hadamard_codes(2048, 10, Rng(6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
        h = hadamard_matrix(2048)
        assert all((h[1:] == w).all(axis=1).sum() == 1 for w in bank.weights)

    def test_rows_distinct(self):
        bank = select_hadamard_codes(16, 15, Rng(5))
        assert len({tuple(r) for r in bank.weights}) == 15

    def test_seeded_selection_reproducible(self):
        a = select_hadamard_codes(32, 10, Rng(9))
        b = select_hadamard_codes(32, 10, Rng(9))
        assert np.array_equal(a.weights, b.weights)


class TestLearnableInit:
    def test_same_seed_identical(self):
        a = init_learnable_codes(3, 8, Rng(7))
        b = init_learnable_codes(3, 8, Rng(7))
        assert np.array_equal(a.weights, b.weights)

    def test_sign_activation_binary(self):
        bank = init_learnable_codes(3, 8, Rng(7))
        assert set(np.unique(activate(bank))) <= {-1.0, 1.0}

    def test_plus_fraction_near_half(self):
        bank = init_learnable_codes(100, 512, Rng(3))
        frac = float((activate(bank) > 0).mean())
        assert 0.45 <= frac <= 0.55

    def test_rejects_single_class(self):
        with pytest.raises(DomainError):
            init_learnable_codes(1, 8, Rng(0))


class TestActivate:
    def test_sign_with_zero_tiebreak(self):
        bank = CodeBank("learnable", np.array([[0.3, -2.0, 0.0]]))
        assert activate(bank).tolist() == [[1.0, -1.0, 1.0]]

    def test_tanh_scaled_near_saturation(self):
        bank = CodeBank(
            "learnable", np.array([[0.1]]), activation="tanh_scaled", tanh_scale=100.0
        )
        value = activate(bank)[0, 0]
        assert 0 < 1.0 - value < 5e-9  # tanh(10) in double precision

    def test_hadamard_returned_unchanged(self):
        bank = select_hadamard_codes(8, 5, Rng(2))
        assert np.array_equal(activate(bank), bank.weights)

    def test_hadamard_result_is_read_only(self):
        bank = select_hadamard_codes(8, 5, Rng(2))
        before = bank.weights.copy()
        s = activate(bank)
        with pytest.raises(ValueError):
            s[0, 0] = 7.0
        assert bank.weights.tobytes() == before.tobytes()

    def test_sign_matches_where_reference_with_signed_zeros(self):
        w = Rng(12).normals(5, 9)
        w[0, :3] = 0.0
        w[1, :3] = -0.0
        s = activate(CodeBank("learnable", w))
        assert s.tobytes() == np.where(w >= 0.0, 1.0, -1.0).tobytes()
        assert (s[:2, :3] == 1.0).all()

    def test_idempotent_on_binary_input(self):
        bank = init_learnable_codes(4, 16, Rng(11))
        s = activate(bank)
        again = CodeBank("learnable", s.copy())
        assert np.array_equal(activate(again), s)

    def test_tanh_converges_to_sign(self):
        rng = Rng(13)
        w = rng.normals(6, 32)
        w[np.abs(w) < 0.1] = 0.15  # keep |w| >= 0.1 everywhere
        tanh_bank = CodeBank("learnable", w, activation="tanh_scaled", tanh_scale=100.0)
        sign_bank = CodeBank("learnable", w.copy())
        gap = np.abs(activate(tanh_bank) - activate(sign_bank)).max()
        assert gap <= 5e-9


class TestSteBackward:
    def test_clip_examples(self):
        bank = init_learnable_codes(2, 3, Rng(0))
        g = np.array([[2.5, -0.3, -7.0], [0.0, 1.0, -1.0]])
        out = ste_backward(bank, g, "clipped")
        assert out[0].tolist() == [1.0, -0.3, -1.0]
        assert out[1].tolist() == [0.0, 1.0, -1.0]

    def test_identity_inside_clip_range(self):
        bank = init_learnable_codes(3, 5, Rng(1))
        g = Rng(2).normals(3, 5) * 0.5
        g = np.clip(g, -1, 1)
        assert np.array_equal(ste_backward(bank, g, "clipped"), g)

    def test_output_always_in_clip_range(self):
        bank = init_learnable_codes(4, 6, Rng(3))
        g = Rng(4).normals(4, 6) * 10
        out = ste_backward(bank, g, "clipped")
        assert out.min() >= -1.0 and out.max() <= 1.0

    def test_passthrough(self):
        bank = init_learnable_codes(2, 2, Rng(5))
        g = np.array([[5.0, -3.0], [0.2, 0.0]])
        assert np.array_equal(ste_backward(bank, g, "passthrough"), g)

    def test_tanh_multiplier_at_zero_is_scale(self):
        bank = CodeBank(
            "learnable", np.array([[0.0]]), activation="tanh_scaled", tanh_scale=10.0
        )
        out = ste_backward(bank, np.array([[1.0]]))
        assert out[0, 0] == pytest.approx(10.0)

    def test_tanh_rule_matches_finite_differences(self):
        w = np.array([[0.2, -0.4, 0.05]])
        bank = CodeBank("learnable", w, activation="tanh_scaled", tanh_scale=10.0)
        upstream = np.array([[0.7, -1.3, 0.4]])

        def f(m):
            b = CodeBank("learnable", m.copy(), activation="tanh_scaled", tanh_scale=10.0)
            return float((activate(b) * upstream).sum())

        analytic = ste_backward(bank, upstream)
        report = finite_diff_check(f, w, analytic, h=1e-6, tol=1e-6)
        assert report.passed

    def test_fixed_codes_refuse_gradient(self):
        bank = select_hadamard_codes(8, 3, Rng(0))
        with pytest.raises(UsageError):
            ste_backward(bank, np.zeros((3, 8)))


class TestUpdateCodes:
    def test_single_step(self):
        bank = CodeBank("learnable", np.array([[1.0]]))
        update_codes(bank, np.array([[1.0]]), 0.1)
        assert bank.weights[0, 0] == pytest.approx(0.9)

    def test_zero_gradient_no_change(self):
        bank = init_learnable_codes(3, 4, Rng(1))
        before = bank.weights.copy()
        update_codes(bank, np.zeros((3, 4)), 0.5)
        assert np.array_equal(bank.weights, before)

    def test_two_steps_equal_summed_gradient(self):
        g1 = Rng(2).normals(2, 3)
        g2 = Rng(3).normals(2, 3)
        a = init_learnable_codes(2, 3, Rng(4))
        b = init_learnable_codes(2, 3, Rng(4))
        update_codes(a, g1, 0.2)
        update_codes(a, g2, 0.2)
        update_codes(b, g1 + g2, 0.2)
        np.testing.assert_allclose(a.weights, b.weights, rtol=0, atol=1e-15)

    def test_nonfinite_gradient_rejected(self):
        bank = init_learnable_codes(2, 2, Rng(5))
        g = np.array([[np.nan, 0.0], [0.0, 0.0]])
        with pytest.raises(NumericError):
            update_codes(bank, g, 0.1)

    def test_hadamard_bank_not_updatable(self):
        bank = select_hadamard_codes(4, 3, Rng(0))
        with pytest.raises(UsageError):
            update_codes(bank, np.zeros((3, 4)), 0.1)


def test_argmax_scores_invariant_under_row_and_label_permutation():
    rng = Rng(17)
    v = rng.normals(10, 16)
    bank = init_learnable_codes(5, 16, Rng(18))
    s = activate(bank)
    scores = v @ s.T
    pred = np.argmax(scores, axis=1)
    perm = [3, 0, 4, 1, 2]
    s_perm = s[perm]
    pred_perm = np.argmax(v @ s_perm.T, axis=1)
    # permuting codebank rows relabels predictions consistently
    assert np.array_equal(np.array(perm)[pred_perm], pred)


@pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf])
def test_non_finite_tanh_scale_rejected(tmp_path, scale):
    with pytest.raises(DomainError, match="tanh scale must be finite and positive"):
        CodeBank("learnable", np.zeros((2, 3)), activation="tanh_scaled", tanh_scale=scale)
    # a bank file storing such a scale: magic, u32 version 2, u32 kind,
    # u32 activation, f64 tanh scale, then the weights matrix
    path = tmp_path / "scale.ltcb"
    save_bank(init_learnable_codes(2, 3, Rng(0), activation="tanh_scaled"), path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<d", raw, 16, scale)
    path.write_bytes(bytes(raw))
    with pytest.raises(DomainError, match="tanh scale must be finite and positive"):
        load_bank(path)


class TestBankSerialization:
    def test_roundtrip(self, tmp_path):
        bank = init_learnable_codes(5, 12, Rng(6), activation="tanh_scaled", tanh_scale=7.5)
        path = tmp_path / "bank.ltcb"
        save_bank(bank, path)
        loaded = load_bank(path)
        assert loaded.kind == "learnable"
        assert loaded.num_classes == 5
        assert loaded.code_length == 12
        assert loaded.activation == "tanh_scaled"
        assert loaded.tanh_scale == 7.5
        assert np.array_equal(loaded.weights, bank.weights)

    def test_version_1_file_loads_as_sign(self, tmp_path):
        w = Rng(10).normals(3, 4)
        path = tmp_path / "v1.ltcb"
        # v1 layout: magic, u32 version, u32 kind, u32 K, u32 L, f64 tanh
        # scale, K*L f64 weights; it had no activation field
        head = b"LTCB" + struct.pack("<IIIId", 1, 1, 3, 4, 2.5)
        path.write_bytes(head + w.astype("<f8").tobytes())
        loaded = load_bank(path)
        assert loaded.kind == "learnable"
        assert loaded.activation == "sign"
        assert loaded.tanh_scale == 2.5
        assert np.array_equal(loaded.weights, w)

    @pytest.mark.parametrize("version", [1, 2])
    def test_non_finite_weight_rejected(self, tmp_path, version):
        w = Rng(11).normals(3, 4)
        w[2, 1] = np.inf
        path = tmp_path / "inf.ltcb"
        if version == 1:
            head = b"LTCB" + struct.pack("<IIIId", 1, 1, 3, 4, 1.0)
            path.write_bytes(head + w.astype("<f8").tobytes())
        else:
            bank = init_learnable_codes(3, 4, Rng(11))
            bank.weights[:] = w
            save_bank(bank, path)
        with pytest.raises(FormatError, match="non-finite"):
            load_bank(path)

    def test_unknown_kind_code(self, tmp_path):
        path = tmp_path / "kind.ltcb"
        save_bank(init_learnable_codes(3, 4, Rng(8)), path)
        raw = bytearray(path.read_bytes())
        # after the magic and u32 version: u32 kind (1 is learnable)
        assert struct.unpack_from("<I", raw, 8) == (1,)
        struct.pack_into("<I", raw, 8, 9)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="unknown code bank kind code 9$"):
            load_bank(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "long.ltcb"
        save_bank(init_learnable_codes(3, 4, Rng(8)), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            load_bank(path)

    def test_hadamard_roundtrip(self, tmp_path):
        bank = select_hadamard_codes(16, 9, Rng(7))
        path = tmp_path / "had.ltcb"
        save_bank(bank, path)
        loaded = load_bank(path)
        assert loaded.kind == "hadamard_fixed"
        assert np.array_equal(loaded.weights, bank.weights)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ltcb"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            load_bank(path)

    def test_truncated_payload(self, tmp_path):
        bank = init_learnable_codes(3, 4, Rng(8))
        path = tmp_path / "trunc.ltcb"
        save_bank(bank, path)
        raw = path.read_bytes()
        for end in range(len(raw)):
            path.write_bytes(raw[:end])
            with pytest.raises(FormatError):
                load_bank(path)

    def test_truncated_version_1_payload(self, tmp_path):
        path = tmp_path / "trunc_v1.ltcb"
        raw = b"LTCB" + struct.pack("<IIIId", 1, 1, 3, 4, 2.5) + Rng(12).normals(3, 4).tobytes()
        for end in range(len(raw)):
            path.write_bytes(raw[:end])
            with pytest.raises(FormatError):
                load_bank(path)

    @pytest.mark.parametrize("version", [1, 2])
    def test_oversized_header_refused_before_allocating(self, tmp_path, version):
        # 2**31 x 2**31 f64 weights would be 32 EiB; the file holds 8 bytes of them
        path = tmp_path / "huge.ltcb"
        if version == 1:
            head = b"LTCB" + struct.pack("<IIIId", 1, 1, 2**31, 2**31, 1.0)
        else:
            head = b"LTCB" + struct.pack("<IIIdII", 2, 1, 0, 1.0, 2**31, 2**31)
        path.write_bytes(head + bytes(8))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="truncated code bank file"):
                load_bank(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_version_error(self, tmp_path):
        bank = init_learnable_codes(2, 2, Rng(9))
        path = tmp_path / "ver.ltcb"
        save_bank(bank, path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99  # bump the little-endian version field
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionError):
            load_bank(path)


def test_mean_abs_off_diagonal():
    m = np.array([[1.0, 0.5, -0.25], [0.5, 1.0, 0.0], [-0.25, 0.0, 1.0]])
    expected = (0.5 + 0.25 + 0.5 + 0.0 + 0.25 + 0.0) / 6
    assert mean_abs_off_diagonal(m) == pytest.approx(expected)


def test_normalized_correlation_of_hadamard_bank_orthogonal():
    bank = select_hadamard_codes(32, 12, Rng(10))
    corr = normalized_correlation(bank.weights)
    assert np.allclose(np.diag(corr), 1.0)
    off = corr[~np.eye(12, dtype=bool)]
    assert np.abs(off).max() == 0.0
