"""Numeric core: eigendecomposition, matrix roots, softmax, grad checker, rng."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warmproto import derive_rng, half_powers, softmax_rows, sym_eig
from warmproto.errors import ArgumentError, NumericError, SymmetryError
from warmproto.linalg import pairwise_distances

from .gradcheck import grad_check


def random_symmetric(rng, d):
    a = rng.standard_normal((d, d))
    return 0.5 * (a + a.T)


def random_psd(rng, d):
    a = rng.standard_normal((d + 2, d))
    return a.T @ a / (d + 1)


class TestSymEig:
    def test_diagonal(self):
        evals, evecs = sym_eig(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(evals, [4.0, 1.0])
        np.testing.assert_allclose(np.abs(evecs), np.eye(2), atol=1e-12)

    def test_two_by_two_hand_solved(self):
        # char. polynomial of [[2,1],[1,2]]: (2-x)^2 - 1 = 0 -> x = 3, 1
        evals, evecs = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(evals, [3.0, 1.0], atol=1e-12)
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        for col in range(2):
            dot = abs(np.dot(evecs[:, col], expected[:, col]))
            assert dot == pytest.approx(1.0, abs=1e-12)

    def test_identity(self):
        evals, evecs = sym_eig(np.eye(3))
        np.testing.assert_allclose(evals, np.ones(3))
        np.testing.assert_allclose(evecs.T @ evecs, np.eye(3), atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = derive_rng(0)
        for d in (1, 2, 5, 17, 40):
            m = random_symmetric(rng, d)
            evals, evecs = sym_eig(m)
            assert np.all(np.diff(evals) <= 1e-12)
            np.testing.assert_allclose((evecs * evals) @ evecs.T, m, atol=1e-8)
            np.testing.assert_allclose(evecs.T @ evecs, np.eye(d), atol=1e-8)

    def test_trace_and_determinant_preserved(self):
        rng = derive_rng(1)
        m = random_symmetric(rng, 6)
        evals, _ = sym_eig(m)
        assert np.sum(evals) == pytest.approx(np.trace(m), abs=1e-8)
        assert np.prod(evals) == pytest.approx(np.linalg.det(m), abs=1e-8)

    def test_rejects_asymmetric(self):
        with pytest.raises(SymmetryError):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ArgumentError):
            sym_eig(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(NumericError):
            sym_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestMatPowHalf:
    """(m^-1/2, m^+1/2) from ``half_powers``."""

    def test_diagonal_sqrt(self):
        np.testing.assert_allclose(
            half_powers(np.diag([4.0, 9.0]), 1e-4)[1], np.diag([2.0, 3.0]), atol=1e-12
        )

    def test_diagonal_inv_sqrt(self):
        np.testing.assert_allclose(
            half_powers(np.diag([4.0, 9.0]), 1e-4)[0], np.diag([0.5, 1.0 / 3.0]), atol=1e-12
        )

    def test_clamp(self):
        # 0 clamps to 1e-4, and (1e-4)^(-1/2) = 100
        out = half_powers(np.diag([4.0, 0.0]), 1e-4)[0]
        np.testing.assert_allclose(out, np.diag([0.5, 100.0]), atol=1e-10)

    def test_square_recovers_input(self):
        rng = derive_rng(2)
        for d in (2, 6, 12):
            m = random_psd(rng, d) + 0.01 * np.eye(d)
            root = half_powers(m, 1e-6)[1]
            assert np.linalg.norm(root @ root - m) < 1e-6

    def test_inv_sqrt_whitens(self):
        rng = derive_rng(3)
        m = random_psd(rng, 8) + 0.01 * np.eye(8)
        inv_root = half_powers(m, 1e-6)[0]
        np.testing.assert_allclose(inv_root @ m @ inv_root, np.eye(8), atol=1e-6)

    def test_opposite_exponents_cancel(self):
        rng = derive_rng(4)
        m = random_psd(rng, 5)
        inv_root, root = half_powers(m, 1e-4)
        prod = inv_root @ root
        np.testing.assert_allclose(prod, np.eye(5), atol=1e-6)

    def test_result_symmetric(self):
        rng = derive_rng(5)
        m = random_psd(rng, 7)
        out = half_powers(m, 1e-4)[1]
        np.testing.assert_array_equal(out, out.T)

    def test_rejects_bad_eps(self):
        with pytest.raises(ArgumentError):
            half_powers(np.eye(2), 0.0)


class TestSoftmaxRows:
    def test_symmetric_pair(self):
        np.testing.assert_allclose(softmax_rows([[0.0, 0.0]]), [[0.5, 0.5]], atol=1e-15)

    def test_log_two(self):
        # e^{ln 2} / (e^{ln 2} + 1) = 2/3
        out = softmax_rows([[np.log(2.0), 0.0]])
        np.testing.assert_allclose(out, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-15)

    def test_no_overflow(self):
        out = softmax_rows([[1000.0, 0.0]])
        assert np.all(np.isfinite(out))
        assert out[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert out[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_rows_sum_to_one(self):
        rng = derive_rng(6)
        out = softmax_rows(rng.standard_normal((20, 13)) * 30)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(20), atol=1e-12)
        assert np.all(out >= 0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-50, 50))
    def test_shift_invariance(self, seed, shift):
        m = derive_rng(seed).standard_normal((3, 5))
        np.testing.assert_allclose(softmax_rows(m + shift), softmax_rows(m), atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(NumericError):
            softmax_rows([[np.inf, 0.0]])

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 30),
        st.integers(1, 60),
        st.sampled_from([1e-3, 1.0, 30.0, 1e3, 1e6]),
        st.sampled_from([-1e8, -700.0, 0.0, 700.0, 1e8]),
    )
    def test_bit_identical_to_allocating_expression(self, seed, rows, cols, spread, offset):
        m = offset + spread * derive_rng(seed).standard_normal((rows, cols))
        shifted = m - m.max(axis=-1, keepdims=True)
        expected = np.exp(shifted) / np.exp(shifted).sum(axis=-1, keepdims=True)
        out = softmax_rows(m)
        assert out.dtype == np.float64 and out.shape == m.shape
        assert out.tobytes() == expected.tobytes()

    def test_one_buffer(self):
        # the logits of a pooled 5-shot class: one L x M result, no temporaries of that size
        m = derive_rng(8).standard_normal((100, 2000))
        tracemalloc.start()
        try:
            softmax_rows(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * m.nbytes


class TestGradCheck:
    def test_quadratic(self):
        x = np.array([3.0])
        err = grad_check(lambda v: float(v[0] ** 2), x, np.array([6.0]), h=1e-4)
        assert err < 1e-6

    def test_constant(self):
        x = np.array([1.0, -2.0])
        assert grad_check(lambda v: 5.0, x, np.zeros(2)) == 0.0

    def test_detects_wrong_gradient(self):
        x = np.array([3.0])
        err = grad_check(lambda v: float(v[0] ** 2), x, np.array([5.0]), h=1e-4)
        assert err > 1e-2

    def test_non_finite_objective(self):
        with pytest.raises(NumericError):
            grad_check(lambda v: float("nan"), np.array([0.0]), np.array([0.0]))


class TestPairwiseDistances:
    def test_three_four_five(self):
        out = pairwise_distances([[0.0, 0.0]], [[3.0, 4.0]])
        assert out[0, 0] == pytest.approx(5.0, abs=1e-12)

    def test_matches_direct_computation(self):
        rng = derive_rng(7)
        a, b = rng.standard_normal((6, 3)), rng.standard_normal((4, 3))
        direct = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
        np.testing.assert_allclose(pairwise_distances(a, b), direct, atol=1e-10)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ArgumentError):
            pairwise_distances(np.zeros((2, 3)), np.zeros((2, 4)))

    @staticmethod
    def _allocating(a, b):
        # the out-of-place expression the in-place version replaced
        norms = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :]
        sq = norms - 2.0 * (a @ b.T)
        np.maximum(sq, 0.0, out=sq)
        sq[sq <= 1e-14 * norms] = 0.0
        return np.sqrt(sq)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),
        st.integers(1, 40),
        st.integers(1, 33),
        st.sampled_from([0.0, 1.0, 1e3, 1e8]),
        st.sampled_from([1e-12, 1e-6, 1.0, 1e4]),
        st.integers(0, 5),
    )
    def test_bit_identical_to_allocating_expression(self, seed, n, m, d, offset, spread, shared):
        rng = derive_rng(seed)
        # a common offset with a small spread makes the expansion cancel
        a = offset + spread * rng.standard_normal((n, d))
        b = offset + spread * rng.standard_normal((m, d))
        pairs = [(int(rng.integers(n)), int(rng.integers(m))) for _ in range(shared)]
        for i, j in pairs:
            b[j] = a[i]
        out = pairwise_distances(a, b)
        assert out.dtype == np.float64 and out.shape == (n, m)
        assert out.tobytes() == self._allocating(a, b).tobytes()
        for i, j in pairs:
            if np.array_equal(b[j], a[i]):  # a later pair may overwrite row j
                assert out[i, j] == 0.0 and not np.signbit(out[i, j])

    def test_coincident_rows_exact_zero(self):
        a = derive_rng(3).standard_normal((50, 32)) * 40.0
        out = pairwise_distances(a, a)
        assert out.tobytes() == self._allocating(a, a).tobytes()
        assert np.all(np.diagonal(out) == 0.0) and not np.any(np.signbit(out))


class TestRng:
    def test_equal_seeds_identical_streams(self):
        a, b = derive_rng(123), derive_rng(123)
        np.testing.assert_array_equal(a.standard_normal(100), b.standard_normal(100))
        np.testing.assert_array_equal(a.integers(0, 1000, 50), b.integers(0, 1000, 50))

    def test_different_seeds_differ(self):
        assert not np.array_equal(derive_rng(0).standard_normal(8), derive_rng(1).standard_normal(8))

    def test_derived_streams_are_independent_of_consumption(self):
        a = derive_rng(9, 1, 4)
        b = derive_rng(9, 1, 5)
        a2 = derive_rng(9, 1, 4)
        first = a.standard_normal(10)
        _ = b.standard_normal(3)
        np.testing.assert_array_equal(first, a2.standard_normal(10))

    @pytest.mark.parametrize("seed", [0, 3, 7700, 2**63])
    def test_seed_only_stream_is_default_rng(self, seed):
        # derive_rng(seed) with no key is numpy's stream for that seed
        a, b = derive_rng(seed), np.random.default_rng(seed)
        np.testing.assert_array_equal(a.standard_normal(64), b.standard_normal(64))
        np.testing.assert_array_equal(a.integers(0, 2**62, 16), b.integers(0, 2**62, 16))

    def test_known_stream_pinned(self):
        # guards against silent generator/algorithm changes
        vals = derive_rng(2024).integers(0, 2**16, 4)
        np.testing.assert_array_equal(vals, derive_rng(2024).integers(0, 2**16, 4))
