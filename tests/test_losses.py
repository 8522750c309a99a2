"""Distance field, prediction, margin and simplification objectives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warmproto import make_rng, margin_loss, point_distances, predict, total_loss
from warmproto.errors import ArgumentError, EmptyClassError
from warmproto.losses import (
    DistanceField,
    margin_loss_grad,
    simplification_loss_and_grad,
)


class TestPointDistances:
    def test_zero_distance_at_prototype(self):
        protos = {0: np.array([[1.0, 2.0], [5.0, 5.0]]), 1: np.array([[9.0, 9.0]])}
        field = point_distances(np.array([[1.0, 2.0]]), protos)
        assert field.distances[0, 0] == pytest.approx(0.0, abs=1e-6)

    def test_three_four_five(self):
        field = point_distances(np.array([[3.0, 4.0]]), {0: np.array([[0.0, 0.0]])})
        assert field.distances[0, 0] == pytest.approx(5.0, abs=1e-12)

    def test_matches_brute_force(self):
        rng = make_rng(0)
        query = rng.standard_normal((5, 3))
        protos = {0: rng.standard_normal((4, 3)), 1: rng.standard_normal((2, 3))}
        field = point_distances(query, protos)
        for ci, label in enumerate(field.class_labels):
            for l in range(5):
                expected = min(np.linalg.norm(query[l] - p) for p in protos[label])
                assert field.distances[ci, l] == pytest.approx(expected, abs=1e-9)

    def test_prototype_permutation_invariant(self):
        rng = make_rng(1)
        query = rng.standard_normal((6, 2))
        p = rng.standard_normal((5, 2))
        a = point_distances(query, {0: p})
        b = point_distances(query, {0: p[::-1].copy()})
        np.testing.assert_allclose(a.distances, b.distances, atol=1e-12)

    def test_empty_prototype_matrix(self):
        with pytest.raises(EmptyClassError):
            point_distances(np.zeros((1, 2)), {0: np.zeros((0, 2))})


class TestPredict:
    def test_smaller_distance_wins(self):
        field = DistanceField((0, 1), np.array([[1.0], [2.0]]), np.zeros((2, 1), dtype=np.int64))
        assert predict(field).tolist() == [0]

    def test_tie_goes_to_lower_class(self):
        field = DistanceField((0, 1), np.array([[3.0], [3.0]]), np.zeros((2, 1), dtype=np.int64))
        assert predict(field).tolist() == [0]

    def test_separable_data_perfect_accuracy(self):
        rng = make_rng(2)
        protos = {0: np.array([[0.0, 0.0]]), 1: np.array([[100.0, 100.0]])}
        q0 = rng.standard_normal((30, 2))
        q1 = rng.standard_normal((30, 2)) + 100.0
        field = point_distances(np.vstack([q0, q1]), protos)
        truth = np.array([0] * 30 + [1] * 30)
        np.testing.assert_array_equal(predict(field), truth)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.1, 5.0), st.floats(-3.0, 3.0))
    def test_monotone_transform_invariance(self, seed, scale, power_shift):
        rng = make_rng(seed)
        d = rng.uniform(0.1, 10.0, size=(3, 7))
        field_a = DistanceField((0, 1, 2), d, np.zeros_like(d, dtype=np.int64))
        field_b = DistanceField((0, 1, 2), scale * d + abs(power_shift), np.zeros_like(d, dtype=np.int64))
        np.testing.assert_array_equal(predict(field_a), predict(field_b))


class TestMarginLoss:
    def _field(self, d):
        d = np.asarray(d, dtype=np.float64)
        return DistanceField(tuple(range(d.shape[0])), d, np.zeros_like(d, dtype=np.int64))

    def test_satisfied_margin_is_zero(self):
        field = self._field([[1.0], [2.0]])
        assert margin_loss(field, [0]) == 0.0

    def test_violated_margin(self):
        field = self._field([[2.0], [1.0]])
        assert margin_loss(field, [0]) == pytest.approx(1.0)

    def test_hardest_negative_of_three_classes(self):
        rng = make_rng(3)
        d = rng.uniform(0.5, 4.0, size=(3, 10))
        field = self._field(d)
        truth = rng.integers(0, 3, 10)
        total = 0.0
        for l in range(10):
            d_pos = d[truth[l], l]
            d_neg = min(d[c, l] for c in range(3) if c != truth[l])
            total += max(d_pos - d_neg, 0.0)
        assert margin_loss(field, truth) == pytest.approx(total, abs=1e-12)

    def test_zero_iff_all_satisfied(self):
        field = self._field([[1.0, 3.0], [2.0, 2.0]])
        assert margin_loss(field, [0, 0]) == pytest.approx(1.0)  # second point violates
        assert margin_loss(field, [0, 1]) == 0.0

    def test_label_without_prototype(self):
        field = self._field([[1.0], [2.0]])
        with pytest.raises(ArgumentError):
            margin_loss(field, [7])

    def test_optional_margin_constant(self):
        field = self._field([[1.0], [1.5]])
        assert margin_loss(field, [0]) == 0.0
        assert margin_loss(field, [0], margin=1.0) == pytest.approx(0.5)


class TestMarginGrad:
    def test_zero_when_satisfied(self):
        rng = make_rng(4)
        query = rng.standard_normal((4, 2))
        protos = {0: query + 0.01, 1: query + 100.0}
        field = point_distances(query, protos)
        grads = margin_loss_grad(query, protos, field, np.zeros(4, dtype=int))
        for g in grads.values():
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_finite_difference(self):
        rng = make_rng(5)
        query = rng.standard_normal((6, 3))
        p0 = rng.standard_normal((4, 3))
        p1 = rng.standard_normal((3, 3))
        truth = rng.integers(0, 2, 6)

        def loss_of(vec):
            protos = {0: vec[: 12].reshape(4, 3), 1: vec[12:].reshape(3, 3)}
            return margin_loss(point_distances(query, protos), truth)

        vec = np.concatenate([p0.ravel(), p1.ravel()])
        protos = {0: p0, 1: p1}
        field = point_distances(query, protos)
        grads = margin_loss_grad(query, protos, field, truth)
        analytic = np.concatenate([grads[0].ravel(), grads[1].ravel()])
        h = 1e-6
        for i in range(vec.size):
            step = np.zeros_like(vec)
            step[i] = h
            numeric = (loss_of(vec + step) - loss_of(vec - step)) / (2 * h)
            assert analytic[i] == pytest.approx(numeric, abs=1e-4)


class TestSimplificationLoss:
    def test_perfect_cover_is_zero(self):
        rng = make_rng(6)
        f = rng.standard_normal((5, 3))
        protos = {0: f[::-1].copy(), 1: rng.standard_normal((4, 3))}
        feats = {0: f, 1: protos[1].copy()}
        assert simplification_loss_and_grad(feats, protos)[0] == pytest.approx(0.0, abs=1e-12)

    def test_single_pair_reduces_to_three_norms(self):
        f = np.array([[1.0, 2.0]])
        p = np.array([[4.0, 6.0]])  # distance 5
        feats = {0: f, 1: f.copy()}
        protos = {0: p, 1: f.copy()}
        # class 0 contributes 3*5, class 1 contributes 0; mean over 2 classes
        assert simplification_loss_and_grad(feats, protos)[0] == pytest.approx(7.5)

    def test_matches_brute_force(self):
        rng = make_rng(7)
        feats = {0: rng.standard_normal((5, 2)), 1: rng.standard_normal((6, 2))}
        protos = {0: rng.standard_normal((3, 2)), 1: rng.standard_normal((4, 2))}
        expected_terms = []
        for c in (0, 1):
            f, p = feats[c], protos[c]
            dm = np.array([[np.linalg.norm(fi - pj) for pj in p] for fi in f])
            t1 = dm.min(axis=1).mean()
            t2 = dm.min(axis=0).mean()
            t3 = dm.min(axis=0).max()
            expected_terms.append(t1 + t2 + t3)
        assert simplification_loss_and_grad(feats, protos)[0] == pytest.approx(np.mean(expected_terms), abs=1e-12)

    def test_mismatched_class_sets(self):
        with pytest.raises(ArgumentError):
            simplification_loss_and_grad({0: np.ones((2, 2))}, {0: np.ones((1, 2)), 1: np.ones((1, 2))})

    def test_finite_difference(self):
        rng = make_rng(8)
        feats = {0: rng.standard_normal((5, 2)), 1: rng.standard_normal((4, 2))}
        p0, p1 = rng.standard_normal((3, 2)), rng.standard_normal((3, 2))

        def loss_of(vec):
            protos = {0: vec[:6].reshape(3, 2), 1: vec[6:].reshape(3, 2)}
            return simplification_loss_and_grad(feats, protos)[0]

        vec = np.concatenate([p0.ravel(), p1.ravel()])
        _, grads = simplification_loss_and_grad(feats, {0: p0, 1: p1})
        analytic = np.concatenate([grads[0].ravel(), grads[1].ravel()])
        h = 1e-6
        for i in range(vec.size):
            step = np.zeros_like(vec)
            step[i] = h
            numeric = (loss_of(vec + step) - loss_of(vec - step)) / (2 * h)
            assert analytic[i] == pytest.approx(numeric, abs=1e-4)


class TestTotalLoss:
    def test_zero(self):
        assert total_loss(0.0, 0.0).total == 0.0

    def test_weighted_sum(self):
        report = total_loss(1.0, 2.0, lam=0.5)
        assert report.total == pytest.approx(2.0)
        assert report.total == report.margin + report.lam * report.simplification

    def test_lambda_zero_disables_simplification(self):
        assert total_loss(3.0, 100.0, lam=0.0).total == pytest.approx(3.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ArgumentError):
            total_loss(float("nan"), 0.0)
