"""Distance field, prediction, margin and simplification objectives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warmproto import GeneratorConfig, TrainConfig, derive_rng, margin_loss, point_distances, predict, train
from warmproto.errors import ArgumentError, EmptyClassError, NumericError
from warmproto.losses import (
    DistanceField,
    _pos_neg,
    margin_loss_grad,
    scatter_rows,
    simplification_loss_and_grad,
)
from warmproto.trainer import episode_loss, make_eval_episodes
from warmproto.warm import episode_support

DESK = GeneratorConfig(feature_dim=8, points_per_cloud=128, min_fg_points=16)


def small_ints(rng, shape):
    """Integer-valued float rows: every distance is the square root of an
    exact integer, so equal distances are equal bits at any BLAS setting."""
    return rng.integers(-4, 5, size=shape).astype(np.float64)


class TestPointDistances:
    def test_zero_distance_at_prototype(self):
        protos = {0: np.array([[1.0, 2.0], [5.0, 5.0]]), 1: np.array([[9.0, 9.0]])}
        field = point_distances(np.array([[1.0, 2.0]]), protos)
        assert field.distances[0, 0] == pytest.approx(0.0, abs=1e-6)

    def test_three_four_five(self):
        field = point_distances(np.array([[3.0, 4.0]]), {0: np.array([[0.0, 0.0]])})
        assert field.distances[0, 0] == pytest.approx(5.0, abs=1e-12)

    def test_matches_brute_force(self):
        rng = derive_rng(0)
        query = rng.standard_normal((5, 3))
        protos = {0: rng.standard_normal((4, 3)), 1: rng.standard_normal((2, 3))}
        field = point_distances(query, protos)
        for ci, label in enumerate(field.class_labels):
            for l in range(5):
                expected = min(np.linalg.norm(query[l] - p) for p in protos[label])
                assert field.distances[ci, l] == pytest.approx(expected, abs=1e-9)

    def test_prototype_permutation_invariant(self):
        rng = derive_rng(1)
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
        rng = derive_rng(2)
        protos = {0: np.array([[0.0, 0.0]]), 1: np.array([[100.0, 100.0]])}
        q0 = rng.standard_normal((30, 2))
        q1 = rng.standard_normal((30, 2)) + 100.0
        field = point_distances(np.vstack([q0, q1]), protos)
        truth = np.array([0] * 30 + [1] * 30)
        np.testing.assert_array_equal(predict(field), truth)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.1, 5.0), st.floats(-3.0, 3.0))
    def test_monotone_transform_invariance(self, seed, scale, power_shift):
        rng = derive_rng(seed)
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
        rng = derive_rng(3)
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
        rng = derive_rng(4)
        query = rng.standard_normal((4, 2))
        protos = {0: query + 0.01, 1: query + 100.0}
        field = point_distances(query, protos)
        _, grads = margin_loss_grad(query, protos, field, np.zeros(4, dtype=int))
        for g in grads.values():
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_finite_difference(self):
        rng = derive_rng(5)
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
        _, grads = margin_loss_grad(query, protos, field, truth)
        analytic = np.concatenate([grads[0].ravel(), grads[1].ravel()])
        h = 1e-6
        for i in range(vec.size):
            step = np.zeros_like(vec)
            step[i] = h
            numeric = (loss_of(vec + step) - loss_of(vec - step)) / (2 * h)
            assert analytic[i] == pytest.approx(numeric, abs=1e-4)


def add_at_rows(idx, rows, count):
    out = np.zeros((count, rows.shape[1]))
    np.add.at(out, idx, rows)
    return out


def add_at_margin_grad(query, protos, field, truth, margin):
    """The margin gradients as two np.add.at calls per class sum them:
    every positive query row, then every negative one."""
    pos_rows, neg_rows, d_pos, d_neg = _pos_neg(field, truth)
    active = (d_pos - d_neg + margin) > 0
    grads = {}
    for i, label in enumerate(field.class_labels):
        p = protos[label]
        g = grads[label] = np.zeros_like(p)
        for rows, dist, sign in ((pos_rows, d_pos, 1.0), (neg_rows, d_neg, -1.0)):
            sel = active & (rows == i) & (dist > 0)
            idx = field.nearest[i, sel]
            np.add.at(g, idx, sign * ((p[idx] - query[sel]) / dist[sel, None]))
    return grads


class TestScatter:
    """``scatter_rows`` is one np.bincount that must sum every slot in
    the order of np.add.at into zeros, byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 300), st.integers(1, 8), st.integers(1, 32))
    def test_equals_add_at(self, seed, n, count, d):
        rng = derive_rng(seed)
        idx = rng.integers(0, count, n)  # repeats whenever n > count, and often below
        # magnitudes over 24 decades, so that a reordered sum shows in the last bits
        rows = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-12, 12, (n, 1))
        got = scatter_rows(idx, rows, count)
        assert got.dtype == np.float64 and got.shape == (count, d)
        assert got.tobytes() == add_at_rows(idx, rows, count).tobytes()

    def test_empty_selection_is_float_zeros(self):
        got = scatter_rows(np.zeros(0, dtype=np.int64), np.zeros((0, 3)), 4)
        assert got.dtype == np.float64
        assert got.tobytes() == np.zeros((4, 3)).tobytes()

    def test_slot_sums_in_row_order(self):
        # (1 + 1e-16) + 1e-16 rounds to 1 twice; 1 + (1e-16 + 1e-16) does not
        idx, rows = np.zeros(3, dtype=np.int64), np.array([[1.0], [1e-16], [1e-16]])
        assert scatter_rows(idx, rows, 1)[0, 0] == 1.0
        assert (scatter_rows(idx[:1], rows[:1], 1) + scatter_rows(idx[1:], rows[1:], 1))[0, 0] > 1.0

    @pytest.mark.parametrize("seed", range(3))
    def test_row_with_positive_and_negative_queries(self, seed):
        # one prototype row per class and a margin that keeps every hinge
        # active: class 0's row is the positive of every truth-0 point and
        # the negative of every truth-1 point
        rng = derive_rng(seed)
        query = rng.standard_normal((300, 32))
        protos = {0: rng.standard_normal((1, 32)), 1: rng.standard_normal((1, 32))}
        truth = rng.integers(0, 2, 300)
        field = point_distances(query, protos)
        pos_rows, neg_rows, _, _ = _pos_neg(field, truth)
        assert np.any(pos_rows == 0) and np.sum(neg_rows == 0) >= 2
        loss, grads = margin_loss_grad(query, protos, field, truth, 50.0)
        ref = add_at_margin_grad(query, protos, field, truth, 50.0)
        for c in protos:
            assert grads[c].tobytes() == ref[c].tobytes()
        # the two groups scattered apart and then added would regroup the sum
        pos, neg = pos_rows == 0, neg_rows == 0
        apart = scatter_rows(field.nearest[0, pos], (protos[0] - query[pos]) / field.distances[0, pos, None], 1)
        apart += scatter_rows(field.nearest[0, neg], -(protos[0] - query[neg]) / field.distances[0, neg, None], 1)
        assert apart.tobytes() != grads[0].tobytes()
        assert loss == margin_loss(field, truth, 50.0)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 8), st.integers(1, 4),
        st.integers(2, 4), st.sampled_from([0.0, 0.5, 50.0]),
    )
    def test_margin_grad_equals_two_add_at_calls(self, seed, n, d, k, classes, margin):
        rng = derive_rng(seed)
        query = rng.standard_normal((n, d))
        protos = {c: rng.standard_normal((k, d)) for c in range(classes)}
        truth = rng.integers(0, classes, n)
        field = point_distances(query, protos)
        loss, grads = margin_loss_grad(query, protos, field, truth, margin)
        ref = add_at_margin_grad(query, protos, field, truth, margin)
        assert sorted(grads) == sorted(ref)
        for c in protos:
            assert grads[c].tobytes() == ref[c].tobytes()
        assert loss == margin_loss(field, truth, margin)

    def test_no_active_hinge_gives_float_zeros(self):
        # every point far closer to its own class: every selection is empty
        rng = derive_rng(9)
        query = rng.standard_normal((5, 3))
        protos = {0: query + 1e-3, 1: query + 100.0}
        loss, grads = margin_loss_grad(query, protos, point_distances(query, protos), np.zeros(5, dtype=int))
        assert loss == 0.0
        for g in grads.values():
            assert g.dtype == np.float64 and g.tobytes() == np.zeros_like(g).tobytes()


class TestSimplificationLoss:
    def test_perfect_cover_is_zero(self):
        rng = derive_rng(6)
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
        rng = derive_rng(7)
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
        rng = derive_rng(8)
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
    """The training objective margin + lam * simplification, as
    ``trainer.episode_loss`` returns it."""

    def test_zero(self):
        # prototypes that are the support rows of well-separated classes
        gen = GeneratorConfig(
            feature_dim=8, points_per_cloud=128, min_fg_points=16,
            inter_class_scale=60.0, intra_class_scale=0.5, instance_spread=0.5, bg_components=1,
        )
        (episode,) = make_eval_episodes(gen, 1, 5)
        support = episode_support(episode)
        margin, sim, total, grads = episode_loss(episode.pooled_support_by_class(), episode.query, support, 0.5, 0.0)
        assert (margin, sim, total) == (0.0, 0.0, 0.0)
        for g in grads.values():
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_weighted_sum(self):
        (episode,) = make_eval_episodes(DESK, 1, 6)
        rng = derive_rng(6)
        protos = {c: rng.standard_normal((3, 8)) for c in episode.pooled_support_by_class()}
        shots = episode_support(episode)
        margin, sim, total, grads = episode_loss(protos, episode.query, shots, 0.5, 0.0)
        _, _, _, margin_grads = episode_loss(protos, episode.query, shots, 0.0, 0.0)
        assert margin > 0 and sim > 0
        assert total == margin + 0.5 * sim
        support = episode.pooled_support_by_class()
        _, sim_grads = simplification_loss_and_grad(support, protos)
        for c in protos:
            np.testing.assert_allclose(grads[c], margin_grads[c] + 0.5 * sim_grads[c], rtol=1e-12, atol=1e-12)

    def test_lambda_zero_disables_simplification(self):
        (episode,) = make_eval_episodes(DESK, 1, 7)
        rng = derive_rng(7)
        protos = {c: rng.standard_normal((3, 8)) for c in episode.pooled_support_by_class()}
        margin, sim, total, grads = episode_loss(protos, episode.query, episode_support(episode), 0.0, 0.0)
        assert sim > 0 and total == margin
        expected = {c: np.zeros_like(p) for c, p in protos.items()}
        for cloud in episode.query:
            field = point_distances(cloud.features, protos)
            for c, g in margin_loss_grad(cloud.features, protos, field, cloud.labels)[1].items():
                expected[c] += g
        for c in protos:
            np.testing.assert_array_equal(grads[c], expected[c])

    def test_rejects_non_finite(self):
        # class centers near 1e200 overflow every squared distance; the
        # train step, not the loss, rejects the non-finite total
        gen = GeneratorConfig(
            feature_dim=8, points_per_cloud=128, min_fg_points=16,
            inter_class_scale=1e200, intra_class_scale=0.0, instance_spread=1.0,
        )
        cfg = TrainConfig(epochs=1, episodes_per_epoch=2, num_tokens=6)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError) as err:
            train(cfg, gen, variant="naive")
        assert "step 0 of variant 'naive'" in str(err.value) and "seed=0" in str(err.value)


class TestTies:
    """Hinge and argmin ties: the hinge propagates only where its argument
    is strictly positive, and the lowest achieving index takes the whole
    subgradient."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(2, 6), st.integers(1, 5))
    def test_exact_hinge_tie_has_zero_gradient(self, seed, n, d, k):
        # class 1 mirrors class 0 in channel 0, and every query point lies on
        # the mirror plane: each point is exactly as far from both classes
        rng = derive_rng(seed)
        query = small_ints(rng, (n, d))
        query[:, 0] = 0.0
        p0 = small_ints(rng, (k, d))
        p1 = p0.copy()
        p1[:, 0] *= -1.0
        protos = {0: p0, 1: p1}
        field = point_distances(query, protos)
        np.testing.assert_array_equal(field.distances[0], field.distances[1])
        truth = rng.integers(0, 2, n)
        assert margin_loss(field, truth) == 0.0
        for g in margin_loss_grad(query, protos, field, truth)[1].values():
            np.testing.assert_array_equal(g, np.zeros_like(g))

    @staticmethod
    def _with_copy(p, i, j):
        """p with a copy of row i inserted at index j > i."""
        return np.insert(p, j, p[i], axis=0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(2, 5), st.integers(1, 5), st.data())
    def test_margin_duplicate_row_lowest_index_takes_all(self, seed, n, d, k, data):
        rng = derive_rng(seed)
        query = small_ints(rng, (n, d))
        protos = {0: small_ints(rng, (k, d)), 1: small_ints(rng, (k, d))}
        truth = rng.integers(0, 2, n)
        margin = float(data.draw(st.integers(0, 3)))
        c = data.draw(st.integers(0, 1))
        i = data.draw(st.integers(0, k - 1))
        j = data.draw(st.integers(i + 1, k))
        dup = dict(protos)
        dup[c] = self._with_copy(protos[c], i, j)
        _, ref = margin_loss_grad(query, protos, point_distances(query, protos), truth, margin)
        _, got = margin_loss_grad(query, dup, point_distances(query, dup), truth, margin)
        np.testing.assert_array_equal(got[c][j], np.zeros(d))
        np.testing.assert_array_equal(np.delete(got[c], j, axis=0), ref[c])
        np.testing.assert_array_equal(got[1 - c], ref[1 - c])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(2, 5), st.integers(1, 5), st.data())
    def test_simplification_duplicate_row_lowest_index_takes_all(self, seed, n, d, k, data):
        # each prototype row keeps its own term of the mean prototype-to-
        # feature distance; the feature-to-nearest-prototype and the
        # worst-covered-prototype terms go to the lower copy only
        rng = derive_rng(seed)
        feats = {0: small_ints(rng, (n, d))}
        p = small_ints(rng, (k, d))
        i = data.draw(st.integers(0, k - 1))
        j = data.draw(st.integers(i + 1, k))

        def own_term(row, count):
            dist = np.sqrt(np.sum((feats[0] - row) ** 2, axis=1))
            nearest = int(np.argmin(dist))
            return (row - feats[0][nearest]) / dist[nearest] / count if dist[nearest] > 0 else np.zeros(d)

        _, ref = simplification_loss_and_grad(feats, {0: p})
        _, got = simplification_loss_and_grad(feats, {0: self._with_copy(p, i, j)})
        np.testing.assert_array_equal(got[0][j], own_term(p[i], k + 1))
        np.testing.assert_allclose(
            got[0][i] - own_term(p[i], k + 1), ref[0][i] - own_term(p[i], k), rtol=1e-12, atol=1e-12
        )
