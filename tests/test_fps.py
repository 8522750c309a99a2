"""Farthest point sampling against an exhaustive oracle, plus the baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warmproto import (
    GeneratorConfig,
    derive_rng,
    farthest_point_sampling,
    gen_episode,
    miou,
    point_distances,
    predict,
)
from warmproto.episodes import Episode
from warmproto.errors import ArgumentError, EmptyClassError
from warmproto.fps import evaluate_fps, fps_prototypes, fps_seed_sweep
from warmproto.metrics import dispersion_metrics, fg_summaries
from warmproto.trainer import make_eval_episodes


class FixedStart:
    """Stand-in rng whose only draw is the start index."""

    def __init__(self, start):
        self.start = start

    def integers(self, n):
        assert self.start < n
        return self.start


def fps_oracle(features, count, start):
    """Independent reimplementation: exhaustive argmax of min-distance."""
    chosen = [start]
    for _ in range(1, count):
        best_idx, best_val = None, -1.0
        for i in range(len(features)):
            if i in chosen:
                continue
            val = min(float(np.linalg.norm(features[i] - features[j])) for j in chosen)
            if val > best_val:
                best_idx, best_val = i, val
        chosen.append(best_idx)
    return chosen


class TestFarthestPointSampling:
    def test_one_dimensional_hand_case(self):
        feats = np.array([[0.0], [1.0], [10.0]])
        res = farthest_point_sampling(feats, 2, FixedStart(0))
        np.testing.assert_array_equal(res, [0, 2])
        np.testing.assert_array_equal(feats[res], [[0.0], [10.0]])

    def test_exhaustion_is_permutation(self):
        rng = derive_rng(1)
        feats = rng.standard_normal((9, 3))
        res = farthest_point_sampling(feats, 9, rng)
        assert sorted(res.tolist()) == list(range(9))

    def test_matches_oracle_every_step(self):
        rng = derive_rng(2)
        for trial in range(200):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(1, 4))
            feats = rng.standard_normal((n, d)) * float(rng.uniform(0.5, 5.0))
            for start in range(n):
                res = farthest_point_sampling(feats, n, FixedStart(start))
                assert res.tolist() == fps_oracle(feats, n, start)

    def test_indices_distinct_with_duplicate_points(self):
        feats = np.zeros((5, 2))
        res = farthest_point_sampling(feats, 5, FixedStart(3))
        assert sorted(res.tolist()) == list(range(5))

    def test_deterministic_given_seed(self):
        feats = derive_rng(3).standard_normal((50, 4))
        a = farthest_point_sampling(feats, 10, derive_rng(77))
        b = farthest_point_sampling(feats, 10, derive_rng(77))
        np.testing.assert_array_equal(a, b)

    def test_permutation_equivariance(self):
        rng = derive_rng(4)
        feats = rng.standard_normal((12, 3))
        perm = rng.permutation(12)
        res = farthest_point_sampling(feats, 5, FixedStart(7))
        res_p = farthest_point_sampling(feats[perm], 5, FixedStart(int(np.flatnonzero(perm == 7)[0])))
        set_a = sorted(map(tuple, feats[res]))
        set_b = sorted(map(tuple, feats[perm][res_p]))
        assert set_a == set_b

    def test_rejects_count_out_of_range(self):
        feats = np.zeros((3, 2))
        with pytest.raises(ArgumentError):
            farthest_point_sampling(feats, 4, FixedStart(0))
        with pytest.raises(ArgumentError):
            farthest_point_sampling(feats, 0, FixedStart(0))


def fps_norm_rows(features, count, rng):
    """Reference: one np.linalg.norm row per pick, the last one included."""
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    start = int(rng.integers(n))
    indices = np.empty(count, dtype=np.int64)
    indices[0] = start
    selected = np.zeros(n, dtype=bool)
    selected[start] = True
    min_dist = np.linalg.norm(features - features[start], axis=1)
    for t in range(1, count):
        candidate_dist = np.where(selected, -np.inf, min_dist)
        nxt = int(np.argmax(candidate_dist))
        indices[t] = nxt
        selected[nxt] = True
        np.minimum(min_dist, np.linalg.norm(features - features[nxt], axis=1), out=min_dist)
    return indices, features[indices].copy()


class TestFpsMatchesNormRows:
    """At episode sizes the direct rows pick what the norm rows picked."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 800),
        count=st.integers(1, 16),
        duplicates=st.integers(0, 400),
        scale=st.sampled_from([1e-3, 1.0, 30.0]),
    )
    def test_indices_and_subset_equal(self, seed, n, count, duplicates, scale):
        rng = derive_rng(seed)
        feats = rng.standard_normal((n, 32)) * scale
        # copied rows tie in distance, so the smallest-index rule decides
        feats[rng.integers(n, size=duplicates)] = feats[rng.integers(n, size=duplicates)]
        count = min(count, n)
        res = farthest_point_sampling(feats, count, derive_rng(seed + 1))
        indices, subset = fps_norm_rows(feats, count, derive_rng(seed + 1))
        np.testing.assert_array_equal(res, indices)
        np.testing.assert_array_equal(feats[res], subset)

    def test_few_distinct_rows_force_ties(self):
        rng = derive_rng(9)
        base = rng.standard_normal((5, 32))
        feats = base[rng.integers(5, size=700)]
        for start in range(0, 700, 50):
            res = farthest_point_sampling(feats, 16 if start % 100 else 5, FixedStart(start))
            indices, subset = fps_norm_rows(feats, res.size, FixedStart(start))
            np.testing.assert_array_equal(res, indices)
            np.testing.assert_array_equal(feats[res], subset)


class TestMinDistClassify:
    """The baseline's labeling: class of the nearest prototype row."""

    def test_zero_distance_wins(self):
        protos = {0: np.array([[5.0, 5.0]]), 1: np.array([[1.0, 2.0]])}
        labels = predict(point_distances(np.array([[1.0, 2.0]]), protos))
        assert labels.tolist() == [1]

    def test_nearest_of_two(self):
        protos = {0: np.array([[0.0]]), 1: np.array([[10.0]])}
        labels = predict(point_distances(np.array([[1.0]]), protos))
        assert labels.tolist() == [0]

    def test_prototype_row_order_irrelevant(self):
        rng = derive_rng(5)
        query = rng.standard_normal((20, 3))
        p = rng.standard_normal((6, 3))
        protos_a = {0: p, 1: rng.standard_normal((4, 3))}
        protos_b = {0: p[::-1].copy(), 1: protos_a[1]}
        np.testing.assert_array_equal(
            predict(point_distances(query, protos_a)), predict(point_distances(query, protos_b))
        )

    def test_empty_prototypes_raise(self):
        with pytest.raises(EmptyClassError):
            predict(point_distances(np.zeros((2, 2)), {0: np.zeros((0, 2)), 1: np.zeros((1, 2))}))

    def test_beats_chance_on_generated_episodes(self):
        cfg = GeneratorConfig(feature_dim=8, points_per_cloud=128, min_fg_points=16)
        episodes = make_eval_episodes(cfg, 20, 99)
        correct = total = 0
        for i, ep in enumerate(episodes):
            protos = fps_prototypes(ep.pooled_support_by_class(), 16, derive_rng(1000 + i))
            for q in ep.query:
                pred = predict(point_distances(q.features, protos))
                correct += int(np.sum(pred == q.labels))
                total += q.labels.size
        assert correct / total > 1.0 / (cfg.n_way + 1)


class TestFpsSeedSweep:
    def _identical_episode(self):
        # all points per class identical: FPS output is irrelevant
        cfg = GeneratorConfig(
            feature_dim=8, points_per_cloud=128, min_fg_points=16,
            intra_class_scale=0.0, instance_spread=0.0,
        )
        return [gen_episode(cfg, derive_rng(s)) for s in range(3)]

    def test_degenerate_points_zero_spread(self):
        res = fps_seed_sweep(self._identical_episode(), 8, range(5))
        assert res.best == res.worst
        assert res.stdev == 0.0

    def test_exhaustive_subset_zero_spread(self):
        cfg = GeneratorConfig(feature_dim=4, points_per_cloud=128, min_fg_points=16)
        episodes = [gen_episode(cfg, derive_rng(s)) for s in range(2)]
        res = fps_seed_sweep(episodes, 10_000, range(4))  # capped at L_c: full subsets
        assert res.best == res.worst

    def test_single_seed_summary(self):
        res = fps_seed_sweep(self._identical_episode(), 4, [0])
        assert res.best == res.worst == res.mean == res.reports[0].miou

    def test_spread_positive_on_default_benchmark(self):
        cfg = GeneratorConfig()
        episodes = make_eval_episodes(cfg, 12, 500)
        res = fps_seed_sweep(episodes, 8, range(12))
        assert res.best - res.worst > 0

    def test_rejects_empty_seed_list(self):
        with pytest.raises(ArgumentError):
            fps_seed_sweep(self._identical_episode(), 4, [])

    def test_rows_equal_per_seed_evaluate_fps(self):
        # episode-major sweep against one seed-major evaluation per row;
        # duplicate and unsorted seeds keep one row each, in order
        cfg = GeneratorConfig(feature_dim=8, points_per_cloud=256, min_fg_points=16, n_way=3, k_shot=2)
        episodes = make_eval_episodes(cfg, 4, 31)
        seeds = [3, 0, 3]
        res = fps_seed_sweep(episodes, 5, seeds)
        assert res.seeds == seeds
        # independent batch dispersion: one summary per way of each episode's pooled support
        dispersion = dispersion_metrics(
            [s for ep in episodes for s in fg_summaries(ep.pooled_support_by_class(), ep.class_ids)]
        )
        for seed, row in zip(res.seeds, res.reports):
            report = evaluate_fps(episodes, 5, seed)
            assert row.miou == report.miou
            assert row.per_class_iou == report.per_class_iou
            assert {name: getattr(row, name) for name in ("d_intra", "d_inter", "d_instance")} == dispersion
            # independent seed-major reference; 300 is the sweep's stream key
            scores = []
            for i, ep in enumerate(episodes):
                protos = fps_prototypes(ep.pooled_support_by_class(), 5, derive_rng(seed, 300, i))
                preds = np.concatenate([predict(point_distances(q.features, protos)) for q in ep.query])
                truth = np.concatenate([q.labels for q in ep.query])
                scores.append(miou(preds, truth, range(cfg.n_way + 1))[0])
            assert row.miou == float(np.mean(scores))
        assert res.reports[0] == res.reports[2]

    def test_evaluate_fps_splits_each_episode_once(self, monkeypatch):
        # the seed's scores and the dispersion summaries share one split per episode
        cfg = GeneratorConfig(feature_dim=8, points_per_cloud=256, min_fg_points=16, n_way=3, k_shot=2)
        episodes = list(make_eval_episodes(cfg, 10, 31))
        expected = evaluate_fps(episodes, 5, 4)
        real, calls = Episode.pooled_support_by_class, []

        def counting(episode):
            calls.append(episode)
            return real(episode)

        monkeypatch.setattr(Episode, "pooled_support_by_class", counting)
        assert evaluate_fps(episodes, 5, 4) == expected
        assert [id(e) for e in calls] == [id(e) for e in episodes]
