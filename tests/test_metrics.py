"""Mean IoU, dispersion, attention entropy/diversity, query-key distance."""

import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warmproto import (
    WarmParams,
    attention_diversity,
    attention_entropy,
    derive_rng,
    dispersion_metrics,
    ablation_forward,
    mean_iou,
    miou,
    pairwise_distances,
    shot_support,
)
from warmproto.cli import main
from warmproto.errors import ArgumentError, UndefinedMetricError
from warmproto.metrics import FgSummary


class TestMiou:
    def test_perfect(self):
        score, per_class = miou([1, 0, 1], [1, 0, 1], {0, 1})
        assert score == 1.0
        assert per_class == {0: 1.0, 1: 1.0}

    def test_disjoint(self):
        score, _ = miou([1, 1], [0, 0], {0, 1})
        assert score == 0.0

    def test_hand_counted(self):
        # pred [1,1,0,0] vs truth [1,0,1,0]: IoU_1 = 1/3, IoU_0 = 1/3
        score, per_class = miou([1, 1, 0, 0], [1, 0, 1, 0], {0, 1})
        assert per_class[0] == pytest.approx(1 / 3)
        assert per_class[1] == pytest.approx(1 / 3)
        assert score == pytest.approx(1 / 3)

    def test_absent_class_excluded(self):
        score, per_class = miou([0, 0], [0, 0], {0, 1, 2})
        assert per_class == {0: 1.0}
        assert score == 1.0

    def test_point_order_invariance(self):
        rng = derive_rng(0)
        pred = rng.integers(0, 3, 50)
        truth = rng.integers(0, 3, 50)
        perm = rng.permutation(50)
        a, _ = miou(pred, truth, {0, 1, 2})
        b, _ = miou(pred[perm], truth[perm], {0, 1, 2})
        assert a == pytest.approx(b, abs=1e-15)

    def test_simultaneous_relabeling_invariance(self):
        rng = derive_rng(1)
        pred = rng.integers(0, 3, 40)
        truth = rng.integers(0, 3, 40)
        remap = np.array([2, 0, 1])
        a, _ = miou(pred, truth, {0, 1, 2})
        b, _ = miou(remap[pred], remap[truth], {0, 1, 2})
        assert a == pytest.approx(b, abs=1e-15)

    def test_labels_outside_class_set(self):
        with pytest.raises(ArgumentError):
            miou([5], [0], {0, 1})

    def test_empty_class_set_undefined(self):
        with pytest.raises(UndefinedMetricError):
            miou(np.empty(0, dtype=int), np.empty(0, dtype=int), {0, 1})


def miou_per_class_loop(pred, truth, class_set):
    """Reference: three mask passes per class and an np.unique label check."""
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ArgumentError(f"pred and truth must be equal-length vectors, got {pred.shape} vs {truth.shape}")
    classes = sorted(int(c) for c in class_set)
    seen = set(np.unique(pred)) | set(np.unique(truth))
    if not seen <= set(classes):
        raise ArgumentError(f"labels {sorted(seen - set(classes))} outside class_set {classes}")
    per_class = {}
    for c in classes:
        tp = int(np.sum((pred == c) & (truth == c)))
        fp = int(np.sum((pred == c) & (truth != c)))
        fn = int(np.sum((pred != c) & (truth == c)))
        denom = tp + fp + fn
        if denom > 0:
            per_class[c] = tp / denom
    if not per_class:
        raise UndefinedMetricError("no class present in either prediction or truth")
    return float(np.mean(list(per_class.values()))), per_class


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the type and message must match too
        return type(exc), str(exc)


def assert_same_as_loop(pred, truth, class_set):
    got, want = outcome(miou, pred, truth, class_set), outcome(miou_per_class_loop, pred, truth, class_set)
    if want[0] != "ok":
        assert got == want
        return
    assert got[0] == "ok"
    (score, per_class), (ref_score, ref_per_class) = got[1], want[1]
    assert score == ref_score
    assert list(per_class.items()) == list(ref_per_class.items())
    assert all(type(c) is int and type(v) is float for c, v in per_class.items())


@st.composite
def labelings(draw):
    """A class set (contiguous, non-contiguous, with repeats, negative or
    empty) and equal-length labelings drawn mostly from it, sometimes with
    labels outside it."""
    class_set = draw(
        st.one_of(
            st.integers(0, 6).map(range),
            st.lists(st.integers(-3, 12), max_size=6),
            st.sampled_from([[0, 2, 5], [-2, 0, 1], [7], []]),
        )
    )
    pool = sorted(set(class_set)) or [0]
    label = st.one_of(st.sampled_from(pool), st.integers(-4, 14)) if draw(st.booleans()) else st.sampled_from(pool)
    n = draw(st.integers(0, 60))
    pred = draw(st.lists(label, min_size=n, max_size=n))
    truth = draw(st.lists(label, min_size=n, max_size=n))
    return np.array(pred, dtype=np.int64), np.array(truth, dtype=np.int64), class_set


class TestMiouConfusionCounts:
    """``miou`` counts from one confusion matrix; the per-class mask loop
    it replaced gives the same floats, keys, order and errors."""

    @settings(max_examples=400, deadline=None)
    @given(labelings())
    def test_equals_per_class_loop(self, case):
        assert_same_as_loop(*case)

    @pytest.mark.parametrize(
        "pred, truth, class_set",
        [
            ([0, 2, 5, 5], [5, 2, 0, 0], {0, 2, 5}),  # non-contiguous
            ([0, 0], [0, 0], {0, 1, 2}),  # absent classes
            ([], [], {0, 1}),  # empty inputs
            ([], [], set()),  # empty class set
            ([1, -1], [0, 1], {0, 1}),  # negative label
            ([1, 7, -2], [0, 7, 1], {0, 1}),  # labels on both sides of the set
            ([1, 3], [0, 1], {0, 2, 5}),  # inside the range, outside the set
            ([0], [0], set()),  # no class at all
            ([0, 1], [0], {0, 1}),  # unequal lengths
        ],
    )
    def test_edge_cases_equal_per_class_loop(self, pred, truth, class_set):
        assert_same_as_loop(np.array(pred, dtype=np.int64), np.array(truth, dtype=np.int64), class_set)

    def test_random_predictions_at_episode_size(self):
        rng = derive_rng(5)
        for _ in range(200):
            k = int(rng.integers(2, 6))
            assert_same_as_loop(rng.integers(0, k, 512), rng.integers(0, k, 512), range(k))


class TestMeanIou:
    def test_class_mean_over_only_the_episodes_that_have_it(self):
        # class 2 is missing from episode 1 and class 0 from episode 2
        episodes = [
            (0.5, {2: 0.75, 0: 0.25}),
            (0.25, {1: 0.5, 0: 0.0}),
            (1.0, {2: 0.5, 1: 1.0}),
        ]
        score, per_class = mean_iou(episodes)
        assert score == float(np.mean([0.5, 0.25, 1.0]))
        assert per_class == {0: 0.125, 1: 0.75, 2: 0.625}
        assert list(per_class) == [0, 1, 2]

    def test_equals_per_episode_miou_loop(self):
        rng = derive_rng(6)
        results = []
        for _ in range(30):
            k = int(rng.integers(2, 5))
            classes = rng.choice(6, size=k, replace=False)
            results.append(miou(rng.choice(classes, 40), rng.choice(classes, 40), classes.tolist()))
        score, per_class = mean_iou(iter(results))
        assert score == float(np.mean([r[0] for r in results]))
        for c, value in per_class.items():
            assert value == float(np.mean([r[1][c] for r in results if c in r[1]]))
        assert list(per_class) == sorted({c for r in results for c in r[1]})


class TestDispersion:
    def test_identical_means_zero_intra(self):
        mu = np.ones(3)
        rep = dispersion_metrics([FgSummary(4, mu, 1.0), FgSummary(4, mu.copy(), 2.0)])
        assert rep["d_intra"] == 0.0
        assert rep["d_inter"] is None
        assert rep["d_instance"] == pytest.approx(1.5)

    def test_three_four_five_inter(self):
        rep = dispersion_metrics(
            [FgSummary(1, np.array([0.0, 0.0]), 0.0), FgSummary(2, np.array([3.0, 4.0]), 0.0)]
        )
        assert rep["d_inter"] == pytest.approx(5.0)
        assert rep["d_intra"] is None

    def test_zero_instance_dispersion(self):
        rep = dispersion_metrics([FgSummary(1, np.zeros(2), 0.0)])
        assert rep["d_instance"] == 0.0

    def test_rotation_invariance(self):
        rng = derive_rng(2)
        mus = [rng.standard_normal(4) for _ in range(6)]
        ids = [1, 1, 2, 2, 3, 3]
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        plain = dispersion_metrics([FgSummary(i, m, 1.0) for i, m in zip(ids, mus)])
        rotated = dispersion_metrics([FgSummary(i, q @ m, 1.0) for i, m in zip(ids, mus)])
        assert plain["d_intra"] == pytest.approx(rotated["d_intra"], abs=1e-10)
        assert plain["d_inter"] == pytest.approx(rotated["d_inter"], abs=1e-10)


    def test_matches_pairwise_norm_loop_exactly(self):
        # reference: the plain pair loop over np.linalg.norm, same pair order
        rng = derive_rng(3)
        for n, d, scale in ((1, 3, 1.0), (2, 8, 1e-3), (40, 32, 10.0), (75, 33, 1e3)):
            summaries = [FgSummary(int(rng.integers(4)), scale * rng.standard_normal(d), 1.0) for _ in range(n)]
            intra, inter = [], []
            for i in range(n):
                for j in range(i + 1, n):
                    dist = float(np.linalg.norm(summaries[i].mean - summaries[j].mean))
                    same = summaries[i].class_id == summaries[j].class_id
                    (intra if same else inter).append(dist)
            rep = dispersion_metrics(summaries)
            assert rep["d_intra"] == (float(np.mean(intra)) if intra else None)
            assert rep["d_inter"] == (float(np.mean(inter)) if inter else None)


class TestAttentionEntropy:
    def test_uniform_row(self):
        assert attention_entropy(np.full((1, 8), 1 / 8)) == pytest.approx(1.0)

    def test_one_hot_row(self):
        row = np.zeros((1, 5))
        row[0, 2] = 1.0
        assert attention_entropy(row) == pytest.approx(0.0)

    def test_half_half(self):
        # (1/2, 1/2, 0, 0) over 4 columns: ln 2 / ln 4 = 0.5
        assert attention_entropy(np.array([[0.5, 0.5, 0.0, 0.0]])) == pytest.approx(0.5)

    @pytest.mark.filterwarnings("error")
    def test_single_column_convention(self):
        assert attention_entropy(np.ones((3, 1))) == 1.0

    def test_column_permutation_invariance(self):
        rng = derive_rng(3)
        a = rng.dirichlet(np.ones(6), size=4)
        perm = rng.permutation(6)
        assert attention_entropy(a) == pytest.approx(attention_entropy(a[:, perm]), abs=1e-12)

    def test_bounds(self):
        rng = derive_rng(4)
        a = rng.dirichlet(np.ones(10) * 0.3, size=20)
        assert 0.0 <= attention_entropy(a) <= 1.0

    def test_rejects_non_probability_rows(self):
        with pytest.raises(ArgumentError):
            attention_entropy(np.array([[0.7, 0.7]]))


class TestAttentionDiversity:
    def test_identical_rows(self):
        a = np.full((3, 4), 0.25)
        assert attention_diversity(a) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_one_hots(self):
        assert attention_diversity(np.eye(4)) == pytest.approx(1.0)

    def test_hand_cosine(self):
        # rows (1,0) and (1/2,1/2): cosine = 1/sqrt(2)
        a = np.array([[1.0, 0.0], [0.5, 0.5]])
        assert attention_diversity(a) == pytest.approx(1 - 1 / np.sqrt(2), abs=1e-12)

    def test_single_row_undefined(self):
        with pytest.raises(UndefinedMetricError):
            attention_diversity(np.array([[1.0, 0.0]]))

    def test_bounds(self):
        rng = derive_rng(5)
        a = rng.dirichlet(np.ones(8), size=10)
        assert 0.0 <= attention_diversity(a) <= 1.0


class TestQkDistance:
    """``evaluate``'s qk_dist: the mean over (token, key) pairs of the
    projected Euclidean distance, from the forward trace."""

    def _identity_params(self, d, m=1):
        return WarmParams(np.zeros((2 * m, d)), np.eye(d), np.eye(d), np.eye(d))

    def _qk(self, tokens, keys, params):
        pooled = WarmParams(np.vstack([tokens, tokens]), params.w_q, params.w_k, params.w_v)
        trace = ablation_forward(pooled, shot_support({1: keys}), "naive").per_class[1]
        return float(pairwise_distances(trace.q, trace.k).mean())

    def test_equal_projections_zero(self):
        rng = derive_rng(6)
        row = rng.standard_normal((1, 3))
        tokens = np.repeat(row, 4, axis=0)
        keys = np.repeat(row, 6, axis=0)
        assert self._qk(tokens, keys, self._identity_params(3)) == pytest.approx(0.0, abs=1e-6)

    def test_mean_of_two_keys(self):
        params = self._identity_params(1)
        tokens = np.array([[0.0]])
        keys = np.array([[3.0], [5.0]])
        assert self._qk(tokens, keys, params) == pytest.approx(4.0)

    def test_empty_inputs(self):
        with pytest.raises(ArgumentError):
            self._qk(np.zeros((1, 2)), np.zeros((0, 2)), self._identity_params(2))


class TestMetricsCsv:
    def test_fixed_column_order_and_blanks(self, tmp_path):
        # one row: miou, per-class iou, then the diagnostics; None is a blank cell
        config = {
            "method": "fps-min-dist",
            "generator": {"feature_dim": 8, "points_per_cloud": 128, "min_fg_points": 16},
            "eval_episodes": 3,
        }
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "eval"
        assert main(["eval", "--config", str(config_path), "--out", str(out)]) == 0
        with (out / "metrics.csv").open() as fh:
            lines = list(csv.reader(fh))
        assert lines[0] == [
            "miou", "iou_0", "iou_1", "d_intra", "d_inter", "d_instance",
            "attn_entropy", "attn_diversity", "qk_dist",
        ]
        assert len(lines) == 2
        cells = lines[1]
        assert 0.0 <= float(cells[0]) <= 1.0
        assert cells[-3:] == ["", "", ""]  # the baseline has no attention head
