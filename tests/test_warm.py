"""Whitening statistics, attention, forward variants, checkpoints."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warmproto import (
    WarmParams,
    ablation_forward,
    average_shots,
    color,
    compute_stats,
    derive_rng,
    half_powers,
    init_params,
    load_checkpoint,
    save_checkpoint,
    shot_support,
    softmax_rows,
    sym_eig,
    whiten,
)
from warmproto import linalg
from warmproto.errors import (
    ArgumentError,
    CheckpointError,
    EmptyClassError,
    InsufficientPointsError,
    NumericError,
)
from warmproto.warm import PARAM_NAMES, resolve_variant


def full_rank_features(rng, n, d, scale=1.0):
    return scale * rng.standard_normal((n, d)) + rng.standard_normal(d)


def make_white(rng, n, d):
    """Features with exactly zero mean and identity sample covariance."""
    f = rng.standard_normal((n, d))
    return whiten(f, compute_stats(f, eps=1e-12))


def attend_by_definition(queries, keys, params):
    """softmax(Wq(queries) Wk(keys)^T) Wv(keys), recomputed independently
    of the forward pass."""
    logits = (queries @ params.w_q) @ (keys @ params.w_k).T
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True) @ (keys @ params.w_v)


def attend(queries, keys, params):
    """The forward pass's attention of ``queries`` (as the foreground
    token pool) over raw ``keys``: the trace of the naive variant."""
    pooled = WarmParams(np.vstack([queries, queries]), params.w_q, params.w_k, params.w_v)
    return ablation_forward(pooled, shot_support({1: keys}), "naive").per_class[1]


class TestComputeStats:
    def test_means(self):
        stats = compute_stats(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_allclose(stats.mean, [2.0, 3.0])

    def test_hand_covariance(self):
        # rows (1,0),(-1,0),(0,1),(0,-1): mean 0, cov = diag(2/3, 2/3) with divisor 3
        f = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        stats = compute_stats(f)
        np.testing.assert_allclose(stats.mean, [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(stats.cov, np.diag([2.0 / 3.0, 2.0 / 3.0]), atol=1e-15)

    def test_constant_rows_hit_clamp(self):
        stats = compute_stats(np.ones((5, 3)), eps=1e-4)
        np.testing.assert_allclose(stats.cov, np.zeros((3, 3)), atol=1e-15)
        np.testing.assert_allclose(stats.inv_sqrt, 100.0 * np.eye(3), atol=1e-9)

    def test_inv_sqrt_inverts_clamped_cov(self):
        rng = derive_rng(0)
        f = full_rank_features(rng, 40, 6)
        stats = compute_stats(f)
        np.testing.assert_allclose(stats.inv_sqrt @ stats.cov @ stats.inv_sqrt, np.eye(6), atol=1e-6)
        np.testing.assert_allclose(stats.sqrt @ stats.inv_sqrt, np.eye(6), atol=1e-6)

    def test_rejects_single_row(self):
        with pytest.raises(InsufficientPointsError):
            compute_stats(np.ones((1, 3)))

    def test_scale_clamps_a_constant_channel(self):
        f = derive_rng(8).standard_normal((6, 3))
        f[:, 1] = 2.5  # zero variance: the clamp acts on this channel only
        stats = compute_stats(f)
        expected = np.sqrt(np.maximum(np.diagonal(stats.cov), 1e-4))
        assert stats.cov[1, 1] == 0.0 and stats.scale[1] == 0.01
        np.testing.assert_array_equal(stats.scale, expected)

    def test_one_eigendecomposition_for_both_roots(self, monkeypatch):
        calls = []

        def counted(m):
            calls.append(m)
            return sym_eig(m)

        monkeypatch.setattr(linalg, "sym_eig", counted)
        stats = compute_stats(derive_rng(9).standard_normal((20, 5)))
        assert len(calls) == 1
        inv_sqrt, sqrt = half_powers(stats.cov, 1e-4)
        np.testing.assert_array_equal(stats.inv_sqrt, inv_sqrt)
        np.testing.assert_array_equal(stats.sqrt, sqrt)


class TestWhitenColor:
    def test_hand_case_scales_by_sqrt_1p5(self):
        f = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        stats = compute_stats(f)
        z = whiten(f, stats)
        np.testing.assert_allclose(z, np.sqrt(1.5) * f, atol=1e-12)
        np.testing.assert_allclose(z.T @ z / 3, np.eye(2), atol=1e-12)

    def test_already_white_is_fixed_point(self):
        rng = derive_rng(1)
        f = make_white(rng, 50, 4)
        stats = compute_stats(f)
        np.testing.assert_allclose(whiten(f, stats), f, atol=1e-8)

    def test_whitening_identity_random_inputs(self):
        rng = derive_rng(2)
        for _ in range(20):
            f = full_rank_features(rng, 64, 16, scale=float(rng.uniform(0.5, 20)))
            stats = compute_stats(f)
            z = whiten(f, stats)
            np.testing.assert_allclose(z.mean(axis=0), np.zeros(16), atol=1e-8)
            gram = z.T @ z / (64 - 1)
            assert np.linalg.norm(gram - np.eye(16)) < 1e-4

    def test_round_trip(self):
        rng = derive_rng(3)
        f = full_rank_features(rng, 30, 8, scale=5.0)
        stats = compute_stats(f)
        assert np.max(np.abs(color(whiten(f, stats), stats) - f)) < 1e-6

    def test_identity_stats_are_identity_map(self):
        rng = derive_rng(4)
        f = make_white(rng, 40, 5)
        stats = compute_stats(f)
        tokens = rng.standard_normal((7, 5))
        np.testing.assert_allclose(color(tokens, stats), tokens, atol=1e-8)

    def test_zero_tokens_color_to_mean(self):
        rng = derive_rng(5)
        f = full_rank_features(rng, 20, 4)
        stats = compute_stats(f)
        out = color(np.zeros((3, 4)), stats)
        np.testing.assert_allclose(out, np.broadcast_to(stats.mean, (3, 4)), atol=1e-12)

    def test_dimension_mismatch(self):
        stats = compute_stats(np.random.default_rng(0).standard_normal((10, 3)))
        with pytest.raises(ArgumentError):
            whiten(np.zeros((4, 2)), stats)
        with pytest.raises(ArgumentError):
            color(np.zeros((4, 2)), stats)


class TestCrossAttention:
    """Single-head attention of a token pool over its class's keys."""

    def test_singleton_key(self):
        rng = derive_rng(6)
        params = init_params(4, 1, rng)
        out = attend(params.tokens[params.token_rows(1)], np.ones((1, 4)), params)
        np.testing.assert_allclose(out.weights, [[1.0]])
        np.testing.assert_allclose(out.attended, np.ones((1, 4)) @ params.w_v, atol=1e-12)

    def test_zero_projections_give_uniform_rows(self):
        rng = derive_rng(7)
        keys = rng.standard_normal((6, 4))
        params = WarmParams(np.zeros((2, 4)), np.zeros((4, 4)), np.zeros((4, 4)), rng.standard_normal((4, 4)))
        out = attend(np.zeros((1, 4)), keys, params)
        np.testing.assert_allclose(out.weights, np.full((1, 6), 1.0 / 6.0), atol=1e-15)
        np.testing.assert_allclose(out.attended, (keys @ params.w_v).mean(axis=0, keepdims=True), atol=1e-12)

    def test_matches_hand_composition(self):
        rng = derive_rng(8)
        params = init_params(4, 3, rng)
        tokens = rng.standard_normal((3, 4))
        keys = rng.standard_normal((6, 4))
        out = attend(tokens, keys, params)
        # independent recomputation from the definition
        logits = (tokens @ params.w_q) @ (keys @ params.w_k).T
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        a = e / e.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(out.weights, a, atol=1e-12)
        np.testing.assert_allclose(out.attended, a @ (keys @ params.w_v), atol=1e-12)

    def test_rows_are_probabilities(self):
        rng = derive_rng(9)
        params = init_params(5, 4, rng)
        out = attend(rng.standard_normal((4, 5)), rng.standard_normal((9, 5)) * 10, params)
        np.testing.assert_allclose(out.weights.sum(axis=1), np.ones(4), atol=1e-12)
        assert np.all(out.weights >= 0)

    def test_empty_keys(self):
        rng = derive_rng(10)
        params = init_params(3, 2, rng)
        with pytest.raises(EmptyClassError):
            attend(params.tokens[params.token_rows(1)], np.zeros((0, 3)), params)


class TestForwardVariants:
    def _feats(self, rng, d=4, n=8):
        return {
            1: full_rank_features(rng, n, d, scale=2.0),
            0: full_rank_features(rng, n + 3, d, scale=3.0),
        }

    def test_white_data_collapse(self):
        rng = derive_rng(12)
        feats = {1: make_white(rng, 24, 4), 0: make_white(rng, 30, 4)}
        params = init_params(4, 3, rng)
        w = ablation_forward(params, shot_support(feats), "warm")
        n = ablation_forward(params, shot_support(feats), "naive")
        for label in (0, 1):
            np.testing.assert_allclose(
                w.prototypes[label], n.prototypes[label], atol=1e-10
            )

    def test_zero_projections_isolate_coloring(self):
        rng = derive_rng(13)
        feats = self._feats(rng)
        tokens = rng.standard_normal((6, 4)) * 0.1
        params = WarmParams(tokens, np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((4, 4)))
        res = ablation_forward(params, shot_support(feats), "warm")
        for label in (0, 1):
            stats = compute_stats(feats[label], 1e-4)
            pool = tokens[:3] if label == 1 else tokens[3:]
            np.testing.assert_allclose(
                res.prototypes[label], pool @ stats.sqrt + stats.mean, atol=1e-12
            )

    def test_matches_stagewise_composition(self):
        rng = derive_rng(14)
        feats = {1: full_rank_features(rng, 6, 4), 0: full_rank_features(rng, 6, 4)}
        params = init_params(4, 3, rng)
        res = ablation_forward(params, shot_support(feats), "warm")
        for label in (0, 1):
            stats = compute_stats(feats[label], 1e-4)
            z = whiten(feats[label], stats)
            pool = params.tokens[params.token_rows(label)]
            attended = attend_by_definition(pool, z, params)
            expected = color(pool + attended, stats)
            np.testing.assert_allclose(res.prototypes[label], expected, atol=1e-10)

    def test_naive_single_key_broadcast(self):
        rng = derive_rng(15)
        params = init_params(4, 3, rng)
        key = rng.standard_normal((1, 4))
        support = shot_support({1: key, 0: rng.standard_normal((2, 4))})
        res = ablation_forward(params, support, "naive")
        expected = params.tokens[params.token_rows(1)] + key @ params.w_v
        np.testing.assert_allclose(res.prototypes[1], expected, atol=1e-12)

    def test_naive_zero_value_projection(self):
        rng = derive_rng(16)
        tokens = rng.standard_normal((4, 3))
        params = WarmParams(tokens, rng.standard_normal((3, 3)), rng.standard_normal((3, 3)), np.zeros((3, 3)))
        support = shot_support({1: rng.standard_normal((5, 3)), 0: rng.standard_normal((5, 3))})
        res = ablation_forward(params, support, "naive")
        np.testing.assert_allclose(res.prototypes[1], tokens[:2], atol=1e-12)
        np.testing.assert_allclose(res.prototypes[0], tokens[2:], atol=1e-12)

    def test_whiten_restore_equals_warm(self):
        rng = derive_rng(17)
        feats = self._feats(rng)
        params = init_params(4, 3, rng)
        a = ablation_forward(params, shot_support(feats), "whiten+restore")
        w = ablation_forward(params, shot_support(feats), "warm")
        for label in (0, 1):
            np.testing.assert_array_equal(a.prototypes[label], w.prototypes[label])

    def test_center_on_zero_mean_data_equals_naive(self):
        rng = derive_rng(18)
        feats = {}
        for label, n in ((1, 10), (0, 12)):
            f = rng.standard_normal((n, 4))
            feats[label] = f - f.mean(axis=0)
        params = init_params(4, 3, rng)
        a = ablation_forward(params, shot_support(feats), "center")
        n_ = ablation_forward(params, shot_support(feats), "naive")
        for label in (0, 1):
            np.testing.assert_allclose(
                a.prototypes[label], n_.prototypes[label], atol=1e-10
            )

    def test_normalize_equals_whiten_on_diagonal_covariance(self):
        rng = derive_rng(19)
        # rows (+-a, 0), (0, +-b): sample covariance exactly diagonal
        feats = {}
        for label, (a, b) in ((1, (2.0, 0.5)), (0, (1.0, 3.0))):
            feats[label] = np.array([[a, 0.0], [-a, 0.0], [0.0, b], [0.0, -b]])
        params = init_params(2, 3, rng)
        for suffix in ("", "+restore"):
            support = shot_support(feats)
            out_n = ablation_forward(params, support, "normalize" + suffix)
            out_w = ablation_forward(params, support, "whiten" + suffix)
            for label in (0, 1):
                np.testing.assert_allclose(
                    out_n.prototypes[label],
                    out_w.prototypes[label],
                    atol=1e-10,
                )

    def test_normalize_reads_the_clamped_scale(self):
        # reference: normalize's per-channel map taken from the covariance,
        # on a class whose constant channel is clamped
        rng = derive_rng(24)
        feats = self._feats(rng)
        feats[1][:, 2] = -1.5
        params = init_params(4, 3, rng)
        for restore in (False, True):
            res = ablation_forward(params, shot_support(feats), "normalize+restore" if restore else "normalize")
            for label in (0, 1):
                stats = compute_stats(feats[label])
                sigma = np.sqrt(np.maximum(np.diagonal(stats.cov), 1e-4))
                keys = (feats[label] - stats.mean) / sigma
                tokens = params.tokens[params.token_rows(label)]
                weights = softmax_rows((tokens @ params.w_q) @ (keys @ params.w_k).T)
                out = tokens + weights @ (keys @ params.w_v)
                if restore:
                    out = out @ np.diag(sigma) + stats.mean
                np.testing.assert_array_equal(res.per_class[label].keys_in, keys)
                np.testing.assert_array_equal(res.prototypes[label], out)

    def test_restore_off_skips_inverse_map(self):
        rng = derive_rng(20)
        feats = self._feats(rng)
        params = init_params(4, 3, rng)
        res = ablation_forward(params, shot_support(feats), "whiten")
        for label in (0, 1):
            stats = compute_stats(feats[label], 1e-4)
            z = whiten(feats[label], stats)
            pool = params.tokens[params.token_rows(label)]
            attended = attend_by_definition(pool, z, params)
            np.testing.assert_allclose(res.prototypes[label], pool + attended, atol=1e-10)

    def test_determinism(self):
        rng = derive_rng(21)
        feats = self._feats(rng)
        params = init_params(4, 3, derive_rng(5))
        a = ablation_forward(params, shot_support(feats), "warm")
        b = ablation_forward(params, shot_support(feats), "warm")
        for label in (0, 1):
            np.testing.assert_array_equal(a.prototypes[label], b.prototypes[label])

    def test_empty_class_propagates(self):
        rng = derive_rng(22)
        params = init_params(4, 3, rng)
        with pytest.raises(EmptyClassError):
            support = shot_support({1: np.zeros((0, 4)), 0: rng.standard_normal((5, 4))})
            ablation_forward(params, support, "warm")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ArgumentError):
            resolve_variant("whitening")
        with pytest.raises(ArgumentError):
            ablation_forward(init_params(2, 1, derive_rng(23)), shot_support({1: np.ones((3, 2))}), "whitening")

    # the variants that read the statistics of one support
    @pytest.mark.parametrize("prepared", [["center", "normalize+restore"], ["whiten", "warm"]])
    def test_non_finite_stats_fail_in_the_forward_that_reads_them(self, prepared):
        # rows near 1e200 overflow the covariance; "naive" reads no statistics
        feats = {1: np.array([[1e200, 0.0], [-1e200, 1.0], [0.0, 2.0]]), 0: np.eye(2)}
        params = init_params(2, 3, derive_rng(27))
        with np.errstate(over="ignore", invalid="ignore"):
            support = shot_support(feats)
        ablation_forward(params, support, "naive")
        for variant in prepared:
            with pytest.raises(NumericError, match="non-finite"):
                ablation_forward(params, support, variant)

    def test_too_few_points_fail_in_the_forward_that_reads_them(self):
        # one foreground point has no covariance; "naive" reads no statistics
        rng = derive_rng(28)
        support = shot_support({1: rng.standard_normal((1, 4)), 0: rng.standard_normal((6, 4))})
        params = init_params(4, 3, derive_rng(29))
        ablation_forward(params, support, "naive")
        for variant in ("center", "normalize", "warm"):
            with pytest.raises(InsufficientPointsError, match="need at least 2 points for covariance, got 1"):
                ablation_forward(params, support, variant)

    def test_support_holds_whole_stats(self):
        feats = self._feats(derive_rng(26))
        support = shot_support(feats)
        assert sorted(support.stats) == [0, 1]
        for label, stats in support.stats.items():
            ref = compute_stats(feats[label], 1e-4)
            for name in ("mean", "cov", "inv_sqrt", "sqrt"):
                np.testing.assert_array_equal(getattr(stats, name), getattr(ref, name))


class TestAverageShots:
    def test_single_set_identity(self):
        s = {0: np.ones((2, 3))}
        np.testing.assert_array_equal(average_shots([s])[0], s[0])

    def test_identical_sets(self):
        s = {0: np.full((2, 2), 3.0)}
        np.testing.assert_array_equal(average_shots([s, s])[0], s[0])

    def test_cancellation(self):
        a, b = {0: np.full((2, 2), 2.0)}, {0: np.full((2, 2), -2.0)}
        np.testing.assert_array_equal(average_shots([a, b])[0], np.zeros((2, 2)))

    def test_mismatched_classes(self):
        with pytest.raises(ArgumentError):
            average_shots([{0: np.ones((1, 1))}, {1: np.ones((1, 1))}])

    def test_mismatched_shapes(self):
        with pytest.raises(ArgumentError):
            average_shots([{0: np.ones((1, 2))}, {0: np.ones((2, 2))}])


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = init_params(6, 4, derive_rng(30))
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, seed=9, config_hash="abc")
        loaded, meta = load_checkpoint(path)
        for name in ("tokens", "w_q", "w_k", "w_v"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(params, name))
        assert meta["seed"] == 9 and meta["config_sha256"] == "abc"

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("name", PARAM_NAMES)
    def test_missing_field(self, tmp_path, name):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, init_params(3, 2, derive_rng(31)), seed=0)
        payload = json.loads(path.read_text())
        del payload[name]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=f"missing fields \\['{name}'\\]"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("feature_dim", "3"),
            ("feature_dim", 3.9),
            ("feature_dim", True),
            ("num_tokens", "2"),
            ("version", True),
            ("version", 1.0),
            ("seed", "x"),
            ("seed", -5),
            ("seed", 2**64),
        ],
    )
    def test_header_fields_are_integers(self, tmp_path, key, value):
        # a header value that is not a JSON integer, or a seed outside [0, 2^64 - 1], is malformed
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, init_params(3, 2, derive_rng(31)), seed=0)
        payload = json.loads(path.read_text())
        payload[key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=f"field '{key}' must "):
            load_checkpoint(path)

    def test_inconsistent_header(self, tmp_path):
        params = init_params(3, 2, derive_rng(31))
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, seed=0)
        payload = json.loads(path.read_text())
        payload["feature_dim"] = 5
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 24), st.integers(2, 6))
def test_whiten_gram_property(seed, n, d):
    rng = derive_rng(seed)
    f = rng.standard_normal((max(n, d + 2), d)) * 3.0
    stats = compute_stats(f)
    z = whiten(f, stats)
    gram = z.T @ z / (f.shape[0] - 1)
    assert np.linalg.norm(gram - np.eye(d)) < 1e-4
    assert np.max(np.abs(color(z, stats) - f)) < 1e-6
