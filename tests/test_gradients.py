"""Backward passes checked against central differences and closed forms."""

import numpy as np
import pytest

from warmproto import ablation_forward, derive_rng, init_params, shot_support, warm_backward
from warmproto.errors import ArgumentError
from warmproto.losses import (
    margin_loss,
    margin_loss_grad,
    point_distances,
    simplification_loss_and_grad,
)
from warmproto.warm import PARAM_NAMES, WarmParams

from .gradcheck import grad_check


def pack(params):
    return np.concatenate([getattr(params, name).ravel() for name in PARAM_NAMES])


def unpack(vec, template):
    out, off = {}, 0
    for name in PARAM_NAMES:
        shape = getattr(template, name).shape
        size = int(np.prod(shape))
        out[name] = vec[off : off + size].reshape(shape)
        off += size
    return WarmParams(**out)


def total_objective(params, feats, query, truth, variant, lam=0.5):
    result = ablation_forward(params, shot_support(feats), variant)
    protos = result.prototypes
    field = point_distances(query, protos)
    m = margin_loss(field, truth)
    s, s_grads = simplification_loss_and_grad(feats, protos)
    _, m_grads = margin_loss_grad(query, protos, field, truth)
    grad_by_class = {c: m_grads[c] + lam * s_grads[c] for c in m_grads}
    grads = warm_backward(params, result, grad_by_class)
    return m + lam * s, np.concatenate([grads[name].ravel() for name in PARAM_NAMES])


class TestWarmBackward:
    def _instance(self, seed=42, d=4, l=6, m=3):
        rng = derive_rng(seed)
        feats = {
            1: rng.standard_normal((l, d)) * 2 + 1.0,
            0: rng.standard_normal((l, d)) * 1.5 - 2.0,
        }
        query = rng.standard_normal((4, d))
        truth = np.array([1, 0, 1, 0])
        params = init_params(d, m, derive_rng(seed + 1))
        return params, feats, query, truth

    def test_zero_loss_gradient_gives_zero_param_gradients(self):
        params, feats, _, _ = self._instance()
        result = ablation_forward(params, shot_support(feats), "warm")
        zeros = {c: np.zeros_like(p) for c, p in result.prototypes.items()}
        grads = warm_backward(params, result, zeros)
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(grads[name], np.zeros_like(getattr(params, name)))

    def test_uniform_attention_value_gradient_closed_form(self):
        # with w_q = w_k = 0 the attention is uniform; on the raw-feature
        # path the value-projection gradient is mean(keys)^T (sum of the
        # upstream token gradients)
        rng = derive_rng(7)
        d, l, m = 3, 5, 2
        keys = rng.standard_normal((l, d)) + 2.0
        feats = {1: keys, 0: rng.standard_normal((l, d))}
        tokens = rng.standard_normal((2 * m, d))
        params = WarmParams(tokens, np.zeros((d, d)), np.zeros((d, d)), rng.standard_normal((d, d)))
        result = ablation_forward(params, shot_support(feats), "naive")
        g = rng.standard_normal((m, d))
        grads = warm_backward(params, result, {1: g})
        expected = np.outer(keys.mean(axis=0), g.sum(axis=0))
        np.testing.assert_allclose(grads["w_v"], expected, atol=1e-12)

    def test_uniform_attention_whitened_value_gradient_vanishes(self):
        # whitened keys have exactly zero column means, so the same
        # closed form collapses to zero through the coloring map
        rng = derive_rng(8)
        d, l, m = 3, 7, 2
        feats = {1: rng.standard_normal((l, d)) * 2, 0: rng.standard_normal((l, d))}
        tokens = rng.standard_normal((2 * m, d))
        params = WarmParams(tokens, np.zeros((d, d)), np.zeros((d, d)), rng.standard_normal((d, d)))
        result = ablation_forward(params, shot_support(feats), "warm")
        grads = warm_backward(params, result, {1: rng.standard_normal((m, d))})
        np.testing.assert_allclose(grads["w_v"], np.zeros((d, d)), atol=1e-9)

    @pytest.mark.parametrize(
        "variant",
        ["warm", "naive", "center", "normalize", "whiten", "center+restore", "normalize+restore"],
    )
    def test_finite_difference_all_variants(self, variant):
        params, feats, query, truth = self._instance()
        x0 = pack(params)
        _, analytic = total_objective(params, feats, query, truth, variant)

        def f(vec):
            return total_objective(unpack(vec, params), feats, query, truth, variant)[0]

        assert grad_check(f, x0, analytic, h=1e-5) < 1e-3

    def test_finite_difference_multiple_instances(self):
        for seed in (1, 2, 3):
            params, feats, query, truth = self._instance(seed=seed)
            x0 = pack(params)
            _, analytic = total_objective(params, feats, query, truth, "warm")

            def f(vec):
                return total_objective(unpack(vec, params), feats, query, truth, "warm")[0]

            assert grad_check(f, x0, analytic, h=1e-5) < 1e-3

    def test_missing_trace_class(self):
        params, feats, _, _ = self._instance()
        result = ablation_forward(params, shot_support(feats), "warm")
        with pytest.raises(ArgumentError):
            warm_backward(params, result, {5: np.zeros((3, 4))})

    def test_gradient_shape_mismatch(self):
        params, feats, _, _ = self._instance()
        result = ablation_forward(params, shot_support(feats), "warm")
        with pytest.raises(ArgumentError):
            warm_backward(params, result, {1: np.zeros((2, 2))})
