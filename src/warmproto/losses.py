"""Distance-based inference and the training objective.

Queries are labeled by their nearest prototype. Training combines a
margin term (distance to the true class must not exceed the distance to
the hardest other class) with a simplification term that keeps the
prototypes covering the support features instead of collapsing.

Backward convention for every min/max: the achieving index (lowest index
on ties) receives the full subgradient; the hinge propagates only where
its argument is strictly positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ArgumentError, EmptyClassError
from .linalg import pairwise_distances


def _proto_mapping(mapping: Mapping[int, np.ndarray]) -> dict[int, np.ndarray]:
    if not mapping:
        raise ArgumentError("prototype set is empty")
    out = {}
    for label in sorted(mapping):
        p = np.asarray(mapping[label], dtype=np.float64)
        if p.ndim != 2 or p.shape[0] == 0:
            raise EmptyClassError(f"class {label} has an empty prototype matrix")
        out[int(label)] = p
    dims = {p.shape[1] for p in out.values()}
    if len(dims) != 1:
        raise ArgumentError(f"prototype matrices disagree on D: {sorted(dims)}")
    return out


@dataclass
class DistanceField:
    """Per-class min distance from every query point to the prototypes."""

    class_labels: tuple[int, ...]  # sorted
    distances: np.ndarray  # (C x L)
    nearest: np.ndarray  # (C x L), achieving prototype row per class/point

    def row_of(self, truth: np.ndarray) -> np.ndarray:
        labels = np.asarray(self.class_labels)
        rows = np.searchsorted(labels, truth)
        bad = (rows >= labels.size) | (labels[np.minimum(rows, labels.size - 1)] != truth)
        if np.any(bad):
            missing = sorted(set(np.asarray(truth)[bad].tolist()))
            raise ArgumentError(f"labels {missing} have no prototypes (classes: {list(labels)})")
        return rows


def point_distances(query: np.ndarray, protos: Mapping[int, np.ndarray]) -> DistanceField:
    """d[c, l] = min over prototype rows of the class-c Euclidean distance."""
    query = np.asarray(query, dtype=np.float64)
    mapping = _proto_mapping(protos)
    labels = tuple(mapping)
    dists = np.empty((len(labels), query.shape[0]))
    nearest = np.empty((len(labels), query.shape[0]), dtype=np.int64)
    for i, label in enumerate(labels):
        dm = pairwise_distances(query, mapping[label])
        nearest[i] = np.argmin(dm, axis=1)
        dists[i] = dm[np.arange(query.shape[0]), nearest[i]]
    return DistanceField(labels, dists, nearest)


def predict(field: DistanceField) -> np.ndarray:
    """Class of the minimal distance per point; ties go to the lower class id."""
    rows = np.argmin(field.distances, axis=0)
    return np.asarray(field.class_labels, dtype=np.int64)[rows]


def _pos_neg(field: DistanceField, truth: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    if len(field.class_labels) < 2:
        raise ArgumentError("margin needs at least two classes")
    truth = np.asarray(truth, dtype=np.int64)
    if truth.shape != (field.distances.shape[1],):
        raise ArgumentError("truth length does not match the distance field")
    pos_rows = field.row_of(truth)
    cols = np.arange(truth.size)
    d_pos = field.distances[pos_rows, cols]
    masked = field.distances.copy()
    masked[pos_rows, cols] = np.inf
    neg_rows = np.argmin(masked, axis=0)
    d_neg = masked[neg_rows, cols]
    return pos_rows, neg_rows, d_pos, d_neg


def margin_loss(field: DistanceField, truth, margin: float = 0.0) -> float:
    """Sum over points of max(d_pos - d_neg + margin, 0)."""
    _, _, d_pos, d_neg = _pos_neg(field, truth)
    return float(np.sum(np.maximum(d_pos - d_neg + margin, 0.0)))


def margin_loss_grad(
    query: np.ndarray, protos: Mapping[int, np.ndarray], field: DistanceField, truth, margin: float = 0.0
) -> tuple[float, dict[int, np.ndarray]]:
    """``margin_loss`` and its gradient with respect to each class's
    prototypes; ``field`` is ``point_distances(query, protos)``, which
    checked them."""
    pos_rows, neg_rows, d_pos, d_neg = _pos_neg(field, truth)
    hinge = d_pos - d_neg + margin
    active = hinge > 0
    grads = {}
    for i, label in enumerate(field.class_labels):
        p = protos[label]
        pos = active & (pos_rows == i) & (d_pos > 0)
        neg = active & (neg_rows == i) & (d_neg > 0)
        idx_pos, idx_neg = field.nearest[i, pos], field.nearest[i, neg]
        pull = (p[idx_pos] - query[pos]) / d_pos[pos, None]
        push = (p[idx_neg] - query[neg]) / d_neg[neg, None]
        # the positive rows, then the negative ones: each slot sums them as two unbuffered adds would
        grads[label] = scatter_rows(np.concatenate([idx_pos, idx_neg]), np.concatenate([pull, -push]), p.shape[0])
    return float(np.sum(np.maximum(hinge, 0.0))), grads


def scatter_rows(idx: np.ndarray, rows: np.ndarray, count: int) -> np.ndarray:
    """A (count x D) matrix whose row r sums the ``rows`` with ``idx`` r.

    One ``np.bincount`` over (row, column) slots, which adds each slot's
    values in row order from 0.0: the doubles of an unbuffered in-place
    add of the rows into zeros, as ``ufunc.at`` does it.
    """
    d = rows.shape[1]
    slots = (np.asarray(idx, dtype=np.int64)[:, None] * d + np.arange(d)).ravel()
    sums = np.bincount(slots, weights=rows.ravel(), minlength=count * d)
    # with no slots at all, bincount returns integer zeros
    return sums.astype(np.float64, copy=False).reshape(count, d)


def _check_sim_inputs(features_by_class: Mapping[int, np.ndarray], mapping: dict[int, np.ndarray]):
    feat_keys = {int(k) for k in features_by_class}
    if feat_keys != set(mapping):
        raise ArgumentError(
            f"feature classes {sorted(feat_keys)} do not match prototype classes {sorted(mapping)}"
        )
    feats = {}
    for label in mapping:
        f = np.asarray(features_by_class[label], dtype=np.float64)
        if f.ndim != 2 or f.shape[0] == 0:
            raise EmptyClassError(f"class {label} has no feature rows")
        feats[label] = f
    return feats


def simplification_loss_and_grad(
    features_by_class: Mapping[int, np.ndarray], protos: Mapping[int, np.ndarray]
) -> tuple[float, dict[int, np.ndarray]]:
    """Coverage loss and its prototype gradients in one pass.

    Per class: mean feature-to-nearest-prototype distance, mean
    prototype-to-nearest-feature distance, and the worst-covered
    prototype's distance (max over prototypes of the min distance), then
    averaged over classes. Zero exactly when prototype rows and feature
    rows coincide as sets.
    """
    mapping = _proto_mapping(protos)
    feats = _check_sim_inputs(features_by_class, mapping)
    inv_classes = 1.0 / len(mapping)
    values, grads = [], {}
    for label in mapping:
        f, p = feats[label], mapping[label]
        n_feat, n_proto = f.shape[0], p.shape[0]
        dm = pairwise_distances(f, p)
        # feature -> nearest prototype
        arg_p = np.argmin(dm, axis=1)
        d1 = dm[np.arange(n_feat), arg_p]
        nz = d1 > 0
        g = scatter_rows(arg_p[nz], (p[arg_p[nz]] - f[nz]) / d1[nz, None] / n_feat, n_proto)
        # prototype -> nearest feature
        arg_f = np.argmin(dm, axis=0)
        d2 = dm[arg_f, np.arange(n_proto)]
        nz = d2 > 0
        if np.any(nz):
            g[nz] += (p[nz] - f[arg_f[nz]]) / d2[nz, None] / n_proto
        # worst-covered prototype
        worst = int(np.argmax(d2))
        if d2[worst] > 0:
            g[worst] += (p[worst] - f[arg_f[worst]]) / d2[worst]
        values.append(d1.mean() + d2.mean() + d2.max())
        grads[label] = g * inv_classes
    return float(np.mean(values)), grads
