"""Diagnostics reported by the benchmark harness.

Mean IoU over classes, and over a batch for both ``trainer.evaluate``
and the FPS sweep; the three feature-dispersion quantities (same-class
episode-center spread, cross-class center distance, point spread around
an instance center); normalized attention entropy and attention-map
diversity. The report also carries the mean query/key distance inside
the attention head, which ``trainer.evaluate`` reads off the forward trace.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, UndefinedMetricError


def miou(pred, truth, class_set) -> tuple[float, dict[int, float]]:
    """Mean intersection-over-union over the classes present.

    A class absent from both prediction and truth is excluded; if that
    empties the class set the metric is undefined. The counts come from
    one confusion matrix over the sorted distinct classes: tp on its
    diagonal, fp and fn off it, in its columns and rows.
    """
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ArgumentError(f"pred and truth must be equal-length vectors, got {pred.shape} vs {truth.shape}")
    classes = sorted(int(c) for c in class_set)
    distinct = np.unique(np.array(classes, dtype=np.int64))
    k = distinct.size
    labels = np.concatenate([truth, pred])
    # each label's position among the classes; a label outside them meets
    # another class there, or the last one when clipped past the end
    pos = np.searchsorted(distinct, labels)
    if labels.size and (k == 0 or not np.array_equal(distinct.take(pos, mode="clip"), labels)):
        outside = np.unique(labels)
        raise ArgumentError(f"labels {list(outside[~np.isin(outside, distinct)])} outside class_set {classes}")
    n = truth.size
    confusion = np.bincount(pos[:n] * k + pos[n:], minlength=k * k).reshape(k, k)
    tp = confusion.diagonal()
    # tp + fp + fn: predicted as c (column) plus truly c (row), minus the overlap
    denom = confusion.sum(axis=0) + confusion.sum(axis=1) - tp
    per_class = {c: t / u for c, t, u in zip(distinct.tolist(), tp.tolist(), denom.tolist()) if u > 0}
    if not per_class:
        raise UndefinedMetricError("no class present in either prediction or truth")
    return float(np.mean(list(per_class.values()))), per_class


def mean_iou(episode_ious) -> tuple[float, dict[int, float]]:
    """Batch mIoU and per-class IoU from each episode's ``miou`` result.

    The mIoU is the mean of the episode scores. Each class's IoU is the
    mean over only the episodes that have that class, keys sorted.
    """
    scores, by_class = [], {}
    for score, per_class in episode_ious:
        scores.append(score)
        for c, value in per_class.items():
            by_class.setdefault(c, []).append(value)
    return float(np.mean(scores)), {c: float(np.mean(v)) for c, v in sorted(by_class.items())}


@dataclass(frozen=True)
class FgSummary:
    """Foreground summary of one episode way: class id, support-feature
    mean, and the mean point distance to that mean."""

    class_id: int
    mean: np.ndarray
    instance_dispersion: float


def fg_summaries(pooled: dict[int, np.ndarray], class_ids: Sequence[int]) -> list[FgSummary]:
    """One summary per foreground way of an episode, from its support
    features pooled per class over the shots (``pooled_support_by_class``:
    way w is class w + 1) and its ``class_ids``."""
    out = []
    for way, class_id in enumerate(class_ids):
        feats = pooled[way + 1]
        mu = feats.mean(axis=0)
        disp = float(np.mean(np.linalg.norm(feats - mu, axis=1)))
        out.append(FgSummary(class_id, mu, disp))
    return out


def dispersion_metrics(summaries: list[FgSummary]) -> dict[str, float | None]:
    """Pairwise center distances split by class equality, plus the mean
    within-instance point spread, as the ``MetricsReport`` fields d_intra,
    d_inter (None without a same-class or cross-class pair) and d_instance."""
    if not summaries:
        raise ArgumentError("need at least one foreground summary")
    means = np.array([s.mean for s in summaries], dtype=np.float64)
    class_ids = np.array([s.class_id for s in summaries])
    intra, inter = [np.empty(0)], [np.empty(0)]
    # one row of pairs (i, j > i) at a time keeps memory at O(N * D); the
    # stacked 1xD @ Dx1 products round like np.linalg.norm's dot, which
    # einsum and elementwise sums do not
    for i in range(len(summaries) - 1):
        diffs = means[i] - means[i + 1 :]
        dists = np.sqrt((diffs[:, None, :] @ diffs[:, :, None])[:, 0, 0])
        same = class_ids[i + 1 :] == class_ids[i]
        intra.append(dists[same])
        inter.append(dists[~same])
    intra, inter = np.concatenate(intra), np.concatenate(inter)
    return {
        "d_intra": float(np.mean(intra)) if intra.size else None,
        "d_inter": float(np.mean(inter)) if inter.size else None,
        "d_instance": float(np.mean([s.instance_dispersion for s in summaries])),
    }


def attention_entropy(weights) -> float:
    """Mean over rows of the normalized entropy -sum(p ln p) / ln L.

    Rows must be probability vectors. A single-column map has no
    uniformity to measure; by convention it scores 1.0.
    """
    a = _check_prob_rows(weights)
    n_cols = a.shape[1]
    if n_cols == 1:
        return 1.0
    terms = np.where(a > 0, a * np.log(np.where(a > 0, a, 1.0)), 0.0)
    return float(np.mean(-terms.sum(axis=1) / np.log(n_cols)))


def attention_diversity(weights) -> float:
    """One minus the mean pairwise cosine similarity of attention rows."""
    a = _check_prob_rows(weights)
    m = a.shape[0]
    if m < 2:
        raise UndefinedMetricError("diversity needs at least two attention rows")
    norms = np.linalg.norm(a, axis=1)
    cos = (a @ a.T) / np.outer(norms, norms)
    upper = cos[np.triu_indices(m, k=1)]
    return float(1.0 - upper.mean())


def _check_prob_rows(weights) -> np.ndarray:
    a = np.asarray(weights, dtype=np.float64)
    if a.ndim != 2 or a.size == 0:
        raise ArgumentError(f"attention weights must be a nonempty 2-D array, got shape {a.shape}")
    if a.min() < -1e-12 or np.max(np.abs(a.sum(axis=1) - 1.0)) > 1e-6:
        raise ArgumentError("attention rows must be probability vectors")
    return np.clip(a, 0.0, None)


@dataclass
class MetricsReport:
    """One experiment's aggregate diagnostics; attention fields stay None
    for methods without an attention head."""

    miou: float
    per_class_iou: dict[int, float]
    d_intra: float | None = None
    d_inter: float | None = None
    d_instance: float | None = None
    attn_entropy: float | None = None
    attn_diversity: float | None = None
    qk_dist: float | None = None
