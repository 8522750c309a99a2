"""Farthest point sampling in feature space and the distance baseline.

The baseline builds per-class prototype sets by FPS over pooled support
features and labels query points by nearest prototype. Its only source
of randomness is the FPS start point, which is exactly what the seed
sweep varies. Both scoring calls read their batch through
``trainer.score_batch``, as ``trainer.evaluate`` does.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from itertools import chain

import numpy as np

from .episodes import Episode
from .errors import ArgumentError
from .losses import point_distances, predict
from .metrics import FgSummary, MetricsReport, dispersion_metrics, fg_summaries, mean_iou, miou
from .rng import derive_rng
from .trainer import score_batch

_FPS_STREAM = 300


def farthest_point_sampling(features, count: int, rng) -> np.ndarray:
    """Indices (T,) of a greedy max-min subset of the feature rows, in
    selection order.

    The first index is drawn uniformly from rng; every later index
    maximizes the minimum Euclidean distance to the rows already chosen,
    ties broken by the smallest index. Already-selected rows are excluded,
    so the indices are always distinct.

    Each pick reads the distance rows of the points chosen before it, so
    the last pick's row is never computed. A row is the expression
    ``np.linalg.norm(features - features[k], axis=1)`` evaluates, without
    its argument handling, and has the same bits.
    """
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    if not 1 <= count <= n:
        raise ArgumentError(f"count must satisfy 1 <= count <= {n}, got {count}")
    start = int(rng.integers(n))
    indices = np.empty(count, dtype=np.int64)
    indices[0] = start
    selected = np.zeros(n, dtype=bool)
    selected[start] = True
    min_dist = None
    for t in range(1, count):
        d = features - features[indices[t - 1]]
        d *= d
        row = np.sqrt(np.add.reduce(d, axis=1))
        min_dist = row if min_dist is None else np.minimum(min_dist, row, out=min_dist)
        nxt = int(np.argmax(np.where(selected, -np.inf, min_dist)))
        indices[t] = nxt
        selected[nxt] = True
    return indices


def fps_prototypes(support: dict[int, np.ndarray], count: int, rng) -> dict[int, np.ndarray]:
    """Per-class FPS subsets of an episode's pooled support features
    (``Episode.pooled_support_by_class``).

    Classes with fewer than ``count`` rows contribute all their rows.
    Classes are processed in sorted order, consuming one start draw each.
    """
    return {
        label: feats[farthest_point_sampling(feats, min(count, feats.shape[0]), rng)]
        for label, feats in sorted(support.items())
    }


def _episode_scores(count: int, seeds: list[int], i: int, episode: Episode) -> tuple[list, list[FgSummary]]:
    """Episode i's ``miou`` result per entry of ``seeds``, and its
    foreground summaries (``fg_summaries``).

    The support is split once, shared by all seeds and the summaries.
    Seed s uses the independent stream (s, i), so the episode is the same
    for every seed while the FPS starts vary.
    """
    support = episode.pooled_support_by_class()
    fg = fg_summaries(support, episode.class_ids)
    # free the split before scoring: peak memory then holds the split or a distance field, not both
    protos_by_seed = [fps_prototypes(support, count, derive_rng(seed, _FPS_STREAM, i)) for seed in seeds]
    del support
    truths = np.concatenate([q.labels for q in episode.query])
    ious = []
    for protos in protos_by_seed:
        preds = np.concatenate([predict(point_distances(q.features, protos)) for q in episode.query])
        ious.append(miou(preds, truths, range(episode.n_way + 1)))
    return ious, fg


def evaluate_fps(episodes: Sequence[Episode], count: int, seed: int, workers: int = 1) -> MetricsReport:
    """Run the baseline over an episode batch with one sweep seed, plus
    the dispersion metrics of the batch, in one pass over it on at most
    ``workers`` forked workers (``trainer.score_batch``)."""
    ious, summaries = zip(*score_batch(episodes, partial(_episode_scores, count, [int(seed)]), workers))
    return MetricsReport(*mean_iou(iou for (iou,) in ious), **dispersion_metrics(list(chain.from_iterable(summaries))))


@dataclass
class SweepResult:
    seeds: list[int]
    reports: list[MetricsReport]  # one per seed, without dispersion fields
    best: float
    worst: float
    mean: float
    stdev: float


def fps_seed_sweep(episodes: Sequence[Episode], count: int, seeds, workers: int = 1) -> SweepResult:
    """Evaluate the baseline once per seed on identical episodes, in one
    pass on at most ``workers`` forked workers (``trainer.score_batch``).

    Only the FPS starts change between seeds; the summary reports the
    order statistics of the per-seed mean IoU (population stdev).
    Duplicate or unsorted seeds give one row each, in the order given.
    """
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ArgumentError("seed sweep needs at least one seed")
    per_episode = score_batch(episodes, lambda i, episode: _episode_scores(count, seeds, i, episode)[0], workers)
    reports = [MetricsReport(*mean_iou(seed_ious)) for seed_ious in zip(*per_episode)]
    scores = np.array([r.miou for r in reports])
    return SweepResult(
        seeds=seeds,
        reports=reports,
        best=float(scores.max()),
        worst=float(scores.min()),
        mean=float(scores.mean()),
        stdev=float(scores.std()),
    )
