"""Farthest point sampling in feature space and the distance baseline.

The baseline builds per-class prototype sets by FPS over pooled support
features and labels query points by nearest prototype. Its only source
of randomness is the FPS start point, which is exactly what the seed
sweep varies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .episodes import Episode
from .errors import ArgumentError
from .files import write_csv
from .losses import point_distances, predict
from .metrics import MetricsReport, dispersion_metrics, fg_summaries, miou
from .rng import derive_rng

_FPS_STREAM = 300


@dataclass
class FpsResult:
    indices: np.ndarray  # (T,) distinct row indices, selection order
    subset: np.ndarray  # (T x D) rows of the input at those indices


def farthest_point_sampling(features, count: int, rng) -> FpsResult:
    """Greedy max-min subset of the feature rows.

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
    return FpsResult(indices=indices, subset=features[indices])


def fps_prototypes(support: dict[int, np.ndarray], count: int, rng) -> dict[int, np.ndarray]:
    """Per-class FPS subsets of an episode's pooled support features
    (``Episode.pooled_support_by_class``).

    Classes with fewer than ``count`` rows contribute all their rows.
    Classes are processed in sorted order, consuming one start draw each.
    """
    return {
        label: farthest_point_sampling(feats, min(count, feats.shape[0]), rng).subset
        for label, feats in sorted(support.items())
    }


@dataclass
class SweepRow:
    seed: int
    mean_miou: float
    per_class_iou: dict[int, float]


def _sweep_rows(episodes: list[Episode], count: int, seeds: list[int]) -> list[SweepRow]:
    """Per-seed scores over an episode batch, one row per entry of ``seeds``.

    Episode-major: each episode's support is split once and shared by all
    seeds. Episode i of seed s uses the independent stream (s, i), so the
    batch is identical across seeds while the FPS starts vary, and the
    loop order does not change a bit.
    """
    per_episode = [[] for _ in seeds]
    per_class_acc = [{} for _ in seeds]
    for i, episode in enumerate(episodes):
        support = episode.pooled_support_by_class()
        # free the split before scoring: peak memory then holds the split or a distance field, not both
        protos_by_seed = [fps_prototypes(support, count, derive_rng(seed, _FPS_STREAM, i)) for seed in seeds]
        del support
        truths = np.concatenate([q.labels for q in episode.query])
        for pos, protos in enumerate(protos_by_seed):
            preds = np.concatenate([predict(point_distances(q.features, protos)) for q in episode.query])
            score, per_class = miou(preds, truths, range(episode.n_way + 1))
            per_episode[pos].append(score)
            for c, v in per_class.items():
                per_class_acc[pos].setdefault(c, []).append(v)
    return [
        SweepRow(seed, float(np.mean(scores)), {c: float(np.mean(v)) for c, v in sorted(acc.items())})
        for seed, scores, acc in zip(seeds, per_episode, per_class_acc)
    ]


def evaluate_fps(episodes: list[Episode], count: int, seed: int) -> MetricsReport:
    """Run the baseline over an episode batch with one sweep seed, plus
    the dispersion metrics of the batch."""
    (row,) = _sweep_rows(episodes, count, [int(seed)])
    disp = dispersion_metrics([s for episode in episodes for s in fg_summaries(episode)])
    return MetricsReport(
        miou=row.mean_miou,
        per_class_iou=row.per_class_iou,
        d_intra=disp.d_intra,
        d_inter=disp.d_inter,
        d_instance=disp.d_instance,
    )


@dataclass
class SweepResult:
    rows: list[SweepRow]
    best: float
    worst: float
    mean: float
    stdev: float


def fps_seed_sweep(episodes: list[Episode], count: int, seeds) -> SweepResult:
    """Evaluate the baseline once per seed on identical episodes.

    Only the FPS starts change between seeds; the summary reports the
    order statistics of the per-seed mean IoU (population stdev).
    Duplicate or unsorted seeds give one row each, in the order given.
    """
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ArgumentError("seed sweep needs at least one seed")
    rows = _sweep_rows(episodes, count, seeds)
    scores = np.array([r.mean_miou for r in rows])
    return SweepResult(
        rows=rows,
        best=float(scores.max()),
        worst=float(scores.min()),
        mean=float(scores.mean()),
        stdev=float(scores.std()),
    )


def write_sweep_csv(path, result: SweepResult, class_labels: list[int]) -> None:
    rows = [
        [row.seed, repr(float(row.mean_miou))]
        + [repr(float(row.per_class_iou.get(c, float("nan")))) for c in class_labels]
        for row in result.rows
    ]
    write_csv(path, ["seed", "mean_miou"] + [f"iou_{c}" for c in class_labels], rows)


def write_sweep_summary_csv(path, result: SweepResult) -> None:
    summary = (result.best, result.worst, result.mean, result.stdev, result.best - result.worst)
    write_csv(path, ["best", "worst", "mean", "stdev", "spread"], [[repr(v) for v in summary]])
