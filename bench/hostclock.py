"""Host-speed reference for timing on a shared machine.

On a shared VM the same numpy code can run 30-40 % slower for minutes at
a time, while other tenants load the physical core; process CPU time
slows with it, so it is no way out. The benchmark therefore times a
fixed kernel next to every measured call and scales the call's time to
a host on which that kernel takes ``NOMINAL_S``. The kernel uses only
numpy, never warmproto, so a change to the program cannot move it. Its
mix follows the program's own small-array work: row norms, running
minima and argmax as in FPS, a softmax, a small symmetric
eigendecomposition, masked row selection, and a Python loop over
pairwise distances of class means.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

import numpy as np

NOMINAL_S = 0.0012  # seconds one kernel call is scaled to
REPEATS = 15  # kernel calls per sample


def _kernel(points: np.ndarray, centers: np.ndarray, labels: np.ndarray) -> float:
    nearest = np.full(points.shape[0], np.inf)
    for center in centers:
        np.minimum(nearest, np.linalg.norm(points - center, axis=1), out=nearest)
        int(np.argmax(nearest))
    logits = points @ centers.T
    weights = np.exp(logits - logits.max(axis=1, keepdims=True))
    weights /= weights.sum(axis=1, keepdims=True)
    evals, _ = np.linalg.eigh(points.T @ points / points.shape[0])
    parts = [points[labels == k] for k in range(8)]
    means = [part.mean(axis=0) for part in np.vstack(parts).reshape(8, -1, points.shape[1])]
    pairs = sum(float(np.linalg.norm(a - b)) for i, a in enumerate(means) for b in means[i + 1 :])
    return float(weights.sum() + evals[-1] + pairs)


class HostClock:
    """Seconds per reference kernel, sampled between measured calls."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.points = rng.standard_normal((256, 32))
        self.centers = rng.standard_normal((16, 32))
        self.labels = np.arange(256) % 8
        self.samples: list[float] = []

    def sample(self) -> float:
        """Median seconds of one kernel call; the median ignores a call
        that a page fault or a stray interrupt happened to hit."""
        times = []
        for _ in range(REPEATS):
            start = perf_counter()
            _kernel(self.points, self.centers, self.labels)
            times.append(perf_counter() - start)
        seconds = median(times)
        self.samples.append(seconds)
        return seconds

    @staticmethod
    def speed(before: float, after: float) -> float:
        """Host speed over a call bracketed by two samples; 1 is nominal."""
        return NOMINAL_S / (0.5 * (before + after))
