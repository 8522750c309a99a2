"""Central-difference gradient checker shared by the gradient tests."""

from typing import Callable

import numpy as np

from warmproto.errors import ArgumentError, NumericError


def grad_check(f: Callable[[np.ndarray], float], x, analytic, h: float = 1e-4) -> float:
    """Max relative error between an analytic gradient and central differences.

    Per coordinate: |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    Raises NumericError if the objective returns a non-finite value at any
    probe point.
    """
    x = np.asarray(x, dtype=np.float64)
    analytic = np.asarray(analytic, dtype=np.float64)
    if x.ndim != 1 or x.shape != analytic.shape:
        raise ArgumentError("x and analytic must be 1-D vectors of equal length")
    if not h > 0:
        raise ArgumentError(f"h must be positive, got {h}")
    worst = 0.0
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        f_hi = float(f(x + step))
        f_lo = float(f(x - step))
        if not (np.isfinite(f_hi) and np.isfinite(f_lo)):
            raise NumericError(f"objective returned a non-finite value near coordinate {i}")
        numeric = (f_hi - f_lo) / (2.0 * h)
        rel = abs(analytic[i] - numeric) / max(1e-8, abs(analytic[i]) + abs(numeric))
        worst = max(worst, rel)
    return worst
