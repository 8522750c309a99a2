"""Dense float64 primitives used by every other module.

Symmetric eigendecomposition, clamped matrix square roots, overflow-safe
row softmax, pairwise Euclidean distances, and a central-difference
gradient checker. Everything is 64-bit: whitening amplifies noise in the
small eigenvalues, so single precision is not an option here.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ArgumentError, NumericError, SymmetryError

SYMMETRY_ATOL = 1e-10


def require_finite(a: np.ndarray, name: str = "array") -> None:
    if not np.all(np.isfinite(a)):
        raise NumericError(f"{name} contains non-finite entries")


def sym_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvectors of a symmetric matrix.

    Raises SymmetryError when max |m - m.T| exceeds 1e-10 and NumericError
    when the decomposition fails to converge.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ArgumentError(f"expected a square matrix, got shape {m.shape}")
    require_finite(m, "matrix")
    asym = float(np.max(np.abs(m - m.T)))
    if asym > SYMMETRY_ATOL:
        raise SymmetryError(f"matrix is not symmetric: max |m - m.T| = {asym:.3e}")
    try:
        evals, evecs = np.linalg.eigh(0.5 * (m + m.T))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition did not converge: {exc}") from exc
    return evals[::-1].copy(), evecs[:, ::-1].copy()


def half_powers(m, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """(m^-1/2, m^+1/2) from one eigendecomposition, eigenvalues clamped
    from below at eps.

    The clamp keeps the inverse root defined for rank-deficient input
    (covariance of fewer points than dimensions).
    """
    if not eps > 0:
        raise ArgumentError(f"eps must be positive, got {eps}")
    evals, evecs = sym_eig(m)
    clamped = np.maximum(evals, eps)
    inv_sqrt = (evecs * clamped**-0.5) @ evecs.T
    sqrt = (evecs * clamped**0.5) @ evecs.T
    return 0.5 * (inv_sqrt + inv_sqrt.T), 0.5 * (sqrt + sqrt.T)


def softmax_rows(m) -> np.ndarray:
    """Row-wise softmax with per-row max subtraction for overflow safety."""
    m = np.asarray(m, dtype=np.float64)
    require_finite(m, "logits")
    shifted = m - m.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def pairwise_distances(a, b) -> np.ndarray:
    """Euclidean distance matrix between rows of a (n x d) and b (m x d).

    Computed via the quadratic expansion; cancellation residue at
    (near-)coincident rows is clamped to an exact zero.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ArgumentError(f"incompatible shapes for pairwise distances: {a.shape} vs {b.shape}")
    norms = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :]
    sq = norms - 2.0 * (a @ b.T)
    np.maximum(sq, 0.0, out=sq)
    sq[sq <= 1e-14 * norms] = 0.0
    return np.sqrt(sq)


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
