"""Dense float64 primitives used by every other module.

Symmetric eigendecomposition, clamped matrix square roots, overflow-safe
row softmax and pairwise Euclidean distances. Everything is 64-bit:
whitening amplifies noise in the small eigenvalues, so single precision
is not an option here.
"""

from __future__ import annotations

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
    """Row-wise softmax with per-row max subtraction for overflow safety.

    One buffer the size of ``m`` serves every step; each in-place step
    computes the same doubles as ``exp(m - max) / sum(exp(m - max))``.
    """
    m = np.asarray(m, dtype=np.float64)
    require_finite(m, "logits")
    e = m - m.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def pairwise_distances(a, b) -> np.ndarray:
    """Euclidean distance matrix between rows of a (n x d) and b (m x d).

    Computed via the quadratic expansion; cancellation residue at
    (near-)coincident rows is clamped to an exact zero. Two n x m float64
    buffers serve every step; each in-place step computes the same
    doubles as ``sqrt(max(norms - 2 (a @ b.T), 0))`` masked at
    ``1e-14 * norms``.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ArgumentError(f"incompatible shapes for pairwise distances: {a.shape} vs {b.shape}")
    norms = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :]
    sq = a @ b.T
    sq *= 2.0
    np.subtract(norms, sq, out=sq)
    np.maximum(sq, 0.0, out=sq)
    norms *= 1e-14
    sq[sq <= norms] = 0.0
    return np.sqrt(sq, out=sq)
