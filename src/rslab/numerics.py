"""Dense float64 matrix primitives used by the similarity metrics.

Activation matrices are plain 2-d numpy arrays with rows = probe points and
columns = flattened units. `as_matrix` is the single validation gate: every
public operation funnels its inputs through it.
"""
from __future__ import annotations

import numpy as np

from .errors import NumericalError, ShapeError, ValidationError


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return `a` as a finite 2-d float64 array."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-d, got shape {m.shape}")
    if m.shape[0] == 0 or m.shape[1] == 0:
        raise ShapeError(f"{name} must be nonempty, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return m


def center_columns(m) -> np.ndarray:
    """Subtract each column's mean, so every column sums to zero."""
    m = as_matrix(m)
    return m - m.mean(axis=0, keepdims=True)


def gram_linear(x) -> np.ndarray:
    """Linear-kernel Gram matrix x @ x.T (n x n, symmetric PSD)."""
    x = as_matrix(x)
    k = x @ x.T
    # force exact symmetry against BLAS rounding asymmetry
    return (k + k.T) / 2.0


def frobenius_norm(m) -> float:
    """sqrt of the sum of squared entries."""
    m = as_matrix(m)
    return float(np.sqrt((m * m).sum()))


def singular_values(m) -> np.ndarray:
    """Singular values of m in decreasing order."""
    m = as_matrix(m)
    try:
        return np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc


def nuclear_norm(m) -> float:
    """Sum of the singular values of m."""
    return float(singular_values(m).sum())


def gram_factor(m) -> np.ndarray:
    """An n x min(n, p) matrix with the same Gram m @ m.T as m.

    A wide m (p > n) is replaced by R^T from the QR factorization m^T = Q R,
    since m = R^T Q^T and Q has orthonormal columns; a tall m is returned
    as it is.
    """
    m = as_matrix(m)
    if m.shape[1] <= m.shape[0]:
        return m
    return np.linalg.qr(m.T, mode="r").T


def svd_truncate(m, variance_fraction: float) -> np.ndarray:
    """Project m onto its leading principal directions.

    Keeps the smallest number of right singular directions whose cumulative
    squared singular values reach `variance_fraction` of the total, and
    returns the n x k projection U_k S_k of m onto them, from one thin SVD
    of m. The caller is expected to pass a column-centered matrix; SVCCA
    passes the small square factor its `prepare` made of each layer.
    """
    m = as_matrix(m)
    if not 0.0 < variance_fraction <= 1.0:
        raise ValidationError(
            f"variance_fraction must be in (0, 1], got {variance_fraction}"
        )
    try:
        u, s, _ = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    energy = s * s
    total = energy.sum()
    if total == 0.0:
        return np.zeros((m.shape[0], 1))
    cum = np.cumsum(energy)
    # tiny slack so variance_fraction=1.0 is reachable despite roundoff
    k = int(np.searchsorted(cum, variance_fraction * total - 1e-12 * total)) + 1
    k = min(k, len(s))
    return u[:, :k] * s[:k]
