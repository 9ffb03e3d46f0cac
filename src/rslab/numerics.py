"""Dense float64 matrix primitives used by the similarity metrics.

Activation matrices are plain 2-d numpy arrays with rows = probe points and
columns = flattened units. `as_matrix` is the single validation gate: each
of `center_columns`, `gram_factor` and `svd_truncate` funnels its input
through it. `center_columns` always makes its own float64 copy, which is
where a float32 activation record is widened. `MetricKind.prepare` widens,
validates and centers each layer here once, through `center_columns`; the
pair steps in `simmetrics` work on what it returned and check nothing again.

`_one_blas_thread` runs a block with numpy's bundled OpenBLAS on one thread
and gives the caller's thread count back when the block ends, also when it
raises. `MetricKind.prepare` and `MetricKind.evaluate` run their metric step
inside it for a layer of at most `simmetrics._ONE_BLAS_THREAD_ROWS` (512)
rows, where OpenBLAS's second thread makes small factorizations slower, not
faster; a larger layer's pair step runs its truncations and singular values
of at most that many rows inside it too. It finds the library once, through
`ctypes` (this is the package's one native call), and does nothing when
numpy has no bundled OpenBLAS. Only the similarity metrics are capped:
`nets` and `threats`, and the rest of the work on layers of more rows, keep
OpenBLAS's own thread count. The count is process-wide, so the
cap assumes that one thread of the process does BLAS work at a time.
"""
from __future__ import annotations

import ctypes
import functools
import glob
import os
from contextlib import contextmanager

import numpy as np

from .errors import NumericalError, ShapeError, ValidationError


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return `a` as a finite 2-d float64 array.

    This is the one place a matrix is widened: a float32 record (as dumps and
    `record_activations` hold them) is copied to float64 here, once per layer
    per `MetricKind.prepare`. A float64 array comes back as it is.
    """
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-d, got shape {m.shape}")
    if m.shape[0] == 0 or m.shape[1] == 0:
        raise ShapeError(f"{name} must be nonempty, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return m


def center_columns(m, name: str = "matrix") -> np.ndarray:
    """A validated float64 copy of m with each column's mean subtracted, so
    every column sums to zero.

    The copy is always its own and is centered in place, so a layer has one
    float64 copy at a time and the caller's m is never changed.
    """
    c = as_matrix(np.array(m, dtype=np.float64), name)
    c -= c.mean(axis=0, keepdims=True)
    return c


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


@functools.cache
def _openblas():
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS,
    found once; None when numpy carries no OpenBLAS of its own."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def _blas_threads() -> int | None:
    """OpenBLAS's current thread count, or None without the library."""
    lib = _openblas()
    return None if lib is None else lib[0]()


def _set_blas_threads(n: int) -> None:
    _openblas()[1](n)


@contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread, then restore the caller's count;
    set nothing when OpenBLAS already runs one thread, as inside such a block."""
    before = _blas_threads()
    if before is None or before == 1:
        yield
        return
    _set_blas_threads(1)
    try:
        yield
    finally:
        _set_blas_threads(before)
