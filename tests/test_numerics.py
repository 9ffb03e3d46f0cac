import numpy as np
import pytest

from rslab import numerics
from rslab.errors import NumericalError, ShapeError, ValidationError
from rslab.simmetrics import MetricKind, _singular_values

import oracles


def test_as_matrix_rejects_bad_inputs():
    with pytest.raises(ShapeError):
        numerics.as_matrix(np.zeros(3))
    with pytest.raises(ShapeError):
        numerics.as_matrix(np.zeros((0, 2)))
    with pytest.raises(ValidationError):
        numerics.as_matrix(np.array([[1.0, np.nan]]))
    with pytest.raises(ValidationError):
        numerics.as_matrix(np.array([[np.inf, 1.0]]))


def test_center_columns_forced_example():
    out = numerics.center_columns([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(out, [[-1.0, -1.0], [1.0, 1.0]])


def test_center_columns_constant_matrix():
    out = numerics.center_columns(np.full((4, 3), 2.5))
    assert np.abs(out).max() == 0.0


def test_center_columns_zero_sums_random():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(5, 3))
    out = numerics.center_columns(m)
    # direct summation oracle
    for j in range(3):
        assert abs(sum(out[i, j] for i in range(5))) <= 1e-9
    assert out.shape == m.shape


def test_center_columns_idempotent():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(8, 4))
    once = numerics.center_columns(m)
    twice = numerics.center_columns(once)
    assert np.abs(once - twice).max() <= 1e-9


def wide_gram(x):
    """The n x n Gram and its norm that linear CKA prepares for a layer
    wider than its n rows: those of the column-centered layer."""
    layer = MetricKind("linear_cka").prepare(x)
    return layer.gram, layer.norm


def test_gram_linear_identity():
    # [I | 0] centres to H [I | 0], whose Gram is the centering matrix H
    k, _ = wide_gram(np.eye(3, 4))
    assert np.allclose(k, oracles.centering_matrix(3))


def test_gram_linear_diagonal():
    k, _ = wide_gram([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    assert np.allclose(k, [[1.25, -1.25], [-1.25, 1.25]])


def test_gram_linear_matches_dot_oracle():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 9))
    k, _ = wide_gram(x)
    assert np.abs(k - oracles.gram_by_dots(x - x.mean(axis=0))).max() <= 1e-12
    assert np.array_equal(k, k.T)


def test_gram_linear_psd():
    rng = np.random.default_rng(3)
    for _ in range(5):
        k, _ = wide_gram(rng.normal(size=(4, 16)))
        eig = np.linalg.eigvalsh(k)
        assert eig.min() >= -1e-9 * np.trace(k)


def test_frobenius_norm_values():
    # the norm of the Gram |K|_F, which equals |X^T X|_F of the centered X
    assert wide_gram(np.zeros((2, 3)))[1] == 0.0
    assert wide_gram(np.eye(3, 4))[1] == pytest.approx(np.sqrt(2))
    assert wide_gram([[3.0, 4.0, 0.0], [-3.0, -4.0, 0.0]])[1] == pytest.approx(50.0)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(5, 8))
    xc = x - x.mean(axis=0)
    assert wide_gram(x)[1] == pytest.approx(np.linalg.norm(xc.T @ xc), rel=1e-12)


def nuclear_norm(m):
    """The sum of the singular values that Procrustes' pair step takes."""
    return float(_singular_values(m).sum())


def test_nuclear_norm_diagonal():
    assert nuclear_norm(np.diag([3.0, 4.0])) == pytest.approx(7.0)
    assert nuclear_norm(np.eye(2)) == pytest.approx(2.0)


def test_nuclear_norm_matches_jacobi_oracle():
    rng = np.random.default_rng(4)
    for _ in range(10):
        m = rng.normal(size=(3, 2))
        assert nuclear_norm(m) == pytest.approx(oracles.nuclear_norm_jacobi(m), abs=1e-9)


def test_nuclear_at_least_frobenius():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = rng.normal(size=(rng.integers(1, 7), rng.integers(1, 7)))
        assert nuclear_norm(m) >= np.linalg.norm(m) - 1e-9


def test_svd_truncate_full_fraction_preserves_span():
    rng = np.random.default_rng(6)
    m = numerics.center_columns(rng.normal(size=(10, 4)))
    proj = numerics.svd_truncate(m, 1.0)
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    # svd_truncate's columns equal U_k S_k only up to sign
    signs = np.sign((proj * u[:, : proj.shape[1]]).sum(axis=0))
    recon = (proj * signs) @ vt[: proj.shape[1]]
    assert np.abs(recon - m).max() <= 1e-9


def test_svd_truncate_rank_one():
    u = np.outer(np.arange(1.0, 6.0), [1.0, -2.0, 0.5])
    for frac in (0.1, 0.5, 1.0):
        assert numerics.svd_truncate(u, frac).shape[1] == 1


def test_svd_truncate_count_matches_cumsum_oracle():
    rng = np.random.default_rng(7)
    for shape in ((20, 5), (8, 30)):  # tall and wide
        m = numerics.center_columns(rng.normal(size=shape))
        proj = numerics.svd_truncate(m, 0.9)
        sv = oracles.jacobi_singular_values(m)
        energy = sv * sv
        cum = np.cumsum(energy) / energy.sum()
        expected = int(np.searchsorted(cum, 0.9 - 1e-12)) + 1
        assert proj.shape[1] == expected


def test_svd_truncate_tall_matches_jacobi_projection():
    # tall and rank deficient: three all-zero columns, like dead ReLU units;
    # square, the shape of the factors SVCCA truncates; and a graded
    # spectrum down to 1e-6, whose small directions the Gram resolves worst
    rng = np.random.default_rng(8)
    tall = numerics.center_columns(rng.normal(size=(64, 12)))
    tall[:, [2, 7, 11]] = 0.0
    square = numerics.center_columns(rng.normal(size=(12, 12)))
    for m in (tall, square, oracles.graded_layer(rng)):
        for frac in (0.5, 0.9, 0.99, 1.0):
            proj = numerics.svd_truncate(m, frac)
            expected = oracles.principal_projection(m, frac)
            assert proj.shape == expected.shape
            signs = np.sign((proj * expected).sum(axis=0))
            assert np.abs(proj - expected * signs).max() <= 1e-10
    assert np.array_equal(numerics.svd_truncate(np.zeros((64, 12)), 0.9), np.zeros((64, 1)))


def _no_convergence(*args, **kwargs):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def test_failed_eigendecomposition_is_numerical_error(monkeypatch):
    rng = np.random.default_rng(9)
    monkeypatch.setattr(np.linalg, "eigh", _no_convergence)
    with pytest.raises(NumericalError):
        numerics.svd_truncate(np.eye(3), 0.9)
    for shape in ((20, 5), (8, 30)):  # SVCCA factors a tall and a wide layer
        with pytest.raises(NumericalError):
            MetricKind("svcca").prepare(rng.normal(size=shape))


def test_svd_truncate_rejects_bad_fraction():
    with pytest.raises(ValidationError):
        numerics.svd_truncate(np.eye(3), 0.0)
    with pytest.raises(ValidationError):
        numerics.svd_truncate(np.eye(3), 1.5)
