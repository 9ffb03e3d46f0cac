import csv
import json

import numpy as np
import pytest

from rslab import errors, numerics
from rslab import simmetrics as sm
from rslab.activations import ActivationRecord, ActivationSet
from rslab.errors import (
    ConfigError,
    EmptySelectionError,
    NumericalError,
    ProbeMismatchError,
    ShapeError,
    ValidationError,
)
from rslab.ppm import write_heatmap

import oracles


CKA, CCA, PROCRUSTES = (sm.MetricKind(n) for n in ("linear_cka", "mean_cca", "procrustes"))


def random_orthogonal(rng, p):
    q, _ = np.linalg.qr(rng.normal(size=(p, p)))
    return q


# ---------------------------------------------------------------------------
# linear CKA


def test_cka_self_similarity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(10, 4))
    assert CKA.evaluate(x, x) == pytest.approx(1.0, abs=1e-12)


def test_cka_orthogonal_and_scale_invariance():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(12, 5))
    q = random_orthogonal(rng, 5)
    assert CKA.evaluate(x, x @ q) == pytest.approx(1.0, abs=1e-8)
    assert CKA.evaluate(x, 3.7 * x) == pytest.approx(1.0, abs=1e-8)


def test_cka_fixed_example_matches_direct_oracle():
    x = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    y = np.array([[1.0], [-1.0], [0.0]])
    assert CKA.evaluate(x, y) == pytest.approx(oracles.cka_direct(x, y), abs=1e-12)


# (n, px, py) beyond the random tall-ish ones: both sides wider than n, and
# px > n >= py, which take the n x n Gram / factor paths
WIDE_SHAPES = ((8, 30, 20), (8, 30, 5))


def test_cka_matches_direct_oracle_random():
    rng = np.random.default_rng(2)
    shapes = [tuple(int(v) for v in rng.integers((4, 1, 1), (16, 6, 6))) for _ in range(25)]
    for n, px, py in shapes + list(WIDE_SHAPES):
        x = rng.normal(size=(n, px))
        y = rng.normal(size=(n, py))
        assert CKA.evaluate(x, y) == pytest.approx(
            oracles.cka_direct(x, y), abs=1e-10
        )


def test_cka_wide_gram_route_matches_trace_oracle():
    # both layers wider than n: the numerator is sum(K * L) of the n x n Grams
    rng = np.random.default_rng(7)
    for n, px, py in ((8, 30, 20), (6, 9, 40), (12, 13, 13)):
        x = rng.normal(size=(n, px))
        y = rng.normal(size=(n, py))
        assert abs(CKA.evaluate(x, y) - oracles.cka_trace_form(x @ x.T, y @ y.T)) <= 1e-12


def test_cka_degenerate_flag():
    rng = np.random.default_rng(3)
    # zero after centering: a tall and a wide constant input
    for x in (np.ones((5, 3)), np.ones((5, 12))):
        y = rng.normal(size=(5, 2))
        metric = sm.MetricKind("linear_cka")
        assert metric.evaluate(x, y) == 0.0 and metric.prepare(x).degenerate


def test_cka_row_mismatch():
    with pytest.raises(ShapeError):
        CKA.evaluate(np.zeros((4, 2)), np.zeros((5, 2)))


def test_cka_translation_invariance():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(9, 3))
    y = rng.normal(size=(9, 4))
    shift = x + rng.normal(size=(1, 3))
    assert CKA.evaluate(shift, y) == pytest.approx(CKA.evaluate(x, y), abs=1e-8)


# ---------------------------------------------------------------------------
# online CKA


def _full_data_cka_loops(x, y):
    """Full-data CKA of unbiased HSIC terms, each from the double loop."""
    x, y = x - x.mean(axis=0), y - y.mean(axis=0)
    num = oracles.hsic_unbiased_loops(x, y)
    return num / np.sqrt(oracles.hsic_unbiased_loops(x, x) * oracles.hsic_unbiased_loops(y, y))


def test_online_single_batch_equals_unbiased():
    rng = np.random.default_rng(8)
    # (32, 6, 5) scores each batch from the features; (8, 30, 24) has
    # 2 px py > n (px + py), so it forms the n x n Grams
    for n, px, py in ((32, 6, 5), (8, 30, 24)):
        x, y = _latent_batches(rng, n, px, py)
        x = x + rng.normal(size=(1, px))  # not centered
        for a, b in ((x, y), (x, x)):
            one = sm.MetricKind("online_cka", batch=n, passes=1, seed=0).evaluate(a, b)
            # one batch holding every point is unshuffled, so a larger
            # batch gives the same bits
            larger = sm.MetricKind("online_cka", batch=n + 5, passes=1, seed=3)
            assert one == larger.evaluate(a, b)
            assert abs(one - _full_data_cka_loops(a, b)) <= 1e-12


def test_online_identical_streams():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(64, 8))
    metric = sm.MetricKind("online_cka", batch=16, passes=2, seed=1)
    assert metric.evaluate(x, x) == pytest.approx(1.0, abs=1e-6)


def test_online_converges_to_full_batch():
    rng = np.random.default_rng(10)
    n = 1024
    z = rng.normal(size=(n, 16))
    x = z @ rng.normal(size=(16, 64)) + 0.6 * rng.normal(size=(n, 64))
    y = z @ rng.normal(size=(16, 48)) + 0.6 * rng.normal(size=(n, 48))
    full = sm.MetricKind("online_cka", batch=n, passes=1).evaluate(x, y)
    o = sm.MetricKind("online_cka", batch=64, passes=3, seed=0).evaluate(x, y)
    assert abs(o - full) <= 0.01


def test_online_deterministic():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(100, 7))
    y = rng.normal(size=(100, 5))
    a = sm.MetricKind("online_cka", batch=16, passes=2, seed=5).evaluate(x, y)
    b = sm.MetricKind("online_cka", batch=16, passes=2, seed=5).evaluate(x, y)
    assert a == b
    c = sm.MetricKind("online_cka", batch=16, passes=2, seed=6).evaluate(x, y)
    assert a != c  # different shuffles almost surely differ


def test_online_misalignment():
    with pytest.raises(ShapeError):
        sm.MetricKind("online_cka", batch=4).evaluate(np.zeros((8, 2)), np.zeros((9, 2)))


def metric_from_json(d):
    return errors.from_json(sm.MetricKind, d, "metric")


def test_metric_defaults_live_in_metric_kind():
    assert metric_from_json({"name": "svcca"}) == sm.MetricKind(
        "svcca", variance_fraction=0.99
    )
    assert metric_from_json({"name": "online_cka"}) == sm.MetricKind(
        "online_cka", batch=1024, passes=3, seed=0
    )
    assert errors.to_json(sm.MetricKind("online_cka", passes=1)) == {
        "name": "online_cka", "batch": 1024, "passes": 1, "seed": 0,
    }


def test_online_bad_params():
    with pytest.raises(ConfigError):
        sm.MetricKind("online_cka", batch=1)
    with pytest.raises(ConfigError):
        # below the unbiased HSIC's 4 points: rejected before any batch runs
        sm.MetricKind("online_cka", batch=3, passes=1, seed=0)
    with pytest.raises(ConfigError):
        sm.MetricKind("online_cka", batch=4, passes=0)
    with pytest.raises(ConfigError):
        sm.MetricKind("online_cka", seed=-1)


def _latent_batches(rng, m, px, py):
    # a shared latent keeps the cross term well away from 0
    z = rng.normal(size=(m, 2))
    x = z @ rng.normal(size=(2, px)) + 0.5 * rng.normal(size=(m, px))
    y = z @ rng.normal(size=(2, py)) + 0.5 * rng.normal(size=(m, py))
    return x - x.mean(axis=0), y - y.mean(axis=0)


def _assert_hsic_matches_loops(x, y):
    scale = np.sqrt(oracles.hsic_unbiased_loops(x, x) * oracles.hsic_unbiased_loops(y, y))
    for a, b in ((x, y), (y, x), (x, x), (y, y)):
        ref = oracles.hsic_unbiased_loops(a, b)
        assert abs(sm._hsic_unbiased(a, b) - ref) <= 1e-10 * scale


# tall: every term from the features; wide: sum(K~ * L~) from the m x m
# Grams; mixed: features for the cross and the narrow self term, Grams for
# the wide self term
@pytest.mark.parametrize("m, px, py", [(40, 3, 5), (8, 30, 24), (12, 2, 40)],
                         ids=["tall", "wide", "mixed"])
def test_hsic_unbiased_matches_loops(m, px, py):
    _assert_hsic_matches_loops(*_latent_batches(np.random.default_rng(m), m, px, py))


def test_hsic_self_term_equals_cross_term_of_a_copy():
    # x.T @ x of one buffer would run SYRK, which at some shapes rounds
    # differently from the GEMM that scores two equal layers
    rng = np.random.default_rng(1)
    for _ in range(4):
        for p in (12, 30):
            x = rng.normal(size=(40, p))
            x -= x.mean(axis=0)
            assert sm._hsic_unbiased(x, x) == sm._hsic_unbiased(x, x.copy())


def test_hsic_unbiased_matches_loops_on_folded_batch():
    rng = np.random.default_rng(13)
    x, y = _latent_batches(rng, 19, 6, 3)
    batches = list(sm._online_batches(19, sm.MetricKind("online_cka", 8, 1, 0)))
    assert [len(b) for b in batches] == [8, 11]  # the 3-row rest is folded
    _assert_hsic_matches_loops(x[batches[-1]], y[batches[-1]])


# ---------------------------------------------------------------------------
# CCA / SVCCA


def test_mean_cca_self():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(20, 4))
    assert CCA.evaluate(x, x) == pytest.approx(1.0, abs=1e-8)


def test_mean_cca_orthogonal_columns():
    # y built orthogonal to x's centered column space
    rng = np.random.default_rng(18)
    x = rng.normal(size=(30, 3))
    xc = x - x.mean(axis=0)
    q, _ = np.linalg.qr(np.column_stack([xc, np.ones(30)]))
    raw = rng.normal(size=(30, 2))
    y = raw - q @ (q.T @ raw)
    assert CCA.evaluate(x, y) == pytest.approx(0.0, abs=1e-8)


def test_mean_cca_matches_ascent_oracle():
    rng = np.random.default_rng(19)
    x = rng.normal(size=(50, 3))
    y = rng.normal(size=(50, 2))
    assert CCA.evaluate(x, y) == pytest.approx(
        float(oracles.cca_ascent(x, y).mean()), abs=1e-8
    )


def test_mean_cca_requires_more_rows():
    with pytest.raises(ShapeError):
        CCA.evaluate(np.zeros((3, 3)), np.zeros((3, 2)))


def test_mean_cca_rank_deficient_projects():
    rng = np.random.default_rng(20)
    base = rng.normal(size=(25, 2))
    x = np.column_stack([base, base[:, 0] + base[:, 1]])  # rank 2 of 3 cols
    val = CCA.evaluate(x, base)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_mean_cca_self_on_ill_conditioned_tall_layer():
    # dead ReLU units mixed by a dense map leave 8 singular values near
    # 1e-8 * s1 after the float32 round trip; a route that forms X^T Y
    # squares that condition number, so this pins the orthonormal basis
    rng = np.random.default_rng(0)
    h = np.maximum(rng.normal(size=(1024, 64)), 0.0)
    h[:, :8] = 0.0
    x = (h @ rng.normal(size=(64, 64)) + 0.1).astype(np.float32).astype(np.float64)
    s = np.linalg.svd(x - x.mean(axis=0), compute_uv=False)
    assert s[-8] / s[0] < 1e-7 < s[-9] / s[0]
    assert abs(CCA.evaluate(x, x) - 1.0) < 1e-12


def test_svcca_full_fraction_equals_cca():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(30, 4))
    y = rng.normal(size=(30, 3))
    full = sm.MetricKind("svcca", variance_fraction=1.0)
    assert full.evaluate(x, y) == pytest.approx(CCA.evaluate(x, y), abs=1e-8)


def test_svcca_self():
    rng = np.random.default_rng(22)
    x = rng.normal(size=(25, 5))
    for frac in (0.5, 0.9, 1.0):
        metric = sm.MetricKind("svcca", variance_fraction=frac)
        assert metric.evaluate(x, x) == pytest.approx(1.0, abs=1e-8)


def test_svcca_matches_composed_oracles():
    rng = np.random.default_rng(23)
    # beyond tall and wide: a tall x with three all-zero columns (dead units,
    # so its R factor is singular), and a square pair (n = p)
    shapes = ((40, 6, 6),) + WIDE_SHAPES + ((40, 8, 5), (12, 12, 12))
    metric = sm.MetricKind("svcca", variance_fraction=0.9)
    for n, px, py in shapes:
        h = oracles.centering_matrix(n)
        x = rng.normal(size=(n, px))
        y = rng.normal(size=(n, py))
        if px == 8:
            x[:, [1, 4, 6]] = 0.0
        xt = oracles.principal_projection(h @ x, 0.9)
        yt = oracles.principal_projection(h @ y, 0.9)
        expected = float(oracles.cca_ascent(xt, yt).mean())
        assert metric.evaluate(x, y) == pytest.approx(expected, abs=1e-10)


# ---------------------------------------------------------------------------
# Procrustes


def test_procrustes_self_and_rotation():
    rng = np.random.default_rng(24)
    x = rng.normal(size=(12, 4))
    assert PROCRUSTES.evaluate(x, x) == pytest.approx(2.0, abs=1e-8)
    q = random_orthogonal(rng, 4)
    assert PROCRUSTES.evaluate(x, x @ q) == pytest.approx(2.0, abs=1e-8)


def test_procrustes_fixed_example_nuclear_oracle():
    x = np.array([[1.0, 0.0], [0.0, 1.0]]) / np.sqrt(2)
    y = np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2)
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    xn = xc / np.linalg.norm(xc)
    yn = yc / np.linalg.norm(yc)
    expected = 2.0 * oracles.nuclear_norm_jacobi(xn.T @ yn)
    assert PROCRUSTES.evaluate(x, y) == pytest.approx(expected, abs=1e-9)


def test_procrustes_random_matches_nuclear_oracle():
    rng = np.random.default_rng(25)
    for n, px, py in ((10, 3, 5),) * 10 + WIDE_SHAPES:
        x = rng.normal(size=(n, px))
        y = rng.normal(size=(n, py))
        xc = x - x.mean(axis=0)
        yc = y - y.mean(axis=0)
        p = max(px, py)
        xn = np.pad(xc / np.linalg.norm(xc), ((0, 0), (0, p - px)))
        yn = np.pad(yc / np.linalg.norm(yc), ((0, 0), (0, p - py)))
        expected = 2.0 * oracles.nuclear_norm_jacobi(xn.T @ yn)
        assert PROCRUSTES.evaluate(x, y) == pytest.approx(expected, abs=1e-10)


def test_procrustes_degenerate():
    # a tall and a wide constant input
    for x in (np.ones((4, 2)), np.ones((4, 9))):
        metric = sm.MetricKind("procrustes")
        assert metric.evaluate(x, np.eye(4)) == 0.0 and metric.prepare(x).degenerate


def test_svcca_degenerate():
    # a tall and a wide constant input: SVCCA flags its all-zero square factor
    rng = np.random.default_rng(41)
    metric = sm.MetricKind("svcca", variance_fraction=0.9)
    for x in (np.ones((12, 3)), np.ones((12, 20))):
        assert metric.prepare(x).degenerate
        for y in (rng.normal(size=(12, 4)), rng.normal(size=(12, 30)), x):
            assert metric.evaluate(x, y) == 0.0 and metric.evaluate(y, x) == 0.0
    assert not metric.prepare(rng.normal(size=(12, 3))).degenerate


# ---------------------------------------------------------------------------
# shared invariances


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_cka_isotropic_scaling(scale):
    rng = np.random.default_rng(26)
    x = rng.normal(size=(14, 4))
    assert CKA.evaluate(x, scale * x) == pytest.approx(1.0, abs=1e-8)


def test_metric_symmetry():
    rng = np.random.default_rng(27)
    x = rng.normal(size=(20, 4))
    y = rng.normal(size=(20, 3))
    for metric in (CKA, CCA, PROCRUSTES, sm.MetricKind("svcca", variance_fraction=0.9)):
        assert metric.evaluate(x, y) == pytest.approx(metric.evaluate(y, x), abs=1e-9)


def test_translation_invariance_all_metrics():
    rng = np.random.default_rng(28)
    x = rng.normal(size=(20, 4))
    y = rng.normal(size=(20, 3))
    xs = x + rng.normal(size=(1, 4))
    for metric in (CKA, CCA, PROCRUSTES):
        assert metric.evaluate(xs, y) == pytest.approx(metric.evaluate(x, y), abs=1e-8)


def test_orthogonal_invariance_full_suite():
    rng = np.random.default_rng(29)
    x = rng.normal(size=(24, 5))
    q = random_orthogonal(rng, 5)
    xq = x @ q
    assert CKA.evaluate(x, xq) == pytest.approx(1.0, abs=1e-8)
    assert PROCRUSTES.evaluate(x, xq) == pytest.approx(2.0, abs=1e-8)
    assert CCA.evaluate(x, xq) == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# MetricKind / SimilarityMatrix / crosslayer


def make_set(rng, layers=3, n=8, model="m"):
    recs = [
        ActivationRecord(f"l{i:02d}", i, rng.normal(size=(n, int(rng.integers(2, 5)))))
        for i in range(layers)
    ]
    return ActivationSet(recs, rng.integers(0, 2, n), {"model_id": model})


def test_metric_kind_validation():
    with pytest.raises(ConfigError):
        sm.MetricKind("nope")
    with pytest.raises(ConfigError):
        sm.MetricKind("linear_cka", batch=5)
    with pytest.raises(ConfigError):
        sm.MetricKind("online_cka", batch=1)
    with pytest.raises(ConfigError):
        sm.MetricKind("svcca", variance_fraction=0.0)
    assert sm.MetricKind("procrustes").value_range == (0.0, 2.0)
    assert sm.MetricKind("linear_cka").value_range == (0.0, 1.0)


def test_metric_kind_json_roundtrip():
    m = sm.MetricKind("online_cka", batch=32, passes=2, seed=9)
    assert metric_from_json(errors.to_json(m)) == m
    with pytest.raises(ConfigError):
        metric_from_json({"name": "linear_cka", "bogus": 1})


@pytest.mark.parametrize("d", [
    {},
    {"name": "online_cka", "batch": "x", "passes": 1},
    {"name": "svcca", "variance_fraction": "0.5"},
], ids=["no-name", "string-batch", "string-fraction"])
def test_metric_kind_from_json_rejects_bad_field_types(d):
    with pytest.raises(ConfigError):
        metric_from_json(d)


def test_crosslayer_self_symmetric_unit_diagonal():
    rng = np.random.default_rng(30)
    a = make_set(rng)
    grid = sm.crosslayer_matrix(a, a, sm.MetricKind("linear_cka"))
    assert grid.values.shape == (3, 3)
    assert np.allclose(np.diag(grid.values), 1.0)
    assert np.array_equal(grid.values, grid.values.T)


def test_crosslayer_single_layer():
    rng = np.random.default_rng(31)
    a = make_set(rng, layers=1)
    b = make_set(rng, layers=1)
    grid = sm.crosslayer_matrix(a, b, sm.MetricKind("linear_cka"))
    expected = CKA.evaluate(a.records[0].matrix, b.records[0].matrix)
    assert grid.values.shape == (1, 1)
    assert grid.values[0, 0] == pytest.approx(expected, abs=1e-12)


def test_crosslayer_range_respected_random_sets():
    rng = np.random.default_rng(32)
    for _ in range(20):
        a = make_set(rng, layers=2, n=10)
        b = make_set(rng, layers=3, n=10)
        for metric in (sm.MetricKind("linear_cka"), sm.MetricKind("procrustes")):
            grid = sm.crosslayer_matrix(a, b, metric)
            lo, hi = metric.value_range
            assert grid.values.min() >= lo - 1e-6
            assert grid.values.max() <= hi + 1e-6


def _gaussian_set(seed, widths, n=24, dtype=np.float64):
    rng = np.random.default_rng(seed)
    recs = [
        ActivationRecord(f"l{i:02d}", i, rng.normal(size=(n, w)).astype(dtype))
        for i, w in enumerate(widths)
    ]
    return ActivationSet(recs, np.zeros(n, int))


def test_online_cka_grid_keeps_estimates_below_zero(tmp_path):
    # independent layers: the unbiased estimate is negative at batch 8 and
    # at batch 24, the full-data estimator; the grid keeps it, and the
    # heatmap clamps it and says so
    s = _gaussian_set(1, (6, 10, 3))
    for batch in (8, 24):
        grid = sm.crosslayer_matrix(s, s, sm.MetricKind("online_cka", batch=batch, passes=1))
        assert grid.values.min() < 0.0
        assert grid.save(str(tmp_path), f"b{batch}")
        with open(tmp_path / f"matrix_b{batch}.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert min(float(v) for r in rows for v in r[1:]) < 0.0
    # the other metrics keep their range, and no metric takes a non-finite value
    flags = np.zeros((1, 1), bool)
    with pytest.raises(ValidationError):
        sm.SimilarityMatrix(["r"], ["c"], [[-0.1]], sm.MetricKind("linear_cka"), flags)
    with pytest.raises(ValidationError):
        sm.SimilarityMatrix(["r"], ["c"], [[np.nan]], sm.MetricKind("online_cka"), flags)


@pytest.mark.parametrize("metric", [
    sm.MetricKind("linear_cka"),
    sm.MetricKind("online_cka", batch=16, passes=2, seed=3),
    sm.MetricKind("mean_cca"),
    sm.MetricKind("svcca"),
    sm.MetricKind("procrustes"),
], ids=lambda m: m.name)
def test_float32_records_score_like_their_float64_widening(metric):
    # a metric widens a float32 record once, in prepare: the bits equal those
    # of scoring the float64 copy, and neither set's records are touched
    widths = (3, 12, 25) if metric.name == "mean_cca" else (3, 12, 25, 60)
    a32, b32 = _gaussian_set(4, widths, 40, np.float32), _gaussian_set(5, widths, 40, np.float32)
    b32.records[1].matrix[:] = 2.5  # a degenerate layer
    widen = lambda s: ActivationSet(
        [ActivationRecord(r.layer_name, r.layer_index, r.matrix.astype(np.float64))
         for r in s.records], s.labels)
    a64, b64 = widen(a32), widen(b32)
    before = [r.matrix.copy() for r in a32.records + b32.records + a64.records + b64.records]
    for x, y, u, v in ((a32, a32, a64, a64), (a32, b32, a64, b64)):
        g32, g64 = sm.crosslayer_matrix(x, y, metric), sm.crosslayer_matrix(u, v, metric)
        assert g32.values.tobytes() == g64.values.tobytes()
        assert np.array_equal(g32.degenerate, g64.degenerate)
    after = [r.matrix for r in a32.records + b32.records + a64.records + b64.records]
    assert all(np.array_equal(m, k) for m, k in zip(before, after))


def test_crosslayer_n_mismatch():
    rng = np.random.default_rng(33)
    with pytest.raises(ProbeMismatchError):
        sm.crosslayer_matrix(make_set(rng, n=6), make_set(rng, n=7), sm.MetricKind("linear_cka"))


def _set_with_constant_layer(rng, z, widths, model):
    # layers share the latent signal z, so online CKA's small-batch estimates
    # stay inside the [0, 1] range a SimilarityMatrix enforces
    n = z.shape[0]
    mats = [
        z @ rng.normal(size=(2, p)) + 0.3 * rng.normal(size=(n, p)) for p in widths
    ] + [np.ones((n, 4))]
    recs = [ActivationRecord(f"l{i:02d}", i, m) for i, m in enumerate(mats)]
    return ActivationSet(recs, rng.integers(0, 2, n), {"model_id": model})


GRID_METRICS = (
    sm.MetricKind("linear_cka"),
    sm.MetricKind("online_cka", batch=8, passes=2, seed=3),
    sm.MetricKind("mean_cca"),
    sm.MetricKind("svcca", variance_fraction=0.9),
    sm.MetricKind("procrustes"),
)


@pytest.mark.parametrize("metric", GRID_METRICS, ids=lambda m: m.name)
@pytest.mark.parametrize("n, widths", [(16, (40, 24, 5)), (64, (6, 3, 5))], ids=["wide", "tall"])
def test_crosslayer_prepared_equals_raw_evaluate(metric, n, widths):
    rng = np.random.default_rng(37)
    z = rng.normal(size=(n, 2))
    a = _set_with_constant_layer(rng, z, widths, "a")
    b = _set_with_constant_layer(rng, z, widths[::-1], "b")
    for x, y in ((a, a), (a, b)):
        if metric.name == "mean_cca" and n < max(widths):
            with pytest.raises(ShapeError):  # CCA needs rows > cols
                sm.crosslayer_matrix(x, y, metric)
            continue
        grid = sm.crosslayer_matrix(x, y, metric)
        values = np.array([
            [metric.evaluate(r.matrix, s.matrix) for s in y.records] for r in x.records
        ])
        flags = np.logical_or.outer(
            [metric.prepare(r.matrix).degenerate for r in x.records],
            [metric.prepare(s.matrix).degenerate for s in y.records],
        )
        if metric.name == "online_cka":
            assert np.array_equal(grid.values, values)
        else:
            assert np.abs(grid.values - values).max() <= 1e-12
        assert np.array_equal(grid.degenerate, flags)
        if metric.name != "online_cka":  # which reports no flag
            assert flags[-1].all() and flags[:, -1].all()


def _count_calls(monkeypatch, name):
    calls = []
    fn = getattr(sm, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(sm, name, counted)
    return calls


def test_online_cka_forms_grams_only_for_wide_batches(monkeypatch):
    rng = np.random.default_rng(40)
    metric = sm.MetricKind("online_cka", batch=8, passes=2, seed=0)
    grams = _count_calls(monkeypatch, "_zero_diagonal_gram")
    tall = _set_with_constant_layer(rng, rng.normal(size=(64, 2)), (6, 3, 5), "t")
    sm.crosslayer_matrix(tall, tall, metric)
    assert grams == []
    # 4 batches of 8 rows: the 40- and 12-wide layers' self terms take one
    # Gram per batch, and their pair two; every pair with the 2-wide layer
    # stays in feature space. A 12-wide self term's GEMM would cost 2 m p^2
    # flops against the Gram's m^2 p.
    wide = _set_with_constant_layer(rng, rng.normal(size=(16, 2)), (40, 12, 2), "w")
    sm.crosslayer_matrix(wide, wide, metric)
    assert len(grams) == 4 * (1 + 1 + 2)


def test_crosslayer_prepares_each_layer_once(monkeypatch):
    rng = np.random.default_rng(38)
    a = make_set(rng, layers=4, n=12)
    b = make_set(rng, layers=3, n=12)
    bases = _count_calls(monkeypatch, "_orthonormal_basis")
    sm.crosslayer_matrix(a, a, sm.MetricKind("mean_cca"))
    assert len(bases) == 4
    sm.crosslayer_matrix(a, b, sm.MetricKind("mean_cca"))
    assert len(bases) == 4 + 4 + 3
    # svcca still truncates both layers in every cell: the benchmark's traced
    # self-check pins two svd_truncate calls per cell until its revision
    # (ROADMAP item 1) allows truncating each layer once
    truncations = _count_calls(monkeypatch, "svd_truncate")
    sm.crosslayer_matrix(a, a, sm.MetricKind("svcca", variance_fraction=0.9))
    assert len(truncations) == 2 * (4 * 5 // 2)
    sm.crosslayer_matrix(a, b, sm.MetricKind("svcca", variance_fraction=0.9))
    assert len(truncations) == 2 * (4 * 5 // 2) + 2 * 4 * 3
    # but each layer is factored once per grid: one QR per tall layer, or
    # one inside `gram_factor` per wide one; no layer here is square, and
    # the truncations of the square factors run no QR
    z = rng.normal(size=(16, 2))
    c = _set_with_constant_layer(rng, z, (40, 24, 5), "c")
    d = _set_with_constant_layer(rng, z, (3, 30), "d")
    factorings = []
    qr = np.linalg.qr

    def counted_qr(*args, **kwargs):
        factorings.append(1)
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    sm.crosslayer_matrix(c, c, sm.MetricKind("svcca", variance_fraction=0.9))
    assert len(factorings) == 4
    sm.crosslayer_matrix(c, d, sm.MetricKind("svcca", variance_fraction=0.9))
    assert len(factorings) == 4 + 4 + 3


def test_svcca_row_mismatch_raises():
    rng = np.random.default_rng(39)
    metric = sm.MetricKind("svcca", variance_fraction=0.9)
    # every p equals the other side's n or p, so only the row counts differ
    tall_a, tall_b = rng.normal(size=(30, 10)), rng.normal(size=(20, 10))
    wide = rng.normal(size=(10, 25))
    for x, y in ((tall_a, tall_b), (wide, tall_b), (tall_a, wide)):
        with pytest.raises(ShapeError):
            metric.evaluate(x, y)
        with pytest.raises(ShapeError):
            metric.evaluate(metric.prepare(x), metric.prepare(y))


# ---------------------------------------------------------------------------
# BLAS threads


def _require_openblas():
    if numerics._openblas() is None:
        pytest.skip("numpy has no bundled OpenBLAS whose thread count can be set")


def _relu_set(rng, n, p, layers=4):
    recs = [
        ActivationRecord(f"l{i}", i, np.maximum(rng.normal(size=(n, p)), 0.0).astype(np.float32))
        for i in range(layers)
    ]
    return ActivationSet(recs, rng.integers(0, 2, n), {"model_id": "m"})


def test_small_probe_scores_do_not_depend_on_blas_threads():
    _require_openblas()
    rng = np.random.default_rng(44)
    # analysis-wide's stem taps: wide enough that OpenBLAS would thread the
    # Grams and products of every layer on two threads
    wide = _relu_set(rng, 96, 2048)
    tall = _relu_set(rng, 512, 64)
    grids = [(wide, CKA), (wide, sm.MetricKind("svcca", variance_fraction=0.99)),
             (wide, PROCRUSTES), (tall, CCA)]
    caller = numerics._blas_threads()
    try:
        values = {}
        for threads in (1, 2):
            numerics._set_blas_threads(threads)
            values[threads] = []
            for s, metric in grids:
                values[threads].append(sm.crosslayer_matrix(s, s, metric).values.tobytes())
                assert numerics._blas_threads() == threads
        assert values[1] == values[2]
    finally:
        numerics._set_blas_threads(caller)


def test_blas_threads_come_back_when_a_step_raises(monkeypatch):
    _require_openblas()
    rng = np.random.default_rng(45)
    caller = numerics._blas_threads()
    try:
        numerics._set_blas_threads(2)
        with pytest.raises(ShapeError):  # mean CCA's prepare step: rows <= cols
            CCA.prepare(rng.normal(size=(8, 9)))
        assert numerics._blas_threads() == 2
        a, b = PROCRUSTES.prepare(rng.normal(size=(12, 3))), PROCRUSTES.prepare(rng.normal(size=(12, 5)))

        def no_convergence(m):
            raise NumericalError("SVD did not converge")

        monkeypatch.setattr(sm, "_singular_values", no_convergence)
        with pytest.raises(NumericalError):  # the pair step
            PROCRUSTES.evaluate(a, b)
        assert numerics._blas_threads() == 2
    finally:
        numerics._set_blas_threads(caller)


@pytest.mark.parametrize("metric", GRID_METRICS, ids=lambda m: m.name)
def test_one_blas_thread_up_to_the_row_limit(monkeypatch, metric):
    _require_openblas()
    before = numerics._blas_threads()
    setter = numerics._set_blas_threads
    calls = []

    def counted(n):
        calls.append(n)
        setter(n)

    rng = np.random.default_rng(46)
    limit = sm._ONE_BLAS_THREAD_ROWS
    # above the limit only the pair step's small factorizations take one
    # thread, each on its own: SVCCA's two 6 x 6 and 5 x 5 truncations and
    # its canonical correlations, and the singular values of the 6 x 5 pair
    # matrix of mean CCA and Procrustes
    small = {"mean_cca": 1, "svcca": 3, "procrustes": 1}.get(metric.name, 0)
    caller = 2  # a caller already on one thread has nothing to cap
    once = [1, caller]
    pairs, scores = {}, {}
    try:
        setter(caller)
        monkeypatch.setattr(numerics, "_set_blas_threads", counted)
        for n, capped in ((limit, True), (limit + 1, False)):
            x, y = pairs[n] = rng.normal(size=(n, 6)), rng.normal(size=(n, 5))
            prepare, pair = (once, once) if capped else ([], small * once)
            calls.clear()
            a, b = metric.prepare(x), metric.prepare(y)
            assert calls == 2 * prepare
            calls.clear()
            scores[n] = metric.evaluate(a, b)
            assert calls == pair
            calls.clear()
            assert metric.evaluate(x, y) == scores[n]
            assert calls == 2 * prepare + pair  # both prepares and the pair step
            assert numerics._blas_threads() == caller
    finally:
        setter(before)
    # without the library the steps run as they are, set nothing and score
    # the same: layers this narrow stay below OpenBLAS's threading sizes
    monkeypatch.setattr(numerics, "_openblas", lambda: None)
    calls.clear()
    assert metric.evaluate(*pairs[limit]) == scores[limit]
    assert calls == []


def test_similarity_matrix_save_load(tmp_path):
    rng = np.random.default_rng(35)
    a = make_set(rng)
    # the same set with one constant layer, which linear CKA flags degenerate
    recs = list(a.records)
    recs[1] = ActivationRecord("flat", 1, np.ones((a.n, 3)))
    flat = ActivationSet(recs, a.labels, a.manifest)
    for s in (a, flat):
        grid = sm.crosslayer_matrix(s, s, sm.MetricKind("linear_cka"))
        clamped = grid.save(str(tmp_path), "grid")
        base = str(tmp_path / "matrix_grid")
        with open(base + ".csv", newline="") as fh:
            rows = list(csv.reader(fh))
        with open(base + ".json") as fh:
            sidecar = json.load(fh)
        ref = str(tmp_path / "ref.ppm")
        assert clamped == write_heatmap(ref, grid.values, *grid.metric.value_range)
        with open(ref, "rb") as fh, open(tmp_path / "heatmap_grid.ppm", "rb") as gh:
            assert gh.read() == fh.read()
        assert rows[0][1:] == grid.col_names
        assert [r[0] for r in rows[1:]] == grid.row_names
        values = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
        assert np.abs(values - grid.values).max() <= 1e-9
        assert metric_from_json(sidecar["metric"]) == grid.metric
        assert sidecar["degenerate"] == np.argwhere(grid.degenerate).tolist()
    assert grid.degenerate[1].all() and grid.degenerate.sum() == 2 * len(recs) - 1
    # a cell past the range by less than the contract's 1e-6 clamps the heatmap
    over = sm.SimilarityMatrix(["r"], ["c"], [[1.0 + 1e-9]], grid.metric, np.zeros((1, 1), bool))
    assert over.save(str(tmp_path), "over")


def test_block_structure_score():
    assert sm.block_structure_score(np.eye(4), 1) == 0.0
    assert sm.block_structure_score(np.ones((3, 3)), 1) == 1.0
    rng = np.random.default_rng(36)
    m = rng.normal(size=(5, 5))
    m = (m + m.T) / 2
    assert sm.block_structure_score(m, 2) == pytest.approx(
        oracles.block_mean_with_loops(m, 2), abs=1e-12
    )
    with pytest.raises(EmptySelectionError):
        sm.block_structure_score(np.eye(3), 3)
