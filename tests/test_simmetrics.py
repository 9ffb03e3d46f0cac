import json

import numpy as np
import pytest

from rslab import simmetrics as sm
from rslab.activations import ActivationRecord, ActivationSet, Condition
from rslab.errors import (
    AlignmentError,
    ConfigError,
    EmptySelectionError,
    FormatError,
    InvalidGramError,
    ManifestError,
    ShapeError,
    ValidationError,
)
from rslab.numerics import gram_linear

import oracles


def random_orthogonal(rng, p):
    q, _ = np.linalg.qr(rng.normal(size=(p, p)))
    return q


# ---------------------------------------------------------------------------
# linear CKA


def test_cka_self_similarity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(10, 4))
    assert sm.linear_cka(x, x) == pytest.approx(1.0, abs=1e-12)


def test_cka_orthogonal_and_scale_invariance():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(12, 5))
    q = random_orthogonal(rng, 5)
    assert sm.linear_cka(x, x @ q) == pytest.approx(1.0, abs=1e-8)
    assert sm.linear_cka(x, 3.7 * x) == pytest.approx(1.0, abs=1e-8)


def test_cka_fixed_example_matches_direct_oracle():
    x = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    y = np.array([[1.0], [-1.0], [0.0]])
    assert sm.linear_cka(x, y) == pytest.approx(oracles.cka_direct(x, y), abs=1e-12)


# (n, px, py) beyond the random tall-ish ones: both sides wider than n, and
# px > n >= py, which take the n x n Gram / factor paths
WIDE_SHAPES = ((8, 30, 20), (8, 30, 5))


def test_cka_matches_direct_oracle_random():
    rng = np.random.default_rng(2)
    shapes = [tuple(int(v) for v in rng.integers((4, 1, 1), (16, 6, 6))) for _ in range(25)]
    for n, px, py in shapes + list(WIDE_SHAPES):
        x = rng.normal(size=(n, px))
        y = rng.normal(size=(n, py))
        assert sm.linear_cka(x, y) == pytest.approx(
            oracles.cka_direct(x, y), abs=1e-10
        )


def test_cka_degenerate_flag():
    rng = np.random.default_rng(3)
    # zero after centering: a tall and a wide constant input
    for x in (np.ones((5, 3)), np.ones((5, 12))):
        y = rng.normal(size=(5, 2))
        val, flag = sm.linear_cka(x, y, with_flag=True)
        assert val == 0.0 and flag


def test_cka_row_mismatch():
    with pytest.raises(ShapeError):
        sm.linear_cka(np.zeros((4, 2)), np.zeros((5, 2)))


def test_cka_translation_invariance():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(9, 3))
    y = rng.normal(size=(9, 4))
    shift = x + rng.normal(size=(1, 3))
    assert sm.linear_cka(shift, y) == pytest.approx(sm.linear_cka(x, y), abs=1e-8)


# ---------------------------------------------------------------------------
# gram-space CKA


def test_gram_cka_self_and_scale():
    rng = np.random.default_rng(5)
    k = gram_linear(rng.normal(size=(7, 3)))
    assert sm.cka_from_grams(k, k) == pytest.approx(1.0, abs=1e-12)
    assert sm.cka_from_grams(k, 4.2 * k) == pytest.approx(1.0, abs=1e-12)


def test_gram_cka_equals_feature_cka():
    rng = np.random.default_rng(6)
    for _ in range(100):
        x = rng.normal(size=(6, 3))
        y = rng.normal(size=(6, 3))
        v1 = sm.cka_from_grams(gram_linear(x), gram_linear(y))
        v2 = sm.linear_cka(x, y)
        assert abs(v1 - v2) <= 1e-10


def test_gram_cka_matches_trace_oracle():
    rng = np.random.default_rng(7)
    k = gram_linear(rng.normal(size=(8, 4)))
    l = gram_linear(rng.normal(size=(8, 2)))
    assert sm.cka_from_grams(k, l) == pytest.approx(
        oracles.cka_trace_form(k, l), abs=1e-12
    )


def test_gram_cka_rejects_asymmetry():
    k = np.eye(4)
    bad = k.copy()
    bad[0, 1] = 1e-6
    with pytest.raises(InvalidGramError):
        sm.cka_from_grams(bad, k)


# ---------------------------------------------------------------------------
# online CKA


def test_online_single_batch_equals_unbiased():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(32, 6))
    y = rng.normal(size=(32, 5))
    assert sm.online_cka(x, y, batch=32, passes=1, seed=0) == pytest.approx(
        sm.unbiased_cka(x, y), abs=0
    )


def test_online_identical_streams():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(64, 8))
    assert sm.online_cka(x, x, batch=16, passes=2, seed=1) == pytest.approx(
        1.0, abs=1e-6
    )


def test_online_converges_to_full_batch():
    rng = np.random.default_rng(10)
    n = 1024
    z = rng.normal(size=(n, 16))
    x = z @ rng.normal(size=(16, 64)) + 0.6 * rng.normal(size=(n, 64))
    y = z @ rng.normal(size=(16, 48)) + 0.6 * rng.normal(size=(n, 48))
    full = sm.unbiased_cka(x, y)
    o = sm.online_cka(x, y, batch=64, passes=3, seed=0)
    assert abs(o - full) <= 0.01


def test_online_deterministic():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(100, 7))
    y = rng.normal(size=(100, 5))
    a = sm.online_cka(x, y, batch=16, passes=2, seed=5)
    b = sm.online_cka(x, y, batch=16, passes=2, seed=5)
    assert a == b
    c = sm.online_cka(x, y, batch=16, passes=2, seed=6)
    assert a != c  # different shuffles almost surely differ


def test_online_misalignment():
    with pytest.raises(AlignmentError):
        sm.online_cka(np.zeros((8, 2)), np.zeros((9, 2)), batch=4)


def test_online_bad_params():
    x = np.random.default_rng(12).normal(size=(16, 3))
    with pytest.raises(ValidationError):
        sm.online_cka(x, x, batch=1)
    with pytest.raises(ValidationError):
        sm.online_cka(x, x, batch=4, passes=0)


# ---------------------------------------------------------------------------
# class-conditional decomposition


def test_class_decomposition_single_class():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(6, 3))
    y = rng.normal(size=(6, 2))
    intra, inter = sm.class_cka_decomposition(x, y, np.zeros(6, dtype=int))
    assert inter == 0.0
    assert intra == pytest.approx(sm.linear_cka(x, y), abs=1e-12)


def test_class_decomposition_identity_sums_to_one():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(10, 4))
    intra, inter = sm.class_cka_decomposition(x, x, rng.integers(0, 3, 10))
    assert intra + inter == pytest.approx(1.0, abs=1e-10)


def test_class_decomposition_matches_loop_oracle():
    rng = np.random.default_rng(15)
    for _ in range(10):
        x = rng.normal(size=(8, 3))
        y = rng.normal(size=(8, 3))
        labels = rng.integers(0, 2, 8)
        intra, inter = sm.class_cka_decomposition(x, y, labels)
        o_intra, o_inter = oracles.class_components(x, y, labels)
        assert intra == pytest.approx(o_intra, abs=1e-10)
        assert inter == pytest.approx(o_inter, abs=1e-10)


def test_class_decomposition_closure_many():
    rng = np.random.default_rng(16)
    for _ in range(100):
        x = rng.normal(size=(9, 4))
        y = rng.normal(size=(9, 3))
        labels = rng.integers(0, 3, 9)
        intra, inter = sm.class_cka_decomposition(x, y, labels)
        assert intra + inter == pytest.approx(sm.linear_cka(x, y), abs=1e-10)


def test_class_decomposition_label_mismatch():
    with pytest.raises(AlignmentError):
        sm.class_cka_decomposition(np.zeros((4, 2)), np.zeros((4, 2)), [0, 1])


# ---------------------------------------------------------------------------
# CCA / SVCCA


def test_mean_cca_self():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(20, 4))
    assert sm.mean_cca(x, x) == pytest.approx(1.0, abs=1e-8)


def test_mean_cca_orthogonal_columns():
    # y built orthogonal to x's centered column space
    rng = np.random.default_rng(18)
    x = rng.normal(size=(30, 3))
    xc = x - x.mean(axis=0)
    q, _ = np.linalg.qr(np.column_stack([xc, np.ones(30)]))
    raw = rng.normal(size=(30, 2))
    y = raw - q @ (q.T @ raw)
    assert sm.mean_cca(x, y) == pytest.approx(0.0, abs=1e-8)


def test_mean_cca_matches_ascent_oracle():
    rng = np.random.default_rng(19)
    x = rng.normal(size=(50, 3))
    y = rng.normal(size=(50, 2))
    assert sm.mean_cca(x, y) == pytest.approx(
        float(oracles.cca_ascent(x, y).mean()), abs=1e-8
    )


def test_mean_cca_requires_more_rows():
    with pytest.raises(ShapeError):
        sm.mean_cca(np.zeros((3, 3)), np.zeros((3, 2)))


def test_mean_cca_rank_deficient_projects():
    rng = np.random.default_rng(20)
    base = rng.normal(size=(25, 2))
    x = np.column_stack([base, base[:, 0] + base[:, 1]])  # rank 2 of 3 cols
    val = sm.mean_cca(x, base)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_svcca_full_fraction_equals_cca():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(30, 4))
    y = rng.normal(size=(30, 3))
    assert sm.svcca(x, y, 1.0) == pytest.approx(sm.mean_cca(x, y), abs=1e-8)


def test_svcca_self():
    rng = np.random.default_rng(22)
    x = rng.normal(size=(25, 5))
    for frac in (0.5, 0.9, 1.0):
        assert sm.svcca(x, x, frac) == pytest.approx(1.0, abs=1e-8)


def test_svcca_matches_composed_oracles():
    rng = np.random.default_rng(23)
    # beyond tall and wide: a tall x with three all-zero columns (dead units,
    # so its R factor is singular), and a square pair (n = p)
    shapes = ((40, 6, 6),) + WIDE_SHAPES + ((40, 8, 5), (12, 12, 12))
    for n, px, py in shapes:
        h = oracles.centering_matrix(n)
        x = rng.normal(size=(n, px))
        y = rng.normal(size=(n, py))
        if px == 8:
            x[:, [1, 4, 6]] = 0.0
        xt = oracles.principal_projection(h @ x, 0.9)
        yt = oracles.principal_projection(h @ y, 0.9)
        expected = float(oracles.cca_ascent(xt, yt).mean())
        assert sm.svcca(x, y, 0.9) == pytest.approx(expected, abs=1e-10)


# ---------------------------------------------------------------------------
# Procrustes


def test_procrustes_self_and_rotation():
    rng = np.random.default_rng(24)
    x = rng.normal(size=(12, 4))
    assert sm.procrustes_similarity(x, x) == pytest.approx(2.0, abs=1e-8)
    q = random_orthogonal(rng, 4)
    assert sm.procrustes_similarity(x, x @ q) == pytest.approx(2.0, abs=1e-8)


def test_procrustes_fixed_example_nuclear_oracle():
    x = np.array([[1.0, 0.0], [0.0, 1.0]]) / np.sqrt(2)
    y = np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2)
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    xn = xc / np.linalg.norm(xc)
    yn = yc / np.linalg.norm(yc)
    expected = 2.0 * oracles.nuclear_norm_jacobi(xn.T @ yn)
    assert sm.procrustes_similarity(x, y) == pytest.approx(expected, abs=1e-9)


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
        assert sm.procrustes_similarity(x, y) == pytest.approx(expected, abs=1e-10)


def test_procrustes_degenerate():
    # a tall and a wide constant input
    for x in (np.ones((4, 2)), np.ones((4, 9))):
        val, flag = sm.procrustes_similarity(x, np.eye(4), with_flag=True)
        assert val == 0.0 and flag


# ---------------------------------------------------------------------------
# shared invariances


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_cka_isotropic_scaling(scale):
    rng = np.random.default_rng(26)
    x = rng.normal(size=(14, 4))
    assert sm.linear_cka(x, scale * x) == pytest.approx(1.0, abs=1e-8)


def test_metric_symmetry():
    rng = np.random.default_rng(27)
    x = rng.normal(size=(20, 4))
    y = rng.normal(size=(20, 3))
    for fn in (sm.linear_cka, sm.mean_cca, sm.procrustes_similarity):
        assert fn(x, y) == pytest.approx(fn(y, x), abs=1e-9)
    assert sm.svcca(x, y, 0.9) == pytest.approx(sm.svcca(y, x, 0.9), abs=1e-9)


def test_translation_invariance_all_metrics():
    rng = np.random.default_rng(28)
    x = rng.normal(size=(20, 4))
    y = rng.normal(size=(20, 3))
    xs = x + rng.normal(size=(1, 4))
    for fn in (sm.linear_cka, sm.mean_cca, sm.procrustes_similarity):
        assert fn(xs, y) == pytest.approx(fn(x, y), abs=1e-8)


def test_orthogonal_invariance_full_suite():
    rng = np.random.default_rng(29)
    x = rng.normal(size=(24, 5))
    q = random_orthogonal(rng, 5)
    xq = x @ q
    assert sm.linear_cka(x, xq) == pytest.approx(1.0, abs=1e-8)
    assert sm.procrustes_similarity(x, xq) == pytest.approx(2.0, abs=1e-8)
    assert sm.mean_cca(x, xq) == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# MetricKind / SimilarityMatrix / crosslayer


def make_set(rng, layers=3, n=8, model="m"):
    recs = [
        ActivationRecord(
            f"l{i:02d}", i, rng.normal(size=(n, int(rng.integers(2, 5)))),
            Condition.benign(), model,
        )
        for i in range(layers)
    ]
    return ActivationSet(recs, rng.integers(0, 2, n), {"model_id": model})


def test_metric_kind_validation():
    with pytest.raises(ConfigError):
        sm.MetricKind("nope")
    with pytest.raises(ValidationError):
        sm.MetricKind.online_cka(batch=1)
    with pytest.raises(ValidationError):
        sm.MetricKind.svcca(variance_fraction=0.0)
    assert sm.MetricKind.procrustes().value_range == (0.0, 2.0)
    assert sm.MetricKind.linear_cka().value_range == (0.0, 1.0)


def test_metric_kind_json_roundtrip():
    m = sm.MetricKind.online_cka(batch=32, passes=2, seed=9)
    assert sm.MetricKind.from_json(m.to_json()) == m
    with pytest.raises(ConfigError):
        sm.MetricKind.from_json({"name": "linear_cka", "bogus": 1})


@pytest.mark.parametrize("d", [
    {},
    {"name": "online_cka", "batch": "x", "passes": 1},
    {"name": "svcca", "variance_fraction": "0.5"},
], ids=["no-name", "string-batch", "string-fraction"])
def test_metric_kind_from_json_rejects_bad_field_types(d):
    with pytest.raises(ConfigError):
        sm.MetricKind.from_json(d)


def test_crosslayer_self_symmetric_unit_diagonal():
    rng = np.random.default_rng(30)
    a = make_set(rng)
    grid = sm.crosslayer_matrix(a, a, sm.MetricKind.linear_cka())
    assert grid.values.shape == (3, 3)
    assert np.allclose(np.diag(grid.values), 1.0)
    assert np.array_equal(grid.values, grid.values.T)


def test_crosslayer_single_layer():
    rng = np.random.default_rng(31)
    a = make_set(rng, layers=1)
    b = make_set(rng, layers=1)
    grid = sm.crosslayer_matrix(a, b, sm.MetricKind.linear_cka())
    expected = sm.linear_cka(a.records[0].matrix, b.records[0].matrix)
    assert grid.values.shape == (1, 1)
    assert grid.values[0, 0] == pytest.approx(expected, abs=1e-12)


def test_crosslayer_range_respected_random_sets():
    rng = np.random.default_rng(32)
    for _ in range(20):
        a = make_set(rng, layers=2, n=10)
        b = make_set(rng, layers=3, n=10)
        for metric in (sm.MetricKind.linear_cka(), sm.MetricKind.procrustes()):
            grid = sm.crosslayer_matrix(a, b, metric)
            lo, hi = metric.value_range
            assert grid.values.min() >= lo - 1e-6
            assert grid.values.max() <= hi + 1e-6


def test_crosslayer_n_mismatch():
    rng = np.random.default_rng(33)
    with pytest.raises(ShapeError):
        sm.crosslayer_matrix(make_set(rng, n=6), make_set(rng, n=7), sm.MetricKind.linear_cka())


def _set_with_constant_layer(rng, z, widths, model):
    # layers share the latent signal z, so online CKA's small-batch estimates
    # stay inside the [0, 1] range a SimilarityMatrix enforces
    n = z.shape[0]
    mats = [
        z @ rng.normal(size=(2, p)) + 0.3 * rng.normal(size=(n, p)) for p in widths
    ] + [np.ones((n, 4))]
    recs = [
        ActivationRecord(f"l{i:02d}", i, m, Condition.benign(), model)
        for i, m in enumerate(mats)
    ]
    return ActivationSet(recs, rng.integers(0, 2, n), {"model_id": model})


GRID_METRICS = (
    sm.MetricKind.linear_cka(),
    sm.MetricKind.online_cka(batch=8, passes=2, seed=3),
    sm.MetricKind.mean_cca(),
    sm.MetricKind.svcca(0.9),
    sm.MetricKind.procrustes(),
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
        cells = [
            [metric.evaluate(r.matrix, s.matrix, with_flag=True) for s in y.records]
            for r in x.records
        ]
        values = np.array([[v for v, _ in row] for row in cells])
        flags = np.array([[f for _, f in row] for row in cells])
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


def test_crosslayer_prepares_each_layer_once(monkeypatch):
    rng = np.random.default_rng(38)
    a = make_set(rng, layers=4, n=12)
    b = make_set(rng, layers=3, n=12)
    bases = _count_calls(monkeypatch, "_orthonormal_basis")
    sm.crosslayer_matrix(a, a, sm.MetricKind.mean_cca())
    assert len(bases) == 4
    sm.crosslayer_matrix(a, b, sm.MetricKind.mean_cca())
    assert len(bases) == 4 + 4 + 3
    # svcca still truncates both layers in every cell: the benchmark's traced
    # self-check pins two svd_truncate calls per cell until its revision
    # (ROADMAP item 1) allows truncating each layer once
    truncations = _count_calls(monkeypatch, "svd_truncate")
    sm.crosslayer_matrix(a, a, sm.MetricKind.svcca(0.9))
    assert len(truncations) == 2 * (4 * 5 // 2)
    sm.crosslayer_matrix(a, b, sm.MetricKind.svcca(0.9))
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
    sm.crosslayer_matrix(c, c, sm.MetricKind.svcca(0.9))
    assert len(factorings) == 4
    sm.crosslayer_matrix(c, d, sm.MetricKind.svcca(0.9))
    assert len(factorings) == 4 + 4 + 3


def test_svcca_row_mismatch_raises():
    rng = np.random.default_rng(39)
    metric = sm.MetricKind.svcca(0.9)
    # every p equals the other side's n or p, so only the row counts differ
    tall_a, tall_b = rng.normal(size=(30, 10)), rng.normal(size=(20, 10))
    wide = rng.normal(size=(10, 25))
    for x, y in ((tall_a, tall_b), (wide, tall_b), (tall_a, wide)):
        with pytest.raises(ShapeError):
            metric.evaluate(x, y)
        with pytest.raises(ShapeError):
            metric.evaluate(metric.prepare(x), metric.prepare(y))


def test_similarity_matrix_save_load(tmp_path):
    rng = np.random.default_rng(35)
    a = make_set(rng)
    # the same set with one constant layer, which linear CKA flags degenerate
    recs = list(a.records)
    recs[1] = ActivationRecord("flat", 1, np.ones((a.n, 3)), Condition.benign(), "m")
    flat = ActivationSet(recs, a.labels, a.manifest)
    for s in (a, flat):
        grid = sm.crosslayer_matrix(s, s, sm.MetricKind.linear_cka())
        base = str(tmp_path / "grid")
        grid.save(base)
        loaded = sm.SimilarityMatrix.load(base)
        assert loaded.row_names == grid.row_names
        assert np.abs(loaded.values - grid.values).max() <= 1e-9
        assert loaded.metric == grid.metric
        assert np.array_equal(loaded.degenerate, grid.degenerate)
    assert grid.degenerate[1].all() and grid.degenerate.sum() == 2 * len(recs) - 1


def _set_sidecar(key, value):
    def edit(base):
        with open(base + ".json") as fh:
            sidecar = json.load(fh)
        sidecar[key] = value
        with open(base + ".json", "w") as fh:
            json.dump(sidecar, fh)
    return edit


def _rewrite(ext, fn):
    def edit(base):
        with open(base + ext) as fh:
            text = fh.read()
        with open(base + ext, "w") as fh:
            fh.write(fn(text))
    return edit


@pytest.mark.parametrize("edit, error", [
    (_set_sidecar("degenerate", [[-1, 0]]), ManifestError),
    (_set_sidecar("degenerate", [[5, 0]]), ManifestError),
    (_set_sidecar("degenerate", [[0, 3]]), ManifestError),
    (_set_sidecar("degenerate", [[1.0, 0]]), ManifestError),
    (_set_sidecar("degenerate", [[True, 0]]), ManifestError),
    (_set_sidecar("degenerate", [[0]]), ManifestError),
    (_set_sidecar("degenerate", {"0": 0}), ManifestError),
    (_rewrite(".json", lambda t: t[: len(t) // 2]), ManifestError),
    (_rewrite(".json", lambda t: "[]"), ManifestError),
    (_set_sidecar("metric", {}), ManifestError),
    (_rewrite(".csv", lambda t: t.replace("\n", ",0.5\n", 2)), FormatError),
    (_rewrite(".csv", lambda t: t.rsplit(",", 1)[0] + "\n"), FormatError),
    (_rewrite(".csv", lambda t: t.rsplit(",", 1)[0] + ",high\n"), FormatError),
    (_rewrite(".csv", lambda t: t.rsplit(",", 1)[0] + ",nan\n"), FormatError),
    (_rewrite(".csv", lambda t: ""), FormatError),
], ids=["negative-index", "row-past-end", "col-past-end", "float-index",
        "bool-index", "short-cell", "not-a-list", "truncated-json",
        "json-not-object", "nameless-metric", "ragged-row", "short-row",
        "non-numeric-cell", "nan-cell", "empty-csv"])
def test_similarity_matrix_load_rejects_malformed(tmp_path, edit, error):
    rng = np.random.default_rng(35)
    a = make_set(rng)
    base = str(tmp_path / "grid")
    sm.crosslayer_matrix(a, a, sm.MetricKind.linear_cka()).save(base)
    sm.SimilarityMatrix.load(base)
    edit(base)
    with pytest.raises(error):
        sm.SimilarityMatrix.load(base)


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
