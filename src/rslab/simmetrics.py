"""Representation-similarity metrics over activation matrices.

All metrics take n x p activation matrices over the same n probe points,
center columns internally, and are invariant to orthogonal transformations
of the columns; the CKA family is additionally invariant to isotropic
scaling. Degenerate is a property of a layer: `prepare` flags one that is
all zero after centering (for SVCCA, whose square factor is all zero;
online CKA flags none), and it scores 0 against anything instead of NaN so
grids stay renderable.

Each metric runs in two steps: `MetricKind.prepare` does a layer's own work
once, and a cheap pair step scores two prepared layers. `crosslayer_matrix`
prepares each distinct layer once per grid; `MetricKind.evaluate` and the
single-pair functions prepare raw matrices themselves, so every caller runs
the same code. `score_grid` is the one cell loop over prepared layers, and
`SimilarityMatrix.save` writes a grid's CSV, JSON sidecar and heatmap.
What each metric prepares, and what its pair step does:

- linear CKA: the centered matrix, plus the n x n Gram and its norm for a
  wide layer (p > n) or |X^T X|_F for a tall one. Two wide layers pair
  through sum(K * L), any other pair through |Y^T X|_F^2.
- online CKA: the column means and the layer's self-HSIC summed over the
  batch schedule. The pair step walks the same schedule and accumulates
  only the cross term, so values match the one-pass estimator bit for bit.
  Each batch's unbiased HSIC is taken from its features, through |X^T Y|_F^2
  and the row norms and row sums of the two batches, when
  2 px py <= m (px + py); only a batch wider than that forms m x m Grams.
- mean CCA: the orthonormal basis of the centered column space; the pair
  step takes the singular values of Qx^T Qy.
- SVCCA: a square factor with the centered layer's singular values: R^T
  from the QR of a tall layer (p < n), which keeps the centered layer too,
  or the n x n `gram_factor` of a wide or square one. The pair step
  truncates both factors with `numerics.svd_truncate`, turns the truncated
  columns into weights of the layers' leading principal directions, and
  takes the canonical correlations of those directions.
- Procrustes: the centered, unit-norm `gram_factor` (n x n for a wide
  layer); the pair step pads the narrower factor and takes the nuclear norm.

A layer enters only through its n x n Gram, so the Gram and factor forms
above, chosen from the shapes alone, equal the feature-space ones in exact
arithmetic and change no value beyond rounding.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import errors
from .errors import (
    AlignmentError,
    ConfigError,
    EmptySelectionError,
    NumericalError,
    ShapeError,
    ValidationError,
)
from .numerics import (
    as_matrix,
    center_columns,
    frobenius_norm,
    gram_factor,
    gram_linear,
    nuclear_norm,
    svd_truncate,
)
from .ppm import write_heatmap


def linear_cka(x, y):
    """Linear CKA: |Y^T X|_F^2 / (|X^T X|_F |Y^T Y|_F) on centered matrices.

    Returns a float in [0, 1]; 0 when either input is degenerate (zero after
    centering).
    """
    return MetricKind.linear_cka().evaluate(x, y)


def _zero_diagonal_gram(m: np.ndarray) -> np.ndarray:
    """m @ m.T with its diagonal set to zero: the K~ of the unbiased HSIC."""
    k = m @ m.T
    np.fill_diagonal(k, 0.0)
    return k


def _row_terms(x: np.ndarray):
    """The Gram diagonal d (squared row norms) and the row sums X (X^T 1) - d
    of the zero-diagonal Gram, from the features."""
    d = (x * x).sum(axis=1)
    return d, x @ x.sum(axis=0) - d


def _hsic_unbiased(x: np.ndarray, y: np.ndarray) -> float:
    """Diagonal-excluded U-statistic HSIC of two m-row batches; needs m >= 4.

    With K~ and L~ the zero-diagonal Grams, d = diag(K) the squared row
    norms and k the row sums of K~, the terms are sum(K~ * L~),
    1^T K~ 1 = sum(k_x) and 1^T K~ L~ 1 = k_x . k_y. When
    2 px py <= m (px + py) they come from the features:
    sum(K~ * L~) = |X^T Y|_F^2 - d_x . d_y and k = X (X^T 1) - d. Otherwise
    they come from the two m x m Grams. Pass y is x for the self term.
    """
    m = x.shape[0]
    if m < 4:
        raise ShapeError(f"unbiased HSIC needs at least 4 points, got {m}")
    px, py = x.shape[1], y.shape[1]
    # X^T Y is a GEMM of 2 m px py flops; each Gram is a SYRK of m^2 p. The
    # self term takes the rule of two equal layers and copies y, so that
    # x.T @ x runs the same GEMM, not a SYRK that rounds differently: the
    # grid's diagonal must equal scoring a copy of the layer bit for bit.
    # For p <= m the copied GEMM took at most 1.3x the Gram's time
    # (m of 96 to 1024, OpenBLAS on two x86-64 cores).
    if 2 * px * py <= m * (px + py):
        dx, kx = _row_terms(x)
        dy, ky = (dx, kx) if y is x else _row_terms(y)
        c = x.T @ (y.copy() if y is x else y)
        kl = float((c * c).sum()) - float(dx @ dy)
    else:
        k = _zero_diagonal_gram(x)
        l = k if y is x else _zero_diagonal_gram(y)
        kx, ky = k.sum(axis=0), l.sum(axis=0)
        kl = float((k * l).sum())
    term = (
        kl
        + kx.sum() * ky.sum() / ((m - 1) * (m - 2))
        - 2.0 * float(kx @ ky) / (m - 2)
    )
    return term / (m * (m - 3))


def _hsic_swap(x, y, self_x: float, self_y: float) -> bool:
    """Whether y goes first in `_hsic_unbiased(x, y)`.

    x.T @ y and y.T @ x round differently, so a pair takes one order either
    way round: the narrower layer first, then the smaller self-HSIC.
    """
    return (y.shape[1], self_y) < (x.shape[1], self_x)


def online_cka(x, y, batch: int, passes: int = 3, seed: int = 0) -> float:
    """Streaming CKA over shuffled minibatches.

    Per batch, the unbiased HSIC estimator is evaluated for the numerator and
    both denominator terms; the three sums are accumulated across all batches
    and passes and combined once at the end. Deterministic for a fixed seed.
    A trailing batch smaller than 4 points is folded into its predecessor.
    One pass with batch >= n is the full-data CKA of unbiased HSIC terms.
    """
    return MetricKind.online_cka(batch, passes, seed).evaluate(x, y)


def class_cka_decomposition(x, y, labels):
    """Split linear CKA into same-class and cross-class Gram contributions.

    Returns (intra, inter) with intra + inter equal to linear_cka(x, y).
    Components are raw signed sums over the centered Grams; either may be
    negative, and normalization is left to the caller.
    """
    kind = MetricKind.linear_cka()
    a, b = kind.prepare(x, "x"), kind.prepare(y, "y")
    if a.n != b.n:
        raise ShapeError(f"row counts differ: {a.n} vs {b.n}")
    labels = np.asarray(labels)
    if labels.ndim != 1 or len(labels) != a.n:
        raise AlignmentError(f"labels length {labels.shape} does not match {a.n} rows")
    if a.degenerate or b.degenerate:
        return 0.0, 0.0
    d = a.norm * b.norm
    prod = (a.matrix @ a.matrix.T) * (b.matrix @ b.matrix.T)
    same = labels[:, None] == labels[None, :]
    return float(prod[same].sum()) / d, float(prod[~same].sum()) / d


def _orthonormal_basis(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column space, dropping near-null directions."""
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return u[:, :0]
    tol = max(m.shape) * np.finfo(np.float64).eps * s[0]
    return u[:, s > tol]


def mean_cca(x, y):
    """Mean of the canonical correlation coefficients between x and y.

    Each matrix is centered and orthonormalized (projecting to its column
    space if rank deficient); the singular values of Qx^T Qy are the
    canonical correlations. Requires more rows than columns on both sides.
    """
    return MetricKind.mean_cca().evaluate(x, y)


def svcca(x, y, variance_fraction: float = 0.99):
    """CCA after truncating both inputs to their leading principal directions."""
    return MetricKind.svcca(variance_fraction).evaluate(x, y)


def procrustes_similarity(x, y):
    """Orthogonal Procrustes similarity 2|X^T Y|_* on normalized matrices.

    Inputs are centered and scaled to unit Frobenius norm. An input wider
    than n is replaced by its n x n `gram_factor`, which leaves |X^T Y|_*
    unchanged; the narrower matrix is then zero-padded (padding leaves the
    cross-product nuclear norm unchanged too). Value lies in [0, 2];
    identical matrices score 2.
    """
    return MetricKind.procrustes().evaluate(x, y)


@dataclass(frozen=True, eq=False)
class PreparedLayer:
    """One n x p layer after `MetricKind.prepare`, ready for any pair step.

    `matrix` is what the pair step multiplies: the centered matrix (linear
    CKA), the orthonormal basis (mean CCA), the unit-norm `gram_factor`
    (Procrustes), the square factor with the centered layer's singular
    values (SVCCA), or the validated input itself (online CKA).
    `centered` is a tall SVCCA layer's centered n x p matrix, kept next to
    the p x p factor in `matrix` to map its directions back to the n rows.
    `gram` is a wide layer's n x n Gram (linear CKA), `mean` the column
    means (online CKA), and `norm` the layer's own denominator term:
    |X^T X|_F for linear CKA, the summed self-HSIC for online CKA. Online
    CKA keeps no batch: each step centres `matrix[idx]` with `mean` again
    and scores it in feature space, or through m x m Grams when the batch is
    wide (2 px py > m (px + py)).
    `degenerate` marks a layer that scores 0 against anything.
    """

    metric: "MetricKind"
    matrix: np.ndarray
    degenerate: bool = False
    centered: np.ndarray | None = None
    gram: np.ndarray | None = None
    mean: np.ndarray | None = None
    norm: float = 0.0

    @property
    def n(self) -> int:
        return (self.matrix if self.centered is None else self.centered).shape[0]


def _centered(x: np.ndarray) -> np.ndarray:
    x = center_columns(x)
    if x.shape[0] < 2:
        raise ShapeError(f"need at least 2 rows, got {x.shape[0]}")
    return x


def _prepare_linear_cka(kind, x):
    x = _centered(x)
    if x.shape[0] < x.shape[1]:
        # wide: |X^T X|_F = |K|_F through the smaller n x n Gram
        k = gram_linear(x)
        norm = frobenius_norm(k)
    else:
        k = None
        norm = float(np.linalg.norm(x.T @ x))
    return PreparedLayer(kind, x, norm == 0.0, gram=k, norm=norm)


def _pair_linear_cka(kind, a, b):
    if a.degenerate or b.degenerate:
        return 0.0
    if a.gram is not None and b.gram is not None:
        num = float((a.gram * b.gram).sum())  # sum(K * L) = |Y^T X|_F^2
    else:
        num = float(np.linalg.norm(b.matrix.T @ a.matrix) ** 2)
    return min(max(num / (a.norm * b.norm), 0.0), 1.0)


def _online_batches(n: int, kind):
    """Row indices of online CKA's minibatches, in accumulation order.

    A single batch holding every point needs no shuffle; keeping the input
    order makes it agree exactly with the full-data estimator.
    """
    rng = np.random.default_rng(kind.seed or 0)
    for _ in range(kind.passes):
        order = rng.permutation(n) if kind.batch < n else np.arange(n)
        starts = list(range(0, n, kind.batch))
        if len(starts) > 1 and n - starts[-1] < 4:
            starts.pop()  # fold short remainder into the previous batch
        for i, s in enumerate(starts):
            e = starts[i + 1] if i + 1 < len(starts) else n
            yield order[s:e]


def _prepare_online_cka(kind, x):
    if x.shape[0] < 4:
        raise ShapeError(f"need at least 4 points, got {x.shape[0]}")
    # x[idx] - mean has the bits of (x - mean)[idx]: no centered copy is kept
    mean = x.mean(axis=0, keepdims=True)
    self_hsic = 0.0
    for idx in _online_batches(x.shape[0], kind):
        xb = x[idx] - mean
        self_hsic += _hsic_unbiased(xb, xb)
    return PreparedLayer(kind, x, mean=mean, norm=self_hsic)


def _pair_online_cka(kind, a, b):
    # an unbiased self-HSIC can be <= 0 for a non-constant layer too, so
    # `prepare` flags no layer for this 0
    if a.norm <= 0.0 or b.norm <= 0.0:
        return 0.0
    if b is a:
        num = a.norm  # the cross sums would repeat the self sums exactly
    else:
        if _hsic_swap(a.matrix, b.matrix, a.norm, b.norm):
            a, b = b, a
        num = 0.0
        for idx in _online_batches(a.n, kind):
            num += _hsic_unbiased(a.matrix[idx] - a.mean, b.matrix[idx] - b.mean)
    return num / float(np.sqrt(a.norm * b.norm))


def _canonical_mean(c: np.ndarray) -> float:
    """Mean canonical correlation, given Qx^T Qy of two orthonormal bases."""
    try:
        rho = np.linalg.svd(c, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"CCA SVD failed: {exc}") from exc
    return float(np.clip(rho, 0.0, 1.0).mean())


def _require_rows_over_cols(n: int, *cols: int) -> None:
    if n <= max(cols):
        widths = "/".join(str(c) for c in cols)
        raise ShapeError(f"CCA needs rows > cols, got {n} rows vs {widths} cols")


def _prepare_mean_cca(kind, x):
    x = _centered(x)
    _require_rows_over_cols(*x.shape)
    try:
        q = _orthonormal_basis(x)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"CCA SVD failed: {exc}") from exc
    return PreparedLayer(kind, q, q.shape[1] == 0)


def _pair_mean_cca(kind, a, b):
    if a.degenerate or b.degenerate:
        return 0.0
    return _canonical_mean(a.matrix.T @ b.matrix)


def _prepare_svcca(kind, x):
    # factor once, but truncate in the pair step: the traced self-check in
    # perfbench/workloads.py pins two `svd_truncate` calls per svcca cell
    x = center_columns(x)
    tall = x.shape[1] < x.shape[0]
    # a tall x = Q R, so R^T = V S U_R^T has x's S and V; Q is never formed
    f = np.linalg.qr(x, mode="r").T if tall else gram_factor(x)
    return PreparedLayer(kind, f, not f.any(), centered=x if tall else None)


def _principal_weights(layer, t: np.ndarray):
    """W with U_k = A W.

    t is U_k S_k of a wide or square layer, where A is the identity, and
    V_k S_k of a tall one, where A is the centered layer: X V_k = U_k S_k.
    """
    s2 = (t * t).sum(axis=0)
    return t / np.sqrt(s2) if layer.centered is None else t / s2


def _in_rows(layer, w: np.ndarray) -> np.ndarray:
    return w if layer.centered is None else layer.centered @ w


def _pair_svcca(kind, a, b):
    # both factors are square, so each truncation is one small SVD; a
    # degenerate layer is truncated too: the traced self-check pins two per cell
    xt = svd_truncate(a.matrix, kind.variance_fraction)
    yt = svd_truncate(b.matrix, kind.variance_fraction)
    _require_rows_over_cols(a.n, xt.shape[1], yt.shape[1])
    if a.degenerate or b.degenerate:
        return 0.0
    wx = _principal_weights(a, xt)
    wy = _principal_weights(b, yt)
    if a.centered is not None and b.centered is not None:
        # two tall layers: one p x p product over the n rows
        return _canonical_mean(wx.T @ (a.centered.T @ b.centered) @ wy)
    return _canonical_mean(_in_rows(a, wx).T @ _in_rows(b, wy))


def _prepare_procrustes(kind, x):
    x = _centered(x)
    f = np.linalg.norm(x)
    if f == 0.0:
        return PreparedLayer(kind, x, True)
    return PreparedLayer(kind, gram_factor(x / f))


def _pair_procrustes(kind, a, b):
    if a.degenerate or b.degenerate:
        return 0.0
    x, y = a.matrix, b.matrix
    if x.shape[1] < y.shape[1]:
        x = np.pad(x, ((0, 0), (0, y.shape[1] - x.shape[1])))
    elif y.shape[1] < x.shape[1]:
        y = np.pad(y, ((0, 0), (0, x.shape[1] - y.shape[1])))
    return min(max(2.0 * nuclear_norm(x.T @ y), 0.0), 2.0)


# per metric: (prepare one layer, score a pair of prepared layers)
_STEPS = {
    "linear_cka": (_prepare_linear_cka, _pair_linear_cka),
    "online_cka": (_prepare_online_cka, _pair_online_cka),
    "mean_cca": (_prepare_mean_cca, _pair_mean_cca),
    "svcca": (_prepare_svcca, _pair_svcca),
    "procrustes": (_prepare_procrustes, _pair_procrustes),
}

METRIC_NAMES = tuple(_STEPS)
# the parameters each metric takes; the other metrics take none
_PARAMS = {"online_cka": ("batch", "passes", "seed"), "svcca": ("variance_fraction",)}


@dataclass(frozen=True)
class MetricKind:
    """A similarity metric plus its parameters, dispatchable over matrix pairs."""

    name: str
    batch: int | None = None
    passes: int | None = None
    seed: int | None = None
    variance_fraction: float | None = None

    def __post_init__(self):
        if self.name not in METRIC_NAMES:
            raise ConfigError(f"unknown metric {self.name!r}")
        for k in ("batch", "passes", "seed", "variance_fraction"):
            if getattr(self, k) is not None and k not in _PARAMS.get(self.name, ()):
                raise ConfigError(f"{self.name} takes no parameter {k!r}")
        if self.name == "online_cka":
            if self.batch is None or self.batch < 4:  # the unbiased HSIC's minimum
                raise ValidationError("online_cka needs batch >= 4")
            if self.passes is None or self.passes < 1:
                raise ValidationError("online_cka needs passes >= 1")
            if self.seed is not None and self.seed < 0:
                raise ValidationError("online_cka needs seed >= 0")
        if self.name == "svcca":
            f = self.variance_fraction
            if f is None or not 0.0 < f <= 1.0:
                raise ValidationError("svcca needs variance_fraction in (0, 1]")

    @classmethod
    def linear_cka(cls) -> "MetricKind":
        return cls("linear_cka")

    @classmethod
    def online_cka(cls, batch: int = 1024, passes: int = 3, seed: int = 0):
        return cls("online_cka", batch=batch, passes=passes, seed=seed)

    @classmethod
    def mean_cca(cls) -> "MetricKind":
        return cls("mean_cca")

    @classmethod
    def svcca(cls, variance_fraction: float = 0.99) -> "MetricKind":
        return cls("svcca", variance_fraction=variance_fraction)

    @classmethod
    def procrustes(cls) -> "MetricKind":
        return cls("procrustes")

    @property
    def value_range(self) -> tuple:
        return (0.0, 2.0) if self.name == "procrustes" else (0.0, 1.0)

    def prepare(self, x, name: str = "x") -> PreparedLayer:
        """Validate one n x p layer and do this metric's per-layer work once."""
        return _STEPS[self.name][0](self, as_matrix(x, name))

    def evaluate(self, x, y) -> float:
        """Score one pair of layers, given raw or as `prepare` returned them."""
        a = x if isinstance(x, PreparedLayer) else self.prepare(x, "x")
        b = y if isinstance(y, PreparedLayer) else self.prepare(y, "y")
        if a.metric != self or b.metric != self:
            raise ValidationError(f"layer was not prepared for {self!r}")
        if a.n != b.n:
            error = AlignmentError if self.name == "online_cka" else ShapeError
            raise error(f"row counts differ: {a.n} vs {b.n}")
        return _STEPS[self.name][1](self, a, b)

    def to_json(self) -> dict:
        return errors.to_json(self)

    @classmethod
    def from_json(cls, d: dict) -> "MetricKind":
        return errors.from_json(cls, d, "metric")


@dataclass
class SimilarityMatrix:
    """A layerA x layerB grid of metric scores with its range contract.

    `degenerate` is always set: a boolean grid of the cells whose pair had a
    degenerate layer, the outer OR of the layers' flags.
    """

    row_names: list
    col_names: list
    values: np.ndarray
    metric: MetricKind
    degenerate: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (len(self.row_names), len(self.col_names)):
            raise ShapeError("values shape does not match layer name lists")
        lo, hi = self.metric.value_range
        if self.values.size and (
            self.values.min() < lo - 1e-6 or self.values.max() > hi + 1e-6
        ):
            raise ValidationError(
                f"values outside metric range [{lo}, {hi}] beyond 1e-6"
            )

    def save(self, out_dir: str, label: str) -> bool:
        """Write matrix_<label>.csv (with headers), its .json sidecar and
        heatmap_<label>.ppm into out_dir; returns whether the heatmap clamped."""
        base = os.path.join(out_dir, f"matrix_{label}")
        rows = [[name, *row] for name, row in zip(self.row_names, self.values)]
        errors.write_csv(base + ".csv", ["", *self.col_names], rows)
        sidecar = {
            "metric": self.metric.to_json(),
            "range": list(self.metric.value_range),
            "n": self.meta.get("n"),
            "model_ids": self.meta.get("model_ids"),
            "conditions": self.meta.get("conditions"),
            "degenerate": np.argwhere(self.degenerate).tolist(),
        }
        errors.write_json(base + ".json", sidecar)
        heatmap = os.path.join(out_dir, f"heatmap_{label}.ppm")
        return write_heatmap(heatmap, self.values, *self.metric.value_range)


def score_grid(metric: MetricKind, rows: list, cols: list) -> np.ndarray:
    """`metric.evaluate` of every (row, column) pair of prepared layers, row by
    row; when `cols` is `rows` only the upper triangle, diagonal included, is
    scored and then mirrored (every metric here is symmetric)."""
    same = rows is cols
    values = np.zeros((len(rows), len(cols)))
    for i, a in enumerate(rows):
        for j in range(i if same else 0, len(cols)):
            values[i, j] = metric.evaluate(a, cols[j])
            if same:
                values[j, i] = values[i, j]
    return values


def crosslayer_matrix(a: "ActivationSet", b: "ActivationSet", metric: MetricKind):
    """Evaluate `metric` over every (layer of a) x (layer of b) pair.

    Each distinct layer is prepared once, then `score_grid` scores every
    cell; when both sets are the same object it scores the upper triangle
    and mirrors it. A cell is degenerate when either of its layers is.
    """
    if a.n != b.n:
        raise ShapeError(f"probe sizes differ: {a.n} vs {b.n}")
    pa = [metric.prepare(r.matrix) for r in a.records]
    pb = pa if a is b else [metric.prepare(r.matrix) for r in b.records]
    values = score_grid(metric, pa, pb)
    degenerate = np.logical_or.outer([p.degenerate for p in pa], [p.degenerate for p in pb])
    meta = {
        "n": a.n,
        "model_ids": [a.manifest.get("model_id"), b.manifest.get("model_id")],
        "conditions": [a.manifest.get("condition"), b.manifest.get("condition")],
    }
    return SimilarityMatrix(
        a.layer_names, b.layer_names, values, metric, degenerate, meta
    )


def block_structure_score(m: SimilarityMatrix | np.ndarray, min_lag: int) -> float:
    """Mean similarity over layer pairs at index distance >= min_lag.

    High values mean long-range similarity across distant layers; low values
    mean similarity is confined to a band near the diagonal.
    """
    values = m.values if isinstance(m, SimilarityMatrix) else np.asarray(m)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ShapeError(f"need a square matrix, got {values.shape}")
    size = values.shape[0]
    if min_lag >= size:
        raise EmptySelectionError(f"min_lag {min_lag} >= matrix size {size}")
    if min_lag < 0:
        raise ValidationError("min_lag must be >= 0")
    i, j = np.indices(values.shape)
    sel = np.abs(i - j) >= min_lag
    return float(values[sel].mean())
