"""Representation-similarity metrics over activation matrices.

All metrics take n x p activation matrices over the same n probe points,
center columns internally, and are invariant to orthogonal transformations
of the columns; the CKA family is additionally invariant to isotropic
scaling. Degenerate is a property of a layer: `prepare` flags one that is
all zero after centering (for SVCCA, whose square factor is all zero;
online CKA flags none), and it scores 0 against anything instead of NaN so
grids stay renderable.

`MetricKind` is the one way to score: its docstring defines each metric.
A metric's parameters and their defaults live only in `_PARAMS`, which
`MetricKind` fills in from.

Each metric runs in two steps: `MetricKind.prepare` widens, validates and
centers a layer once and does that metric's own work on it, and a cheap
pair step scores two prepared layers. `crosslayer_matrix`
prepares each distinct layer once per grid; `MetricKind.evaluate` also
takes raw matrices and prepares them itself, so every caller runs the same
code. `score_grid`, the one cell loop over prepared layers, builds
every grid's `SimilarityMatrix`, and `SimilarityMatrix.save` writes its
CSV, JSON sidecar and heatmap.
What each metric prepares, and what its pair step does:

- linear CKA: the n x n Gram K and its norm for a wide layer (p > n),
  which keeps no centered copy, or the centered matrix and |X^T X|_F for a
  tall one. Two wide layers pair through sum(K * L), a wide and a tall one
  through sum((K Y) * Y) and two tall ones through |Y^T X|_F^2, all equal
  to |Y^T X|_F^2 (Kornblith et al. 2019).
- online CKA: the centered matrix, the layer's self-HSIC summed over the
  batch schedule, and each batch's row norms and row sums. The pair step
  walks the same schedule and accumulates only the cross term over the same
  batch rows of the two centered layers, reading the kept row terms, so
  values match the one-pass estimator bit for bit.
  Each batch's unbiased HSIC is taken from its features, through |X^T Y|_F^2
  and the row norms and row sums of the two batches, when
  2 px py <= m (px + py); only a batch wider than that forms m x m Grams.
- mean CCA: the orthonormal basis of the centered column space; the pair
  step takes the singular values of Qx^T Qy.
- SVCCA: a square factor V sqrt(lambda) with the centered layer's singular
  values, from one eigendecomposition of its smaller Gram: p x p of X^T X
  for a tall layer (p < n), which keeps the centered layer too, or n x n
  of X X^T for a wide or square one. The pair step truncates both factors
  with `numerics.svd_truncate`, itself one eigendecomposition of the
  factor's Gram, turns the truncated columns into weights of the layers'
  leading principal directions, and takes the canonical correlations of
  those directions. Through the Gram a direction of singular value s is
  resolved to about eps (s_max / s)^2, so only directions far below the
  kept variance lose digits.
- Procrustes: the centered, unit-norm `gram_factor` (n x n for a wide
  layer); the pair step takes the nuclear norm of the factors' product, a
  rectangular matrix when their widths differ.

A layer enters only through its n x n Gram, so the Gram and factor forms
above, chosen from the shapes alone, equal the feature-space ones in exact
arithmetic and change no value beyond rounding.

A layer of at most `_ONE_BLAS_THREAD_ROWS` (512) rows runs its prepare and
pair steps on one OpenBLAS thread (`numerics._one_blas_thread`): there the
second thread makes the small factorizations and products slower, and a
small-probe grid's bits no longer depend on the caller's thread count. A
larger layer runs each small factorization the same way by its own rows:
SVCCA's eigendecomposition of a tall layer's p x p Gram in `prepare` and
its truncation of a factor, and the singular values of a pair matrix (mean
CCA, SVCCA, Procrustes). The cap does nothing when numpy has no
bundled OpenBLAS. The rest of a larger layer's work, and `nets` and
`threats`, keep OpenBLAS's own thread count.
"""
from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import dataclass, field, fields

import numpy as np

from . import errors
from .activations import require_same_probe
from .errors import (
    ConfigError,
    EmptySelectionError,
    NumericalError,
    ShapeError,
    ValidationError,
)
from .numerics import _gram_eigh, _one_blas_thread, center_columns, gram_factor, svd_truncate
from .ppm import write_heatmap


# A layer, or a factor or pair matrix that the pair step factorizes, of at
# most this many rows runs on one OpenBLAS thread. Prepare plus the grid of
# four random float32 layers for linear CKA, SVCCA and Procrustes (and mean
# CCA where n > p), best of 3, two runs per side, OpenBLAS 0.3.31 on two
# x86-64 cores, 2 -> 1 threads:
# 96 x 2048 150-190 -> 92-95 ms, 256 x 2048 654-753 -> 514-623 ms,
# 512 x 128 244-245 -> 169-180 ms and 1024 x 256 803-822 -> 672-688 ms;
# 512 x 2048 broke even (2.41-2.74 -> 2.45-3.22 s over two series), and
# 1024 x 2048 14.3-16.4 -> 20.2-20.6 s and 8192 x 256 2.04-2.45 ->
# 2.54-2.71 s lost. SVDs and QRs gain most; large GEMMs and Grams still
# gain from the second thread. The SVD of an 8192 x 256 layer's 256 x 256
# SVCCA factor took 15.5-15.6 ms on one thread against 17.5 on two, and the
# singular values of a 256 x 256 pair matrix 8.0-8.1 ms against 9.4-9.5
# (medians of 30, two series). SVCCA's eigh of a 96 x 96 Gram took 0.87-1.26
# ms on one thread against 0.90-1.23 on two, and of a 256 x 256 one 6.3-6.5
# ms against 6.1-6.3 (medians of 30, two series of two): even at 96 and a
# few per cent to two threads at 256, so the limit stays.
_ONE_BLAS_THREAD_ROWS = 512


def _blas_threads_for(n: int):
    """One OpenBLAS thread for work on at most `_ONE_BLAS_THREAD_ROWS` rows;
    OpenBLAS's own thread count above."""
    return _one_blas_thread() if n <= _ONE_BLAS_THREAD_ROWS else nullcontext()


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


def _hsic_unbiased(x: np.ndarray, y: np.ndarray, tx=None, ty=None) -> float:
    """Diagonal-excluded U-statistic HSIC of two m-row batches; needs m >= 4.

    With K~ and L~ the zero-diagonal Grams, d = diag(K) the squared row
    norms and k the row sums of K~, the terms are sum(K~ * L~),
    1^T K~ 1 = sum(k_x) and 1^T K~ L~ 1 = k_x . k_y. When
    2 px py <= m (px + py) they come from the features:
    sum(K~ * L~) = |X^T Y|_F^2 - d_x . d_y and k = X (X^T 1) - d. Otherwise
    they come from the two m x m Grams. Pass y is x for the self term.
    tx and ty are `_row_terms` of x and y when the caller kept them; the
    feature route computes the missing ones.
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
        dx, kx = _row_terms(x) if tx is None else tx
        dy, ky = (dx, kx) if y is x else _row_terms(y) if ty is None else ty
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


def _orthonormal_basis(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column space, dropping near-null directions."""
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return u[:, :0]
    tol = max(m.shape) * np.finfo(np.float64).eps * s[0]
    # s is sorted, so the kept directions are a prefix: a view, not a copy
    return u[:, : np.count_nonzero(s > tol)]


@dataclass(frozen=True, eq=False)
class PreparedLayer:
    """One n x p layer after `MetricKind.prepare`, ready for any pair step.

    `matrix` is what the pair step multiplies: the centered matrix (linear
    and online CKA), the orthonormal basis (mean CCA), the unit-norm
    `gram_factor` (Procrustes), or the square factor V sqrt(lambda) from the
    eigendecomposition of the centered layer's smaller Gram, which has the
    layer's singular values and that Gram as its own (SVCCA).
    `centered` is a tall SVCCA layer's centered n x p matrix, kept next to
    the p x p factor in `matrix` to map its directions back to the n rows.
    `gram` is a wide layer's n x n Gram (linear CKA), which is then also its
    `matrix`: such a layer keeps no centered copy. `norm` is the layer's
    own denominator term: |X^T X|_F for linear CKA, the summed self-HSIC
    for online CKA. Online CKA keeps no batch: each step takes the rows
    `matrix[idx]` of the centered layer and scores them in feature space, or
    through m x m Grams when the batch is wide (2 px py > m (px + py)).
    It keeps `row_terms`, each batch's `_row_terms` in schedule order
    (2n floats per pass), which the feature route reads.
    `degenerate` marks a layer that scores 0 against anything.
    """

    metric: "MetricKind"
    matrix: np.ndarray
    degenerate: bool = False
    centered: np.ndarray | None = None
    gram: np.ndarray | None = None
    norm: float = 0.0
    row_terms: tuple = ()

    @property
    def n(self) -> int:
        return (self.matrix if self.centered is None else self.centered).shape[0]


def _prepare_linear_cka(kind, x):
    if x.shape[0] < x.shape[1]:
        # wide: |X^T X|_F = |K|_F through the smaller n x n Gram, made
        # exactly symmetric against BLAS rounding asymmetry
        k = x @ x.T
        k = (k + k.T) / 2.0
        norm = float(np.sqrt((k * k).sum()))
        return PreparedLayer(kind, k, norm == 0.0, gram=k, norm=norm)
    norm = float(np.linalg.norm(x.T @ x))
    return PreparedLayer(kind, x, norm == 0.0, norm=norm)


def _pair_linear_cka(kind, a, b):
    if a.degenerate or b.degenerate:
        return 0.0
    if a.gram is not None and b.gram is not None:
        num = float((a.gram * b.gram).sum())  # sum(K * L) = |Y^T X|_F^2
    elif a.gram is None and b.gram is None:
        num = float(np.linalg.norm(b.matrix.T @ a.matrix) ** 2)
    else:
        # a wide and a tall layer: |Y^T X|_F^2 = tr(Y^T K Y) = sum((K Y) * Y)
        k, y = (a.gram, b.matrix) if b.gram is None else (b.gram, a.matrix)
        num = float(((k @ y) * y).sum())
    return min(max(num / (a.norm * b.norm), 0.0), 1.0)


def _online_batches(n: int, kind):
    """Row indices of online CKA's minibatches, in accumulation order.

    A single batch holding every point needs no shuffle; keeping the input
    order makes it agree exactly with the full-data estimator.
    """
    rng = np.random.default_rng(kind.seed)
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
    self_hsic, terms = 0.0, []
    for idx in _online_batches(x.shape[0], kind):
        xb = x[idx]
        terms.append(_row_terms(xb))
        self_hsic += _hsic_unbiased(xb, xb, terms[-1])
    return PreparedLayer(kind, x, norm=self_hsic, row_terms=tuple(terms))


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
        batches = _online_batches(a.n, kind)
        for idx, ta, tb in zip(batches, a.row_terms, b.row_terms):
            num += _hsic_unbiased(a.matrix[idx], b.matrix[idx], ta, tb)
    return num / float(np.sqrt(a.norm * b.norm))


def _singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values of m, largest first."""
    try:
        with _blas_threads_for(m.shape[0]):
            return np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc


def _canonical_mean(c: np.ndarray) -> float:
    """Mean canonical correlation, given Qx^T Qy of two orthonormal bases."""
    return float(np.clip(_singular_values(c), 0.0, 1.0).mean())


def _require_rows_over_cols(n: int, *cols: int) -> None:
    if n <= max(cols):
        widths = "/".join(str(c) for c in cols)
        raise ShapeError(f"CCA needs rows > cols, got {n} rows vs {widths} cols")


def _prepare_mean_cca(kind, x):
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
    # perfbench/workloads.py pins two `svd_truncate` calls per svcca cell.
    # The factor is V sqrt(lambda) from the eigendecomposition of the smaller
    # Gram: x^T x = V S^2 V^T of a tall x (p < n), a p x p factor with x's S
    # and V, or x x^T = U S^2 U^T of a wide or square one, an n x n factor
    # with f f^T = x x^T; through the Gram only directions far below the
    # kept variance lose digits. The p x p eigh takes one thread by its rows.
    tall = x.shape[1] < x.shape[0]
    g = x.T @ x if tall else x @ x.T
    with _blas_threads_for(g.shape[0]):
        lam, v = _gram_eigh(g)
    f = v * np.sqrt(lam)
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


def _truncate(kind, layer) -> np.ndarray:
    with _blas_threads_for(layer.matrix.shape[0]):
        return svd_truncate(layer.matrix, kind.variance_fraction)


def _pair_svcca(kind, a, b):
    # both factors are square, so each truncation is one small SVD; a
    # degenerate layer is truncated too: the traced self-check pins two per cell
    xt = _truncate(kind, a)
    yt = _truncate(kind, b)
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
    f = np.linalg.norm(x)
    if f == 0.0:
        return PreparedLayer(kind, x, True)
    x /= f  # the centered matrix is this layer's own copy
    return PreparedLayer(kind, gram_factor(x))


def _pair_procrustes(kind, a, b):
    if a.degenerate or b.degenerate:
        return 0.0
    return min(max(2.0 * float(_singular_values(a.matrix.T @ b.matrix).sum()), 0.0), 2.0)


# per metric: (prepare one centered layer, score a pair of prepared layers)
_STEPS = {
    "linear_cka": (_prepare_linear_cka, _pair_linear_cka),
    "online_cka": (_prepare_online_cka, _pair_online_cka),
    "mean_cca": (_prepare_mean_cca, _pair_mean_cca),
    "svcca": (_prepare_svcca, _pair_svcca),
    "procrustes": (_prepare_procrustes, _pair_procrustes),
}

METRIC_NAMES = tuple(_STEPS)
# each metric's parameters with their defaults; the other metrics take none
_PARAMS = {
    "online_cka": {"batch": 1024, "passes": 3, "seed": 0},
    "svcca": {"variance_fraction": 0.99},
}


@dataclass(frozen=True)
class MetricKind:
    """A similarity metric plus its parameters, dispatchable over matrix pairs.

    Each metric scores two n x p layers over the same n points, with X and Y
    their centered matrices:

    - linear_cka: |Y^T X|_F^2 / (|X^T X|_F |Y^T Y|_F), in [0, 1]; invariant
      to orthogonal maps and isotropic scaling of either side.
    - online_cka: the same ratio of unbiased HSIC terms, each summed over
      `passes` shuffles (seeded by `seed`) of `batch`-row minibatches; a
      trailing batch under 4 rows joins its predecessor, and one pass with
      batch >= n is the full-data estimator. An estimate, so it can leave
      [0, 1]; invariant as linear CKA is.
    - mean_cca: the mean canonical correlation, the singular values of
      Qx^T Qy for orthonormal bases of the column spaces, in [0, 1];
      invariant to any invertible map of either side. Needs n > p on both.
    - svcca: mean CCA of each side's leading principal directions that hold
      `variance_fraction` of its variance, in [0, 1]; invariant to
      orthogonal maps and isotropic scaling.
    - procrustes: 2 |X^T Y|_* with X and Y scaled to unit Frobenius norm,
      in [0, 2], 2 for a layer against itself; invariant to orthogonal maps
      and isotropic scaling.

    All are invariant to a translation of either side. A parameter left as
    None takes its `_PARAMS` default; a bad value is a `ConfigError`."""

    name: str
    batch: int | None = None
    passes: int | None = None
    seed: int | None = None
    variance_fraction: float | None = None

    def __post_init__(self):
        if self.name not in METRIC_NAMES:
            raise ConfigError(f"unknown metric {self.name!r}")
        params = _PARAMS.get(self.name, {})
        for f in fields(self)[1:]:
            if getattr(self, f.name) is None:
                object.__setattr__(self, f.name, params.get(f.name))
            elif f.name not in params:
                raise ConfigError(f"{self.name} takes no parameter {f.name!r}")
        if self.name == "online_cka":
            if self.batch < 4:  # the unbiased HSIC's minimum
                raise ConfigError("online_cka needs batch >= 4")
            if self.passes < 1:
                raise ConfigError("online_cka needs passes >= 1")
            if self.seed < 0:
                raise ConfigError("online_cka needs seed >= 0")
        if self.name == "svcca" and not 0.0 < self.variance_fraction <= 1.0:
            raise ConfigError("svcca needs variance_fraction in (0, 1]")

    @property
    def value_range(self) -> tuple:
        return (0.0, 2.0) if self.name == "procrustes" else (0.0, 1.0)

    def prepare(self, x, name: str = "x") -> PreparedLayer:
        """Validate one n x p layer and do this metric's per-layer work once.

        This is the one place a layer is widened, validated and centered:
        `center_columns` makes its own float64 copy, centered in place, and
        a layer needs at least 2 rows. The metric's step gets that copy and
        may keep it or scale it in place.
        """
        x = center_columns(x, name)
        if x.shape[0] < 2:
            raise ShapeError(f"need at least 2 rows, got {x.shape[0]}")
        with _blas_threads_for(x.shape[0]):
            return _STEPS[self.name][0](self, x)

    def evaluate(self, x, y) -> float:
        """Score one pair of layers, given raw or as `prepare` returned them."""
        a = x if isinstance(x, PreparedLayer) else self.prepare(x, "x")
        b = y if isinstance(y, PreparedLayer) else self.prepare(y, "y")
        if a.metric != self or b.metric != self:
            raise ValidationError(f"layer was not prepared for {self!r}")
        if a.n != b.n:
            raise ShapeError(f"row counts differ: {a.n} vs {b.n}")
        with _blas_threads_for(a.n):
            return _STEPS[self.name][1](self, a, b)


@dataclass
class SimilarityMatrix:
    """A layerA x layerB grid of metric scores with its range contract.

    Every value is finite, and lies in the metric's `value_range` (to 1e-6)
    for the four bounded metrics. Online CKA's unbiased estimate can leave
    [0, 1], so its values are kept as they are; the heatmap clamps them and
    `save` reports that.
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
        if not np.isfinite(self.values).all():
            raise ValidationError("values must be finite")
        lo, hi = self.metric.value_range
        if self.metric.name != "online_cka" and self.values.size and (
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
            "metric": errors.to_json(self.metric),
            "range": list(self.metric.value_range),
            "n": self.meta.get("n"),
            "model_ids": self.meta.get("model_ids"),
            "conditions": self.meta.get("conditions"),
            "degenerate": np.argwhere(self.degenerate).tolist(),
        }
        errors.write_json(base + ".json", sidecar)
        heatmap = os.path.join(out_dir, f"heatmap_{label}.ppm")
        return write_heatmap(heatmap, self.values, *self.metric.value_range)


def score_grid(metric: MetricKind, rows: list, cols: list, row_names: list,
               col_names: list, a: "ActivationSet", b: "ActivationSet") -> SimilarityMatrix:
    """The `SimilarityMatrix` of `metric.evaluate` over every (row, column)
    pair of prepared layers, scored row by row; when `cols` is `rows` only
    the upper triangle, diagonal included, is scored and then mirrored
    (every metric here is symmetric). A cell is degenerate when either of
    its layers is. The rows and columns were recorded in dumps like `a` and
    `b`, which give the sidecar its n, model ids and conditions."""
    same = rows is cols
    values = np.zeros((len(rows), len(cols)))
    for i, row in enumerate(rows):
        for j in range(i if same else 0, len(cols)):
            values[i, j] = metric.evaluate(row, cols[j])
            if same:
                values[j, i] = values[i, j]
    degenerate = np.logical_or.outer([p.degenerate for p in rows], [p.degenerate for p in cols])
    meta = {
        "n": a.n,
        "model_ids": [a.manifest.get("model_id"), b.manifest.get("model_id")],
        "conditions": [a.manifest.get("condition"), b.manifest.get("condition")],
    }
    return SimilarityMatrix(row_names, col_names, values, metric, degenerate, meta)


def crosslayer_matrix(a: "ActivationSet", b: "ActivationSet", metric: MetricKind):
    """Evaluate `metric` over every (layer of a) x (layer of b) pair.

    Each distinct layer is prepared once, then `score_grid` scores every
    cell; when both sets are the same object it scores the upper triangle
    and mirrors it.
    """
    require_same_probe(a, b)
    pa = [metric.prepare(r.matrix) for r in a.records]
    pb = pa if a is b else [metric.prepare(r.matrix) for r in b.records]
    return score_grid(metric, pa, pb, a.layer_names, b.layer_names, a, b)


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
