"""Representation-similarity metrics over activation matrices.

All metrics take n x p activation matrices over the same n probe points,
center columns internally, and are invariant to orthogonal transformations
of the columns; the CKA family is additionally invariant to isotropic
scaling. Degenerate inputs (all-zero after centering) score 0 with an
explicit flag instead of NaN so downstream grids stay renderable.

Each metric runs in two steps: `MetricKind.prepare` does a layer's own work
once, and a cheap pair step scores two prepared layers. `crosslayer_matrix`
prepares each distinct layer once per grid; `MetricKind.evaluate` and the
single-pair functions prepare raw matrices themselves, so every caller runs
the same code. What each metric prepares, and what its pair step does:

- linear CKA: the centered matrix, plus the n x n Gram and its norm for a
  wide layer (p > n) or |X^T X|_F for a tall one. Two wide layers pair
  through sum(K * L), any other pair through |Y^T X|_F^2.
- online CKA: the column means and the layer's self-HSIC summed over the
  batch schedule. The pair step walks the same schedule and accumulates
  only the cross term, so values match the one-pass estimator bit for bit.
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

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AlignmentError,
    ConfigError,
    EmptySelectionError,
    FormatError,
    InvalidGramError,
    ManifestError,
    NumericalError,
    ShapeError,
    ValidationError,
    check_json_fields,
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


def _pair(x, y, min_rows: int = 2):
    x = center_columns(as_matrix(x, "x"))
    y = center_columns(as_matrix(y, "y"))
    if x.shape[0] != y.shape[0]:
        raise ShapeError(f"row counts differ: {x.shape[0]} vs {y.shape[0]}")
    if x.shape[0] < min_rows:
        raise ShapeError(f"need at least {min_rows} rows, got {x.shape[0]}")
    return x, y


def linear_cka(x, y, with_flag: bool = False):
    """Linear CKA: |Y^T X|_F^2 / (|X^T X|_F |Y^T Y|_F) on centered matrices.

    Returns a float in [0, 1]; with `with_flag` also returns whether either
    input was degenerate (zero after centering), in which case the value is 0.
    """
    return MetricKind.linear_cka().evaluate(x, y, with_flag)


def _center_gram(k: np.ndarray) -> np.ndarray:
    row = k.mean(axis=0, keepdims=True)
    col = k.mean(axis=1, keepdims=True)
    return k - row - col + k.mean()


def cka_from_grams(k, l, with_flag: bool = False):
    """CKA from precomputed Gram matrices: tr(KHLH)/sqrt(tr(KHKH) tr(LHLH))."""
    k = as_matrix(k, "k")
    l = as_matrix(l, "l")
    for name, g in (("k", k), ("l", l)):
        if g.shape[0] != g.shape[1]:
            raise ShapeError(f"{name} must be square, got {g.shape}")
        if np.abs(g - g.T).max() > 1e-9:
            raise InvalidGramError(f"{name} is not symmetric within 1e-9")
    if k.shape[0] != l.shape[0]:
        raise ShapeError(f"gram sizes differ: {k.shape[0]} vs {l.shape[0]}")
    kc = _center_gram(k)
    lc = _center_gram(l)
    num = float((kc * lc).sum())
    dk = float(np.sqrt((kc * kc).sum()))
    dl = float(np.sqrt((lc * lc).sum()))
    if dk == 0.0 or dl == 0.0:
        return (0.0, True) if with_flag else 0.0
    val = min(max(num / (dk * dl), 0.0), 1.0)
    return (val, False) if with_flag else val


def _zero_diagonal_gram(m: np.ndarray) -> np.ndarray:
    """m @ m.T with its diagonal set to zero, as `_hsic_unbiased` takes it."""
    k = m @ m.T
    np.fill_diagonal(k, 0.0)
    return k


def _hsic_unbiased(kt: np.ndarray, lt: np.ndarray) -> float:
    """Diagonal-excluded U-statistic HSIC estimator; needs n >= 4.

    Both Grams must already have a zero diagonal (`_zero_diagonal_gram`).
    """
    n = kt.shape[0]
    if n < 4:
        raise ShapeError(f"unbiased HSIC needs at least 4 points, got {n}")
    ks = kt.sum(axis=0)
    ls = lt.sum(axis=0)
    term = (
        float((kt * lt).sum())
        + ks.sum() * ls.sum() / ((n - 1) * (n - 2))
        - 2.0 * float(ks @ ls) / (n - 2)
    )
    return term / (n * (n - 3))


def unbiased_cka(x, y) -> float:
    """Full-data CKA built from unbiased HSIC terms (single-batch reference)."""
    x, y = _pair(x, y, min_rows=4)
    k = _zero_diagonal_gram(x)
    l = _zero_diagonal_gram(y)
    num = _hsic_unbiased(k, l)
    da = _hsic_unbiased(k, k)
    db = _hsic_unbiased(l, l)
    if da <= 0.0 or db <= 0.0:
        return 0.0
    return num / float(np.sqrt(da * db))


def online_cka(x, y, batch: int, passes: int = 3, seed: int = 0) -> float:
    """Streaming CKA over shuffled minibatches.

    Per batch, the unbiased HSIC estimator is evaluated for the numerator and
    both denominator terms; the three sums are accumulated across all batches
    and passes and combined once at the end. Deterministic for a fixed seed.
    A trailing batch smaller than 4 points is folded into its predecessor.
    """
    return MetricKind.online_cka(batch, passes, seed).evaluate(x, y)


def class_cka_decomposition(x, y, labels):
    """Split linear CKA into same-class and cross-class Gram contributions.

    Returns (intra, inter) with intra + inter equal to linear_cka(x, y).
    Components are raw signed sums over the centered Grams; either may be
    negative, and normalization is left to the caller.
    """
    x, y = _pair(x, y)
    labels = np.asarray(labels)
    if labels.ndim != 1 or len(labels) != x.shape[0]:
        raise AlignmentError(
            f"labels length {labels.shape} does not match {x.shape[0]} rows"
        )
    k = x @ x.T
    l = y @ y.T
    d = float(np.linalg.norm(x.T @ x)) * float(np.linalg.norm(y.T @ y))
    if d == 0.0:
        return 0.0, 0.0
    prod = k * l
    same = labels[:, None] == labels[None, :]
    intra = float(prod[same].sum()) / d
    inter = float(prod[~same].sum()) / d
    return intra, inter


def _orthonormal_basis(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column space, dropping near-null directions."""
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return u[:, :0]
    tol = max(m.shape) * np.finfo(np.float64).eps * s[0]
    return u[:, s > tol]


def mean_cca(x, y, with_flag: bool = False):
    """Mean of the canonical correlation coefficients between x and y.

    Each matrix is centered and orthonormalized (projecting to its column
    space if rank deficient); the singular values of Qx^T Qy are the
    canonical correlations. Requires more rows than columns on both sides.
    """
    return MetricKind.mean_cca().evaluate(x, y, with_flag)


def svcca(x, y, variance_fraction: float = 0.99, with_flag: bool = False):
    """CCA after truncating both inputs to their leading principal directions."""
    return MetricKind.svcca(variance_fraction).evaluate(x, y, with_flag)


def procrustes_similarity(x, y, with_flag: bool = False):
    """Orthogonal Procrustes similarity 2|X^T Y|_* on normalized matrices.

    Inputs are centered and scaled to unit Frobenius norm. An input wider
    than n is replaced by its n x n `gram_factor`, which leaves |X^T Y|_*
    unchanged; the narrower matrix is then zero-padded (padding leaves the
    cross-product nuclear norm unchanged too). Value lies in [0, 2];
    identical matrices score 2.
    """
    return MetricKind.procrustes().evaluate(x, y, with_flag)


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
    |X^T X|_F for linear CKA, the summed self-HSIC for online CKA.
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
        return 0.0, True
    if a.gram is not None and b.gram is not None:
        num = float((a.gram * b.gram).sum())  # sum(K * L) = |Y^T X|_F^2
    else:
        num = float(np.linalg.norm(b.matrix.T @ a.matrix) ** 2)
    return min(max(num / (a.norm * b.norm), 0.0), 1.0), False


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
        k = _zero_diagonal_gram(x[idx] - mean)
        self_hsic += _hsic_unbiased(k, k)
    return PreparedLayer(kind, x, mean=mean, norm=self_hsic)


def _pair_online_cka(kind, a, b):
    # an unbiased self-HSIC can be <= 0 for a non-constant layer too, so
    # this 0 carries no degenerate flag
    if a.norm <= 0.0 or b.norm <= 0.0:
        return 0.0, False
    if b is a:
        num = a.norm  # the cross sums would repeat the self sums exactly
    else:
        num = 0.0
        for idx in _online_batches(a.n, kind):
            k = _zero_diagonal_gram(a.matrix[idx] - a.mean)
            l = _zero_diagonal_gram(b.matrix[idx] - b.mean)
            num += _hsic_unbiased(k, l)
    return num / float(np.sqrt(a.norm * b.norm)), False


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
        return 0.0, True
    return _canonical_mean(a.matrix.T @ b.matrix), False


def _prepare_svcca(kind, x):
    # factor once, but truncate in the pair step: the traced self-check in
    # perfbench/workloads.py pins two `svd_truncate` calls per svcca cell
    x = center_columns(x)
    if x.shape[1] < x.shape[0]:
        # x = Q R, so R^T = V S U_R^T has x's S and V; Q is never formed
        return PreparedLayer(kind, np.linalg.qr(x, mode="r").T, centered=x)
    return PreparedLayer(kind, gram_factor(x))


def _principal_weights(layer, t: np.ndarray):
    """W with U_k = A W, or None when the truncation t is all zero.

    t is U_k S_k of a wide or square layer, where A is the identity, and
    V_k S_k of a tall one, where A is the centered layer: X V_k = U_k S_k.
    """
    s2 = (t * t).sum(axis=0)
    if s2[0] == 0.0:
        return None
    return t / np.sqrt(s2) if layer.centered is None else t / s2


def _in_rows(layer, w: np.ndarray) -> np.ndarray:
    return w if layer.centered is None else layer.centered @ w


def _pair_svcca(kind, a, b):
    # both factors are square, so each truncation is one small SVD
    xt = svd_truncate(a.matrix, kind.variance_fraction)
    yt = svd_truncate(b.matrix, kind.variance_fraction)
    _require_rows_over_cols(a.n, xt.shape[1], yt.shape[1])
    wx = _principal_weights(a, xt)
    wy = _principal_weights(b, yt)
    if wx is None or wy is None:
        return 0.0, True
    if a.centered is not None and b.centered is not None:
        # two tall layers: one p x p product over the n rows
        return _canonical_mean(wx.T @ (a.centered.T @ b.centered) @ wy), False
    return _canonical_mean(_in_rows(a, wx).T @ _in_rows(b, wy)), False


def _prepare_procrustes(kind, x):
    x = _centered(x)
    f = np.linalg.norm(x)
    if f == 0.0:
        return PreparedLayer(kind, x, True)
    return PreparedLayer(kind, gram_factor(x / f))


def _pair_procrustes(kind, a, b):
    if a.degenerate or b.degenerate:
        return 0.0, True
    x, y = a.matrix, b.matrix
    if x.shape[1] < y.shape[1]:
        x = np.pad(x, ((0, 0), (0, y.shape[1] - x.shape[1])))
    elif y.shape[1] < x.shape[1]:
        y = np.pad(y, ((0, 0), (0, x.shape[1] - y.shape[1])))
    return min(max(2.0 * nuclear_norm(x.T @ y), 0.0), 2.0), False


# per metric: (prepare one layer, score a pair of prepared layers)
_STEPS = {
    "linear_cka": (_prepare_linear_cka, _pair_linear_cka),
    "online_cka": (_prepare_online_cka, _pair_online_cka),
    "mean_cca": (_prepare_mean_cca, _pair_mean_cca),
    "svcca": (_prepare_svcca, _pair_svcca),
    "procrustes": (_prepare_procrustes, _pair_procrustes),
}

METRIC_NAMES = tuple(_STEPS)

# JSON fields of a metric object, for `check_json_fields`
_FIELD_TYPES = {
    "name": (str, "a string"),
    "batch": (int, "an integer"),
    "passes": (int, "an integer"),
    "seed": (int, "an integer"),
    "variance_fraction": ((int, float), "a number"),
}


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
        if self.name == "online_cka":
            if self.batch is None or self.batch < 2:
                raise ValidationError("online_cka needs batch >= 2")
            if self.passes is None or self.passes < 1:
                raise ValidationError("online_cka needs passes >= 1")
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

    def evaluate(self, x, y, with_flag: bool = False):
        """Score one pair of layers, given raw or as `prepare` returned them."""
        a = x if isinstance(x, PreparedLayer) else self.prepare(x, "x")
        b = y if isinstance(y, PreparedLayer) else self.prepare(y, "y")
        if a.metric != self or b.metric != self:
            raise ValidationError(f"layer was not prepared for {self!r}")
        if a.n != b.n:
            error = AlignmentError if self.name == "online_cka" else ShapeError
            raise error(f"row counts differ: {a.n} vs {b.n}")
        val, flag = _STEPS[self.name][1](self, a, b)
        return (val, flag) if with_flag else val

    def to_json(self) -> dict:
        d = {"name": self.name}
        for k in ("batch", "passes", "seed", "variance_fraction"):
            v = getattr(self, k)
            if v is not None:
                d[k] = v
        return d

    @classmethod
    def from_json(cls, d: dict) -> "MetricKind":
        return cls(**check_json_fields(d, _FIELD_TYPES, "metric", ("name",)))


@dataclass
class SimilarityMatrix:
    """A layerA x layerB grid of metric scores with its range contract."""

    row_names: list
    col_names: list
    values: np.ndarray
    metric: MetricKind
    degenerate: np.ndarray | None = None
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

    def save(self, base_path: str) -> None:
        """Write <base>.csv (with headers) and a <base>.json sidecar."""
        with open(base_path + ".csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([""] + list(self.col_names))
            for name, row in zip(self.row_names, self.values):
                w.writerow([name] + [f"{v:.12g}" for v in row])
        sidecar = {
            "metric": self.metric.to_json(),
            "range": list(self.metric.value_range),
            "n": self.meta.get("n"),
            "model_ids": self.meta.get("model_ids"),
            "conditions": self.meta.get("conditions"),
            "degenerate": (
                None if self.degenerate is None else np.argwhere(self.degenerate).tolist()
            ),
        }
        with open(base_path + ".json", "w") as fh:
            json.dump(sidecar, fh, sort_keys=True, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, base_path: str) -> "SimilarityMatrix":
        """Read a grid written by `save`.

        A ragged or non-numeric CSV raises FormatError; an unreadable
        sidecar or a degenerate cell outside the grid raises ManifestError.
        """
        with open(base_path + ".csv", newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise FormatError(f"{base_path}.csv: empty or ragged rows")
        col_names = rows[0][1:]
        row_names = [r[0] for r in rows[1:]]
        try:
            cells = [[float(v) for v in r[1:]] for r in rows[1:]]
        except ValueError as exc:
            raise FormatError(f"{base_path}.csv: {exc}") from exc
        values = np.array(cells).reshape(len(row_names), len(col_names))
        if not np.isfinite(values).all():
            raise FormatError(f"{base_path}.csv: non-finite value")
        try:
            with open(base_path + ".json") as fh:
                sidecar = json.load(fh)
        except ValueError as exc:  # also covers JSONDecodeError, bad UTF-8
            raise ManifestError(f"{base_path}.json: {exc}") from exc
        if not isinstance(sidecar, dict) or not isinstance(sidecar.get("metric"), dict):
            raise ManifestError(f"{base_path}.json: no metric object")
        try:
            metric = MetricKind.from_json(sidecar["metric"])
        except (ConfigError, ValidationError) as exc:
            raise ManifestError(f"{base_path}.json: {exc}") from exc
        meta = {k: sidecar.get(k) for k in ("n", "model_ids", "conditions")}
        degenerate = None
        if sidecar.get("degenerate") is not None:
            degenerate = _cell_mask(sidecar["degenerate"], values.shape, base_path)
        return cls(row_names, col_names, values, metric, degenerate, meta)


def _cell_mask(cells, shape: tuple, base_path: str) -> np.ndarray:
    """Boolean grid with the listed [i, j] cells set; rejects bad indices."""
    mask = np.zeros(shape, dtype=bool)
    if not isinstance(cells, list):
        raise ManifestError(f"{base_path}.json: degenerate is not a list")
    for cell in cells:
        # type() rather than isinstance(): a bool is an int
        if not (
            isinstance(cell, list)
            and len(cell) == 2
            and all(type(v) is int and 0 <= v < s for v, s in zip(cell, shape))
        ):
            raise ManifestError(f"{base_path}.json: bad degenerate cell {cell!r}")
        mask[cell[0], cell[1]] = True
    return mask


def crosslayer_matrix(a: "ActivationSet", b: "ActivationSet", metric: MetricKind):
    """Evaluate `metric` over every (layer of a) x (layer of b) pair.

    Each distinct layer is prepared once, then every cell runs the metric's
    pair step on the prepared layers. When both sets are the same object
    the grid is evaluated on the upper triangle and mirrored (every metric
    here is symmetric).
    """
    if a.n != b.n:
        raise ShapeError(f"probe sizes differ: {a.n} vs {b.n}")
    same = a is b
    pa = [metric.prepare(r.matrix) for r in a.records]
    pb = pa if same else [metric.prepare(r.matrix) for r in b.records]
    na, nb = len(pa), len(pb)
    values = np.zeros((na, nb))
    degenerate = np.zeros((na, nb), dtype=bool)
    for i in range(na):
        for j in range(i if same else 0, nb):
            val, flag = metric.evaluate(pa[i], pb[j], with_flag=True)
            values[i, j] = val
            degenerate[i, j] = flag
            if same:
                values[j, i] = val
                degenerate[j, i] = flag
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
