"""Representation-similarity metrics over activation matrices.

All metrics take n x p activation matrices over the same n probe points,
center columns internally, and are invariant to orthogonal transformations
of the columns; the CKA family is additionally invariant to isotropic
scaling. Degenerate inputs (all-zero after centering) score 0 with an
explicit flag instead of NaN so downstream grids stay renderable.

Every metric depends on a layer only through its n x n Gram, so each call
works on the cheaper side of its inputs, chosen from their shapes: when an
input is wider than the probe is tall (p > n), linear CKA is computed from
the n x n Grams and Procrustes and SVCCA from an n x n factor with the same
Gram (`numerics.gram_factor`); tall inputs use the p-sized feature-space
products. The two forms are equal in exact arithmetic, so the choice changes
no value beyond rounding.
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
    x, y = _pair(x, y)
    if x.shape[0] < max(x.shape[1], y.shape[1]):
        # Gram form: sum(K * L) = |Y^T X|_F^2 and |K|_F = |X^T X|_F
        k = gram_linear(x)
        l = gram_linear(y)
        num = float((k * l).sum())
        dx = frobenius_norm(k)
        dy = frobenius_norm(l)
    else:
        num = float(np.linalg.norm(y.T @ x) ** 2)
        dx = float(np.linalg.norm(x.T @ x))
        dy = float(np.linalg.norm(y.T @ y))
    if dx == 0.0 or dy == 0.0:
        return (0.0, True) if with_flag else 0.0
    val = min(max(num / (dx * dy), 0.0), 1.0)
    return (val, False) if with_flag else val


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
    x = center_columns(as_matrix(x, "x"))
    y = center_columns(as_matrix(y, "y"))
    if x.shape[0] != y.shape[0]:
        raise AlignmentError(
            f"streams misaligned: {x.shape[0]} vs {y.shape[0]} points"
        )
    n = x.shape[0]
    if batch < 2:
        raise ValidationError(f"batch must be >= 2, got {batch}")
    if passes < 1:
        raise ValidationError(f"passes must be >= 1, got {passes}")
    if n < 4:
        raise ShapeError(f"need at least 4 points, got {n}")
    rng = np.random.default_rng(seed)
    num = da = db = 0.0
    for _ in range(passes):
        # a single batch holding every point needs no shuffle; keeping the
        # input order makes it agree exactly with the full-data estimator
        order = rng.permutation(n) if batch < n else np.arange(n)
        starts = list(range(0, n, batch))
        if len(starts) > 1 and n - starts[-1] < 4:
            starts.pop()  # fold short remainder into the previous batch
        for i, s in enumerate(starts):
            e = starts[i + 1] if i + 1 < len(starts) else n
            idx = order[s:e]
            k = _zero_diagonal_gram(x[idx])
            l = _zero_diagonal_gram(y[idx])
            num += _hsic_unbiased(k, l)
            da += _hsic_unbiased(k, k)
            db += _hsic_unbiased(l, l)
    if da <= 0.0 or db <= 0.0:
        return 0.0
    return num / float(np.sqrt(da * db))


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
    x, y = _pair(x, y)
    n = x.shape[0]
    if n <= max(x.shape[1], y.shape[1]):
        raise ShapeError(
            f"CCA needs rows > cols, got {n} rows vs {x.shape[1]}/{y.shape[1]} cols"
        )
    try:
        qx = _orthonormal_basis(x)
        qy = _orthonormal_basis(y)
        if qx.shape[1] == 0 or qy.shape[1] == 0:
            return (0.0, True) if with_flag else 0.0
        rho = np.linalg.svd(qx.T @ qy, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"CCA SVD failed: {exc}") from exc
    rho = np.clip(rho, 0.0, 1.0)
    val = float(rho.mean())
    return (val, False) if with_flag else val


def svcca(x, y, variance_fraction: float = 0.99, with_flag: bool = False):
    """CCA after truncating both inputs to their leading principal directions."""
    x = center_columns(as_matrix(x, "x"))
    y = center_columns(as_matrix(y, "y"))
    xt = svd_truncate(x, variance_fraction)
    yt = svd_truncate(y, variance_fraction)
    return mean_cca(xt, yt, with_flag=with_flag)


def procrustes_similarity(x, y, with_flag: bool = False):
    """Orthogonal Procrustes similarity 2|X^T Y|_* on normalized matrices.

    Inputs are centered and scaled to unit Frobenius norm. An input wider
    than n is replaced by its n x n `gram_factor`, which leaves |X^T Y|_*
    unchanged; the narrower matrix is then zero-padded (padding leaves the
    cross-product nuclear norm unchanged too). Value lies in [0, 2];
    identical matrices score 2.
    """
    x, y = _pair(x, y)
    fx = np.linalg.norm(x)
    fy = np.linalg.norm(y)
    if fx == 0.0 or fy == 0.0:
        return (0.0, True) if with_flag else 0.0
    x = gram_factor(x / fx)
    y = gram_factor(y / fy)
    if x.shape[1] < y.shape[1]:
        x = np.pad(x, ((0, 0), (0, y.shape[1] - x.shape[1])))
    elif y.shape[1] < x.shape[1]:
        y = np.pad(y, ((0, 0), (0, x.shape[1] - y.shape[1])))
    val = min(max(2.0 * nuclear_norm(x.T @ y), 0.0), 2.0)
    return (val, False) if with_flag else val


METRIC_NAMES = ("linear_cka", "online_cka", "mean_cca", "svcca", "procrustes")

# JSON fields of a metric object: accepted types and how to name them;
# every field but "name" may be absent or null
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
            raise ValidationError(f"unknown metric {self.name!r}")
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

    def evaluate(self, x, y, with_flag: bool = False):
        if self.name == "linear_cka":
            return linear_cka(x, y, with_flag=with_flag)
        if self.name == "online_cka":
            val = online_cka(x, y, self.batch, self.passes, self.seed or 0)
            return (val, False) if with_flag else val
        if self.name == "mean_cca":
            return mean_cca(x, y, with_flag=with_flag)
        if self.name == "svcca":
            return svcca(x, y, self.variance_fraction, with_flag=with_flag)
        return procrustes_similarity(x, y, with_flag=with_flag)

    def to_json(self) -> dict:
        d = {"name": self.name}
        for k in ("batch", "passes", "seed", "variance_fraction"):
            v = getattr(self, k)
            if v is not None:
                d[k] = v
        return d

    @classmethod
    def from_json(cls, d: dict) -> "MetricKind":
        if not isinstance(d, dict):
            raise ConfigError(f"metric must be an object, got {d!r}")
        unknown = set(d) - set(_FIELD_TYPES)
        if unknown:
            raise ValidationError(f"unknown metric keys {sorted(unknown)}")
        for key, (types, what) in _FIELD_TYPES.items():
            v = d.get(key)
            if v is None and key != "name":
                continue
            # a bool is an int, but never a valid count or fraction
            if isinstance(v, bool) or not isinstance(v, types):
                raise ConfigError(f"metric {d!r}: {key!r} must be {what}")
        return cls(**d)


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

    When both sets are the same object the grid is evaluated on the upper
    triangle and mirrored (every metric here is symmetric).
    """
    if a.n != b.n:
        raise ShapeError(f"probe sizes differ: {a.n} vs {b.n}")
    na, nb = len(a.records), len(b.records)
    values = np.zeros((na, nb))
    degenerate = np.zeros((na, nb), dtype=bool)
    same = a is b
    for i in range(na):
        for j in range(i if same else 0, nb):
            val, flag = metric.evaluate(
                a.records[i].matrix, b.records[j].matrix, with_flag=True
            )
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
