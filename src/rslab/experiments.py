"""Experiment families: cross-layer structure, budget/width grids, benign
vs adversarial divergence, evolution over epochs, threat grids.

Each runner consumes completed run directories, writes matrix_*.csv /
curves_*.csv / summary.json / heatmap_*.ppm into its output directory, and
returns its summary scalars so callers can assert numbers instead of reading
images. Re-running on unchanged inputs is byte-identical.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field, fields

import numpy as np

from . import errors
from .activations import read_dump
from .errors import ConfigError, ProbeMismatchError, ValidationError
from .ppm import write_heatmap
from .simmetrics import MetricKind, block_structure_score, crosslayer_matrix, score_grid
from .training import load_run

# the fields each kind reads besides `runs` and `metric`; every other field
# must keep its default
_KIND_FIELDS = {
    "crosslayer": ("condition", "min_lag"),
    "grid": ("condition", "min_lag", "eps_values", "width_values"),
    "divergence": (),
    "evolution": ("taps",),
    "threatgrid": ("labels",),
}


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one experiment family instance."""

    kind: str
    runs: tuple[str, ...] = ()    # run directories (meaning depends on kind)
    labels: tuple[str, ...] = ()  # display names aligned with runs
    metric: MetricKind = field(default_factory=MetricKind.linear_cka)
    condition: str = "benign"  # which probe dump to use: benign | adv
    min_lag: int | None = None
    eps_values: tuple[float, ...] = ()  # grid: epsilon per run
    width_values: tuple[int, ...] = ()  # grid: width per run
    taps: tuple[int, ...] = ()          # evolution: restrict to these layer indices

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.condition not in ("benign", "adv"):
            raise ConfigError(f"unknown condition {self.condition!r}")
        for f in fields(self):
            own = f.name in ("kind", "runs", "metric") + _KIND_FIELDS[self.kind]
            if not own and getattr(self, f.name) != f.default:
                raise ConfigError(f"{self.kind} takes no field {f.name!r}")
        if self.labels and len(self.labels) != len(self.runs):
            raise ConfigError(f"{len(self.labels)} labels for {len(self.runs)} runs")

    @classmethod
    def from_json(cls, d: dict) -> "ExperimentSpec":
        return errors.from_json(cls, d, "experiment")


def _final_probe(run_dir: str, condition: str):
    _, trace = load_run(run_dir)
    entry = trace.entries[-1]
    path = entry.probe_benign_path if condition == "benign" else entry.probe_adv_path
    if path is None:
        raise ValidationError(f"run {run_dir} has no {condition} probe dump")
    return read_dump(path)


def _default_lag(aset) -> int:
    names = aset.layer_names
    # one residual stage of the miniresnet preset spans 5 taps; fall back to
    # a third of the depth for other nets
    adds = [i for i, n in enumerate(names) if n.endswith("_add")]
    if len(adds) >= 2:
        return adds[1] - adds[0]
    return max(1, len(names) // 3)


def run_crosslayer(spec: ExperimentSpec, out_dir: str):
    """Layer x layer similarity of one model under one condition."""
    if len(spec.runs) != 1:
        raise ConfigError("crosslayer expects exactly one run")
    aset = _final_probe(spec.runs[0], spec.condition)
    sm = crosslayer_matrix(aset, aset, spec.metric)
    lag = spec.min_lag if spec.min_lag is not None else _default_lag(aset)
    score = block_structure_score(sm, lag)
    os.makedirs(out_dir, exist_ok=True)
    warn = sm.save(out_dir, "crosslayer")
    errors.write_json(os.path.join(out_dir, "summary.json"), {
        "kind": "crosslayer",
        "long_range_score": score,
        "min_lag": lag,
        "layers": len(aset.records),
        "clamped": warn,
    })
    return sm, score


def run_grid(spec: ExperimentSpec, out_dir: str):
    """Long-range score per (epsilon, width) cell; missing cells become NaN."""
    eps_values = spec.eps_values or (None,) * len(spec.runs)
    width_values = spec.width_values or (None,) * len(spec.runs)
    if not (len(spec.runs) == len(eps_values) == len(width_values)):
        raise ConfigError("grid needs aligned runs/eps_values/width_values")
    cells = list(zip(eps_values, width_values))
    if len(set(cells)) != len(cells):
        raise ConfigError("grid has two runs in the same (epsilon, width) cell")
    eps_axis = sorted(set(eps_values))
    width_axis = sorted(set(width_values))
    grid = np.full((len(eps_axis), len(width_axis)), np.nan)
    missing = []
    for run, eps, width in zip(spec.runs, eps_values, width_values):
        i = eps_axis.index(eps)
        j = width_axis.index(width)
        try:
            aset = _final_probe(run, spec.condition)
        except (OSError, ValidationError) as exc:
            missing.append({"run": run, "error": str(exc)})
            continue
        sm = crosslayer_matrix(aset, aset, spec.metric)
        lag = spec.min_lag if spec.min_lag is not None else _default_lag(aset)
        grid[i, j] = block_structure_score(sm, lag)
    os.makedirs(out_dir, exist_ok=True)
    errors.write_csv(
        os.path.join(out_dir, "matrix_grid.csv"),
        ["epsilon\\width"] + [str(w) for w in width_axis],
        [[str(e), *grid[i]] for i, e in enumerate(eps_axis)],
    )
    errors.write_json(os.path.join(out_dir, "summary.json"), {
        "kind": "grid",
        "eps_axis": [e for e in eps_axis],
        "width_axis": [w for w in width_axis],
        "scores": [[None if np.isnan(v) else v for v in row] for row in grid],
        "missing": missing,
    })
    return grid


def divergence_curve(benign_set, adv_set, metric: MetricKind):
    """Per-layer metric(benign_i, adv_i); the probe must be shared."""
    if benign_set.n != adv_set.n:
        raise ProbeMismatchError("probe sizes differ between conditions")
    if benign_set.layer_names != adv_set.layer_names:
        raise ProbeMismatchError("layer lists differ between conditions")
    dig_b = benign_set.manifest.get("probe_digest")
    dig_a = adv_set.manifest.get("probe_digest")
    if dig_b is not None and dig_a is not None and dig_b != dig_a:
        raise ProbeMismatchError("dumps were recorded over different probes")
    return np.array([
        metric.evaluate(rb.matrix, ra.matrix)
        for rb, ra in zip(benign_set.records, adv_set.records)
    ])


def run_divergence(spec: ExperimentSpec, out_dir: str):
    """Benign-vs-adversarial similarity by depth for one model."""
    if len(spec.runs) != 1:
        raise ConfigError("divergence expects exactly one run")
    benign = _final_probe(spec.runs[0], "benign")
    adv = _final_probe(spec.runs[0], "adv")
    curve = divergence_curve(benign, adv, spec.metric)
    third = max(1, int(np.ceil(len(curve) / 3)))
    summary = {
        "kind": "divergence",
        "first_third_mean": float(curve[:third].mean()),
        "final_layer": float(curve[-1]),
        "layers": benign.layer_names,
    }
    os.makedirs(out_dir, exist_ok=True)
    errors.write_csv(
        os.path.join(out_dir, "curves_divergence.csv"),
        ["layer", "similarity"],
        [[name, float(v)] for name, v in zip(benign.layer_names, curve)],
    )
    errors.write_json(os.path.join(out_dir, "summary.json"), summary)
    return curve, summary


def run_evolution(spec: ExperimentSpec, out_dir: str):
    """Similarity of each checkpoint epoch to the final epoch, per tap.

    Also emits the pairwise epoch x epoch heatmap per tap and the validation
    losses for overlay. All dumps must share the probe digest.
    """
    if len(spec.runs) != 1:
        raise ConfigError("evolution expects exactly one run")
    _, trace = load_run(spec.runs[0])
    entries = [e for e in trace.entries if e.probe_benign_path]
    if len(entries) < 2:
        raise ValidationError("evolution needs at least two checkpoints")
    sets = [read_dump(e.probe_benign_path) for e in entries]
    digests = {s.manifest.get("probe_digest") for s in sets}
    if len(digests) > 1:
        raise ProbeMismatchError("probe drifted across epochs")
    epochs = [e.epoch for e in entries]
    names = sets[0].layer_names
    tap_ids = list(spec.taps) if spec.taps else list(range(len(names)))
    index_of = {r.layer_index: k for k, r in enumerate(sets[0].records)}
    missing = [t for t in tap_ids if t not in index_of]
    if missing:
        raise ValidationError(f"taps {missing} not present in dumps")
    series = {}
    heatmaps = {}
    for t in tap_ids:
        k = index_of[t]
        # each (tap, epoch) layer is prepared once for all its cells
        layers = [spec.metric.prepare(s.records[k].matrix) for s in sets]
        final = layers[-1]
        series[t] = np.array([spec.metric.evaluate(m, final) for m in layers])
        heatmaps[t] = score_grid(spec.metric, layers, layers)
    os.makedirs(out_dir, exist_ok=True)
    errors.write_csv(
        os.path.join(out_dir, "curves_evolution.csv"),
        ["epoch"] + [names[index_of[t]] for t in tap_ids] + ["val_loss", "val_loss_adv"],
        [
            [e.epoch]
            + [float(series[t][i]) for t in tap_ids]
            + [e.val_loss, float("nan") if e.val_loss_adv is None else e.val_loss_adv]
            for i, e in enumerate(entries)
        ],
    )
    for t in tap_ids:
        write_heatmap(
            os.path.join(out_dir, f"heatmap_evolution_tap{t:02d}.ppm"),
            heatmaps[t], *spec.metric.value_range,
        )
    reach = {}
    for t in tap_ids:
        hit = [e for e, v in zip(epochs, series[t]) if v >= 0.9]
        reach[str(t)] = hit[0] if hit else None
    errors.write_json(os.path.join(out_dir, "summary.json"), {
        "kind": "evolution",
        "epochs": epochs,
        "taps": tap_ids,
        "reach_09_epoch": reach,
        "final_epoch": epochs[-1],
    })
    return epochs, series, heatmaps


def run_threatgrid(spec: ExperimentSpec, out_dir: str):
    """Pairwise benign cross-layer similarity between per-threat models."""
    if len(spec.runs) < 2:
        raise ConfigError("threatgrid expects at least two runs")
    labels = spec.labels or tuple(os.path.basename(r.rstrip("/")) for r in spec.runs)
    if len(set(labels)) != len(labels):
        raise ConfigError(f"threatgrid labels are not distinct: {list(labels)}")
    sets = {}
    missing = []
    for label, run in zip(labels, spec.runs):
        try:
            sets[label] = _final_probe(run, "benign")
        except (OSError, ValidationError) as exc:
            missing.append({"run": run, "error": str(exc)})
    names = list(sets)
    means = {}
    os.makedirs(out_dir, exist_ok=True)
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            if j < i:
                continue
            sm = crosslayer_matrix(sets[a], sets[a] if a == b else sets[b], spec.metric)
            sm.save(out_dir, f"threatgrid_{a}_vs_{b}")
            means[f"{a}|{b}"] = float(sm.values.mean())
    errors.write_json(os.path.join(out_dir, "summary.json"), {
        "kind": "threatgrid",
        "names": names,
        "pair_means": means,
        "missing": missing,
    })
    return names, means


_RUNNERS = {
    "crosslayer": run_crosslayer,
    "grid": run_grid,
    "divergence": run_divergence,
    "evolution": run_evolution,
    "threatgrid": run_threatgrid,
}
EXPERIMENT_KINDS = tuple(_RUNNERS)


def run_experiment(spec: ExperimentSpec, out_dir: str):
    """Dispatch an ExperimentSpec to its runner."""
    return _RUNNERS[spec.kind](spec, out_dir)
