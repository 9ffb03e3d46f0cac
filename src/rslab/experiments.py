"""Experiment families: cross-layer structure, budget/width grids, benign
vs adversarial divergence, evolution over epochs, threat grids.

Each runner consumes completed run directories, writes matrix_*.csv /
curves_*.csv / summary.json / heatmap_*.ppm into its output directory, and
returns its summary scalars so callers can assert numbers instead of reading
images. Re-running on unchanged inputs is byte-identical.
Any two dumps compared must share a probe digest. A training run draws its
probe from its seed, so `threatgrid` pairs only runs of one seed, and it
checks that all its runs share a probe before it writes any output; compare
other runs through `rslab record --data D --limit N` dumps of checkpoints.
`grid` finds each run's (epsilon, width) cell in the run itself: epsilon is
the training threat's in `config.json` (0.0 for a standard run, which has
none), width the final checkpoint's width factor.
"""
from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, fields

import numpy as np

from . import errors, nets
from .activations import read_dump, require_same_probe
from .errors import ConfigError, ProbeMismatchError, ValidationError
from .simmetrics import MetricKind, block_structure_score, crosslayer_matrix, score_grid
from .training import TrainingConfig, load_run

# per kind: the fields it reads besides `runs` and `metric` (every other
# field must keep its default), and the least and most runs it takes
_KIND_FIELDS = {
    "crosslayer": (("condition", "min_lag"), 1, 1),
    "grid": (("condition", "min_lag"), 0, None),
    "divergence": ((), 1, 1),
    "evolution": (("taps",), 1, 1),
    "threatgrid": (("labels",), 2, None),
}


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one experiment family instance."""

    kind: str
    runs: tuple[str, ...] = ()    # run directories (meaning depends on kind)
    labels: tuple[str, ...] = ()  # display names aligned with runs
    metric: MetricKind = MetricKind("linear_cka")
    condition: str = "benign"  # which probe dump to use: benign | adv
    min_lag: int | None = None
    taps: tuple[int, ...] = ()  # evolution: restrict to these layer indices

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.condition not in ("benign", "adv"):
            raise ConfigError(f"unknown condition {self.condition!r}")
        reads, least, most = _KIND_FIELDS[self.kind]
        for f in fields(self):
            own = f.name in ("kind", "runs", "metric") + reads
            if not own and getattr(self, f.name) != f.default:
                raise ConfigError(f"{self.kind} takes no field {f.name!r}")
        if not least <= len(self.runs) <= (most or len(self.runs)):
            count = f"exactly {least}" if least == most else f"at least {least}"
            raise ConfigError(f"{self.kind} takes {count} run(s), got {len(self.runs)}")
        if self.labels and len(self.labels) != len(self.runs):
            raise ConfigError(f"{len(self.labels)} labels for {len(self.runs)} runs")
        if (self.min_lag or 0) < 0 or any(t < 0 for t in self.taps):
            raise ConfigError(f"min_lag and taps must be >= 0, got {self.min_lag}, {self.taps}")
        if len(set(self.taps)) != len(self.taps):
            raise ConfigError(f"taps are not distinct: {list(self.taps)}")


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


def _run_cell(run_dir: str) -> tuple:
    """A run's (epsilon, width) cell and its (method, threat kind), which is
    None for a standard run."""
    config, trace = load_run(run_dir)
    if not isinstance(config, dict):
        raise ValidationError(f"run {run_dir}: config.json must be an object")
    training = errors.from_json(TrainingConfig, config.get("training"), "training")
    checkpoint = trace.entries[-1].checkpoint_path
    if checkpoint is None:
        raise ValidationError(f"run {run_dir} has no final checkpoint")
    threat = training.threat
    eps = 0.0 if threat is None else float(threat.epsilon)
    width = nets.load_checkpoint(checkpoint).width_factor
    return (eps, width), None if threat is None else (training.method, threat.kind)


def run_grid(spec: ExperimentSpec, out_dir: str):
    """Long-range score per (epsilon, width) cell, each run's cell read from
    the run by `_run_cell`; a cell no run fills is NaN.

    A run that cannot be read is listed under `missing` and takes no cell;
    two runs in one cell, or runs of two (method, threat kind) pairs, raise
    ConfigError before any output is written. Standard runs join any grid.
    """
    scores = {}
    procedures = set()
    missing = []
    for run in spec.runs:
        try:
            cell, procedure = _run_cell(run)
            aset = _final_probe(run, spec.condition)
        except (OSError, ConfigError, ValidationError) as exc:
            missing.append({"run": run, "error": str(exc)})
            continue
        procedures.add(procedure)
        if len(procedures - {None}) > 1:
            raise ConfigError(f"grid mixes (method, threat kind) {sorted(procedures - {None})}")
        if cell in scores:
            raise ConfigError(f"grid has two runs in the (epsilon, width) cell {cell}")
        sm = crosslayer_matrix(aset, aset, spec.metric)
        lag = spec.min_lag if spec.min_lag is not None else _default_lag(aset)
        scores[cell] = block_structure_score(sm, lag)
    eps_axis = sorted({eps for eps, _ in scores})
    width_axis = sorted({width for _, width in scores})
    grid = np.full((len(eps_axis), len(width_axis)), np.nan)
    for (eps, width), score in scores.items():
        grid[eps_axis.index(eps), width_axis.index(width)] = score
    os.makedirs(out_dir, exist_ok=True)
    errors.write_csv(
        os.path.join(out_dir, "matrix_grid.csv"),
        ["epsilon\\width"] + [str(w) for w in width_axis],
        [[str(e), *grid[i]] for i, e in enumerate(eps_axis)],
    )
    errors.write_json(os.path.join(out_dir, "summary.json"), {
        "kind": "grid",
        "eps_axis": eps_axis,
        "width_axis": width_axis,
        "scores": [[None if np.isnan(v) else v for v in row] for row in grid],
        "missing": missing,
    })
    return grid


def divergence_curve(benign_set, adv_set, metric: MetricKind):
    """Per-layer metric(benign_i, adv_i); the probe must be shared."""
    require_same_probe(benign_set, adv_set)
    if benign_set.layer_names != adv_set.layer_names:
        raise ProbeMismatchError("layer lists differ between conditions")
    return np.array([
        metric.evaluate(rb.matrix, ra.matrix)
        for rb, ra in zip(benign_set.records, adv_set.records)
    ])


def run_divergence(spec: ExperimentSpec, out_dir: str):
    """Benign-vs-adversarial similarity by depth for one model."""
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

    Also saves each tap's epoch x epoch `SimilarityMatrix` as
    matrix_evolution_tapNN.csv/.json and heatmap_evolution_tapNN.ppm, and
    writes the validation losses for overlay. All dumps must share the
    probe digest. Returns (epochs, {tap: series}, {tap: grid values}).
    """
    _, trace = load_run(spec.runs[0])
    entries = [e for e in trace.entries if e.probe_benign_path]
    if len(entries) < 2:
        raise ValidationError("evolution needs at least two checkpoints")
    sets = [read_dump(e.probe_benign_path) for e in entries]
    require_same_probe(*sets)
    epochs = [e.epoch for e in entries]
    names = sets[0].layer_names
    tap_ids = list(spec.taps) if spec.taps else list(range(len(names)))
    index_of = {r.layer_index: k for k, r in enumerate(sets[0].records)}
    missing = [t for t in tap_ids if t not in index_of]
    if missing:
        raise ValidationError(f"taps {missing} not present in dumps")
    epoch_names = [f"epoch_{e:03d}" for e in epochs]
    os.makedirs(out_dir, exist_ok=True)
    series = {}
    heatmaps = {}
    clamped = False
    for t in tap_ids:
        k = index_of[t]
        # each (tap, epoch) layer is prepared once for all its cells
        layers = [spec.metric.prepare(s.records[k].matrix) for s in sets]
        final = layers[-1]
        series[t] = np.array([spec.metric.evaluate(m, final) for m in layers])
        # every dump of the run gives the sidecar the same n, model id and condition
        sm = score_grid(spec.metric, layers, layers, epoch_names, epoch_names, sets[0], sets[-1])
        clamped |= sm.save(out_dir, f"evolution_tap{t:02d}")
        heatmaps[t] = sm.values
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
        "clamped": clamped,
    })
    return epochs, series, heatmaps


def run_threatgrid(spec: ExperimentSpec, out_dir: str):
    """Pairwise benign cross-layer similarity between per-threat models.

    Each run's label, given or its directory's name, must be distinct and
    nonempty and hold no '/' or '|'; else ConfigError before any output.
    Every readable run's dump must share one probe, else ProbeMismatchError,
    also before any output. Each model's layers are prepared once, and
    `score_grid` scores every pair of models from them."""
    labels = spec.labels or tuple(os.path.basename(r.rstrip("/")) for r in spec.runs)
    if len(set(labels)) != len(labels):
        raise ConfigError(f"threatgrid labels are not distinct: {list(labels)}")
    # a label names output files and, joined by "|", the pair_means keys
    bad = [label for label in labels if not label or "/" in label or "|" in label]
    if bad:
        raise ConfigError(f"threatgrid labels must be nonempty, without '/' or '|': {bad}")
    sets = {}
    missing = []
    for label, run in zip(labels, spec.runs):
        try:
            sets[label] = _final_probe(run, "benign")
        except (OSError, ValidationError) as exc:
            missing.append({"run": run, "error": str(exc)})
    require_same_probe(*sets.values())
    names = list(sets)
    layers = {a: [spec.metric.prepare(r.matrix) for r in s.records] for a, s in sets.items()}
    means = {}
    os.makedirs(out_dir, exist_ok=True)
    for a, b in itertools.combinations_with_replacement(names, 2):
        sm = score_grid(spec.metric, layers[a], layers[b], sets[a].layer_names,
                        sets[b].layer_names, sets[a], sets[b])
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
