import json
import os
import shutil

import numpy as np
import pytest

from rslab import errors, experiments, nets, threats, training
from rslab.errors import ConfigError, ProbeMismatchError
from rslab.simmetrics import MetricKind


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """One small adversarially trained run with per-epoch checkpoints."""
    root = tmp_path_factory.mktemp("runs")
    spec = training.DatasetSpec(
        classes=2, size=8, n_train=160, n_val=64, blob_amplitude=0.5,
        blob_sigma=1.8, noise_std=0.04, jitter=1, texture_amplitude=0.08,
    )
    data = training.make_synthetic_dataset(spec, seed=0)
    threat = threats.ThreatModel("linf", 0.05, steps=3)
    net = nets.make_network("miniresnet", (1, 8, 8), classes=2, seed=0)
    out = str(root / "adv")
    cfg = training.TrainingConfig(
        method="advpgd", threat=threat, epochs=3, checkpoint_every=1,
        probe_size=24, val_adv_subset=24,
    )
    training.train(net, data, cfg, out_dir=out, model_id="adv")
    return out, data


def test_crosslayer_unit_diagonal_and_outputs(tiny_run, tmp_path):
    run_dir, _ = tiny_run
    spec = experiments.ExperimentSpec(kind="crosslayer", runs=(run_dir,))
    out = str(tmp_path / "xl")
    sm, score = experiments.run_crosslayer(spec, out)
    assert np.allclose(np.diag(sm.values), 1.0)
    assert os.path.exists(os.path.join(out, "matrix_crosslayer.csv"))
    assert os.path.exists(os.path.join(out, "heatmap_crosslayer.ppm"))
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    assert summary["long_range_score"] == pytest.approx(score)
    # CSV row/col count equals tap count
    import csv

    with open(os.path.join(out, "matrix_crosslayer.csv")) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) - 1 == len(sm.row_names) == summary["layers"]


def test_crosslayer_rerun_byte_identical(tiny_run, tmp_path):
    run_dir, _ = tiny_run
    spec = experiments.ExperimentSpec(kind="crosslayer", runs=(run_dir,))
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    experiments.run_crosslayer(spec, out_a)
    experiments.run_crosslayer(spec, out_b)
    for name in sorted(os.listdir(out_a)):
        with open(os.path.join(out_a, name), "rb") as fa, open(
            os.path.join(out_b, name), "rb"
        ) as fb:
            assert fa.read() == fb.read(), name


def test_divergence_curve_and_summary(tiny_run, tmp_path):
    run_dir, _ = tiny_run
    spec = experiments.ExperimentSpec(kind="divergence", runs=(run_dir,))
    out = str(tmp_path / "div")
    curve, summary = experiments.run_divergence(spec, out)
    assert len(curve) == 22  # miniresnet layer count
    assert 0.0 <= min(curve) and max(curve) <= 1.0 + 1e-9
    assert summary["first_third_mean"] == pytest.approx(
        float(np.mean(curve[: int(np.ceil(len(curve) / 3))]))
    )
    assert summary["final_layer"] == pytest.approx(float(curve[-1]))


def test_divergence_eps0_flat_one(tiny_run, tmp_path):
    run_dir, data = tiny_run
    # fresh probes under a zero-budget threat: the two dumps coincide
    net = nets.load_checkpoint(os.path.join(run_dir, "checkpoints", "epoch_003.rsck"))
    probe = nets.Batch(data.val.inputs[:16], data.val.labels[:16])
    bp, ap = training.checkpoint_probe(
        net, probe, "final", threats.ThreatModel("linf", 0.0, steps=2),
        str(tmp_path / "probes"), seed=0,
    )
    from rslab.activations import read_dump

    curve = experiments.divergence_curve(
        read_dump(bp), read_dump(ap), MetricKind("linear_cka")
    )
    assert np.abs(curve - 1.0).max() <= 1e-6


def test_divergence_probe_mismatch_raises(tiny_run, tmp_path):
    run_dir, data = tiny_run
    from rslab.activations import read_dump

    net = nets.load_checkpoint(os.path.join(run_dir, "checkpoints", "epoch_003.rsck"))
    threat = threats.ThreatModel("linf", 0.05, steps=2)
    p1 = nets.Batch(data.val.inputs[:16], data.val.labels[:16])
    p2 = nets.Batch(data.val.inputs[16:32], data.val.labels[16:32])
    b1, _ = training.checkpoint_probe(net, p1, 1, threat, str(tmp_path / "a"), seed=0)
    _, a2 = training.checkpoint_probe(net, p2, 1, threat, str(tmp_path / "b"), seed=0)
    with pytest.raises(ProbeMismatchError):
        experiments.divergence_curve(
            read_dump(b1), read_dump(a2), MetricKind("linear_cka")
        )


def test_divergence_refuses_one_digest_missing(tiny_run):
    # a missing digest pairs only with another missing one
    from rslab.activations import ActivationSet, read_dump

    run_dir, _ = tiny_run
    _, trace = training.load_run(run_dir)
    benign = read_dump(trace.entries[-1].probe_benign_path)
    adv = read_dump(trace.entries[-1].probe_adv_path)
    bare = ActivationSet(adv.records, adv.labels, {
        k: v for k, v in adv.manifest.items() if k != "probe_digest"
    })
    with pytest.raises(ProbeMismatchError):
        experiments.divergence_curve(benign, bare, MetricKind("linear_cka"))
    bare_benign = ActivationSet(benign.records, benign.labels)
    curve = experiments.divergence_curve(bare_benign, bare, MetricKind("linear_cka"))
    assert np.array_equal(curve, experiments.divergence_curve(benign, adv, MetricKind("linear_cka")))


def test_evolution_series_and_heatmaps(tiny_run, tmp_path):
    run_dir, _ = tiny_run
    spec = experiments.ExperimentSpec(
        kind="evolution", runs=(run_dir,), taps=(6, 18)
    )
    out = str(tmp_path / "evo")
    epochs, series, heatmaps = experiments.run_evolution(spec, out)
    assert epochs == [1, 2, 3]
    for t in (6, 18):
        assert series[t][-1] == pytest.approx(1.0, abs=1e-9)  # final vs itself
        h = heatmaps[t]
        assert np.allclose(np.diag(h), 1.0, atol=1e-9)
        assert np.array_equal(h, h.T)
        assert os.path.exists(os.path.join(out, f"heatmap_evolution_tap{t:02d}.ppm"))
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    assert summary["final_epoch"] == 3


def test_evolution_keeps_a_zero_adversarial_loss(tiny_run, tmp_path):
    # 0 is a recorded loss and is written as 0; only a missing one is NaN
    import csv
    import shutil

    run_dir = str(tmp_path / "run")
    shutil.copytree(tiny_run[0], run_dir)
    path = os.path.join(run_dir, "trace.csv")
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[0]["val_loss_adv"], rows[1]["val_loss_adv"] = "0", ""
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)
    out = str(tmp_path / "evo")
    experiments.run_evolution(experiments.ExperimentSpec(kind="evolution", runs=(run_dir,)), out)
    with open(os.path.join(out, "curves_evolution.csv"), newline="") as fh:
        column = [row["val_loss_adv"] for row in csv.DictReader(fh)]
    assert column[:2] == ["0", "nan"] and float(column[2]) > 0


def test_evolution_prepares_each_layer_once(tiny_run, tmp_path, monkeypatch):
    run_dir, _ = tiny_run
    taps = (6, 18)
    prepared = []
    prepare = MetricKind.prepare

    def counted(self, x, name="x"):
        prepared.append(self.name)
        return prepare(self, x, name)

    monkeypatch.setattr(MetricKind, "prepare", counted)
    for metric in (MetricKind("linear_cka"), MetricKind("online_cka", 8, 2, 1)):
        prepared.clear()
        spec = experiments.ExperimentSpec(
            kind="evolution", runs=(run_dir,), metric=metric, taps=taps
        )
        epochs, _, _ = experiments.run_evolution(spec, str(tmp_path / metric.name))
        assert len(prepared) == len(taps) * len(epochs)


def test_evolution_saves_each_tap_grid(tiny_run, tmp_path):
    run_dir, _ = tiny_run
    taps = (6, 18)
    spec = experiments.ExperimentSpec(kind="evolution", runs=(run_dir,), taps=taps)
    out = str(tmp_path / "evo")
    epochs, _, heatmaps = experiments.run_evolution(spec, out)
    import csv

    for t in taps:
        base = os.path.join(out, f"matrix_evolution_tap{t:02d}")
        with open(base + ".csv") as fh:
            rows = list(csv.reader(fh))
        names = [f"epoch_{e:03d}" for e in epochs]
        assert rows[0] == ["", *names] and [r[0] for r in rows[1:]] == names
        values = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
        np.testing.assert_allclose(values, heatmaps[t], rtol=0, atol=1e-12)
        with open(base + ".json") as fh:
            sidecar = json.load(fh)
        assert sidecar["n"] == 24 and sidecar["model_ids"] == ["adv", "adv"]
        assert sidecar["conditions"] == [{"kind": "benign"}] * 2
        assert os.path.exists(os.path.join(out, f"heatmap_evolution_tap{t:02d}.ppm"))
    with open(os.path.join(out, "summary.json")) as fh:
        assert json.load(fh)["clamped"] is False


def test_grid_single_cell_equals_crosslayer(tiny_run, tmp_path):
    run_dir, _ = tiny_run
    xspec = experiments.ExperimentSpec(kind="crosslayer", runs=(run_dir,))
    _, score = experiments.run_crosslayer(xspec, str(tmp_path / "xl"))
    gspec = experiments.ExperimentSpec(kind="grid", runs=(run_dir,))
    out = str(tmp_path / "grid")
    grid = experiments.run_grid(gspec, out)
    assert grid.shape == (1, 1)
    assert grid[0, 0] == pytest.approx(score)
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    # the cell is the run's own: its training threat's epsilon and its width
    assert summary["eps_axis"] == [0.05] and summary["width_axis"] == [1]


def test_grid_missing_cells_reported(tiny_run, tmp_path):
    run_dir, _ = tiny_run
    gspec = experiments.ExperimentSpec(
        kind="grid", runs=(run_dir, str(tmp_path / "missing_run"))
    )
    out = str(tmp_path / "grid")
    grid = experiments.run_grid(gspec, out)
    # a run that cannot be read takes no cell
    assert grid.shape == (1, 1) and not np.isnan(grid).any()
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    assert len(summary["missing"]) == 1


def _without_final_checkpoint(trace: str) -> str:
    lines = trace.splitlines(keepends=True)
    return "".join(lines[:-1] + [lines[-1].replace("checkpoints/epoch_003.rsck", "")])


@pytest.mark.parametrize("name, corrupt", [
    ("config.json", lambda _: "[]"),
    ("config.json", lambda _: '{"training": {"method": "nope"}}'),
    ("trace.csv", _without_final_checkpoint),
], ids=["config-not-object", "config-bad-method", "no-final-checkpoint"])
def test_grid_lists_a_run_it_cannot_read_as_missing(tiny_run, tmp_path, name, corrupt):
    run_dir, _ = tiny_run
    bad = str(tmp_path / "bad_run")
    shutil.copytree(run_dir, bad)
    path = os.path.join(bad, name)
    with open(path) as fh:
        content = corrupt(fh.read())
    with open(path, "w") as fh:
        fh.write(content)
    out = str(tmp_path / "grid")
    grid = experiments.run_grid(experiments.ExperimentSpec(kind="grid", runs=(bad,)), out)
    assert grid.shape == (0, 0)
    with open(os.path.join(out, "summary.json")) as fh:
        assert [m["run"] for m in json.load(fh)["missing"]] == [bad]


def test_grid_rejects_two_runs_in_one_cell(tiny_run, tmp_path):
    run_dir, _ = tiny_run
    gspec = experiments.ExperimentSpec(kind="grid", runs=(run_dir, run_dir))
    out = str(tmp_path / "grid")
    with pytest.raises(ConfigError):
        experiments.run_grid(gspec, out)
    assert not os.path.exists(out)


def _run_trained_as(run_dir, dest, **training_fields):
    """A copy of `run_dir` whose config.json says it was trained with `training_fields`."""
    shutil.copytree(run_dir, dest)
    path = os.path.join(dest, "config.json")
    with open(path) as fh:
        config = json.load(fh)
    config["training"].update(training_fields)
    with open(path, "w") as fh:
        json.dump(config, fh)
    return str(dest)


@pytest.mark.parametrize("training_fields", [
    # another cell, but linf and l2 epsilons would share one axis
    {"threat": {"kind": "l2", "epsilon": 0.5, "steps": 3}},
    # the same (epsilon, width) cell, from another training procedure
    {"method": "trades"},
], ids=["threat-kind", "method"])
def test_grid_rejects_runs_of_two_procedures(tiny_run, tmp_path, training_fields):
    run_dir, _ = tiny_run
    other = _run_trained_as(run_dir, tmp_path / "other", **training_fields)
    out = str(tmp_path / "grid")
    with pytest.raises(ConfigError, match=r"\(method, threat kind\)"):
        experiments.run_grid(experiments.ExperimentSpec(kind="grid", runs=(run_dir, other)), out)
    assert not os.path.exists(out)


def test_grid_takes_a_standard_run_beside_any_procedure(tiny_run, tmp_path):
    run_dir, _ = tiny_run
    standard = _run_trained_as(run_dir, tmp_path / "std", method="standard", threat=None)
    spec = experiments.ExperimentSpec(kind="grid", runs=(standard, run_dir))
    out = str(tmp_path / "grid")
    assert experiments.run_grid(spec, out).shape == (2, 1)
    with open(os.path.join(out, "summary.json")) as fh:
        assert json.load(fh)["eps_axis"] == [0.0, 0.05]


def test_threatgrid_pair_means(tiny_run, tmp_path):
    run_dir, _ = tiny_run
    spec = experiments.ExperimentSpec(
        kind="threatgrid", runs=(run_dir, run_dir), labels=("x", "y")
    )
    out = str(tmp_path / "tg")
    names, means = experiments.run_threatgrid(spec, out)
    assert set(names) == {"x", "y"}
    # same underlying run on both sides: self and cross means coincide
    assert means["x|y"] == pytest.approx(means["x|x"])
    assert os.path.exists(os.path.join(out, "matrix_threatgrid_x_vs_y.csv"))


def test_threatgrid_prepares_each_model_once(tiny_run, tmp_path, monkeypatch):
    run_dir, _ = tiny_run
    prepared = []
    prepare = MetricKind.prepare

    def counted(self, x, name="x"):
        prepared.append(self.name)
        return prepare(self, x, name)

    monkeypatch.setattr(MetricKind, "prepare", counted)
    spec = experiments.ExperimentSpec(
        kind="threatgrid", runs=(run_dir,) * 3, labels=("x", "y", "z")
    )
    names, _ = experiments.run_threatgrid(spec, str(tmp_path / "tg"))
    layers = len(experiments._final_probe(run_dir, "benign").records)
    assert len(names) == 3 and len(prepared) == 3 * layers


def test_threatgrid_rejects_repeated_labels(tmp_path):
    out = str(tmp_path / "tg")
    defaulted = tuple(str(tmp_path / d / "model") for d in "abc")  # all label "model"
    for spec in (
        experiments.ExperimentSpec(kind="threatgrid", runs=defaulted),
        experiments.ExperimentSpec(
            kind="threatgrid", runs=("a", "b", "c"), labels=("x", "y", "x")
        ),
    ):
        with pytest.raises(ConfigError):
            experiments.run_threatgrid(spec, out)
    assert not os.path.exists(out)


def spec_from_json(d):
    return errors.from_json(experiments.ExperimentSpec, d, "experiment")


def test_experiment_spec_validation():
    with pytest.raises(ConfigError):
        experiments.ExperimentSpec(kind="nope")
    with pytest.raises(ConfigError):
        spec_from_json({"kind": "crosslayer", "bogus": 1})
    for bad in (
        [], {}, {"runs": ["r"]}, {"kind": "crosslayer", "runs": None, "taps": [1, [2]]},
        {"kind": "crosslayer", "runs": "r"}, {"kind": "crosslayer", "min_lag": True},
        {"kind": "crosslayer", "condition": "clean"},
        {"kind": "transfer"},
        {"kind": "crosslayer", "metric": {"name": "svcca", "variance_fraction": "0.9"}},
        {"kind": "crosslayer", "metric": {"name": "linear_cka", "bogus": 1}},
        # parameters of another metric
        {"kind": "crosslayer",
         "metric": {"name": "linear_cka", "batch": 5, "variance_fraction": 0.3}},
        {"kind": "crosslayer", "metric": {"name": "svcca", "variance_fraction": 0.9, "seed": 1}},
        {"kind": "crosslayer", "metric": {
            "name": "online_cka", "batch": 8, "passes": 1, "variance_fraction": 0.9}},
        {"kind": "crosslayer", "metric": {"name": "nope"}},
        {"kind": "threatgrid", "runs": ["a", "b", "c"], "labels": ["x", "y"]},
        {"kind": "threatgrid", "runs": ["a", "b"], "labels": ["x", "y", "z"]},
        # fields the kind does not read
        {"kind": "evolution", "runs": ["r"], "condition": "adv", "labels": ["x"]},
        {"kind": "evolution", "runs": ["r"], "condition": "adv"},
        {"kind": "evolution", "runs": ["r"], "min_lag": 1},
        {"kind": "threatgrid", "runs": ["a", "b"], "condition": "adv"},
        {"kind": "threatgrid", "runs": ["a", "b"], "taps": [1]},
        {"kind": "divergence", "runs": ["r"], "condition": "adv"},
        {"kind": "divergence", "runs": ["r"], "min_lag": 2},
        {"kind": "crosslayer", "runs": ["r"], "labels": ["x"]},
        {"kind": "crosslayer", "runs": ["r"], "taps": [1]},
        {"kind": "grid", "runs": ["r"], "labels": ["x"]},
        {"kind": "grid", "runs": ["r"], "taps": [0]},
        # a grid run's cell is read from the run, never given
        {"kind": "grid", "runs": ["r"], "eps_values": [0.1]},
        {"kind": "grid", "runs": ["r"], "width_values": [1]},
        # run counts outside the kind's range
        {"kind": "crosslayer", "runs": ["a", "b"]},
        {"kind": "divergence", "runs": []},
        {"kind": "evolution", "runs": ["a", "b"]},
        {"kind": "threatgrid", "runs": ["a"]},
        # negative lags and taps, refused before any dump is read
        {"kind": "crosslayer", "runs": ["r"], "min_lag": -1},
        {"kind": "grid", "runs": ["r"], "min_lag": -2},
        {"kind": "evolution", "runs": ["r"], "taps": [-1]},
        {"kind": "evolution", "runs": ["r"], "taps": [2, -3]},
    ):
        with pytest.raises(ConfigError):
            spec_from_json(bad)
    # each kind's own fields, and every field at its default
    for good in (
        {"kind": "crosslayer", "runs": ["r"], "condition": "adv", "min_lag": 2},
        {"kind": "grid", "runs": ["r"], "condition": "adv", "min_lag": 1},
        {"kind": "evolution", "runs": ["r"], "taps": [1]},
        {"kind": "crosslayer", "runs": ["r"], "min_lag": 0},
        {"kind": "evolution", "runs": ["r"], "taps": [0]},
        {"kind": "threatgrid", "runs": ["a", "b"], "labels": ["x", "y"]},
        {"kind": "divergence", "runs": ["r"], "condition": "benign", "labels": [],
         "min_lag": None},
    ):
        spec_from_json(good)
    spec = spec_from_json(
        {"kind": "crosslayer", "runs": ["r"], "metric": {"name": "procrustes"}}
    )
    assert spec.metric.name == "procrustes"


def test_ppm_writer(tmp_path):
    from rslab.ppm import write_heatmap

    path = str(tmp_path / "h.ppm")
    clamped = write_heatmap(path, np.array([[0.0, 0.5], [1.0, 2.0]]), 0.0, 1.0, scale=2)
    assert clamped  # the 2.0 cell is out of range
    raw = (tmp_path / "h.ppm").read_bytes()
    assert raw.startswith(b"P6\n4 4\n255\n")
    assert len(raw) == len(b"P6\n4 4\n255\n") + 4 * 4 * 3
    assert not write_heatmap(path, np.array([[0.2]]), 0.0, 1.0)
