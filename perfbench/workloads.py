"""The benchmark's three workloads, each a set-up plus a repeatable round.

Every workload drives rslab only through `rslab.cli.main` argument lists.
The seed fixes the dataset, the training runs and the attacks, so the same
seed always gives the same inputs and outputs. Each workload also states,
from its own definition and independently of any trace, how many times the
traced run must enter key rslab functions (the tracing self-check) and how
many distinct similarity values its round writes.
"""
from __future__ import annotations

import csv
import json
import math
import os

SCHEMA = {"schema_version": 1}


def _write_json(path: str, doc: dict) -> str:
    with open(path, "w") as fh:
        json.dump({**SCHEMA, **doc}, fh, sort_keys=True, indent=1)
    return path


def _last_trace_row(run_dir: str) -> dict:
    with open(os.path.join(run_dir, "trace.csv"), newline="") as fh:
        return list(csv.DictReader(fh))[-1]


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _matrix_mean(path: str) -> float:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    values = [float(v) for r in rows for v in r[1:]]
    return sum(values) / len(values)


def _training_scalars(prefix: str, run_dir: str) -> dict:
    row = _last_trace_row(run_dir)
    out = {f"{prefix}.benign_acc": float(row["benign_acc"])}
    if row["robust_acc"]:
        out[f"{prefix}.robust_acc"] = float(row["robust_acc"])
    return out


def _train_argv(config: str, data: str, seed: int, out: str) -> list:
    return ["train", "--config", config, "--data", data, "--seed", str(seed),
            "--out", out, "--force"]


def _advpgd_generate_calls(cfg: dict, n_train: int) -> int:
    """threats.generate calls of one advpgd run with a default eval threat:
    one per batch, one validation attack per epoch, one adversarial probe
    per checkpoint."""
    epochs = cfg["epochs"]
    every = cfg.get("checkpoint_every", 0)
    checkpoints = epochs // every if every else 1
    return epochs * (math.ceil(n_train / cfg.get("batch_size", 64)) + 1) + checkpoints


def _crosslayer_outputs(label: str, out_dir: str) -> dict:
    summary = _read_json(os.path.join(out_dir, "summary.json"))
    return {
        f"crosslayer.{label}.long_range_score": summary["long_range_score"],
        f"crosslayer.{label}.mean": _matrix_mean(os.path.join(out_dir, "matrix_crosslayer.csv")),
    }


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, cli, setup_dir: str) -> dict:
        """Write inputs and artifacts into setup_dir; return checked scalars."""
        raise NotImplementedError

    def round(self, cli, setup_dir: str, round_dir: str) -> None:
        """The measured operations; outputs go under round_dir."""
        raise NotImplementedError

    def round_outputs(self, round_dir: str) -> tuple:
        """(checked scalars, distinct similarity values written)."""
        raise NotImplementedError

    def expected_setup_spans(self) -> dict:
        raise NotImplementedError

    def expected_round_spans(self) -> dict:
        raise NotImplementedError


class Pipeline(Workload):
    """gen-data, standard + advpgd training, then all five attacks."""

    name = "pipeline"
    DATA = {"classes": 4, "size": 16, "n_train": 1000, "n_val": 512}
    STANDARD = {"method": "standard", "epochs": 2, "probe_size": 512}
    # eval_threat defaults to the training threat with doubled steps (10)
    ADVPGD = {"method": "advpgd", "epochs": 1, "probe_size": 512,
              "threat": {"kind": "linf", "epsilon": 0.1, "steps": 5}}
    ATTACKS = (("linf", 0.1), ("l2", 2.0), ("jpeg", 0.4), ("gabor", 0.3), ("snow", 1.0))
    ATTACK_STEPS = 2
    # above evaluate_accuracy's 128-point chunk, so cmd_attack's second
    # attack pass is on the measured path
    ATTACK_LIMIT = 256

    def setup(self, cli, setup_dir):
        _write_json(os.path.join(setup_dir, "dataset.json"), {"dataset": self.DATA})
        for label, cfg in (("standard", self.STANDARD), ("advpgd", self.ADVPGD)):
            _write_json(os.path.join(setup_dir, f"{label}.json"),
                        {"arch": "miniresnet", "training": cfg})
        return {}

    def round(self, cli, setup_dir, round_dir):
        data = os.path.join(round_dir, "data.npz")
        cli.run(["gen-data", "--spec", os.path.join(setup_dir, "dataset.json"),
                 "--seed", str(self.seed), "--out", data, "--force"])
        for label, cfg in (("standard", self.STANDARD), ("advpgd", self.ADVPGD)):
            cli.run(_train_argv(os.path.join(setup_dir, f"{label}.json"), data, self.seed,
                                os.path.join(round_dir, label)),
                    train_samples=cfg["epochs"] * self.DATA["n_train"])
        model = os.path.join(round_dir, "standard", "checkpoints",
                             f"epoch_{self.STANDARD['epochs']:03d}.rsck")
        for kind, eps in self.ATTACKS:
            cli.run(["attack", "--model", model, "--threat", kind, "--eps", str(eps),
                     "--steps", str(self.ATTACK_STEPS), "--data", data,
                     "--limit", str(self.ATTACK_LIMIT), "--seed", str(self.seed),
                     "--out", os.path.join(round_dir, f"attack_{kind}"), "--force"],
                    attack_points=self.ATTACK_LIMIT)

    def round_outputs(self, round_dir):
        out = {}
        out.update(_training_scalars("train.standard", os.path.join(round_dir, "standard")))
        out.update(_training_scalars("train.advpgd", os.path.join(round_dir, "advpgd")))
        for kind, _ in self.ATTACKS:
            acc = _read_json(os.path.join(round_dir, f"attack_{kind}", "accuracy.json"))
            out[f"attack.{kind}.robust_acc"] = acc["robust_acc"]
            out[f"attack.{kind}.flipped"] = acc["flipped"]
        return out, 0

    def expected_setup_spans(self):
        return {}

    def expected_round_spans(self):
        attacks = len(self.ATTACKS)
        per_attack = math.ceil(self.ATTACK_LIMIT / 128) + 1
        return {
            "cli.main": 3 + attacks,
            "training.train": 2,
            "training.checkpoint_probe": 2,
            "nets.save_checkpoint": 2,
            "nets.load_checkpoint": attacks,
            "threats.evaluate_accuracy": attacks,
            "threats.generate": _advpgd_generate_calls(self.ADVPGD, self.DATA["n_train"])
            + attacks * per_attack,
            # standard: benign probe; advpgd: benign + adversarial; one per attack
            "activations.write_dump": 1 + 2 + attacks,
        }


class AnalysisWide(Workload):
    """Similarity experiments on miniresnet dumps whose early taps are wider
    (2048 columns) than the probe is tall."""

    name = "analysis-wide"
    PROBE = 96
    LAYERS = 22
    DATA = {"classes": 4, "size": 16, "n_train": 256, "n_val": PROBE}
    ADVPGD = {"method": "advpgd", "epochs": 2, "checkpoint_every": 1,
              "probe_size": PROBE, "val_adv_subset": PROBE,
              "threat": {"kind": "linf", "epsilon": 0.1, "steps": 2}}
    EXPERIMENTS = (
        ("crosslayer_linear_cka", {"kind": "crosslayer", "metric": {"name": "linear_cka"}}),
        ("crosslayer_svcca", {"kind": "crosslayer",
                              "metric": {"name": "svcca", "variance_fraction": 0.99}}),
        ("divergence_procrustes", {"kind": "divergence", "metric": {"name": "procrustes"}}),
        ("evolution_linear_cka", {"kind": "evolution", "metric": {"name": "linear_cka"}}),
    )

    def setup(self, cli, setup_dir):
        data = os.path.join(setup_dir, "data.npz")
        spec = _write_json(os.path.join(setup_dir, "dataset.json"), {"dataset": self.DATA})
        cli.run(["gen-data", "--spec", spec, "--seed", str(self.seed), "--out", data, "--force"])
        cfg = _write_json(os.path.join(setup_dir, "advpgd.json"),
                          {"arch": "miniresnet", "training": self.ADVPGD})
        run = os.path.join(setup_dir, "advpgd")
        cli.run(_train_argv(cfg, data, self.seed, run))
        for label, exp in self.EXPERIMENTS:
            _write_json(os.path.join(setup_dir, f"{label}.json"),
                        {"experiment": {**exp, "runs": [run]}})
        return _training_scalars("train.advpgd", run)

    def round(self, cli, setup_dir, round_dir):
        for label, _ in self.EXPERIMENTS:
            cli.run(["experiment", "--spec", os.path.join(setup_dir, f"{label}.json"),
                     "--out", os.path.join(round_dir, label), "--force"])

    def round_outputs(self, round_dir):
        out = {}
        out.update(_crosslayer_outputs("linear_cka", os.path.join(round_dir, "crosslayer_linear_cka")))
        out.update(_crosslayer_outputs("svcca", os.path.join(round_dir, "crosslayer_svcca")))
        div = _read_json(os.path.join(round_dir, "divergence_procrustes", "summary.json"))
        out["divergence.procrustes.first_third_mean"] = div["first_third_mean"]
        out["divergence.procrustes.final_layer"] = div["final_layer"]
        evo = _read_json(os.path.join(round_dir, "evolution_linear_cka", "summary.json"))
        for tap, epoch in evo["reach_09_epoch"].items():
            # a tap that never reaches 0.9 is recorded as epoch 0
            out[f"evolution.linear_cka.reach_09_epoch.{int(tap):02d}"] = epoch or 0
        return out, self._cells()

    def _cells(self) -> int:
        L, E = self.LAYERS, self.ADVPGD["epochs"]
        # symmetric grids count once: two L x L crosslayer matrices, one
        # divergence curve, and per tap the E x E epoch heatmap (the
        # to-final series repeats its last column)
        return 2 * L * (L + 1) // 2 + L + L * E * (E + 1) // 2

    def expected_setup_spans(self):
        epochs = self.ADVPGD["epochs"]
        return {
            "cli.main": 2,
            "training.train": 1,
            "training.checkpoint_probe": epochs,
            "threats.generate": _advpgd_generate_calls(self.ADVPGD, self.DATA["n_train"]),
            "activations.write_dump": 2 * epochs,
        }

    def expected_round_spans(self):
        L, E = self.LAYERS, self.ADVPGD["epochs"]
        grid = L * (L + 1) // 2
        return {
            "cli.main": len(self.EXPERIMENTS),
            "experiments.run_crosslayer": 2,
            "experiments.run_divergence": 1,
            "experiments.run_evolution": 1,
            "simmetrics.crosslayer_matrix": 2,
            # evolution evaluates the to-final series and the full heatmap
            # upper triangle, diagonal included, for every tap
            "simmetrics.MetricKind.evaluate": 2 * grid + L + L * (E + E * (E + 1) // 2),
            "numerics.svd_truncate": 2 * grid,
            "activations.read_dump": 1 + 1 + 2 + E,
            "ppm.write_heatmap": 2 + L,
        }


class AnalysisTall(Workload):
    """All five crosslayer metrics on an mlp-3 dump with n >> p."""

    name = "analysis-tall"
    PROBE = 8192
    LAYERS = 6
    DATA = {"classes": 4, "size": 16, "n_train": 512, "n_val": PROBE}
    STANDARD = {"method": "standard", "epochs": 1, "probe_size": PROBE}
    METRICS = (
        {"name": "linear_cka"},
        {"name": "online_cka", "batch": 1024, "passes": 1, "seed": 0},
        {"name": "mean_cca"},
        {"name": "svcca", "variance_fraction": 0.99},
        {"name": "procrustes"},
    )

    def setup(self, cli, setup_dir):
        data = os.path.join(setup_dir, "data.npz")
        spec = _write_json(os.path.join(setup_dir, "dataset.json"), {"dataset": self.DATA})
        cli.run(["gen-data", "--spec", spec, "--seed", str(self.seed), "--out", data, "--force"])
        cfg = _write_json(os.path.join(setup_dir, "standard.json"),
                          {"arch": "mlp-3", "width": 4, "training": self.STANDARD})
        run = os.path.join(setup_dir, "standard")
        cli.run(_train_argv(cfg, data, self.seed, run))
        for metric in self.METRICS:
            _write_json(os.path.join(setup_dir, f"crosslayer_{metric['name']}.json"),
                        {"experiment": {"kind": "crosslayer", "metric": metric,
                                        "runs": [run]}})
        return _training_scalars("train.standard", run)

    def round(self, cli, setup_dir, round_dir):
        for metric in self.METRICS:
            label = f"crosslayer_{metric['name']}"
            cli.run(["experiment", "--spec", os.path.join(setup_dir, f"{label}.json"),
                     "--out", os.path.join(round_dir, label), "--force"])

    def round_outputs(self, round_dir):
        out = {}
        for metric in self.METRICS:
            name = metric["name"]
            out.update(_crosslayer_outputs(name, os.path.join(round_dir, f"crosslayer_{name}")))
        return out, len(self.METRICS) * self.LAYERS * (self.LAYERS + 1) // 2

    def expected_setup_spans(self):
        return {
            "cli.main": 2,
            "training.train": 1,
            "threats.generate": 0,
            "activations.write_dump": 1,
        }

    def expected_round_spans(self):
        grid = self.LAYERS * (self.LAYERS + 1) // 2
        return {
            "cli.main": len(self.METRICS),
            "experiments.run_crosslayer": len(self.METRICS),
            "simmetrics.crosslayer_matrix": len(self.METRICS),
            "simmetrics.MetricKind.evaluate": len(self.METRICS) * grid,
            "numerics.svd_truncate": 2 * grid,
            "activations.read_dump": len(self.METRICS),
            "ppm.write_heatmap": len(self.METRICS),
        }


WORKLOADS = {w.name: w for w in (Pipeline, AnalysisWide, AnalysisTall)}
