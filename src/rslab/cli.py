"""Command-line pipelines: data generation, training, attacks, recording,
comparison, and full experiment families.

`record` dumps a checkpoint's activations on the clean validation inputs;
`attack` is the command that dumps activations on adversarial inputs. Both
digest the clean inputs, and any two dumps compared must share that digest
(else exit 5), so a `record` and an `attack` dump of one checkpoint, dataset
and --limit pair up. A training run draws its probe from its seed: compare
runs of different seeds through `record --data D --limit N` dumps.

Exit codes: 0 ok, 2 config error, 3 I/O error, 4 numerical failure,
5 validation failure. Every file reader (datasets, RSCK checkpoints, RSAM
dumps) raises a FormatError subclass on malformed input, which exits 5.
Errors print machine-readable JSON on stderr, never a traceback.
Every command refuses to overwrite an existing non-empty --out unless
--force is passed, and a single --seed determines every output byte.
`compare`'s --batch, --passes and --seed are online CKA's parameters: left
out, each takes its default from `MetricKind`, and given with any other
metric, each exits 2.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import errors, nets
from .activations import read_dump, record_activations, write_dump
from .errors import ConfigError, NumericalError, RslabError
from .experiments import ExperimentSpec, run_experiment
from .nets import Batch
from .simmetrics import METRIC_NAMES, MetricKind, crosslayer_matrix
from .threats import THREAT_KINDS, ThreatModel, evaluate_accuracy, generate
from .training import (
    DatasetSpec,
    TrainingConfig,
    load_dataset,
    make_synthetic_dataset,
    save_dataset,
    train,
)

SCHEMA_VERSION = 1


def _fail(code: int, kind: str, message: str) -> int:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
    return code


@dataclass(frozen=True)
class _DataDoc:
    """`gen-data --spec` file."""

    schema_version: int
    dataset: DatasetSpec = field(default_factory=DatasetSpec)


@dataclass(frozen=True)
class _TrainDoc:
    """`train --config` file; the net's class count comes from the dataset."""

    schema_version: int
    model_id: str = ""
    arch: str = "miniresnet"
    width: int = 1
    data: str | None = None
    training: TrainingConfig = field(default_factory=TrainingConfig)

    def __post_init__(self):
        if self.width < 1:
            raise ConfigError("width must be >= 1")


@dataclass(frozen=True)
class _ExperimentDoc:
    """`experiment --spec` file."""

    schema_version: int
    experiment: ExperimentSpec


def _load_doc(path, cls):
    doc = errors.from_json(cls, errors.read_json(path, ConfigError), path)
    if doc.schema_version != SCHEMA_VERSION:
        raise ConfigError(
            f"{path}: schema_version must be {SCHEMA_VERSION}, got {doc.schema_version}"
        )
    return doc


def _check_out(path: str, force: bool) -> None:
    if os.path.isfile(path) and not force:
        raise ConfigError(f"output {path} exists; pass --force to overwrite")
    if os.path.isdir(path) and os.listdir(path) and not force:
        raise ConfigError(f"output directory {path} is not empty; pass --force")


def _check_counts(args) -> None:
    """Reject a negative --seed or --limit; argparse checks only that they are ints."""
    for name in ("seed", "limit"):
        v = getattr(args, name, None)
        if v is not None and v < 0:
            raise ConfigError(f"--{name} must be >= 0, got {v}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args) -> int:
    _check_out(args.out, args.force)
    spec = _load_doc(args.spec, _DataDoc).dataset if args.spec else DatasetSpec()
    data = make_synthetic_dataset(spec, args.seed)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    save_dataset(data, args.out)
    print(json.dumps({
        "out": args.out, "n_train": data.train.n, "n_val": data.val.n,
        "classes": spec.classes, "seed": args.seed,
    }))
    return 0


def cmd_train(args) -> int:
    doc = _load_doc(args.config, _TrainDoc)
    _check_out(args.out, args.force)
    config = doc.training
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    data_path = args.data or doc.data
    if not data_path:
        raise ConfigError("dataset path missing: give --data or a 'data' key")
    data = load_dataset(data_path)
    net = nets.make_network(
        doc.arch,
        input_shape=data.train.inputs.shape[1:],
        classes=data.spec.classes,
        width_factor=doc.width,
        seed=config.seed,
    )
    _, trace = train(net, data, config, out_dir=args.out, model_id=doc.model_id)
    last = trace.entries[-1]
    print(json.dumps({
        "out": args.out, "epochs": last.epoch, "benign_acc": last.benign_acc,
        "robust_acc": last.robust_acc,
    }))
    return 0


def _model_and_points(args) -> tuple:
    """The --model net and the first --limit (0: all) validation points of --data."""
    net, val = nets.load_checkpoint(args.model), load_dataset(args.data).val
    return net, Batch(val.inputs[: args.limit or None], val.labels[: args.limit or None])


def cmd_attack(args) -> int:
    _check_out(args.out, args.force)
    net, sub = _model_and_points(args)
    threat = ThreatModel(args.threat, args.eps, args.steps)
    os.makedirs(args.out, exist_ok=True)
    benign, robust = evaluate_accuracy(net, sub, threat, seed=args.seed)
    adv = generate(net, sub, threat, seed=args.seed)
    aset = record_activations(
        net, sub, adv, model_id=os.path.basename(args.model), seed=args.seed
    )
    write_dump(aset, os.path.join(args.out, "adversarial.rsam"))
    summary = {
        "benign_acc": benign, "robust_acc": robust,
        "threat": threat.to_json(), "n": sub.n,
        "flipped": int(adv.success_mask.sum()),
    }
    errors.write_json(os.path.join(args.out, "accuracy.json"), summary)
    print(json.dumps(summary))
    return 0


def cmd_record(args) -> int:
    _check_out(args.out, args.force)
    net, sub = _model_and_points(args)
    aset = record_activations(net, sub, model_id=os.path.basename(args.model), seed=args.seed)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    write_dump(aset, args.out)
    print(json.dumps({"out": args.out, "layers": len(aset.records), "n": aset.n}))
    return 0


def cmd_compare(args) -> int:
    _check_out(args.out, args.force)
    a = read_dump(args.a)
    b = a if os.path.abspath(args.b) == os.path.abspath(args.a) else read_dump(args.b)
    metric = MetricKind(args.metric, batch=args.batch, passes=args.passes, seed=args.seed)
    sm = crosslayer_matrix(a, b, metric)
    os.makedirs(args.out, exist_ok=True)
    clamped = sm.save(args.out, "compare")
    diag = [float(sm.values[i, i]) for i in range(min(*sm.values.shape))]
    summary = {
        "metric": metric.to_json(),
        "mean": float(sm.values.mean()),
        "mean_diagonal": float(np.mean(diag)) if diag else None,
        "degenerate_cells": int(sm.degenerate.sum()),
        "clamped": clamped,
    }
    errors.write_json(os.path.join(args.out, "summary.json"), summary)
    print(json.dumps(summary))
    return 0


def cmd_experiment(args) -> int:
    spec = _load_doc(args.spec, _ExperimentDoc).experiment
    _check_out(args.out, args.force)
    run_experiment(spec, args.out)
    with open(os.path.join(args.out, "summary.json")) as fh:
        print(fh.read().strip())
    return 0


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises ConfigError on a bad argv, so `main` reports it as JSON (exit 2)."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="rslab",
        description="train desk-scale robust/non-robust nets and compare their representations",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic labeled dataset")
    g.add_argument("--spec", help="JSON file with a 'dataset' section")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--force", action="store_true")
    g.set_defaults(fn=cmd_gen_data)

    t = sub.add_parser("train", help="train a network per a config file")
    t.add_argument("--config", required=True)
    t.add_argument("--data", help="RSDS dataset from gen-data (overrides config)")
    t.add_argument("--seed", type=int, default=None, help="override config seed")
    t.add_argument("--out", required=True)
    t.add_argument("--force", action="store_true")
    t.set_defaults(fn=cmd_train)

    a = sub.add_parser("attack", help="attack a checkpoint and dump activations")
    a.add_argument("--model", required=True, help="RSCK checkpoint")
    a.add_argument("--threat", required=True, choices=THREAT_KINDS)
    a.add_argument("--eps", type=float, required=True)
    a.add_argument("--steps", type=int, default=20)
    a.add_argument("--data", required=True)
    a.add_argument("--limit", type=int, default=0, help="attack only the first N val points")
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--out", required=True)
    a.add_argument("--force", action="store_true")
    a.set_defaults(fn=cmd_attack)

    r = sub.add_parser(
        "record", help="record benign activations of a checkpoint over a dataset"
    )
    r.add_argument("--model", required=True)
    r.add_argument("--data", required=True)
    r.add_argument("--limit", type=int, default=0)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--out", required=True, help="output .rsam path")
    r.add_argument("--force", action="store_true")
    r.set_defaults(fn=cmd_record)

    c = sub.add_parser("compare", help="cross-layer similarity between two dumps")
    c.add_argument("--a", required=True)
    c.add_argument("--b", required=True)
    c.add_argument("--metric", default="linear_cka", choices=METRIC_NAMES)
    online = "online_cka's {}, defaulted by the metric; any other metric exits 2 on it"
    c.add_argument("--batch", type=int, help=online.format("batch size"))
    c.add_argument("--passes", type=int, help=online.format("number of passes"))
    c.add_argument("--seed", type=int, help=online.format("shuffle seed"))
    c.add_argument("--out", required=True)
    c.add_argument("--force", action="store_true")
    c.set_defaults(fn=cmd_compare)

    e = sub.add_parser("experiment", help="run a full experiment family")
    e.add_argument("--spec", required=True, help="JSON file with an 'experiment' section")
    e.add_argument("--out", required=True)
    e.add_argument("--force", action="store_true")
    e.set_defaults(fn=cmd_experiment)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_counts(args)
        return args.fn(args)
    except ConfigError as exc:
        return _fail(2, "config", str(exc))
    except OSError as exc:
        return _fail(3, "io", str(exc))
    except NumericalError as exc:
        return _fail(4, "numerical", str(exc))
    except RslabError as exc:
        return _fail(5, "validation", str(exc))


if __name__ == "__main__":
    sys.exit(main())
