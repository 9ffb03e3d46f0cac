"""Span tracing for the benchmark's traced run, applied from outside rslab.

`Tracer.install` wraps the public functions of every rslab module plus
`MetricKind.evaluate`. Several modules bind functions by `from .x import y`
and two dispatch through tables (`threats._ATTACKS`, `experiments._RUNNERS`),
so patching the defining module alone would miss calls: every binding of a
wrapped function in every rslab module and module-level dict is replaced.
`uninstall` restores them all and `assert_clean` proves nothing is left.

Spans are `[name, start, end, parent, attrs]` lists kept in memory. The
summaries built from them are plain numbers and lists, so the orchestrator
can merge them without numpy.
"""
from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time

MODULES = (
    "nets", "threats", "training", "activations", "simmetrics", "numerics",
    "experiments", "ppm", "cli",
)
THREAT_KINDS = ("linf", "l2", "jpeg", "gabor", "snow")
METRICS = ("linear_cka", "online_cka", "mean_cca", "svcca", "procrustes")
EXPERIMENT_KINDS = ("crosslayer", "divergence", "evolution")
COMMANDS = {
    "cli.cmd_gen_data": "gen-data", "cli.cmd_train": "train",
    "cli.cmd_attack": "attack", "cli.cmd_experiment": "experiment",
}
_MARK = "__perfbench_wrapped__"


def _forward_flop_per_row(net) -> int:
    """Multiply-add FLOPs of one input row through the dense and conv layers."""
    from rslab.nets import Conv2d, Dense

    total = 0
    for spec, shape in zip(net.layers, net.output_shapes):
        if isinstance(spec, Dense):
            total += 2 * spec.in_features * spec.out_features
        elif isinstance(spec, Conv2d):
            _, oh, ow = shape
            total += 2 * oh * ow * spec.kernel ** 2 * spec.in_channels * spec.out_channels
    return total


def _rows(a) -> int:
    return int(getattr(a, "inputs", a).shape[0])


# Each annotator turns a call's bound arguments and result into the few
# numbers the summary needs, so spans never hold on to arrays.
def _ann_forward(a, r):
    rows = _rows(a.get("batch", a.get("inputs")))
    return {"rows": rows, "flop": rows * _forward_flop_per_row(a["net"])}


def _ann_backward(a, r):
    rows = int(a["dlogits"].shape[0])
    # standard estimate: the input-gradient GEMMs cost one forward pass and
    # the parameter-gradient GEMMs another
    passes = 2 if a.get("need_param_grads", True) else 1
    return {"flop": passes * rows * _forward_flop_per_row(a["net"])}


_ANNOTATE = {
    "nets.forward": _ann_forward,
    "nets.forward_cache": _ann_forward,
    "nets.backward": _ann_backward,
    "threats.generate": lambda a, r: {
        "kind": a["threat"].kind, "points": _rows(a["batch"]),
        "flipped": int(r.success_mask.sum()),
    },
    "simmetrics.MetricKind.evaluate": lambda a, r: {"metric": a["self"].name},
    "simmetrics.crosslayer_matrix": lambda a, r: {
        "metric": a["metric"].name, "degenerate": int(r.degenerate.sum()),
    },
    "activations.write_dump": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "activations.read_dump": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "cli.main": lambda a, r: {"rc": r},
    "cli.cmd_attack": lambda a, r: {"requested": a["args"].limit},
}


class Tracer:
    """Records spans around every public rslab function while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def _wrap(self, name: str, fn):
        annotate = _ANNOTATE.get(name)
        sig = inspect.signature(fn) if annotate else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = {"raised": True}
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if annotate:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = annotate(bound.arguments, result)
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    def install(self) -> None:
        from rslab.simmetrics import MetricKind

        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for short in MODULES:
            mod = sys.modules[f"rslab.{short}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for namespace in _namespaces():
            for key, obj in list(namespace.items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((namespace, key, obj))
                    namespace[key] = wrappers[obj]
        original = MetricKind.__dict__["evaluate"]
        self._patches.append((MetricKind, "evaluate", original))
        MetricKind.evaluate = self._wrap("simmetrics.MetricKind.evaluate", original)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches = []


def _namespaces():
    """Every rslab module namespace and every function table inside one."""
    for name, mod in list(sys.modules.items()):
        if name != "rslab" and not name.startswith("rslab."):
            continue
        ns = vars(mod)
        yield ns
        for key, obj in list(ns.items()):
            if isinstance(obj, dict) and not key.startswith("__"):
                yield obj


def assert_clean() -> None:
    """Raise if any rslab binding still points at a tracing wrapper."""
    from rslab.simmetrics import MetricKind

    left = [
        key for ns in _namespaces() for key, obj in ns.items() if hasattr(obj, _MARK)
    ]
    if hasattr(MetricKind.__dict__["evaluate"], _MARK):
        left.append("MetricKind.evaluate")
    if left:
        raise RuntimeError(f"tracing wrappers left installed: {sorted(left)}")


# ---------------------------------------------------------------------------
# summaries


def span_counts(spans) -> dict:
    counts = {}
    for s in spans:
        counts[s[0]] = counts.get(s[0], 0) + 1
    return counts


def summarize(spans) -> dict:
    """Additive per-layer totals plus the raw samples percentiles need."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]

    def under(i, names):
        i = spans[i][3]
        while i >= 0:
            if spans[i][0] in names:
                return True
            i = spans[i][3]
        return False

    tot = {}
    cells = {m: [] for m in METRICS}

    def add(key, value):
        tot[key] = tot.get(key, 0.0) + value

    experiment_runs = {f"experiments.run_{k}" for k in EXPERIMENT_KINDS}
    for i, (name, start, end, _, attrs) in enumerate(spans):
        dur = end - start
        attrs = attrs or {}
        add(f"{name}.s", dur)
        if name == "training.train" or name.startswith("experiments."):
            add(f"{name.split('.', 1)[0]}.self_s", dur - child[i])
        if name in ("nets.forward", "nets.forward_cache", "nets.backward"):
            add("nets.gflop", attrs.get("flop", 0) / 1e9)
            add("nets.rows_forwarded", attrs.get("rows", 0))
        elif name == "threats.generate" and "kind" in attrs:
            kind = attrs["kind"]
            add(f"threats.generate_s.{kind}", dur)
            add(f"threats.points_attacked.{kind}", attrs["points"])
            add(f"threats.flipped.{kind}", attrs["flipped"])
            if under(i, {"cli.cmd_attack"}):
                add("threats.points_in_attack_cmd", attrs["points"])
        elif name == "simmetrics.MetricKind.evaluate" and "metric" in attrs:
            cells[attrs["metric"]].append(dur)
            if under(i, experiment_runs):
                add("simmetrics.evals_in_experiments", 1)
        elif name == "simmetrics.crosslayer_matrix" and "metric" in attrs:
            add(f"simmetrics.grid_s.{attrs['metric']}", dur)
            add("simmetrics.degenerate_cells", attrs["degenerate"])
        elif name in ("activations.write_dump", "activations.read_dump"):
            add(f"{name}.bytes", attrs.get("bytes", 0))
        elif name == "cli.main" and attrs.get("rc", 1) != 0:
            add("cli.failed", 1)
        elif name == "cli.cmd_attack" and "requested" in attrs:
            add("cli.points_requested", attrs["requested"])
    return {"totals": tot, "cells": cells}


def merge(summaries) -> dict:
    out = {"totals": {}, "cells": {m: [] for m in METRICS}}
    for s in summaries:
        for k, v in s["totals"].items():
            out["totals"][k] = out["totals"].get(k, 0.0) + v
        for m, xs in s["cells"].items():
            out["cells"][m].extend(xs)
    return out


def _quantile(sorted_xs, q: float) -> float:
    """Linear-interpolated quantile of an already sorted list (q in [0, 1])."""
    pos = q * (len(sorted_xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    if count <= 10:
        return 100
    return int(math.floor(100.0 * (1.0 - 10.0 / count)))


def layer_metrics(summary: dict, cells_written: int) -> dict:
    """Per-layer metric values, named as in BENCHMARK.json's per_layer list."""
    t = summary["totals"]

    def g(key):
        return float(t.get(key, 0.0))

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    fwd = g("nets.forward.s") + g("nets.forward_cache.s")
    m["nets.forward_s"] = fwd
    m["nets.backward_s"] = g("nets.backward.s")
    m["nets.predict_s"] = g("nets.predict.s")
    m["nets.rows_forwarded"] = g("nets.rows_forwarded")
    m["nets.gflop"] = g("nets.gflop")
    m["nets.gflops_per_s"] = ratio(g("nets.gflop"), fwd + g("nets.backward.s"))
    m["nets.checkpoint_io_s"] = g("nets.save_checkpoint.s") + g("nets.load_checkpoint.s")
    for kind in THREAT_KINDS:
        m[f"threats.generate_s.{kind}"] = g(f"threats.generate_s.{kind}")
        m[f"threats.points_attacked.{kind}"] = g(f"threats.points_attacked.{kind}")
        m[f"threats.success_rate.{kind}"] = ratio(
            g(f"threats.flipped.{kind}"), g(f"threats.points_attacked.{kind}")
        )
    m["threats.evaluate_accuracy_s"] = g("threats.evaluate_accuracy.s")
    m["threats.attack_redundancy"] = ratio(
        g("threats.points_in_attack_cmd"), g("cli.points_requested")
    )
    m["training.train_s"] = g("training.train.s")
    m["training.self_s"] = g("training.self_s")
    m["training.checkpoint_probe_s"] = g("training.checkpoint_probe.s")
    m["activations.record_s"] = g("activations.record_activations.s")
    m["activations.write_dump_s"] = g("activations.write_dump.s")
    m["activations.read_dump_s"] = g("activations.read_dump.s")
    m["activations.bytes_written"] = g("activations.write_dump.bytes")
    m["activations.bytes_read"] = g("activations.read_dump.bytes")
    for metric in METRICS:
        xs = sorted(summary["cells"][metric])
        m[f"simmetrics.grid_s.{metric}"] = g(f"simmetrics.grid_s.{metric}")
        m[f"simmetrics.cell_s.{metric}.p50"] = _quantile(xs, 0.5) if xs else 0.0
        m[f"simmetrics.cell_s.{metric}.ptail"] = (
            _quantile(xs, tail_percentile(len(xs)) / 100.0) if xs else 0.0
        )
        # the cell_s sample count: one evaluate span per metric evaluation
        m[f"simmetrics.evals.{metric}"] = float(len(xs))
    m["simmetrics.evals_per_cell"] = ratio(g("simmetrics.evals_in_experiments"), cells_written)
    m["simmetrics.degenerate_cells"] = g("simmetrics.degenerate_cells")
    m["numerics.svd_truncate_s"] = g("numerics.svd_truncate.s")
    for kind in EXPERIMENT_KINDS:
        m[f"experiments.{kind}_s"] = g(f"experiments.run_{kind}.s")
    m["experiments.self_s"] = g("experiments.self_s")
    m["ppm.write_heatmap_s"] = g("ppm.write_heatmap.s")
    for span_name, command in COMMANDS.items():
        m[f"cli.{command}_s"] = g(f"{span_name}.s")
    m["cli.failed"] = g("cli.failed")
    return m
