"""One phase of one benchmark run, in a fresh interpreter.

    python3 perfbench/worker.py REQUEST.json

The request names the phase (`setup` or `measure`), the workload, the seed,
the directories, the time budget and whether to trace. The worker imports
rslab from the checkout's `src`, runs the phase, and writes its result as
JSON to the path the request gives. A fresh process per phase makes the
measured phase's peak resident memory its own and puts import time into
set-up, where it belongs.
"""
from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


class Cli:
    """Invokes `rslab.cli.main` and records what each invocation did.

    `main` is looked up on the module at each call, so a traced run sees the
    wrapped binding.
    """

    def __init__(self, module):
        self._module = module
        self.calls = []

    def run(self, argv, train_samples=0, attack_points=0) -> int:
        start = time.perf_counter()
        try:
            rc = self._module.main(argv)
        except Exception:  # a traceback is a failed operation, not a crash
            traceback.print_exc()
            rc = -1
        self.calls.append({
            "command": argv[0], "seconds": time.perf_counter() - start, "rc": rc,
            "train_samples": train_samples, "attack_points": attack_points,
        })
        return rc


def host_info() -> dict:
    """numpy and BLAS facts of this interpreter."""
    import numpy as np

    info = {"numpy": np.__version__, "blas": None, "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    info["blas_threads"] = _openblas_threads(np)
    return info


def _openblas_threads(np):
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getattr(lib, fn).restype = ctypes.c_int
                return int(getattr(lib, fn)())
    return None


def _traced(req, body):
    """Run body() under a tracer when the request asks for one."""
    from tracing import Tracer, assert_clean, span_counts, summarize

    if not req["trace"]:
        assert_clean()
        return body(), None
    tracer = Tracer()
    tracer.install()
    try:
        value = body()
    finally:
        tracer.uninstall()
    assert_clean()
    return value, {"summary": summarize(tracer.spans), "counts": span_counts(tracer.spans)}


def _self_check(expected: dict, counts: dict) -> list:
    return [
        {"span": name, "expected": n, "got": counts.get(name, 0)}
        for name, n in sorted(expected.items())
    ]


def run_setup(req, wl, cli) -> dict:
    os.makedirs(req["setup_dir"], exist_ok=True)
    try:
        scalars, trace = _traced(req, lambda: wl.setup(cli, req["setup_dir"]))
    except (OSError, KeyError, ValueError, IndexError):
        traceback.print_exc()  # outputs of a failed set-up call are missing
        scalars, trace = None, None
    out = {"scalars": scalars}
    if trace:
        out["trace"] = trace["summary"]
        out["self_check"] = _self_check(wl.expected_setup_spans(), trace["counts"])
    return out


def run_measure(req, wl, cli) -> dict:
    """Closed loop: repeat the round while another one fits the budget."""
    rounds = []
    start = time.perf_counter()
    while True:
        rdir = os.path.join(req["dir"], f"round{len(rounds)}")
        os.makedirs(rdir, exist_ok=True)
        first_call = len(cli.calls)
        t0 = time.perf_counter()
        _, trace = _traced(req, lambda: wl.round(cli, req["setup_dir"], rdir))
        wall = time.perf_counter() - t0
        calls = cli.calls[first_call:]
        try:
            scalars, cells = wl.round_outputs(rdir)
        except (OSError, KeyError, ValueError, IndexError):
            traceback.print_exc()
            scalars, cells = None, 0
        entry = {"wall_s": wall, "calls": calls, "scalars": scalars, "cells": cells}
        if trace:
            entry["trace"] = trace["summary"]
            entry["self_check"] = _self_check(wl.expected_round_spans(), trace["counts"])
        rounds.append(entry)
        shutil.rmtree(rdir)
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["wall_s"] for r in rounds)
        if req["one_round"] or elapsed + typical > req["seconds"]:
            break
    return {
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "host": host_info(),
    }


def main(argv) -> int:
    with open(argv[1]) as fh:
        req = json.load(fh)
    sys.path.insert(0, os.path.join(req["root"], "src"))
    sys.path.insert(0, HERE)
    from rslab import cli as rslab_cli
    from workloads import WORKLOADS

    wl = WORKLOADS[req["workload"]](req["seed"])
    cli = Cli(rslab_cli)
    os.chdir(req["root"])
    phase = run_setup if req["phase"] == "setup" else run_measure
    result = phase(req, wl, cli)
    if req["phase"] == "setup":
        result["calls"] = cli.calls
    with open(req["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
