"""rslab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 30 --trace 0

Run from the root of an rslab checkout. With `--trace 0` it sets the
workload up several times (each in a fresh interpreter) and then measures it
in another fresh interpreter, untraced; the last stdout line is a JSON object
with `correct`, `attempted`, `failed` and the end-to-end metrics. With
`--trace 1` it sets up once and measures twice, untraced and then traced;
the last line carries the per-layer metrics, including the tracing
overhead. The line before the last is a JSON report: host and provenance,
stage throughputs, error rate and every failed check. See README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import layer_metrics, merge, tail_percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
WORK_DIR = ".perfbench_work"
TIME_LIMIT_S = 170.0
REFERENCE = os.path.join(HERE, "reference.json")


class RunFailed(Exception):
    """A phase ended without a result, so no metric can be reported."""


def run_phase(root: str, work: str, tag: str, req: dict, deadline: float):
    """Run one worker phase in a fresh interpreter; returns (result, seconds)."""
    req = {**req, "root": root, "result": os.path.join(work, f"{tag}.result.json")}
    path = os.path.join(work, f"{tag}.request.json")
    with open(path, "w") as fh:
        json.dump(req, fh)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), path],
                            cwd=root, stdout=subprocess.DEVNULL)
    # a blocking wait returns the moment the worker exits; wait(timeout=...)
    # polls in 50 ms steps, which would quantize set-up times
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
        watchdog.join()
    seconds = time.perf_counter() - start
    if proc.returncode != 0 or not os.path.exists(req["result"]):
        # -9 is the watchdog's kill at the time limit
        raise RunFailed(f"{tag}: worker exited with code {proc.returncode}")
    with open(req["result"]) as fh:
        return json.load(fh), seconds


# ---------------------------------------------------------------------------
# output checks


def _tolerance(key: str) -> float:
    if key.endswith("_acc"):
        return 0.01
    if key.endswith(".flipped"):
        return 3
    if ".reach_09_epoch." in key:
        return 0
    return 1e-6


class Checker:
    """Counts operations and compares outputs with the stored reference.

    Seeds recorded in reference.json are checked value by value within
    `_tolerance`; any other seed is checked against ranges that hold for
    every seed (finite, nonnegative, at most 2 except attack flip counts).
    """

    def __init__(self, workload: str, seed: int):
        with open(REFERENCE) as fh:
            table = json.load(fh)["workloads"].get(workload, {})
        self.expected = table.get(str(seed))
        self.attempted = 0
        self.failures = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def calls(self, calls) -> None:
        for c in calls:
            self.op(c["rc"] == 0, f"rslab {c['command']} exited with {c['rc']}")

    def scalars(self, where: str, part: str, got) -> None:
        """Check one phase's scalars; part is "setup" or "round"."""
        if got is None:
            self.op(False, f"{where}: outputs missing")
            return
        if self.expected is None:
            for key, value in sorted(got.items()):
                limit = math.inf if key.endswith(".flipped") else 2.0
                ok = math.isfinite(value) and 0.0 <= value <= limit
                self.op(ok, f"{where}: {key} = {value} outside [0, {limit}]")
            return
        want = self.expected[part]
        for key in sorted(set(got) | set(want)):
            ok = (key in got and key in want
                  and abs(got[key] - want[key]) <= _tolerance(key))
            self.op(ok, f"{where}: {key} = {got.get(key)}, reference {want.get(key)}")

    def self_check(self, where: str, entries) -> None:
        for e in entries:
            self.op(e["expected"] == e["got"],
                    f"{where}: {e['got']} {e['span']} spans, workload implies {e['expected']}")


# ---------------------------------------------------------------------------
# provenance


def _git_commit(root: str):
    """HEAD of the checkout's own .git, or None outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(root: str) -> str:
    """sha256 over src/rslab/*.py, so runs outside git still name their code."""
    pkg = os.path.join(root, "src", "rslab")
    h = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def provenance(root: str, host: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": host.get("numpy"),
        "blas": host.get("blas"),
        "blas_threads": host.get("blas_threads"),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(root),
        "source_digest": _source_digest(root),
    }


# ---------------------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _stage_rates(rounds, cells: int) -> dict:
    """Stage throughputs over every round of the untraced measured phase."""
    calls = [c for r in rounds for c in r["calls"]]

    def seconds(command):
        return sum(c["seconds"] for c in calls if c["command"] == command)

    rates = {}
    if seconds("train"):
        rates["train_samples_per_s"] = _metric(
            sum(c["train_samples"] for c in calls) / seconds("train"), "1/s")
    if seconds("attack"):
        rates["attack_points_per_s"] = _metric(
            sum(c["attack_points"] for c in calls) / seconds("attack"), "1/s")
    if seconds("experiment"):
        rates["analysis_cells_per_s"] = _metric(cells / seconds("experiment"), "1/s")
    return rates


def _measure_phase(root, work, req, deadline, tag, checker, trace):
    result, _ = run_phase(root, work, tag, {**req, "phase": "measure", "trace": trace,
                                             "one_round": bool(trace)}, deadline)
    for i, r in enumerate(result["rounds"]):
        checker.calls(r["calls"])
        checker.scalars(f"{tag} round {i}", "round", r["scalars"])
        checker.self_check(f"{tag} round {i}", r.get("self_check", ()))
    return result


def run(args, root: str, work: str) -> tuple:
    deadline = time.monotonic() + TIME_LIMIT_S
    checker = Checker(args.workload, args.seed)
    base = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}
    setup_times = []
    setup_trace = None
    for k in range(1 if args.trace else SETUP_REPEATS):
        # every repetition writes the same artifacts; the last one is measured
        req = {**base, "phase": "setup", "trace": args.trace,
               "setup_dir": os.path.join(work, "setup")}
        shutil.rmtree(req["setup_dir"], ignore_errors=True)
        result, seconds = run_phase(root, work, f"setup{k}", req, deadline)
        setup_times.append(seconds)
        checker.calls(result["calls"])
        checker.scalars(f"setup {k}", "setup", result["scalars"])
        checker.self_check(f"setup {k}", result.get("self_check", ()))
        setup_trace = result.get("trace")
    req = {**base, "setup_dir": os.path.join(work, "setup"), "dir": os.path.join(work, "measure")}
    plain = _measure_phase(root, work, req, deadline, "measure", checker, 0)
    rounds = plain["rounds"]
    wall = statistics.median(r["wall_s"] for r in rounds)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(rounds),
        "round_wall_s": [r["wall_s"] for r in rounds],
        "provenance": provenance(root, plain["host"]),
        "stages": _stage_rates(rounds, sum(r["cells"] for r in rounds)),
    }
    if args.trace:
        traced = _measure_phase(root, work, req, deadline, "traced", checker, 1)
        round_ = traced["rounds"][0]
        summary = merge([s for s in (setup_trace, round_.get("trace")) if s])
        values = layer_metrics(summary, round_["cells"])
        values["trace.overhead_s"] = round_["wall_s"] - wall
        report["tracing"] = {
            "untraced_wall_s": wall, "traced_wall_s": round_["wall_s"],
            "cell_s_tail_percentile": {
                m: tail_percentile(len(xs)) for m, xs in summary["cells"].items() if xs
            },
        }
    else:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": plain["peak_rss_mb"],
        }
    report["setup_s_samples"] = setup_times
    report["error_rate"] = len(checker.failures) / checker.attempted
    report["failures"] = checker.failures
    line = {
        "correct": not checker.failures, "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": _declared(values, "per_layer" if args.trace else "end_to_end"),
    }
    return report, line


def _declared(values: dict, section: str) -> dict:
    """Exactly the metrics BENCHMARK.json declares for this mode, with its units."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        declared = json.load(fh)[section]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RunFailed(f"BENCHMARK.json declares metrics this run lacks: {missing}")
    return {m["name"]: _metric(values[m["name"]], m["unit"]) for m in declared}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rslab", "cli.py")):
        print("perfbench: run from the root of an rslab checkout (src/rslab missing)",
              file=sys.stderr)
        return 2
    if "RSLAB_THREADS" in os.environ:
        # it switches crosslayer_matrix to a thread pool: a different program
        print("perfbench: unset RSLAB_THREADS; it changes the program under test",
              file=sys.stderr)
        return 2
    work = os.path.join(root, WORK_DIR)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        report, line = run(args, root, work)
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
