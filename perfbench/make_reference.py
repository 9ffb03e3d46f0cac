"""Record the behavioural scalars each workload produces at given seeds.

    python3 perfbench/make_reference.py --seeds 0-9 [--workload pipeline ...]

Run from the root of the checkout whose behaviour is the reference. For each
workload and seed it sets up once and measures one round, untraced, and
stores the scalars in reference.json, keeping entries for other seeds and
workloads. `run.py` then checks every run at a recorded seed against them.
A seed whose run has any failed rslab call is not recorded.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import run as bench
from workloads import WORKLOADS


def _seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def record(root: str, workload: str, seed: int) -> dict:
    work = os.path.join(root, bench.WORK_DIR)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    deadline = time.monotonic() + 600
    base = {"workload": workload, "seed": seed, "seconds": 0, "trace": 0,
            "setup_dir": os.path.join(work, "setup")}
    try:
        setup, _ = bench.run_phase(root, work, "setup", {**base, "phase": "setup"}, deadline)
        measure, _ = bench.run_phase(
            root, work, "measure",
            {**base, "phase": "measure", "one_round": True, "dir": os.path.join(work, "measure")},
            deadline,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    round_ = measure["rounds"][0]
    failed = [c for c in setup["calls"] + round_["calls"] if c["rc"] != 0]
    if failed or setup["scalars"] is None or round_["scalars"] is None:
        raise bench.RunFailed(f"{workload} seed {seed}: failed calls {failed}")
    return {"setup": setup["scalars"], "round": round_["scalars"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", required=True, help="e.g. 0-9 or 1,4,7")
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = p.parse_args(argv)
    root = os.getcwd()
    with open(bench.REFERENCE) as fh:
        doc = json.load(fh)
    for workload in args.workload or list(WORKLOADS):
        for seed in _seeds(args.seeds):
            doc["workloads"].setdefault(workload, {})[str(seed)] = record(root, workload, seed)
            print(f"recorded {workload} seed {seed}", file=sys.stderr)
            with open(bench.REFERENCE, "w") as fh:
                json.dump(doc, fh, sort_keys=True, indent=1)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
