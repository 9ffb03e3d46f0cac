"""Write one artifact of every kind rslab produces, then print their digests.

    python tools/artifact_digests.py OUT

runs a tiny fixed-seed sequence through `rslab.cli.main` into the empty or
absent directory OUT: gen-data; standard, advpgd and TRADES training; all
five attacks; record; compare with all five metrics; and all five
experiment kinds, crosslayer both with Procrustes and with online CKA, the
threatgrid over three runs of one seed. It then prints
`sha256  relpath` for every file under OUT, sorted by path. The specs and
configs it feeds rslab go to a temporary directory, so OUT holds only what
rslab wrote and two runs into different directories print the same lines
exactly when every artifact is byte-identical. Diff the output of two
checkouts to check that a change keeps every artifact.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

DATASET = {"classes": 2, "size": 8, "n_train": 64, "n_val": 80}
LIMIT = 72  # more rows than mlp-3's widest tap, as the CCA metrics need
LINF = {"kind": "linf", "epsilon": 0.05, "steps": 2}
TRAINING = {
    "standard": {"method": "standard", "eval_threat": LINF},
    "advpgd": {"method": "advpgd", "threat": LINF},
    "trades": {"method": "trades", "threat": LINF},
}
ATTACKS = (("linf", "0.05"), ("l2", "0.5"), ("jpeg", "0.05"), ("gabor", "0.05"),
           ("snow", "0.2"))
METRICS = ("linear_cka", "online_cka", "mean_cca", "svcca", "procrustes")


def _json(path: str, doc: dict) -> str:
    with open(path, "w") as fh:
        json.dump({"schema_version": 1, **doc}, fh)
    return path


def produce(out: str, inputs: str) -> None:
    """Run the sequence into `out`, writing its input documents into `inputs`."""
    from rslab.cli import main

    def run(*argv):
        if main(list(argv)) != 0:
            raise RuntimeError(f"rslab {' '.join(argv)} failed")

    data = os.path.join(out, "data.rsds")
    run("gen-data", "--spec", _json(os.path.join(inputs, "data.json"), {"dataset": DATASET}),
        "--seed", "0", "--out", data)
    runs = {}
    for name, training in TRAINING.items():
        config = _json(os.path.join(inputs, f"{name}.json"), {
            "arch": "mlp-3", "model_id": name,
            "training": {**training, "epochs": 2, "batch_size": 32, "checkpoint_every": 1,
                         "probe_size": 40, "val_adv_subset": 16},
        })
        runs[name] = os.path.join(out, "runs", name)
        run("train", "--config", config, "--data", data, "--seed", "0", "--out", runs[name])
    model = os.path.join(runs["standard"], "checkpoints", "epoch_002.rsck")
    common = ["--data", data, "--limit", str(LIMIT), "--seed", "0"]
    for threat, eps in ATTACKS:
        run("attack", "--model", model, "--threat", threat, "--eps", eps, "--steps", "2",
            *common, "--out", os.path.join(out, "attacks", threat))
    dumps = []
    for name in ("standard", "advpgd"):
        dumps.append(os.path.join(out, "records", f"{name}.rsam"))
        run("record", "--model", os.path.join(runs[name], "checkpoints", "epoch_002.rsck"),
            *common, "--out", dumps[-1])
    for metric in METRICS:
        online = ["--batch", "16", "--passes", "2"] if metric == "online_cka" else []
        run("compare", "--a", dumps[0], "--b", dumps[1], "--metric", metric, *online,
            "--out", os.path.join(out, "compare", metric))
    # per output directory: the experiment kind and its fields
    experiments = {
        "crosslayer": ("crosslayer", {"runs": [runs["advpgd"]], "metric": {"name": "procrustes"}}),
        "crosslayer_online": ("crosslayer", {"runs": [runs["advpgd"]], "metric": {
            "name": "online_cka", "batch": 16, "passes": 2}}),
        "grid": ("grid", {"runs": [runs["standard"], runs["advpgd"]]}),
        "divergence": ("divergence", {"runs": [runs["advpgd"]]}),
        "evolution": ("evolution", {"runs": [runs["advpgd"]]}),
        "threatgrid": ("threatgrid", {"runs": [runs["standard"], runs["trades"], runs["advpgd"]]}),
    }
    for name, (kind, fields) in experiments.items():
        spec = _json(os.path.join(inputs, f"{name}.json"),
                     {"experiment": {"kind": kind, **fields}})
        run("experiment", "--spec", spec, "--out", os.path.join(out, "experiments", name))


def digests(out: str) -> list:
    """`sha256  relpath` for every file under `out`, sorted by path."""
    lines = []
    for root, _, files in os.walk(out):
        for f in files:
            path = os.path.join(root, f)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            lines.append((os.path.relpath(path, out), digest))
    return [f"{digest}  {rel}" for rel, digest in sorted(lines)]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out = argv[0]
    if os.path.isdir(out) and os.listdir(out):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    os.makedirs(out, exist_ok=True)
    with tempfile.TemporaryDirectory() as inputs, contextlib.redirect_stdout(io.StringIO()):
        produce(out, inputs)
    print("\n".join(digests(out)))
    return 0


if __name__ == "__main__":
    # run the rslab of the checkout this file belongs to
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    sys.exit(main())
