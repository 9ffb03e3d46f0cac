"""The benchmark's span tracer binds rslab functions and parameters by name.

A renamed function or parameter breaks every traced benchmark run, so this
runs a tiny traced pipeline through `rslab.cli.main` with the tracer that
`perfbench/tracing.py` installs, and checks the span counts of an SVCCA
crosslayer grid that the benchmark's self-check pins.
"""
import contextlib
import importlib.util
import io
import json
import pathlib

import rslab.cli

TRACING = pathlib.Path(__file__).parent.parent / "perfbench" / "tracing.py"


PINNED = ("experiments.run_crosslayer", "simmetrics.crosslayer_matrix",
          "simmetrics.MetricKind.evaluate", "numerics.svd_truncate")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_json(path, doc):
    path.write_text(json.dumps({"schema_version": 1, **doc}))
    return str(path)


def test_traced_pipeline_spans(tmp_path):
    tracing = load_tracing()
    data = str(tmp_path / "data.npz")
    spec = write_json(tmp_path / "dataset.json", {"dataset": {
        "classes": 2, "size": 8, "n_train": 64, "n_val": 130}})
    config = write_json(tmp_path / "advpgd.json", {"arch": "miniresnet", "training": {
        "method": "advpgd", "epochs": 1, "batch_size": 32, "probe_size": 16,
        "val_adv_subset": 16, "threat": {"kind": "linf", "epsilon": 0.1, "steps": 2}}})
    model = str(tmp_path / "run" / "checkpoints" / "epoch_001.rsck")
    experiment = write_json(tmp_path / "crosslayer.json", {"experiment": {
        "kind": "crosslayer", "runs": [str(tmp_path / "run")], "metric": {"name": "svcca"}}})
    argvs = [
        ["gen-data", "--spec", spec, "--seed", "1", "--out", data],
        ["train", "--config", config, "--data", data, "--out", str(tmp_path / "run")],
        # 130 points: two of evaluate_accuracy's 128-point chunks
        ["attack", "--model", model, "--threat", "linf", "--eps", "0.1", "--steps", "2",
         "--data", data, "--limit", "130", "--out", str(tmp_path / "attack")],
        ["experiment", "--spec", experiment, "--out", str(tmp_path / "crosslayer")],
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [rslab.cli.main(argv) for argv in argvs]
    finally:
        tracer.uninstall()
    tracing.assert_clean()
    assert codes == [0, 0, 0, 0]
    spans = tracer.spans
    assert [s[4] for s in spans if s[0] == "cli.main"] == [{"rc": 0}] * 4
    assert not [s[0] for s in spans if (s[4] or {}).get("raised")]
    # the annotation reads success_mask, so this runs the lazy predictions
    attacks = [s[4] for s in spans if s[0] == "threats.generate"]
    assert attacks and all(
        type(a["flipped"]) is int and 0 <= a["flipped"] <= a["points"] for a in attacks
    )
    passes = [s for s in spans if s[0] in ("nets.forward_cache", "nets.backward")]
    assert passes and all(s[4]["flop"] > 0 for s in passes)
    # the grid scores its upper triangle, diagonal included, and SVCCA
    # truncates both layers of every cell
    layers = json.loads((tmp_path / "crosslayer" / "summary.json").read_text())["layers"]
    grid = layers * (layers + 1) // 2
    counts = tracing.span_counts(spans)
    assert layers > 1 and {name: counts.get(name) for name in PINNED} == {
        "experiments.run_crosslayer": 1,
        "simmetrics.crosslayer_matrix": 1,
        "simmetrics.MetricKind.evaluate": grid,
        "numerics.svd_truncate": 2 * grid,
    }
