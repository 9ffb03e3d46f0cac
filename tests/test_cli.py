import json
import os
import shutil

import numpy as np
import pytest

from rslab import cli, errors


def run_cli(*argv):
    return cli.main(list(argv))


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-data + a short training run shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data_path = str(root / "data.rsds")
    spec_path = write_json(
        root / "dspec.json",
        {
            "schema_version": 1,
            "dataset": {
                "classes": 2, "size": 8, "n_train": 160, "n_val": 64,
                "blob_amplitude": 0.5, "blob_sigma": 1.8, "noise_std": 0.04,
                "jitter": 1, "texture_amplitude": 0.08,
            },
        },
    )
    assert run_cli("gen-data", "--spec", spec_path, "--seed", "3", "--out", data_path) == 0
    run_dir = str(root / "run")
    config_path = write_json(
        root / "train.json",
        {
            "schema_version": 1,
            "model_id": "m0",
            "arch": "miniresnet",
            "width": 1,
            "data": data_path,
            "training": {
                "method": "advpgd",
                "threat": {"kind": "linf", "epsilon": 0.05, "steps": 3},
                "epochs": 2, "batch_size": 32, "probe_size": 24,
                "val_adv_subset": 24, "checkpoint_every": 1, "seed": 5,
            },
        },
    )
    assert run_cli("train", "--config", config_path, "--out", run_dir) == 0
    return root, data_path, config_path, run_dir


def test_gen_data_outputs(pipeline):
    _, data_path, _, _ = pipeline
    from rslab.training import load_dataset

    data = load_dataset(data_path)
    assert data.train.n == 160 and data.val.n == 64


def test_gen_data_writes_exactly_its_out_path(tmp_path, capsys):
    data = str(tmp_path / "mydata")
    spec = write_json(tmp_path / "tiny.json", {
        "schema_version": 1, "dataset": {"classes": 2, "size": 4, "n_train": 16, "n_val": 8},
    })
    assert run_cli("gen-data", "--spec", spec, "--out", data) == 0
    assert json.loads(capsys.readouterr().out)["out"] == data
    assert sorted(os.listdir(tmp_path)) == ["mydata", "tiny.json"]
    assert run_cli("gen-data", "--spec", spec, "--out", data) == 2  # no --force
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    config = write_json(tmp_path / "train.json", {
        "schema_version": 1, "arch": "mlp-3",
        "training": {"epochs": 1, "batch_size": 16, "probe_size": 8, "val_adv_subset": 8},
    })
    assert run_cli("train", "--config", config, "--data", data, "--out", str(tmp_path / "run")) == 0


def test_gen_data_refuses_overwrite(pipeline, capsys):
    _, data_path, _, _ = pipeline
    assert run_cli("gen-data", "--out", data_path) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"


def test_train_run_layout(pipeline):
    _, _, _, run_dir = pipeline
    assert os.path.exists(os.path.join(run_dir, "trace.csv"))
    assert os.path.exists(os.path.join(run_dir, "checkpoints", "epoch_002.rsck"))
    assert os.path.exists(os.path.join(run_dir, "probes", "epoch_002_adv.rsam"))


def test_train_rejects_unknown_keys(pipeline, tmp_path, capsys):
    root, data_path, _, _ = pipeline
    bad = write_json(
        tmp_path / "bad.json",
        {"schema_version": 1, "data": data_path, "training": {}, "surprise": 1},
    )
    assert run_cli("train", "--config", bad, "--out", str(tmp_path / "r")) == 2


@pytest.mark.parametrize("command,top,section", [
    ("train", {}, {"epochs": "2"}),
    ("train", {"training": "x"}, None),
    ("train", {"width": "2"}, {}),
    ("train", {"width": 0}, {}),
    ("train", {"model_id": [1]}, {}),
    ("train", {"classes": 2}, {}),
    ("train", {}, {"batch_size": 0}),
    ("train", {}, {"probe_size": 0}),
    ("train", {}, {"lr_decay": 1}),
    ("train", {}, {"method": "advpgd", "threat": {"kind": "nope", "epsilon": 0.1}}),
    ("train", {}, {"method": "trades", "threat": {"kind": "snow", "epsilon": 0.1}}),
    ("train", {}, {"method": "advpgd", "threat": {"kind": "linf", "epsilon": -1}}),
    ("train", {}, {"method": "advpgd", "threat": {"kind": "linf", "epsilon": 1e308}}),
    ("train", {}, {"checkpoint_every": -3}),
    ("train", {}, {"learning_rate": float("nan")}),
    ("train", {}, {"method": "trades", "beta": float("inf"),
                   "threat": {"kind": "linf", "epsilon": 0.1}}),
    ("train", {}, {"threat": {"kind": "linf", "epsilon": 0.05}}),
    ("gen-data", {}, {"background": float("nan")}),
    ("gen-data", {}, {"noise_std": float("nan")}),
    ("gen-data", {}, {"noise_std": 10 ** 400}),  # an int too large for a float
    ("gen-data", {}, {"classes": "4"}),
    ("gen-data", {}, {"noise_std": "x"}),
    ("gen-data", {}, {"jitter": 1.5}),
    ("gen-data", {}, {"jitter": -1}),
    ("gen-data", {}, {"channels": -1}),
    ("gen-data", {}, {"n_val": 0}),
    ("experiment", {}, {"kind": "crosslayer", "metric": {"name": "nope"}}),
    ("experiment", {}, {"kind": "crosslayer", "metric": {"name": "linear_cka", "bogus": 1}}),
    ("experiment", {}, {"kind": "crosslayer",
                        "metric": {"name": "svcca", "variance_fraction": "0.9"}}),
    ("experiment", {}, {"kind": "crosslayer", "metric": {"name": "online_cka", "batch": 2}}),
    # valid but for the metric, so a missing run would exit 3 if it were accepted
    ("experiment", {}, {"kind": "crosslayer", "runs": ["no_such_run"], "metric": {
        "name": "linear_cka", "batch": 5, "variance_fraction": 0.3}}),
    ("experiment", {}, {"kind": "transfer"}),
    # valid but for a field its kind does not read, on a real run
    ("experiment", {}, {"kind": "evolution", "condition": "adv"}),
    ("experiment", {}, {"kind": "evolution", "taps": [2, 2]}),
], ids=[
    "epochs-string", "training-string", "width-string", "width-zero", "model-id-list",
    "classes", "batch-size-zero", "probe-size-zero", "lr-decay-int", "threat-kind",
    "trades-snow", "threat-epsilon-negative", "threat-epsilon-overflow",
    "checkpoint-every-negative", "learning-rate-nan", "beta-infinity", "standard-with-threat",
    "background-nan", "noise-nan", "noise-huge-int",
    "classes-string", "noise-string", "jitter-float", "jitter-negative",
    "channels-negative", "n-val-zero", "experiment-metric-name", "experiment-metric-key",
    "experiment-metric-string", "experiment-metric-batch", "experiment-metric-foreign-params",
    "experiment-kind-transfer", "experiment-foreign-field", "evolution-repeated-taps",
])
def test_bad_config_exits_2(pipeline, tmp_path, capsys, command, top, section):
    _, data_path, _, run_dir = pipeline
    key, flag, base = {
        "train": ("training", "--config", {"arch": "mlp-3", "data": data_path}),
        "gen-data": ("dataset", "--spec", {}),
        "experiment": ("experiment", "--spec", {}),
    }[command]
    doc = {"schema_version": 1, **base, **top}
    if command == "experiment":
        section = {"runs": [run_dir], **section}  # a real run, unless the case names one
    if section is not None:
        doc[key] = section
    path = write_json(tmp_path / "doc.json", doc)
    assert run_cli(command, flag, path, "--out", str(tmp_path / "o")) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"


# nested past any parser's recursion limit
DEEP_JSON = b"[" * 200_000 + b"]" * 200_000


@pytest.mark.parametrize("command,flag", [
    ("gen-data", "--spec"), ("train", "--config"), ("experiment", "--spec"),
])
@pytest.mark.parametrize("raw", [b'{"schema_version": 1, "x": "\xff"}', DEEP_JSON],
                         ids=["non-utf8", "deep"])
def test_unparsable_doc_exits_2(tmp_path, capsys, command, flag, raw):
    path = tmp_path / "doc.json"
    path.write_bytes(raw)
    assert run_cli(command, flag, str(path), "--out", str(tmp_path / "o")) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and "invalid JSON" in err["message"]


@pytest.mark.parametrize("command,extra", [
    ("gen-data", ["--seed", "-1"]),
    ("attack", ["--seed", "-1"]),
    ("record", ["--seed", "-3"]),
    ("compare", ["--seed", "-1", "--metric", "online_cka", "--batch", "8"]),
    ("attack", ["--limit", "-5"]),
    ("record", ["--limit", "-5"]),
    ("record", ["--bogus"]),
    ("train", []),
    ("compare", ["--metric", "nope"]),
    ("gen-data", ["--seed", "x"]),
    ("attack", ["--threat", "nope"]),
    ("nope", []),
    (None, []),
], ids=["gen-data-seed", "attack-seed", "record-seed", "compare-seed", "attack-limit",
        "record-limit", "unknown-flag", "missing-required", "bad-metric-choice",
        "non-integer-seed", "bad-threat-choice", "unknown-command", "no-command"])
def test_bad_argv_exits_2(pipeline, tmp_path, capsys, command, extra):
    _, data_path, _, run_dir = pipeline
    model = os.path.join(run_dir, "checkpoints", "epoch_002.rsck")
    dump = os.path.join(run_dir, "probes", "epoch_002_benign.rsam")
    out = str(tmp_path / "o")
    argv = {
        "attack": ["--model", model, "--data", data_path, "--threat", "linf",
                   "--eps", "0.1", "--steps", "1", "--limit", "32"],
        "record": ["--model", model, "--data", data_path, "--limit", "32"],
        "compare": ["--a", dump, "--b", dump],
    }.get(command, [])
    if command is None:
        assert run_cli() == 2
    else:
        assert run_cli(command, *argv, *extra, "--out", out) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not os.path.exists(out)


def test_help_exits_0(capsys):
    for argv in (["--help"], ["attack", "--help"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: rslab")


@pytest.mark.parametrize("flags", [
    ["--condition", "adversarial"], ["--threat", "linf"], ["--eps", "0.1"],
], ids=["condition", "threat", "eps"])
def test_record_rejects_adversarial_flags(pipeline, tmp_path, capsys, flags):
    # `record` dumps clean inputs only; `attack` records adversarial ones
    _, data_path, _, run_dir = pipeline
    out = str(tmp_path / "o.rsam")
    code = run_cli(
        "record", "--model", os.path.join(run_dir, "checkpoints", "epoch_002.rsck"),
        "--data", data_path, *flags, "--out", out,
    )
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not os.path.exists(out)


def test_attack_bad_threat_values_exit_2(pipeline, tmp_path, capsys):
    _, data_path, _, run_dir = pipeline
    model = os.path.join(run_dir, "checkpoints", "epoch_002.rsck")
    # at 1e308, 2.5 * eps (the default step times steps) is not finite
    cases = (("nan", "1"), ("inf", "1"), ("-0.1", "1"), ("0.1", "0"), ("1e308", "1"))
    for i, (eps, steps) in enumerate(cases):
        out = tmp_path / f"atk{i}"
        code = run_cli(
            "attack", "--model", model, "--data", data_path, "--threat", "linf",
            "--eps", eps, "--steps", steps, "--limit", "8", "--out", str(out),
        )
        assert code == 2, (eps, steps)
        assert json.loads(capsys.readouterr().err)["error"] == "config"
        assert not out.exists()


def test_train_rejects_bad_schema_version(tmp_path):
    bad = write_json(tmp_path / "bad.json", {"schema_version": 9, "training": {}})
    assert run_cli("train", "--config", bad, "--out", str(tmp_path / "r")) == 2


def test_missing_file_is_io_error(tmp_path, capsys):
    assert (
        run_cli(
            "record", "--model", str(tmp_path / "none.rsck"),
            "--data", str(tmp_path / "none.npz"), "--out", str(tmp_path / "o.rsam"),
        )
        == 3
    )
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "io"


def test_attack_eps0_robust_equals_benign(pipeline, tmp_path, capsys):
    _, data_path, _, run_dir = pipeline
    out = str(tmp_path / "atk")
    code = run_cli(
        "attack", "--model", os.path.join(run_dir, "checkpoints", "epoch_002.rsck"),
        "--threat", "linf", "--eps", "0", "--steps", "5",
        "--data", data_path, "--limit", "32", "--out", out,
    )
    assert code == 0
    with open(os.path.join(out, "accuracy.json")) as fh:
        acc = json.load(fh)
    assert acc["robust_acc"] == acc["benign_acc"]
    assert os.path.exists(os.path.join(out, "adversarial.rsam"))


def test_record_and_compare_self_diagonal(pipeline, tmp_path):
    _, data_path, _, run_dir = pipeline
    dump = str(tmp_path / "b.rsam")
    code = run_cli(
        "record", "--model", os.path.join(run_dir, "checkpoints", "epoch_002.rsck"),
        "--data", data_path, "--limit", "24", "--out", dump,
    )
    assert code == 0
    out = str(tmp_path / "cmp")
    code = run_cli("compare", "--a", dump, "--b", dump, "--metric", "linear_cka", "--out", out)
    assert code == 0
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    assert summary["mean_diagonal"] == pytest.approx(1.0, abs=1e-9)
    assert os.path.exists(os.path.join(out, "matrix_compare.csv"))
    assert os.path.exists(os.path.join(out, "heatmap_compare.ppm"))


def test_record_and_attack_dumps_pair(pipeline, tmp_path):
    # both dumps digest the clean probe, so a divergence analysis pairs them
    from rslab.activations import read_dump
    from rslab.experiments import divergence_curve
    from rslab.simmetrics import MetricKind

    _, data_path, _, run_dir = pipeline
    model = os.path.join(run_dir, "checkpoints", "epoch_002.rsck")
    common = ["--model", model, "--data", data_path, "--limit", "24"]
    benign = str(tmp_path / "b.rsam")
    assert run_cli("record", *common, "--out", benign) == 0
    out = str(tmp_path / "atk")
    assert run_cli(
        "attack", *common, "--threat", "linf", "--eps", "0.05", "--steps", "3", "--out", out
    ) == 0
    b = read_dump(benign)
    a = read_dump(os.path.join(out, "adversarial.rsam"))
    assert a.manifest["probe_digest"] == b.manifest["probe_digest"]
    assert a.manifest["condition"] == {"kind": "adversarial", "threat": "linf", "epsilon": 0.05}
    curve = divergence_curve(b, a, MetricKind("linear_cka"))
    assert curve.shape == (len(b.records),) and np.all(curve <= 1.0 + 1e-9)


@pytest.fixture(scope="module")
def seeded_runs(pipeline):
    """Short standard runs at seeds 1, 1 and 2; a run draws its probe from its seed."""
    root, data_path, _, _ = pipeline
    config = write_json(root / "standard.json", {
        "schema_version": 1, "arch": "mlp-3",
        "training": {"epochs": 1, "batch_size": 32, "probe_size": 32},
    })
    runs = {}
    for name, seed in (("a", 1), ("twin", 1), ("b", 2)):
        runs[name] = str(root / f"seed_{name}")
        assert run_cli("train", "--config", config, "--data", data_path,
                       "--seed", str(seed), "--out", runs[name]) == 0
    return data_path, runs


def _threatgrid(tmp_path, *runs):
    spec = write_json(tmp_path / "tg.json", {
        "schema_version": 1, "experiment": {"kind": "threatgrid", "runs": list(runs)},
    })
    return run_cli("experiment", "--spec", spec, "--out", str(tmp_path / "tg"))


def test_threatgrid_pairs_runs_of_one_seed(seeded_runs, tmp_path):
    _, runs = seeded_runs
    assert _threatgrid(tmp_path, runs["a"], runs["twin"]) == 0


def test_threatgrid_refuses_runs_of_different_probes(seeded_runs, tmp_path, capsys):
    _, runs = seeded_runs
    assert _threatgrid(tmp_path, runs["a"], runs["b"]) == 5
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation" and "--limit" in err["message"]
    # the (a, a) pair alone is fine, yet the probe check comes before any output
    assert sorted(os.listdir(tmp_path)) == ["tg.json"]


@pytest.mark.parametrize("labels", [["a|b", "a"], ["x/y", "a"], ["", "a"]],
                         ids=["pipe", "slash", "empty"])
def test_threatgrid_refuses_labels_unfit_for_names(pipeline, tmp_path, capsys, labels):
    # "a|b" vs "a" would give the pair_means key "a|b|a" two readings
    _, _, _, run_dir = pipeline
    spec = write_json(tmp_path / "tg.json", {"schema_version": 1, "experiment": {
        "kind": "threatgrid", "runs": [run_dir, run_dir], "labels": labels}})
    assert run_cli("experiment", "--spec", spec, "--out", str(tmp_path / "tg")) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert sorted(os.listdir(tmp_path)) == ["tg.json"]


def test_compare_refuses_a_record_dump_against_a_training_probe(seeded_runs, tmp_path):
    data_path, runs = seeded_runs
    model = os.path.join(runs["a"], "checkpoints", "epoch_001.rsck")
    dump = str(tmp_path / "r.rsam")
    assert run_cli("record", "--model", model, "--data", data_path,
                   "--limit", "32", "--out", dump) == 0
    probe = os.path.join(runs["a"], "probes", "epoch_001_benign.rsam")
    assert run_cli("compare", "--a", dump, "--b", probe, "--out", str(tmp_path / "c")) == 5


def test_compare_pairs_record_dumps_of_two_checkpoints(seeded_runs, tmp_path):
    data_path, runs = seeded_runs
    dumps = []
    for name in ("a", "b"):
        dumps.append(str(tmp_path / f"{name}.rsam"))
        assert run_cli(
            "record", "--model", os.path.join(runs[name], "checkpoints", "epoch_001.rsck"),
            "--data", data_path, "--limit", "32", "--out", dumps[-1],
        ) == 0
    assert run_cli("compare", "--a", dumps[0], "--b", dumps[1],
                   "--out", str(tmp_path / "c")) == 0


def test_compare_online_metric(pipeline, tmp_path):
    _, data_path, _, run_dir = pipeline
    dump = str(tmp_path / "c.rsam")
    run_cli(
        "record", "--model", os.path.join(run_dir, "checkpoints", "epoch_002.rsck"),
        "--data", data_path, "--limit", "32", "--out", dump,
    )
    out = str(tmp_path / "cmp2")
    code = run_cli(
        "compare", "--a", dump, "--b", dump, "--metric", "online_cka",
        "--batch", "16", "--passes", "2", "--out", out,
    )
    assert code == 0


def _synthetic_dump(tmp_path, seed, n, widths):
    from rslab.activations import ActivationRecord, ActivationSet, write_dump

    rng = np.random.default_rng(seed)
    recs = [
        ActivationRecord(f"{i:02d}_dense", i, rng.normal(size=(n, w)).astype(np.float32))
        for i, w in enumerate(widths)
    ]
    dump = str(tmp_path / "g.rsam")
    write_dump(ActivationSet(recs, np.zeros(n, int)), dump)
    return dump


def test_compare_flag_of_another_metric_exits_2(tmp_path, capsys):
    dump = _synthetic_dump(tmp_path, 2, 16, (3, 5))
    code = run_cli("compare", "--a", dump, "--b", dump, "--metric", "linear_cka",
                   "--batch", "16", "--out", str(tmp_path / "c"))
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"


def test_compare_online_cka_defaults_come_from_the_metric(tmp_path):
    dump = _synthetic_dump(tmp_path, 3, 40, (3, 5, 7))
    outs = [str(tmp_path / "implicit"), str(tmp_path / "explicit")]
    flags = ([], ["--batch", "1024", "--passes", "3", "--seed", "0"])
    for out, extra in zip(outs, flags):
        assert run_cli("compare", "--a", dump, "--b", dump, "--metric", "online_cka",
                       *extra, "--out", out) == 0
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1]))
    for name in names:
        with open(os.path.join(outs[0], name), "rb") as fa, open(
            os.path.join(outs[1], name), "rb"
        ) as fb:
            assert fa.read() == fb.read(), name


def test_grid_reads_each_cell_from_its_run(pipeline, seeded_runs, tmp_path):
    _, _, _, advpgd = pipeline
    _, runs = seeded_runs
    spec = write_json(tmp_path / "grid.json", {
        "schema_version": 1, "experiment": {"kind": "grid", "runs": [runs["a"], advpgd]},
    })
    out = str(tmp_path / "grid")
    assert run_cli("experiment", "--spec", spec, "--out", out) == 0
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    assert summary["eps_axis"] == [0.0, 0.05] and summary["width_axis"] == [1]
    assert summary["missing"] == []


def test_compare_online_cka_below_zero_exits_0(tmp_path):
    # independent layers, whose unbiased small-batch estimate is negative
    dump = _synthetic_dump(tmp_path, 1, 24, (6, 10, 3))
    out = str(tmp_path / "cmp")
    code = run_cli(
        "compare", "--a", dump, "--b", dump, "--metric", "online_cka",
        "--batch", "8", "--passes", "1", "--out", out,
    )
    assert code == 0
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    assert summary["clamped"] is True


def test_experiment_command(pipeline, tmp_path):
    _, _, _, run_dir = pipeline
    spec = write_json(
        tmp_path / "exp.json",
        {"schema_version": 1, "experiment": {"kind": "crosslayer", "runs": [run_dir]}},
    )
    out = str(tmp_path / "exp")
    assert run_cli("experiment", "--spec", spec, "--out", out) == 0
    with open(os.path.join(out, "summary.json")) as fh:
        assert "long_range_score" in json.load(fh)


@pytest.mark.parametrize("metric", [
    {}, {"name": "linear_cka", "bogus": 1}, {"name": "nope"},
], ids=["no-name", "unknown-key", "unknown-name"])
def test_experiment_bad_metric_exits_2(tmp_path, capsys, metric):
    spec = write_json(
        tmp_path / "exp.json",
        {"schema_version": 1,
         "experiment": {"kind": "crosslayer", "runs": [str(tmp_path)], "metric": metric}},
    )
    assert run_cli("experiment", "--spec", spec, "--out", str(tmp_path / "exp")) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"


def test_checkpoint_of_bad_trailer_types_exits_5_and_is_missing_from_grid(
    pipeline, seeded_runs, tmp_path, capsys
):
    from rslab import nets

    _, data_path, _, run_dir = pipeline
    _, runs = seeded_runs
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    checkpoint = str(run / "checkpoints" / "epoch_002.rsck")
    net = nets.load_checkpoint(checkpoint)
    net.width_factor = "x"  # the trailer's "width": "x"
    nets.save_checkpoint(net, checkpoint, epoch=2)
    code = run_cli("attack", "--model", checkpoint, "--data", data_path, "--threat", "linf",
                   "--eps", "0.1", "--limit", "8", "--out", str(tmp_path / "atk"))
    assert code == 5
    assert json.loads(capsys.readouterr().err)["error"] == "validation"
    spec = write_json(tmp_path / "grid.json", {
        "schema_version": 1, "experiment": {"kind": "grid", "runs": [str(run), runs["a"]]},
    })
    out = str(tmp_path / "grid")
    assert run_cli("experiment", "--spec", spec, "--out", out) == 0
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    assert [m["run"] for m in summary["missing"]] == [str(run)]
    assert summary["eps_axis"] == [0.0] and summary["width_axis"] == [1]


@pytest.mark.parametrize("name,corrupt", [
    ("trace.csv", lambda raw: raw.splitlines(keepends=True)[0]),
    ("trace.csv", lambda raw: raw.replace(b"\n2,", b"\nabc,")),
    ("config.json", lambda raw: raw[: len(raw) // 2]),
    ("config.json", lambda raw: raw.replace(b'"m0"', b'"\xff"')),
    ("config.json", lambda raw: DEEP_JSON),
], ids=["header-only-trace", "non-numeric-trace", "bad-config-json", "non-utf8-config",
        "deep-config-json"])
def test_experiment_on_corrupt_run_exits_5(pipeline, tmp_path, capsys, name, corrupt):
    _, _, _, run_dir = pipeline
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    (run / name).write_bytes(corrupt((run / name).read_bytes()))
    spec = write_json(
        tmp_path / "exp.json",
        {"schema_version": 1, "experiment": {"kind": "crosslayer", "runs": [str(run)]}},
    )
    assert run_cli("experiment", "--spec", spec, "--out", str(tmp_path / "exp")) == 5
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation" and name in err["message"]


def test_validation_failure_exit_code(pipeline, tmp_path, capsys):
    _, data_path, _, run_dir = pipeline
    # corrupt a dump so compare hits a format (validation) error
    dump = str(tmp_path / "bad.rsam")
    with open(os.path.join(run_dir, "probes", "epoch_002_benign.rsam"), "rb") as fh:
        raw = bytearray(fh.read())
    raw[:4] = b"XXXX"
    with open(dump, "wb") as fh:
        fh.write(bytes(raw))
    code = run_cli("compare", "--a", dump, "--b", dump, "--out", str(tmp_path / "c"))
    assert code == 5
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"


def test_attack_on_corrupt_dataset_exits_5(pipeline, tmp_path, capsys):
    _, data_path, _, run_dir = pipeline
    from rslab.training import load_dataset, save_dataset

    not_rsds = tmp_path / "not_rsds"
    not_rsds.write_bytes(b"not a dataset file")
    no_spec = tmp_path / "no_spec"
    save_dataset(load_dataset(data_path), no_spec)
    raw = no_spec.read_bytes()
    assert raw.count(b'"spec"') == 1  # the trailer's key
    no_spec.write_bytes(raw.replace(b'"spec"', b'"spez"'))
    for i, bad in enumerate((not_rsds, no_spec)):
        code = run_cli(
            "attack", "--model", os.path.join(run_dir, "checkpoints", "epoch_002.rsck"),
            "--threat", "linf", "--eps", "0.1", "--steps", "1",
            "--data", str(bad), "--out", str(tmp_path / f"atk{i}"),
        )
        assert code == 5, bad
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation" and str(bad) in err["message"]


def test_npz_dataset_of_earlier_versions_exits_5(pipeline, tmp_path, capsys):
    # written as gen-data wrote datasets before they became RSDS files
    _, data_path, _, run_dir = pipeline
    from rslab.training import load_dataset

    data = load_dataset(data_path)
    old = str(tmp_path / "old.npz")
    np.savez(
        old,
        train_x=data.train.inputs.astype(np.float32), train_y=data.train.labels,
        val_x=data.val.inputs.astype(np.float32), val_y=data.val.labels,
        spec=json.dumps(errors.to_json(data.spec), sort_keys=True), seed=data.seed,
    )
    code = run_cli(
        "record", "--model", os.path.join(run_dir, "checkpoints", "epoch_002.rsck"),
        "--data", old, "--out", str(tmp_path / "rec.rsam"),
    )
    assert code == 5
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation" and old in err["message"]


def test_non_finite_dataset_exits_5(pipeline, tmp_path, capsys):
    _, data_path, config_path, run_dir = pipeline
    from rslab.training import load_dataset, save_dataset

    bad = str(tmp_path / "nan")
    data = load_dataset(data_path)
    data.val.inputs[0, 0, 0, 0] = np.nan  # one pixel of the first val point
    save_dataset(data, bad)
    model = os.path.join(run_dir, "checkpoints", "epoch_002.rsck")
    for argv in (
        ["attack", "--model", model, "--threat", "linf", "--eps", "0.1", "--steps", "1",
         "--data", bad, "--limit", "8", "--out", str(tmp_path / "atk")],
        ["record", "--model", model, "--data", bad, "--limit", "8",
         "--out", str(tmp_path / "rec.rsam")],
        ["train", "--config", config_path, "--data", bad, "--out", str(tmp_path / "run")],
    ):
        assert run_cli(*argv) == 5, argv[0]
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation" and bad in err["message"]


@pytest.mark.parametrize("fault", ["label-out-of-range", "image-size"])
def test_dataset_that_breaks_its_spec_exits_5(pipeline, tmp_path, capsys, fault):
    _, data_path, _, run_dir = pipeline
    from rslab.errors import FormatError
    from rslab.training import DatasetSpec, load_dataset, make_synthetic_dataset, save_dataset

    bad = str(tmp_path / "bad")
    if fault == "label-out-of-range":
        data = load_dataset(data_path)
        data.val.labels[-1] = 7  # of a 2-class spec
    else:
        data = make_synthetic_dataset(DatasetSpec(classes=2, size=4, n_train=16, n_val=8), 0)
        data.spec = DatasetSpec(classes=2, size=8, n_train=16, n_val=8)  # 4x4 images
    save_dataset(data, bad)
    with pytest.raises(FormatError):
        load_dataset(bad)
    out = tmp_path / "rec.rsam"
    code = run_cli("record", "--model", os.path.join(run_dir, "checkpoints", "epoch_002.rsck"),
                   "--data", bad, "--out", str(out))
    assert code == 5
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation" and bad in err["message"]
    assert not out.exists()


def test_seed_threading_determinism(pipeline, tmp_path):
    root, data_path, config_path, _ = pipeline
    out_a = str(tmp_path / "ra")
    out_b = str(tmp_path / "rb")
    assert run_cli("train", "--config", config_path, "--seed", "11", "--out", out_a) == 0
    assert run_cli("train", "--config", config_path, "--seed", "11", "--out", out_b) == 0
    for sub in ("trace.csv", os.path.join("checkpoints", "epoch_002.rsck"),
                os.path.join("probes", "epoch_002_benign.rsam")):
        with open(os.path.join(out_a, sub), "rb") as fa, open(
            os.path.join(out_b, sub), "rb"
        ) as fb:
            assert fa.read() == fb.read(), sub


# values a fuzzed spec field may take: every JSON type, in and out of range
FUZZ_VALUES = (None, True, -1, 0, 2, 0.5, 1e300, "", "adv", "svcca", [], [0], ["x"], {},
               {"name": "linear_cka"})


def _json_paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _json_paths(value, prefix + (key,))


def _mutate(doc, rng):
    """A copy of doc with one node deleted, replaced, or given a sibling."""
    doc = json.loads(json.dumps(doc))
    paths = list(_json_paths(doc))[1:]
    path = paths[int(rng.integers(0, len(paths)))]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    value = FUZZ_VALUES[int(rng.integers(0, len(FUZZ_VALUES)))]
    op = int(rng.integers(0, 3))
    if op == 0:
        del parent[path[-1]]
    elif op == 1:
        parent[path[-1]] = value
    elif isinstance(parent, dict):
        parent["bogus"] = value
    else:
        parent.append(value)
    return doc


def _fuzz_exits_with_documented_code(docs, argv, trials, seed, tmp_path, capsys):
    """Run `trials` seeded mutations of `docs` as `rslab <argv> FILE --out`.

    Every mutated document either runs or ends in a documented exit code with
    a JSON error on stderr; an exception escaping cli.main fails the test.
    Returns the set of exit codes seen.
    """
    rng = np.random.default_rng(seed)
    codes = set()
    for trial in range(trials):
        doc = docs[trial % len(docs)]
        for _ in range(int(rng.integers(1, 3))):
            doc = _mutate(doc, rng)
        path = write_json(tmp_path / "doc.json", doc)
        code = run_cli(*argv, path, "--out", str(tmp_path / "o"), "--force")
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4, 5), doc
        if code:
            assert json.loads(err)["error"] in ("config", "io", "numerical", "validation")
        codes.add(code)
    return codes


def test_experiment_spec_fuzz_exits_with_documented_code(pipeline, tmp_path, capsys):
    _, _, _, run_dir = pipeline
    bases = [
        {"kind": "crosslayer", "runs": [run_dir], "min_lag": 2,
         "metric": {"name": "svcca", "variance_fraction": 0.9}},
        {"kind": "evolution", "runs": [run_dir], "taps": [1, 5],
         "metric": {"name": "online_cka", "batch": 8, "passes": 1, "seed": 2}},
        {"kind": "divergence", "runs": [run_dir], "metric": {"name": "procrustes"}},
        {"kind": "grid", "runs": [run_dir], "condition": "adv"},
        {"kind": "threatgrid", "runs": [run_dir, run_dir], "labels": ["a", "b"]},
    ]
    docs = [{"schema_version": 1, "experiment": base} for base in bases]
    codes = _fuzz_exits_with_documented_code(
        docs, ("experiment", "--spec"), 150, 17, tmp_path, capsys
    )
    assert {0, 2} <= codes


def test_train_config_fuzz_exits_with_documented_code(tmp_path, capsys):
    # a tiny dataset keeps a mutation that drops "epochs" (default 40) cheap
    data_path = str(tmp_path / "tiny.npz")
    spec = write_json(tmp_path / "tiny.json", {
        "schema_version": 1, "dataset": {"classes": 2, "size": 4, "n_train": 16, "n_val": 8},
    })
    assert run_cli("gen-data", "--spec", spec, "--out", data_path) == 0
    doc = {
        "schema_version": 1, "model_id": "f", "arch": "mlp-3", "width": 1,
        "data": data_path,
        "training": {
            "method": "advpgd", "threat": {"kind": "linf", "epsilon": 0.05, "steps": 1},
            "eval_threat": {"kind": "l2", "epsilon": 0.5, "steps": 1},
            "epochs": 1, "batch_size": 16, "probe_size": 8, "val_adv_subset": 8,
            "checkpoint_every": 0, "lr_decay": True, "seed": 1,
        },
    }
    codes = _fuzz_exits_with_documented_code(
        [doc], ("train", "--config"), 120, 23, tmp_path, capsys
    )
    assert {0, 2} <= codes


def test_gen_data_spec_fuzz_exits_with_documented_code(tmp_path, capsys):
    doc = {
        "schema_version": 1,
        "dataset": {
            "classes": 2, "size": 8, "channels": 1, "n_train": 8, "n_val": 4,
            "background": 0.3, "blob_amplitude": 0.5, "blob_sigma": 1.8, "jitter": 1,
            "texture_amplitude": 0.1, "texture_cycles": 3.0, "noise_std": 0.05,
        },
    }
    codes = _fuzz_exits_with_documented_code(
        [doc], ("gen-data", "--spec"), 100, 29, tmp_path, capsys
    )
    assert {0, 2} <= codes
