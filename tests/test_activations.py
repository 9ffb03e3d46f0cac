import hashlib
import struct

import numpy as np
import pytest

from rslab import activations as act
from rslab import nets, training
from rslab.errors import (
    AlignmentError,
    BadMagicError,
    FormatError,
    ManifestError,
    TruncatedError,
    ValidationError,
    VersionError,
)


def random_set(rng, records=3, n=6):
    recs = []
    for i in range(records):
        p = int(rng.integers(1, 9))
        cond = (
            act.Condition.benign()
            if rng.random() < 0.5
            else act.Condition.adversarial(
                act.THREAT_KINDS[int(rng.integers(0, 5))], float(rng.uniform(0, 1))
            )
        )
        mat = rng.normal(size=(n, p)).astype(np.float32).astype(np.float64)
        recs.append(act.ActivationRecord(f"layer{i:02d}", i, mat, cond, "m", i))
    labels = rng.integers(0, 4, n)
    return act.ActivationSet(recs, labels, {"model_id": "m", "seed": 0})


def sets_equal(a, b):
    if a.layer_names != b.layer_names or not np.array_equal(a.labels, b.labels):
        return False
    for ra, rb in zip(a.records, b.records):
        if ra.layer_index != rb.layer_index:
            return False
        if not np.array_equal(ra.matrix, rb.matrix):
            return False
        if ra.condition != rb.condition:
            return False
    return True


def test_roundtrip_identity(tmp_path):
    rng = np.random.default_rng(0)
    s = random_set(rng)
    path = tmp_path / "a.rsam"
    act.write_dump(s, path)
    assert sets_equal(act.read_dump(path), s)


def test_roundtrip_bit_exact_many(tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "many.rsam"
    for _ in range(50):
        s = random_set(rng, records=int(rng.integers(1, 5)), n=int(rng.integers(2, 10)))
        act.write_dump(s, path)
        assert sets_equal(act.read_dump(path), s)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.rsam"
    rng = np.random.default_rng(2)
    act.write_dump(random_set(rng), path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagicError):
        act.read_dump(path)


def test_version_mismatch(tmp_path):
    path = tmp_path / "v.rsam"
    rng = np.random.default_rng(3)
    act.write_dump(random_set(rng), path)
    raw = bytearray(path.read_bytes())
    raw[4:6] = struct.pack("<H", 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionError):
        act.read_dump(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "t.rsam"
    rng = np.random.default_rng(4)
    act.write_dump(random_set(rng), path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(TruncatedError):
        act.read_dump(path)


def test_oversized_record_header(tmp_path):
    # a record declaring an n x p payload larger than the remaining bytes
    path = tmp_path / "big.rsam"
    rng = np.random.default_rng(5)
    s = act.ActivationSet(
        [act.ActivationRecord("only", 0, rng.normal(size=(4, 2)), act.Condition.benign())],
        np.zeros(4, dtype=int),
    )
    act.write_dump(s, path)
    raw = bytearray(path.read_bytes())
    # record header starts after magic(4)+version(2)+count(4)+namelen(2)+name(4)
    off = 4 + 2 + 4 + 2 + 4 + 4  # ... +layer_index(4) -> n field
    raw[off : off + 8] = struct.pack("<Q", 1 << 40)
    path.write_bytes(bytes(raw))
    with pytest.raises(TruncatedError):
        act.read_dump(path)


def test_manifest_record_count_disagreement(tmp_path):
    path = tmp_path / "m.rsam"
    rng = np.random.default_rng(6)
    s = random_set(rng, records=2)
    s.manifest["layers"] = ["a", "b", "c"]  # will be overwritten by writer
    act.write_dump(s, path)
    raw = path.read_bytes()
    # corrupt the manifest in place: swap the layers list for a longer one
    (offset,) = struct.unpack("<Q", raw[-8:])
    (mlen,) = struct.unpack("<I", raw[offset : offset + 4])
    import json

    manifest = json.loads(raw[offset + 4 : offset + 4 + mlen])
    manifest["layers"].append("ghost")
    mbytes = json.dumps(manifest).encode()
    patched = raw[:offset] + struct.pack("<I", len(mbytes)) + mbytes + struct.pack("<Q", offset)
    path.write_bytes(patched)
    with pytest.raises(ManifestError):
        act.read_dump(path)


def _write_rsam(rng, path):
    act.write_dump(random_set(rng), path)


def _write_rsck(rng, path):
    net = nets.NetworkGraph(
        [nets.Flatten(), nets.Dense(4, 3), nets.Relu(), nets.Dense(3, 2)], (1, 2, 2)
    )
    net.params = nets.init_params(net, int(rng.integers(0, 1000)))
    nets.save_checkpoint(net, path)


def _write_npz(rng, path):
    spec = training.DatasetSpec(classes=2, size=4, n_train=6, n_val=4)
    data = training.make_synthetic_dataset(spec, int(rng.integers(0, 1000)))
    training.save_dataset(data, path)


# writer and reader of each file format, for the shared corruption tests;
# a dataset is an npz (zip) archive, named so that np.savez adds no suffix
FORMATS = {
    "rsam": (_write_rsam, act.read_dump),
    "rsck": (_write_rsck, nets.load_checkpoint),
    "npz": (_write_npz, training.load_dataset),
}


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_fuzz_corrupted_headers_never_crash(tmp_path, fmt):
    write, read = FORMATS[fmt]
    rng = np.random.default_rng(7)
    path = tmp_path / f"fuzz.{fmt}"
    write(rng, path)
    pristine = path.read_bytes()
    for trial in range(300):
        raw = bytearray(pristine)
        for _ in range(int(rng.integers(1, 6))):
            pos = int(rng.integers(0, len(raw)))
            raw[pos] = int(rng.integers(0, 256))
        path.write_bytes(bytes(raw))
        try:
            read(path)
        except FormatError:
            pass  # any format error is acceptable; crashes are not


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_truncation_fuzz(tmp_path, fmt):
    write, read = FORMATS[fmt]
    rng = np.random.default_rng(8)
    path = tmp_path / f"cut.{fmt}"
    write(rng, path)
    pristine = path.read_bytes()
    for cut in range(0, len(pristine) - 1, max(1, len(pristine) // 64)):
        path.write_bytes(pristine[:cut])
        with pytest.raises(FormatError):
            read(path)


# not datasets: zip readers find the archive from its end and accept
# trailing bytes, and 32 of 32 datasets with bytes appended loaded
@pytest.mark.parametrize("fmt", ["rsam", "rsck"])
def test_appended_bytes_rejected(tmp_path, fmt):
    write, read = FORMATS[fmt]
    rng = np.random.default_rng(13)
    path = tmp_path / f"tail.{fmt}"
    write(rng, path)
    pristine = path.read_bytes()
    for extra in range(1, 33):
        path.write_bytes(pristine + rng.bytes(extra))
        with pytest.raises(ManifestError):
            read(path)


# sha256 of the files below as written by the first RSAM/RSCK writers; any
# change to either on-disk format shows up here
GOLDEN_SHA256 = {
    "rsam": "89ca6d8698ebaa7c5166a610dc39ac7ce8ff5bbd2f2ef631e60046a3a7e7995f",
    "rsck": "fb4663677cf56f4666d31106a408ea285a74e47d1bc730292bbbdfe3e3a56c14",
}


def test_golden_bytes(tmp_path):
    m0 = np.arange(12.0).reshape(4, 3) / 8
    m1 = -np.arange(8.0).reshape(4, 2) / 4
    dump = act.ActivationSet(
        [
            act.ActivationRecord("00_dense", 0, m0, act.Condition.benign()),
            act.ActivationRecord(
                "02_relu", 2, m1, act.Condition.adversarial("gabor", 0.25)
            ),
        ],
        np.array([0, 1, 1, 3]),
        {"model_id": "golden", "seed": 7},
    )
    layers = [
        nets.Conv2d(1, 2, 3, 1, 1), nets.Relu(), nets.ResidualAdd(0),
        nets.AvgPool(2), nets.Flatten(), nets.Dense(8, 3),
    ]
    net = nets.NetworkGraph(layers, (1, 4, 4), taps=(1, 5), arch="golden", seed=3)
    net.params = [
        {"w": np.linspace(-1, 1, 18).reshape(2, 1, 3, 3), "b": np.array([0.5, -0.5])},
        {}, {}, {}, {},
        {"w": np.linspace(-2, 2, 24).reshape(8, 3), "b": np.array([0.125, 0.25, -1.0])},
    ]
    act.write_dump(dump, tmp_path / "g.rsam")
    nets.save_checkpoint(net, tmp_path / "g.rsck", epoch=4)
    for fmt, want in GOLDEN_SHA256.items():
        got = hashlib.sha256((tmp_path / f"g.{fmt}").read_bytes()).hexdigest()
        assert got == want, fmt
    assert sets_equal(act.read_dump(tmp_path / "g.rsam"), dump)
    loaded = nets.load_checkpoint(tmp_path / "g.rsck")
    assert loaded.layers == layers and loaded.taps == (1, 5)
    for pa, pb in zip(net.params, loaded.params):
        assert pa.keys() == pb.keys()
        for k in pa:
            assert np.array_equal(pb[k], pa[k].astype(np.float32).astype(np.float64))


def test_condition_json():
    # dump manifests carry this object; a benign condition has no threat keys
    assert act.Condition.benign().to_json() == {"kind": "benign"}
    assert act.Condition.adversarial("gabor", 0.25).to_json() == {
        "kind": "adversarial", "threat": "gabor", "epsilon": 0.25,
    }


def test_set_invariants():
    rng = np.random.default_rng(9)
    rec = lambda i, n: act.ActivationRecord(
        f"l{i}", i, rng.normal(size=(n, 2)), act.Condition.benign()
    )
    with pytest.raises(AlignmentError):
        act.ActivationSet([rec(0, 4), rec(1, 5)], np.zeros(4, dtype=int))
    with pytest.raises(ValidationError):
        act.ActivationSet([rec(1, 4), rec(0, 4)], np.zeros(4, dtype=int))
    with pytest.raises(AlignmentError):
        act.ActivationSet([rec(0, 4)], np.zeros(3, dtype=int))


def test_record_activations_identity_net():
    # a single flatten layer is the identity on already-flat probe data
    net = nets.NetworkGraph([nets.Flatten()], (1, 2, 2))
    net.params = nets.init_params(net, 0)
    rng = np.random.default_rng(10)
    probe = nets.Batch(rng.uniform(0, 1, (4, 1, 2, 2)), rng.integers(0, 2, 4))
    s = act.record_activations(net, probe, act.Condition.benign())
    assert len(s.records) == 1
    expected = probe.inputs.reshape(4, -1).astype(np.float32).astype(np.float64)
    assert np.array_equal(s.records[0].matrix, expected)


def test_record_activations_structure_and_determinism():
    net = nets.make_network("mlp-3", input_shape=(1, 4, 4), classes=2, seed=0)
    net.taps = (1, 3, 5)
    rng = np.random.default_rng(11)
    probe = nets.Batch(rng.uniform(0, 1, (5, 1, 4, 4)), rng.integers(0, 2, 5))
    s1 = act.record_activations(net, probe, act.Condition.benign())
    s2 = act.record_activations(net, probe, act.Condition.benign())
    assert len(s1.records) == 3
    idx = [r.layer_index for r in s1.records]
    assert idx == sorted(idx) and len(set(idx)) == 3
    assert sets_equal(s1, s2)


def test_roundtrip_after_recording(tmp_path):
    net = nets.make_network("mlp-3", input_shape=(1, 4, 4), classes=2, seed=1)
    rng = np.random.default_rng(12)
    probe = nets.Batch(rng.uniform(0, 1, (6, 1, 4, 4)), rng.integers(0, 2, 6))
    s = act.record_activations(net, probe, act.Condition.adversarial("linf", 0.1))
    path = tmp_path / "rec.rsam"
    act.write_dump(s, path)
    assert sets_equal(act.read_dump(path), s)
