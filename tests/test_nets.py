import hashlib
import json
import struct

import numpy as np
import pytest

from rslab import nets
from rslab.errors import (
    BadMagicError,
    ManifestError,
    ShapeError,
    TruncatedError,
    ValidationError,
    VersionError,
)


def ce_cotangent(labels):
    """`input_grad`'s dlogits_of for the mean cross-entropy of `labels`."""
    return lambda logits, rows: nets._label_logp_and_grad(logits, labels[rows])[1] / len(labels)


def mean_ce(net, x, labels):
    return nets.cross_entropy(nets.forward(net, x)[0], labels)[0]


def finite_diff_param_grads(net, batch, step=1e-5, stride=7):
    """Central finite differences on a strided subset of each tensor."""
    _, grads = nets.loss_and_grad(net, batch)
    worst = 0.0
    for li, p in enumerate(net.params):
        for key, arr in p.items():
            flat = arr.ravel()
            for k in range(0, flat.size, stride):
                orig = flat[k]
                flat[k] = orig + step
                lp = mean_ce(net, batch.inputs, batch.labels)
                flat[k] = orig - step
                lm = mean_ce(net, batch.inputs, batch.labels)
                flat[k] = orig
                fd = (lp - lm) / (2 * step)
                bp = grads[li][key].ravel()[k]
                denom = max(1e-6, abs(fd) + abs(bp))
                worst = max(worst, abs(fd - bp) / denom)
    return worst


def finite_diff_input_grad(net, batch, step=1e-5, stride=11):
    dx = nets.input_grad(net, batch.inputs, ce_cotangent(batch.labels))
    x = batch.inputs.copy()
    flat = x.ravel()
    worst = 0.0
    for k in range(0, flat.size, stride):
        orig = flat[k]
        flat[k] = orig + step
        lp = mean_ce(net, x, batch.labels)
        flat[k] = orig - step
        lm = mean_ce(net, x, batch.labels)
        flat[k] = orig
        fd = (lp - lm) / (2 * step)
        bp = dx.ravel()[k]
        worst = max(worst, abs(fd - bp) / max(1e-6, abs(fd) + abs(bp)))
    return worst


# ---------------------------------------------------------------------------
# forward trivials


def test_dense_identity_forward():
    net = nets.NetworkGraph([nets.Flatten(), nets.Dense(4, 4)], (1, 2, 2))
    net.params = nets.init_params(net, 0)
    net.params[1]["w"] = np.eye(4)
    net.params[1]["b"] = np.zeros(4)
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, (3, 1, 2, 2))
    logits, _ = nets.forward(net, x)
    assert np.allclose(logits, x.reshape(3, 4))


def test_conv_one_hot_center_kernel_is_identity():
    net = nets.NetworkGraph([nets.Conv2d(1, 1, 3, 1, 1)], (1, 5, 5))
    net.params = nets.init_params(net, 0)
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = 1.0
    net.params[0]["w"] = w
    net.params[0]["b"] = np.zeros(1)
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 1, (2, 1, 5, 5))
    out, _ = nets.forward(net, x)
    assert np.allclose(out, x)


def test_forward_deterministic_replay():
    net = nets.make_network("miniresnet", (1, 8, 8), classes=3, seed=4)
    rng = np.random.default_rng(2)
    x = rng.uniform(0, 1, (4, 1, 8, 8))
    a, taps_a = nets.forward(net, x, taps=net.taps)
    b, taps_b = nets.forward(net, x, taps=net.taps)
    assert np.array_equal(a, b)
    for t in net.taps:
        assert np.array_equal(taps_a[t], taps_b[t])


def test_forward_shape_mismatch():
    net = nets.make_network("mlp-3", (1, 4, 4), classes=2, seed=0)
    with pytest.raises(ShapeError):
        nets.forward(net, np.zeros((2, 1, 5, 5)))


def test_tap_shapes_match_declared():
    net = nets.make_network("miniresnet", (1, 8, 8), classes=3, seed=5)
    x = np.random.default_rng(3).uniform(0, 1, (2, 1, 8, 8))
    _, tapped = nets.forward(net, x, taps=net.taps)
    for t in net.taps:
        declared = int(np.prod(net.output_shapes[t]))
        assert tapped[t].shape == (2, declared)


# ---------------------------------------------------------------------------
# blocked gradient-free passes


@pytest.fixture(scope="module")
def resnet16():
    return nets.make_network("miniresnet", (1, 16, 16), classes=4, seed=6)


# batch sizes as (whole blocks, extra images): one image, one block, one
# block plus a lone row (which joins that block), a ragged tail, three blocks
@pytest.mark.parametrize("blocks,extra", [(0, 1), (1, 0), (1, 1), (1, 3), (3, 0)])
def test_blocked_passes_match_one_pass(resnet16, blocks, extra):
    net = resnet16
    n = blocks * nets._block_rows(net) + extra
    rng = np.random.default_rng(n)
    x = rng.uniform(0, 1, (n, 1, 16, 16))
    labels = rng.integers(0, 4, n)
    # reference: the whole batch in one pass
    ref_logits, state = nets.forward_cache(net, x)
    ref_loss, dlogits = nets.cross_entropy(ref_logits, labels)
    ref_dx = nets.backward(net, state, dlogits, need_param_grads=False)

    logits, tapped = nets.forward(net, x, taps=net.taps)
    assert np.array_equal(logits, ref_logits)
    for t in net.taps:
        assert np.array_equal(tapped[t], nets._flatten_act(state[1][t]))
    assert np.array_equal(nets.predict(net, x), ref_logits.argmax(axis=1))
    assert np.array_equal(nets.input_grad(net, x, ce_cotangent(labels)), ref_dx)
    loss, _ = nets.loss_and_grad(net, nets.Batch(x, labels))
    assert loss == ref_loss


def test_blocked_kl_input_grad_matches_one_pass(resnet16):
    # TRADES' ascent cotangent, over two whole blocks and a ragged tail
    net = resnet16
    n = 2 * nets._block_rows(net) + 3
    rng = np.random.default_rng(12)
    x0 = rng.uniform(0, 1, (n, 1, 16, 16))
    x = np.clip(x0 + rng.uniform(-0.1, 0.1, x0.shape), 0.0, 1.0)
    p0 = nets.softmax(nets.forward_cache(net, x0)[0])
    logits, state = nets.forward_cache(net, x, need_param_grads=False)
    ref_dx = nets.backward(net, state, (nets.softmax(logits) - p0) / n, need_param_grads=False)
    dx = nets.input_grad(net, x, lambda lg, rows: (nets.softmax(lg) - p0[rows]) / n)
    assert np.array_equal(dx, ref_dx)


def test_block_sizes_follow_layer_widths(resnet16):
    assert nets._block_rows(resnet16) == 28
    # the dense net is not cut into small products
    assert nets._block_rows(nets.make_network("mlp-3", width_factor=4, seed=0)) > 256


# k = 4 on a 4 x 4 map is the miniresnet's global pool
@pytest.mark.parametrize("n", [1, 2, 28, 29])
@pytest.mark.parametrize("h,k", [(16, 2), (8, 2), (4, 4)])
def test_avg_pool_bytes_match_numpy_mean(n, h, k):
    # ReLU outputs of mixed magnitude: exact zeros, and sums whose rounding
    # depends on the order the window is added in
    rng = np.random.default_rng(100 * n + h + k)
    x = np.maximum(rng.normal(size=(n, h, h, 8)) * 10.0 ** rng.uniform(-3, 3, (n, h, h, 8)), 0.0)
    assert (x == 0.0).any()
    ref = x.reshape(n, h // k, k, h // k, k, 8).mean(axis=(2, 4))
    assert nets._avg_pool(x, k).tobytes() == ref.tobytes()


def test_avg_pool_of_negative_zeros_matches_numpy_mean():
    x = np.full((1, 4, 4, 2), -0.0)
    ref = x.reshape(1, 2, 2, 2, 2, 2).mean(axis=(2, 4))
    assert nets._avg_pool(x, 2).tobytes() == ref.tobytes()


def test_param_grads_need_windowed_state(resnet16):
    x = np.random.default_rng(7).uniform(0, 1, (3, 1, 16, 16))
    logits, state = nets.forward_cache(resnet16, x, need_param_grads=False)
    dlogits = np.ones_like(logits)
    with pytest.raises(ValidationError):
        nets.backward(resnet16, state, dlogits, need_param_grads=True)


@pytest.mark.parametrize("label", [4, -1])
def test_out_of_range_label_rejected(resnet16, label):
    x = np.random.default_rng(8).uniform(0, 1, (3, 1, 16, 16))
    batch = nets.Batch(x, [0, label, 1])
    with pytest.raises(ValidationError):
        nets.loss_and_grad(resnet16, batch)
    with pytest.raises(ValidationError):
        nets.input_grad(resnet16, x, ce_cotangent(batch.labels))


# ---------------------------------------------------------------------------
# loss and gradients


def test_loss_saturated_softmax_near_zero():
    net = nets.NetworkGraph([nets.Flatten(), nets.Dense(4, 2)], (1, 2, 2))
    net.params = nets.init_params(net, 0)
    rng = np.random.default_rng(4)
    x = rng.uniform(0, 1, (5, 1, 2, 2))
    labels = rng.integers(0, 2, 5)
    logits, state = nets.forward_cache(net, x.reshape(5, 1, 2, 2))
    # force one-hot-correct logits with a huge margin via the bias
    net.params[1]["w"] = np.zeros((4, 2))
    net.params[1]["b"] = np.zeros(2)
    big = np.zeros((5, 2))
    big[np.arange(5), labels] = 50.0
    loss, dlogits = nets.cross_entropy(big, labels)
    assert loss < 1e-8
    assert np.abs(dlogits).max() < 1e-8


def test_single_linear_layer_analytic_gradient():
    net = nets.NetworkGraph([nets.Flatten(), nets.Dense(6, 2)], (1, 2, 3))
    net.params = nets.init_params(net, 1)
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 1, (4, 1, 2, 3))
    labels = rng.integers(0, 2, 4)
    _, grads = nets.loss_and_grad(net, nets.Batch(x, labels))
    flat = x.reshape(4, 6)
    logits = flat @ net.params[1]["w"] + net.params[1]["b"]
    probs = nets.softmax(logits)
    onehot = np.eye(2)[labels]
    expected_w = flat.T @ (probs - onehot) / 4
    assert np.abs(grads[1]["w"] - expected_w).max() <= 1e-10


@pytest.mark.parametrize(
    "layers,shape",
    [
        ([nets.Flatten(), nets.Dense(16, 3)], (1, 4, 4)),
        ([nets.Conv2d(2, 3, 3, 1, 1), nets.Relu(), nets.Flatten(), nets.Dense(48, 2)], (2, 4, 4)),
        ([nets.Conv2d(1, 2, 3, 2, 1), nets.Flatten(), nets.Dense(18, 2)], (1, 5, 5)),
        ([nets.Conv2d(1, 2, 3, 1, 0), nets.AvgPool(2), nets.Flatten(), nets.Dense(2, 2)], (1, 4, 4)),
        (
            [
                nets.Conv2d(1, 2, 3, 1, 1), nets.Relu(),
                nets.Conv2d(2, 2, 3, 1, 1), nets.ResidualAdd(1), nets.Relu(),
                nets.AvgPool(2), nets.Flatten(), nets.Dense(8, 3),
            ],
            (1, 4, 4),
        ),
    ],
    ids=["dense", "conv-relu", "conv-stride2", "conv-avgpool", "residual"],
)
def test_gradcheck_every_layer_kind(layers, shape):
    net = nets.NetworkGraph(layers, shape)
    net.params = nets.init_params(net, 7)
    rng = np.random.default_rng(6)
    x = rng.uniform(0.05, 0.95, (3,) + shape)
    classes = net.output_shapes[-1][0]
    batch = nets.Batch(x, rng.integers(0, classes, 3))
    assert finite_diff_param_grads(net, batch, stride=3) < 1e-4
    assert finite_diff_input_grad(net, batch, stride=5) < 1e-4


def test_gradcheck_full_miniresnet():
    net = nets.make_network("miniresnet", (1, 8, 8), classes=3, seed=8)
    rng = np.random.default_rng(7)
    batch = nets.Batch(rng.uniform(0, 1, (3, 1, 8, 8)), rng.integers(0, 3, 3))
    assert finite_diff_param_grads(net, batch, stride=29) < 1e-4
    assert finite_diff_input_grad(net, batch, stride=17) < 1e-4


# ---------------------------------------------------------------------------
# init


def test_init_deterministic_per_seed():
    net = nets.make_network("mlp-3", (1, 4, 4), classes=2)
    a = nets.init_params(net, 3)
    b = nets.init_params(net, 3)
    c = nets.init_params(net, 4)
    for pa, pb in zip(a, b):
        for k in pa:
            assert np.array_equal(pa[k], pb[k])
    assert any(
        not np.array_equal(pa[k], pc[k]) for pa, pc in zip(a, c) for k in pa
    )


def _params_digest(params) -> str:
    h = hashlib.sha256()
    for i, p in enumerate(params):
        for key in sorted(p):
            h.update(f"{i}.{key}{p[key].shape}".encode())
            h.update(np.ascontiguousarray(p[key], dtype="<f8").tobytes())
    return h.hexdigest()[:16]


# sha256 prefixes of make_network's parameters: a change to the order, shape
# or scale of init_params' draws moves them
INIT_DIGESTS = {
    ("mlp-3", 1, 0): "7c965cdbb4688c2f",
    ("mlp-3", 1, 7): "7c0cb02bb958f306",
    ("mlp-3", 2, 0): "797cc7838fedcd92",
    ("mlp-3", 2, 7): "d1e9786bc16df6f2",
    ("miniresnet", 1, 0): "0b4f355ec231c117",
    ("miniresnet", 1, 7): "dd204da288c38740",
    ("miniresnet", 2, 0): "47e04abf814e2297",
    ("miniresnet", 2, 7): "3e98a4f9c43775f8",
}


@pytest.mark.parametrize("arch, width, seed", sorted(INIT_DIGESTS))
def test_init_params_bytes_pinned(arch, width, seed):
    net = nets.make_network(arch, (1, 8, 8), classes=3, width_factor=width, seed=seed)
    assert _params_digest(net.params) == INIT_DIGESTS[arch, width, seed]


def test_init_fan_in_scaling():
    net = nets.NetworkGraph([nets.Flatten(), nets.Dense(64, 64)], (1, 8, 8))
    params = nets.init_params(net, 0)
    w = params[1]["w"]  # 4096 samples
    expected = np.sqrt(2.0 / 64)
    assert abs(w.std() - expected) / expected < 0.2


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip(tmp_path):
    net = nets.make_network("miniresnet", (1, 8, 8), classes=3, width_factor=2, seed=9)
    path = tmp_path / "net.rsck"
    nets.save_checkpoint(net, path, epoch=5)
    loaded = nets.load_checkpoint(path)
    assert loaded.arch == net.arch
    assert loaded.width_factor == 2
    assert loaded.input_shape == net.input_shape
    assert loaded.taps == net.taps
    assert len(loaded.params) == len(net.params)
    for pa, pb in zip(net.params, loaded.params):
        for k in pa:
            assert np.array_equal(pb[k], pa[k].astype(np.float32).astype(np.float64))


def test_checkpoint_roundtrip_preserves_f32_forward(tmp_path):
    net = nets.make_network("mlp-3", (1, 4, 4), classes=2, seed=10)
    snap = nets.round_params_f32(net)
    path = tmp_path / "n.rsck"
    nets.save_checkpoint(net, path)
    loaded = nets.load_checkpoint(path)
    rng = np.random.default_rng(8)
    x = rng.uniform(0, 1, (4, 1, 4, 4))
    a, _ = nets.forward(snap, x)
    b, _ = nets.forward(loaded, x)
    assert np.array_equal(a, b)


def test_checkpoint_bad_files(tmp_path):
    net = nets.make_network("mlp-3", (1, 4, 4), classes=2, seed=11)
    path = tmp_path / "x.rsck"
    nets.save_checkpoint(net, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"ABCD"
    bad = tmp_path / "bad.rsck"
    bad.write_bytes(bytes(raw))
    with pytest.raises(BadMagicError):
        nets.load_checkpoint(bad)
    import struct

    raw = bytearray(path.read_bytes())
    raw[4:6] = struct.pack("<H", 9)
    bad.write_bytes(bytes(raw))
    with pytest.raises(VersionError):
        nets.load_checkpoint(bad)
    bad.write_bytes(path.read_bytes()[:40])
    with pytest.raises(TruncatedError):
        nets.load_checkpoint(bad)


def _with_trailer(raw: bytes, edit) -> bytes:
    """The checkpoint image with its JSON trailer edited and the footer kept valid."""
    (offset,) = struct.unpack("<Q", raw[-8:])
    (length,) = struct.unpack("<I", raw[offset : offset + 4])
    trailer = json.loads(raw[offset + 4 : offset + 4 + length])
    edit(trailer)
    tb = json.dumps(trailer).encode()
    return raw[:offset] + struct.pack("<I", len(tb)) + tb + struct.pack("<Q", offset)


def test_checkpoint_rejects_inconsistent_files(tmp_path):
    net = nets.make_network("mlp-3", (1, 4, 4), classes=4, seed=12)
    path = tmp_path / "ok.rsck"
    nets.save_checkpoint(net, path)
    raw = path.read_bytes()
    (offset,) = struct.unpack("<Q", raw[-8:])
    name_at = 4 + 2 + 4 + 2  # first tensor name, after header and name length
    assert raw[name_at : name_at + 3] == b"1.b"
    cases = {
        "appended bytes": raw + b"\x00",
        "footer points elsewhere": raw[:-8] + struct.pack("<Q", offset - 3),
        "spec disagrees with stored weight": _with_trailer(
            raw, lambda t: t["layers"][-1].update(out=5)
        ),
        "tensor name not utf-8": raw[:name_at] + b"\xff" + raw[name_at + 1 :],
        "trailer without layers": _with_trailer(raw, lambda t: t.pop("layers")),
    }
    bad = tmp_path / "bad.rsck"
    for image in cases.values():
        bad.write_bytes(image)
        with pytest.raises(ManifestError):
            nets.load_checkpoint(bad)


def test_checkpoint_roundtrip_many_random(tmp_path):
    rng = np.random.default_rng(9)
    for i in range(20):
        width = int(rng.integers(1, 3))
        net = nets.make_network("mlp-3", (1, 4, 4), classes=2, width_factor=width, seed=i)
        path = tmp_path / f"r{i}.rsck"
        nets.save_checkpoint(net, path, epoch=i)
        loaded = nets.load_checkpoint(path)
        for pa, pb in zip(net.params, loaded.params):
            for k in pa:
                assert np.array_equal(pb[k], pa[k].astype(np.float32).astype(np.float64))


# ---------------------------------------------------------------------------
# graph validation


def test_residual_shape_mismatch_rejected():
    with pytest.raises(ShapeError):
        nets.NetworkGraph(
            [nets.Conv2d(1, 2, 3, 1, 1), nets.AvgPool(2), nets.ResidualAdd(0)],
            (1, 4, 4),
        )
    with pytest.raises(ShapeError):
        nets.NetworkGraph([nets.ResidualAdd(0)], (1, 4, 4))


def test_conv_geometry_rejected():
    with pytest.raises(ShapeError):
        nets.NetworkGraph([nets.Conv2d(1, 2, 3, 2, 0)], (1, 4, 4))
    with pytest.raises(ShapeError):
        nets.NetworkGraph([nets.AvgPool(3)], (1, 4, 4))
