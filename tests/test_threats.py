import numpy as np
import pytest

import oracles
from rslab import nets, threats, training
from rslab.errors import KindError, ValidationError


@pytest.fixture(scope="module")
def trained():
    """A small non-robust net plus validation data; trains in a second."""
    spec = training.DatasetSpec(classes=4, size=16, n_train=600, n_val=200)
    data = training.make_synthetic_dataset(spec, seed=0)
    net = nets.make_network("mlp-3", input_shape=(1, 16, 16), classes=4, seed=0)
    cfg = training.TrainingConfig(method="standard", epochs=10, probe_size=32)
    net, _ = training.train(net, data, cfg)
    return net, data


def per_point_loss(net, x, labels):
    logits, _ = nets.forward(net, x)
    logp = nets.log_softmax(logits)
    return -logp[np.arange(len(labels)), labels]


ALL_KINDS = [("linf", 0.1), ("l2", 1.0), ("jpeg", 0.1), ("gabor", 0.3), ("snow", 0.6)]


# ---------------------------------------------------------------------------
# epsilon zero is the identity


@pytest.mark.parametrize("kind,eps", ALL_KINDS, ids=[k for k, _ in ALL_KINDS])
def test_eps_zero_identity(trained, kind, eps):
    net, data = trained
    sub = nets.Batch(data.val.inputs[:16], data.val.labels[:16])
    adv = threats.generate(net, sub, threats.ThreatModel(kind, 0.0, steps=5), seed=3)
    assert np.array_equal(adv.perturbed, adv.originals)
    assert adv.aux is None
    assert not adv.success_mask.any()


# ---------------------------------------------------------------------------
# constraint satisfaction via independent oracles


def test_linf_constraint(trained):
    net, data = trained
    sub = nets.Batch(data.val.inputs[:32], data.val.labels[:32])
    threat = threats.ThreatModel("linf", 0.1, steps=10)
    adv = threats.generate(net, sub, threat, seed=0)
    d = adv.perturbed - adv.originals
    assert np.abs(d).max() <= 0.1 + 1e-6
    assert adv.perturbed.min() >= 0.0 and adv.perturbed.max() <= 1.0


def test_l2_constraint(trained):
    net, data = trained
    sub = nets.Batch(data.val.inputs[:32], data.val.labels[:32])
    threat = threats.ThreatModel("l2", 1.0, steps=10)
    adv = threats.generate(net, sub, threat, seed=0)
    d = adv.perturbed - adv.originals
    norms = np.array([np.sqrt(float((d[i] ** 2).sum())) for i in range(d.shape[0])])
    assert norms.max() <= 1.0 + 1e-6


def coefficient_delta(adv):
    """Block-DCT coefficient difference between perturbed and original images."""
    def padded(x):
        return np.pad(x, ((0, 0), (0, 0), (0, -x.shape[2] % 8), (0, -x.shape[3] % 8)))

    return threats.block_dct(padded(adv.perturbed)) - threats.block_dct(padded(adv.originals))


def test_jpeg_coefficient_constraint(trained):
    net, data = trained
    # keep pixels interior so the [0,1] clip stays inactive and the
    # coefficient bound is observable in the transform domain
    x = 0.25 + 0.5 * data.val.inputs[:32]
    sub = nets.Batch(x, data.val.labels[:32])
    threat = threats.ThreatModel("jpeg", 0.05, steps=10)
    adv = threats.generate(net, sub, threat, seed=0)
    assert np.abs(adv.aux["coeff_delta"]).max() <= 0.05 + 1e-12
    unclipped = ~(
        np.isclose(adv.perturbed, 0.0).any(axis=(1, 2, 3))
        | np.isclose(adv.perturbed, 1.0).any(axis=(1, 2, 3))
    )
    assert unclipped.any()
    measured = coefficient_delta(adv)
    assert np.abs(measured[unclipped]).max() <= 0.05 + 1e-9


def test_jpeg_dct_roundtrip_orthonormal():
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, (3, 2, 16, 16))
    back = threats.block_dct(threats.block_dct(x), inverse=True)
    assert np.abs(back - x).max() <= 1e-9
    d = threats.dct_matrix(8)
    assert np.abs(d @ d.T - np.eye(8)).max() <= 1e-12


def test_gabor_amplitude_bound_and_loss_increase(trained):
    net, data = trained
    sub = nets.Batch(data.val.inputs[:32], data.val.labels[:32])
    threat = threats.ThreatModel("gabor", 0.2, steps=10)
    adv = threats.generate(net, sub, threat, seed=0)
    assert np.abs(adv.aux["amplitudes"]).max() <= 0.2 + 1e-12
    # amplitudes live only on the seeded sparse support
    assert np.abs(adv.aux["amplitudes"][~adv.aux["masks"]]).max() == 0.0
    benign = per_point_loss(net, sub.inputs, sub.labels).mean()
    attacked = per_point_loss(net, adv.perturbed, sub.labels).mean()
    assert attacked > benign


def test_gabor_zero_gradient_identity(trained):
    # a net with all-zero weights has a zero input gradient, so every sign
    # step is 0: the amplitudes stay at their zero start, which must decode
    # to the originals bit for bit
    _, data = trained
    flat = nets.NetworkGraph([nets.Flatten(), nets.Dense(256, 4)], (1, 16, 16))
    flat.params = nets.init_params(flat, 0)
    flat.params[1]["w"][:] = 0.0
    sub = nets.Batch(data.val.inputs[:8], data.val.labels[:8])
    adv = threats.generate(flat, sub, threats.ThreatModel("gabor", 0.3, steps=3), seed=1)
    assert not adv.aux["amplitudes"].any() and adv.aux["masks"].any()
    assert np.array_equal(adv.perturbed, sub.inputs)


def test_snow_brightening_and_intensity_bound(trained):
    net, data = trained
    sub = nets.Batch(data.val.inputs[:32], data.val.labels[:32])
    threat = threats.ThreatModel("snow", 0.5, steps=10)
    adv = threats.generate(net, sub, threat, seed=0)
    assert (adv.perturbed >= adv.originals - 1e-9).all()
    t = adv.aux["intensities"]
    assert t.min() >= 0.0 and t.max() <= 0.5 + 1e-12
    # perturbation support is inside the union of streak masks
    d = adv.perturbed - adv.originals
    support = adv.aux["masks"].sum(axis=1) > 0
    assert np.abs(d[:, 0][~support]).max() == 0.0


def test_snow_single_streak_support():
    masks = threats.snow_masks(1, 16, 16, seed=5, streaks=1)
    x = np.full((1, 1, 16, 16), 0.2)
    eps = 0.4
    perturbed = np.clip(x + eps * masks[0, 0][None, None], 0.0, 1.0)
    changed = perturbed != x
    assert np.array_equal(changed[0, 0], masks[0, 0] > 0)


@pytest.mark.parametrize("n,h,w,streaks,seed", [
    (1, 16, 16, 12, 0), (5, 16, 16, 1, 3), (128, 16, 16, 12, 7), (3, 8, 24, 5, 11),
])
def test_snow_masks_match_per_streak_oracle(n, h, w, streaks, seed):
    got = threats.snow_masks(n, h, w, seed, streaks)
    assert got.tobytes() == oracles.snow_masks_per_streak(n, h, w, seed, streaks).tobytes()


# ---------------------------------------------------------------------------
# analytic one-step and loss ascent


def test_linf_one_step_analytic_sign_pattern():
    # For a 2-class linear net the input gradient of a point with label y is
    # p_(1-y) (w_(1-y) - w_y) / n: its sign is the same everywhere. A step of
    # 3 eps from anywhere in the ball therefore lands on the face that sign
    # picks, so one step from the random start equals one step from x.
    net = nets.NetworkGraph([nets.Flatten(), nets.Dense(16, 2)], (1, 4, 4))
    net.params = nets.init_params(net, 2)
    rng = np.random.default_rng(3)
    x = rng.uniform(0.3, 0.7, (5, 1, 4, 4))
    labels = rng.integers(0, 2, 5)
    batch = nets.Batch(x, labels)
    eps = 0.05
    threat = threats.ThreatModel("linf", eps, steps=1, step_size=3 * eps)
    adv = threats.generate(net, batch, threat, seed=0)
    w = net.params[1]["w"]
    probs = nets.softmax(x.reshape(5, 16) @ w + net.params[1]["b"])
    g = ((probs - np.eye(2)[labels]) @ w.T).reshape(x.shape)
    expected = np.clip(x + eps * np.sign(g), 0.0, 1.0)
    assert np.abs(adv.perturbed - expected).max() <= 1e-12


def test_pgd_loss_ascent_fraction(trained):
    # constant-step sign PGD oscillates once the loss plateaus, so the trace
    # oracle checks ascent against the starting loss, not consecutive steps
    net, data = trained
    sub = nets.Batch(data.val.inputs[:64], data.val.labels[:64])
    base = per_point_loss(net, sub.inputs, sub.labels)
    # same seed replays the same trajectory, so per-step prefixes expose the trace
    traces = [base]
    for k in range(1, 21):
        adv = threats.generate(net, sub, threats.ThreatModel("linf", 0.1, steps=k), seed=11)
        traces.append(per_point_loss(net, adv.perturbed, sub.labels))
    traces = np.stack(traces)
    never_below_start = (traces[1:] >= traces[0][None] - 1e-9).all(axis=0)
    assert never_below_start.mean() >= 0.95
    assert (traces[-1] > traces[0]).mean() >= 0.95


def test_robust_below_benign_for_nonrobust_net(trained):
    net, data = trained
    threat = threats.ThreatModel("linf", 0.1, steps=20)
    benign, robust = threats.evaluate_accuracy(net, data.val, threat, seed=0)
    assert robust < benign


# ---------------------------------------------------------------------------
# determinism and budget monotonicity


@pytest.mark.parametrize("kind,eps", ALL_KINDS, ids=[k for k, _ in ALL_KINDS])
def test_attack_determinism(trained, kind, eps):
    net, data = trained
    sub = nets.Batch(data.val.inputs[:16], data.val.labels[:16])
    threat = threats.ThreatModel(kind, eps, steps=5)
    a = threats.generate(net, sub, threat, seed=7)
    b = threats.generate(net, sub, threat, seed=7)
    assert np.array_equal(a.perturbed, b.perturbed)
    assert np.array_equal(a.success_mask, b.success_mask)


def test_monotone_budget_effect(trained):
    net, data = trained
    sub = nets.Batch(data.val.inputs[:128], data.val.labels[:128])
    accs = []
    for eps in (0.025, 0.05, 0.1):
        threat = threats.ThreatModel("linf", eps, steps=10)
        _, robust = threats.evaluate_accuracy(net, sub, threat, seed=0)
        accs.append(robust)
    assert accs[0] >= accs[1] - 0.02
    assert accs[1] >= accs[2] - 0.02


# ---------------------------------------------------------------------------
# predictions are read lazily from the parameters of attack time


def own_copy(net):
    return nets.NetworkGraph(
        net.layers, net.input_shape,
        params=[{k: v.copy() for k, v in p.items()} for p in net.params],
    )


@pytest.mark.parametrize("kind,eps", ALL_KINDS, ids=[k for k, _ in ALL_KINDS])
def test_predictions_survive_in_place_parameter_updates(trained, kind, eps):
    net = own_copy(trained[0])
    data = trained[1]
    sub = nets.Batch(data.val.inputs[:24], data.val.labels[:24])
    adv = threats.generate(net, sub, threats.ThreatModel(kind, eps, steps=3), seed=2)
    clean = nets.predict(net, sub.inputs)
    attacked = nets.predict(net, adv.perturbed)
    # negated logits: an in-place update that moves every prediction
    net.params[-1]["w"] *= -1.0
    net.params[-1]["b"] *= -1.0
    assert (nets.predict(net, sub.inputs) != clean).all()
    assert np.array_equal(adv.clean_predictions, clean)
    assert np.array_equal(adv.predictions, attacked)
    assert np.array_equal(adv.success_mask, clean != attacked)


def test_predictions_are_computed_once_on_first_read(trained, monkeypatch):
    net, data = trained
    calls = []
    monkeypatch.setattr(threats, "predict", lambda n, x: calls.append(len(x)) or nets.predict(n, x))
    sub = nets.Batch(data.val.inputs[:16], data.val.labels[:16])
    adv = threats.generate(net, sub, threats.ThreatModel("linf", 0.1, steps=2), seed=0)
    assert calls == []
    adv.success_mask
    adv.success_mask
    adv.clean_predictions
    assert calls == [16, 16]


# ---------------------------------------------------------------------------
# evaluate_accuracy contracts


def test_perfect_constant_net_benign_accuracy():
    net = nets.NetworkGraph([nets.Flatten(), nets.Dense(4, 2)], (1, 2, 2))
    net.params = nets.init_params(net, 0)
    net.params[1]["w"] = np.zeros((4, 2))
    net.params[1]["b"] = np.array([0.0, 5.0])
    data = nets.Batch(np.random.default_rng(4).uniform(0, 1, (10, 1, 2, 2)),
                      np.ones(10, dtype=int))
    benign, robust = threats.evaluate_accuracy(net, data)
    assert benign == 1.0 and robust is None


def test_evaluate_accuracy_matches_recomputed_predictions(trained):
    # 300 points: two whole 128-point chunks and a ragged one
    net, _ = trained
    spec = training.DatasetSpec(classes=4, size=16, n_train=4, n_val=300)
    sub = training.make_synthetic_dataset(spec, seed=1).val
    threat = threats.ThreatModel("linf", 0.1, steps=3)
    benign, robust = threats.evaluate_accuracy(net, sub, threat, seed=5)
    assert benign == float((nets.predict(net, sub.inputs) == sub.labels).mean())
    correct = 0
    for s in range(0, 300, 128):
        chunk = nets.Batch(sub.inputs[s : s + 128], sub.labels[s : s + 128])
        adv = threats.generate(net, chunk, threat, seed=5 + s)
        correct += int((nets.predict(net, adv.perturbed) == chunk.labels).sum())
    assert robust == correct / 300


def test_eps_zero_robust_equals_benign(trained):
    net, data = trained
    sub = nets.Batch(data.val.inputs[:64], data.val.labels[:64])
    threat = threats.ThreatModel("linf", 0.0, steps=5)
    benign, robust = threats.evaluate_accuracy(net, sub, threat, seed=0)
    assert robust == benign


# ---------------------------------------------------------------------------
# kind table and validation


def test_threat_validation():
    with pytest.raises(KindError):
        threats.ThreatModel("sleet", 0.1)
    with pytest.raises(ValidationError):
        threats.ThreatModel("linf", -0.1)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            threats.ThreatModel("linf", bad)
        with pytest.raises(ValidationError):
            threats.ThreatModel("linf", 0.1, step_size=bad)
    with pytest.raises(ValidationError):
        threats.ThreatModel("linf", 0.1, steps=0)
    with pytest.raises(ValidationError):
        threats.ThreatModel("linf", 0.1, step_size=-1.0)
    t = threats.ThreatModel("linf", 0.1, steps=10)
    assert t.alpha == pytest.approx(0.025)
