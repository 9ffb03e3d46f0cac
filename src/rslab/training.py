"""Training loops (standard, adversarial, TRADES) and the synthetic dataset.

A run owns its parameters exclusively and is deterministic for a fixed
config seed: batch order, attack seeds, and probe selection all derive from
it. Run directories follow the layout

    config.json
    trace.csv                      epoch, losses, accuracies
    checkpoints/epoch_NNN.rsck
    probes/epoch_NNN_{benign,adv}.rsam

A dataset is an RSDS v1 `container` file, trailer `{"seed", "spec"}`, whose
body is, per split ("train", then "val"), little-endian:

    name | u64[4] shape (n, c, h, w) | f32[n*c*h*w] inputs | i32[n] labels
"""
from __future__ import annotations

import csv
import os
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from . import container, errors, nets
from .activations import record_activations, write_dump
from .errors import (
    ConfigError,
    FormatError,
    NumericalError,
    RslabError,
    ShapeError,
    ValidationError,
)
from .nets import Batch, NetworkGraph
from .threats import ThreatModel, _perturb, generate

METHODS = ("standard", "advpgd", "trades")
TRADES_KINDS = ("linf", "l2")
DATASET_MAGIC = b"RSDS"
DATASET_VERSION = 1


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters of one run.

    `threat` is the training-time constraint of advpgd and trades runs;
    `eval_threat` is what robust metrics and adversarial probes are computed
    against and defaults to the training threat. A standard run takes no
    `threat`: it sets only `eval_threat`, so that its robustness and probe
    divergence can still be measured.
    """

    method: str = "standard"
    threat: ThreatModel | None = None
    beta: float = 6.0
    epochs: int = 40
    batch_size: int = 64
    learning_rate: float = 0.02
    momentum: float = 0.9
    lr_decay: bool = False
    seed: int = 0
    checkpoint_every: int = 0  # 0: final checkpoint only
    probe_size: int = 512
    val_adv_subset: int = 256
    eval_threat: ThreatModel | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.method in ("advpgd", "trades") and self.threat is None:
            raise ConfigError(f"{self.method} requires a threat")
        if self.method == "standard" and self.threat is not None:
            raise ConfigError("standard training takes no threat; set eval_threat instead")
        if self.method == "trades" and self.beta <= 0:
            raise ConfigError("trades requires beta > 0")
        if self.method == "trades" and self.threat.kind not in TRADES_KINDS:
            # the other kinds start at the originals, where the KL gradient is 0
            raise ConfigError(
                f"trades supports threat kinds {TRADES_KINDS}, got {self.threat.kind!r}"
            )
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if not 0 <= self.momentum < 1:
            raise ConfigError("momentum must be in [0, 1)")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        for name in ("batch_size", "probe_size", "val_adv_subset"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("checkpoint_every", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")

    def effective_eval_threat(self) -> ThreatModel | None:
        if self.eval_threat is not None:
            return self.eval_threat
        if self.threat is not None:
            # evaluation convention: double the attack steps used in training
            return replace(self.threat, steps=2 * self.threat.steps)
        return None


@dataclass
class EpochEntry:
    epoch: int
    train_loss: float
    val_loss: float
    val_loss_adv: float | None
    benign_acc: float
    robust_acc: float | None
    checkpoint_path: str | None = None
    probe_benign_path: str | None = None
    probe_adv_path: str | None = None


@dataclass
class EpochTrace:
    """Per-epoch losses, accuracies, and artifact paths of one run."""

    entries: list = field(default_factory=list)

    def save_csv(self, path) -> None:
        # relative paths keep a run's bytes independent of where it was
        # written; cells are formatted here, so they keep their own precision
        run_dir = os.path.dirname(str(path)) or "."

        def rel(p):
            return os.path.relpath(p, run_dir) if p else ""

        errors.write_csv(path, [
            "epoch", "train_loss", "val_loss", "val_loss_adv",
            "benign_acc", "robust_acc", "checkpoint", "probe_benign", "probe_adv",
        ], [[
            e.epoch, f"{e.train_loss:.8g}", f"{e.val_loss:.8g}",
            "" if e.val_loss_adv is None else f"{e.val_loss_adv:.8g}",
            f"{e.benign_acc:.6g}",
            "" if e.robust_acc is None else f"{e.robust_acc:.6g}",
            rel(e.checkpoint_path), rel(e.probe_benign_path), rel(e.probe_adv_path),
        ] for e in self.entries])

    @classmethod
    def load_csv(cls, path) -> "EpochTrace":
        """Read a trace written by `save_csv`; malformed content raises FormatError."""
        run_dir = os.path.dirname(str(path)) or "."

        def resolve(p):  # an absolute p is kept as it is
            return os.path.join(run_dir, p) if p else None

        def optional(v):
            return float(v) if v else None

        trace = cls()
        with open(path, newline="") as fh:
            try:
                for row in csv.DictReader(fh):
                    trace.entries.append(EpochEntry(
                        epoch=int(row["epoch"]),
                        train_loss=float(row["train_loss"]),
                        val_loss=float(row["val_loss"]),
                        val_loss_adv=optional(row["val_loss_adv"]),
                        benign_acc=float(row["benign_acc"]),
                        robust_acc=optional(row["robust_acc"]),
                        checkpoint_path=resolve(row["checkpoint"]),
                        probe_benign_path=resolve(row["probe_benign"]),
                        probe_adv_path=resolve(row["probe_adv"]),
                    ))
            except (KeyError, TypeError, ValueError, csv.Error) as exc:
                raise FormatError(f"{path}: not a valid trace: {exc!r}") from exc
        if not trace.entries:
            raise FormatError(f"{path}: trace has no epochs")
        return trace


# ---------------------------------------------------------------------------
# synthetic dataset


@dataclass(frozen=True)
class DatasetSpec:
    """Class-conditional blobs plus class-specific frequency textures.

    Each class has a fixed spatial bump pattern (robust, high-amplitude
    feature) and an oriented sinusoidal grating (fragile, low-amplitude
    feature), so multi-layer features are useful but a small pixel budget
    can erase the texture channel.
    """

    classes: int = 4
    size: int = 16
    channels: int = 1
    n_train: int = 2000
    n_val: int = 500
    background: float = 0.35
    blob_amplitude: float = 0.45
    blob_sigma: float = 2.4
    jitter: int = 2
    texture_amplitude: float = 0.12
    texture_cycles: float = 4.0
    noise_std: float = 0.06

    def __post_init__(self):
        if self.classes < 2 or self.size < 4 or self.n_train < self.classes or self.n_val < 1:
            raise ConfigError("degenerate dataset spec")
        if self.channels < 1 or self.jitter < 0:
            raise ConfigError("dataset needs channels >= 1 and jitter >= 0")
        if not 0 < self.blob_sigma <= self.size:
            raise ConfigError("blob_sigma must be in (0, size]")


@dataclass
class Dataset:
    """The train and val splits of `spec`: each split's inputs are
    (n_train or n_val, channels, size, size) and its labels lie in
    [0, classes)."""

    train: Batch
    val: Batch
    spec: DatasetSpec
    seed: int

    def __post_init__(self):
        s = self.spec
        for name, split, n in (("train", self.train, s.n_train), ("val", self.val, s.n_val)):
            shape = (n, s.channels, s.size, s.size)
            if split.inputs.shape != shape:
                raise ShapeError(f"{name} inputs are {split.inputs.shape}, the spec's {shape}")
            if split.labels.min() < 0 or split.labels.max() >= s.classes:
                raise ValidationError(f"{name} labels must lie in [0, {s.classes})")


def _class_centers(classes: int, size: int) -> np.ndarray:
    lo, hi = size * 0.3, size * 0.7
    grid = [(lo, lo), (hi, hi), (lo, hi), (hi, lo), (size / 2, size / 2),
            (lo, size / 2), (hi, size / 2), (size / 2, lo)]
    return np.array([grid[c % len(grid)] for c in range(classes)])


def _render(spec: DatasetSpec, labels: np.ndarray, rng) -> np.ndarray:
    n = len(labels)
    size = spec.size
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    angles = np.pi * np.arange(spec.classes) / spec.classes
    # one scalar call per class: numpy's array cos and sin may round differently
    cos = np.array([np.cos(th) for th in angles])[labels, None, None]
    sin = np.array([np.sin(th) for th in angles])[labels, None, None]
    jit = rng.integers(-spec.jitter, spec.jitter + 1, size=(n, 2)) if spec.jitter else np.zeros((n, 2))
    phase = rng.uniform(0, 2 * np.pi, size=n)[:, None, None]
    cy, cx = (_class_centers(spec.classes, size)[labels] + jit).T[:, :, None, None]
    bump = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * spec.blob_sigma**2))
    wave = np.sin(
        2 * np.pi * spec.texture_cycles * (xx * cos + yy * sin) / size + phase
    )
    imgs = spec.background + (spec.blob_amplitude * bump + spec.texture_amplitude * wave)
    if spec.noise_std > 0:
        imgs += rng.normal(0.0, spec.noise_std, imgs.shape)
    imgs = np.clip(imgs, 0.0, 1.0)
    return np.repeat(imgs[:, None, :, :], spec.channels, axis=1)


def _balanced_labels(n: int, classes: int, rng) -> np.ndarray:
    labels = np.arange(n) % classes
    rng.shuffle(labels)
    return labels


def make_synthetic_dataset(spec: DatasetSpec, seed: int) -> Dataset:
    """Deterministic labeled image dataset in [0,1] with balanced classes."""
    rng = np.random.default_rng(seed)
    train_labels = _balanced_labels(spec.n_train, spec.classes, rng)
    val_labels = _balanced_labels(spec.n_val, spec.classes, rng)
    train_x = _render(spec, train_labels, rng)
    val_x = _render(spec, val_labels, rng)
    return Dataset(Batch(train_x, train_labels), Batch(val_x, val_labels), spec, seed)


def save_dataset(data: Dataset, path) -> None:
    """Write `data` to an RSDS file at exactly `path`, inputs as float32."""
    body = []
    for name, split in (("train", data.train), ("val", data.val)):
        body.append(container.pack_name(name))
        body.append(struct.pack("<4Q", *split.inputs.shape))
        body.append(np.ascontiguousarray(split.inputs, dtype="<f4"))
        body.append(np.ascontiguousarray(split.labels, dtype="<i4"))
    trailer = {"spec": errors.to_json(data.spec), "seed": data.seed}
    container.write(path, DATASET_MAGIC, DATASET_VERSION, 2, body, trailer)


def load_dataset(path) -> Dataset:
    """Read an RSDS file written by `save_dataset`; inputs widen to float64.

    A missing or unreadable file raises OSError; any malformed content
    raises FormatError.
    """
    rd = container.Reader(path, DATASET_MAGIC, DATASET_VERSION)
    splits = {}
    for _ in range(rd.count):
        name, shape = rd.name(), rd.unpack("<4Q")
        splits[name] = (rd.array("<f4", shape), rd.array("<i4", shape[:1]))
    trailer = rd.trailer()
    try:
        spec = errors.from_json(DatasetSpec, trailer["spec"], "dataset")
        return Dataset(Batch(*splits["train"]), Batch(*splits["val"]), spec, int(trailer["seed"]))
    except (KeyError, TypeError, ValueError, RslabError) as exc:
        raise FormatError(f"{path}: not a valid dataset: {exc!r}") from exc


# ---------------------------------------------------------------------------
# loss/gradient variants


def _sgd_step(params, grads, velocity, lr, momentum):
    for p, g, v in zip(params, grads, velocity):
        for key in p:
            v[key] = momentum * v[key] - lr * g[key]
            p[key] += v[key]


def _kl_pgd(net, x0: np.ndarray, p0: np.ndarray, threat: ThreatModel, seed: int) -> np.ndarray:
    """Inner maximization of KL(p0 || p(x')) within the threat's budget around x0.

    p0 holds the clean softmax probabilities of x0.
    """
    def dlogits_of(logits, rows):
        return (nets.softmax(logits) - p0[rows]) / len(x0)

    return _perturb(lambda x: nets.input_grad(net, x, dlogits_of), x0, threat, seed)[0]


def trades_loss_and_grad(net, batch: Batch, threat: ThreatModel, beta: float, seed: int):
    """CE(f(x), y) + beta * KL(p(x) || p(x_adv)) and its parameter gradients."""
    n = batch.n
    logits_b, state_b = nets.forward_cache(net, batch.inputs)
    x_adv = _kl_pgd(net, batch.inputs, nets.softmax(logits_b), threat, seed)
    logits_a, state_a = nets.forward_cache(net, x_adv)
    ce, dlogits_b = nets.cross_entropy(logits_b, batch.labels)
    logp = nets.log_softmax(logits_b)
    logq = nets.log_softmax(logits_a)
    p = np.exp(logp)
    q = np.exp(logq)
    kl_terms = (p * (logp - logq)).sum(axis=1)
    kl = float(kl_terms.mean())
    # d/dz of KL(p(z) || q): p_k [(logp - logq)_k - KL_row]; d/dz' is q - p
    dz_b = p * ((logp - logq) - kl_terms[:, None]) * (beta / n)
    dz_a = (q - p) * (beta / n)
    grads_b = nets.backward(net, state_b, dlogits_b + dz_b)
    grads_a = nets.backward(net, state_a, dz_a)
    total = [
        {k: gb.get(k, 0.0) + ga.get(k, 0.0) for k in gb} if gb else {}
        for gb, ga in zip(grads_b, grads_a)
    ]
    return ce + beta * kl, total


def _batch_seed(seed: int, epoch: int, index: int) -> int:
    return (seed * 1_000_003 + epoch * 10_007 + index) % (2**31)


# ---------------------------------------------------------------------------
# probes and checkpoints


def checkpoint_probe(
    net: NetworkGraph,
    probe: Batch,
    epoch: int | str,
    threat: ThreatModel | None,
    out_dir: str,
    model_id: str = "",
    seed: int = 0,
):
    """Record benign (and, given a threat, adversarial) probe dumps.

    Activations are taken from the float32-rounded parameters so re-recording
    from the saved checkpoint reproduces the dumps bit-exactly.
    """
    os.makedirs(out_dir, exist_ok=True)
    snap = nets.round_params_f32(net)
    tag = f"{epoch:03d}" if isinstance(epoch, int) else str(epoch)
    benign = record_activations(snap, probe, model_id=model_id, epoch=epoch, seed=seed)
    benign_path = os.path.join(out_dir, f"epoch_{tag}_benign.rsam")
    write_dump(benign, benign_path)
    del benign  # not held through the adversarial attack and record
    adv_path = None
    if threat is not None:
        attack = generate(snap, probe, threat, seed=seed)
        adv = record_activations(
            snap, probe, attack, model_id=model_id, epoch=epoch, seed=seed
        )
        adv_path = os.path.join(out_dir, f"epoch_{tag}_adv.rsam")
        write_dump(adv, adv_path)
    return benign_path, adv_path


def _loss_and_accuracy(net, batch: Batch) -> tuple:
    """Mean cross-entropy and accuracy, both from one forward pass."""
    logits, _ = nets.forward(net, batch.inputs)
    loss, _ = nets.cross_entropy(logits, batch.labels)
    return loss, int((logits.argmax(axis=1) == batch.labels).sum()) / batch.n


def train(
    net: NetworkGraph,
    data: Dataset,
    config: TrainingConfig,
    out_dir: str | None = None,
    model_id: str = "",
):
    """Momentum-SGD training; returns (net, EpochTrace).

    advpgd replaces each batch with its PGD perturbation before the gradient
    step; trades adds the beta-weighted benign/adversarial divergence term.
    Deterministic given the config seed. Aborts with NumericalError if the
    loss stops being finite.
    """
    if net.params is None:
        net.params = nets.init_params(net, config.seed)
    rng = np.random.default_rng(config.seed)
    probe_rng = np.random.default_rng(config.seed + 7_777)
    probe_idx = probe_rng.permutation(data.val.n)[: min(config.probe_size, data.val.n)]
    probe = Batch(data.val.inputs[probe_idx], data.val.labels[probe_idx])
    eval_threat = config.effective_eval_threat()
    adv_sub = min(config.val_adv_subset, data.val.n)
    val_sub = Batch(data.val.inputs[:adv_sub], data.val.labels[:adv_sub])
    velocity = [
        {k: np.zeros_like(v) for k, v in p.items()} for p in net.params
    ]
    trace = EpochTrace()
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        os.makedirs(os.path.join(out_dir, "checkpoints"), exist_ok=True)
        errors.write_json(
            os.path.join(out_dir, "config.json"),
            {"schema_version": 1, "model_id": model_id, "training": errors.to_json(config)},
        )
    n_train = data.train.n
    lr = config.learning_rate
    for epoch in range(1, config.epochs + 1):
        if config.lr_decay:
            frac = epoch / config.epochs
            lr = config.learning_rate * (0.01 if frac > 0.75 else 0.1 if frac > 0.5 else 1.0)
        order = rng.permutation(n_train)
        losses = []
        for bi, s in enumerate(range(0, n_train, config.batch_size)):
            idx = order[s : s + config.batch_size]
            batch = Batch(data.train.inputs[idx], data.train.labels[idx])
            if config.method == "advpgd":
                adv = generate(
                    net, batch, config.threat,
                    seed=_batch_seed(config.seed, epoch, bi),
                )
                loss, grads = nets.loss_and_grad(net, Batch(adv.perturbed, batch.labels))
            elif config.method == "trades":
                loss, grads = trades_loss_and_grad(
                    net, batch, config.threat, config.beta,
                    seed=_batch_seed(config.seed, epoch, bi),
                )
            else:
                loss, grads = nets.loss_and_grad(net, batch)
            if not np.isfinite(loss):
                raise NumericalError(
                    f"loss diverged at epoch {epoch}, batch {bi}: {loss}"
                )
            losses.append(loss)
            _sgd_step(net.params, grads, velocity, lr, config.momentum)
        val_loss, benign_acc = _loss_and_accuracy(net, data.val)
        val_loss_adv = None
        robust_acc = None
        if eval_threat is not None:
            adv = generate(net, val_sub, eval_threat, seed=_batch_seed(config.seed, epoch, -1))
            val_loss_adv, robust_acc = _loss_and_accuracy(
                net, Batch(adv.perturbed, val_sub.labels)
            )
        entry = EpochEntry(
            epoch, float(np.mean(losses)), val_loss, val_loss_adv, benign_acc, robust_acc
        )
        due = config.checkpoint_every > 0 and epoch % config.checkpoint_every == 0
        if out_dir and (due or epoch == config.epochs):
            ck = os.path.join(out_dir, "checkpoints", f"epoch_{epoch:03d}.rsck")
            nets.save_checkpoint(net, ck, epoch=epoch)
            entry.checkpoint_path = ck
            bp, ap = checkpoint_probe(
                net, probe, epoch, eval_threat,
                os.path.join(out_dir, "probes"), model_id=model_id,
                seed=config.seed,
            )
            entry.probe_benign_path = bp
            entry.probe_adv_path = ap
        trace.entries.append(entry)
        if out_dir:
            trace.save_csv(os.path.join(out_dir, "trace.csv"))
    return net, trace


def load_run(run_dir: str):
    """(config dict, EpochTrace) for a completed run directory.

    A missing file raises OSError; malformed content raises FormatError.
    """
    config = errors.read_json(os.path.join(run_dir, "config.json"), FormatError)
    return config, EpochTrace.load_csv(os.path.join(run_dir, "trace.csv"))
