"""Adversarial example generation under five constraint families.

Every attack is loss ascent under a budget: pixel-space PGD for the two
norm balls, PGD on 8x8 orthonormal block-DCT coefficients for "jpeg",
projected ascent on a sparse amplitude field convolved with a fixed Gabor
bank for "gabor", and nonnegative intensity ascent over seeded diagonal
streak masks for "snow". Attacks are deterministic given (net params,
batch, seed) and attack each point independently.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activations import THREAT_KINDS
from .errors import KindError, ShapeError, ValidationError, check_json_fields
from .nets import Batch, NetworkGraph, forward, loss_and_grad, predict


@dataclass(frozen=True)
class ThreatModel:
    """Attack family with budget epsilon, step count, and optional step size.

    Epsilon units: pixel scale for linf/l2, coefficient scale for jpeg,
    amplitude scale for gabor/snow. When step_size is None the attacks use
    2.5 * epsilon / steps.
    """

    kind: str
    epsilon: float
    steps: int = 10
    step_size: float | None = None

    def __post_init__(self):
        if self.kind not in THREAT_KINDS:
            raise KindError(f"unknown threat kind {self.kind!r}")
        if self.epsilon < 0:
            raise ValidationError("epsilon must be >= 0")
        if self.steps < 1:
            raise ValidationError("steps must be >= 1")
        if self.step_size is not None and self.step_size <= 0:
            raise ValidationError("step_size must be positive")

    @property
    def alpha(self) -> float:
        if self.step_size is not None:
            return self.step_size
        return 2.5 * self.epsilon / self.steps

    def to_json(self) -> dict:
        d = {"kind": self.kind, "epsilon": self.epsilon, "steps": self.steps}
        if self.step_size is not None:
            d["step_size"] = self.step_size
        return d

    @classmethod
    def from_json(cls, d: dict) -> "ThreatModel":
        return cls(**check_json_fields(d, _FIELD_TYPES, "threat", ("kind", "epsilon")))


# JSON fields of a threat object, for `check_json_fields`
_FIELD_TYPES = {
    "kind": (str, "a string"),
    "epsilon": ((int, float), "a number"),
    "steps": (int, "an integer"),
    "step_size": ((int, float), "a number"),
}


@dataclass
class AdversarialBatch:
    """Original and perturbed inputs plus which predictions flipped.

    `aux` exposes the attack's internal budgeted variables (coefficient
    deltas, amplitude fields, streak intensities) so independent oracles can
    verify the constraint on the variable that was actually projected.
    """

    originals: np.ndarray
    perturbed: np.ndarray
    labels: np.ndarray
    threat: ThreatModel
    success_mask: np.ndarray
    aux: dict = None

    def batch(self) -> Batch:
        return Batch(self.perturbed, self.labels)


def _input_grad(net, x, labels):
    _, _, dx = loss_and_grad(
        net, Batch(np.clip(x, 0.0, 1.0), labels),
        need_param_grads=False, need_input_grad=True,
    )
    return dx


def _finish(net, originals, perturbed, labels, threat, aux=None) -> AdversarialBatch:
    flipped = predict(net, perturbed) != predict(net, originals)
    return AdversarialBatch(originals, perturbed, labels, threat, flipped, aux)


def _l2_norms(d: np.ndarray) -> np.ndarray:
    return np.sqrt((d * d).sum(axis=(1, 2, 3), keepdims=True))


def pgd_attack(
    net, batch: Batch, threat: ThreatModel, seed: int = 0, random_start: bool = True
) -> AdversarialBatch:
    """Projected gradient ascent in an linf or l2 ball, random start inside."""
    if threat.kind not in ("linf", "l2"):
        raise KindError(f"pgd_attack supports linf/l2, got {threat.kind!r}")
    x0 = batch.inputs.copy()
    labels = batch.labels
    eps = threat.epsilon
    if eps == 0.0:
        return _finish(net, x0, x0.copy(), labels, threat)
    if random_start:
        rng = np.random.default_rng(seed)
        if threat.kind == "linf":
            delta = rng.uniform(-eps, eps, x0.shape)
        else:
            d = rng.normal(size=x0.shape)
            r = rng.uniform(size=(x0.shape[0], 1, 1, 1)) ** (1.0 / x0[0].size)
            delta = d * (eps * r / np.maximum(_l2_norms(d), 1e-12))
        x = np.clip(x0 + delta, 0.0, 1.0)
    else:
        x = x0.copy()
    alpha = threat.alpha
    for _ in range(threat.steps):
        g = _input_grad(net, x, labels)
        if threat.kind == "linf":
            x = x + alpha * np.sign(g)
            x = x0 + np.clip(x - x0, -eps, eps)
        else:
            x = x + alpha * g / np.maximum(_l2_norms(g), 1e-12)
            d = x - x0
            norms = _l2_norms(d)
            d = d * np.minimum(1.0, eps / np.maximum(norms, 1e-12))
            x = x0 + d
        x = np.clip(x, 0.0, 1.0)
    return _finish(net, x0, x, labels, threat)


# ---------------------------------------------------------------------------
# jpeg: PGD in orthonormal 8x8 block-DCT coefficient space


def dct_matrix(size: int = 8) -> np.ndarray:
    """Orthonormal DCT-II basis; rows are basis vectors."""
    j = np.arange(size)
    d = np.cos(np.pi * (2 * j[None, :] + 1) * j[:, None] / (2 * size))
    d *= np.sqrt(2.0 / size)
    d[0] /= np.sqrt(2.0)
    return d


def block_dct(x: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Blockwise 8x8 orthonormal DCT of (n, c, h, w); h, w divisible by 8."""
    n, c, h, w = x.shape
    if h % 8 or w % 8:
        raise ShapeError(f"image sides must be multiples of 8, got {h}x{w}")
    d = dct_matrix(8)
    if inverse:
        d = d.T
    b = x.reshape(n, c, h // 8, 8, w // 8, 8)
    out = np.einsum("ai,ncxiyj,bj->ncxayb", d, b, d, optimize=True)
    return out.reshape(n, c, h, w)


def _pad_to_8(x: np.ndarray):
    h, w = x.shape[2], x.shape[3]
    ph = (-h) % 8
    pw = (-w) % 8
    if ph or pw:
        return np.pad(x, ((0, 0), (0, 0), (0, ph), (0, pw))), (h, w)
    return x, (h, w)


def jpeg_attack(net, batch: Batch, threat: ThreatModel, seed: int = 0) -> AdversarialBatch:
    """linf-bounded PGD on block-DCT coefficients, decoded back to pixels."""
    if threat.kind != "jpeg":
        raise KindError(f"jpeg_attack got kind {threat.kind!r}")
    x0 = batch.inputs.copy()
    labels = batch.labels
    xp, (h, w) = _pad_to_8(x0)
    c0 = block_dct(xp)
    eps = threat.epsilon
    alpha = threat.alpha
    delta = np.zeros_like(c0)

    def decode(d):
        full = block_dct(c0 + d, inverse=True)[:, :, :h, :w]
        return np.clip(full, 0.0, 1.0)

    for _ in range(threat.steps if eps > 0 else 1):
        x = decode(delta)
        if eps == 0.0:
            break
        g = _input_grad(net, x, labels)
        gp, _ = _pad_to_8(g)
        gc = block_dct(gp)
        delta = np.clip(delta + alpha * np.sign(gc), -eps, eps)
    return _finish(net, x0, decode(delta), labels, threat,
                   aux={"coeff_delta": delta})


# ---------------------------------------------------------------------------
# gabor: sparse amplitude field convolved with a fixed kernel bank


def gabor_bank(orientations: int = 4, scales=(1.0, 2.0), size: int = 7) -> np.ndarray:
    """Fixed Gabor kernels (orientations x scales), each peak-normalized."""
    half = size // 2
    yy, xx = np.mgrid[-half : half + 1, -half : half + 1].astype(np.float64)
    kernels = []
    for s in scales:
        sigma = 1.2 * s
        lam = 2.5 * s
        for o in range(orientations):
            th = np.pi * o / orientations
            xr = xx * np.cos(th) + yy * np.sin(th)
            yr = -xx * np.sin(th) + yy * np.cos(th)
            g = np.exp(-(xr**2 + 0.64 * yr**2) / (2 * sigma**2)) * np.cos(
                2 * np.pi * xr / lam
            )
            kernels.append(g / np.abs(g).max())
    return np.stack(kernels)


def _conv_same(fields: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """'same' 2-d convolution of (n, h, w) fields with one kernel."""
    from .nets import _im2col

    k = kernel.shape[0]
    pad = k // 2
    x = fields[:, :, :, None]  # NHWC with one channel
    cols, oh, ow = _im2col(x, k, 1, pad)
    out = cols @ kernel[::-1, ::-1].reshape(-1)
    return out.reshape(fields.shape[0], oh, ow)


def gabor_attack(net, batch: Batch, threat: ThreatModel, seed: int = 0) -> AdversarialBatch:
    """Optimize sparse per-kernel amplitude fields under an linf budget."""
    if threat.kind != "gabor":
        raise KindError(f"gabor_attack got kind {threat.kind!r}")
    x0 = batch.inputs.copy()
    labels = batch.labels
    eps = threat.epsilon
    if eps == 0.0:
        return _finish(net, x0, x0.copy(), labels, threat)
    n, c, h, w = x0.shape
    bank = gabor_bank()
    rng = np.random.default_rng(seed)
    masks = rng.random((n, len(bank), h, w)) < 0.06
    amps = np.zeros((n, len(bank), h, w))
    amps, x = _gabor_ascend(net, x0, labels, bank, masks, amps, eps,
                            threat.alpha, threat.steps)
    return _finish(net, x0, x, labels, threat,
                   aux={"amplitudes": amps, "masks": masks})


def gabor_noise(bank: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """Sum of per-kernel 'same' convolutions; one shared field per channel."""
    noise = np.zeros(amps.shape[:1] + amps.shape[2:])
    for k in range(bank.shape[0]):
        noise += _conv_same(amps[:, k], bank[k])
    return noise[:, None, :, :]


def _gabor_ascend(net, x0, labels, bank, masks, amps, eps, alpha, steps):
    x = x0
    for _ in range(steps):
        x = np.clip(x0 + gabor_noise(bank, amps), 0.0, 1.0)
        g = _input_grad(net, x, labels)
        gsum = g.sum(axis=1)  # shared field across channels
        da = np.stack(
            [_conv_same(gsum, bank[k][::-1, ::-1]) for k in range(bank.shape[0])],
            axis=1,
        )
        amps = np.clip(amps + alpha * np.sign(da) * masks, -eps, eps) * masks
    x = np.clip(x0 + gabor_noise(bank, amps), 0.0, 1.0)
    return amps, x


# ---------------------------------------------------------------------------
# snow: nonnegative intensities over seeded diagonal streak masks


def snow_masks(
    n: int, h: int, w: int, seed: int, streaks: int = 12
) -> np.ndarray:
    """Per-image diagonal streak masks (n, streaks, h, w) with values in [0,1]."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    masks = np.zeros((n, streaks, h, w))
    for i in range(n):
        for s in range(streaks):
            cy = rng.uniform(0, h - 1)
            cx = rng.uniform(0, w - 1)
            length = rng.uniform(4.0, 8.0)
            # diagonal direction (1,1)/sqrt(2)
            ty = (yy - cy + xx - cx) / 2.0
            along = np.abs(ty) <= length / 2.0
            d_perp = np.abs((yy - cy) - (xx - cx)) / np.sqrt(2.0)
            m = np.exp(-(d_perp**2) / (2 * 0.7**2)) * along
            m[m < 0.01] = 0.0
            masks[i, s] = m
    return masks


def snow_attack(net, batch: Batch, threat: ThreatModel, seed: int = 0) -> AdversarialBatch:
    """Ascend nonnegative streak intensities bounded by epsilon (only brightens)."""
    if threat.kind != "snow":
        raise KindError(f"snow_attack got kind {threat.kind!r}")
    x0 = batch.inputs.copy()
    labels = batch.labels
    eps = threat.epsilon
    if eps == 0.0:
        return _finish(net, x0, x0.copy(), labels, threat)
    n, c, h, w = x0.shape
    masks = snow_masks(n, h, w, seed)
    intensities = np.zeros((n, masks.shape[1]))

    def compose(t):
        noise = np.einsum("ns,nshw->nhw", t, masks)[:, None, :, :]
        return np.clip(x0 + noise, 0.0, 1.0)

    alpha = threat.alpha
    for _ in range(threat.steps):
        x = compose(intensities)
        g = _input_grad(net, x, labels)
        dt = np.einsum("nhw,nshw->ns", g.sum(axis=1), masks)
        intensities = np.clip(intensities + alpha * np.sign(dt), 0.0, eps)
    return _finish(net, x0, compose(intensities), labels, threat,
                   aux={"intensities": intensities, "masks": masks})


# ---------------------------------------------------------------------------


_ATTACKS = {
    "linf": pgd_attack,
    "l2": pgd_attack,
    "jpeg": jpeg_attack,
    "gabor": gabor_attack,
    "snow": snow_attack,
}


def generate(net, batch: Batch, threat: ThreatModel, seed: int = 0) -> AdversarialBatch:
    """Dispatch to the attack implementing the threat's kind."""
    fn = _ATTACKS.get(threat.kind)
    if fn is None:
        raise KindError(f"unknown threat kind {threat.kind!r}")
    return fn(net, batch, threat, seed=seed)


def evaluate_accuracy(
    net: NetworkGraph,
    data: Batch,
    threat: ThreatModel | None = None,
    seed: int = 0,
    chunk: int = 128,
):
    """(benign accuracy, robust accuracy) over a labeled batch.

    Robust accuracy is None when no threat is given; it is reported as-is
    and not forced below the benign value.
    """
    if data.n == 0:
        raise ValidationError("dataset must be nonempty")
    benign = float((predict(net, data.inputs) == data.labels).mean())
    if threat is None:
        return benign, None
    correct = 0
    for s in range(0, data.n, chunk):
        sub = Batch(data.inputs[s : s + chunk], data.labels[s : s + chunk])
        adv = generate(net, sub, threat, seed=seed + s)
        correct += int((predict(net, adv.perturbed) == sub.labels).sum())
    return benign, correct / data.n
