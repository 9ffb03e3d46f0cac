"""Adversarial example generation under five constraint families.

Every attack is one budgeted loss ascent. A threat kind keeps a budgeted
variable z and `_ascend` runs `threat.steps` of

    z = step(z, pullback(grad(decode(z))))

where `decode` maps z to pixels in [0, 1], `grad` is the loss's input
gradient there, `pullback` carries that gradient back onto z, and `step`
takes a projected step that keeps z inside the budget. `_ATTACKS` maps each
kind to the function that sets its start, decode, pull-back and step, and
its keys are the one list of threat kinds, `THREAT_KINDS`:

    linf, l2  pixels, from a random start inside the norm ball
    jpeg      8x8 orthonormal block-DCT coefficient deltas, linf-bounded
    gabor     sparse amplitude fields under a fixed Gabor bank, linf-bounded
    snow      nonnegative intensities of seeded diagonal streaks (only brightens)

Each returns (perturbed, aux); `aux` holds the budgeted variables so
independent oracles can check the constraint on the variable that was
actually projected. `generate` is the public entry point: it ascends the
cross-entropy and returns an `AdversarialBatch`, whose predictions are
computed on first read from the parameters copied at attack time. TRADES'
inner maximization (`training._kl_pgd`) drives the same table through
`_perturb`, with the KL divergence from the clean predictions as its loss.
Both take the loss's input gradient from `nets.input_grad` and differ only
in the logits cotangent they hand it. Attacks are deterministic given (net
params, batch, seed) and attack each point independently.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import ConfigError, KindError, ShapeError, ValidationError
from .nets import Batch, NetworkGraph, _im2col, _label_logp_and_grad, input_grad, predict


@dataclass(frozen=True)
class ThreatModel:
    """Attack family with budget epsilon, step count, and optional step size.

    Epsilon units: pixel scale for linf/l2, coefficient scale for jpeg,
    amplitude scale for gabor/snow. When step_size is None the attacks use
    2.5 * epsilon / steps, so an epsilon for which 2.5 * epsilon is not
    finite is refused.
    """

    kind: str
    epsilon: float
    steps: int = 10
    step_size: float | None = None

    def __post_init__(self):
        if self.kind not in THREAT_KINDS:
            raise KindError(f"unknown threat kind {self.kind!r}")
        # the default step 2.5 * epsilon / steps, and the linf start draw over
        # [-epsilon, epsilon], must not overflow
        if not np.isfinite(2.5 * self.epsilon) or self.epsilon < 0:
            raise ConfigError(
                f"epsilon must be >= 0 with 2.5 * epsilon finite, got {self.epsilon}"
            )
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if self.step_size is not None and not (
            np.isfinite(self.step_size) and self.step_size > 0
        ):
            raise ConfigError(f"step_size must be finite and > 0, got {self.step_size}")

    @property
    def alpha(self) -> float:
        if self.step_size is not None:
            return self.step_size
        return 2.5 * self.epsilon / self.steps


@dataclass
class AdversarialBatch:
    """Original and perturbed inputs with the net's predictions on both.

    `net` is the attacked net with its parameters as `generate` copied them,
    so a training step that updates the live net in place does not move
    them. The predictions are computed from it on first read; callers that
    read none, such as advpgd training, pay for no forward pass. `aux`
    exposes the attack's budgeted variables (coefficient deltas, amplitude
    fields, streak intensities); it is None for the norm balls and at
    epsilon 0.
    """

    originals: np.ndarray
    perturbed: np.ndarray
    labels: np.ndarray
    threat: ThreatModel
    net: NetworkGraph = field(repr=False)
    aux: dict | None = None

    @cached_property
    def clean_predictions(self) -> np.ndarray:
        return predict(self.net, self.originals)

    @cached_property
    def predictions(self) -> np.ndarray:
        return predict(self.net, self.perturbed)

    @property
    def success_mask(self) -> np.ndarray:
        """Points whose prediction the attack flipped."""
        return self.predictions != self.clean_predictions


def generate(net, batch: Batch, threat: ThreatModel, seed: int = 0) -> AdversarialBatch:
    """Ascend the cross-entropy of `batch` under the threat's budget."""
    x0 = batch.inputs.copy()
    labels = batch.labels

    def dlogits_of(logits, rows):
        return _label_logp_and_grad(logits, labels[rows])[1] / batch.n

    x, aux = _perturb(lambda x: input_grad(net, x, dlogits_of), x0, threat, seed)
    attacked = replace(net, params=[{k: v.copy() for k, v in p.items()} for p in net.params])
    return AdversarialBatch(x0, x, labels, threat, attacked, aux)


def _perturb(grad, x0, threat: ThreatModel, seed: int):
    """(perturbed, aux) ascending `grad` from the originals x0; x0 itself at epsilon 0."""
    if threat.epsilon == 0.0:
        return x0.copy(), None
    return _ATTACKS[threat.kind](grad, x0, threat, seed)


def _identity(v):
    return v


def _ascend(grad, threat, z, step, decode=_identity, pullback=_identity):
    """The one attack loop; returns (decode(z), z) after `threat.steps` steps."""
    for _ in range(threat.steps):
        z = step(z, pullback(grad(decode(z))))
    return decode(z), z


# ---------------------------------------------------------------------------
# linf and l2: PGD on pixels from a random start inside the ball


def _l2_norms(d: np.ndarray) -> np.ndarray:
    return np.sqrt((d * d).sum(axis=(1, 2, 3), keepdims=True))


def _linf(grad, x0, threat, seed):
    eps, alpha = threat.epsilon, threat.alpha
    start = x0 + np.random.default_rng(seed).uniform(-eps, eps, x0.shape)

    def step(x, g):
        return np.clip(x0 + np.clip(x + alpha * np.sign(g) - x0, -eps, eps), 0.0, 1.0)

    x, _ = _ascend(grad, threat, np.clip(start, 0.0, 1.0), step)
    return x, None


def _l2(grad, x0, threat, seed):
    eps, alpha = threat.epsilon, threat.alpha
    rng = np.random.default_rng(seed)
    d = rng.normal(size=x0.shape)
    r = rng.uniform(size=(x0.shape[0], 1, 1, 1)) ** (1.0 / x0[0].size)
    start = x0 + d * (eps * r / np.maximum(_l2_norms(d), 1e-12))

    def step(x, g):
        d = x + alpha * g / np.maximum(_l2_norms(g), 1e-12) - x0
        d = d * np.minimum(1.0, eps / np.maximum(_l2_norms(d), 1e-12))
        return np.clip(x0 + d, 0.0, 1.0)

    x, _ = _ascend(grad, threat, np.clip(start, 0.0, 1.0), step)
    return x, None


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


def _jpeg(grad, x0, threat, seed):
    eps, alpha = threat.epsilon, threat.alpha
    xp, (h, w) = _pad_to_8(x0)
    c0 = block_dct(xp)

    def decode(d):
        return np.clip(block_dct(c0 + d, inverse=True)[:, :, :h, :w], 0.0, 1.0)

    def pullback(g):
        return block_dct(_pad_to_8(g)[0])

    def step(d, gc):
        return np.clip(d + alpha * np.sign(gc), -eps, eps)

    x, delta = _ascend(grad, threat, np.zeros_like(c0), step, decode, pullback)
    return x, {"coeff_delta": delta}


# ---------------------------------------------------------------------------
# gabor: sparse amplitude field convolved with a fixed kernel bank


def gabor_bank() -> np.ndarray:
    """Fixed 7 x 7 Gabor kernels, 4 orientations x 2 scales, each peak-normalized."""
    yy, xx = np.mgrid[-3:4, -3:4].astype(np.float64)
    kernels = []
    for s in (1.0, 2.0):
        sigma = 1.2 * s
        lam = 2.5 * s
        for o in range(4):
            th = np.pi * o / 4
            xr = xx * np.cos(th) + yy * np.sin(th)
            yr = -xx * np.sin(th) + yy * np.cos(th)
            g = np.exp(-(xr**2 + 0.64 * yr**2) / (2 * sigma**2)) * np.cos(
                2 * np.pi * xr / lam
            )
            kernels.append(g / np.abs(g).max())
    return np.stack(kernels)


def _same_windows(fields: np.ndarray, k: int):
    """im2col windows of (n, h, w) fields for a 'same' k x k convolution."""
    cols, oh, ow = _im2col(fields[:, :, :, None], k, 1, k // 2)  # NHWC, one channel
    return cols, (fields.shape[0], oh, ow)


def _conv_same(fields: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """'same' 2-d convolution of (n, h, w) fields with one kernel."""
    cols, shape = _same_windows(fields, kernel.shape[0])
    return (cols @ kernel[::-1, ::-1].reshape(-1)).reshape(shape)


def gabor_noise(bank: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """Sum of per-kernel 'same' convolutions; one shared field per channel."""
    noise = np.zeros(amps.shape[:1] + amps.shape[2:])
    for k in range(bank.shape[0]):
        noise += _conv_same(amps[:, k], bank[k])
    return noise[:, None, :, :]


def _gabor(grad, x0, threat, seed):
    eps, alpha = threat.epsilon, threat.alpha
    n, _, h, w = x0.shape
    bank = gabor_bank()
    masks = np.random.default_rng(seed).random((n, len(bank), h, w)) < 0.06

    def decode(amps):
        return np.clip(x0 + gabor_noise(bank, amps), 0.0, 1.0)

    def pullback(g):
        # correlation with each kernel: one field shared across channels, so
        # its windows serve all eight
        cols, shape = _same_windows(g.sum(axis=1), bank.shape[1])
        return np.stack([(cols @ k.reshape(-1)).reshape(shape) for k in bank], axis=1)

    def step(amps, da):
        return np.clip(amps + alpha * np.sign(da) * masks, -eps, eps) * masks

    x, amps = _ascend(grad, threat, np.zeros(masks.shape), step, decode, pullback)
    return x, {"amplitudes": amps, "masks": masks}


# ---------------------------------------------------------------------------
# snow: nonnegative intensities over seeded diagonal streak masks


def snow_masks(
    n: int, h: int, w: int, seed: int, streaks: int = 12
) -> np.ndarray:
    """Per-image diagonal streak masks (n, streaks, h, w) with values in [0,1]."""
    cy, cx, length = np.random.default_rng(seed).uniform(
        (0, 0, 4), (h - 1, w - 1, 8), size=(n, streaks, 3)
    ).transpose(2, 0, 1)[:, :, :, None, None]
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    # diagonal direction (1,1)/sqrt(2)
    ty = (yy - cy + xx - cx) / 2.0
    along = np.abs(ty) <= length / 2.0
    d_perp = np.abs((yy - cy) - (xx - cx)) / np.sqrt(2.0)
    masks = np.exp(-(d_perp**2) / (2 * 0.7**2)) * along
    masks[masks < 0.01] = 0.0
    return masks


def _snow(grad, x0, threat, seed):
    eps, alpha = threat.epsilon, threat.alpha
    n, _, h, w = x0.shape
    masks = snow_masks(n, h, w, seed)

    def decode(t):
        return np.clip(x0 + np.einsum("ns,nshw->nhw", t, masks)[:, None, :, :], 0.0, 1.0)

    def pullback(g):
        return np.einsum("nhw,nshw->ns", g.sum(axis=1), masks)

    def step(t, dt):
        return np.clip(t + alpha * np.sign(dt), 0.0, eps)

    x, t = _ascend(grad, threat, np.zeros(masks.shape[:2]), step, decode, pullback)
    return x, {"intensities": t, "masks": masks}


# ---------------------------------------------------------------------------


_ATTACKS = {"linf": _linf, "l2": _l2, "jpeg": _jpeg, "gabor": _gabor, "snow": _snow}
THREAT_KINDS = tuple(_ATTACKS)


def evaluate_accuracy(
    net: NetworkGraph,
    data: Batch,
    threat: ThreatModel | None = None,
    seed: int = 0,
):
    """(benign accuracy, robust accuracy) over a labeled batch.

    The attack runs on 128-point chunks, the chunk at offset s with seed
    seed + s, and both accuracies come from its predictions. Robust accuracy
    is None when no threat is given; it is reported as-is and not forced
    below the benign value.
    """
    if data.n == 0:
        raise ValidationError("dataset must be nonempty")
    if threat is None:
        return float((predict(net, data.inputs) == data.labels).mean()), None
    benign = robust = 0
    for s in range(0, data.n, 128):
        adv = generate(net, Batch(data.inputs[s : s + 128], data.labels[s : s + 128]),
                       threat, seed=seed + s)
        benign += int((adv.clean_predictions == adv.labels).sum())
        robust += int((adv.predictions == adv.labels).sum())
    return benign / data.n, robust / data.n
