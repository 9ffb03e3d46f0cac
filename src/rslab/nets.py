"""Desk-scale feed-forward networks in plain numpy.

Networks are flat ordered lists of layer specs with explicit parameter
tensors, so the forward pass, reverse-mode gradients, and activation taps
are all straightforward array code. Convolutions run through im2col and a
single GEMM in float64; their input gradients use the dilated-correlation
form so no scatter-adds are needed.

There is one entry point per need. `loss_and_grad` takes a training step's
cross-entropy and parameter gradients in one pass over the whole batch; it
alone keeps the im2col windows (`cols`) that weight gradients need.
`forward` (and `predict`) and `input_grad` take no parameter gradients and
run the batch through the net one block of images at a time, sized so a
block's layer outputs fit in `_BLOCK_BYTES`. A pass keeps one record, its
layer outputs; `backward` reads each layer's input and ReLU mask there.
`input_grad` is the gradient of every attack step and of TRADES' KL ascent:
the caller's `dlogits_of` returns each block's logits cotangent, already
scaled by the whole batch.
Every layer computes an image's outputs from that image's rows alone, so a
block gives the bytes one pass over the whole batch gives, as long as BLAS
sums each row of a product in the same order whatever the row count.
Two exceptions are known. A one-row product takes BLAS's matrix-vector path,
so a block never holds a single row of a longer batch. OpenBLAS's
small-matrix kernel sums a narrow product with a long inner dimension (such
as mlp-3's 256 -> 4 head) in another order than its large-matrix kernel, so
such logits may move by an ulp; the width-1 miniresnet's products are not
affected. Average pooling sums each window in one fixed order, the one
numpy's `mean` over the window axes takes, so it has no such exception.

Checkpoints use RSCK v1, a `container` file (magic "RSCK") whose body is,
little-endian, one record per parameter tensor:

    name ("<layer index>.<b|w>") | u8 ndim | u64[ndim] shape
    f32[prod(shape)] row-major payload

Tensors come in layer order, "b" before "w" within a layer. The trailer is
{"arch", "width", "seed", "epoch", "input_shape", "taps", "layers"}, where
"layers" holds one spec object per layer, e.g. {"kind": "dense", "in": 64,
"out": 4}; see `_SPEC_KEYS`. The loader checks every tensor against the
shape its layer spec implies.
"""
from __future__ import annotations

import struct
from dataclasses import astuple, dataclass, field, replace

import numpy as np

from . import container
from .errors import (
    ConfigError,
    ManifestError,
    RslabError,
    ShapeError,
    ValidationError,
)

CHECKPOINT_MAGIC = b"RSCK"
CHECKPOINT_VERSION = 1

# byte budget for one block's float64 layer outputs in gradient-free passes
_BLOCK_BYTES = 4 << 20


# ---------------------------------------------------------------------------
# layer specs


@dataclass(frozen=True)
class Dense:
    in_features: int
    out_features: int


@dataclass(frozen=True)
class Conv2d:
    in_channels: int
    out_channels: int
    kernel: int
    stride: int = 1
    pad: int = 0


@dataclass(frozen=True)
class Relu:
    pass


@dataclass(frozen=True)
class AvgPool:
    kernel: int  # non-overlapping, stride = kernel


@dataclass(frozen=True)
class Flatten:
    pass


@dataclass(frozen=True)
class ResidualAdd:
    source: int  # index of an earlier layer whose output is added


# JSON kind and field keys of each layer spec, in dataclass field order
_SPEC_KEYS = {
    Dense: ("dense", ("in", "out")),
    Conv2d: ("conv2d", ("in", "out", "k", "stride", "pad")),
    Relu: ("relu", ()),
    AvgPool: ("avgpool", ("k",)),
    Flatten: ("flatten", ()),
    ResidualAdd: ("residual_add", ("source",)),
}
_SPEC_BY_KIND = {kind: (cls, keys) for cls, (kind, keys) in _SPEC_KEYS.items()}


def _spec_to_json(spec) -> dict:
    if type(spec) not in _SPEC_KEYS:
        raise ConfigError(f"unknown layer spec {spec!r}")
    kind, keys = _SPEC_KEYS[type(spec)]
    return {"kind": kind, **dict(zip(keys, astuple(spec)))}


def _spec_from_json(d):
    if not isinstance(d, dict) or d.get("kind") not in _SPEC_BY_KIND:
        raise ConfigError(f"unknown layer spec {d!r}")
    cls, keys = _SPEC_BY_KIND[d["kind"]]
    args = [d.get(k) for k in keys]
    for k, v in zip(keys, args):
        lowest = 0 if k in ("pad", "source") else 1
        if type(v) is not int or v < lowest:
            raise ConfigError(f"layer spec {d!r}: {k!r} must be an integer >= {lowest}")
    return cls(*args)


def infer_shapes(layers, input_shape) -> list:
    """Per-layer output shapes; raises ShapeError on any incompatibility."""
    shapes = []
    cur = tuple(input_shape)
    for i, spec in enumerate(layers):
        if isinstance(spec, Dense):
            if len(cur) != 1 or cur[0] != spec.in_features:
                raise ShapeError(f"layer {i}: Dense expects ({spec.in_features},), got {cur}")
            cur = (spec.out_features,)
        elif isinstance(spec, Conv2d):
            if len(cur) != 3 or cur[0] != spec.in_channels:
                raise ShapeError(f"layer {i}: Conv2d expects {spec.in_channels} channels, got {cur}")
            c, h, w = cur
            k, s, p = spec.kernel, spec.stride, spec.pad
            if (h + 2 * p - k) % s or (w + 2 * p - k) % s:
                raise ShapeError(f"layer {i}: Conv2d geometry does not divide {cur}")
            cur = (spec.out_channels, (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1)
        elif isinstance(spec, AvgPool):
            if len(cur) != 3:
                raise ShapeError(f"layer {i}: AvgPool expects (c,h,w), got {cur}")
            c, h, w = cur
            if h % spec.kernel or w % spec.kernel:
                raise ShapeError(f"layer {i}: AvgPool {spec.kernel} does not divide {cur}")
            cur = (c, h // spec.kernel, w // spec.kernel)
        elif isinstance(spec, Flatten):
            cur = (int(np.prod(cur)),)
        elif isinstance(spec, ResidualAdd):
            if not 0 <= spec.source < i:
                raise ShapeError(f"layer {i}: ResidualAdd source {spec.source} must precede it")
            if shapes[spec.source] != cur:
                raise ShapeError(
                    f"layer {i}: ResidualAdd source shape {shapes[spec.source]} != {cur}"
                )
        elif isinstance(spec, Relu):
            pass
        else:
            raise ConfigError(f"unknown layer spec {spec!r}")
        shapes.append(cur)
    return shapes


@dataclass
class NetworkGraph:
    """Ordered layers + parameter tensors + tap points.

    `width_factor` is an int >= 1, `arch` a str and `seed` None or an int;
    a bool is neither. A checkpoint's trailer gives all three.
    """

    layers: list
    input_shape: tuple
    params: list = None
    width_factor: int = 1
    taps: tuple = ()
    arch: str = ""
    seed: int | None = None

    def __post_init__(self):
        if not self.layers:
            raise ValidationError("network needs at least one layer")
        if not _is_int(self.width_factor) or self.width_factor < 1:
            raise ValidationError(f"width factor must be an int >= 1, got {self.width_factor!r}")
        if not isinstance(self.arch, str):
            raise ValidationError(f"arch must be a str, got {self.arch!r}")
        if self.seed is not None and not _is_int(self.seed):
            raise ValidationError(f"seed must be None or an int, got {self.seed!r}")
        self.input_shape = tuple(self.input_shape)
        self.output_shapes = infer_shapes(self.layers, self.input_shape)
        if not self.taps:
            self.taps = tuple(range(len(self.layers)))
        for t in self.taps:
            if not isinstance(t, (int, np.integer)) or not 0 <= t < len(self.layers):
                raise ValidationError(f"tap index {t!r} out of range")
        if self.params is not None:
            _check_params(self.layers, self.params)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _check_params(layers, params):
    if len(params) != len(layers):
        raise ValidationError("params list must align with layers")
    for i, (spec, p) in enumerate(zip(layers, params)):
        for arr in p.values():
            if not np.isfinite(arr).all():
                raise ValidationError(f"layer {i} has non-finite parameters")


@dataclass
class Batch:
    """Labeled image batch; inputs in [0,1], shape (n, c, h, w)."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 4:
            raise ShapeError(f"batch inputs must be (n,c,h,w), got {self.inputs.shape}")
        if len(self.labels) != self.inputs.shape[0]:
            raise ShapeError("labels length must match batch size")
        # NaN compares false, so only an in-range test rejects it
        if self.inputs.size and not (self.inputs.min() >= -1e-9 and self.inputs.max() <= 1 + 1e-9):
            raise ValidationError("batch inputs must be finite and lie in [0,1]")

    @property
    def n(self) -> int:
        return self.inputs.shape[0]


def layer_names(net: NetworkGraph) -> list:
    kinds = {
        Dense: "dense", Conv2d: "conv", Relu: "relu",
        AvgPool: "avgpool", Flatten: "flatten", ResidualAdd: "add",
    }
    return [f"{i:02d}_{kinds[type(s)]}" for i, s in enumerate(net.layers)]


# ---------------------------------------------------------------------------
# initialization


def init_params(net: NetworkGraph, seed: int) -> list:
    """Fan-in scaled Gaussian weights (std sqrt(2/fan_in)), zero biases."""
    rng = np.random.default_rng(seed)
    params = []
    for spec in net.layers:
        p = {}
        if shapes := _param_shapes(spec):
            w, (out,) = shapes["w"], shapes["b"]
            std = np.sqrt(2.0 / (int(np.prod(w)) // out))
            p = {"w": rng.normal(0.0, std, w), "b": np.zeros(out)}
        params.append(p)
    return params


# ---------------------------------------------------------------------------
# conv helpers
#
# Spatial tensors are NHWC internally: im2col windows over NHWC memory copy
# near-sequentially (innermost kernel-row x channel runs are contiguous) and
# both conv GEMMs produce their outputs already in layout, which is where a
# channel-first implementation loses most of its time.


def _to_nhwc(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1))


def _to_nchw(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x.transpose(0, 3, 1, 2))


def _pad_hw(x: np.ndarray, pad: int) -> np.ndarray:
    if not pad:
        return x
    n, h, w, c = x.shape
    out = np.zeros((n, h + 2 * pad, w + 2 * pad, c))
    out[:, pad : pad + h, pad : pad + w, :] = x
    return out


def _im2col(x: np.ndarray, k: int, stride: int, pad: int):
    """NHWC window matrix: (n*oh*ow, k*k*c) with (row, col, channel) order."""
    x = _pad_hw(x, pad)
    n, h, w, c = x.shape
    oh = (h - k) // stride + 1
    ow = (w - k) // stride + 1
    s0, s1, s2, s3 = x.strides
    win = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, oh, ow, k, k, c),
        strides=(s0, s1 * stride, s2 * stride, s1, s2, s3),
        writeable=False,
    )
    cols = np.ascontiguousarray(win).reshape(n * oh * ow, k * k * c)
    return cols, oh, ow


def _dilate(g: np.ndarray, stride: int) -> np.ndarray:
    if stride == 1:
        return g
    n, h, w, c = g.shape
    out = np.zeros((n, (h - 1) * stride + 1, (w - 1) * stride + 1, c))
    out[:, ::stride, ::stride, :] = g
    return out


def _conv_forward(spec: Conv2d, p: dict, x: np.ndarray):
    k = spec.kernel
    cols, oh, ow = _im2col(x, k, spec.stride, spec.pad)
    # weight matrix in window order: [(row*k + col)*c_in + ci, c_out]
    wm = p["w"].transpose(2, 3, 1, 0).reshape(k * k * spec.in_channels, -1)
    out = cols @ wm
    out += p["b"]
    return out.reshape(x.shape[0], oh, ow, spec.out_channels), cols


def _conv_param_grads(spec: Conv2d, cols, g: np.ndarray) -> dict:
    if cols is None:
        raise ValidationError(
            "parameter gradients need a state from forward_cache(..., need_param_grads=True)"
        )
    k, co = spec.kernel, spec.out_channels
    gm = g.reshape(-1, co)
    dw = (cols.T @ gm).reshape(k, k, spec.in_channels, co).transpose(3, 2, 0, 1)
    return {"w": dw, "b": gm.sum(axis=0)}


def _conv_input_grad(spec: Conv2d, p: dict, x_shape, g: np.ndarray) -> np.ndarray:
    """Correlation of the (dilated) cotangent with the spatially flipped kernels."""
    n, h, w, ci = x_shape
    k, s, pad = spec.kernel, spec.stride, spec.pad
    gd = _dilate(g, s)
    pb = k - 1 - pad
    if pb > 0:
        gd = _pad_hw(gd, pb)
    elif pb < 0:
        gd = gd[:, -pb:pb, -pb:pb, :]
    cols_b, bh, bw = _im2col(gd, k, 1, 0)
    wb = p["w"][:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(k * k * spec.out_channels, ci)
    return (cols_b @ wb).reshape(n, bh, bw, ci)


# ---------------------------------------------------------------------------
# forward / backward


def _flatten_act(a: np.ndarray) -> np.ndarray:
    """Collapse spatial dimensions channel-major: runtime NHWC -> (n, c*h*w)."""
    if a.ndim == 4:
        return _to_nchw(a).reshape(a.shape[0], -1)
    return a.reshape(a.shape[0], -1)


def _block_rows(net: NetworkGraph) -> int:
    """Images per block: as many as fit `_BLOCK_BYTES` of layer outputs."""
    per_image = 8 * sum(int(np.prod(s)) for s in net.output_shapes)
    return max(2, _BLOCK_BYTES // per_image)


def _blocks(net: NetworkGraph, n: int) -> list:
    """Row slices covering n images; a lone last row joins the block before."""
    step = _block_rows(net)
    starts = list(range(0, n, step)) or [0]
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def _avg_pool(x: np.ndarray, k: int) -> np.ndarray:
    """Non-overlapping k x k mean of NHWC x.

    Sums the window's slices in the order numpy's `mean(axis=(2, 4))` of the
    (n, h/k, k, w/k, k, c) view takes them, from 0.0 as its reduction does,
    so the bytes are the same; the slices skip `mean`'s generic reduction.
    """
    n, h, w, c = x.shape
    v = x.reshape(n, h // k, k, w // k, k, c)
    out = v[:, :, 0, :, 0] + 0.0
    for i in range(k):
        for j in range(k):
            if i or j:
                out += v[:, :, i, :, j]
    out /= k * k
    return out


def _run_forward(net: NetworkGraph, x: np.ndarray, keep_cols: bool = False):
    """The runtime input, every layer's output, and conv windows by layer (or None)."""
    if x.shape[1:] != net.input_shape:
        raise ShapeError(
            f"batch shape {x.shape[1:]} does not match net input {net.input_shape}"
        )
    if net.params is None:
        raise ValidationError("network has no parameters; call init_params first")
    x = cur = _to_nhwc(x) if x.ndim == 4 else x
    outs = []
    cols = {} if keep_cols else None
    for i, (spec, p) in enumerate(zip(net.layers, net.params)):
        if isinstance(spec, Dense):
            cur = cur @ p["w"]
            cur += p["b"]
        elif isinstance(spec, Conv2d):
            cur, windows = _conv_forward(spec, p, cur)
            if keep_cols:
                cols[i] = windows
        elif isinstance(spec, Relu):
            cur = np.maximum(cur, 0.0)
        elif isinstance(spec, AvgPool):
            cur = _avg_pool(cur, spec.kernel)
        elif isinstance(spec, Flatten):
            cur = _flatten_act(cur)
        elif isinstance(spec, ResidualAdd):
            cur = cur + outs[spec.source]
        outs.append(cur)
    return x, outs, cols


def forward(net: NetworkGraph, inputs: np.ndarray, taps=None):
    """Run the net; returns (logits, {layer_index: flattened activation}).

    Deterministic and side-effect free for fixed parameters. A spatial final
    output comes back in (n, c, h, w) layout. Runs in blocks of images.
    Taps are float32 (n, p) arrays, flattened channel-major like
    `_flatten_act`: each block's float64 output is rounded into them in one
    cast-copy, so the float64 activations never exist for the whole batch.
    """
    x = np.asarray(inputs, dtype=np.float64)
    n = x.shape[0]
    final = np.empty((n,) + net.output_shapes[-1])
    tapped = {
        t: np.empty((n, int(np.prod(net.output_shapes[t]))), dtype=np.float32)
        for t in taps or ()
    }
    for rows in _blocks(net, n):
        _, outs, _ = _run_forward(net, x[rows])
        for t, dst in tapped.items():
            a = outs[t]
            if a.ndim == 4:  # runtime NHWC into channel-major columns
                a = a.transpose(0, 3, 1, 2)
            dst[rows].reshape(a.shape)[...] = a
        last = outs[-1]
        final[rows] = last.transpose(0, 3, 1, 2) if last.ndim == 4 else last
    return final, tapped


def forward_cache(net: NetworkGraph, inputs: np.ndarray, need_param_grads: bool = True):
    """Forward pass retaining everything `backward` needs.

    The state is (runtime input, every layer's output, conv windows by
    layer); the windows that weight gradients need are kept only when
    `need_param_grads` is set.
    """
    state = _run_forward(net, np.asarray(inputs, dtype=np.float64), need_param_grads)
    return state[1][-1], state


def backward(net: NetworkGraph, fw_state, dlogits: np.ndarray, need_param_grads: bool = True):
    """Reverse-mode gradients from a logits cotangent.

    Returns the per-layer parameter gradients when `need_param_grads` is set,
    else the input gradient. Residual connections accumulate into their
    source layer.
    """
    x, outs, cols = fw_state
    n_layers = len(net.layers)
    gout = {n_layers - 1: dlogits}  # index -1 collects the input gradient
    param_grads = [{} for _ in net.layers]

    def send(idx, g):
        gout[idx] = gout[idx] + g if idx in gout else g

    for i in range(n_layers - 1, -1, -1):
        g = gout.pop(i)
        spec = net.layers[i]
        p = net.params[i]
        inp = outs[i - 1] if i else x
        if need_param_grads and isinstance(spec, Dense):
            param_grads[i] = {"w": inp.T @ g, "b": g.sum(axis=0)}
        elif need_param_grads and isinstance(spec, Conv2d):
            param_grads[i] = _conv_param_grads(spec, None if cols is None else cols[i], g)
        if i == 0 and need_param_grads:
            break  # nothing asks for the input gradient
        if isinstance(spec, Dense):
            send(i - 1, g @ p["w"].T)
        elif isinstance(spec, Conv2d):
            send(i - 1, _conv_input_grad(spec, p, inp.shape, g))
        elif isinstance(spec, Relu):
            send(i - 1, g * (outs[i] > 0))
        elif isinstance(spec, AvgPool):
            k = spec.kernel
            send(i - 1, np.repeat(np.repeat(g / (k * k), k, axis=1), k, axis=2))
        elif isinstance(spec, Flatten):
            if inp.ndim == 4:
                n, h, w, c = inp.shape
                # invert the channel-major flatten back to runtime NHWC
                send(i - 1, g.reshape(n, c, h, w).transpose(0, 2, 3, 1))
            else:
                send(i - 1, g.reshape(inp.shape))
        elif isinstance(spec, ResidualAdd):
            send(i - 1, g)
            send(spec.source, g)
    if need_param_grads:
        return param_grads
    dx = gout[-1]
    return _to_nchw(dx) if dx.ndim == 4 else dx


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def _label_logp_and_grad(logits: np.ndarray, labels: np.ndarray):
    """Per row: log-probability of the label and the unscaled logits gradient."""
    if labels.size and not 0 <= labels.min() <= labels.max() < logits.shape[1]:
        raise ValidationError(f"labels must lie in [0, {logits.shape[1]})")
    rows = np.arange(logits.shape[0])
    logp = log_softmax(logits)
    dlogits = np.exp(logp)
    dlogits[rows, labels] -= 1.0
    return logp[rows, labels], dlogits


def cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean softmax cross-entropy and its logits gradient."""
    label_logp, dlogits = _label_logp_and_grad(logits, labels)
    return -float(label_logp.mean()), dlogits / logits.shape[0]


def loss_and_grad(net: NetworkGraph, batch: Batch):
    """Mean cross-entropy and its parameter gradients, in one pass over the batch."""
    logits, state = forward_cache(net, batch.inputs)
    loss, dlogits = cross_entropy(logits, batch.labels)
    return loss, backward(net, state, dlogits)


def input_grad(net: NetworkGraph, inputs: np.ndarray, dlogits_of) -> np.ndarray:
    """Gradient of a loss with respect to the inputs, one block of images at a time.

    `dlogits_of(logits, rows)` returns the logits cotangent of the block
    `inputs[rows]`, already scaled by the whole batch.
    """
    x = np.asarray(inputs, dtype=np.float64)
    dx = np.empty(x.shape)
    for rows in _blocks(net, x.shape[0]):
        logits, state = forward_cache(net, x[rows], need_param_grads=False)
        dx[rows] = backward(net, state, dlogits_of(logits, rows), need_param_grads=False)
    return dx


def predict(net: NetworkGraph, inputs: np.ndarray) -> np.ndarray:
    """Argmax class predictions."""
    logits, _ = forward(net, inputs)
    return logits.argmax(axis=1)


# ---------------------------------------------------------------------------
# presets


def make_network(
    arch: str,
    input_shape=(1, 16, 16),
    classes: int = 4,
    width_factor: int = 1,
    seed: int | None = None,
) -> NetworkGraph:
    """Build a named desk architecture; seeds parameters when `seed` given.

    "mlp-3": three dense+relu layers on flattened input.
    "miniresnet": stem conv, three equal-width residual stages of two convs
    each (skip spanning both convs), average-pool downsampling between
    stages, global average pool, dense head. Channel count is 8 * width.
    """
    c, h, w = input_shape
    if arch == "mlp-3":
        d = int(np.prod(input_shape))
        hidden = 64 * width_factor
        layers = [
            Flatten(),
            Dense(d, hidden), Relu(),
            Dense(hidden, hidden), Relu(),
            Dense(hidden, classes),
        ]
    elif arch == "miniresnet":
        ch = 8 * width_factor
        if h % 4 or w % 4:
            raise ConfigError("miniresnet needs input sides divisible by 4")
        layers = [Conv2d(c, ch, 3, 1, 1), Relu()]  # stem: idx 0,1

        def stage(entry_idx):
            return [
                Conv2d(ch, ch, 3, 1, 1), Relu(),
                Conv2d(ch, ch, 3, 1, 1), ResidualAdd(entry_idx), Relu(),
            ]

        layers += stage(1)            # idx 2..6
        layers += [AvgPool(2)]        # idx 7
        layers += stage(7)            # idx 8..12
        layers += [AvgPool(2)]        # idx 13
        layers += stage(13)           # idx 14..18
        layers += [AvgPool(h // 4), Flatten(), Dense(ch, classes)]  # idx 19..21
    else:
        raise ConfigError(f"unknown architecture {arch!r}")
    net = NetworkGraph(
        layers, input_shape, width_factor=width_factor, arch=arch, seed=seed
    )
    if seed is not None:
        net.params = init_params(net, seed)
    return net


# ---------------------------------------------------------------------------
# checkpoints (RSCK)


def _param_shapes(spec) -> dict:
    if isinstance(spec, Dense):
        return {"b": (spec.out_features,), "w": (spec.in_features, spec.out_features)}
    if isinstance(spec, Conv2d):
        k = spec.kernel
        return {"b": (spec.out_channels,), "w": (spec.out_channels, spec.in_channels, k, k)}
    return {}


def save_checkpoint(net: NetworkGraph, path, epoch: int | str = "final") -> None:
    """Write layer specs + parameters to an RSCK file (32-bit payload)."""
    if net.params is None:
        raise ValidationError("cannot checkpoint a network without parameters")
    tensors = [(f"{i}.{key}", p[key]) for i, p in enumerate(net.params) for key in sorted(p)]
    body = []
    for name, arr in tensors:
        body.append(container.pack_name(name))
        body.append(struct.pack(f"<B{arr.ndim}Q", arr.ndim, *arr.shape))
        body.append(np.ascontiguousarray(arr, dtype="<f4"))
    trailer = {
        "arch": net.arch,
        "width": net.width_factor,
        "seed": net.seed,
        "epoch": epoch,
        "input_shape": list(net.input_shape),
        "taps": list(net.taps),
        "layers": [_spec_to_json(s) for s in net.layers],
    }
    container.write(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(tensors), body, trailer)


def load_checkpoint(path) -> NetworkGraph:
    """Read an RSCK file; parameters widen to float64."""
    rd = container.Reader(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    tensors = {}
    for _ in range(rd.count):
        name = rd.name()
        (ndim,) = rd.unpack("<B")
        if ndim > 4:
            raise ManifestError(f"{path}: tensor {name!r} declares {ndim} > 4 dims")
        tensors[name] = rd.array("<f4", rd.unpack(f"<{ndim}Q")).astype(np.float64)
    trailer = rd.trailer()
    try:
        layers = [_spec_from_json(d) for d in trailer["layers"]]
        shapes = [_param_shapes(spec) for spec in layers]
        expected = {f"{i}.{k}": s for i, d in enumerate(shapes) for k, s in d.items()}
        if len(tensors) != rd.count or {n: t.shape for n, t in tensors.items()} != expected:
            raise ManifestError("tensor names or shapes disagree with the layer specs")
        return NetworkGraph(
            layers,
            tuple(trailer["input_shape"]),
            params=[{k: tensors[f"{i}.{k}"] for k in d} for i, d in enumerate(shapes)],
            width_factor=trailer.get("width", 1),
            taps=tuple(trailer.get("taps", ())),
            arch=trailer.get("arch", ""),
            seed=trailer.get("seed"),
        )
    except (KeyError, TypeError, ValueError, RslabError) as exc:
        raise ManifestError(f"{path}: trailer does not match the stored network: {exc!r}") from exc


def round_params_f32(net: NetworkGraph) -> NetworkGraph:
    """Copy of the net with parameters rounded through float32.

    Matches exactly what save_checkpoint + load_checkpoint would produce, so
    activations recorded from the copy replay bit-identically from disk.
    """
    return replace(net, params=[
        {k: v.astype(np.float32).astype(np.float64) for k, v in p.items()}
        for p in net.params
    ])
