"""Network representation and the layer engine.

Layers are frozen dataclasses holding float64 numpy arrays; a Network is an
ordered, immutable sequence of them. Each layer kind declares its trainable
parameters and buffers and defines its forward and backward once, and both
inference and training (train.py) run them. The inference forward
(`apply_layer`, `forward`) uses running BatchNorm statistics and skips
dropout, and can capture post-activation values at declared capture points.
Models serialize to a JSON manifest plus a little-endian float32 weight blob.
"""

import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import FormatError, ShapeMismatch

MODEL_MAGIC = "SPNM1"
MODEL_VERSION = 1


# ---------------------------------------------------------------------------
# layer engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainMode:
    """Training context of a layer's forward. BatchNorm normalizes with the
    batch statistics when batch_stats (moving its running statistics toward
    them in place when update_buffers), else with its running statistics;
    rng draws the dropout masks, and None disables dropout."""

    rng: object = None
    batch_stats: bool = True
    update_buffers: bool = True


FROZEN = TrainMode(batch_stats=False, update_buffers=False)


class Layer:
    """Base of the layer kinds.

    `params` names the trainable arrays and `buffers` the arrays training
    updates without a gradient; a None array (a dense layer without bias) is
    absent. `forward(x, index, mode)` returns (output, cache); mode is None
    for inference, else a TrainMode. From the cache of a training-mode
    forward and the output gradient, `backward` returns the input gradient
    and, for a layer with parameters, `param_grads` their {name: gradient}.
    """

    params = ()
    buffers = ()


@dataclass(frozen=True)
class Dense(Layer):
    weight: np.ndarray  # (out_features, in_features)
    bias: np.ndarray = None  # (out_features,) or None for a bias-free layer

    kind = "dense"
    params = ("weight", "bias")

    def forward(self, x, index=None, mode=None):
        if x.ndim != 2 or x.shape[1] != self.weight.shape[1]:
            raise ShapeMismatch(f"dense expects (n, {self.weight.shape[1]}), got {x.shape}",
                                layer=index)
        out = x @ self.weight.T
        return (out if self.bias is None else out + self.bias), x

    def backward(self, x, dout):
        return dout @ self.weight

    def param_grads(self, x, dout):
        grads = {"weight": dout.T @ x}
        if self.bias is not None:
            grads["bias"] = dout.sum(axis=0)
        return grads


def conv2d_windows(x, kh, kw, stride, padding):
    """Strided view of all (kh, kw) patches: (n, c, oh, ow, kh, kw)."""
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    n, c, h, w = x.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    sn, sc, sh, sw = x.strides
    shape = (n, c, oh, ow, kh, kw)
    strides = (sn, sc, stride * sh, stride * sw, sh, sw)
    return np.lib.stride_tricks.as_strided(x, shape, strides), (oh, ow)


@dataclass(frozen=True)
class Conv2D(Layer):
    weight: np.ndarray  # (out_channels, in_channels, kh, kw)
    bias: np.ndarray  # (out_channels,)
    stride: int = 1
    padding: int = 0

    kind = "conv2d"
    params = ("weight", "bias")

    def forward(self, x, index=None, mode=None):
        oc, ic, kh, kw = self.weight.shape
        if x.ndim != 4 or x.shape[1] != ic:
            raise ShapeMismatch(f"conv expects (n, {ic}, h, w), got {x.shape}", layer=index)
        if x.shape[2] + 2 * self.padding < kh or x.shape[3] + 2 * self.padding < kw:
            raise ShapeMismatch(f"input {x.shape} smaller than kernel", layer=index)
        windows, _ = conv2d_windows(x, kh, kw, self.stride, self.padding)
        out = np.einsum("nihwkl,oikl->nohw", windows, self.weight, optimize=True)
        return out + self.bias[None, :, None, None], (windows, x.shape)

    def backward(self, cache, dout):
        _, (n, _, h, w) = cache
        _, ic, kh, kw = self.weight.shape
        pad, s = self.padding, self.stride
        oh, ow = dout.shape[2], dout.shape[3]
        dxp = np.zeros((n, ic, h + 2 * pad, w + 2 * pad))
        for ki in range(kh):
            for kj in range(kw):
                dxp[:, :, ki:ki + s * oh:s, kj:kj + s * ow:s] += np.einsum(
                    "nohw,oi->nihw", dout, self.weight[:, :, ki, kj], optimize=True)
        return dxp[:, :, pad:pad + h, pad:pad + w]

    def param_grads(self, cache, dout):
        return {"weight": np.einsum("nihwkl,nohw->oikl", cache[0], dout, optimize=True),
                "bias": dout.sum(axis=(0, 2, 3))}


@dataclass(frozen=True)
class ReLU(Layer):
    kind = "relu"

    def forward(self, x, index=None, mode=None):
        out = np.maximum(x, 0.0)
        return out, out

    def backward(self, out, dout):
        return np.where(out > 0, dout, 0.0)


@dataclass(frozen=True)
class BatchNorm(Layer):
    scale: np.ndarray
    shift: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    eps: float = 1e-5
    momentum: float = 0.1

    kind = "batchnorm"
    params = ("scale", "shift")
    buffers = ("running_mean", "running_var")

    def forward(self, x, index=None, mode=None):
        c = self.scale.shape[0]
        if x.shape[1] != c:
            raise ShapeMismatch(f"batchnorm over {c} channels, got {x.shape}", layer=index)
        shape = (1, c) + (1,) * (x.ndim - 2)
        # Running statistics keep two arithmetic forms: inference folds the
        # scale into 1/std, training keeps xhat for the backward. Either form
        # in both places changes saved fine-tuned weights or reported ratios.
        if mode is None:
            inv = 1.0 / np.sqrt(self.running_var + self.eps)
            return (x - self.running_mean.reshape(shape)) * (self.scale * inv).reshape(shape) \
                + self.shift.reshape(shape), None
        if mode.batch_stats:
            axes = (0,) if x.ndim == 2 else (0, 2, 3)
            mu, var = x.mean(axis=axes), x.var(axis=axes)
            if mode.update_buffers:
                run_mu, run_var = self.running_mean, self.running_var
                run_mu *= 1.0 - self.momentum
                run_mu += self.momentum * mu
                run_var *= 1.0 - self.momentum
                run_var += self.momentum * var
        else:
            mu, var = self.running_mean, self.running_var
        inv = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mu.reshape(shape)) * inv.reshape(shape)
        return xhat * self.scale.reshape(shape) + self.shift.reshape(shape), \
            (xhat, inv, mode.batch_stats)

    def backward(self, cache, dout):
        xhat, inv, batch_stats = cache
        c = self.scale.shape[0]
        shape = (1, c) + (1,) * (dout.ndim - 2)
        dxhat = dout * self.scale.reshape(shape)
        if not batch_stats:
            return dxhat * inv.reshape(shape)
        axes = (0,) if dout.ndim == 2 else (0, 2, 3)
        count = dout.size // c
        sum_d = dxhat.sum(axis=axes).reshape(shape)
        sum_dx = (dxhat * xhat).sum(axis=axes).reshape(shape)
        return (dxhat - sum_d / count - xhat * sum_dx / count) * inv.reshape(shape)

    def param_grads(self, cache, dout):
        axes = (0,) if dout.ndim == 2 else (0, 2, 3)
        return {"scale": (dout * cache[0]).sum(axis=axes), "shift": dout.sum(axis=axes)}


@dataclass(frozen=True)
class MaxPool2(Layer):
    """2x2 max pooling with stride 2 (the only pooling supported)."""

    kind = "maxpool2"

    def forward(self, x, index=None, mode=None):
        n, c, h, w = x.shape
        if h % 2 or w % 2:
            raise ShapeMismatch(f"maxpool2 needs even spatial dims, got {x.shape}", layer=index)
        if mode is None:  # no argmax needed
            return x.reshape(n, c, h // 2, 2, w // 2, 2).max(axis=(3, 5)), None
        win = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5) \
            .reshape(n, c, h // 2, w // 2, 4)
        idx = win.argmax(axis=-1)
        return np.take_along_axis(win, idx[..., None], axis=-1)[..., 0], (idx, x.shape)

    def backward(self, cache, dout):
        idx, (n, c, h, w) = cache
        dwin = np.zeros((n, c, h // 2, w // 2, 4))
        np.put_along_axis(dwin, idx[..., None], dout[..., None], axis=-1)
        return dwin.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5) \
            .reshape(n, c, h, w)


@dataclass(frozen=True)
class Flatten(Layer):
    kind = "flatten"

    def forward(self, x, index=None, mode=None):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, shape, dout):
        return dout.reshape(shape)


@dataclass(frozen=True)
class Dropout(Layer):
    """Bernoulli masking during training (with an rng), identity otherwise."""

    rate: float = 0.5

    kind = "dropout"

    def forward(self, x, index=None, mode=None):
        if mode is None or mode.rng is None or self.rate <= 0.0:
            return x, None
        keep = 1.0 - self.rate
        mask = (mode.rng.random(x.shape) < keep) / keep
        return x * mask, mask

    def backward(self, mask, dout):
        return dout if mask is None else dout * mask


def param_fields(layer):
    """Names of the layer's trainable arrays (skips an absent dense bias)."""
    return tuple(n for n in layer.params if getattr(layer, n) is not None)


def tensor_fields(layer):
    """Names of the layer's stored arrays, parameters then buffers."""
    return tuple(n for n in layer.params + layer.buffers if getattr(layer, n) is not None)


@dataclass(frozen=True)
class ActivationBatch:
    """Post-activation values at one capture point, one variable per column.

    For conv captures each spatial position of each image is one row and the
    channels are the columns; for dense captures rows are plain samples.
    """

    layer: int
    samples: np.ndarray


def _f64(a):
    return np.ascontiguousarray(np.asarray(a, dtype=np.float64))


def _normalized(layer):
    """Coerce array fields to contiguous float64 and sanity-check shapes."""
    if isinstance(layer, Dense):
        w = _f64(layer.weight)
        b = None if layer.bias is None else _f64(layer.bias)
        if w.ndim != 2 or (b is not None and b.shape != (w.shape[0],)):
            raise ShapeMismatch(f"dense weight {w.shape} / bias "
                                f"{None if b is None else b.shape}")
        return Dense(w, b)
    if isinstance(layer, Conv2D):
        w, b = _f64(layer.weight), _f64(layer.bias)
        if w.ndim != 4 or b.shape != (w.shape[0],):
            raise ShapeMismatch(f"conv weight {w.shape} / bias {b.shape}")
        if layer.stride < 1 or layer.padding < 0:
            raise ValueError("bad stride/padding")
        return Conv2D(w, b, int(layer.stride), int(layer.padding))
    if isinstance(layer, BatchNorm):
        arrs = [_f64(getattr(layer, f)) for f in
                ("scale", "shift", "running_mean", "running_var")]
        c = arrs[0].shape
        if any(a.shape != c for a in arrs):
            raise ShapeMismatch("batchnorm parameter shapes disagree")
        if np.any(arrs[3] <= 0):
            raise ValueError("batchnorm running variance must be positive")
        return BatchNorm(*arrs, eps=float(layer.eps), momentum=float(layer.momentum))
    return layer


@dataclass(frozen=True)
class Network:
    """Immutable network: layers, input shape, and capture-point indices.

    Capture points must index ReLU layers (activations are captured
    immediately after the nonlinearity). Construction dry-runs the forward
    pass on a zero batch so shape errors surface early.
    """

    layers: tuple
    input_shape: tuple
    capture_points: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(_normalized(l) for l in self.layers))
        object.__setattr__(self, "input_shape", tuple(int(d) for d in self.input_shape))
        object.__setattr__(self, "capture_points", tuple(int(c) for c in self.capture_points))
        for cp in self.capture_points:
            if not (0 <= cp < len(self.layers)) or not isinstance(self.layers[cp], ReLU):
                raise ValueError(f"capture point {cp} does not follow an activation")
        forward(self, np.zeros((1,) + self.input_shape))


# ---------------------------------------------------------------------------
# inference forward
# ---------------------------------------------------------------------------

def apply_layer(layer, x, index=None):
    """Inference-mode application of one layer to a batch."""
    return layer.forward(x, index)[0]


def capture_rows(x):
    """Flatten a captured activation tensor to (rows, variables).

    Conv maps each spatial position of each image to one row over channel
    columns; dense activations pass through unchanged.
    """
    if x.ndim == 2:
        return x
    if x.ndim == 4:
        n, c, h, w = x.shape
        return x.transpose(0, 2, 3, 1).reshape(n * h * w, c)
    raise ShapeMismatch(f"cannot capture activations of shape {x.shape}")


def forward(net, batch, capture=()):
    """Run the network on a batch, returning (logits, captured activations).

    `capture` is an iterable of capture-point ids; captured activations are
    post-activation and are returned in network order.
    """
    x = np.asarray(batch, dtype=np.float64)
    if x.shape[1:] != net.input_shape:
        raise ShapeMismatch(f"batch shape {x.shape[1:]} != input shape {net.input_shape}")
    wanted = set(capture)
    captured = []
    for i, layer in enumerate(net.layers):
        x = apply_layer(layer, x, index=i)
        if i in wanted:
            captured.append(ActivationBatch(layer=i, samples=capture_rows(x)))
    return x, captured


def layer_widths(net):
    """Node count (dense width or conv channel count) at each capture point."""
    widths = {}
    for cp in net.capture_points:
        widths[cp] = _feeding_layer(net, cp)[1].weight.shape[0]
    return widths


def _feeding_layer(net, cp):
    """The Dense/Conv layer whose (normalized, activated) output is captured at cp."""
    for i in range(cp, -1, -1):
        layer = net.layers[i]
        if isinstance(layer, (Dense, Conv2D)):
            return i, layer
        if not isinstance(layer, (ReLU, BatchNorm)):
            break
    raise ShapeMismatch(f"capture point {cp} has no feeding Dense/Conv layer")


# ---------------------------------------------------------------------------
# accounting
# ---------------------------------------------------------------------------

def count_params(net):
    """Exact element count of the trainable arrays: weights and biases, and
    BatchNorm scale/shift (running statistics are buffers, not counted)."""
    return sum(getattr(layer, n).size for layer in net.layers for n in param_fields(layer))


def count_flops(net):
    """Multiply-accumulate count of Dense/Conv forward passes for one sample."""
    shape = net.input_shape
    total = 0
    for layer in net.layers:
        if isinstance(layer, Dense):
            total += layer.weight.size
            shape = (layer.weight.shape[0],)
        elif isinstance(layer, Conv2D):
            oc, ic, kh, kw = layer.weight.shape
            oh = (shape[1] + 2 * layer.padding - kh) // layer.stride + 1
            ow = (shape[2] + 2 * layer.padding - kw) // layer.stride + 1
            total += oc * ic * kh * kw * oh * ow
            shape = (oc, oh, ow)
        elif isinstance(layer, MaxPool2):
            shape = (shape[0], shape[1] // 2, shape[2] // 2)
        elif isinstance(layer, Flatten):
            shape = (int(np.prod(shape)),)
    return total


# ---------------------------------------------------------------------------
# serialization: JSON manifest + little-endian float32 blob
# ---------------------------------------------------------------------------

def _layer_manifest(layer):
    if isinstance(layer, Dense):
        return {"kind": "dense", "out_features": layer.weight.shape[0],
                "in_features": layer.weight.shape[1],
                "has_bias": layer.bias is not None}
    if isinstance(layer, Conv2D):
        oc, ic, kh, kw = layer.weight.shape
        return {"kind": "conv2d", "out_channels": oc, "in_channels": ic,
                "kernel": [kh, kw], "stride": layer.stride, "padding": layer.padding}
    if isinstance(layer, BatchNorm):
        return {"kind": "batchnorm", "channels": layer.scale.shape[0],
                "eps": layer.eps, "momentum": layer.momentum}
    if isinstance(layer, Dropout):
        return {"kind": "dropout", "rate": layer.rate}
    return {"kind": layer.kind}


def save_model(net, path):
    """Write model.json and weights.bin into the directory `path`."""
    os.makedirs(path, exist_ok=True)
    tensors, chunks = [], []
    for i, layer in enumerate(net.layers):
        for name in tensor_fields(layer):
            arr = getattr(layer, name)
            tensors.append({"layer": i, "name": name, "shape": list(arr.shape)})
            chunks.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    manifest = {
        "magic": MODEL_MAGIC,
        "version": MODEL_VERSION,
        "input_shape": list(net.input_shape),
        "capture_points": list(net.capture_points),
        "layers": [_layer_manifest(l) for l in net.layers],
        "tensors": tensors,
    }
    with open(os.path.join(path, "model.json"), "w") as fh:
        json.dump(manifest, fh, indent=1)
    with open(os.path.join(path, "weights.bin"), "wb") as fh:
        fh.write(b"".join(chunks))


def _build_layer(spec, arrays):
    kind = spec.get("kind")
    if kind == "dense":
        return Dense(arrays["weight"], arrays.get("bias"))
    if kind == "conv2d":
        return Conv2D(arrays["weight"], arrays["bias"],
                      stride=int(spec["stride"]), padding=int(spec["padding"]))
    if kind == "batchnorm":
        return BatchNorm(arrays["scale"], arrays["shift"],
                         arrays["running_mean"], arrays["running_var"],
                         eps=float(spec["eps"]), momentum=float(spec["momentum"]))
    if kind == "relu":
        return ReLU()
    if kind == "maxpool2":
        return MaxPool2()
    if kind == "flatten":
        return Flatten()
    if kind == "dropout":
        return Dropout(rate=float(spec["rate"]))
    raise FormatError(f"unknown layer kind {kind!r}")


def load_model(path):
    """Load a model directory written by save_model."""
    try:
        with open(os.path.join(path, "model.json")) as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"unreadable manifest: {exc}") from exc
    if manifest.get("magic") != MODEL_MAGIC:
        raise FormatError(f"bad magic {manifest.get('magic')!r}")
    if manifest.get("version") != MODEL_VERSION:
        raise FormatError(f"unsupported version {manifest.get('version')!r}")
    with open(os.path.join(path, "weights.bin"), "rb") as fh:
        blob = fh.read()
    expected = sum(int(np.prod(t["shape"])) for t in manifest["tensors"]) * 4
    if len(blob) != expected:
        raise FormatError(f"blob is {len(blob)} bytes, manifest implies {expected}")
    per_layer = {}
    offset = 0
    for t in manifest["tensors"]:
        size = int(np.prod(t["shape"])) * 4
        arr = np.frombuffer(blob[offset:offset + size], dtype="<f4").reshape(t["shape"])
        per_layer.setdefault(t["layer"], {})[t["name"]] = arr.astype(np.float64)
        offset += size
    layers = [_build_layer(spec, per_layer.get(i, {}))
              for i, spec in enumerate(manifest["layers"])]
    try:
        return Network(tuple(layers), tuple(manifest["input_shape"]),
                       tuple(manifest["capture_points"]))
    except (ShapeMismatch, ValueError, KeyError) as exc:
        raise FormatError(f"inconsistent model: {exc}") from exc


def with_layers(net, new_layers):
    """Copy of the network with the given layer list (revalidates shapes)."""
    return replace(net, layers=tuple(new_layers))
