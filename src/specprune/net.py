"""Network representation and the layer engine.

Layers are frozen dataclasses holding float64 numpy arrays; a Network is an
ordered, immutable sequence of them. Each layer kind declares its trainable
parameters and buffers and defines its forward and backward once, and both
inference and training (train.py) run them. Conv, BatchNorm and ReLU
outputs and their gradients are (n, c, h, w) in shape and batch-inner,
(c, h, w, n), in memory, in inference and training alike. The inference
forward (`apply_layer`, `forward`) uses running BatchNorm statistics and
skips dropout, and can capture post-activation values at declared capture
points. Models serialize to a JSON manifest plus a little-endian float32
weight blob.
"""

import json
import math
import numbers
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import FormatError, ShapeMismatch, TopologyError

MODEL_MAGIC = "SPNM1"
MODEL_VERSION = 1


# ---------------------------------------------------------------------------
# layer engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainMode:
    """Training context of a layer's forward. BatchNorm normalizes with the
    batch statistics and moves its running statistics toward them in place;
    rng draws the dropout masks, and None disables dropout."""

    rng: object = None


class Layer:
    """Base of the layer kinds.

    `params` names the trainable arrays and `buffers` the arrays training
    updates without a gradient; a None array (a dense layer without bias) is
    absent. Construction makes them C-contiguous float64, and each other
    field (a setting) a value of its declared type, then calls `_check`,
    which raises ShapeMismatch or ValueError for an invalid layer.
    `forward(x, index, mode)` returns (output, cache); mode is None for
    inference, else a TrainMode. From the cache of a training-mode forward
    and the output gradient, `backward(cache, dout, need_dx)` returns
    (dx, grads): the input gradient, None when need_dx is false, and the
    {name: gradient} of the layer's parameters, {} for a layer without any.
    """

    params = ()
    buffers = ()

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name not in self.params + self.buffers:
                object.__setattr__(self, f.name, f.type(value))
            elif value is not None:
                object.__setattr__(self, f.name, np.ascontiguousarray(value, dtype=np.float64))
        self._check()

    def _check(self):
        pass


@dataclass(frozen=True)
class Dense(Layer):
    weight: np.ndarray  # (out_features, in_features)
    bias: np.ndarray = None  # (out_features,) or None for a bias-free layer

    kind = "dense"
    params = ("weight", "bias")

    def _check(self):
        w, b = self.weight, self.bias
        if w.ndim != 2 or (b is not None and b.shape != (w.shape[0],)):
            raise ShapeMismatch(f"dense weight {w.shape} / bias {getattr(b, 'shape', None)}")

    def forward(self, x, index=None, mode=None):
        if x.ndim != 2 or x.shape[1] != self.weight.shape[1]:
            raise ShapeMismatch(f"dense expects (n, {self.weight.shape[1]}), got {x.shape}",
                                layer=index)
        out = x @ self.weight.T
        if self.bias is not None:
            out += self.bias
        return out, x

    def backward(self, x, dout, need_dx):
        grads = {"weight": dout.T @ x}
        if self.bias is not None:
            grads["bias"] = dout.sum(axis=0)
        return (dout @ self.weight if need_dx else None), grads


def conv2d_windows(x, kh, kw, stride, padding):
    """Strided view of all (kh, kw) patches: (n, c, oh, ow, kh, kw). The
    zero-padded copy is batch-inner, (c, h, w, n) in memory."""
    n, c, h, w = x.shape
    if padding:
        hp, wp = h + 2 * padding, w + 2 * padding
        xp = np.zeros((c, hp, wp, n), dtype=x.dtype).transpose(3, 0, 1, 2)
        xp[:, :, padding:padding + h, padding:padding + w] = x
        x = xp
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
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

    def __post_init__(self):
        # before the base class coerces them: int() truncates 1.5 and
        # overflows on 1e300
        _integers((self.stride, self.padding), "conv stride and padding")
        super().__post_init__()

    def _check(self):
        w, b = self.weight, self.bias
        if w.ndim != 4 or getattr(b, "shape", None) != (w.shape[0],):
            raise ShapeMismatch(f"conv weight {w.shape} / bias {getattr(b, 'shape', None)}")
        if self.stride < 1 or self.padding < 0:
            raise ValueError("bad stride/padding")

    # One lowering for inference and training: an im2col matrix with columns
    # in (oh, ow, n) order, gathered from a batch-inner (c, h, w, n) padded
    # buffer, so every copy runs over the batch. Its GEMM output is
    # (o, h, w, n) in memory, and BatchNorm and ReLU keep that order, so the
    # next conv pads it with contiguous copies. OpenBLAS rounds a GEMM's edge
    # tile differently, so a column's bits depend on where the batch's column
    # count puts it: on the default model's shapes they equal an einsum's at
    # n = 1 and at even n, and move by ulps at odd n >= 3. The backward reads
    # the output gradient as one (o, h·w·n) view, which feeds both GEMMs: the
    # weight gradient's, with a contiguous copy of the im2col matrix's
    # transpose (a transposed view changes the bits with the BLAS thread
    # count), and the input gradient's, whose columns are scattered back into
    # the windows (col2im) of a batch-inner buffer, so each strided add runs
    # over the batch. The input gradient is a batch-inner view of it.
    def forward(self, x, index=None, mode=None):
        oc, ic, kh, kw = self.weight.shape
        if x.ndim != 4 or x.shape[1] != ic:
            raise ShapeMismatch(f"conv expects (n, {ic}, h, w), got {x.shape}", layer=index)
        if x.shape[2] + 2 * self.padding < kh or x.shape[3] + 2 * self.padding < kw:
            raise ShapeMismatch(f"input {x.shape} smaller than kernel", layer=index)
        windows, (oh, ow) = conv2d_windows(x, kh, kw, self.stride, self.padding)
        cols = windows.transpose(1, 4, 5, 2, 3, 0).reshape(ic * kh * kw, -1)
        out = self.weight.reshape(oc, -1) @ cols
        out += self.bias[:, None]
        out = from_channel_rows(out, (x.shape[0], oc, oh, ow))
        return out, (None if mode is None else (cols, x.shape))

    def backward(self, cache, dout, need_dx):
        cols, (n, _, h, w) = cache
        oc, ic, kh, kw = self.weight.shape
        oh, ow = dout.shape[2], dout.shape[3]
        d2 = channel_rows(dout)
        grads = {"weight": (d2 @ np.ascontiguousarray(cols.T)).reshape(self.weight.shape),
                 "bias": d2.sum(axis=1)}
        if not need_dx:
            return None, grads
        pad, s = self.padding, self.stride
        dcols = (self.weight.reshape(oc, -1).T @ d2).reshape(ic, kh, kw, oh, ow, n)
        dxp = np.zeros((ic, h + 2 * pad, w + 2 * pad, n))
        for ki in range(kh):
            for kj in range(kw):
                dxp[:, ki:ki + s * oh:s, kj:kj + s * ow:s] += dcols[:, ki, kj]
        return dxp[:, pad:pad + h, pad:pad + w].transpose(3, 0, 1, 2), grads


@dataclass(frozen=True)
class ReLU(Layer):
    kind = "relu"

    def forward(self, x, index=None, mode=None):
        out = np.maximum(x, 0.0)
        return out, out

    def backward(self, out, dout, need_dx):
        return (dout * (out > 0) if need_dx else None), {}


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

    def _check(self):
        if any(getattr(self, n).shape != self.scale.shape for n in self.params + self.buffers):
            raise ShapeMismatch("batchnorm parameter shapes disagree")
        if not np.all(self.running_var > 0) or not self.eps >= 0:  # else 1/sqrt(var + eps) is NaN
            raise ValueError("batchnorm running variance must be positive and eps non-negative")

    def forward(self, x, index=None, mode=None):
        c = self.scale.shape[0]
        if x.shape[1] != c:
            raise ShapeMismatch(f"batchnorm over {c} channels, got {x.shape}", layer=index)
        # One body on the per-channel rows: inference takes the running
        # statistics, training the batch statistics, which it moves the
        # running ones toward. Both then compute (x - mean) * inv * scale +
        # shift, one step at a time in that order, so inference on given
        # statistics gives the bits of training on the same statistics.
        # Inference works in place on the centered rows; training keeps the
        # scaled xhat for the backward and writes its output over the squares
        # that gave the variance.
        rows = channel_rows(x)
        if mode is None:
            mean, var = self.running_mean, self.running_var
            xhat = rows - mean[:, None]
            out = xhat
        else:
            mean = rows.mean(axis=1)
            xhat = rows - mean[:, None]
            out = xhat * xhat
            var = out.mean(axis=1)
            for run, batch in ((self.running_mean, mean), (self.running_var, var)):
                run *= 1.0 - self.momentum
                run += self.momentum * batch
        inv = 1.0 / np.sqrt(var + self.eps)
        xhat *= inv[:, None]
        np.multiply(xhat, self.scale[:, None], out=out)
        out += self.shift[:, None]
        return from_channel_rows(out, x.shape), (None if mode is None else (xhat, inv))

    def backward(self, cache, dout, need_dx):
        xhat, inv = cache
        dc = channel_rows(dout)
        grads = {"scale": (dc * xhat).sum(axis=1), "shift": dc.sum(axis=1)}
        if not need_dx:
            return None, grads
        gain = (self.scale * inv)[:, None]
        # the fused gradient: the two sums above also give dx
        mean_part = xhat * grads["scale"][:, None]
        mean_part += grads["shift"][:, None]
        mean_part /= dc.shape[1]
        dx = dc - mean_part
        dx *= gain
        return from_channel_rows(dx, dout.shape), grads


def channel_rows(x):
    """(c, h·w·n) view of an (n, c, h, w) array, one row per channel, or
    the (c, n) transpose of an (n, c) one: BatchNorm reduces along its rows,
    and Conv2D's backward multiplies them. A 4-D array is copied unless it
    is batch-inner, (c, h, w, n) in memory, as every conv, BatchNorm and
    ReLU output and gradient is."""
    return x.T if x.ndim == 2 else x.transpose(1, 2, 3, 0).reshape(x.shape[1], -1)


def from_channel_rows(rows, shape):
    """The inverse of channel_rows: an array of the given (n, c[, h, w])
    shape viewing the (c, h·w·n) rows."""
    if len(shape) == 2:
        return rows.T
    n, c, h, w = shape
    return rows.reshape(c, h, w, n).transpose(3, 0, 1, 2)


@dataclass(frozen=True)
class Flatten(Layer):
    kind = "flatten"

    def forward(self, x, index=None, mode=None):
        # C-contiguous whatever the input's memory order: the next Dense GEMM
        # gets the bits of a transposed operand otherwise
        return np.ascontiguousarray(x.reshape(x.shape[0], -1)), x.shape

    def backward(self, shape, dout, need_dx):
        return (dout.reshape(shape) if need_dx else None), {}


@dataclass(frozen=True)
class Dropout(Layer):
    """Bernoulli masking during training (with an rng), identity otherwise."""

    rate: float = 0.5

    kind = "dropout"

    def _check(self):
        if not 0.0 <= self.rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {self.rate}")

    def forward(self, x, index=None, mode=None):
        if mode is None or mode.rng is None or self.rate <= 0.0:
            return x, None
        keep = 1.0 - self.rate
        mask = (mode.rng.random(x.shape) < keep) / keep
        return x * mask, mask

    def backward(self, mask, dout, need_dx):
        if not need_dx:
            return None, {}
        return (dout if mask is None else dout * mask), {}


# the layer classes by the `kind` a model manifest names
LAYER_KINDS = {cls.kind: cls for cls in (Dense, Conv2D, ReLU, BatchNorm, Flatten, Dropout)}


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


@dataclass(frozen=True)
class Network:
    """Immutable network: layers, input shape, and capture-point indices.

    Capture points must be distinct and index ReLU layers (activations are
    captured immediately after the nonlinearity); they and the input shape
    must be integers. Construction dry-runs the forward pass on a zero batch
    so shape errors surface early.
    """

    layers: tuple
    input_shape: tuple
    capture_points: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "input_shape", _integers(self.input_shape, "input shape"))
        object.__setattr__(self, "capture_points", _integers(self.capture_points, "capture points"))
        if len(set(self.capture_points)) != len(self.capture_points):
            raise ValueError(f"capture points {self.capture_points} repeat a layer")
        for cp in self.capture_points:
            if not (0 <= cp < len(self.layers)) or not isinstance(self.layers[cp], ReLU):
                raise ValueError(f"capture point {cp} does not follow an activation")
        forward(self, np.zeros((1,) + self.input_shape))


def _integers(values, what):
    if not all(isinstance(v, numbers.Integral) for v in values):
        raise ValueError(f"{what} must be integers, got {values!r}")
    return tuple(int(v) for v in values)


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


def as_input(net, batch):
    """The batch as float64, checked against the network's input shape."""
    x = np.asarray(batch, dtype=np.float64)
    if x.shape[1:] != net.input_shape:
        raise ShapeMismatch(f"batch shape {x.shape[1:]} != input shape {net.input_shape}")
    return x


def forward(net, batch, capture=()):
    """Run the network on a batch, returning (logits, captured activations).

    `capture` is an iterable of capture-point ids; captured activations are
    post-activation and are returned in network order.
    """
    x = as_input(net, batch)
    wanted = set(capture)
    captured = []
    for i, layer in enumerate(net.layers):
        x = apply_layer(layer, x, index=i)
        if i in wanted:
            captured.append(ActivationBatch(layer=i, samples=capture_rows(x)))
    return x, captured


def shared_depth(a, b):
    """Number of leading layers two networks share as the very same objects;
    inference through them gives the same activations in both."""
    if a.input_shape != b.input_shape:
        return 0
    depth = 0
    for x, y in zip(a.layers, b.layers):
        if x is not y:
            break
        depth += 1
    return depth


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
    raise TopologyError(f"capture point {cp} has no feeding Dense/Conv layer")


# ---------------------------------------------------------------------------
# accounting
# ---------------------------------------------------------------------------

def count_params(net):
    """Exact element count of the trainable arrays: weights and biases, and
    BatchNorm scale/shift (running statistics are buffers, not counted)."""
    return sum(getattr(layer, n).size for layer in net.layers for n in param_fields(layer))


def count_flops(net):
    """Multiply-accumulate count of Dense/Conv forward passes for one sample."""
    x = np.zeros((1,) + net.input_shape)
    total = 0
    for layer in net.layers:
        x = apply_layer(layer, x)
        if isinstance(layer, (Dense, Conv2D)):
            total += layer.weight.size * math.prod(x.shape[2:])  # conv: per output position
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
    """Write weights.bin, then model.json, into the directory `path`.

    The manifest is written last and moved into place whole, so an
    interrupted save leaves no model.json, and a directory that has one
    holds a complete model."""
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
    with open(os.path.join(path, "weights.bin"), "wb") as fh:
        fh.write(b"".join(chunks))
    tmp = os.path.join(path, "model.json.tmp")
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, indent=1)
    os.replace(tmp, os.path.join(path, "model.json"))


def _build_layer(spec, arrays):
    """The class of the entry's kind, called with the tensors and the
    entry's values of its other fields. The entry must be the one
    save_model writes for the layer, so its derived values (a dense entry's
    has_bias, say) agree with the tensors."""
    cls = LAYER_KINDS.get(spec.get("kind"))
    if cls is None:
        raise FormatError(f"unknown layer kind {spec.get('kind')!r}")
    tensors = cls.params + cls.buffers
    if not set(arrays) <= set(tensors):
        raise FormatError(f"unexpected tensors {sorted(set(arrays) - set(tensors))}")
    settings = {f.name: spec[f.name] for f in fields(cls) if f.name not in tensors}
    layer = cls(**arrays, **settings)
    entry = _layer_manifest(layer)
    wrong = {k: (spec.get(k), entry.get(k)) for k in sorted(entry.keys() | spec.keys())
             if spec.get(k) != entry.get(k)}
    if wrong:
        raise FormatError(f"entry values disagree with the tensors (entry, tensors): {wrong}")
    return layer


def load_model(path):
    """Load a model directory written by save_model.

    Raises FormatError, naming the file or layer, for a missing, unreadable
    or inconsistent part, a tensor the manifest lists twice, or a NaN or Inf
    in any tensor."""
    manifest_path = os.path.join(path, "model.json")
    weights_path = os.path.join(path, "weights.bin")
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        with open(weights_path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:  # its message names the file
        raise FormatError(f"unreadable model file: {exc}") from exc
    except ValueError as exc:  # not JSON, or not UTF-8
        raise FormatError(f"{manifest_path}: unreadable manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise FormatError(f"{manifest_path}: not a JSON object")
    if manifest.get("magic") != MODEL_MAGIC:
        raise FormatError(f"bad magic {manifest.get('magic')!r}")
    if manifest.get("version") != MODEL_VERSION:
        raise FormatError(f"unsupported version {manifest.get('version')!r}")
    try:
        specs = list(manifest["layers"])
        index = [(int(t["layer"]), t["name"], tuple(int(d) for d in t["shape"]))
                 for t in manifest["tensors"]]
        expected = sum(int(np.prod(shape)) for _, _, shape in index) * 4
        if len(blob) != expected:
            raise FormatError(f"{weights_path}: blob is {len(blob)} bytes, "
                              f"manifest implies {expected}")
        per_layer = {}
        offset = 0
        for layer, name, shape in index:
            if not 0 <= layer < len(specs):
                raise FormatError(f"{manifest_path}: layer {layer}: no such layer, "
                                  f"the manifest lists {len(specs)}")
            size = int(np.prod(shape)) * 4
            arr = np.frombuffer(blob[offset:offset + size], dtype="<f4").reshape(shape)
            if not np.isfinite(arr).all():
                raise FormatError(f"{weights_path}: layer {layer} {name}: non-finite values")
            arrays = per_layer.setdefault(layer, {})
            if name in arrays:
                raise FormatError(f"{manifest_path}: layer {layer} {name}: listed twice")
            arrays[name] = arr.astype(np.float64)
            offset += size
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{manifest_path}: bad or missing entry {exc!r}") from exc
    layers = []
    for i, spec in enumerate(specs):
        try:
            layers.append(_build_layer(spec, per_layer.get(i, {})))
        except (KeyError, TypeError, ValueError, AttributeError, FormatError, ShapeMismatch) as exc:
            raise FormatError(f"{manifest_path}: layer {i}: {exc!r}") from exc
    try:
        return Network(tuple(layers), tuple(manifest["input_shape"]),
                       tuple(manifest["capture_points"]))
    except (ShapeMismatch, ValueError, KeyError, TypeError, OverflowError) as exc:
        # OverflowError: a conv stride too large for the strides of its windows
        raise FormatError(f"inconsistent model: {exc}") from exc


def with_layers(net, new_layers):
    """Copy of the network with the given layer objects (revalidates shapes)."""
    return replace(net, layers=tuple(new_layers))
