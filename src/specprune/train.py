"""Training on the layer engine of net.py: softmax cross-entropy, SGD and
Adam, and seeded shuffling.

Training updates private copies of every layer's arrays; to keep the weights
of some lower layers, the caller trains only the layers above them, on their
output (pipeline.train_model). Each layer runs the forward that inference
runs, in training mode (BatchNorm on batch statistics with a
running-statistics update, dropout masks drawn from the seeded generator),
on activations in the one layout of net.py: batch-inner, (c, h, w, n), in
memory for conv features. Training back-propagates through each layer's own
backward from the top down to the lowest layer with a trainable parameter,
and the gradients keep that layout. Training is single-threaded and
reproducible: identical (net, data, cfg) give identical final weights on one
platform.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import net as nm
from .errors import Diverged, ShapeMismatch

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# test samples evaluate runs through the networks at once
EVAL_BATCH_SIZE = 512


@dataclass
class TrainConfig:
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    weight_decay: float = 5e-4
    batch_size: int = 50
    epochs: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.learning_rate < 0 or self.batch_size < 1 or self.epochs < 0:
            raise ValueError("bad learning_rate/batch_size/epochs")


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy and its gradient with respect to the logits."""
    z = logits - logits.max(axis=1, keepdims=True)
    logsum = np.log(np.exp(z).sum(axis=1, keepdims=True))
    n = len(labels)
    rows = np.arange(n)
    loss = float((logsum[rows, 0] - z[rows, labels]).mean())
    grad = np.exp(z - logsum)
    grad[rows, labels] -= 1.0
    return loss, grad / n


# ---------------------------------------------------------------------------
# training-mode forward/backward
# ---------------------------------------------------------------------------

def _private(layers):
    """The layers, with private copies of their parameters and buffers."""
    return [replace(layer, **{n: getattr(layer, n).copy() for n in nm.tensor_fields(layer)})
            for layer in layers]


def _forward_train(layers, mode, x):
    """Training-mode forward under mode (a net.TrainMode): (logits,
    per-layer backward caches)."""
    caches = []
    for i, layer in enumerate(layers):
        x, cache = layer.forward(x, i, mode)
        caches.append(cache)
    return x, caches


def _backward(layers, caches, dout):
    """{(layer, name): grad} for the parameters of every layer.

    Back-propagates from the top down to the lowest layer with a parameter,
    one backward call per layer, and asks that layer for no input gradient.
    """
    stop = next((i for i, layer in enumerate(layers) if nm.param_fields(layer)), None)
    if stop is None:
        return {}
    grads = {}
    for i in range(len(layers) - 1, stop - 1, -1):
        dout, layer_grads = layers[i].backward(caches[i], dout, i > stop)
        grads.update(((i, name), g) for name, g in layer_grads.items())
    return grads


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

class _Sgd:
    def __init__(self, lr, wd):
        self.lr, self.wd = lr, wd

    def step(self, layers, grads):
        for (i, name), g in grads.items():
            w = getattr(layers[i], name)
            w -= self.lr * (g + self.wd * w)


class _Adam:
    """Adam with the weight decay folded into the gradient: g + wd·w feeds
    both moments, and w -= lr·(m/bc1)/(√(v/bc2) + eps). Each product and
    quotient is taken in that order, but written into two scratch arrays per
    parameter instead of new ones, so the update keeps the bits of the
    expression as written."""

    def __init__(self, lr, wd):
        self.lr, self.wd = lr, wd
        self.m, self.v, self.scratch = {}, {}, {}
        self.t = 0

    def step(self, layers, grads):
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for key, g in grads.items():
            i, name = key
            w = getattr(layers[i], name)
            if key not in self.m:
                self.m[key], self.v[key] = np.zeros_like(w), np.zeros_like(w)
                self.scratch[key] = np.empty_like(w), np.empty_like(w)
            m, v = self.m[key], self.v[key]
            a, b = self.scratch[key]
            np.multiply(w, self.wd, out=a)
            a += g  # the decayed gradient
            m *= ADAM_BETA1
            m += np.multiply(a, 1.0 - ADAM_BETA1, out=b)
            v *= ADAM_BETA2
            np.multiply(a, 1.0 - ADAM_BETA2, out=b)
            b *= a
            v += b
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            b += ADAM_EPS
            np.divide(m, bc1, out=a)
            a *= self.lr
            a /= b
            w -= a


#: The optimizer classes by config name, the one list of the names.
OPTIMIZERS = {"sgd": _Sgd, "adam": _Adam}


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def _stack(datasets, input_shape):
    for ds in datasets:
        if ds.features.shape[1:] != input_shape:
            raise ShapeMismatch(f"{ds.domain}/{ds.split} features {ds.features.shape[1:]} "
                                f"!= input shape {input_shape}")
    n_classes = {ds.n_classes for ds in datasets}
    if len(n_classes) != 1:
        raise ValueError("datasets disagree on class count")
    feats = np.concatenate([ds.features for ds in datasets], axis=0)
    labels = np.concatenate([ds.labels for ds in datasets], axis=0)
    return feats, labels


def train(network, data, cfg):
    """Train every layer on the concatenated datasets; returns a new network.

    Raises ShapeMismatch before the first step when a dataset's feature
    shape is not the network's input shape, and Diverged when the loss
    becomes non-finite.
    """
    feats, labels = _stack(list(data), network.input_shape)
    layers = _private(network.layers)
    rng = np.random.default_rng(cfg.seed)
    mode = nm.TrainMode(rng)
    opt = OPTIMIZERS[cfg.optimizer](cfg.learning_rate, cfg.weight_decay)
    n = len(labels)
    for _epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            logits, caches = _forward_train(layers, mode, feats[idx])
            loss, dlogits = softmax_cross_entropy(logits, labels[idx])
            if not math.isfinite(loss):
                raise Diverged(f"loss became {loss}")
            opt.step(layers, _backward(layers, caches, dlogits))
    return nm.with_layers(network, layers)


def evaluate(networks, ds):
    """Fraction of argmax-correct predictions of each network on ds, in
    order (argmax ties go to the lowest class).

    The networks of a sweep share work. Each batch runs through the
    networks in turn: a network resumes from the activation the network
    before it left after the leading layer objects the two share
    (`net.shared_depth`), and leaves its own after the layers it shares with
    the next one. When that depth is below the one it resumed from, it
    leaves nothing, and the next network runs from the input. Only one
    batch's activation at one depth is held at a time, and each accuracy is
    bit-identical to that of the network evaluated alone.
    """
    keeps = [nm.shared_depth(a, b) for a, b in zip(networks, networks[1:])] + [0]
    correct = [0] * len(networks)
    for lo in range(0, len(ds), EVAL_BATCH_SIZE):
        labels = ds.labels[lo:lo + EVAL_BATCH_SIZE]
        held, depth = None, 0
        for k, network in enumerate(networks):
            x = held if depth else nm.as_input(network, ds.features[lo:lo + EVAL_BATCH_SIZE])
            held, keep = None, keeps[k]
            for i in range(depth, len(network.layers)):
                if i == keep:
                    held = x
                x = nm.apply_layer(network.layers[i], x, index=i)
            if keep == len(network.layers):
                held = x
            correct[k] += int((x.argmax(axis=1) == labels).sum())
            depth = keep if held is not None else 0
    return [c / len(ds) for c in correct]

