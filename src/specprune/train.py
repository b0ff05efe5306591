"""Training on the layer engine of net.py: softmax cross-entropy, SGD and
Adam, layer freezing and seeded shuffling.

Training runs each layer's own forward in a training mode (BatchNorm on batch
statistics with a running-statistics update, dropout masks drawn from the
seeded generator) and back-propagates through each layer's own backward from
the top down to the lowest layer with a trainable parameter. Training is
single-threaded and reproducible: identical (net, data, cfg) give identical
final weights on one platform. Frozen layers keep their original arrays
(bit-identical) and run with running BatchNorm statistics and no dropout.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import net as nm
from .errors import Diverged, ShapeMismatch

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    weight_decay: float = 5e-4
    batch_size: int = 50
    epochs: int = 10
    freeze: frozenset = field(default_factory=frozenset)
    seed: int = 0

    def __post_init__(self):
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.learning_rate < 0 or self.batch_size < 1 or self.epochs < 0:
            raise ValueError("bad learning_rate/batch_size/epochs")
        object.__setattr__(self, "freeze", frozenset(int(i) for i in self.freeze))


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

def _private(layers, freeze):
    """The layers, with private copies of the parameters and buffers of every
    layer not in freeze; frozen layers are the original objects."""
    return [layer if i in freeze else
            replace(layer, **{n: getattr(layer, n).copy() for n in nm.tensor_fields(layer)})
            for i, layer in enumerate(layers)]


def _forward_train(layers, freeze, x, rng, update_buffers=True):
    """Training-mode forward: (logits, per-layer backward caches).

    Frozen layers run with running BatchNorm statistics and no dropout.
    rng=None disables dropout everywhere.
    """
    live = nm.TrainMode(rng, batch_stats=True, update_buffers=update_buffers)
    caches = []
    for i, layer in enumerate(layers):
        x, cache = layer.forward(x, i, nm.FROZEN if i in freeze else live)
        caches.append(cache)
    return x, caches


def _backward(layers, freeze, caches, dout):
    """{(layer, name): grad} for the parameters of every unfrozen layer.

    Back-propagates from the top down to the lowest layer with an unfrozen
    parameter, and does not compute that layer's input gradient.
    """
    trainable = [i for i, layer in enumerate(layers)
                 if i not in freeze and nm.param_fields(layer)]
    if not trainable:
        return {}
    stop = trainable[0]
    grads = {}
    for i in range(len(layers) - 1, stop - 1, -1):
        if i in trainable:
            for name, g in layers[i].param_grads(caches[i], dout).items():
                grads[(i, name)] = g
        if i > stop:
            dout = layers[i].backward(caches[i], dout)
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
    def __init__(self, lr, wd):
        self.lr, self.wd = lr, wd
        self.m, self.v = {}, {}
        self.t = 0

    def step(self, layers, grads):
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for key, g in grads.items():
            i, name = key
            w = getattr(layers[i], name)
            g = g + self.wd * w
            m = self.m.setdefault(key, np.zeros_like(w))
            v = self.v.setdefault(key, np.zeros_like(w))
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            w -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


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
    """Train on the concatenated datasets; returns a new network.

    Layer indices in cfg.freeze are left bit-identical and run with running
    BatchNorm statistics and no dropout. Raises ShapeMismatch before the
    first step when a dataset's feature shape is not the network's input
    shape, and Diverged when the loss becomes non-finite.
    """
    for i in cfg.freeze:
        if not 0 <= i < len(network.layers):
            raise ValueError(f"freeze index {i} out of range")
    feats, labels = _stack(list(data), network.input_shape)
    layers = _private(network.layers, cfg.freeze)
    rng = np.random.default_rng(cfg.seed)
    opt = (_Adam if cfg.optimizer == "adam" else _Sgd)(cfg.learning_rate, cfg.weight_decay)
    n = len(labels)
    for _epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            logits, caches = _forward_train(layers, cfg.freeze, feats[idx], rng)
            loss, dlogits = softmax_cross_entropy(logits, labels[idx])
            if not math.isfinite(loss):
                raise Diverged(f"loss became {loss}")
            opt.step(layers, _backward(layers, cfg.freeze, caches, dlogits))
    return nm.with_layers(network, layers)


def evaluate(network, ds, batch_size=512):
    """Fraction of argmax-correct predictions (argmax ties go to the lowest class)."""
    correct = 0
    for start in range(0, len(ds), batch_size):
        logits, _ = nm.forward(network, ds.features[start:start + batch_size])
        correct += int((logits.argmax(axis=1) == ds.labels[start:start + batch_size]).sum())
    return correct / len(ds)


def dataset_loss(network, ds, batch_size=512):
    """Mean cross-entropy over a dataset (inference mode)."""
    total = 0.0
    for start in range(0, len(ds), batch_size):
        logits, _ = nm.forward(network, ds.features[start:start + batch_size])
        loss, _ = softmax_cross_entropy(logits, ds.labels[start:start + batch_size])
        total += loss * len(logits)
    return total / len(ds)


def gradients(network, feats, labels):
    """Analytic parameter gradients of the mean cross-entropy on one batch
    (dropout disabled, no buffer updates)."""
    logits, caches = _forward_train(network.layers, (), feats, None, update_buffers=False)
    _, dlogits = softmax_cross_entropy(logits, labels)
    return _backward(network.layers, (), caches, dlogits)


def grad_check(network, feats, labels, epsilon=1e-3):
    """Max discrepancy between analytic and central-difference gradients,
    relative to the largest gradient magnitude.

    Runs with dropout disabled and BatchNorm in batch-statistics mode without
    buffer updates, so the loss is a deterministic function of the weights.
    Intended for small networks (< 5000 parameters).
    """
    n_params = nm.count_params(network)
    if n_params >= 5000:
        raise ValueError(f"grad_check is for small networks, got {n_params} params")
    grads = gradients(network, feats, labels)
    layers = _private(network.layers, ())

    def loss_fn():
        logits, _ = _forward_train(layers, (), feats, None, update_buffers=False)
        return softmax_cross_entropy(logits, labels)[0]

    worst = 0.0
    scale = max(max(float(np.max(np.abs(g))) for g in grads.values()), 1e-12)
    for (i, name), g in sorted(grads.items()):
        flat = getattr(layers[i], name).reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + epsilon
            lp = loss_fn()
            flat[k] = orig - epsilon
            lm = loss_fn()
            flat[k] = orig
            numeric = (lp - lm) / (2.0 * epsilon)
            worst = max(worst, abs(float(g.reshape(-1)[k]) - numeric) / scale)
    return worst
