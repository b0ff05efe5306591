"""Central-difference check of the training engine's analytic gradients."""

import numpy as np

from specprune import net as nm
from specprune import train as tr


def gradients(network, feats, labels, freeze=frozenset()):
    """Analytic gradients of the mean cross-entropy on one batch for the
    parameters of every layer not in freeze (dropout disabled, no buffer
    updates)."""
    logits, caches = tr._forward_train(network.layers, freeze, feats, None,
                                       update_buffers=False)
    _, dlogits = tr.softmax_cross_entropy(logits, labels)
    return tr._backward(network.layers, freeze, caches, dlogits)


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
    layers = tr._private(network.layers, ())

    def loss_fn():
        logits, _ = tr._forward_train(layers, (), feats, None, update_buffers=False)
        return tr.softmax_cross_entropy(logits, labels)[0]

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
