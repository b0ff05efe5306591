"""Central-difference check of the training engine's analytic gradients."""

import numpy as np

from specprune import net as nm
from specprune import train as tr

KINK_STEP = 1e-2  # step factor for an entry whose difference step crosses a ReLU kink


def gradients(network, feats, labels):
    """Analytic gradients of the mean cross-entropy on one batch for the
    parameters of every layer (dropout disabled).

    Runs on private copies of the layers, whose BatchNorm running statistics
    the training-mode forward updates; the training forward does not read
    them, so the gradients are those of the network's own arrays.
    """
    layers = tr._private(network.layers)
    logits, caches = tr._forward_train(layers, nm.TrainMode(), feats)
    _, dlogits = tr.softmax_cross_entropy(logits, labels)
    return tr._backward(layers, caches, dlogits)


def grad_check(network, feats, labels, epsilon=1e-3):
    """Max discrepancy between analytic and central-difference gradients,
    relative to the largest gradient magnitude.

    Runs on private copies of the layers with dropout disabled and BatchNorm
    on batch statistics, so the loss is a deterministic function of the
    weights. When the two steps of an entry's difference leave some ReLU
    output with a different sign pattern, the step crossed a kink, where the
    difference is not the derivative; that entry is checked again with the
    step scaled by KINK_STEP. Intended for small networks (< 5000 parameters).
    """
    n_params = nm.count_params(network)
    if n_params >= 5000:
        raise ValueError(f"grad_check is for small networks, got {n_params} params")
    grads = gradients(network, feats, labels)
    layers = tr._private(network.layers)
    relus = [i for i, layer in enumerate(layers) if isinstance(layer, nm.ReLU)]

    def difference(flat, k, step):
        """The central difference at entry k, and whether it crossed a kink."""
        orig = flat[k]
        sides = []
        for value in (orig + step, orig - step):
            flat[k] = value
            logits, caches = tr._forward_train(layers, nm.TrainMode(), feats)
            sides.append((tr.softmax_cross_entropy(logits, labels)[0],
                          [caches[i] > 0 for i in relus]))
        flat[k] = orig
        (lp, signs_p), (lm, signs_m) = sides
        kink = any(not np.array_equal(a, b) for a, b in zip(signs_p, signs_m))
        return (lp - lm) / (2.0 * step), kink

    worst = 0.0
    scale = max(max(float(np.max(np.abs(g))) for g in grads.values()), 1e-12)
    for (i, name), g in sorted(grads.items()):
        flat = getattr(layers[i], name).reshape(-1)
        for k in range(flat.size):
            numeric, kink = difference(flat, k, epsilon)
            if kink:
                numeric, _ = difference(flat, k, epsilon * KINK_STEP)
            worst = max(worst, abs(float(g.reshape(-1)[k]) - numeric) / scale)
    return worst
