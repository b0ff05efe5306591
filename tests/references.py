"""Reference forms of training arithmetic. The faster forms in src/ must
reproduce them bit for bit."""

import numpy as np

from specprune import net as nm
from specprune import train as tr


def conv_backward(layer, cache, dout):
    """Conv2D's input and weight gradients with the input-gradient GEMM over
    the output gradient's columns in (n, h, w) order, scattered (col2im) into
    a channel-major (c, n, H, W) buffer: (dx, weight gradient)."""
    cols, (n, _, h, w) = cache
    oc, ic, kh, kw = layer.weight.shape
    oh, ow = dout.shape[2], dout.shape[3]
    d2 = dout.transpose(1, 0, 2, 3).reshape(oc, -1)
    dw = (d2 @ np.ascontiguousarray(cols.T)).reshape(layer.weight.shape)
    pad, s = layer.padding, layer.stride
    dcols = (layer.weight.reshape(oc, -1).T @ d2).reshape(ic, kh, kw, n, oh, ow)
    dxp = np.zeros((ic, n, h + 2 * pad, w + 2 * pad))
    for ki in range(kh):
        for kj in range(kw):
            dxp[:, :, ki:ki + s * oh:s, kj:kj + s * ow:s] += dcols[:, ki, kj]
    return dxp[:, :, pad:pad + h, pad:pad + w].transpose(1, 0, 2, 3), dw


def batchnorm_forward(layer, x, batch_stats):
    """BatchNorm's training forward with a new array for each step; like the
    layer's, it moves the running statistics in batch-statistics mode:
    (output, the cache that batchnorm_backward reads)."""
    xc = nm.channel_rows(x)
    if batch_stats:
        mu = xc.mean(axis=1)
        centered = xc - mu[:, None]
        var = (centered * centered).mean(axis=1)
        layer.running_mean[:] = layer.running_mean * (1.0 - layer.momentum) + layer.momentum * mu
        layer.running_var[:] = layer.running_var * (1.0 - layer.momentum) + layer.momentum * var
    else:
        centered = xc - layer.running_mean[:, None]
        var = layer.running_var
    inv = 1.0 / np.sqrt(var + layer.eps)
    xhat = centered * inv[:, None]
    out = xhat * layer.scale[:, None] + layer.shift[:, None]
    return nm.from_channel_rows(out, x.shape), (xhat, inv, batch_stats)


def batchnorm_backward(layer, cache, dout):
    """BatchNorm's backward with a new array for each step: (dx, grads)."""
    xhat, inv, batch_stats = cache
    dc = nm.channel_rows(dout)
    grads = {"scale": (dc * xhat).sum(axis=1), "shift": dc.sum(axis=1)}
    gain = (layer.scale * inv)[:, None]
    if batch_stats:
        count = dc.shape[1]
        dc = dc - (xhat * grads["scale"][:, None] + grads["shift"][:, None]) / count
    return nm.from_channel_rows(dc * gain, dout.shape), grads


def adam(params, grad_steps, lr, wd):
    """The textbook Adam update with weight decay folded into the gradient,
    over a list of steps, each a list of gradients aligned with params (new
    arrays, the inputs are left alone): (params, m, v)."""
    params = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grad_steps, start=1):
        bc1 = 1.0 - tr.ADAM_BETA1 ** t
        bc2 = 1.0 - tr.ADAM_BETA2 ** t
        for w, mk, vk, g in zip(params, m, v, grads):
            g = g + wd * w
            mk *= tr.ADAM_BETA1
            mk += (1.0 - tr.ADAM_BETA1) * g
            vk *= tr.ADAM_BETA2
            vk += (1.0 - tr.ADAM_BETA2) * g * g
            w -= lr * (mk / bc1) / (np.sqrt(vk / bc2) + tr.ADAM_EPS)
    return params, m, v
