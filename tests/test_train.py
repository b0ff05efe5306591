import types

import numpy as np
import pytest

from specprune import net as nm
from specprune import spectral as sp
from specprune import train as tr
from specprune.datasets import DomainDataset
from specprune.errors import Diverged, ShapeMismatch

import gradcheck
import references
from gradcheck import grad_check, gradients


def blob_data(rng, n=200, sep=2.0, std=0.3):
    """Two linearly separable 2-d blobs; separability asserted, not assumed."""
    half = n // 2
    x0 = rng.normal(size=(half, 2)) * std + [-sep, 0.0]
    x1 = rng.normal(size=(half, 2)) * std + [sep, 0.0]
    feats = np.concatenate([x0, x1])
    labels = np.repeat([0, 1], half)
    assert x0[:, 0].max() < x1[:, 0].min()  # closed-form separable along x
    return DomainDataset("source", "train", feats, labels, n_classes=2)


def blob_net(rng):
    return nm.Network(
        (nm.Dense(rng.normal(size=(8, 2)) * 0.5, np.zeros(8)), nm.ReLU(),
         nm.Dense(rng.normal(size=(2, 8)) * 0.5, np.zeros(2))), (2,))


def tiny_cnn(rng, with_bn=True, bias_scale=0.3, stride=1):
    layers = [nm.Conv2D(rng.normal(size=(3, 1, 3, 3)) * 0.6,
                        rng.normal(size=3) * bias_scale, stride=stride, padding=1)]
    if with_bn:
        layers.append(nm.BatchNorm(np.full(3, 1.2), rng.normal(size=3) * 0.1,
                                   np.zeros(3), np.ones(3)))
    side = 3 // stride + 1  # of the 4x4 input at padding 1
    layers += [nm.ReLU(), nm.Flatten(), nm.Dropout(0.25),
               nm.Dense(rng.normal(size=(4, 3 * side * side)) * 0.4, rng.normal(size=4) * 0.1)]
    return nm.Network(tuple(layers), (1, 4, 4), capture_points=(2 if with_bn else 1,))


def test_zero_epochs_unchanged():
    rng = np.random.default_rng(0)
    netw = blob_net(rng)
    out = tr.train(netw, [blob_data(rng)], tr.TrainConfig(epochs=0))
    for a, b in zip(netw.layers, out.layers):
        if isinstance(a, nm.Dense):
            assert np.array_equal(a.weight, b.weight)
            assert np.array_equal(a.bias, b.bias)


def test_separable_blobs_reach_99():
    rng = np.random.default_rng(1)
    data = blob_data(rng)
    netw = blob_net(rng)
    cfg = tr.TrainConfig(optimizer="adam", learning_rate=5e-3, weight_decay=0.0,
                         batch_size=32, epochs=20, seed=3)
    trained = tr.train(netw, [data], cfg)
    assert tr.evaluate([trained], data)[0] >= 0.99
    losses = [tr.softmax_cross_entropy(nm.forward(n, data.features)[0], data.labels)[0]
              for n in (trained, netw)]
    assert losses[0] < losses[1]


def test_training_reproducible():
    rng = np.random.default_rng(4)
    data = blob_data(rng)
    netw = blob_net(rng)
    cfg = tr.TrainConfig(epochs=4, seed=11)
    w1 = tr.train(netw, [data], cfg).layers[0].weight
    w2 = tr.train(netw, [data], cfg).layers[0].weight
    assert np.array_equal(w1, w2)


def test_zero_lr_zero_wd_unchanged():
    rng = np.random.default_rng(5)
    data = blob_data(rng)
    netw = blob_net(rng)
    for opt in ("sgd", "adam"):
        out = tr.train(netw, [data], tr.TrainConfig(
            optimizer=opt, learning_rate=0.0, weight_decay=0.0, epochs=2, seed=0))
        assert np.array_equal(out.layers[0].weight, netw.layers[0].weight)


def test_adam_step_keeps_the_textbook_bits():
    # the in-place update against the reference expression, three steps
    # with weight decay on parameters of mixed shapes; parameters of the
    # update's size, so a changed last bit of an update shows in them
    rng = np.random.default_rng(3)
    shapes = ((5, 3, 3, 3), (5,), (7, 20), (1,))
    params = [rng.normal(size=s) * 1e-3 for s in shapes]
    grad_steps = [[rng.normal(size=s) for s in shapes] for _ in range(3)]
    layers = [types.SimpleNamespace(w=p.copy()) for p in params]
    opt = tr._Adam(1e-3, 5e-4)
    for grads in grad_steps:
        opt.step(layers, {(i, "w"): g.copy() for i, g in enumerate(grads)})
    want, m, v = references.adam(params, grad_steps, 1e-3, 5e-4)
    for i in range(len(shapes)):
        assert np.array_equal(layers[i].w, want[i])
        assert np.array_equal(opt.m[i, "w"], m[i])
        assert np.array_equal(opt.v[i, "w"], v[i])
    assert not np.array_equal(layers[0].w, params[0])


def test_divergence_detected():
    rng = np.random.default_rng(6)
    data = blob_data(rng, sep=5.0)
    netw = blob_net(rng)
    cfg = tr.TrainConfig(optimizer="sgd", learning_rate=1e12, weight_decay=0.0,
                         epochs=10, seed=0)
    with np.errstate(all="ignore"), pytest.raises(Diverged):
        tr.train(netw, [data], cfg)


def test_evaluate_constant_logits_balanced():
    netw = nm.Network((nm.Dense(np.zeros((10, 4)), np.zeros(10)),), (4,))
    rng = np.random.default_rng(7)
    feats = rng.normal(size=(100, 4))
    labels = np.arange(100) % 10
    ds = DomainDataset("target", "test", feats, labels)
    assert tr.evaluate([netw], ds)[0] == pytest.approx(0.1)


def test_memorize_single_batch():
    rng = np.random.default_rng(8)
    feats = rng.normal(size=(20, 2)) * 3.0
    labels = rng.integers(0, 2, 20)
    ds = DomainDataset("source", "train", feats, labels, n_classes=2)
    netw = nm.Network(
        (nm.Dense(rng.normal(size=(32, 2)) * 0.5, np.zeros(32)), nm.ReLU(),
         nm.Dense(rng.normal(size=(2, 32)) * 0.5, np.zeros(2))), (2,))
    cfg = tr.TrainConfig(optimizer="adam", learning_rate=2e-2, weight_decay=0.0,
                         batch_size=20, epochs=400, seed=1)
    assert tr.evaluate([tr.train(netw, [ds], cfg)], ds) == [1.0]


def test_grad_check_dense_only():
    rng = np.random.default_rng(13)
    netw = nm.Network(
        (nm.Dense(rng.normal(size=(8, 6)) * 0.5, rng.normal(size=8) * 0.3), nm.ReLU(),
         nm.Dense(rng.normal(size=(5, 8)) * 0.5, rng.normal(size=5) * 0.3)), (6,))
    feats = rng.normal(size=(12, 6))
    labels = rng.integers(0, 5, 12)
    # keep pre-activations away from the ReLU kink for the difference step
    pre = feats @ netw.layers[0].weight.T + netw.layers[0].bias
    assert np.abs(pre).min() > 1e-2
    assert grad_check(netw, feats, labels, epsilon=1e-3) < 1e-4


def test_grad_check_conv_net():
    rng = np.random.default_rng(12)
    netw = tiny_cnn(rng)
    feats = rng.normal(size=(6, 1, 4, 4))
    labels = rng.integers(0, 4, 6)
    assert grad_check(netw, feats, labels, epsilon=1e-3) < 1e-3
    # BatchNorm's batch statistics cancel the conv bias gradient; without
    # BatchNorm the check covers it
    assert grad_check(tiny_cnn(rng, with_bn=False), feats, labels, epsilon=1e-3) < 1e-3


@pytest.mark.parametrize("shape", ((7, 3), (4, 3, 2, 3)), ids=("2d", "4d"))
def test_batchnorm_backward_matches_central_differences(shape):
    # grad_check runs BatchNorm only on 4-D inputs; the dense stack's
    # BatchNorms take 2-D ones. The loss is <forward(x), g>, so backward(g)
    # is its gradient.
    rng = np.random.default_rng(19)
    c = shape[1]
    layer = nm.BatchNorm(rng.uniform(0.5, 2.0, c), rng.normal(size=c),
                         rng.normal(size=c) * 0.3, rng.uniform(0.5, 2.0, c))
    x, g = rng.normal(size=shape), rng.normal(size=shape)
    mode = nm.TrainMode()
    _, cache = layer.forward(x, mode=mode)
    dx, grads = layer.backward(cache, g, True)
    step = 1e-5
    for arr, analytic in ((x, dx), (layer.scale, grads["scale"]), (layer.shift, grads["shift"])):
        flat = arr.reshape(-1)  # a view: steps move the layer's own arrays
        numeric = np.empty(flat.size)
        for k in range(flat.size):
            orig = flat[k]
            sides = []
            for value in (orig + step, orig - step):
                flat[k] = value
                sides.append(float((layer.forward(x, mode=mode)[0] * g).sum()))
            flat[k] = orig
            numeric[k] = (sides[0] - sides[1]) / (2.0 * step)
        assert analytic.shape == arr.shape
        np.testing.assert_allclose(analytic.reshape(-1), numeric, rtol=0, atol=1e-7)


def test_grad_check_steps_around_a_relu_kink(monkeypatch):
    # With a stride-2 conv, a step of 1e-3 on some entries moves a ReLU input
    # across 0, where a central difference is no derivative. The check
    # retakes such entries at a 100 times smaller step.
    rng = np.random.default_rng(12)
    netw = tiny_cnn(rng, stride=2)
    feats = rng.normal(size=(6, 1, 4, 4))
    labels = rng.integers(0, 4, 6)
    assert grad_check(netw, feats, labels, epsilon=1e-3) < 1e-3
    monkeypatch.setattr(gradcheck, "KINK_STEP", 1.0)  # retake at the same step
    assert grad_check(netw, feats, labels, epsilon=1e-3) > 1e-2


def test_grad_zero_for_dead_relu_net():
    rng = np.random.default_rng(13)
    netw = nm.Network(
        (nm.Dense(rng.normal(size=(6, 4)), np.zeros(6)), nm.ReLU(),
         nm.Dense(rng.normal(size=(3, 6)), np.zeros(3))), (4,))
    feats = np.zeros((5, 4))
    labels = np.zeros(5, dtype=np.int64)
    grads = gradients(netw, feats, labels)
    assert np.allclose(grads[(0, "weight")], 0.0)
    assert np.allclose(grads[(2, "weight")], 0.0)
    assert not np.allclose(grads[(2, "bias")], 0.0)


def test_bn_running_stats_update_and_inference_path():
    rng = np.random.default_rng(14)
    netw = tiny_cnn(rng)
    feats = rng.normal(size=(64, 1, 4, 4)) + 1.0
    labels = rng.integers(0, 4, 64)
    data = DomainDataset("source", "train", feats, labels, n_classes=4)
    out = tr.train(netw, [data], tr.TrainConfig(epochs=1, batch_size=32, seed=0))
    bn = out.layers[1]
    assert not np.array_equal(bn.running_mean, netw.layers[1].running_mean)
    assert np.all(bn.running_var > 0)


def test_train_rejects_feature_shape_before_first_step(monkeypatch):
    rng = np.random.default_rng(15)
    netw = nm.Network((nm.Dense(rng.normal(size=(4, 3)), np.zeros(4)), nm.ReLU(),
                       nm.Dense(rng.normal(size=(2, 4)), np.zeros(2))), (3,))
    ds = DomainDataset("target", "train", rng.normal(size=(20, 5)),
                       rng.integers(0, 2, 20), n_classes=2)

    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran on mismatched data")

    monkeypatch.setattr(tr, "_forward_train", no_step)
    with pytest.raises(ShapeMismatch, match="target/train"):
        tr.train(netw, [ds], tr.TrainConfig(epochs=1))
    with pytest.raises(ShapeMismatch):
        tr.evaluate([netw], ds)


def head(netw, start, x):
    """The network of the layers from start up, and x pushed through the
    layers below in inference mode: how pipeline.train_model fine-tunes the
    layers above a frozen conv stack."""
    feats = sp._push(netw, x, 0, start)
    return nm.Network(netw.layers[start:], feats.shape[1:]), feats


def test_frozen_prefix_leaves_upper_gradients_bit_equal():
    # with no BatchNorm or dropout below, the frozen prefix computes the same
    # in inference as in training, so a head on its pushed features gets the
    # full network's gradients of the layers it holds
    rng = np.random.default_rng(16)
    netw = tiny_cnn(rng, with_bn=False)
    feats, labels = rng.normal(size=(8, 1, 4, 4)), rng.integers(0, 4, 8)
    full = gradients(netw, feats, labels)
    assert sorted(full) == [(0, "bias"), (0, "weight"), (4, "bias"), (4, "weight")]
    for k in range(1, len(netw.layers) + 1):
        part = {(i + k, name): g for (i, name), g in gradients(*head(netw, k, feats),
                                                                labels).items()}
        assert sorted(part) == sorted(key for key in full if key[0] >= k)
        for key, g in part.items():
            assert np.array_equal(g, full[key]), (k, key)


@pytest.mark.parametrize("start, lowest", [(0, 0), (1, 1), (2, 5), (3, 5), (6, 6)])
def test_backward_stops_at_lowest_trainable_layer(monkeypatch, start, lowest):
    rng = np.random.default_rng(17)
    netw = tiny_cnn(rng)  # conv, bn, relu, flatten, dropout, dense
    # by kind: the gradients are taken on private copies of the layers
    index = {type(layer): i for i, layer in enumerate(netw.layers)}
    visits = []

    def spy(cls):
        original = cls.backward

        def counting(self, cache, dout, need_dx):
            visits.append((index[type(self)], need_dx))
            return original(self, cache, dout, need_dx)
        monkeypatch.setattr(cls, "backward", counting)

    for cls in nm.Layer.__subclasses__():
        spy(cls)
    # the head of the layers from start up: (3, 5) is a fine-tuned dense
    # stack, Flatten, Dropout, Dense; (6, 6) has no layer left to train
    grads = gradients(*head(netw, start, rng.normal(size=(6, 1, 4, 4))),
                      rng.integers(0, 4, 6))
    # one call per layer from the top down to the lowest trainable layer,
    # which alone is asked for no input gradient
    assert visits == [(i, i > lowest) for i in range(5, lowest - 1, -1)]
    assert sorted(grads) == sorted((i - start, name) for i, layer in enumerate(netw.layers)
                                   if i >= start for name in nm.param_fields(layer))


def test_evaluate_resumes_from_a_shared_prefix(monkeypatch):
    # b shares all but its classifier with a as the same objects, so in
    # a, b, a, b each network after the first runs only the classifier; c
    # shares just the first conv and BatchNorm with b, below the depth b
    # resumed from, so it runs from the input. 70 rows leave a partial batch.
    rng = np.random.default_rng(12)
    a = tiny_cnn(rng)
    last = a.layers[-1]
    b = nm.with_layers(a, a.layers[:-1] + (nm.Dense(last.weight[::-1], last.bias[::-1]),))
    c = nm.with_layers(a, a.layers[:2] + tiny_cnn(rng).layers[2:])
    depth = len(a.layers) - 1
    assert nm.shared_depth(a, b) == depth and nm.shared_depth(b, c) == 2
    feats = rng.normal(size=(70, 1, 4, 4))
    ds = DomainDataset("target", "test", feats, rng.integers(0, 4, size=70), n_classes=4)
    networks = [a, b, a, b, c]
    monkeypatch.setattr(tr, "EVAL_BATCH_SIZE", 32)
    alone = [tr.evaluate([n], ds)[0] for n in networks]
    assert len(set(alone)) > 1

    applied = []
    apply_layer = nm.apply_layer

    def spy(layer, x, index=None):
        applied.append(index)
        return apply_layer(layer, x, index)

    monkeypatch.setattr(nm, "apply_layer", spy)
    assert tr.evaluate(networks, ds) == alone
    every = list(range(len(a.layers)))
    assert applied == (every + [depth] * 3 + every) * 3

    # the same layer objects under another input shape share no prefix, so
    # the second network starts from the input, whose shape check fails
    d = nm.Network(a.layers, (1, 2, 8), capture_points=a.capture_points)
    assert all(x is y for x, y in zip(a.layers, d.layers)) and nm.shared_depth(a, d) == 0
    with pytest.raises(ShapeMismatch):
        tr.evaluate([a, d], ds)
