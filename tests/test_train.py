import numpy as np
import pytest

from specprune import net as nm
from specprune import train as tr
from specprune.datasets import DomainDataset
from specprune.errors import Diverged, ShapeMismatch


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


def tiny_cnn(rng, with_bn=True, bias_scale=0.3):
    layers = [nm.Conv2D(rng.normal(size=(3, 1, 3, 3)) * 0.6,
                        rng.normal(size=3) * bias_scale, stride=1, padding=1)]
    if with_bn:
        layers.append(nm.BatchNorm(np.full(3, 1.2), rng.normal(size=3) * 0.1,
                                   np.zeros(3), np.ones(3)))
    layers += [nm.ReLU(), nm.MaxPool2(), nm.Flatten(),
               nm.Dense(rng.normal(size=(4, 3 * 4)) * 0.4, rng.normal(size=4) * 0.1)]
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
    assert tr.evaluate(trained, data) >= 0.99
    assert tr.dataset_loss(trained, data) < tr.dataset_loss(netw, data)


def test_all_frozen_keeps_weights():
    rng = np.random.default_rng(2)
    data = blob_data(rng)
    netw = blob_net(rng)
    cfg = tr.TrainConfig(epochs=3, freeze=frozenset(range(len(netw.layers))), seed=0)
    out = tr.train(netw, [data], cfg)
    for a, b in zip(netw.layers, out.layers):
        if isinstance(a, nm.Dense):
            assert a.weight is b.weight and a.bias is b.bias


def test_partial_freeze_is_bitwise():
    rng = np.random.default_rng(3)
    src, lbl = rng.normal(size=(64, 1, 4, 4)), rng.integers(0, 4, 64)
    data = DomainDataset("source", "train", src, lbl, n_classes=4)
    netw = tiny_cnn(rng)
    cfg = tr.TrainConfig(epochs=2, batch_size=16, freeze=frozenset({0, 1}), seed=5)
    out = tr.train(netw, [data], cfg)
    assert np.array_equal(out.layers[0].weight, netw.layers[0].weight)
    assert np.array_equal(out.layers[1].running_mean, netw.layers[1].running_mean)
    assert not np.array_equal(out.layers[5].weight, netw.layers[5].weight)


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
    assert tr.evaluate(netw, ds) == pytest.approx(0.1)


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
    assert tr.evaluate(tr.train(netw, [ds], cfg), ds) == 1.0


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
    assert tr.grad_check(netw, feats, labels, epsilon=1e-3) < 1e-4


def test_grad_check_conv_net():
    rng = np.random.default_rng(12)
    netw = tiny_cnn(rng)
    feats = rng.normal(size=(6, 1, 4, 4))
    labels = rng.integers(0, 4, 6)
    assert tr.grad_check(netw, feats, labels, epsilon=1e-3) < 1e-3


def test_grad_zero_for_dead_relu_net():
    rng = np.random.default_rng(13)
    netw = nm.Network(
        (nm.Dense(rng.normal(size=(6, 4)), np.zeros(6)), nm.ReLU(),
         nm.Dense(rng.normal(size=(3, 6)), np.zeros(3))), (4,))
    feats = np.zeros((5, 4))
    labels = np.zeros(5, dtype=np.int64)
    grads = tr.gradients(netw, feats, labels)
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
        tr.evaluate(netw, ds)


def _grads(netw, feats, labels, freeze):
    logits, caches = tr._forward_train(netw.layers, freeze, feats, None,
                                       update_buffers=False)
    _, dlogits = tr.softmax_cross_entropy(logits, labels)
    return tr._backward(netw.layers, freeze, caches, dlogits)


def test_frozen_prefix_leaves_upper_gradients_bit_equal():
    rng = np.random.default_rng(16)
    netw = tiny_cnn(rng, with_bn=False)
    feats, labels = rng.normal(size=(8, 1, 4, 4)), rng.integers(0, 4, 8)
    full = _grads(netw, feats, labels, frozenset())
    assert sorted(full) == [(0, "bias"), (0, "weight"), (4, "bias"), (4, "weight")]
    for k in range(1, len(netw.layers) + 1):
        part = _grads(netw, feats, labels, frozenset(range(k)))
        assert sorted(part) == sorted(key for key in full if key[0] >= k)
        for key, g in part.items():
            assert np.array_equal(g, full[key]), (k, key)


@pytest.mark.parametrize("freeze, lowest", [((), 0), ((0,), 1), ((0, 1), 5)])
def test_backward_stops_at_lowest_trainable_layer(monkeypatch, freeze, lowest):
    rng = np.random.default_rng(17)
    netw = tiny_cnn(rng)  # conv, bn, relu, pool, flatten, dense
    index = {id(layer): i for i, layer in enumerate(netw.layers)}
    visits = []

    def spy(cls, method):
        original = getattr(cls, method)

        def counting(self, cache, dout):
            visits.append((index[id(self)], method))
            return original(self, cache, dout)
        monkeypatch.setattr(cls, method, counting)

    for cls in nm.Layer.__subclasses__():
        spy(cls, "backward")
        if cls.params:
            spy(cls, "param_grads")
    grads = _grads(netw, rng.normal(size=(6, 1, 4, 4)), rng.integers(0, 4, 6),
                   frozenset(freeze))
    assert min(i for i, _ in visits) == lowest
    assert (lowest, "param_grads") in visits
    assert (lowest, "backward") not in visits
    assert sorted(i for i, m in visits if m == "backward") == list(range(lowest + 1, 6))
    assert {i for i, _ in grads} == {i for i, m in visits if m == "param_grads"}


def test_training_forward_all_frozen_matches_inference():
    rng = np.random.default_rng(18)
    x = rng.normal(size=(9, 1, 4, 4))
    plain = tiny_cnn(rng, with_bn=False)
    logits, _ = tr._forward_train(plain.layers, frozenset(range(len(plain.layers))), x, None)
    assert np.array_equal(logits, nm.forward(plain, x)[0])

    bn = tiny_cnn(rng)
    bn = nm.with_layers(bn, [nm.BatchNorm(l.scale, l.shift, rng.normal(size=3) * 0.2,
                                          rng.uniform(0.5, 2.0, 3))
                             if isinstance(l, nm.BatchNorm) else l for l in bn.layers])
    logits, _ = tr._forward_train(bn.layers, frozenset(range(len(bn.layers))), x, None)
    expected = nm.forward(bn, x)[0]
    assert np.max(np.abs(logits - expected)) <= 1e-12 * np.max(np.abs(expected))
