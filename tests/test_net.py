import hashlib
import json

import numpy as np
import pytest

from specprune import lowrank as lr
from specprune import net as nm
from specprune import pipeline as pl
from specprune import spectral as sp
from specprune import train as tr
from specprune.config import ModelSection
from specprune.datasets import make_two_domain
from specprune.errors import FormatError, ShapeMismatch

import references


def naive_conv2d(x, weight, bias, stride, padding):
    """Nested-loop conv reference, used as the oracle for the fast path."""
    n, ic, h, w = x.shape
    oc, _, kh, kw = weight.shape
    xp = np.zeros((n, ic, h + 2 * padding, w + 2 * padding))
    xp[:, :, padding:padding + h, padding:padding + w] = x
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((n, oc, oh, ow))
    for b in range(n):
        for o in range(oc):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[b, :, i * stride:i * stride + kh, j * stride:j * stride + kw]
                    out[b, o, i, j] = np.sum(patch * weight[o]) + bias[o]
    return out


def small_random_cnn(rng):
    layers = (
        nm.Conv2D(rng.normal(size=(4, 1, 3, 3)) * 0.5, rng.normal(size=4) * 0.1,
                  stride=1, padding=1),
        nm.ReLU(),
        nm.Conv2D(rng.normal(size=(6, 4, 3, 3)) * 0.5, rng.normal(size=6) * 0.1,
                  stride=2, padding=1),
        nm.ReLU(),
        nm.Flatten(),
        nm.Dense(rng.normal(size=(8, 6 * 4 * 4)) * 0.2, rng.normal(size=8) * 0.1),
        nm.ReLU(),
        nm.Dense(rng.normal(size=(3, 8)) * 0.2, rng.normal(size=3) * 0.1),
    )
    return nm.Network(layers, (1, 8, 8), capture_points=(1, 3, 6))


def test_dense_identity_relu():
    netw = nm.Network(
        (nm.Dense(np.eye(2), np.zeros(2)), nm.ReLU()), (2,), capture_points=(1,))
    logits, caps = nm.forward(netw, np.array([[-1.0, 2.0]]), capture=(1,))
    assert np.allclose(logits, [[0.0, 2.0]])
    assert np.allclose(caps[0].samples, [[0.0, 2.0]])


def test_conv_1x1_identity():
    w = np.ones((1, 1, 1, 1))
    netw = nm.Network((nm.Conv2D(w, np.zeros(1)),), (1, 5, 5))
    x = np.random.default_rng(0).normal(size=(2, 1, 5, 5))
    out, _ = nm.forward(netw, x)
    assert np.allclose(out, x)


def test_forward_matches_naive_loop():
    rng = np.random.default_rng(42)
    netw = small_random_cnn(rng)
    x = rng.normal(size=(3, 1, 8, 8))
    out, _ = nm.forward(netw, x)

    h = x
    for layer in netw.layers:
        if isinstance(layer, nm.Conv2D):
            h = naive_conv2d(h, layer.weight, layer.bias, layer.stride, layer.padding)
        else:
            h = nm.apply_layer(layer, h)
    assert np.allclose(out, h, atol=1e-5)


def einsum_conv_windows(layer, x):
    """The zero-padded input and its strided (n, c, oh, ow, kh, kw) windows."""
    s, pad = layer.stride, layer.padding
    _, _, kh, kw = layer.weight.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    return xp, np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::s, ::s]


def einsum_conv_forward(layer, x):
    """The conv's output as an optimized einsum. The layer's GEMM reproduces
    it bit for bit wherever the batch fills whole BLAS tiles."""
    windows = einsum_conv_windows(layer, x)[1]
    out = np.einsum("nihwkl,oikl->nohw", windows, layer.weight, optimize=True)
    return out + layer.bias[None, :, None, None]


def einsum_conv_reference(layer, x, dout):
    """The conv's forward, input gradient and weight gradient as optimized
    einsums. The layer sums the same products in another order."""
    s, pad = layer.stride, layer.padding
    _, _, kh, kw = layer.weight.shape
    xp, windows = einsum_conv_windows(layer, x)
    oh, ow = dout.shape[2:]
    dxp = np.zeros(xp.shape)
    for ki in range(kh):
        for kj in range(kw):
            dxp[:, :, ki:ki + s * oh:s, kj:kj + s * ow:s] += np.einsum(
                "nohw,oi->nihw", dout, layer.weight[:, :, ki, kj], optimize=True)
    dx = dxp[:, :, pad:pad + x.shape[2], pad:pad + x.shape[3]]
    dw = np.einsum("nihwkl,nohw->oikl", windows, dout, optimize=True)
    return einsum_conv_forward(layer, x), dx, dw


def batch_inner(a):
    """True when a (n, c, h, w) array is contiguous (c, h, w, n) in memory."""
    return a.transpose(1, 2, 3, 0).flags.c_contiguous


def as_batch_inner(a):
    """A batch-inner copy of a (n, c, h, w) array."""
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


@pytest.mark.parametrize("in_channels", (1, 3))
@pytest.mark.parametrize("batch", (1, 7, 37))
@pytest.mark.parametrize("padding", (0, 1))
@pytest.mark.parametrize("stride", (1, 2))
def test_conv_matches_einsum_reference(stride, padding, batch, in_channels):
    rng = np.random.default_rng(100 * stride + 10 * padding + batch + in_channels)
    layer = nm.Conv2D(rng.normal(size=(5, in_channels, 3, 3)), rng.normal(size=5),
                      stride=stride, padding=padding)
    x = rng.normal(size=(batch, in_channels, 8, 8))
    # the same products in the same GEMM as the einsum; an odd batch leaves
    # an edge tile that OpenBLAS rounds another way, so only within 1e-12,
    # and a batch-inner input, as the layers below leave it, gives the same
    # bits as a batch-major one
    out, cache = layer.forward(x)
    assert cache is None and batch_inner(out)
    np.testing.assert_allclose(out, einsum_conv_forward(layer, x), rtol=1e-12, atol=1e-12)
    assert np.array_equal(layer.forward(as_batch_inner(x))[0], out)
    train_out, cache = layer.forward(x, mode=nm.TrainMode())
    assert np.array_equal(train_out, out) and train_out.strides == out.strides
    # the output gradient batch-major and batch-inner: the backward reads
    # both as the same (o, h*w*n) rows, so they give the same bits
    dout = rng.normal(size=out.shape)
    _, ref_dx, ref_dw = einsum_conv_reference(layer, x, dout)
    results = [layer.backward(cache, d, True) for d in (dout, as_batch_inner(dout))]
    for dx, grads in results:
        np.testing.assert_allclose(dx, ref_dx, rtol=1e-12, atol=1e-12)
        assert sorted(grads) == ["bias", "weight"]
        np.testing.assert_allclose(grads["weight"], ref_dw, rtol=1e-12, atol=1e-12)
        # the plain sum, in the batch-inner order
        assert np.array_equal(grads["bias"], as_batch_inner(dout).sum(axis=(0, 2, 3)))
        # a view of the batch-inner col2im buffer, contiguous when unpadded;
        # the ReLU below writes it contiguous batch-inner
        assert batch_inner(dx) == (padding == 0)
        assert batch_inner(nm.ReLU().backward(np.abs(dx), dx, True)[0])
    (dx, grads), (dx2, grads2) = results
    assert np.array_equal(dx, dx2)
    assert all(np.array_equal(grads[name], grads2[name]) for name in grads)


@pytest.mark.parametrize("batch", (256, 244, 238, 220, 512, 500, 476))
@pytest.mark.parametrize("channels", ((8, 12, 16), (6, 9, 12)))
def test_default_model_conv_inference_keeps_its_bits(channels, batch):
    # the default model's convs, and c08's pruned ones, at the batches the
    # shipped configs push (256 and the remainders of 1500, 750 and 500
    # samples) and evaluate (512 and the remainders 500 and 476): whole
    # BLAS tiles, so the einsum's bits
    rng = np.random.default_rng(batch)
    model = pl.build_digits_model(ModelSection(conv_channels=channels), 0)
    h = rng.normal(size=(batch, 1, 8, 8))
    convs = 0
    for layer in model.layers[:9]:
        out = nm.apply_layer(layer, h)
        if isinstance(layer, nm.Conv2D):
            convs += 1
            assert np.array_equal(out, einsum_conv_forward(layer, h))
        h = out
    assert convs == 3


def test_conv_inference_chain_stays_batch_inner():
    # Conv2D's inference output is (c, h, w, n) in memory, BatchNorm and ReLU
    # keep it, and Flatten hands the Dense layer a C-contiguous matrix
    rng = np.random.default_rng(21)
    netw = small_random_cnn(rng)
    bn = nm.BatchNorm(rng.uniform(0.5, 2.0, 4), rng.normal(size=4), rng.normal(size=4),
                      rng.uniform(0.5, 2.0, 4))
    layers = netw.layers[:1] + (bn,) + netw.layers[1:]
    x = rng.normal(size=(6, 1, 8, 8))
    h = x
    for layer in layers[:5]:  # conv, BatchNorm, ReLU, conv, ReLU
        h = nm.apply_layer(layer, h)
        assert batch_inner(h) and not h.flags.c_contiguous
    flat = nm.apply_layer(layers[5], h)
    assert flat.flags.c_contiguous and np.array_equal(flat, h.reshape(6, -1))
    # the in-place affine steps give the bits of the plain expressions
    inv = 1.0 / np.sqrt(bn.running_var + bn.eps)
    y = nm.apply_layer(layers[0], x)
    shape = (1, 4, 1, 1)
    plain = (y - bn.running_mean.reshape(shape)) * inv.reshape(shape) \
        * bn.scale.reshape(shape) + bn.shift.reshape(shape)
    assert np.array_equal(nm.apply_layer(bn, y), plain)
    dense = layers[6]
    assert np.array_equal(nm.apply_layer(dense, flat), flat @ dense.weight.T + dense.bias)


@pytest.mark.parametrize("batch", (100, 37))
def test_default_model_conv_backward_keeps_its_bits(batch):
    # the benchmark's conv shapes, at its training batch and at a short last
    # batch: the gradients are the einsum's to 1e-12, and a batch-major
    # output gradient gives the bits of a batch-inner one
    rng = np.random.default_rng(batch)
    model = pl.build_digits_model(ModelSection(), 0)
    h = rng.normal(size=(batch, 1, 8, 8))
    convs = 0
    for layer in model.layers[:9]:
        out, cache = layer.forward(h, mode=nm.TrainMode())
        if isinstance(layer, nm.Conv2D):
            convs += 1
            dout = rng.normal(size=out.shape)
            _, ref_dx, ref_dw = einsum_conv_reference(layer, h, dout)
            dx, grads = layer.backward(cache, as_batch_inner(dout), True)
            np.testing.assert_allclose(dx, ref_dx, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(grads["weight"], ref_dw, rtol=1e-12, atol=1e-12)
            dx2, grads2 = layer.backward(cache, dout, True)
            assert np.array_equal(dx, dx2)
            assert all(np.array_equal(grads[name], grads2[name]) for name in grads)
        h = out
    assert convs == 3


@pytest.mark.parametrize("batch", (100, 37))
def test_default_model_conv_stack_is_one_engine(batch):
    # one layer engine: on the default model's conv stack, each layer's
    # training output has the bits and the memory order of its inference
    # output, BatchNorm's on the batch's own statistics
    rng = np.random.default_rng(batch)
    model = pl.build_digits_model(ModelSection(), 0)
    h = rng.normal(size=(batch, 1, 8, 8))
    kinds = []
    for layer in model.layers[:9]:
        if isinstance(layer, nm.BatchNorm):
            c = layer.scale.shape[0]
            layer = nm.BatchNorm(rng.uniform(0.5, 2.0, c), rng.normal(size=c),
                                 np.zeros(c), np.ones(c))
        out, _ = layer.forward(h, mode=nm.TrainMode())
        if isinstance(layer, nm.BatchNorm):
            rows = nm.channel_rows(h)
            mu = rows.mean(axis=1)
            centered = rows - mu[:, None]
            layer = nm.BatchNorm(layer.scale, layer.shift, mu, (centered * centered).mean(axis=1))
        same = nm.apply_layer(layer, h)
        assert batch_inner(out) and np.array_equal(out, same) and out.strides == same.strides
        kinds.append(layer.kind)
        h = out
    assert kinds == ["conv2d", "batchnorm", "relu"] * 3


@pytest.mark.parametrize("training", (True, False))
@pytest.mark.parametrize("layout", ("dense", "batch_inner", "batch_major"))
def test_batchnorm_training_keeps_its_bits(layout, training):
    # the in-place training forward and backward, and the in-place inference
    # forward, against the reference expressions: the same bits, in the same
    # memory order
    rng = np.random.default_rng(7)
    c = 6
    if layout == "dense":
        x, dout = rng.normal(size=(40, c)), rng.normal(size=(40, c))
    else:
        x, dout = (rng.normal(size=(c, 5, 5, 9)).transpose(3, 0, 1, 2) for _ in range(2))
        if layout == "batch_major":
            x, dout = np.ascontiguousarray(x), np.ascontiguousarray(dout)

    def layer():
        return nm.BatchNorm(np.linspace(0.5, 1.5, c), np.linspace(-0.2, 0.3, c),
                            np.linspace(-0.1, 0.1, c), np.linspace(0.8, 1.2, c))

    bn, ref = layer(), layer()
    out, cache = bn.forward(x, mode=nm.TrainMode() if training else None)
    ref_out, ref_cache = references.batchnorm_forward(ref, x, training)
    assert np.array_equal(out, ref_out) and out.strides == ref_out.strides
    # a dense or batch-inner input keeps its memory order, and a batch-major
    # one comes out batch-inner
    assert out.strides == (x if layout != "batch_major" else as_batch_inner(x)).strides
    for name in bn.buffers:
        assert np.array_equal(getattr(bn, name), getattr(ref, name))
    if not training:
        assert cache is None
        return
    for a, b in zip(cache, ref_cache):
        assert np.array_equal(a, b)
    # one arithmetic: inference on the batch's own statistics gives the bits
    # of the training forward
    xc = nm.channel_rows(x)
    mu = xc.mean(axis=1)
    centered = xc - mu[:, None]
    same = nm.BatchNorm(bn.scale, bn.shift, mu, (centered * centered).mean(axis=1))
    assert np.array_equal(nm.apply_layer(same, x), out)
    dx, grads = bn.backward(cache, dout, True)
    ref_dx, ref_grads = references.batchnorm_backward(ref, ref_cache, dout)
    assert np.array_equal(dx, ref_dx) and dx.strides == ref_dx.strides
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        assert np.array_equal(grads[name], ref_grads[name])


def test_training_chain_stays_batch_inner():
    # in training, Conv2D's output is (c, h, w, n) in memory, and so are
    # BatchNorm's and ReLU's outputs and gradients on it: BatchNorm's
    # per-channel rows view them without a copy, and Conv2D's backward reads
    # its output gradient as one (o, h*w*n) view
    rng = np.random.default_rng(20)
    conv = nm.Conv2D(rng.normal(size=(5, 3, 3, 3)), rng.normal(size=5), stride=2, padding=1)
    bn = nm.BatchNorm(np.ones(5), np.zeros(5), np.zeros(5), np.ones(5))
    x = rng.normal(size=(4, 3, 8, 8))
    assert not np.shares_memory(nm.channel_rows(x), x)  # batch-major: a copy
    mode = nm.TrainMode()
    out, conv_cache = conv.forward(x, mode=mode)
    y, bn_cache = bn.forward(out, mode=mode)
    z, relu_cache = nm.ReLU().forward(y, mode=mode)
    for a in (out, y, z):
        assert batch_inner(a) and np.shares_memory(nm.channel_rows(a), a)
    dz = nm.from_channel_rows(rng.normal(size=(5, out.size // 5)), out.shape)
    dy, _ = nm.ReLU().backward(relu_cache, dz, True)
    dout, _ = bn.backward(bn_cache, dy, True)
    for a in (dz, dy, dout):
        assert batch_inner(a) and np.shares_memory(nm.channel_rows(a), a)
    dx, _ = conv.backward(conv_cache, dout, True)
    assert dx.shape == x.shape
    # a batch-inner view of the padded col2im buffer, which the ReLU below
    # writes contiguous
    assert dx.base.shape == (3, 10, 10, 4) and not batch_inner(dx)
    relu_out = nm.from_channel_rows(np.abs(rng.normal(size=(3, x.size // 3))), x.shape)
    below, _ = nm.ReLU().backward(relu_out, dx, True)
    assert batch_inner(below) and np.shares_memory(nm.channel_rows(below), below)
    # a dense BatchNorm's rows are the transpose of its (n, c) input
    h = rng.normal(size=(6, 5))
    assert np.shares_memory(nm.channel_rows(h), h)


def test_layer_engine_plans_no_einsum(monkeypatch):
    import numpy._core.einsumfunc as einsumfunc  # NumPy 2's module path

    plans = []
    einsum_path = einsumfunc.einsum_path
    monkeypatch.setattr(einsumfunc, "einsum_path",
                        lambda *args, **kwargs: plans.append(1) or einsum_path(*args, **kwargs))
    model = pl.build_digits_model(ModelSection(conv_channels=(4, 4, 8), dense_widths=(24, 24)), 0)
    _, target = make_two_domain(0, 100)
    trained = tr.train(model, [target.train], tr.TrainConfig(epochs=1, batch_size=32))
    nm.forward(trained, target.test.features, capture=trained.capture_points)
    assert plans == []
    np.einsum("ij,jk->ik", np.ones((2, 2)), np.ones((2, 2)), optimize=True)
    assert plans == [1]  # the counter sees the planner


def test_forward_batch_order_equivariant():
    rng = np.random.default_rng(1)
    netw = small_random_cnn(rng)
    x = rng.normal(size=(5, 1, 8, 8))
    perm = rng.permutation(5)
    out, _ = nm.forward(netw, x)
    out_p, _ = nm.forward(netw, x[perm])
    assert np.array_equal(out[perm], out_p)


def test_conv_stack_gives_each_sample_its_bits_at_every_even_batch(monkeypatch):
    # pipeline.train_model pushes the target split once through the conv
    # stack in blocks of spectral.BATCH_SIZE; a sample's features, and so
    # the fine-tuned bits, are the same at every even block size. Batches of
    # 1 and odd sizes move bits, so they are not asserted.
    netw = pl.build_digits_model(ModelSection(), 0)
    flatten = next(i for i, layer in enumerate(netw.layers) if isinstance(layer, nm.Flatten))
    assert flatten == 9
    _, target = make_two_domain(0, 600)
    x = target.train.features
    pushed = []
    for batch in (2, 4, 50, 100, 256, 600):
        monkeypatch.setattr(sp, "BATCH_SIZE", batch)
        pushed.append(sp._push(netw, x, 0, flatten))
    for out in pushed[1:]:
        assert np.array_equal(out, pushed[0])


def test_capture_matches_next_layer_input():
    rng = np.random.default_rng(2)
    netw = small_random_cnn(rng)
    x = rng.normal(size=(2, 1, 8, 8))
    _, caps = nm.forward(netw, x, capture=(1,))
    # recompute the block by hand and compare exactly
    h = nm.apply_layer(netw.layers[0], x)
    h = nm.apply_layer(netw.layers[1], h)
    assert np.array_equal(caps[0].samples, nm.capture_rows(h))


def test_batchnorm_inference():
    bn = nm.BatchNorm(scale=np.array([2.0]), shift=np.array([1.0]),
                      running_mean=np.array([3.0]), running_var=np.array([4.0]),
                      eps=0.0)
    netw = nm.Network((bn,), (1, 2, 2))
    out, _ = nm.forward(netw, np.full((1, 1, 2, 2), 5.0))
    assert np.allclose(out, 1.0 + 2.0 * (5.0 - 3.0) / 2.0)


def test_shape_mismatch_reports_layer():
    netw = nm.Network((nm.Dense(np.eye(3), np.zeros(3)),), (3,))
    with pytest.raises(ShapeMismatch):
        nm.forward(netw, np.zeros((1, 4)))
    with pytest.raises(ShapeMismatch) as err:
        nm.Network((nm.Dense(np.eye(3), np.zeros(3)),
                    nm.Dense(np.eye(4), np.zeros(4))), (3,))
    assert err.value.layer == 1


def test_capture_point_must_follow_activation():
    # a capture point on a non-activation, a repeated one, a non-integral
    # one, and a non-integral input dimension
    layers = (nm.Dense(np.eye(2), np.zeros(2)), nm.ReLU(),
              nm.Dense(np.eye(2), np.zeros(2)), nm.ReLU())
    for shape, cps in (((2,), (0,)), ((2,), (1, 1, 3)), ((2,), (1.9, 3)),
                       ((2,), (1.0,)), ((2.5,), (1,))):
        with pytest.raises(ValueError):
            nm.Network(layers, shape, capture_points=cps)


def test_count_params_dense_4096():
    w = np.zeros((4096, 4096), dtype=np.float64)
    netw = nm.Network((nm.Dense(w, np.zeros(4096)),), (4096,))
    assert nm.count_params(netw) == 16_781_312


def test_count_params_factored_pair():
    # two stacked factors (k x n then m x k) with one output-side bias: k(m+n)+m
    m, n, k = 30, 20, 5
    rng = np.random.default_rng(3)
    netw = nm.Network(
        (nm.Dense(rng.normal(size=(k, n)), np.zeros(k)),
         nm.Dense(rng.normal(size=(m, k)), rng.normal(size=m))), (n,))
    assert nm.count_params(netw) == k * (m + n) + m + k  # first factor bias is k zeros
    # dropping the intermediate bias from the count gives the exact k(m+n)+m rule
    assert nm.count_params(netw) - k == k * (m + n) + m


def test_count_params_and_flops_toy_cnn_hand_count():
    # scaled-down conv/conv/conv/dense/dense/classifier stack: hand arithmetic
    rng = np.random.default_rng(4)
    c1, c2, c3, d1, d2, cls = 8, 8, 16, 64, 64, 10
    layers = (
        nm.Conv2D(rng.normal(size=(c1, 1, 3, 3)), np.zeros(c1), 1, 1), nm.ReLU(),
        nm.Conv2D(rng.normal(size=(c2, c1, 3, 3)), np.zeros(c2), 2, 1), nm.ReLU(),
        nm.Conv2D(rng.normal(size=(c3, c2, 3, 3)), np.zeros(c3), 2, 1), nm.ReLU(),
        nm.Flatten(),
        nm.Dense(rng.normal(size=(d1, c3 * 4)), np.zeros(d1)), nm.ReLU(),
        nm.Dense(rng.normal(size=(d2, d1)), np.zeros(d2)), nm.ReLU(),
        nm.Dense(rng.normal(size=(cls, d2)), np.zeros(cls)),
    )
    netw = nm.Network(layers, (1, 8, 8))
    params = (c1 * 9 + c1) + (c2 * c1 * 9 + c2) + (c3 * c2 * 9 + c3) \
        + (d1 * c3 * 4 + d1) + (d2 * d1 + d2) + (cls * d2 + cls)
    assert nm.count_params(netw) == params
    flops = c1 * 1 * 9 * 64 + c2 * c1 * 9 * 16 + c3 * c2 * 9 * 4 \
        + d1 * c3 * 4 + d2 * d1 + cls * d2
    assert nm.count_flops(netw) == flops


def test_save_load_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    netw = small_random_cnn(rng)
    p1, p2 = tmp_path / "m1", tmp_path / "m2"
    nm.save_model(netw, p1)
    loaded = nm.load_model(p1)
    nm.save_model(loaded, p2)
    assert (p1 / "weights.bin").read_bytes() == (p2 / "weights.bin").read_bytes()
    assert (p1 / "model.json").read_text() == (p2 / "model.json").read_text()
    # loaded forward agrees with the float32 quantization of the original
    x = rng.normal(size=(2, 1, 8, 8))
    out1, _ = nm.forward(loaded, x)
    out2, _ = nm.forward(nm.load_model(p2), x)
    assert np.array_equal(out1, out2)


def test_load_rejects_truncated_blob(tmp_path):
    rng = np.random.default_rng(6)
    netw = small_random_cnn(rng)
    nm.save_model(netw, tmp_path / "m")
    blob = (tmp_path / "m" / "weights.bin").read_bytes()
    (tmp_path / "m" / "weights.bin").write_bytes(blob[:-8])
    with pytest.raises(FormatError):
        nm.load_model(tmp_path / "m")
    (tmp_path / "m" / "weights.bin").unlink()
    with pytest.raises(FormatError, match="weights.bin"):
        nm.load_model(tmp_path / "m")


def test_load_rejects_bad_magic_and_shape_disagreement(tmp_path):
    import json
    rng = np.random.default_rng(7)
    netw = small_random_cnn(rng)
    nm.save_model(netw, tmp_path / "m")
    manifest = json.loads((tmp_path / "m" / "model.json").read_text())

    bad = dict(manifest, magic="NOPE1")
    (tmp_path / "m" / "model.json").write_text(json.dumps(bad))
    with pytest.raises(FormatError):
        nm.load_model(tmp_path / "m")

    bad = json.loads(json.dumps(manifest))
    bad["tensors"][0]["shape"] = [99, 99, 9, 9]
    (tmp_path / "m" / "model.json").write_text(json.dumps(bad))
    with pytest.raises(FormatError):
        nm.load_model(tmp_path / "m")

    ones = np.ones(2)
    bn_net = nm.Network((nm.Dense(np.eye(2), None), nm.BatchNorm(ones, 0 * ones, 0 * ones, ones),
                         nm.ReLU()), (2,), capture_points=(2,))
    nm.save_model(bn_net, tmp_path / "bn")
    bad = json.loads((tmp_path / "bn" / "model.json").read_text())
    bad["layers"][1]["eps"] = -3.0  # 1/sqrt(running_var + eps) would be NaN
    (tmp_path / "bn" / "model.json").write_text(json.dumps(bad))
    with pytest.raises(FormatError, match="eps"):
        nm.load_model(tmp_path / "bn")

    for bad in ({k: v for k, v in manifest.items() if k != "tensors"}, [manifest]):
        (tmp_path / "m" / "model.json").write_text(json.dumps(bad))
        with pytest.raises(FormatError, match="model.json"):
            nm.load_model(tmp_path / "m")

    # a repeated or non-integral capture point, a non-integral input dimension
    for key, value in (("capture_points", [1, 1, 3]), ("capture_points", [1.9, 3]),
                       ("input_shape", [1, 8.5, 8])):
        (tmp_path / "m" / "model.json").write_text(json.dumps(dict(manifest, **{key: value})))
        with pytest.raises(FormatError, match="inconsistent model"):
            nm.load_model(tmp_path / "m")
    # an integer conv stride, which the layer takes, too large for the byte
    # strides of its windows in the dry run
    bad = json.loads(json.dumps(manifest))
    bad["layers"][0]["stride"] = 10 ** 30
    (tmp_path / "m" / "model.json").write_text(json.dumps(bad))
    with pytest.raises(FormatError, match="inconsistent model"):
        nm.load_model(tmp_path / "m")

    # layer 0's weight gone from both the index and the blob
    blob = (tmp_path / "m" / "weights.bin").read_bytes()
    (tmp_path / "m" / "weights.bin").write_bytes(blob[4 * 4 * 9:])
    bad = dict(manifest, tensors=manifest["tensors"][1:])
    (tmp_path / "m" / "model.json").write_text(json.dumps(bad))
    with pytest.raises(FormatError, match="layer 0"):
        nm.load_model(tmp_path / "m")


def test_load_rejects_a_tensor_listed_twice(tmp_path):
    # a zero-filled decoy of layer 0's weight, listed and stored before the
    # real one: the later entry used to win silently
    netw = small_random_cnn(np.random.default_rng(10))
    nm.save_model(netw, tmp_path)
    manifest = json.loads((tmp_path / "model.json").read_text())
    first = manifest["tensors"][0]
    assert (first["layer"], first["name"]) == (0, "weight")
    manifest["tensors"].insert(0, dict(first))
    (tmp_path / "model.json").write_text(json.dumps(manifest))
    blob = (tmp_path / "weights.bin").read_bytes()
    (tmp_path / "weights.bin").write_bytes(bytes(4 * netw.layers[0].weight.size) + blob)
    with pytest.raises(FormatError, match="model.json: layer 0 weight: listed twice"):
        nm.load_model(tmp_path)


def test_load_rejects_non_finite_tensors(tmp_path):
    import json
    rng = np.random.default_rng(9)
    ones = np.ones(3)
    netw = nm.Network((nm.Dense(rng.normal(size=(3, 2)), rng.normal(size=3)),
                       nm.BatchNorm(ones, 0 * ones, 0 * ones, ones), nm.ReLU(),
                       nm.Dense(rng.normal(size=(2, 3)), None)), (2,), capture_points=(2,))
    for layer, name, value in ((1, "running_var", np.nan), (3, "weight", np.inf)):
        path = tmp_path / name
        nm.save_model(netw, path)
        offset = 0
        for t in json.loads((path / "model.json").read_text())["tensors"]:
            if (t["layer"], t["name"]) == (layer, name):
                break
            offset += 4 * int(np.prod(t["shape"]))
        blob = bytearray((path / "weights.bin").read_bytes())
        blob[offset + 4:offset + 8] = np.array([value], dtype="<f4").tobytes()
        (path / "weights.bin").write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=f"weights.bin: layer {layer} {name}"):
            nm.load_model(path)

    # a NaN running variance built in memory fails the positivity check too
    with pytest.raises(ValueError, match="running variance"):
        bad_bn = nm.BatchNorm(ones, ones, ones, np.array([1.0, np.nan, 1.0]))
        nm.Network((nm.Dense(np.eye(3)), bad_bn), (3,))


def test_with_layers_keeps_untouched_layer_objects():
    rng = np.random.default_rng(8)
    netw = small_random_cnn(rng)
    dense = netw.layers[5]
    new_dense = nm.Dense(dense.weight * 0.5, dense.bias)
    swapped = nm.with_layers(netw, netw.layers[:5] + (new_dense,) + netw.layers[6:])
    assert all(a is b for k, (a, b) in enumerate(zip(swapped.layers, netw.layers)) if k != 5)
    assert swapped.layers[5] is new_dense
    assert nm.shared_depth(netw, swapped) == 5
    assert nm.shared_depth(netw, netw) == len(netw.layers)

    # float32 or non-contiguous arrays are coerced when the layer is built
    conv = netw.layers[0]
    f32 = nm.Conv2D(conv.weight.astype(np.float32), conv.bias, conv.stride, conv.padding)
    strided = nm.Dense(np.asfortranarray(dense.weight), dense.bias)
    fixed = nm.with_layers(netw, (f32,) + netw.layers[1:5] + (strided,) + netw.layers[6:])
    for k, given in ((0, f32), (5, strided)):
        got = fixed.layers[k]
        assert got is given
        assert all(a.dtype == np.float64 and a.flags.c_contiguous
                   for a in (got.weight, got.bias))
        assert np.array_equal(got.weight, netw.layers[k].weight.astype(
            np.float32 if k == 0 else np.float64))
    assert nm.shared_depth(netw, fixed) == 0
    assert fixed.layers[1] is netw.layers[1]

    # a stride given as a numpy integer is stored as an int
    loose = nm.Conv2D(conv.weight, conv.bias, stride=np.int64(1), padding=conv.padding)
    assert type(loose.stride) is int and loose.stride == 1
    assert nm.with_layers(netw, (loose,) + netw.layers[1:]).layers[0] is loose


def every_kind_network():
    """A seeded network with every layer kind: BatchNorm on a conv map and
    on a dense layer, Dropout on a conv map and after Flatten, and Dense
    with and without a bias."""
    rng = np.random.default_rng(21)

    def bn(c):
        return nm.BatchNorm(rng.normal(size=c), rng.normal(size=c), rng.normal(size=c),
                            rng.uniform(0.5, 2.0, size=c), eps=1e-3, momentum=0.2)

    layers = (
        nm.Conv2D(rng.normal(size=(4, 1, 3, 3)), rng.normal(size=4), stride=2, padding=1),
        bn(4), nm.ReLU(), nm.Dropout(0.1),
        nm.Conv2D(rng.normal(size=(5, 4, 3, 3)), rng.normal(size=5), stride=2, padding=1),
        nm.ReLU(), nm.Flatten(), nm.Dropout(0.25),
        nm.Dense(rng.normal(size=(6, 20)), rng.normal(size=6)), bn(6), nm.ReLU(),
        nm.Dense(rng.normal(size=(3, 6)), None),
    )
    return nm.Network(layers, (1, 8, 8), capture_points=(2, 5, 10))


def saved_digest(path):
    return hashlib.sha256((path / "model.json").read_bytes()
                          + (path / "weights.bin").read_bytes()).hexdigest()


def test_every_kind_saves_the_same_bytes_and_flops(tmp_path):
    # the digest pins the saved bytes of every layer kind's manifest entry
    # and tensors; it is the digest this network saved before MaxPool2 went
    netw = every_kind_network()
    nm.save_model(netw, tmp_path / "m")
    assert saved_digest(tmp_path / "m") == \
        "68ba582cc6fd215d26164f80d4414431bf6d9d270ffde66a6dad46af790d0a8d"
    nm.save_model(nm.load_model(tmp_path / "m"), tmp_path / "again")
    assert saved_digest(tmp_path / "again") == saved_digest(tmp_path / "m")
    # conv 4*1*9 at 4x4 and 5*4*9 at 2x2 (both stride 2), dense 6*20 and 3*6
    assert nm.count_flops(netw) == 1434 == 4 * 9 * 16 + 5 * 4 * 9 * 4 + 6 * 20 + 3 * 6


def test_count_flops_digits_and_factored():
    digits = pl.build_digits_model(ModelSection(), 0)
    assert nm.count_flops(digits) == 109824
    dense = digits.layers[14]
    factors = lr.factor_dense(dense.weight, dense.bias, np.eye(256), 7)
    # the 256x256 dense layer becomes two rank-7 factors: 65536 -> 2 * 7 * 256
    assert nm.count_flops(lr.replace_dense(digits, 14, factors)) == 47872


def test_layers_coerce_and_check_themselves():
    rng = np.random.default_rng(12)
    w = rng.normal(size=(3, 2, 3, 3))
    for layer in (nm.Conv2D(w.astype(np.float32), np.zeros(3, dtype=np.float32)),
                  nm.Dense(np.asfortranarray(rng.normal(size=(4, 5))), rng.normal(size=4)),
                  nm.BatchNorm(*(np.ones(6, dtype=np.float32) for _ in range(4)), eps=0)):
        for name in nm.tensor_fields(layer):
            a = getattr(layer, name)
            assert a.dtype == np.float64 and a.flags.c_contiguous
    assert np.array_equal(nm.Conv2D(w.astype(np.float32), np.zeros(3)).weight,
                          w.astype(np.float32))
    bn = nm.BatchNorm(*(np.ones(2) for _ in range(4)), eps=0, momentum=1)
    assert (type(bn.eps), type(bn.momentum), type(nm.Dropout(0).rate)) == (float,) * 3
    conv = nm.Conv2D(w, np.zeros(3), stride=np.int32(2), padding=np.uint8(1))
    assert (type(conv.stride), type(conv.padding)) == (int, int)
    # an array that needs no coercion is kept as the same object
    assert nm.Conv2D(w, np.zeros(3)).weight is w

    for bad in (lambda: nm.Dense(np.ones(3)),
                lambda: nm.Dense(np.ones((2, 3)), np.ones(3)),
                lambda: nm.Conv2D(np.ones((2, 3, 3)), np.ones(2)),
                lambda: nm.Conv2D(w, np.ones(2)),
                lambda: nm.Conv2D(w, None),
                lambda: nm.BatchNorm(np.ones(2), np.ones(2), np.ones(3), np.ones(2))):
        with pytest.raises(ShapeMismatch):
            bad()
    # int() would truncate a fractional stride or padding, and overflow on
    # 1e300, so a float is refused before the coercion
    for bad in (lambda: nm.Conv2D(w, np.zeros(3), stride=1.5),
                lambda: nm.Conv2D(w, np.zeros(3), stride=2.0),
                lambda: nm.Conv2D(w, np.zeros(3), padding=1e300),
                lambda: nm.Conv2D(w, np.zeros(3), stride=0),
                lambda: nm.Conv2D(w, np.zeros(3), padding=-1),
                lambda: nm.BatchNorm(*(np.ones(2) for _ in range(3)), np.array([1.0, np.nan])),
                lambda: nm.BatchNorm(*(np.ones(2) for _ in range(3)), np.array([1.0, 0.0])),
                lambda: nm.BatchNorm(*(np.ones(2) for _ in range(4)), eps=-1.0)):
        with pytest.raises(ValueError):
            bad()


@pytest.mark.parametrize("edit, layer, message", (
    (lambda m: m["layers"][5].update(kind="softmax"), 5, "unknown layer kind 'softmax'"),
    (lambda m: m["layers"][3].update(kind="maxpool2"), 3, "unknown layer kind 'maxpool2'"),
    (lambda m: m["tensors"][2].update(name="gamma"), 1, r"unexpected tensors \['gamma'\]"),
    (lambda m: m["tensors"][-1].update(layer=10), 10, r"unexpected tensors \['weight'\]"),
    (lambda m: m["layers"][4].pop("stride"), 4, "KeyError.*stride"),
    (lambda m: m["layers"][7].pop("rate"), 7, "KeyError.*rate"),
    # int() overflows on 1e300 and truncates 1.5
    (lambda m: m["layers"][4].update(stride=1e300), 4, "stride and padding must be integers"),
    (lambda m: m["layers"][0].update(padding=1.5), 0, "stride and padding must be integers"),
    (lambda m: m["tensors"][-1].update(layer=99), 99, "no such layer"),
    (lambda m: m["tensors"][0].update(layer=-1), -1, "no such layer"),
    # a keep probability of 0 would divide by zero in a training forward
    (lambda m: m["layers"][7].update(rate=1.0), 7, r"dropout rate must be in \[0, 1\)"),
    # the entry names a bias that the tensor index does not hold, and back
    (lambda m: m["layers"][11].update(has_bias=True), 11, "has_bias"),
    (lambda m: m["layers"][8].update(has_bias=False), 8, "has_bias"),
    (lambda m: m["layers"][9].update(channels=7), 9, "channels"),
))
def test_load_rejects_bad_layer_entries(tmp_path, edit, layer, message):
    nm.save_model(every_kind_network(), tmp_path)
    manifest = json.loads((tmp_path / "model.json").read_text())
    edit(manifest)
    (tmp_path / "model.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match=f"model.json: layer {layer}: .*{message}"):
        nm.load_model(tmp_path)

