import numpy as np
import pytest

from specprune import datasets as dsm
from specprune import net as nm
from specprune import train as tr


def test_same_seed_bit_identical():
    a_src, a_tgt = dsm.make_two_domain(31, 200)
    b_src, b_tgt = dsm.make_two_domain(31, 200)
    assert np.array_equal(a_src.train.features, b_src.train.features)
    assert np.array_equal(a_tgt.test.features, b_tgt.test.features)
    assert np.array_equal(a_src.train.labels, b_src.train.labels)
    c_src, _ = dsm.make_two_domain(32, 200)
    assert not np.array_equal(a_src.train.features, c_src.train.features)


def test_balanced_classes_and_shapes():
    src, tgt = dsm.make_two_domain(0, 500)
    for ds in (src.train, src.test, tgt.train, tgt.test):
        assert ds.features.shape == (500, 1, 8, 8)
        assert np.array_equal(np.bincount(ds.labels, minlength=10), np.full(10, 50))


def test_zero_shift_identical_class_distributions():
    zero = dsm.DomainShiftConfig(gain=1.0, offset=0.0, dx=0, dy=0, noise_std_extra=0.0)
    src, tgt = dsm.make_two_domain(5, 2000, shift=zero)
    src2, _ = dsm.make_two_domain(995, 2000, shift=zero)

    def class_mean_gap(a, b):
        return max(np.abs(a.features[a.labels == c].mean(axis=0)
                          - b.features[b.labels == c].mean(axis=0)).max()
                   for c in range(10))

    noise_floor = class_mean_gap(src.train, src2.train)  # two independent source draws
    assert class_mean_gap(src.train, tgt.train) < 2.5 * noise_floor
    # ...while the default shift moves every pixel by at least the offset
    _, shifted = dsm.make_two_domain(5, 2000)
    assert class_mean_gap(src.train, shifted.train) > 0.3


def test_default_shift_is_probe_detectable():
    src, tgt = dsm.make_two_domain(7, 400)
    feats = np.concatenate([src.train.features, tgt.train.features]).reshape(800, -1)
    domain = np.repeat([0, 1], 400)
    rng = np.random.default_rng(0)
    probe = nm.Network(
        (nm.Dense(rng.normal(size=(8, 64)) * 0.1, np.zeros(8)), nm.ReLU(),
         nm.Dense(rng.normal(size=(2, 8)) * 0.1, np.zeros(2))), (64,))
    data = dsm.DomainDataset("mixed", "train", feats, domain, n_classes=2)
    cfg = tr.TrainConfig(optimizer="adam", learning_rate=3e-3, weight_decay=0.0,
                         batch_size=64, epochs=6, seed=0)
    probe = tr.train(probe, [data], cfg)
    assert tr.evaluate([probe], data)[0] > 0.80


def test_shift_image_zero_fill():
    img = np.arange(9.0).reshape(3, 3)
    out = dsm.shift_image(img, 1, 0)
    assert np.array_equal(out, [[0, 0, 0], [0, 1, 2], [3, 4, 5]])
    out = dsm.shift_image(img, 0, -1)
    assert np.array_equal(out, [[1, 2, 0], [4, 5, 0], [7, 8, 0]])


def _draw_per_sample(rng, n, shift=None, base_noise_std=0.05):
    """Reference draw: the same generator calls, one shift_image per image."""
    classes = rng.permutation(np.arange(n) % dsm.N_CLASSES)
    jitter = rng.integers(-1, 2, size=(n, 2))
    intensity = rng.uniform(0.8, 1.2, size=n)
    noise = rng.normal(0.0, base_noise_std, size=(n, 8, 8))
    imgs = np.empty((n, 8, 8))
    for i in range(n):
        img = dsm.shift_image(dsm.GLYPHS[classes[i]] * intensity[i], jitter[i, 0], jitter[i, 1])
        imgs[i] = img + noise[i]
    if shift is not None and not shift.is_zero():
        extra = rng.normal(0.0, shift.noise_std_extra, size=(n, 8, 8)) \
            if shift.noise_std_extra > 0 else 0.0
        for i in range(n):
            imgs[i] = dsm.shift_image(imgs[i], shift.dy, shift.dx)
        imgs = shift.gain * imgs + shift.offset + extra
    return imgs[:, None, :, :], classes


@pytest.mark.parametrize("shift", [
    None,
    dsm.DomainShiftConfig(),
    dsm.DomainShiftConfig(gain=0.8, offset=0.15, dx=1, noise_std_extra=0.02),
    dsm.DomainShiftConfig(gain=1.0, offset=0.0, dx=0, dy=0, noise_std_extra=0.0),
    dsm.DomainShiftConfig(dx=-2, dy=1),
], ids=["none", "default", "c09", "zero", "dx-2_dy1"])
def test_batched_draw_matches_per_sample_shifts(shift):
    for seed in range(3):
        feats, classes = dsm._draw_samples(np.random.default_rng(seed), 300, shift=shift)
        ref_feats, ref_classes = _draw_per_sample(np.random.default_rng(seed), 300, shift=shift)
        assert feats.tobytes() == ref_feats.tobytes()
        assert np.array_equal(classes, ref_classes)


def test_shift_image_batch_matches_per_image():
    imgs = np.random.default_rng(4).normal(size=(5, 8, 8))
    for dy, dx in ((1, -1), (-2, 0), (0, 2), (2, -2)):
        batch = dsm.shift_image(imgs, dy, dx)
        assert batch.tobytes() == np.stack([dsm.shift_image(im, dy, dx)
                                            for im in imgs]).tobytes()
