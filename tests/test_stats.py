import numpy as np
import pytest
import references

from specprune import net as nm
from specprune import spectral as sp
from specprune import stats as st
from specprune.errors import DegenerateSigma, InsufficientSamples, ShapeMismatch


def batch(rows, layer=0):
    return nm.ActivationBatch(layer, np.asarray(rows, dtype=np.float64))


def test_accumulate_empty_and_single():
    acc = st.MomentAccumulator(0, 3)
    st.accumulate(acc, batch(np.zeros((0, 3))))
    assert acc.n == 0 and np.all(acc.sum == 0)
    v = np.array([1.0, -2.0, 0.5])
    st.accumulate(acc, batch(v[None, :]))
    assert acc.n == 1
    assert np.array_equal(acc.sum, v)
    assert np.array_equal(acc.sum_outer, np.outer(v, v))


def test_accumulate_matches_direct_product():
    rng = np.random.default_rng(0)
    phi = rng.normal(size=(1000, 6))
    acc = st.MomentAccumulator(0, 6)
    for start in range(0, 1000, 128):
        st.accumulate(acc, batch(phi[start:start + 128]))
    sigma = st.finalize(acc).sigma
    direct = phi.T @ phi / 1000
    assert np.abs(sigma - direct).max() < 1e-10


def test_accumulate_shape_mismatch():
    acc = st.MomentAccumulator(0, 3)
    with pytest.raises(ShapeMismatch):
        st.accumulate(acc, batch(np.zeros((2, 4))))
    with pytest.raises(ShapeMismatch):
        st.accumulate(acc, batch(np.zeros((2, 3)), layer=1))


def test_finalize_constant_and_antipodal():
    v = np.array([2.0, -1.0])
    acc = st.accumulate(st.MomentAccumulator(0, 2), batch(np.tile(v, (5, 1))))
    s = st.finalize(acc)
    assert np.allclose(s.sigma, np.outer(v, v))
    assert np.abs(s.cov).max() < 1e-12

    u = np.array([1.0, 3.0])
    acc = st.accumulate(st.MomentAccumulator(0, 2), batch(np.vstack([u, -u])))
    s = st.finalize(acc)
    assert np.allclose(s.mean, 0.0)
    assert np.allclose(s.sigma, np.outer(u, u))
    assert np.allclose(s.cov, np.outer(u, u))


def test_finalize_standard_normal_sampling():
    rng = np.random.default_rng(3)
    acc = st.accumulate(st.MomentAccumulator(0, 4), batch(rng.normal(size=(100_000, 4))))
    s = st.finalize(acc)
    assert np.abs(s.cov - np.eye(4)).max() < 0.05
    assert np.array_equal(s.cov, s.cov.T)  # exactly symmetric
    assert np.array_equal(s.sigma, s.sigma.T)


def test_finalize_requires_two_samples():
    acc = st.accumulate(st.MomentAccumulator(3, 2), batch([[1.0, 2.0]], layer=3))
    with pytest.raises(InsufficientSamples,
                       match=r"capture point 3 \(source stream\): need at least 2 samples"):
        st.finalize(acc, "source")


def test_finalize_rejects_non_finite_rows():
    for bad in (np.nan, np.inf):
        acc = st.accumulate(st.MomentAccumulator(5, 2),
                            batch([[1.0, 2.0], [bad, 0.5]], layer=5))
        with pytest.raises(DegenerateSigma, match=r"capture point 5 \(target stream\)"):
            st.finalize(acc, "target")


def make_stats(cov, mean=None):
    m = cov.shape[0]
    mean = np.zeros(m) if mean is None else np.asarray(mean, dtype=np.float64)
    cov = (cov + cov.T) / 2.0
    return st.LayerStatistics(sigma=cov + np.outer(mean, mean), mean=mean)


def test_scaling_matrix_identity_and_hand_case():
    assert np.allclose(st.scaling_matrix(make_stats(np.eye(3))), np.ones((3, 3)))
    s = st.scaling_matrix(make_stats(np.diag([16.0, 1.0])))
    assert np.allclose(s, [[0.25, 0.5], [0.5, 1.0]])


def test_scaling_matrix_inverse_identity_and_floor():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(5, 5))
    cov = a @ a.T
    stats = make_stats(cov)
    s = st.scaling_matrix(stats)
    d = np.diag(cov)
    prod = s * (d[:, None] * d[None, :]) ** 0.25
    assert np.allclose(prod, 1.0)
    # floored diagonal stays finite
    cov2 = cov.copy()
    cov2[0, :] = 0.0
    cov2[:, 0] = 0.0
    s2 = st.scaling_matrix(make_stats(cov2))
    assert np.all(np.isfinite(s2)) and np.all(s2 >= 0)
    assert np.array_equal(s2, s2.T)


def test_scaling_covariance_under_activation_scaling():
    rng = np.random.default_rng(5)
    phi = rng.normal(size=(500, 3)) + 0.3
    psi = rng.normal(size=(500, 3))
    c = 10.0

    def stats_of(rows):
        return st.finalize(st.accumulate(st.MomentAccumulator(0, 3), batch(rows)))

    s_t, s_tc = stats_of(phi), stats_of(c * phi)
    s_s, s_sc = stats_of(psi), stats_of(c * psi)
    assert np.allclose(s_tc.sigma, c * c * s_t.sigma)
    sm, smc = st.scaling_matrix(s_t), st.scaling_matrix(s_tc)
    assert np.allclose(smc, sm / c)
    dc = s_s.cov - s_t.cov
    dcc = s_sc.cov - s_tc.cov
    assert np.allclose(smc * dcc, c * (sm * dc))


def test_cov_and_scaling_match_the_stored_symmetrized_covariance():
    # finalize once stored cov as sym(sigma - mean mean^T); the derived
    # property and the scaling matrix must keep those bits, constant and
    # all-zero nodes included
    rng = np.random.default_rng(8)
    for case in range(300):
        n, m = int(rng.integers(2, 40)), int(rng.integers(1, 12))
        rows = rng.normal(size=(n, m)) * rng.uniform(1e-3, 1e3, size=m) \
            + rng.normal(size=m) * 10.0 ** rng.integers(-3, 4)
        if case % 3 == 0:
            rows[:, rng.integers(m)] = 0.0
        if case % 5 == 0:
            rows[:, rng.integers(m)] = rng.normal()
        stats = st.finalize(st.accumulate(st.MomentAccumulator(0, m), batch(rows)))
        assert np.array_equal(stats.cov, references.layer_statistics_cov(stats))
        assert np.array_equal(st.scaling_matrix(stats), references.scaling_matrix(stats))


def relu_capture_net(weight, bias):
    return nm.Network((nm.Dense(weight, bias), nm.ReLU()), (weight.shape[1],),
                      capture_points=(1,))


def test_activation_rates_extremes_and_order_invariance():
    rng = np.random.default_rng(6)
    w = np.vstack([np.ones((1, 3)), np.ones((1, 3))])
    netw = relu_capture_net(w, np.array([100.0, -100.0]))
    feats = rng.normal(size=(50, 3))
    rates = st.activation_rates(sp._push(netw, feats, 0, 2))
    assert rates[0] == 1.0
    assert rates[1] == 0.0
    shuffled = st.activation_rates(sp._push(netw, feats[rng.permutation(50)], 0, 2))
    assert rates.mean() == shuffled.mean() == 0.5
    assert np.array_equal(rates, shuffled)
    # a conv capture has one row per spatial position of each sample
    x = rng.normal(size=(5, 3, 2, 2))
    assert np.array_equal(st.activation_rates(x), (nm.capture_rows(x) > 0).mean(axis=0))


def test_rows_to_acc_row_budget_and_determinism(monkeypatch):
    rng = np.random.default_rng(7)
    netw = nm.Network(
        (nm.Conv2D(rng.normal(size=(4, 1, 3, 3)), np.zeros(4), 1, 1), nm.ReLU()),
        (1, 8, 8), capture_points=(1,))
    x = sp._push(netw, rng.normal(size=(100, 1, 8, 8)), 0, 2)

    def moments(row_budget):
        monkeypatch.setattr(sp, "ROW_BUDGET", row_budget)
        gen = np.random.default_rng(3)
        acc = sp._rows_to_acc(1, x, gen)
        return acc, gen.bit_generator.state != np.random.default_rng(3).bit_generator.state

    (a1, drew1), (a2, _) = moments(512), moments(512)
    assert a1.n == a2.n == 512 and drew1  # single block, capped
    assert np.array_equal(a1.sum_outer, a2.sum_outer)
    full, drew = moments(100 * 64)  # a block at the budget is not subsampled
    assert full.n == 100 * 64 and not drew
