import numpy as np
import pytest

from specprune import lowrank as lr
from specprune import net as nm
from specprune.errors import DegenerateData, RankOutOfRange


def compose(fd):
    """The m x n weight a factored pair applies."""
    return fd.second @ fd.first


def param_count(fd):
    """Parameters of a factored pair: both factors and the one bias."""
    return fd.first.size + fd.second.size + fd.bias.size


def tail_norm(singular_values, k):
    return float(np.sqrt((singular_values[k:] ** 2).sum()))


def test_svd_truncate_full_rank_exact():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(6, 4))
    fd = lr.svd_truncate(w, np.zeros(6), 4)
    assert np.linalg.norm(compose(fd) - w) < 1e-8 * np.linalg.norm(w)


def test_svd_truncate_rank_one_exact():
    u = np.array([1.0, -2.0, 0.5])
    v = np.array([3.0, 1.0, 2.0, -1.0])
    fd = lr.svd_truncate(np.outer(u, v), np.zeros(3), 1)
    assert np.linalg.norm(compose(fd) - np.outer(u, v)) < 1e-12


def test_svd_truncate_tail_formula_and_monotonicity():
    rng = np.random.default_rng(1)
    w = rng.normal(size=(8, 10))
    s = np.linalg.svd(w, compute_uv=False)
    errs = []
    for k in range(1, 9):
        fd = lr.svd_truncate(w, np.zeros(8), k)
        err = np.linalg.norm(w - compose(fd))
        errs.append(err)
        assert err == pytest.approx(tail_norm(s, k), abs=1e-8)
    assert np.all(np.diff(errs) <= 1e-12)
    assert errs[-1] < 1e-10  # zero at full rank


def test_svd_truncate_rank_bounds():
    w = np.eye(3)
    with pytest.raises(RankOutOfRange):
        lr.svd_truncate(w, np.zeros(3), 0)
    with pytest.raises(RankOutOfRange):
        lr.svd_truncate(w, np.zeros(3), 4)


def test_dalr_exact_rank_k_data():
    rng = np.random.default_rng(2)
    w = rng.normal(size=(7, 5))
    x = rng.normal(size=(5, 3)) @ rng.normal(size=(3, 40))  # W X has rank <= 3
    fd = lr.dalr_compress(w, np.zeros(7), x, 3)
    assert np.linalg.norm((w - compose(fd)) @ x) < 1e-8


def test_dalr_full_rank_recovers_weight():
    rng = np.random.default_rng(3)
    w = rng.normal(size=(5, 6))
    x = rng.normal(size=(6, 50))
    fd = lr.dalr_compress(w, np.zeros(5), x, 5)
    assert np.linalg.norm(compose(fd) - w) < 1e-10 * np.linalg.norm(w)


def test_dalr_tail_bound_and_random_probes():
    rng = np.random.default_rng(4)
    w = rng.normal(size=(9, 7))
    x = rng.normal(size=(7, 60))
    k = 4
    fd = lr.dalr_compress(w, np.zeros(9), x, k)
    err = np.linalg.norm((w - compose(fd)) @ x)
    s = np.linalg.svd(w @ x, compute_uv=False)
    assert err == pytest.approx(tail_norm(s, k), abs=1e-8)
    for _ in range(1000):
        a = rng.normal(size=(9, k))
        b = rng.normal(size=(k, 7))
        probe_err = np.linalg.norm((w - a @ b) @ x)
        assert err <= probe_err + 1e-8


def test_dalr_orthonormal_and_beats_plain_svd():
    rng = np.random.default_rng(5)
    for trial in range(10):
        w = rng.normal(size=(8, 8))
        x = rng.normal(size=(8, 30)) * rng.uniform(0.2, 3.0, size=(8, 1))
        k = int(rng.integers(1, 7))
        fd = lr.dalr_compress(w, np.zeros(8), x, k)
        assert np.allclose(fd.second.T @ fd.second, np.eye(k), atol=1e-8)
        plain = lr.svd_truncate(w, np.zeros(8), k)
        dalr_obj = np.linalg.norm((w - compose(fd)) @ x)
        svd_obj = np.linalg.norm((w - compose(plain)) @ x)
        assert dalr_obj <= svd_obj + 1e-10


def test_dalr_degenerate_and_rank_errors():
    with pytest.raises(DegenerateData):
        lr.dalr_compress(np.zeros((3, 3)), np.zeros(3), np.eye(3), 1)
    with pytest.raises(RankOutOfRange):
        lr.dalr_compress(np.eye(3), np.zeros(3), np.ones((3, 2)), 3)  # fewer samples than k
    with pytest.raises(RankOutOfRange):
        lr.dalr_compress(np.eye(3), np.zeros(3), np.ones((4, 5)), 2)  # row mismatch


def test_matched_rank_reference_value_and_monotone():
    assert lr.matched_rank(4, 4096, 4096, 102) == 108
    ks = [lr.matched_rank(k, 4096, 4096, 102) for k in (4, 8, 16, 32, 64, 128)]
    assert all(b >= a for a, b in zip(ks, ks[1:]))
    assert lr.matched_rank(1, 64, 64, 10) >= 1


def test_matched_rank_self_consistency_cap():
    m = 512
    assert lr.matched_rank(m, m, m, m) == m  # equal budgets at no compression


def test_dalr_feasible_boundary_and_fraction():
    assert lr.dalr_feasible(4, 4096, 4096)
    assert lr.dalr_param_fraction(4, 4096, 4096) == pytest.approx(0.00195, abs=5e-5)
    assert round(100 * lr.dalr_param_fraction(4, 4096, 4096), 2) == 0.20
    assert round(100 * lr.dalr_param_fraction(128, 4096, 4096), 2) == 6.25
    assert not lr.dalr_feasible(2, 4, 4)  # k = mn/(m+n) exactly: strict inequality
    assert lr.dalr_feasible(1, 4, 4)


def test_factored_param_count():
    rng = np.random.default_rng(6)
    m, n, k = 12, 9, 3
    fd = lr.svd_truncate(rng.normal(size=(m, n)), rng.normal(size=m), k)
    assert param_count(fd) == k * (m + n) + m


def test_replace_dense_full_rank_preserves_forward():
    rng = np.random.default_rng(7)
    netw = nm.Network(
        (nm.Dense(rng.normal(size=(6, 4)), rng.normal(size=6)), nm.ReLU(),
         nm.Dense(rng.normal(size=(3, 6)), rng.normal(size=3))), (4,),
        capture_points=(1,))
    fd = lr.svd_truncate(netw.layers[0].weight, netw.layers[0].bias, 4)
    swapped = lr.replace_dense(netw, 0, fd)
    assert len(swapped.layers) == 4
    assert swapped.capture_points == (2,)
    assert swapped.layers[0].bias is None
    x = rng.normal(size=(20, 4))
    out0, _ = nm.forward(netw, x)
    out1, _ = nm.forward(swapped, x)
    assert np.abs(out0 - out1).max() < 1e-10
    assert nm.count_params(swapped) == param_count(fd) + 3 * 6 + 3


def test_logit_drift_shrinks_with_rank():
    rng = np.random.default_rng(8)
    netw = nm.Network(
        (nm.Dense(rng.normal(size=(10, 8)), rng.normal(size=10)), nm.ReLU(),
         nm.Dense(rng.normal(size=(4, 10)), rng.normal(size=4))), (8,))
    x = rng.normal(size=(50, 8))
    base, _ = nm.forward(netw, x)
    drifts = []
    for k in range(1, 9):
        fd = lr.dalr_compress(netw.layers[0].weight, netw.layers[0].bias, x.T, k)
        out, _ = nm.forward(lr.replace_dense(netw, 0, fd), x)
        drifts.append(np.linalg.norm(out - base))
    assert all(b <= a + 1e-6 for a, b in zip(drifts, drifts[1:]))


def test_factored_round_trip_through_model_format(tmp_path):
    rng = np.random.default_rng(9)
    netw = nm.Network(
        (nm.Dense(rng.normal(size=(5, 4)), rng.normal(size=5)), nm.ReLU(),
         nm.Dense(rng.normal(size=(3, 5)), rng.normal(size=3))), (4,))
    fd = lr.svd_truncate(netw.layers[0].weight, netw.layers[0].bias, 2)
    swapped = lr.replace_dense(netw, 0, fd)
    nm.save_model(swapped, tmp_path / "m")
    back = nm.load_model(tmp_path / "m")
    assert back.layers[0].bias is None
    assert back.layers[1].bias is not None
    x = rng.normal(size=(4, 4))
    out0, _ = nm.forward(swapped, x)
    out1, _ = nm.forward(back, x)
    assert np.abs(out0 - out1).max() < 1e-6  # f32 quantization only
