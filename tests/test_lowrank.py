import numpy as np
import pytest
import references

from specprune import lowrank as lr
from specprune import net as nm
from specprune.errors import DegenerateData, RankOutOfRange
from specprune.linalg import svd


def compose(factors):
    """The m x n weight a factored pair applies."""
    first, second = factors
    return second.weight @ first.weight


def param_count(factors):
    """Parameters of a factored pair: both factors and the one bias."""
    first, second = factors
    return first.weight.size + second.weight.size + second.bias.size


def tail_norm(singular_values, k):
    return float(np.sqrt((singular_values[k:] ** 2).sum()))


def svd_path(weight, bias, k):
    """The `svd` baseline's factors: DALR on identity inputs."""
    return lr.factor_dense(weight, bias, np.eye(np.shape(weight)[1]), k)


def truncated_svd(w, k):
    """The best rank-k approximation of w, from np.linalg.svd directly."""
    u, s, vt = np.linalg.svd(w, full_matrices=False)
    return (u[:, :k] * s[:k]) @ vt[:k]


def test_svd_path_full_rank_exact():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(6, 4))
    factors = svd_path(w, np.zeros(6), 4)
    assert np.linalg.norm(compose(factors) - w) < 1e-8 * np.linalg.norm(w)


def test_svd_path_rank_one_exact():
    u = np.array([1.0, -2.0, 0.5])
    v = np.array([3.0, 1.0, 2.0, -1.0])
    factors = svd_path(np.outer(u, v), np.zeros(3), 1)
    assert np.linalg.norm(compose(factors) - np.outer(u, v)) < 1e-12


def test_svd_path_tail_formula_and_monotonicity():
    rng = np.random.default_rng(1)
    w = rng.normal(size=(8, 10))
    s = np.linalg.svd(w, compute_uv=False)
    errs = []
    for k in range(1, 9):
        factors = svd_path(w, np.zeros(8), k)
        err = np.linalg.norm(w - compose(factors))
        errs.append(err)
        assert err == pytest.approx(tail_norm(s, k), abs=1e-8)
        assert np.abs(compose(factors) - truncated_svd(w, k)).max() < 1e-12
    assert np.all(np.diff(errs) <= 1e-12)
    assert errs[-1] < 1e-10  # zero at full rank


def test_svd_path_rank_bounds():
    w = np.eye(3)
    with pytest.raises(RankOutOfRange):
        svd_path(w, np.zeros(3), 0)
    with pytest.raises(RankOutOfRange):
        svd_path(w, np.zeros(3), 4)


def test_svd_path_keeps_the_truncated_svd_factors():
    # W @ I is W bit for bit, so the second factor is U_k of the SVD of W
    # itself; the first, U_k^T W, equals Sigma_k V_k^T to rounding
    rng = np.random.default_rng(10)
    for m, n in ((256, 64), (64, 256), (10, 256), (40, 40)):
        w = rng.normal(size=(m, n))
        u, s, v = svd(w)
        for k in (1, min(m, n) // 2, min(m, n)):
            first, second = svd_path(w, np.zeros(m), k)
            assert np.array_equal(second.weight, u[:, :k])
            scaled = s[:k, None] * v[:, :k].T
            assert np.abs(first.weight - scaled).max() <= 1e-14 * np.abs(scaled).max()


def test_dalr_exact_rank_k_data():
    rng = np.random.default_rng(2)
    w = rng.normal(size=(7, 5))
    x = rng.normal(size=(5, 3)) @ rng.normal(size=(3, 40))  # W X has rank <= 3
    factors = lr.factor_dense(w, np.zeros(7), x, 3)
    assert np.linalg.norm((w - compose(factors)) @ x) < 1e-8


def test_dalr_full_rank_recovers_weight():
    rng = np.random.default_rng(3)
    w = rng.normal(size=(5, 6))
    x = rng.normal(size=(6, 50))
    factors = lr.factor_dense(w, np.zeros(5), x, 5)
    assert np.linalg.norm(compose(factors) - w) < 1e-10 * np.linalg.norm(w)


def test_dalr_tail_bound_and_random_probes():
    rng = np.random.default_rng(4)
    w = rng.normal(size=(9, 7))
    x = rng.normal(size=(7, 60))
    k = 4
    factors = lr.factor_dense(w, np.zeros(9), x, k)
    err = np.linalg.norm((w - compose(factors)) @ x)
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
        factors = lr.factor_dense(w, np.zeros(8), x, k)
        assert np.allclose(factors[1].weight.T @ factors[1].weight, np.eye(k), atol=1e-8)
        plain = svd_path(w, np.zeros(8), k)
        dalr_obj = np.linalg.norm((w - compose(factors)) @ x)
        svd_obj = np.linalg.norm((w - compose(plain)) @ x)
        assert dalr_obj <= svd_obj + 1e-10


def test_dalr_degenerate_and_rank_errors():
    with pytest.raises(DegenerateData):
        lr.factor_dense(np.zeros((3, 3)), np.zeros(3), np.eye(3), 1)
    with pytest.raises(RankOutOfRange):
        lr.factor_dense(np.eye(3), np.zeros(3), np.ones((3, 2)), 3)  # fewer samples than k
    with pytest.raises(RankOutOfRange):
        lr.factor_dense(np.eye(3), np.zeros(3), np.ones((4, 5)), 2)  # row mismatch


def test_matched_rank_reference_value_and_monotone():
    assert references.matched_rank(4, 4096, 4096, 102) == 108
    ks = [references.matched_rank(k, 4096, 4096, 102) for k in (4, 8, 16, 32, 64, 128)]
    assert all(b >= a for a, b in zip(ks, ks[1:]))
    assert references.matched_rank(1, 64, 64, 10) >= 1


def test_matched_rank_self_consistency_cap():
    m = 512
    assert references.matched_rank(m, m, m, m) == m  # equal budgets at no compression


def test_dalr_feasible_boundary_and_fraction():
    assert lr.dalr_feasible(4, 4096, 4096)
    assert references.dalr_param_fraction(4, 4096, 4096) == pytest.approx(0.00195, abs=5e-5)
    assert round(100 * references.dalr_param_fraction(4, 4096, 4096), 2) == 0.20
    assert round(100 * references.dalr_param_fraction(128, 4096, 4096), 2) == 6.25
    assert not lr.dalr_feasible(2, 4, 4)  # k = mn/(m+n) exactly: strict inequality
    assert lr.dalr_feasible(1, 4, 4)


def test_factored_param_count():
    rng = np.random.default_rng(6)
    m, n, k = 12, 9, 3
    factors = svd_path(rng.normal(size=(m, n)), rng.normal(size=m), k)
    assert param_count(factors) == k * (m + n) + m


def test_replace_dense_full_rank_preserves_forward():
    rng = np.random.default_rng(7)
    netw = nm.Network(
        (nm.Dense(rng.normal(size=(6, 4)), rng.normal(size=6)), nm.ReLU(),
         nm.Dense(rng.normal(size=(3, 6)), rng.normal(size=3))), (4,),
        capture_points=(1,))
    factors = svd_path(netw.layers[0].weight, netw.layers[0].bias, 4)
    swapped = lr.replace_dense(netw, 0, factors)
    assert len(swapped.layers) == 4
    assert swapped.capture_points == (2,)
    assert swapped.layers[0].bias is None
    x = rng.normal(size=(20, 4))
    out0, _ = nm.forward(netw, x)
    out1, _ = nm.forward(swapped, x)
    assert np.abs(out0 - out1).max() < 1e-10
    assert nm.count_params(swapped) == param_count(factors) + 3 * 6 + 3


def test_replace_dense_refuses_mismatched_factors():
    rng = np.random.default_rng(11)
    netw = nm.Network((nm.Dense(rng.normal(size=(6, 4)), None),), (4,))
    first, second = svd_path(rng.normal(size=(6, 5)), np.zeros(6), 2)
    with pytest.raises(RankOutOfRange, match="factor shapes"):
        lr.replace_dense(netw, 0, (first, second))
    with pytest.raises(TypeError):
        lr.replace_dense(nm.Network((nm.ReLU(),), (4,)), 0, (first, second))


def test_logit_drift_shrinks_with_rank():
    rng = np.random.default_rng(8)
    netw = nm.Network(
        (nm.Dense(rng.normal(size=(10, 8)), rng.normal(size=10)), nm.ReLU(),
         nm.Dense(rng.normal(size=(4, 10)), rng.normal(size=4))), (8,))
    x = rng.normal(size=(50, 8))
    base, _ = nm.forward(netw, x)
    drifts = []
    for k in range(1, 9):
        factors = lr.factor_dense(netw.layers[0].weight, netw.layers[0].bias, x.T, k)
        out, _ = nm.forward(lr.replace_dense(netw, 0, factors), x)
        drifts.append(np.linalg.norm(out - base))
    assert all(b <= a + 1e-6 for a, b in zip(drifts, drifts[1:]))


def test_factored_round_trip_through_model_format(tmp_path):
    rng = np.random.default_rng(9)
    netw = nm.Network(
        (nm.Dense(rng.normal(size=(5, 4)), rng.normal(size=5)), nm.ReLU(),
         nm.Dense(rng.normal(size=(3, 5)), rng.normal(size=3))), (4,))
    factors = svd_path(netw.layers[0].weight, netw.layers[0].bias, 2)
    swapped = lr.replace_dense(netw, 0, factors)
    nm.save_model(swapped, tmp_path / "m")
    back = nm.load_model(tmp_path / "m")
    assert back.layers[0].bias is None
    assert back.layers[1].bias is not None
    x = rng.normal(size=(4, 4))
    out0, _ = nm.forward(swapped, x)
    out1, _ = nm.forward(back, x)
    assert np.abs(out0 - out1).max() < 1e-6  # f32 quantization only
