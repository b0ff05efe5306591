import numpy as np
import pytest
import references

from specprune import linalg
from specprune.errors import NoConvergence, NotPositiveDefinite


def random_spd(rng, n, cond=None):
    a = rng.normal(size=(n, n))
    spd = a @ a.T + n * np.eye(n)
    return spd


def test_cholesky_identity():
    assert np.array_equal(linalg.cholesky(np.eye(3), ridge=0.0), np.eye(3))


def test_cholesky_hand_2x2():
    lower = linalg.cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]), ridge=0.0)
    expect = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
    assert np.allclose(lower, expect, atol=1e-14)


def test_cholesky_reconstructs_random_spd():
    rng = np.random.default_rng(7)
    a = random_spd(rng, 8)
    lower = linalg.cholesky(a, ridge=0.0)
    rec = lower @ lower.T
    assert np.linalg.norm(rec - a) <= 1e-10 * np.linalg.norm(a)


def test_cholesky_applies_ridge():
    a = np.zeros((4, 4))
    lower = linalg.cholesky(a, ridge=2.0)
    assert np.allclose(lower @ lower.T, 2.0 * np.eye(4))


def test_cholesky_rejects_asymmetric_and_indefinite():
    with pytest.raises(ValueError):
        linalg.cholesky(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(NotPositiveDefinite):
        linalg.cholesky(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(ValueError):
        linalg.cholesky(np.eye(2), ridge=-1.0)


@pytest.mark.parametrize("m", [1, 127, 128, 129, 300])
def test_is_symmetric_keeps_the_whole_matrix_rule(m):
    # the tiled check gives the boolean of the whole-matrix formula in
    # references.py for an asymmetry just over or under the 1e-9 rule, or a
    # NaN, in each tile position; it is False for any Inf, also a lone one
    # off the diagonal, which the formula lets pass
    rng = np.random.default_rng(30 + m)
    base = rng.normal(size=(m, m))
    base += base.T
    assert linalg.is_symmetric(base) and references.is_symmetric(base)
    tile = linalg.SYMMETRY_TILE
    tol = 1e-9 * np.abs(base).max()
    for ti in range(0, m, tile):
        for tj in range(0, m, tile):
            i = int(rng.integers(ti, min(ti + tile, m)))
            j = int(rng.integers(tj, min(tj + tile, m)))
            if i == j and m > 1:
                j = tj + (i - tj + 1) % (min(tj + tile, m) - tj)
            for bad in (0.5 * tol, 2.0 * tol, np.nan, np.inf, -np.inf):
                a = base.copy()
                a[i, j] += bad
                with np.errstate(invalid="ignore"):  # Inf - Inf on the diagonal
                    got, ref = linalg.is_symmetric(a), references.is_symmetric(a)
                if np.isinf(bad):
                    assert not got
                else:
                    assert got == ref == (not np.isnan(bad) and (i == j or bad < tol))


def test_svd_diag_and_rank_one():
    u, s, v = linalg.svd(np.diag([3.0, 1.0]))
    assert np.allclose(s, [3.0, 1.0])
    x = np.array([1.0, 2.0, 2.0])
    y = np.array([3.0, 4.0])
    u, s, v = linalg.svd(np.outer(x, y))
    assert np.allclose(s, [np.linalg.norm(x) * np.linalg.norm(y), 0.0], atol=1e-12)


def test_svd_reconstruction_and_orthonormality():
    rng = np.random.default_rng(19)
    m = rng.normal(size=(10, 6))
    u, s, v = linalg.svd(m)
    rec = u @ np.diag(s) @ v.T
    assert np.linalg.norm(rec - m) <= 1e-8 * np.linalg.norm(m)
    assert np.allclose(u.T @ u, np.eye(6), atol=1e-8)
    assert np.allclose(v.T @ v, np.eye(6), atol=1e-8)
    assert np.all(np.diff(s) <= 0) and np.all(s >= 0)


def test_svd_permutation_invariant_spectrum():
    rng = np.random.default_rng(23)
    m = rng.normal(size=(7, 5))
    perm = rng.permutation(7)
    s1 = linalg.svd(m)[1]
    s2 = linalg.svd(m[perm][:, rng.permutation(5)])[1]
    assert np.allclose(np.sort(s1), np.sort(s2), atol=1e-9)


def test_svd_rejects_non_finite():
    with pytest.raises((ValueError, NoConvergence)):
        linalg.svd(np.array([[np.nan, 1.0], [0.0, 1.0]]))


def test_kernels_deterministic():
    rng = np.random.default_rng(29)
    a = random_spd(rng, 6)
    assert np.array_equal(linalg.cholesky(a, ridge=0.5), linalg.cholesky(a, ridge=0.5))
    u1 = linalg.svd(a)
    u2 = linalg.svd(a)
    assert all(np.array_equal(x, y) for x, y in zip(u1, u2))
