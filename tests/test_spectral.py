import dataclasses
import hashlib
import itertools

import numpy as np
import pytest
import references
from blas_threads import outputs_at_one_and_two_threads

from specprune import backend
from specprune import net as nm
from specprune import spectral as sp
from specprune import stats as st
from specprune.errors import DegenerateSigma, ShapeMismatch, StatsMissing, TopologyError


def moment_of(rows):
    rows = np.asarray(rows, dtype=np.float64)
    return rows.T @ rows / rows.shape[0]


def random_activations(rng, n, m, rank=None):
    """Random nonnegative activation-like rows with controllable rank."""
    rank = rank or m
    latent = rng.normal(size=(n, rank))
    mix = rng.normal(size=(rank, m))
    return np.maximum(latent @ mix + 0.3, 0.0)


def make_stats(cov, mean=None):
    m = cov.shape[0]
    mean = np.zeros(m) if mean is None else np.asarray(mean, dtype=np.float64)
    cov = (cov + cov.T) / 2.0
    return st.LayerStatistics(sigma=cov + np.outer(mean, mean), mean=mean)


def random_stats_pair(rng, m):
    a = rng.normal(size=(m, m))
    b = rng.normal(size=(m, m))
    s = make_stats(a @ a.T / m + 0.1 * np.eye(m), rng.normal(size=m))
    t = make_stats(b @ b.T / m + 0.1 * np.eye(m), rng.normal(size=m))
    return s, t


# ---------------------------------------------------------------------------
# retention ratio
# ---------------------------------------------------------------------------

def test_retention_ratio_full_empty_and_diagonal():
    rng = np.random.default_rng(0)
    sigma = moment_of(random_activations(rng, 200, 5))
    assert references.retention_ratio(sigma, [], ridge=0.0) == 0.0
    assert references.retention_ratio(sigma, range(5), ridge=0.0) == pytest.approx(1.0, abs=1e-9)
    assert references.retention_ratio(np.diag([2.0, 1.0]), [0], ridge=0.0) == pytest.approx(2 / 3)


def test_retention_ratio_scaling_invariance():
    rng = np.random.default_rng(1)
    sigma = moment_of(random_activations(rng, 300, 6))
    j = [1, 4]
    base = references.retention_ratio(sigma, j, ridge=0.0)
    for c in (0.1, 1.0, 10.0):
        assert abs(references.retention_ratio(c * c * sigma, j, ridge=0.0) - base) < 1e-10


def test_retention_ratio_degenerate():
    with pytest.raises(DegenerateSigma):
        references.retention_ratio(np.zeros((3, 3)), [0])


# ---------------------------------------------------------------------------
# recovery matrix
# ---------------------------------------------------------------------------

def test_recovery_full_set_is_identity():
    rng = np.random.default_rng(2)
    sigma = moment_of(random_activations(rng, 100, 4))
    a = sp.recovery_matrix(sigma, range(4))  # automatic ridge
    assert np.array_equal(a, np.eye(4))


def test_recovery_diagonal_case():
    a = sp.recovery_matrix(np.diag([3.0, 1.0]), [0], ridge=0.0)
    assert np.allclose(a, [[1.0], [0.0]])


def test_recovery_matches_least_squares_oracle():
    rng = np.random.default_rng(3)
    phi = random_activations(rng, 500, 10)
    sigma = moment_of(phi)
    j = [0, 3, 5, 8]
    a = sp.recovery_matrix(sigma, j, ridge=0.0)
    err = np.mean(np.sum((phi - phi[:, j] @ a.T) ** 2, axis=1))

    # normal-equations / lstsq oracle
    a_star = np.linalg.lstsq(phi[:, j], phi, rcond=None)[0].T
    err_star = np.mean(np.sum((phi - phi[:, j] @ a_star.T) ** 2, axis=1))
    assert err <= err_star + 1e-8 * max(1.0, err_star)

    # random-probe oracle: no random matrix does better
    for _ in range(1000):
        cand = a_star + rng.normal(size=a_star.shape) * rng.uniform(0.01, 1.0)
        err_c = np.mean(np.sum((phi - phi[:, j] @ cand.T) ** 2, axis=1))
        assert err <= err_c + 1e-8


# ---------------------------------------------------------------------------
# regularizers
# ---------------------------------------------------------------------------

def reg_subset(stats_source, stats_target, scaling, j):
    """The subset regularizer of find_subset for the subset j: _SubsetReg
    with the first nodes of j absorbed, evaluated at the last one."""
    reg = sp._SubsetReg(stats_source, stats_target, scaling)
    for i in j[:-1]:
        reg.absorb(i)
    return float(reg.candidate_values(np.array(j[-1:]))[0])


def test_reg_subset_identical_stats_zero():
    rng = np.random.default_rng(4)
    s, _ = random_stats_pair(rng, 5)
    scaling = st.scaling_matrix(s)
    assert reg_subset(s, s, scaling, [0, 2]) == 0.0
    assert np.allclose(sp.reg_node(s, s, scaling), 0.0)


def test_reg_subset_mean_only_difference():
    rng = np.random.default_rng(5)
    cov = np.eye(4)
    d = np.array([0.5, -1.0, 0.25, 2.0])
    s = make_stats(cov, mean=d)
    t = make_stats(cov, mean=np.zeros(4))
    scaling = st.scaling_matrix(t)
    j = [1, 3]
    assert reg_subset(s, t, scaling, j) == pytest.approx(np.linalg.norm(d[j]))


def test_reg_subset_matches_direct_formula():
    rng = np.random.default_rng(6)
    s, t = random_stats_pair(rng, 6)
    scaling = st.scaling_matrix(t)
    for j in ([0], [1, 4], [0, 2, 3, 5]):
        direct = np.linalg.norm((s.mean - t.mean)[j]) + np.linalg.norm(
            (scaling * (s.cov - t.cov))[np.ix_(j, j)], "fro")
        assert reg_subset(s, t, scaling, j) == pytest.approx(direct, rel=1e-12)


def test_reg_node_single_mean_bump_and_direct():
    cov = np.eye(3)
    mean_t = np.zeros(3)
    mean_s = np.array([0.0, 0.7, 0.0])
    s = make_stats(cov, mean_s)
    t = make_stats(cov, mean_t)
    scaling = st.scaling_matrix(t)
    r = sp.reg_node(s, t, scaling)
    assert r[1] == pytest.approx(0.7)
    assert r[0] == 0.0 and r[2] == 0.0

    rng = np.random.default_rng(7)
    s, t = random_stats_pair(rng, 5)
    scaling = st.scaling_matrix(t)
    r = sp.reg_node(s, t, scaling)
    m = scaling * (s.cov - t.cov)
    for jj in range(5):
        direct = abs(s.mean[jj] - t.mean[jj]) + np.linalg.norm(m[jj])
        assert r[jj] == pytest.approx(direct, rel=1e-12)


# ---------------------------------------------------------------------------
# greedy selection
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field, value, message", [
    ("alpha", 0.0, "alpha"), ("alpha", 1.5, "alpha"), ("lam", -0.1, "lambda"),
    ("lam", float("nan"), "lambda"), ("lam", float("inf"), "lambda"),
    ("lam", float("-inf"), "lambda"),
    ("reg_mode", "both", "reg_mode"), ("max_cardinality", -2, "max_cardinality"),
])
def test_greedy_config_refuses_bad_settings(field, value, message):
    with pytest.raises(ValueError, match=message):
        sp.GreedyConfig(**{field: value})
    # the boundary values are accepted; a cap of 0 means no cap
    sp.GreedyConfig(alpha=1.0, lam=0.0, reg_mode="subset", max_cardinality=0)


def _assert_same_plan(got, want, ulps=0):
    """Equal plans; the ratio trace to within `ulps` units in the last place."""
    assert got.selected == want.selected
    ratios, want_ratios = (np.array(p.ratio_trace + (p.achieved_ratio,)) for p in (got, want))
    assert np.all(np.abs(ratios - want_ratios) <= ulps * np.spacing(np.abs(want_ratios)))
    assert got.plateau_flag == want.plateau_flag
    assert got.recovery.shape == want.recovery.shape
    assert np.array_equal(got.recovery, want.recovery)


def test_find_subset_lambda_zero_matches_unregularized(monkeypatch):
    # at lambda 0 no score reads the regularizer, so it is not built, and
    # the plan is the plain spectral plan bit for bit; the stats are still
    # required
    def unused(*args, **kwargs):
        raise AssertionError("the regularizer is built at lambda 0")

    monkeypatch.setattr(st, "scaling_matrix", unused)
    monkeypatch.setattr(sp, "reg_node", unused)
    monkeypatch.setattr(sp, "_SubsetReg", unused)
    rng = np.random.default_rng(8)
    for _ in range(10):
        sigma = moment_of(random_activations(rng, 300, 9))
        s, t = random_stats_pair(rng, 9)
        base = sp.find_subset(sigma, sp.GreedyConfig(alpha=0.999))
        for mode in ("node", "subset"):
            cfg = sp.GreedyConfig(alpha=0.999, lam=0.0, reg_mode=mode)
            _assert_same_plan(sp.find_subset(sigma, cfg, stats_source=s, stats_target=t),
                              base)
            with pytest.raises(StatsMissing):
                sp.find_subset(sigma, cfg, stats_source=s)


def test_find_subset_duplicated_nodes():
    rng = np.random.default_rng(9)
    base = random_activations(rng, 400, 4)
    phi = np.repeat(base, 2, axis=1)  # m=8, duplicated pairwise
    sigma = moment_of(phi)
    plan = sp.find_subset(sigma, sp.GreedyConfig(alpha=0.999))
    assert len(plan.selected) == 4
    assert plan.achieved_ratio >= 0.999
    # one node from each duplicated pair
    assert sorted(i // 2 for i in plan.selected) == [0, 1, 2, 3]


def test_find_subset_greedy_close_to_exhaustive():
    rng = np.random.default_rng(10)
    sigma = moment_of(random_activations(rng, 200, 10))
    plan = sp.find_subset(sigma, sp.GreedyConfig(alpha=1.0, max_cardinality=3))
    best = max(references.retention_ratio(sigma, list(j), ridge=0.0)
               for j in itertools.combinations(range(10), 3))
    assert plan.achieved_ratio <= best + 1e-9
    assert not plan.plateau_flag


def test_find_subset_trace_monotone_and_tie_break():
    rng = np.random.default_rng(11)
    sigma = moment_of(random_activations(rng, 500, 12))
    plan = sp.find_subset(sigma, sp.GreedyConfig(alpha=0.9999))
    trace = np.array(plan.ratio_trace)
    assert np.all(np.diff(trace) >= -1e-12)
    assert plan.achieved_ratio == trace[-1]
    # exact duplicate columns: the first of two equal candidates wins
    sigma2 = np.ones((3, 3)) + np.eye(3) * 1e-12
    plan2 = sp.find_subset(sigma2, sp.GreedyConfig(alpha=0.5))
    assert plan2.selected[0] == 0


def test_find_subset_reg_scale_invariance(monkeypatch):
    # scaling every regularizer value by c > 0 leaves the sequence unchanged,
    # because the score divides the values by their maximum; with c a power
    # of two that division is exact, so the runs must agree bit for bit
    rng = np.random.default_rng(12)
    sigma = moment_of(random_activations(rng, 300, 8))
    s, t = random_stats_pair(rng, 8)
    c = 2.0 ** 5
    reg_node, candidate_values = sp.reg_node, sp._SubsetReg.candidate_values
    for reg_mode in ("node", "subset"):
        cfg = sp.GreedyConfig(alpha=0.99, reg_mode=reg_mode)
        plain = sp.find_subset(sigma, cfg, stats_source=s, stats_target=t)
        with monkeypatch.context() as patch:
            patch.setattr(sp, "reg_node", lambda *a, **k: c * reg_node(*a, **k))
            patch.setattr(sp._SubsetReg, "candidate_values",
                          lambda self, cand: c * candidate_values(self, cand))
            scaled = sp.find_subset(sigma, cfg, stats_source=s, stats_target=t)
        assert scaled.selected == plain.selected
        assert scaled.ratio_trace == plain.ratio_trace


def test_find_subset_relabeling_equivariance():
    rng = np.random.default_rng(13)
    sigma = moment_of(random_activations(rng, 300, 7))
    perm = rng.permutation(7)
    sigma_p = sigma[np.ix_(perm, perm)]
    plan = sp.find_subset(sigma, sp.GreedyConfig(alpha=0.99))
    plan_p = sp.find_subset(sigma_p, sp.GreedyConfig(alpha=0.99))
    inv = np.argsort(perm)
    assert [int(inv[i]) for i in plan.selected] == [int(i) for i in plan_p.selected][:] \
        or [int(perm[i]) for i in plan_p.selected] == list(plan.selected)


def test_find_subset_requires_stats_for_reg():
    sigma = np.eye(3)
    with pytest.raises(StatsMissing):
        sp.find_subset(sigma, sp.GreedyConfig(reg_mode="node"))


def test_naive_and_incremental_agree():
    rng = np.random.default_rng(14)
    for m in (8, 24):
        sigma = moment_of(random_activations(rng, 400, m, rank=m))
        a = sp.find_subset(sigma, sp.GreedyConfig(alpha=0.999), strategy="incremental")
        b = sp.find_subset(sigma, sp.GreedyConfig(alpha=0.999), strategy="naive")
        assert a.selected == b.selected
        assert np.abs(np.array(a.ratio_trace) - np.array(b.ratio_trace)).max() < 1e-8


def test_plateau_guard_on_rank_deficient():
    rng = np.random.default_rng(15)
    phi = rng.normal(size=(500, 2)) @ rng.normal(size=(2, 40))  # exact rank 2
    sigma = moment_of(phi)
    plan = sp.find_subset(sigma, sp.GreedyConfig(alpha=1.0))  # ridged: 1.0 unreachable
    assert plan.plateau_flag
    assert 0.999 < plan.achieved_ratio < 1.0  # rank absorbed before the guard fired
    assert len(plan.selected) < 40


def _reference_sigma(rng, m, kind):
    """A seeded second moment: full rank; rank-deficient with a
    zero-variance node; or that one scaled to 1e-296, where the zero node's
    ridged pivot lies below the 1e-300 clamp; or indefinite, with a node
    whose pivot stays negative after the ridge."""
    if kind == "full_rank":
        return moment_of(random_activations(rng, 300, m))
    sigma = moment_of(random_activations(rng, 300, m, rank=max(2, m // 3)))
    z = int(rng.integers(m))
    if kind == "indefinite":
        sigma[z, z] = -sigma[z, z]
        return sigma
    sigma[z, :] = 0.0
    sigma[:, z] = 0.0
    return sigma * 1e-296 if kind == "tiny" else sigma


@pytest.mark.parametrize("kind", ["full_rank", "zero_node", "tiny", "indefinite"])
@pytest.mark.parametrize("lam", [0.0, 1.0])
@pytest.mark.parametrize("reg_mode", sp.REG_MODES)
def test_find_subset_matches_the_reference_loop(reg_mode, lam, kind):
    # the loop in src/ reuses its arrays, takes np.std by its ufuncs and
    # drops the absorbed nodes from the kernel's working set every
    # backend.COMPACT_EVERY selections; it must give the plans of the loop in
    # references.py, whether it stops at alpha, at the cap or at the plateau
    # guard. Bit for bit up to the first compaction. Declared change: past
    # it the gains lose terms of order (ridge / pivot)^2, so the ratio trace
    # may move in its last bits; the selections and the recovery may not
    rng = np.random.default_rng(41)
    stops = {"alpha": 0, "cap": 0, "plateau": 0}
    moved = compacted = 0
    for m in (7, 24, 150):
        sigma = _reference_sigma(rng, m, kind)
        stats = random_stats_pair(rng, m) if reg_mode != "none" else (None, None)
        for alpha, cap in ((0.95, 0), (0.999, 0), (0.9999, m // 3), (1.0, 0)):
            cfg = sp.GreedyConfig(alpha=alpha, lam=lam, reg_mode=reg_mode,
                                  max_cardinality=cap)
            got = sp.find_subset(sigma, cfg, *stats)
            want = references.find_subset(sigma, cfg, *stats)
            if len(got.selected) <= backend.COMPACT_EVERY:
                _assert_same_plan(got, want)
            else:
                compacted += 1
                _assert_same_plan(got, want, ulps=8)
            if got.plateau_flag:
                stops["plateau"] += 1
            elif got.achieved_ratio >= alpha:
                stops["alpha"] += 1
            else:
                stops["cap"] += len(got.selected) == cap
            plain = sp.find_subset(sigma, dataclasses.replace(cfg, reg_mode="none"))
            moved += got.selected != plain.selected
    if kind == "tiny":  # every gain underflows to zero: the guard fires at once
        assert stops == {"alpha": 0, "cap": 0, "plateau": 12}
    else:
        assert compacted == 3  # alpha 0.95, 0.999 and 1.0 at m = 150
        assert stops["alpha"] > 0 and stops["cap"] > 0
        assert (stops["plateau"] > 0) == (kind == "zero_node")
        assert (moved > 0) == (lam > 0 and reg_mode != "none")


@pytest.mark.parametrize("reg_mode", sp.REG_MODES)
def test_plan_from_record_equals_find_subset(reg_mode):
    # for every ordered pair of (alpha, cap) configs on one rank-deficient
    # sigma where the first is at least as loose as the second (no cap, 0,
    # is the loosest), the plan cut short from the first config's plan must
    # be the plan find_subset gives for the second, bit for bit; also where
    # the plans run past a compaction of the kernel's working set, whose
    # schedule depends on the step count alone
    rng = np.random.default_rng(17)
    read = plateaued = compacted = 0

    def sigmas():
        for _ in range(16):
            m = int(rng.integers(6, 13))
            sigma = moment_of(random_activations(rng, 200, m, rank=int(rng.integers(2, m))))
            zeroed = rng.choice(m, size=int(rng.integers(0, 3)), replace=False)
            sigma[zeroed, :] = 0.0
            sigma[:, zeroed] = 0.0
            yield sigma
        yield moment_of(random_activations(rng, 400, 100))

    def looser(a, b):
        return a.alpha >= b.alpha and (a.max_cardinality == 0 or 0 < b.max_cardinality
                                       <= a.max_cardinality)

    for sigma in sigmas():
        m = sigma.shape[0]
        stats = random_stats_pair(rng, m) if reg_mode != "none" else (None, None)
        configs = [sp.GreedyConfig(alpha=alpha, max_cardinality=cap, reg_mode=reg_mode)
                   for alpha in (1.0, 0.999, 0.99, 0.9, 0.5)
                   for cap in (m, m - 1, m // 2, 1, m + 3, 0)]
        plans = [sp.find_subset(sigma, cfg, *stats) for cfg in configs]
        plateaued += sum(plan.plateau_flag for plan in plans)
        for (cfg_a, plan_a), (cfg_b, plan_b) in itertools.product(
                zip(configs, plans), repeat=2):
            if not looser(cfg_a, cfg_b):
                continue
            got = sp._cut_short(plan_a, cfg_a, cfg_b, sigma)
            read += 1
            compacted += len(got.selected) > backend.COMPACT_EVERY
            assert got.selected == plan_b.selected
            assert got.ratio_trace == plan_b.ratio_trace
            assert got.achieved_ratio == plan_b.achieved_ratio
            assert got.plateau_flag == plan_b.plateau_flag
            assert got.recovery.shape == plan_b.recovery.shape
            assert got.recovery.tobytes() == plan_b.recovery.tobytes()
    assert read == 17 * 15 * 21 and plateaued > 0 and compacted > 0


@pytest.mark.parametrize("order", ["C", "F"])
def test_find_subset_leaves_the_callers_sigma_alone(order):
    # each fold gathers the working set into an array of its own, and only
    # that array is downdated in place
    rng = np.random.default_rng(49)
    sigma = np.asarray(moment_of(random_activations(rng, 600, 300)), order=order)
    before = sigma.copy(order="A")
    plan = sp.find_subset(sigma, sp.GreedyConfig(alpha=1.0, max_cardinality=200))
    assert len(plan.selected) > 2 * backend.COMPACT_EVERY
    assert sigma.flags[f"{order}_CONTIGUOUS"]
    assert sigma.tobytes(order="A") == before.tobytes(order="A")


@pytest.mark.parametrize("reg_mode", ["subset", "node"])
def test_regularized_picks_after_compaction_are_node_ids(reg_mode, monkeypatch):
    # past a compaction the kernel's positions are not node ids; the
    # regularizer is read and absorbed by node id, so the picks are those of
    # the uncompacted reference loop, also where the regularizer moved them,
    # and the subset regularizer sees the unselected nodes and absorbs the
    # picks
    rng = np.random.default_rng(51)
    m = 150
    sigma = moment_of(random_activations(rng, 400, m))
    stats = random_stats_pair(rng, m)
    cfg = sp.GreedyConfig(alpha=1.0, lam=1.0, reg_mode=reg_mode)
    want = references.find_subset(sigma, cfg, *stats)
    seen, absorbed = [], []
    values, absorb = sp._SubsetReg.candidate_values, sp._SubsetReg.absorb
    monkeypatch.setattr(sp._SubsetReg, "candidate_values",
                        lambda self, cand: seen.append(cand.copy()) or values(self, cand))
    monkeypatch.setattr(sp._SubsetReg, "absorb",
                        lambda self, i: absorbed.append(i) or absorb(self, i))
    got = sp.find_subset(sigma, cfg, *stats)
    plain = sp.find_subset(sigma, sp.GreedyConfig(alpha=1.0))
    assert len(got.selected) > 2 * backend.COMPACT_EVERY
    assert got.selected[backend.COMPACT_EVERY:] != plain.selected[backend.COMPACT_EVERY:]
    _assert_same_plan(got, want, ulps=8)
    if reg_mode == "subset":
        assert tuple(absorbed) == got.selected
        for k, cand in enumerate(seen):
            assert np.array_equal(cand, np.setdiff1d(np.arange(m), got.selected[:k]))


def test_plan_from_record_stops_where_the_ratio_equals_alpha():
    sigma = np.eye(4)
    full = sp.GreedyConfig(alpha=1.0)
    plan = sp.find_subset(sigma, full)
    half = dataclasses.replace(full, alpha=plan.ratio_trace[1])  # reached exactly at step 2
    got = sp._cut_short(plan, full, half, sigma)
    assert got.ratio_trace == sp.find_subset(sigma, half).ratio_trace == plan.ratio_trace[:2]


def test_fortran_ordered_sigma_gives_the_same_plan():
    # _check_sigma hands the kernel a C-ordered copy, whose transpose is the
    # Fortran view dsymv reads without copying it at every step
    rng = np.random.default_rng(47)
    sigma = moment_of(random_activations(rng, 300, 40))
    cfg = sp.GreedyConfig(alpha=0.99)
    want = sp.find_subset(sigma, cfg)
    for other in (np.asfortranarray(sigma), np.repeat(sigma, 2, axis=1)[:, ::2]):
        assert not other.flags.c_contiguous
        _assert_same_plan(sp.find_subset(other, cfg), want)


def test_asymmetric_sigma_is_refused_before_selection(monkeypatch):
    sigma = moment_of(random_activations(np.random.default_rng(48), 100, 6))
    sigma[0, 3] += 1e-6 * np.abs(sigma).max()
    monkeypatch.setattr(backend, "residual_update",
                        lambda *args: pytest.fail("the greedy ran"))
    with pytest.raises(DegenerateSigma, match="sigma is not symmetric"):
        sp.find_subset(sigma, sp.GreedyConfig(alpha=0.9))


def test_non_finite_sigma_is_degenerate():
    for bad in (np.nan, np.inf):
        sigma = np.eye(4)
        sigma[0, 2] = sigma[2, 0] = bad  # the trace stays finite
        for call in (lambda: sp.find_subset(sigma, sp.GreedyConfig(alpha=0.9)),
                     lambda: references.retention_ratio(sigma, [0]),
                     lambda: sp.recovery_matrix(sigma, [0])):
            with pytest.raises(DegenerateSigma, match="non-finite"):
                call()


# ---------------------------------------------------------------------------
# factor-form kernel
# ---------------------------------------------------------------------------

def test_kernel_factor_matches_explicit_downdates():
    rng = np.random.default_rng(16)
    m, k = 40, 15
    sigma = moment_of(random_activations(rng, 300, m))
    ridge = 1e-3 * np.trace(sigma) / m
    diag, rownorm2, z = backend.residual_init(sigma, k)
    r = sigma.copy()
    picks = rng.choice(m, size=k, replace=False)
    for t, i in enumerate(picks):
        expect = float(r[i] @ r[i]) / (r[i, i] + ridge)
        gain = backend.residual_update(diag, rownorm2, z, sigma, t, i, ridge)
        r -= np.outer(r[i], r[i]) / (r[i, i] + ridge)
        assert gain == pytest.approx(expect, rel=1e-12)
    # rounding grows with the m-term products and the k downdates
    tol = 4 * m * k * np.finfo(np.float64).eps
    scale = np.abs(sigma).max()
    assert np.abs(sigma - z.T @ z - r).max() <= tol * scale
    assert np.abs(diag - np.diagonal(r)).max() <= tol * scale
    assert np.abs(rownorm2 - (r * r).sum(axis=1)).max() <= tol * m * scale ** 2


def test_kernel_compaction_gathers_the_active_state():
    # residual_compact folds the block's first t factor rows into the working
    # set and restricts it to the kept positions, rows and columns, in new
    # arrays: no result shares memory with an input, and no input is
    # written. The working set is the residual (work - z[:t]ᵀz[:t])[keep,
    # keep] on its lower triangle, the one residual_update reads, and the
    # factor starts again at zero. The fold (dsyrk) and the
    # plain product sum the same t + 1 terms in other orders; each lies within
    # (t + 1)·eps·(|work| + |z|ᵀ|z|) of the exact entry (Higham's bound for a
    # sum of products), so the two lie within twice that of each other
    rng = np.random.default_rng(51)
    m, ridge, block = 300, 1e-8, backend.COMPACT_EVERY
    eps = np.finfo(np.float64).eps
    sigma = moment_of(random_activations(rng, 600, m))
    diag, rownorm2, z = backend.residual_init(sigma, block)
    work = sigma
    for t, drop in ((block, 100), (40, 40)):
        width = work.shape[0]
        for s, i in enumerate(rng.choice(width, size=t, replace=False)):
            backend.residual_update(diag, rownorm2, z, work, s, i, ridge)
        keep = np.sort(rng.choice(width, size=width - drop, replace=False))
        rows = np.ix_(keep, keep)
        full = np.tril(work) + np.tril(work, -1).T  # what the kernel reads of work
        zb = z[:t]
        want = (full - zb.T @ zb)[rows]
        tol = 2 * (t + 1) * eps * (np.abs(full) + np.abs(zb).T @ np.abs(zb))[rows]
        state = (diag, rownorm2, z, work)
        before = [a.copy() for a in state]
        diag, rownorm2, z, work = backend.residual_compact(*state, t, keep)
        assert not any(np.shares_memory(new, old)
                       for new in (diag, rownorm2, z, work) for old in state)
        assert all(np.array_equal(a, b) for a, b in zip(state, before))
        assert z.shape == (block, len(keep)) and not z.any()
        assert np.array_equal(diag, before[0][keep])
        assert np.array_equal(rownorm2, before[1][keep])
        lower = np.tril_indices(len(keep))
        assert np.all(np.abs(work - want)[lower] <= tol[lower])
        assert np.array_equal(np.triu(work, 1), np.triu(before[3][rows], 1))
        assert work.flags.c_contiguous and z.flags.c_contiguous


def test_kernel_holds_at_most_one_block_of_factor_rows(monkeypatch):
    # find_subset passes the kernel the step within the block and folds
    # every COMPACT_EVERY picks, so the factor never has more rows than one
    # block, however many nodes are picked; the plan is that of the
    # unwatched call
    rng = np.random.default_rng(52)
    m, block = 400, backend.COMPACT_EVERY
    sigma = moment_of(random_activations(rng, 800, m))
    cfg = sp.GreedyConfig(alpha=1.0, max_cardinality=300)
    want = sp.find_subset(sigma, cfg)
    steps, folds, rows = [], [], set()
    update, compact = backend.residual_update, backend.residual_compact

    def watched_update(diag, rownorm2, z, sigma, t, isel, ridge):
        steps.append(t)
        rows.add(len(z))
        return update(diag, rownorm2, z, sigma, t, isel, ridge)

    def watched_compact(diag, rownorm2, z, sigma, t, keep):
        folds.append((t, len(diag), len(keep)))
        rows.add(len(z))
        return compact(diag, rownorm2, z, sigma, t, keep)

    monkeypatch.setattr(backend, "residual_update", watched_update)
    monkeypatch.setattr(backend, "residual_compact", watched_compact)
    got = sp.find_subset(sigma, cfg)
    _assert_same_plan(got, want)
    n = len(got.selected)
    assert n == 300 > 2 * block
    assert rows == {block}
    assert steps == [k % block for k in range(n)]
    assert folds == [(block, m - k * block, m - (k + 1) * block)
                     for k in range(n // block)]


def test_kernel_non_positive_pivot_leaves_state_unchanged():
    sigma = np.diag([2.0, 1.0, 0.5])
    state = backend.residual_init(sigma, 2)
    before = [a.copy() for a in state]
    assert backend.residual_update(*state, sigma, 0, 1, -1.0) == 0.0
    assert all(np.array_equal(a, b) for a, b in zip(state, before))


def test_kernel_update_keeps_the_reference_bits():
    # the in-place update must leave the factor, the diagonal and the gain of
    # the reference update bit for bit, step after step. Declared change: y =
    # Σ z is a symmetric product over one triangle of Σ (dsymv), which rounds
    # otherwise than the reference's general product, so the row norms, the
    # only state that reads y, are held to the bound of
    # test_kernel_factor_matches_explicit_downdates instead
    rng = np.random.default_rng(42)
    for m in (9, 150, 300):
        sigma = moment_of(random_activations(rng, 300, m, rank=m // 2))
        ridge = 1e-8 * np.trace(sigma) / m
        k = m // 2 + 3  # past the rank, where pivots reach the ridge
        tol = 4 * m * k * np.finfo(np.float64).eps * m * np.abs(sigma).max() ** 2
        diag, rownorm2, z = state = backend.residual_init(sigma, k)
        ref_diag, ref_rownorm2, ref_z = ref_state = backend.residual_init(sigma, k)
        for t, i in enumerate(rng.choice(m, size=k, replace=False)):
            assert backend.residual_update(*state, sigma, t, i, ridge) \
                == references.residual_update(*ref_state, sigma, t, i, ridge)
            assert np.array_equal(z, ref_z) and np.array_equal(diag, ref_diag)
            assert np.abs(rownorm2 - ref_rownorm2).max() <= tol


def test_kernel_reads_one_triangle_of_sigma():
    # the product and the row that forms z read the lower triangle of a
    # C-ordered sigma: what lies above the diagonal never enters the state
    rng = np.random.default_rng(45)
    m, k = 30, 10
    sigma = moment_of(random_activations(rng, 200, m))
    upper = np.triu(rng.normal(size=(m, m)), 1)
    ridge = 1e-8 * np.trace(sigma) / m
    state, other = backend.residual_init(sigma, k), backend.residual_init(sigma, k)
    scrambled = sigma + upper
    for t, i in enumerate(rng.choice(m, size=k, replace=False)):
        assert backend.residual_update(*state, sigma, t, i, ridge) \
            == backend.residual_update(*other, scrambled, t, i, ridge)
        assert all(np.array_equal(a, b) for a, b in zip(state, other))


@pytest.mark.parametrize("m", [8, 256, 1024])
def test_recovery_solves_only_the_unselected_rows(m):
    # the recovery solves for the rows outside J alone and writes the identity
    # at J. Up to |J| = 256 each solved column has the bits of the full solve
    # in references.py. Declared change: past that, how the BLAS blocks the
    # triangular solve and panels its right-hand side decides the last bits of
    # a column (on a SkylakeX OpenBLAS kernel from |J| = 385 on), so the two
    # agree to rounding there
    rng = np.random.default_rng(46)
    sigma = moment_of(random_activations(rng, 2 * m + 50, m))
    for k in sorted({1, m // 2, m - 1, m}):
        j = rng.choice(m, size=k, replace=False)
        for order in (j, np.sort(j)):
            got = sp.recovery_matrix(sigma, order)
            want = references.recovery_matrix(sigma, order)
            assert got.shape == (m, k) and got.flags.c_contiguous
            assert np.array_equal(got[order], np.eye(k))
            if k <= 256:
                assert np.array_equal(got, want)
            else:
                eps = np.finfo(np.float64).eps
                assert np.abs(got - want).max() <= m * eps * np.abs(want).max()


def test_subset_reg_keeps_the_reference_bits():
    rng = np.random.default_rng(43)
    for m in (9, 150):
        s, t = random_stats_pair(rng, m)
        scaling = st.scaling_matrix(t)
        reg, ref = sp._SubsetReg(s, t, scaling), references.SubsetReg(s, t, scaling)
        active = np.ones(m, dtype=bool)
        for i in rng.choice(m, size=m - 1, replace=False):
            cand = active.nonzero()[0]
            assert np.array_equal(reg.candidate_values(cand), ref.candidate_values(cand))
            reg.absorb(i)
            ref.absorb(i)
            active[i] = False
            assert (reg.mean_sq, reg.fro_sq) == (ref.mean_sq, ref.fro_sq)
            assert np.array_equal(reg.col_sq, ref.col_sq)


def test_std_is_numpy_std_bit_for_bit():
    rng = np.random.default_rng(44)
    for n in list(range(1, 40)) + [127, 128, 129, 255, 256, 257, 1000]:
        for scale in (1e-12, 1.0, 1e9):
            values = rng.random(n) * scale + rng.normal() * scale
            assert sp._std(values) == float(np.std(values))


_SELECT_SCRIPT = """
import hashlib
import numpy as np
from specprune import spectral as sp
from specprune import stats as st
from test_spectral import conv_net_with_capture
rng = np.random.default_rng(17)
latent = rng.normal(size=(2100, 700))
phi = np.maximum(latent @ rng.normal(size=(700, 700)) / 26.0 + 0.3, 0.0)
sigma = phi.T @ phi / phi.shape[0]
domains = []
for rows in (phi[:1050] * 1.2 + 0.1, phi[1050:]):
    mean = rows.mean(axis=0)
    second = rows.T @ rows / len(rows)
    domains.append(st.LayerStatistics(sigma=second, mean=mean))
for reg_mode in ("none", "subset", "node"):
    plan = sp.find_subset(sigma, sp.GreedyConfig(alpha=0.95, max_cardinality=350,
                                                 reg_mode=reg_mode), *domains)
    print(",".join(map(str, plan.selected)))
# the sampling and moments path: target_only streams through a conv net whose
# first capture (64 rows a sample; blocks of 256 and 144 samples) is
# subsampled to the row budget of 4096
rng = np.random.default_rng(18)
netw = conv_net_with_capture(rng, channels=16)
feats = rng.normal(size=(400, 1, 8, 8))
src = rng.normal(size=(400, 1, 8, 8)) * 1.3 + 0.2
_, plans = sp.compress_network(netw, feats, sp.GreedyConfig(alpha=0.97, reg_mode="subset"),
                               source_features=src, target_features=feats, seed=4)
for cp, plan in sorted(plans.items()):
    digest = hashlib.sha256(plan.recovery.tobytes()).hexdigest()
    print(cp, ",".join(map(str, plan.selected)), digest)
"""


def test_selection_independent_of_blas_threads():
    # the m=700 sigma is wide enough that the kernel's dsymv runs threaded at
    # two threads, where its output bits may differ from one thread's; the
    # picks must not
    runs = [p.splitlines() for p in outputs_at_one_and_two_threads(_SELECT_SCRIPT)]
    assert len(runs[0]) == 5 and all(len(line.split(",")) > 10 for line in runs[0][:3])
    assert len(set(runs[0][:3])) == 3  # each regularizer moves the picks
    assert [line.split()[0] for line in runs[0][3:]] == ["1", "3"]
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# surgery
# ---------------------------------------------------------------------------

def dense_net_with_capture(rng, m_in=6, m=8, p=5, duplicated=False):
    w1 = rng.normal(size=(m, m_in))
    b1 = rng.normal(size=m) * 0.1 + 0.3
    if duplicated:
        w1 = np.repeat(w1[: m // 2], 2, axis=0)
        b1 = np.repeat(b1[: m // 2], 2)
    layers = (nm.Dense(w1, b1), nm.ReLU(),
              nm.Dense(rng.normal(size=(p, m)), rng.normal(size=p)))
    return nm.Network(layers, (m_in,), capture_points=(1,))


def test_apply_plan_dense_full_set_bit_identical():
    rng = np.random.default_rng(16)
    netw = dense_net_with_capture(rng)
    x = rng.normal(size=(40, 6))
    _, caps = nm.forward(netw, x, capture=(1,))
    sigma = moment_of(caps[0].samples)
    plan = sp.find_subset(sigma, sp.GreedyConfig(alpha=1.0))
    assert len(plan.selected) == 8
    pruned = sp.apply_plan(netw, 1, plan)
    out0, _ = nm.forward(netw, x)
    out1, _ = nm.forward(pruned, x)
    assert np.array_equal(out0, out1)


def test_apply_plan_dense_duplicated_lossless():
    rng = np.random.default_rng(17)
    netw = dense_net_with_capture(rng, duplicated=True)
    x = rng.normal(size=(300, 6))
    _, caps = nm.forward(netw, x, capture=(1,))
    sigma = moment_of(caps[0].samples)
    plan = sp.find_subset(sigma, sp.GreedyConfig(alpha=0.9999))
    assert len(plan.selected) == 4
    pruned = sp.apply_plan(netw, 1, plan)
    out0, _ = nm.forward(netw, x)
    out1, _ = nm.forward(pruned, x)
    assert np.abs(out0 - out1).max() < 1e-5


def test_apply_plan_dense_param_count_drop():
    rng = np.random.default_rng(18)
    netw = dense_net_with_capture(rng)
    x = rng.normal(size=(50, 6))
    _, caps = nm.forward(netw, x, capture=(1,))
    sigma = moment_of(caps[0].samples)
    plan = sp.find_subset(sigma, sp.GreedyConfig(alpha=1.0, max_cardinality=3))
    pruned = sp.apply_plan(netw, 1, plan)
    m, m_in, p, kept = 8, 6, 5, 3
    drop = (m - kept) * (m_in + 1 + p)  # own row+bias plus next-layer fan-in
    assert nm.count_params(netw) - nm.count_params(pruned) == drop
    assert nm.count_flops(pruned) < nm.count_flops(netw)


def test_compress_network_next_dense_without_bias():
    # a bias-free next layer (as lowrank.replace_dense makes) stays bias-free
    rng = np.random.default_rng(19)
    base = dense_net_with_capture(rng, duplicated=True)
    netw = nm.with_layers(base, base.layers[:2] + (nm.Dense(base.layers[2].weight, None),))
    x = rng.normal(size=(300, 6))
    pruned, plans = sp.compress_network(netw, x, sp.GreedyConfig(alpha=0.9999))
    assert len(plans[1].selected) == 4
    assert pruned.layers[2].bias is None
    out0, _ = nm.forward(netw, x)
    out1, _ = nm.forward(pruned, x)
    assert np.abs(out0 - out1).max() < 1e-5


def conv_net_with_capture(rng, channels=6, duplicated=False):
    w1 = rng.normal(size=(channels, 1, 3, 3)) * 0.7
    b1 = rng.normal(size=channels) * 0.1 + 0.2
    if duplicated:
        w1 = np.repeat(w1[: channels // 2], 2, axis=0)
        b1 = np.repeat(b1[: channels // 2], 2)
    layers = (
        nm.Conv2D(w1, b1, stride=1, padding=1), nm.ReLU(),
        nm.Conv2D(rng.normal(size=(4, channels, 3, 3)) * 0.5, rng.normal(size=4) * 0.1,
                  stride=2, padding=1),
        nm.ReLU(), nm.Flatten(),
        nm.Dense(rng.normal(size=(3, 4 * 16)) * 0.3, rng.normal(size=3)),
    )
    return nm.Network(layers, (1, 8, 8), capture_points=(1, 3))


def test_apply_plan_conv_full_set_identical():
    rng = np.random.default_rng(19)
    netw = conv_net_with_capture(rng)
    x = rng.normal(size=(20, 1, 8, 8))
    _, caps = nm.forward(netw, x, capture=(1,))
    sigma = moment_of(caps[0].samples)
    plan = sp.find_subset(sigma, sp.GreedyConfig(alpha=1.0))
    pruned = sp.apply_plan(netw, 1, plan)
    out0, _ = nm.forward(netw, x)
    out1, _ = nm.forward(pruned, x)
    assert np.array_equal(out0, out1)


def test_apply_plan_conv_duplicated_lossless():
    rng = np.random.default_rng(20)
    netw = conv_net_with_capture(rng, duplicated=True)
    x = rng.normal(size=(60, 1, 8, 8))
    _, caps = nm.forward(netw, x, capture=(1,))
    sigma = moment_of(caps[0].samples)
    plan = sp.find_subset(sigma, sp.GreedyConfig(alpha=0.9999))
    assert len(plan.selected) == 3
    pruned = sp.apply_plan(netw, 1, plan)
    out0, _ = nm.forward(netw, x)
    out1, _ = nm.forward(pruned, x)
    assert np.abs(out0 - out1).max() < 1e-4


def test_conv_channel_mixing_commutes_with_convolution():
    # compressed conv output == original next conv applied to reconstructed maps
    rng = np.random.default_rng(21)
    netw = conv_net_with_capture(rng)
    x = rng.normal(size=(30, 1, 8, 8))
    _, caps = nm.forward(netw, x, capture=(1,))
    sigma = moment_of(caps[0].samples)
    plan = sp.find_subset(sigma, sp.GreedyConfig(alpha=1.0, max_cardinality=4))
    pruned = sp.apply_plan(netw, 1, plan)

    j = sorted(plan.selected)
    h = nm.apply_layer(netw.layers[0], x)
    h = nm.apply_layer(netw.layers[1], h)
    reconstructed = np.einsum("cj,njhw->nchw", plan.recovery, h[:, j])
    path_a = nm.apply_layer(netw.layers[2], reconstructed)
    path_b = nm.apply_layer(pruned.layers[2],
                            nm.apply_layer(pruned.layers[1],
                                           nm.apply_layer(pruned.layers[0], x)))
    assert np.abs(path_a - path_b).max() < 1e-5


def test_conv_capture_feeding_dense_through_flatten():
    rng = np.random.default_rng(22)
    netw = conv_net_with_capture(rng)
    x = rng.normal(size=(40, 1, 8, 8))
    _, caps = nm.forward(netw, x, capture=(3,))
    sigma = moment_of(caps[0].samples)
    plan = sp.find_subset(sigma, sp.GreedyConfig(alpha=1.0))  # keep everything
    pruned = sp.apply_plan(netw, 3, plan)
    out0, _ = nm.forward(netw, x)
    out1, _ = nm.forward(pruned, x)
    assert np.array_equal(out0, out1)
    plan2 = sp.find_subset(sigma, sp.GreedyConfig(alpha=1.0, max_cardinality=2))
    pruned2 = sp.apply_plan(netw, 3, plan2)
    assert pruned2.layers[5].weight.shape[1] == 2 * 16


def batchnorm_block_net(rng, fold):
    """Dense or conv layer, BatchNorm and the captured ReLU (index 2), then
    the next weighted layer: Dense through Dropout ('dense'), Conv2D
    ('conv'), or Dense through Flatten and Dropout ('conv_flatten', the
    digits model's path)."""
    m = 6
    bn = nm.BatchNorm(rng.normal(size=m), rng.normal(size=m) * 0.1, rng.normal(size=m) * 0.1,
                      rng.uniform(0.5, 2.0, size=m), eps=1e-3, momentum=0.3)
    if fold == "dense":
        layers = (nm.Dense(rng.normal(size=(m, 5)), rng.normal(size=m)), bn, nm.ReLU(),
                  nm.Dropout(0.2), nm.Dense(rng.normal(size=(3, m)), rng.normal(size=3)))
        return nm.Network(layers, (5,), capture_points=(2,)), rng.normal(size=(30, 5))
    own = nm.Conv2D(rng.normal(size=(m, 1, 3, 3)), rng.normal(size=m), padding=1)
    if fold == "conv":
        tail = (nm.Conv2D(rng.normal(size=(4, m, 3, 3)), rng.normal(size=4), stride=2),
                nm.Flatten(), nm.Dense(rng.normal(size=(3, 36)), rng.normal(size=3)))
    else:
        tail = (nm.Flatten(), nm.Dropout(0.2),
                nm.Dense(rng.normal(size=(3, m * 64)), rng.normal(size=3)))
    return (nm.Network((own, bn, nm.ReLU()) + tail, (1, 8, 8), capture_points=(2,)),
            rng.normal(size=(30, 1, 8, 8)))


@pytest.mark.parametrize("fold", ["dense", "conv", "conv_flatten"])
def test_apply_plan_folds_through_batchnorm(fold):
    rng = np.random.default_rng(27)
    netw, x = batchnorm_block_net(rng, fold)
    sigma = moment_of(nm.forward(netw, x, capture=(2,))[1][0].samples)

    def plan_of(selected):
        return sp.PruningPlan(selected=tuple(selected),
                              recovery=sp.recovery_matrix(sigma, sorted(selected)),
                              ratio_trace=(), plateau_flag=False)

    full = sp.apply_plan(netw, 2, plan_of(range(6)))
    assert np.array_equal(nm.forward(full, x)[0], nm.forward(netw, x)[0])

    kept = [4, 0, 3]
    pruned = sp.apply_plan(netw, 2, plan_of(kept))
    bn, new_bn = netw.layers[1], pruned.layers[1]
    for name in ("scale", "shift", "running_mean", "running_var"):
        assert np.array_equal(getattr(new_bn, name), getattr(bn, name)[[0, 3, 4]])
    assert (new_bn.eps, new_bn.momentum) == (bn.eps, bn.momentum)
    assert pruned.layers[0].weight.shape[0] == 3
    assert pruned.layers[2] is netw.layers[2]  # the ReLU is shared
    assert nm.forward(pruned, x)[0].shape == (30, 3)

    with pytest.raises(ShapeMismatch):
        sp.apply_plan(netw, 2, dataclasses.replace(plan_of(kept), recovery=np.zeros((7, 3))))
    with pytest.raises(TopologyError):
        sp.apply_plan(netw, 1, plan_of(kept))  # the BatchNorm, not a capture point


# sha256 prefixes of every float64 array compress_network returns, pinned so
# that a last-ulp change in the recovery fold fails here, not in a report
_COMPRESS_DIGESTS = {
    "dense": {"0.weight": "427a5e42c83ad65a", "0.bias": "69422743e86e2a70",
              "2.weight": "1e2d51c1dcc99e6c", "2.bias": "9c1f67113e1c82ff",
              "plan1.recovery": "d7ecaaad1b19116f"},
    "conv": {"0.weight": "8355e49df383d718", "0.bias": "04a2978893f54327",
             "2.weight": "0b844a2d7681f833", "2.bias": "9b767bfce12261d6",
             "5.weight": "361427fd1795ed53", "5.bias": "29ab15697b3d9fcb",
             "plan1.recovery": "75a96065af6fe847", "plan3.recovery": "2be844ade8bd18cb"},
}


@pytest.mark.parametrize("kind", sorted(_COMPRESS_DIGESTS))
def test_compress_network_arrays_pinned(kind):
    if kind == "dense":
        rng = np.random.default_rng(31)
        netw = dense_net_with_capture(rng)
        x, keep = rng.normal(size=(200, 6)), {1: 5}
    else:
        rng = np.random.default_rng(32)
        netw = conv_net_with_capture(rng)
        x, keep = rng.normal(size=(60, 1, 8, 8)), {1: 4, 3: 2}
    pruned, plans = sp.compress_network(
        netw, x, {cp: sp.GreedyConfig(max_cardinality=k) for cp, k in keep.items()})
    arrays = {f"{i}.{name}": getattr(layer, name)
              for i, layer in enumerate(pruned.layers) for name in nm.tensor_fields(layer)}
    arrays.update({f"plan{cp}.recovery": p.recovery for cp, p in plans.items()})
    digests = {key: hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes())
               .hexdigest()[:16] for key, a in arrays.items()}
    assert digests == _COMPRESS_DIGESTS[kind]


def test_topology_errors():
    rng = np.random.default_rng(23)
    netw = conv_net_with_capture(rng)
    x = rng.normal(size=(10, 1, 8, 8))
    _, caps = nm.forward(netw, x, capture=(1,))
    plan = sp.find_subset(moment_of(caps[0].samples), sp.GreedyConfig(alpha=1.0))
    with pytest.raises(TopologyError):
        sp.apply_plan(netw, 0, plan)  # not an activation


def test_compress_network_matches_per_layer_reference(monkeypatch):
    # the frontier walk must see exactly the compressed prefix's activations;
    # the budget is raised to the 64 rows a sample of the first capture, so
    # no block is subsampled
    rng = np.random.default_rng(26)
    netw = conv_net_with_capture(rng)
    feats = rng.normal(size=(150, 1, 8, 8))
    keep = {1: 3, 3: 2}
    cfg = {cp: sp.GreedyConfig(alpha=1.0, max_cardinality=k) for cp, k in keep.items()}
    monkeypatch.setattr(sp, "ROW_BUDGET", 150 * 64)
    fast, plans = sp.compress_network(netw, feats, cfg, seed=0)

    current = netw
    for cp in (1, 3):
        acc = st.MomentAccumulator(cp, nm.layer_widths(current)[cp])
        for start in range(0, len(feats), 256):
            _, caps = nm.forward(current, feats[start:start + 256], capture=(cp,))
            st.accumulate(acc, caps[0])
        plan = sp.find_subset(st.finalize(acc).sigma,
                              sp.GreedyConfig(alpha=1.0, max_cardinality=keep[cp]))
        assert plan.selected == plans[cp].selected
        current = sp.apply_plan(current, cp, plan)
    x = feats[:8]
    assert np.allclose(nm.forward(fast, x)[0], nm.forward(current, x)[0], atol=1e-12)


def test_compress_network_end_to_end_runs():
    rng = np.random.default_rng(25)
    netw = conv_net_with_capture(rng)
    feats = rng.normal(size=(120, 1, 8, 8))
    cfg = sp.GreedyConfig(alpha=0.92)
    pruned, plans = sp.compress_network(netw, feats, cfg, seed=0)
    assert set(plans) == {1, 3}
    assert nm.count_params(pruned) <= nm.count_params(netw)
    out, _ = nm.forward(pruned, feats[:4])
    assert out.shape == (4, 3)
    # per-capture cardinality caps pin the architecture exactly
    pruned2, plans2 = sp.compress_network(
        netw, feats, {cp: sp.GreedyConfig(max_cardinality=k) for cp, k in ((1, 3), (3, 2))},
        seed=0)
    assert len(plans2[1].selected) == 3 and len(plans2[3].selected) == 2
    assert pruned2.layers[0].weight.shape[0] == 3
    assert pruned2.layers[2].weight.shape == (2, 3, 3, 3)


def test_compress_network_needs_one_config_per_capture():
    rng = np.random.default_rng(25)
    netw = conv_net_with_capture(rng)
    feats = rng.normal(size=(40, 1, 8, 8))
    for configs in ({1: sp.GreedyConfig()},
                    {cp: sp.GreedyConfig() for cp in (1, 3, 5)}):
        with pytest.raises(ValueError, match=r"one GreedyConfig per capture point \[1, 3\]"):
            sp.compress_network(netw, feats, configs)


def test_names_of_one_stream_share_moments_at_every_capture(monkeypatch):
    # the selection and target names are one stream; its 40 samples have
    # 2560 rows at the first capture (64 a sample) and 640 at the second
    # (16), the source's 30 have 1920 and 480, so a row budget of 400
    # subsamples every stream at both captures: at both captures, the
    # two names get the statistics of one accumulation, and each capture
    # draws from a fresh default_rng(seed), which moves as one accumulation
    # per distinct stream moves it; a copy of the target rows is a stream
    # of its own, drawn a third time
    rng = np.random.default_rng(27)
    netw = conv_net_with_capture(rng)
    feats = rng.normal(size=(40, 1, 8, 8))
    src = rng.normal(size=(30, 1, 8, 8))
    cfg = sp.GreedyConfig(alpha=0.95, reg_mode="subset")
    rows_to_acc, find_subset = sp._rows_to_acc, sp.find_subset
    monkeypatch.setattr(sp, "ROW_BUDGET", 400)

    def run(target):
        draws, selects = [], []

        def recording_rows_to_acc(cp, x, rng):
            before = rng.bit_generator.state
            acc = rows_to_acc(cp, x, rng)
            draws.append((cp, x.copy(), before, rng.bit_generator.state))
            return acc

        def recording_find_subset(sigma, cfg, stats_source, stats_target):
            selects.append((sigma, stats_source, stats_target))
            return find_subset(sigma, cfg, stats_source=stats_source,
                               stats_target=stats_target)

        with monkeypatch.context() as patch:
            patch.setattr(sp, "_rows_to_acc", recording_rows_to_acc)
            patch.setattr(sp, "find_subset", recording_find_subset)
            sp.compress_network(netw, feats, cfg, source_features=src,
                                target_features=target, seed=5)
        return draws, selects

    def replay(draws):
        moments, replay_rng, cp_before = [], None, None
        for cp, x, before, after in draws:
            if cp != cp_before:
                replay_rng, cp_before = np.random.default_rng(5), cp
            assert replay_rng.bit_generator.state == before
            moments.append(st.finalize(rows_to_acc(cp, x, replay_rng)))
            assert replay_rng.bit_generator.state == after
        return moments

    fresh = np.random.default_rng(5).bit_generator.state
    draws, selects = run(feats)
    assert [cp for cp, *_ in draws] == [1, 1, 3, 3]
    assert np.array_equal(draws[0][1], sp._push(netw, feats, 0, 2))
    assert np.array_equal(draws[1][1], sp._push(netw, src, 0, 2))
    assert draws[0][2] == draws[2][2] == fresh
    assert all(before != after for *_, before, after in draws)  # all subsampled
    moments = replay(draws)
    for k, (sigma, source, target) in enumerate(selects):
        assert target.sigma is sigma
        for field in ("sigma", "mean", "cov"):
            assert np.array_equal(getattr(target, field), getattr(moments[2 * k], field))
            assert np.array_equal(getattr(source, field), getattr(moments[2 * k + 1], field))

    copy_draws, copy_selects = run(feats.copy())
    assert [cp for cp, *_ in copy_draws] == [1, 1, 1, 3, 3, 3]
    for got, want in zip(copy_draws[:2], draws[:2]):
        assert np.array_equal(got[1], want[1]) and got[2:] == want[2:]
    assert np.array_equal(copy_draws[2][1], draws[0][1])
    assert copy_draws[2][2] != copy_draws[2][3]
    replay(copy_draws)
    sigma, _, target = copy_selects[0]
    assert not np.array_equal(target.sigma, sigma)


def _dead_capture_network():
    # negative weights and bias on non-negative inputs: the captured ReLU
    # is 0 on every sample, so the selection statistics have trace 0
    rng = np.random.default_rng(28)
    netw = nm.Network((nm.Dense(-np.abs(rng.normal(size=(4, 3))), -np.ones(4)), nm.ReLU(),
                       nm.Dense(rng.normal(size=(2, 4)), np.zeros(2))),
                      (3,), capture_points=(1,))
    return netw, np.abs(rng.normal(size=(20, 3)))


def test_dead_capture_is_named():
    netw, feats = _dead_capture_network()
    with pytest.raises(DegenerateSigma,
                       match=r"^capture point 1 \(selection statistics\): trace is 0\.0$"):
        sp.compress_network(netw, feats, sp.GreedyConfig(alpha=0.9))


def test_sweep_memo_names_the_point_whose_walk_raised():
    # a walk that raised is over: every later call, the point that raised
    # or the next one, is refused with the point that raised
    netw, feats = _dead_capture_network()
    points = [{1: sp.GreedyConfig(alpha=a)} for a in (0.9, 0.8)]
    memo = sp.SweepMemo(points)
    with pytest.raises(DegenerateSigma, match="capture point 1"):
        sp.compress_network(netw, feats, points[0], memo=memo)
    for configs in (points[0], points[1], points[0]):
        with pytest.raises(ValueError, match=r"^SweepMemo: the walk raised at point 0 of 2"):
            sp.compress_network(netw, feats, configs, memo=memo)
