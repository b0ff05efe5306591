"""Acceptance suite.

One test per acceptance criterion, each asserting its stated tolerance and
printing a PASS line (run with `pytest tests/test_acceptance.py -v -s` to see
them). Criteria 8-10 are seeded toy-experiment trend reproductions; they
train small two-domain models and cache them under .acceptance_cache/ at the
repo root, so the first run takes several minutes and re-runs are fast.
Criteria 1, 2 and 12 bound their CPU time (`time.process_time()`) on one
OpenBLAS thread, which does not count the time other processes on the host
hold the CPU, nor an idle BLAS worker's spinning.
"""

import collections
import dataclasses
import itertools
import math
import os
import time

import numpy as np
import pytest
import references

from specprune import lowrank as lr
from specprune import net as nm
from specprune import pipeline as pl
from specprune import spectral as sp
from specprune import stats as st
from specprune.config import parse_config
from specprune.datasets import DomainDataset, make_two_domain

from blas_threads import one_blas_thread
from gradcheck import grad_check

CACHE_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         ".acceptance_cache")


def ok(line):
    print(f"ACCEPTANCE PASS: {line}")


def moment_of(rows):
    return rows.T @ rows / rows.shape[0]


def print_paired(label, a, b):
    """Print and return the paired evidence that per-seed values a beat b:
    the mean of a - b, its standard error, and the seeds where a > b."""
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    gap, se = float(d.mean()), float(np.std(d, ddof=1) / math.sqrt(len(d)))
    wins = int((d > 0).sum())
    print(f"  {label}: paired gap {gap:+.4f} (standard error {se:.4f}), "
          f"ahead in {wins} of {len(d)} seeds")
    return gap, se, wins


# ---------------------------------------------------------------------------
# 1. recovery-matrix optimality
# ---------------------------------------------------------------------------

@one_blas_thread()
def test_c01_recovery_matrix_optimality():
    rng = np.random.default_rng(101)
    t0 = time.process_time()
    for _ in range(20):
        latent = rng.normal(size=(500, 8))
        phi = np.maximum(latent @ rng.normal(size=(8, 12)) + 0.2, 0.0)
        sigma = moment_of(phi)
        j = sorted(rng.choice(12, size=int(rng.integers(3, 7)), replace=False))
        a = sp.recovery_matrix(sigma, j, ridge=0.0)
        err = np.mean(np.sum((phi - phi[:, j] @ a.T) ** 2, axis=1))

        a_star = np.linalg.lstsq(phi[:, j], phi, rcond=None)[0].T
        err_star = np.mean(np.sum((phi - phi[:, j] @ a_star.T) ** 2, axis=1))
        assert err <= err_star * (1 + 1e-8) + 1e-12

        probes = a_star[None] + rng.normal(size=(1000,) + a_star.shape) \
            * rng.uniform(0.01, 1.0, size=(1000, 1, 1))
        recon = np.einsum("nj,pij->pni", phi[:, j], probes, optimize=True)
        probe_errs = np.mean(np.sum((phi[None] - recon) ** 2, axis=2), axis=1)
        assert err <= probe_errs.min() + 1e-8
    elapsed = time.process_time() - t0
    assert elapsed < 5.0
    ok(f"1 recovery-matrix optimality (20 instances, {elapsed:.2f}s CPU)")


# ---------------------------------------------------------------------------
# 2. retention-ratio laws
# ---------------------------------------------------------------------------

@one_blas_thread()
def test_c02_retention_ratio_laws():
    rng = np.random.default_rng(102)
    t0 = time.process_time()
    m = 8
    subsets = [list(c) for k in range(0, 5) for c in itertools.combinations(range(m), k)]
    for _ in range(50):
        a = rng.normal(size=(3 * m, m))
        sigma = a.T @ a / (3 * m) + 0.05 * np.eye(m)
        assert references.retention_ratio(sigma, [], ridge=0.0) == 0.0
        assert abs(references.retention_ratio(sigma, range(m), ridge=0.0) - 1.0) < 1e-9
        r_of = {tuple(j): references.retention_ratio(sigma, j, ridge=0.0) for j in subsets}
        for j in subsets:
            if len(j) >= 4:
                continue
            for extra in range(m):
                if extra in j:
                    continue
                grown = tuple(sorted(j + [extra]))
                assert r_of[grown] >= r_of[tuple(j)] - 1e-12
        for j in subsets[1:9]:  # scaling invariance spot-checked per sigma
            base = r_of[tuple(j)]
            for c in (0.1, 10.0):
                assert abs(references.retention_ratio(c * c * sigma, j, ridge=0.0) - base) < 1e-10
    elapsed = time.process_time() - t0
    assert elapsed < 10.0
    ok(f"2 retention-ratio laws (50 matrices x {len(subsets)} subsets, {elapsed:.2f}s CPU)")


# ---------------------------------------------------------------------------
# 3. greedy vs exhaustive
# ---------------------------------------------------------------------------

def test_c03_greedy_vs_exhaustive():
    gaps = []
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        latent = rng.normal(size=(200, 10))
        phi = np.maximum(latent @ rng.normal(size=(10, 10)) + 0.2, 0.0)
        sigma = moment_of(phi)
        # the greedy runs with its automatic ridge; the exhaustive best has none
        plan = sp.find_subset(sigma, sp.GreedyConfig(alpha=1.0, max_cardinality=3))
        best = max(references.retention_ratio(sigma, list(j), ridge=0.0)
                   for j in itertools.combinations(range(10), 3))
        assert plan.achieved_ratio <= best + 1e-9
        assert not plan.plateau_flag
        gaps.append(best - plan.achieved_ratio)
    ok(f"3 greedy vs exhaustive (mean gap {np.mean(gaps):.2e}, "
       f"max gap {np.max(gaps):.2e})")


# ---------------------------------------------------------------------------
# 4. lossless pruning of duplicated structures
# ---------------------------------------------------------------------------

def test_c04_lossless_pruning():
    rng = np.random.default_rng(104)
    # dense layer with pairwise-duplicated nodes
    w1 = np.repeat(rng.normal(size=(4, 6)), 2, axis=0)
    b1 = np.repeat(rng.normal(size=4) * 0.1 + 0.3, 2)
    dense_net = nm.Network(
        (nm.Dense(w1, b1), nm.ReLU(), nm.Dense(rng.normal(size=(5, 8)),
                                               rng.normal(size=5))),
        (6,), capture_points=(1,))
    x = rng.normal(size=(400, 6))
    sigma = moment_of(nm.forward(dense_net, x, capture=(1,))[1][0].samples)
    plan = sp.find_subset(sigma, sp.GreedyConfig(alpha=0.999))
    assert len(plan.selected) == 4
    pruned = sp.apply_plan(dense_net, 1, plan)
    drift = np.abs(nm.forward(dense_net, x)[0] - nm.forward(pruned, x)[0]).max()
    assert drift < 1e-4

    # conv layer with duplicated channels
    wc = np.repeat(rng.normal(size=(3, 1, 3, 3)) * 0.7, 2, axis=0)
    bc = np.repeat(rng.normal(size=3) * 0.1 + 0.2, 2)
    conv_net = nm.Network(
        (nm.Conv2D(wc, bc, 1, 1), nm.ReLU(),
         nm.Conv2D(rng.normal(size=(4, 6, 3, 3)) * 0.5, rng.normal(size=4) * 0.1, 2, 1),
         nm.ReLU(), nm.Flatten(),
         nm.Dense(rng.normal(size=(3, 64)) * 0.3, rng.normal(size=3))),
        (1, 8, 8), capture_points=(1, 3))
    xi = rng.normal(size=(80, 1, 8, 8))
    sigma_c = moment_of(nm.forward(conv_net, xi, capture=(1,))[1][0].samples)
    plan_c = sp.find_subset(sigma_c, sp.GreedyConfig(alpha=0.999))
    assert len(plan_c.selected) == 3
    pruned_c = sp.apply_plan(conv_net, 1, plan_c)
    drift_c = np.abs(nm.forward(conv_net, xi)[0] - nm.forward(pruned_c, xi)[0]).max()
    assert drift_c < 1e-4
    ok(f"4 lossless pruning (dense drift {drift:.1e}, conv drift {drift_c:.1e})")


# ---------------------------------------------------------------------------
# 5. lambda = 0 equivalence
# ---------------------------------------------------------------------------

def test_c05_lambda_zero_equivalence():
    for seed in range(10):
        rng = np.random.default_rng(2000 + seed)
        latent = rng.normal(size=(300, 9))
        phi = np.maximum(latent @ rng.normal(size=(9, 9)) + 0.2, 0.0)
        sigma = moment_of(phi)
        a = rng.normal(size=(9, 9))
        b = rng.normal(size=(9, 9))
        stats_s = st.LayerStatistics(a @ a.T / 9 + 0.1 * np.eye(9), rng.normal(size=9))
        stats_t = st.LayerStatistics(b @ b.T / 9 + 0.1 * np.eye(9), rng.normal(size=9))
        base = sp.find_subset(sigma, sp.GreedyConfig(alpha=0.995))
        for mode in ("node", "subset"):
            reg = sp.find_subset(sigma, sp.GreedyConfig(alpha=0.995, lam=0.0,
                                                        reg_mode=mode),
                                 stats_source=stats_s, stats_target=stats_t)
            assert reg.selected == base.selected
    ok("5 lambda=0 equivalence (10 instances, node and subset modes)")


# ---------------------------------------------------------------------------
# 6. data-dependent factorization optimality
# ---------------------------------------------------------------------------

def test_c06_dalr_optimality():
    rng = np.random.default_rng(106)
    for _ in range(20):
        m, n, ns = 9, 7, 50
        k = int(rng.integers(1, 6))
        w = rng.normal(size=(m, n))
        x = rng.normal(size=(n, ns)) * rng.uniform(0.2, 2.0, size=(n, 1))
        first, second = lr.factor_dense(w, np.zeros(m), x, k)
        err = np.linalg.norm((w - second.weight @ first.weight) @ x)
        tail = np.sqrt((np.linalg.svd(w @ x, compute_uv=False)[k:] ** 2).sum())
        assert abs(err - tail) < 1e-8
        # the svd path is DALR on identity inputs: the truncated SVD of w
        first, second = lr.factor_dense(w, np.zeros(m), np.eye(n), k)
        plain = second.weight @ first.weight
        u, s, vt = np.linalg.svd(w, full_matrices=False)
        assert np.abs(plain - (u[:, :k] * s[:k]) @ vt[:k]).max() < 1e-12
        assert err <= np.linalg.norm((w - plain) @ x) + 1e-10
    ok("6 data-dependent factorization optimality (20 instances)")


# ---------------------------------------------------------------------------
# 7. budget matching against the factorization baseline
# ---------------------------------------------------------------------------

def test_c07_budget_matching():
    assert references.matched_rank(4, 4096, 4096, 102) == 108

    m, p, fc6_in = 4096, 102, 25088
    fc6 = nm.Dense(np.zeros((m, fc6_in), dtype=np.float64), np.zeros(m))
    worst = 0.0
    for k in (4, 8, 16, 32, 64, 128):
        kp = references.matched_rank(k, m, m, p)
        pruned = nm.Network(
            (fc6, nm.ReLU(),
             nm.Dense(np.zeros((kp, m)), np.zeros(kp)), nm.ReLU(),
             nm.Dense(np.zeros((p, kp)), np.zeros(p))), (fc6_in,))
        factored = nm.Network(
            (fc6, nm.ReLU(),
             nm.Dense(np.zeros((k, m)), None), nm.Dense(np.zeros((m, k)), np.zeros(m)),
             nm.ReLU(),
             nm.Dense(np.zeros((p, m)), np.zeros(p))), (fc6_in,))
        a, b = nm.count_params(pruned), nm.count_params(factored)
        rel = abs(a - b) / b
        worst = max(worst, rel)
        assert rel < 1e-3
    frac = 100 * references.dalr_param_fraction(4, 4096, 4096)
    assert round(frac, 2) == 0.20
    assert lr.dalr_feasible(4, 4096, 4096)
    ok(f"7 budget matching (k'=108; worst count gap {worst:.2e}; "
       f"k=4 params {frac:.2f}%)")


# ---------------------------------------------------------------------------
# 8. data-choice trend (10 seeds, matched compression rates)
# ---------------------------------------------------------------------------

def test_c08_data_choice_trend():
    t0 = time.perf_counter()
    sweep = (0.35, 0.25, 0.18, 0.12, 0.08, 0.05)
    base = parse_config({
        "schema_version": 1, "scenario": "digits_joint",
        "seeds": list(range(10)),
        "data": {"n_per_split": 1500},
        "train": {"epochs": 8},
        "stats": {"target_samples": 1500, "source_samples": 750},
        "compress": {"method": "spectral", "sweep": list(sweep),
                     "sweep_kind": "keep_fraction", "conv_value": 0.75},
        "paths": {"out_dir": os.path.join(CACHE_DIR, "c08")},
    })
    mean_acc = {}
    per_seed = {}
    rates = {}
    for choice in ("target_only", "target_source_mix", "target_plus_source"):
        cfg = dataclasses.replace(base, stats=dataclasses.replace(
            base.stats, data_choice=choice))
        report = pl.run(cfg)
        for value in sweep:
            rows = [r for r in report.rows if r.sweep_value == value]
            assert len(rows) == 10
            mean_acc[(choice, value)] = float(np.mean([r.acc_target for r in rows]))
            per_seed[(choice, value)] = [r.acc_target
                                         for r in sorted(rows, key=lambda r: r.seed)]
            rates.setdefault(value, set()).update(
                round(r.compression_rate, 12) for r in rows)
    # keep-fraction sweeps pin the architecture: rates match across settings
    assert all(len(v) == 1 for v in rates.values())
    upper = sorted(sweep)[:3]  # smallest keep fractions = highest compression
    for value in upper:
        rate = next(iter(rates[value]))
        assert rate >= 0.90, f"sweep point {value} has rate {rate:.3f} < 0.90"
        t_only = mean_acc[("target_only", value)]
        for choice in ("target_source_mix", "target_plus_source"):
            print_paired(f"keep={value}: target_only - {choice}",
                         per_seed[("target_only", value)], per_seed[(choice, value)])
            assert t_only >= mean_acc[(choice, value)], (
                f"target_only {t_only:.4f} < {choice} "
                f"{mean_acc[(choice, value)]:.4f} at keep {value}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    summary = "; ".join(
        f"keep={v} (cr={next(iter(rates[v])):.3f}): "
        + "/".join(f"{mean_acc[(c, v)]:.3f}" for c in
                   ("target_only", "target_source_mix", "target_plus_source"))
        for v in upper)
    ok(f"8 data-choice trend ({elapsed:.0f}s; target_only/mix/plus: {summary})")


# ---------------------------------------------------------------------------
# 9. regularization trend (10 seeds, two highest compression settings)
# ---------------------------------------------------------------------------

def c09_config(sweep):
    """The c09 config, whose models c10 and c13 share: spectral keep-fraction
    points with the conv captures kept at 0.6."""
    return parse_config({
        "schema_version": 1, "scenario": "pretrain_finetune",
        "seeds": list(range(10)),
        "data": {"n_per_split": 1500,
                 "shift": {"gain": 0.8, "offset": 0.15, "dx": 1,
                           "noise_std_extra": 0.02}},
        "train": {"epochs": 8, "pretrain_epochs": 10, "finetune_epochs": 6},
        "stats": {"target_samples": 1500, "source_samples": 750},
        "compress": {"method": "spectral", "sweep": list(sweep),
                     "sweep_kind": "keep_fraction", "conv_value": 0.6,
                     "lambda": 1.0},
        "paths": {"out_dir": os.path.join(CACHE_DIR, "c09")},
    })


def test_c09_regularization_trend():
    sweep = (0.25, 0.18, 0.12)
    base = c09_config(sweep)
    reports = {}
    for method in ("spectral", "spectral_reg_node"):
        cfg = dataclasses.replace(base, compress=dataclasses.replace(
            base.compress, method=method))
        reports[method] = pl.run(cfg)
    highest = sorted(sweep)[:2]  # smallest keep fractions = highest compression
    points = []
    for value in highest:  # every point's evidence is printed before any assert
        per_seed = {}
        for method, report in reports.items():
            rows = sorted((r for r in report.rows if r.sweep_value == value),
                          key=lambda r: r.seed)
            per_seed[method] = [r.acc_target for r in rows]
        plain = np.array(per_seed["spectral"])
        reg = np.array(per_seed["spectral_reg_node"])
        # per-seed values, so a tie is auditable
        print(f"  keep={value}: spectral      {np.round(plain, 4).tolist()}")
        print(f"  keep={value}: reg_node      {np.round(reg, 4).tolist()}")
        print_paired(f"keep={value}: reg_node - spectral", reg, plain)
        points.append((value, reg, plain))
    lines = []
    for value, reg, plain in points:
        assert reg.mean() >= plain.mean(), (
            f"reg_node mean {reg.mean():.4f} < spectral mean {plain.mean():.4f} "
            f"at keep {value}")
        lines.append(f"keep={value}: {reg.mean():.4f} >= {plain.mean():.4f}")
    ok(f"9 regularization trend ({'; '.join(lines)})")


# ---------------------------------------------------------------------------
# 10. node specificity (the c09 models)
# ---------------------------------------------------------------------------

def test_c10_node_specificity():
    # The rule, fixed before any node-specificity data was looked at: per
    # seed and capture, g = (rate_on_target - rate_on_source) of the nodes
    # only target statistics select, minus the same difference for the
    # nodes only source statistics select. A seed where either class is
    # empty has no g; it is printed and not counted. Asserted: at the last
    # capture, the mean g over at least 5 counted seeds is > 0. The first
    # capture is printed, not asserted.
    cfg = c09_config([0.25, 0.18, 0.12])
    rows = {(r["seed"], r["layer_pos"], r["specificity"]): r
            for r in pl.node_specificity_analysis(cfg)}
    means = {}
    for pos in ("first", "last"):
        g = []
        for seed in cfg.seeds:
            tgt, src = rows[(seed, pos, "target")], rows[(seed, pos, "source")]
            g.append(None if not (tgt["count"] and src["count"]) else
                     (tgt["rate_on_target"] - tgt["rate_on_source"])
                     - (src["rate_on_target"] - src["rate_on_source"]))
        counted = [v for v in g if v is not None]
        means[pos] = (float(np.mean(counted)) if counted else math.nan, len(counted))
        se = np.std(counted, ddof=1) / math.sqrt(len(counted)) if len(counted) > 1 else math.nan
        print(f"  {pos} capture {rows[(0, pos, 'target')]['capture']}: g per seed "
              f"{[None if v is None else round(v, 4) for v in g]}, mean "
              f"{means[pos][0]:+.4f} (standard error {se:.4f}) over {len(counted)} seeds")
    mean, counted = means["last"]
    assert counted >= 5, f"only {counted} seeds have both specific classes"
    assert mean > 0, f"mean g {mean:+.4f} at the last capture is not > 0"
    ok(f"10 node specificity (last capture: mean g {mean:+.4f} over {counted} seeds; "
       f"first capture, not asserted: {means['first'][0]:+.4f} over {means['first'][1]})")


# ---------------------------------------------------------------------------
# 13. spectral pruning vs DALR at high compression (the c09 models, no
#     fine-tuning)
# ---------------------------------------------------------------------------

def test_c13_spectral_beats_dalr_at_high_compression():
    # The rule, fixed before the first run: every spectral point with
    # compression >= 0.90 is compared with the DALR point of the highest
    # compression not above it (which favours DALR: less compression, more
    # accuracy), on the 10-seed mean target accuracy.
    base = c09_config([0.5, 0.35, 0.25, 0.18, 0.12])
    dalr = dataclasses.replace(base, compress=dataclasses.replace(
        base.compress, method="dalr", sweep=(64, 32, 16, 8, 4, 2), sweep_kind="rank",
        conv_value=-1.0))
    points = {}  # method -> [(compression, per-seed acc_target, sweep value)]
    for cfg in (base, dalr):
        report = pl.run(cfg)
        for value in cfg.compress.sweep:
            rows = sorted((r for r in report.rows if r.sweep_value == value),
                          key=lambda r: r.seed)
            assert len(rows) == 10
            rates = {round(r.compression_rate, 12) for r in rows}
            assert len(rates) == 1  # the sweep value pins the architecture
            points.setdefault(cfg.compress.method, []).append(
                (rates.pop(), np.array([r.acc_target for r in rows]), value))
    high = [p for p in points["spectral"] if p[0] >= 0.90]
    assert high, "no spectral point reaches compression 0.90"
    lines = []
    for rate, acc, keep in high:
        below = [p for p in points["dalr"] if p[0] <= rate]
        assert below, f"no DALR point at or below compression {rate:.4f}"
        d_rate, d_acc, rank = max(below, key=lambda p: p[0])
        print(f"  keep={keep} (cr={rate:.4f}): spectral {np.round(acc, 4).tolist()}")
        print(f"  rank={rank} (cr={d_rate:.4f}): dalr     {np.round(d_acc, 4).tolist()}")
        print_paired(f"cr={rate:.4f}: spectral - dalr", acc, d_acc)
        assert acc.mean() > d_acc.mean(), (
            f"spectral mean {acc.mean():.4f} at cr {rate:.4f} <= DALR mean "
            f"{d_acc.mean():.4f} at cr {d_rate:.4f}")
        lines.append(f"cr {rate:.3f}: {acc.mean():.4f} > {d_acc.mean():.4f} "
                     f"(DALR rank {rank}, cr {d_rate:.3f})")
    ok(f"13 spectral vs DALR at high compression ({'; '.join(lines)})")


# ---------------------------------------------------------------------------
# 11. gradient checks
# ---------------------------------------------------------------------------

def test_c11_gradient_checks():
    rng = np.random.default_rng(111)
    dense_net = nm.Network(
        (nm.Dense(rng.normal(size=(10, 8)) * 0.5, rng.normal(size=10) * 0.4), nm.ReLU(),
         nm.Dense(rng.normal(size=(6, 10)) * 0.5, rng.normal(size=6) * 0.4)), (8,))
    for _ in range(50):  # nudge inputs off the ReLU kink: resample until clear
        feats = rng.normal(size=(16, 8))
        pre = feats @ dense_net.layers[0].weight.T + dense_net.layers[0].bias
        if np.abs(pre).min() > 5e-3:
            break
    assert np.abs(pre).min() > 5e-3
    err_dense = grad_check(dense_net, feats, rng.integers(0, 6, 16), epsilon=1e-3)
    assert err_dense < 1e-4

    cnn = nm.Network(
        (nm.Conv2D(rng.normal(size=(3, 1, 3, 3)) * 0.6, rng.normal(size=3) * 0.3, 2, 1),
         nm.BatchNorm(np.full(3, 1.1), rng.normal(size=3) * 0.1, np.zeros(3), np.ones(3)),
         nm.ReLU(), nm.Flatten(),
         nm.Dense(rng.normal(size=(8, 3 * 16)) * 0.3, rng.normal(size=8) * 0.2),
         nm.ReLU(),
         nm.Dense(rng.normal(size=(4, 8)) * 0.4, rng.normal(size=4) * 0.2)),
        (1, 8, 8))
    err_cnn = grad_check(cnn, rng.normal(size=(5, 1, 8, 8)),
                            rng.integers(0, 4, 5), epsilon=1e-3)
    assert err_cnn < 1e-3
    ok(f"11 gradient checks (dense {err_dense:.1e} < 1e-4, cnn {err_cnn:.1e} < 1e-3)")


# ---------------------------------------------------------------------------
# 12. performance envelope and dual-path agreement
# ---------------------------------------------------------------------------

@one_blas_thread()
def test_c12_performance():
    rng = np.random.default_rng(112)
    width, depth = 512, 4  # 2048 prunable nodes
    layers = []
    fan_in = 64
    for _ in range(depth):
        layers += [nm.Dense(rng.normal(size=(width, fan_in)) * np.sqrt(2 / fan_in),
                            rng.normal(size=width) * 0.1), nm.ReLU()]
        fan_in = width
    layers.append(nm.Dense(rng.normal(size=(10, width)) * 0.1, np.zeros(10)))
    netw = nm.Network(tuple(layers), (64,),
                      capture_points=tuple(2 * i + 1 for i in range(depth)))
    feats = rng.normal(size=(2000, 64))
    t0 = time.process_time()
    compressed, plans = sp.compress_network(netw, feats, sp.GreedyConfig(alpha=0.96),
                                            seed=0)
    elapsed = time.process_time() - t0
    assert elapsed < 60.0
    assert nm.count_params(compressed) < nm.count_params(netw)

    # optimized incremental path vs naive reference, per step
    worst = 0.0
    for seed in range(3):
        rng2 = np.random.default_rng(3000 + seed)
        phi = np.maximum(rng2.normal(size=(400, 64)) @ rng2.normal(size=(64, 64)), 0.0)
        sigma = moment_of(phi)
        fast = sp.find_subset(sigma, sp.GreedyConfig(alpha=0.999), strategy="incremental")
        slow = sp.find_subset(sigma, sp.GreedyConfig(alpha=0.999), strategy="naive")
        assert fast.selected == slow.selected
        diff = np.abs(np.array(fast.ratio_trace) - np.array(slow.ratio_trace)).max()
        worst = max(worst, diff)
        assert diff < 1e-8
    kept = sum(len(p.selected) for p in plans.values())
    ok(f"12 performance ({kept}/2048 nodes kept in {elapsed:.1f}s CPU < 60s; "
       f"dual-path drift {worst:.1e} < 1e-8)")
