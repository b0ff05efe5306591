"""The benchmark's workloads: generated inputs, set-up, one timed pass, and
the output checks.

Every workload derives all of its seeds from the benchmark seed `n` as
`base + SEED_STRIDE * n`, so `n = 0` reproduces the seeds the acceptance
configs use and any other `n` gives an unseen but repeatable input set.

A workload object offers:
  setup(workdir) -> state    inputs and trained models; timed as setup_s
  run_pass(state) -> output  the timed unit of work
  check(state, output, checks, op)   output checks, recorded per operation
  items(output)              work units of one pass (items_per_s)
  quality(state, output)     the accuracy guard (acc_target_mean)
  digest(output)             sha256 over the selections
"""

import dataclasses
import hashlib
import math
import os
import shutil

import numpy as np

from specprune import net as nm
from specprune import pipeline as pl
from specprune import spectral as sp
from specprune.config import parse_config

from spans import patched

SEED_STRIDE = 1000


def derive_seeds(bases, n):
    return [int(b) + SEED_STRIDE * int(n) for b in bases]


class Checks:
    """Pass/fail per named check, grouped into operations.

    An operation (one sweep point, one selection) fails when any of its
    checks fails or it raised."""

    def __init__(self):
        self.ops = {}
        self.total = 0
        self.failures = []

    def check(self, op, name, ok):
        ok = bool(ok)
        self.total += 1
        self.ops[op] = self.ops.get(op, True) and ok
        if not ok:
            self.failures.append(f"{op}: {name}")
        return ok

    def error(self, op, exc):
        self.check(op, f"raised {type(exc).__name__}: {exc}", False)

    @property
    def attempted(self):
        return len(self.ops)

    @property
    def failed(self):
        return sum(not ok for ok in self.ops.values())


def _sha256(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _plan_checks(checks, op, cp, plan, width):
    trace = np.asarray(plan.ratio_trace)
    checks.check(op, f"capture {cp}: ratio_trace non-decreasing",
                 np.all(np.diff(trace) >= 0.0))
    sel = np.sort(np.asarray(plan.selected, dtype=np.intp))
    checks.check(op, f"capture {cp}: recovery rows at the selection are the identity",
                 plan.recovery.shape == (width, len(sel))
                 and np.array_equal(plan.recovery[sel], np.eye(len(sel))))


# ---------------------------------------------------------------------------
# pipeline sweeps
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class SweepState:
    cfg: object
    widths: dict
    conv_captures: frozenset


@dataclasses.dataclass
class SweepOutput:
    report: object
    points: list  # (seed, sweep value) in the order pipeline.run visits them
    plans: list  # {capture: PruningPlan} per compress_network call


class SweepWorkload:
    """`pipeline.run` over a config document; models are trained in setup
    into the disk cache that `pipeline.run` then reads."""

    def __init__(self, name, doc):
        self.name = name
        self.doc = doc

    def setup(self, workdir):
        out_dir = os.path.join(workdir, "models")
        shutil.rmtree(out_dir, ignore_errors=True)
        cfg = parse_config({**self.doc, "paths": {"out_dir": out_dir}})
        for seed in cfg.seeds:
            source, target = pl.make_two_domain(seed, cfg.data.n_per_split,
                                                cfg.data.shift)
            model = pl.get_or_train_model(cfg, seed, source, target)
        conv = frozenset(cp for cp in model.capture_points
                         if isinstance(nm._feeding_layer(model, cp)[1], nm.Conv2D))
        return SweepState(cfg, nm.layer_widths(model), conv)

    def run_pass(self, state):
        calls = []
        compress_network = sp.compress_network

        def recording(*args, **kwargs):
            network, plans = compress_network(*args, **kwargs)
            calls.append(plans)
            return network, plans

        with patched([(sp, "compress_network", recording)]):
            report = pl.run(state.cfg)
        cfg = state.cfg
        points = [(seed, float(v)) for seed in cfg.seeds for v in cfg.compress.sweep]
        return SweepOutput(report, points, calls)

    def check(self, state, out, checks, op):
        cfg = state.cfg
        comp = cfg.compress
        points = out.points
        checks.check(op, "one compress call per sweep point",
                     len(out.plans) == len(points))
        rows = {(r.seed, r.sweep_value): r for r in out.report.rows}
        checks.check(op, "one report row per sweep point",
                     sorted(rows) == sorted(points) and len(out.report.rows) == len(points))
        for (seed, value), plans in zip(points, out.plans):
            point = (op, seed, value)
            for cp, width in state.widths.items():
                plan = plans[cp]
                f = comp.conv_value if (comp.conv_value > 0 and cp in state.conv_captures) \
                    else value
                if comp.sweep_kind == "keep_fraction":
                    want = max(1, round(f * width))
                    checks.check(point, f"capture {cp}: keeps {want} of {width}",
                                 len(plan.selected) == want)
                else:
                    checks.check(point, f"capture {cp}: reaches alpha {f} or plateaus",
                                 plan.achieved_ratio >= f or plan.plateau_flag)
                _plan_checks(checks, point, cp, plan, width)
            r = rows.get((seed, value))
            checks.check(point, "params_after < params_before",
                         r is not None and r.params_after < r.params_before)
            checks.check(point, "accuracies are finite",
                         r is not None and all(math.isfinite(a) and 0.0 <= a <= 1.0
                                               for a in (r.acc_source, r.acc_target)))

    def items(self, out):
        return len(out.report.rows)

    def quality(self, state, out):
        return float(np.mean([r.acc_target for r in out.report.rows]))

    def digest(self, out):
        lines = []
        for (seed, value), plans in zip(out.points, out.plans):
            for cp in sorted(plans):
                lines.append(f"{seed}|{value!r}|{cp}|"
                             + ",".join(str(int(i)) for i in plans[cp].selected))
        return _sha256(lines)

    def comparable(self, out):
        """Everything a pass produces except its own timings."""
        return [dataclasses.replace(r, seconds=0.0) for r in out.report.rows]


# ---------------------------------------------------------------------------
# greedy kernel on wide layers
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class GreedyState:
    network: object
    features: object
    held_out: object
    sigma: object
    keep: int
    spot_sigmas: list


@dataclasses.dataclass
class GreedyOutput:
    compressed: object
    plans: dict
    subset: object


class GreedyWorkload:
    """`spectral.compress_network` on a wide dense MLP plus one `find_subset`
    on a large seeded second-moment matrix; the greedy kernel dominates."""

    def __init__(self, name, doc):
        self.name = name
        self.doc = doc
        for key, value in doc.items():
            setattr(self, key, value)

    def setup(self, workdir):
        rng = np.random.default_rng(self.seed)
        layers = []
        fan_in = 64
        for _ in range(self.depth):
            layers += [nm.Dense(rng.normal(size=(self.width, fan_in)) * np.sqrt(2 / fan_in),
                                rng.normal(size=self.width) * 0.1), nm.ReLU()]
            fan_in = self.width
        layers.append(nm.Dense(rng.normal(size=(10, self.width)) * 0.1, np.zeros(10)))
        network = nm.Network(tuple(layers), (64,),
                             capture_points=tuple(2 * i + 1 for i in range(self.depth)))
        features = rng.normal(size=(self.n_features, 64))
        held_out = rng.normal(size=(500, 64))
        a = rng.normal(size=(4 * self.m, self.m))
        sigma = a.T @ a / (4 * self.m)
        spot = []
        for _ in range(2):
            phi = np.maximum(rng.normal(size=(400, 64)) @ rng.normal(size=(64, 64)), 0.0)
            spot.append(phi.T @ phi / phi.shape[0])
        return GreedyState(network, features, held_out, sigma, self.keep, spot)

    def run_pass(self, state):
        compressed, plans = sp.compress_network(
            state.network, state.features, sp.GreedyConfig(alpha=self.alpha), seed=self.seed)
        subset = sp.find_subset(state.sigma, sp.GreedyConfig(alpha=1.0,
                                                              max_cardinality=state.keep))
        return GreedyOutput(compressed, plans, subset)

    def check(self, state, out, checks, op):
        widths = nm.layer_widths(state.network)
        for cp, plan in out.plans.items():
            checks.check((op, cp), f"capture {cp}: reaches alpha or plateaus",
                         plan.achieved_ratio >= self.alpha or plan.plateau_flag)
            _plan_checks(checks, (op, cp), cp, plan, widths[cp])
        checks.check((op, "mlp"), "params_after < params_before",
                     nm.count_params(out.compressed) < nm.count_params(state.network))
        checks.check((op, "sigma"), f"keeps {state.keep}",
                     len(out.subset.selected) == state.keep)
        _plan_checks(checks, (op, "sigma"), "sigma", out.subset, state.sigma.shape[0])

    def spot_check(self, state, checks):
        """Incremental path against the naive reference on small matrices."""
        for k, sigma in enumerate(state.spot_sigmas):
            cfg = sp.GreedyConfig(alpha=0.999)
            fast = sp.find_subset(sigma, cfg, strategy="incremental")
            slow = sp.find_subset(sigma, cfg, strategy="naive")
            same = fast.selected == slow.selected and np.allclose(
                fast.ratio_trace, slow.ratio_trace, rtol=0.0, atol=1e-8)
            checks.check(("spot", k), "incremental agrees with naive", same)

    def items(self, out):
        return sum(len(p.selected) for p in out.plans.values()) + len(out.subset.selected)

    def quality(self, state, out):
        """Top-1 agreement of the compressed MLP with the original one on
        held-out inputs (the random MLP has no labels of its own)."""
        a = nm.forward(state.network, state.held_out)[0].argmax(axis=1)
        b = nm.forward(out.compressed, state.held_out)[0].argmax(axis=1)
        return float(np.mean(a == b))

    def digest(self, out):
        lines = [f"{cp}|" + ",".join(str(int(i)) for i in out.plans[cp].selected)
                 for cp in sorted(out.plans)]
        lines.append("sigma|" + ",".join(str(int(i)) for i in out.subset.selected))
        return _sha256(lines)

    def comparable(self, out):
        return self.digest(out)


# ---------------------------------------------------------------------------
# workload table
# ---------------------------------------------------------------------------

# Set-up trains the sweep models on a short schedule (c08: one epoch; c09:
# five pretrain and two fine-tune epochs, against 8 and 10+6 in the
# acceptance tests) so that set-up can be repeated several times within a
# run. The shapes of the compress and evaluate work do not depend on it.
C08_SWEEP = [0.35, 0.25, 0.18, 0.12, 0.08, 0.05]
C09_ALPHAS = [0.999, 0.995, 0.99, 0.98, 0.95, 0.9]
C09_SHIFT = {"gain": 0.8, "offset": 0.15, "dx": 1, "noise_std_extra": 0.02}


def c08_doc(seeds, n=1500, tiny=False):
    doc = {
        "schema_version": 1, "scenario": "digits_joint", "seeds": seeds,
        "data": {"n_per_split": n},
        "train": {"epochs": 1, "learning_rate": 0.005, "batch_size": 100},
        "stats": {"data_choice": "target_only", "target_samples": n,
                  "source_samples": n // 2},
        "compress": {"method": "spectral", "sweep": C08_SWEEP,
                     "sweep_kind": "keep_fraction", "conv_value": 0.75},
    }
    if tiny:
        doc["model"] = {"conv_channels": [4, 4, 8], "dense_widths": [24, 24]}
        doc["compress"]["sweep"] = C08_SWEEP[:2]
    return doc


def c09_doc(seeds, n=1500, tiny=False):
    doc = {
        "schema_version": 1, "scenario": "pretrain_finetune", "seeds": seeds,
        "data": {"n_per_split": n, "shift": C09_SHIFT},
        "train": {"pretrain_epochs": 5, "finetune_epochs": 2,
                  "learning_rate": 0.005, "batch_size": 100},
        "stats": {"target_samples": n, "source_samples": n // 2},
        "compress": {"method": "spectral_reg_subset", "sweep": C09_ALPHAS,
                     "sweep_kind": "alpha", "lambda": 1.0},
    }
    if tiny:
        doc["model"] = {"conv_channels": [4, 4, 8], "dense_widths": [24, 24]}
        doc["compress"]["sweep"] = C09_ALPHAS[-2:]
    return doc


def make_workload(name, n, tiny=False):
    """Build the named workload for benchmark seed n (tiny: smoke-test size)."""
    small = 100 if tiny else 1500
    if name == "c08_keep_sweep":
        return SweepWorkload(name, c08_doc(derive_seeds([0, 1, 2], n), small, tiny))
    if name == "c09_alpha_reg":
        return SweepWorkload(name, c09_doc(derive_seeds([0, 1, 2], n),
                                           100 if tiny else 500, tiny))
    if name == "greedy_wide":
        doc = {"seed": derive_seeds([112], n)[0], "width": 512, "depth": 4,
               "n_features": 2000, "alpha": 0.96, "m": 1024, "keep": 512}
        if tiny:
            doc.update(width=16, depth=2, n_features=200, m=32, keep=8)
        return GreedyWorkload(name, doc)
    raise KeyError(name)


WORKLOADS = ("c08_keep_sweep", "c09_alpha_reg", "greedy_wide")
