"""Greedy spectral subset selection and network surgery.

A layer's nodes are scored by how much of the layer's second-moment trace a
candidate subset J explains:

    r(J) = tr(S[F,J] (S[J,J] + ridge I)^-1 S[J,F]) / tr(S),

with S the empirical uncentered second moment of the post-activation values.
The greedy loop adds the candidate maximizing r, optionally biased by a
cross-domain moment-matching regularizer, until a required retention ratio
alpha is reached. Pruning keeps the selected nodes and folds the least-squares
recovery matrix into the next layer's weights.

Two greedy evaluation paths are provided: a naive reference that recomputes
the full trace ratio per candidate, and the default incremental path that
keeps the selected Cholesky factor and the residual row norms (the factor-form
kernel in backend). They agree to rounding and are cross-checked in the tests.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import backend
from . import net as nm
from . import stats as st
from .errors import DegenerateSigma, ShapeMismatch, StatsMissing, TopologyError
from .linalg import cholesky, default_ridge, is_symmetric

PLATEAU_TOL = 1e-12
# samples per block pushed through the network and sampled for moments at
# once, and the most capture rows of one block that enter the moments: a
# block with more keeps a random subset of ROW_BUDGET rows, so the two
# together decide which rows enter the moments
BATCH_SIZE = 256
ROW_BUDGET = 4096
REG_MODES = ("none", "subset", "node")


@dataclass(frozen=True)
class GreedyConfig:
    """Selection parameters.

    alpha: required information retention ratio in (0, 1].
    lam: regularization weight (0 disables the moment-matching bias).
    reg_mode: 'none', 'subset' (whole-J penalty, recomputed per candidate per
        step) or 'node' (per-node penalty, computed once).
    max_cardinality: optional hard cap on |J|.
    The subset solves take the automatic ridge, linalg.default_ridge(sigma).
    Ties in the selection score always break to the lowest index.
    """

    alpha: float = 1.0
    lam: float = 1.0
    reg_mode: str = "none"
    max_cardinality: int = 0  # 0 means unbounded

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if not 0.0 <= self.lam < math.inf:
            raise ValueError("lambda must be finite and non-negative")
        if self.reg_mode not in REG_MODES:
            raise ValueError(f"reg_mode must be one of {REG_MODES}")
        if self.max_cardinality < 0:
            raise ValueError("max_cardinality must be non-negative (0 means no cap)")


@dataclass(frozen=True)
class PruningPlan:
    """Result of one layer's selection.

    selected: indices in selection order.
    recovery: (m x |J|) least-squares reconstruction matrix; columns follow
        sorted(selected), and rows at the selected indices are the exact
        identity.
    ratio_trace: retention ratio after each selection (non-decreasing).
    """

    selected: tuple
    recovery: np.ndarray
    ratio_trace: tuple
    plateau_flag: bool

    @property
    def achieved_ratio(self):
        """The last retention ratio of the trace; 0.0 for an empty plan."""
        return self.ratio_trace[-1] if self.ratio_trace else 0.0


def _check_sigma(sigma):
    """sigma as a C-contiguous float64 array, checked to be square, finite
    and of positive trace."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ShapeMismatch(f"sigma must be square, got {sigma.shape}")
    if not np.isfinite(sigma).all():
        raise DegenerateSigma("sigma has non-finite entries")
    if float(np.trace(sigma)) <= 0.0:
        raise DegenerateSigma(f"trace is {float(np.trace(sigma))}")
    return np.ascontiguousarray(sigma)


def recovery_matrix(sigma, j, ridge=None):
    """Least-squares reconstruction of all m variables from the subset j.

    Columns follow the order of j. Rows at the selected indices are the
    exact identity (the ridge-free optimum), so keeping every node yields a
    bit-exact identity map; only the other rows are solved for. Returns a
    C-contiguous (m x |j|) array. ridge None takes the automatic ridge.
    """
    sigma = _check_sigma(sigma)
    j = list(j)
    if len(set(j)) != len(j):
        raise ValueError("subset indices must be unique")
    if not j:
        raise ValueError("subset must be nonempty")
    ridge = default_ridge(sigma) if ridge is None else ridge
    lower = cholesky(sigma[np.ix_(j, j)], ridge=ridge)
    rest = np.delete(np.arange(sigma.shape[0]), j)
    a = np.empty((sigma.shape[0], len(j)))
    a[rest] = scipy.linalg.cho_solve((lower, True), sigma[np.ix_(j, rest)]).T
    a[j] = np.eye(len(j))
    return a


def reg_node(stats_source, stats_target, scaling):
    """Per-node moment-matching discrepancy: |mean difference| plus the norm
    of the node's full scaled covariance-difference row. Computed once for
    all nodes."""
    d = stats_source.mean - stats_target.mean
    m = scaling * (stats_source.cov - stats_target.cov)
    return np.abs(d) + np.sqrt((m * m).sum(axis=1))


class _SubsetReg:
    """Moment-matching discrepancy of J u {j} for every candidate j, with
    d the mean difference and M the scaled covariance difference:
    ||d[J']|| + ||M[J', J']||_F over J' = J u {j}.

    Maintains sum_{i in J} d_i^2, ||M[J,J]||_F^2, and the per-candidate column
    sums sum_{i in J} M[i,j]^2, so each step is O(m). Values match the direct
    formula exactly (same sums of squares).
    """

    def __init__(self, stats_source, stats_target, scaling):
        self.d = stats_source.mean - stats_target.mean
        self.m = scaling * (stats_source.cov - stats_target.cov)
        self.d_sq = self.d * self.d
        self.diag_sq = np.diagonal(self.m) ** 2
        self.mean_sq = 0.0
        self.fro_sq = 0.0
        self.col_sq = np.zeros(self.d.shape[0])

    def candidate_values(self, cand):
        term1 = self.d_sq[cand]
        term1 += self.mean_sq
        np.sqrt(term1, out=term1)
        term2 = self.col_sq[cand]
        term2 *= 2.0
        term2 += self.fro_sq
        term2 += self.diag_sq[cand]
        np.sqrt(term2, out=term2)
        term1 += term2
        return term1

    def absorb(self, i):
        # scalar ** 2 is pow(), which may round differently from d[i] * d[i]
        self.mean_sq += float(self.d[i] ** 2)
        self.fro_sq += 2.0 * float(self.col_sq[i]) + float(self.m[i, i] ** 2)
        self.col_sq += self.m[i] ** 2


def _std(values):
    """np.std(values) of a 1-d float64 array, bit for bit: the ufuncs of
    numpy's _var in its order, without its Python-level dispatch."""
    dev = values - np.add.reduce(values) / len(values)
    np.square(dev, out=dev)
    return math.sqrt(np.add.reduce(dev) / len(values))


def _naive_gains(sigma, selected, cand, ridge):
    """Reference candidate evaluation: full trace ratio per candidate."""
    gains = np.empty(len(cand))
    base = 0.0
    if selected:
        base = _trace_num(sigma, selected, ridge)
    for k, j in enumerate(cand):
        gains[k] = _trace_num(sigma, selected + [j], ridge) - base
    return gains


def _trace_num(sigma, j, ridge):
    lower = cholesky(sigma[np.ix_(j, j)], ridge=ridge)
    x = scipy.linalg.solve_triangular(lower, sigma[j, :], lower=True)
    return float(np.sum(x * x))


def find_subset(sigma, cfg=GreedyConfig(), stats_source=None, stats_target=None,
                strategy="incremental"):
    """Greedy construction of the kept-node subset for one layer.

    Stops when the retention ratio reaches cfg.alpha, candidates run out,
    max_cardinality is hit, or the best candidate's improvement falls below
    numerical resolution (plateau guard; flagged on the plan). The
    incremental path runs the kernel in blocks of backend.COMPACT_EVERY
    picks: after each block it folds the block's factor into the working
    set and drops the absorbed nodes from it, into new arrays built by
    indexing (sigma itself is never written), so past the first block its
    ratios may differ from an unblocked loop's in the last bits; the
    recovery is solved from the full sigma.
    """
    sigma = _check_sigma(sigma)
    if not is_symmetric(sigma):  # the kernel reads one triangle of sigma
        raise DegenerateSigma("sigma is not symmetric within 1e-9")
    if strategy not in ("incremental", "naive"):
        raise ValueError(f"unknown strategy {strategy!r}")
    m = sigma.shape[0]
    total = float(np.trace(sigma))
    ridge = default_ridge(sigma)

    reg_vec = None
    subset_reg = None
    if cfg.reg_mode != "none":
        if stats_source is None or stats_target is None:
            raise StatsMissing(f"reg_mode={cfg.reg_mode} needs source and target stats")
        if cfg.lam > 0.0:  # at lambda 0 no score reads the regularizer
            scaling = st.scaling_matrix(stats_target)
            if cfg.reg_mode == "node":
                reg_vec = reg_node(stats_source, stats_target, scaling)
            else:
                subset_reg = _SubsetReg(stats_source, stats_target, scaling)

    limit = min(cfg.max_cardinality, m) if cfg.max_cardinality > 0 else m
    if strategy == "incremental":
        diag, rownorm2, factor = backend.residual_init(
            sigma, min(limit, backend.COMPACT_EVERY))
    # the kernel's working set: the residual of sigma after the folded
    # blocks, restricted to the nodes of ids
    work = sigma
    ids = np.arange(m)  # node id at each position of the working set
    active = np.ones(m, dtype=bool)  # over positions
    selected = []
    trace = []
    num = 0.0
    ratio = 0.0
    plateau = False

    # The candidates stay in index order, so the std of the values sums in
    # one fixed order, and argmax breaks ties to the lowest index.
    while ratio < cfg.alpha and len(selected) < limit:
        if strategy == "incremental" and selected \
                and len(selected) % backend.COMPACT_EVERY == 0:
            keep = active.nonzero()[0]
            diag, rownorm2, factor, work = backend.residual_compact(
                diag, rownorm2, factor, work, backend.COMPACT_EVERY, keep)
            ids = ids[keep]
            active = np.ones(len(keep), dtype=bool)
        cand = active.nonzero()[0]
        if strategy == "incremental":
            eff = diag[cand]
            eff += ridge
            gains = np.where(eff > 0, rownorm2[cand] / np.maximum(eff, 1e-300), 0.0)
        else:
            gains = _naive_gains(sigma, selected, list(cand), ridge)
        if float(gains.max()) / total < PLATEAU_TOL:
            plateau = True
            break
        values = gains
        values += num
        values /= total

        scores = values
        if reg_vec is not None or subset_reg is not None:
            nodes = ids[cand]
            rvals = reg_vec[nodes] if reg_vec is not None \
                else subset_reg.candidate_values(nodes)
            rmax = float(rvals.max())
            if rmax > 0.0:
                rvals /= rmax
                rvals *= cfg.lam * _std(values)
                scores = np.subtract(values, rvals, out=rvals)

        pos = int(cand[scores.argmax()])
        pick = int(ids[pos])
        if strategy == "incremental":
            num += backend.residual_update(
                diag, rownorm2, factor, work,
                len(selected) % backend.COMPACT_EVERY, pos, ridge)
        else:
            num = _trace_num(sigma, selected + [pick], ridge)
        ratio = num / total
        selected.append(pick)
        trace.append(ratio)
        active[pos] = False
        if subset_reg is not None:
            subset_reg.absorb(pick)

    recovery = recovery_matrix(sigma, sorted(selected), ridge) if selected \
        else np.zeros((m, 0))
    return PruningPlan(selected=tuple(selected), recovery=recovery,
                       ratio_trace=tuple(trace), plateau_flag=plateau)


# ---------------------------------------------------------------------------
# network surgery
# ---------------------------------------------------------------------------

def apply_plan(network, cp, plan):
    """Prune the layer captured at cp to the plan's nodes.

    The Dense/Conv layer feeding cp, and any BatchNorm up to cp, keep the
    rows of the selected nodes. The recovery matrix is folded into the next
    Dense or Conv2D, found past Dropout and Flatten.
    """
    if cp not in network.capture_points:
        raise TopologyError(f"{cp} is not a capture point")
    own_idx, own = nm._feeding_layer(network, cp)
    layers = list(network.layers)
    nxt = cp + 1
    while nxt < len(layers) and isinstance(layers[nxt], (nm.Dropout, nm.Flatten)):
        nxt += 1
    if nxt == len(layers) or not isinstance(layers[nxt], (nm.Dense, nm.Conv2D)):
        raise TopologyError(f"capture point {cp} feeds no Dense/Conv layer")
    m, a = own.weight.shape[0], plan.recovery  # columns follow sorted(selected)
    if a.shape[0] != m:
        raise ShapeMismatch(f"plan covers width {a.shape[0]}, layer has {m}", layer=own_idx)
    j = np.sort(np.asarray(plan.selected, dtype=np.intp))
    for i in range(own_idx, cp):  # layers without tensors stay the same objects
        fields = nm.tensor_fields(layers[i])
        if fields:
            layers[i] = dataclasses.replace(
                layers[i], **{f: getattr(layers[i], f)[j] for f in fields})
    # The next weight read as (out, m, rest): rest is 1 after a Dense, the
    # spatial positions of a flattened conv map, or a conv's filter grid.
    # Dense into Dense keeps the plain product, which differs from the
    # einsum in the last ulp and so in the reported ratios.
    w = layers[nxt].weight
    if isinstance(own, nm.Dense):
        new_w = w @ a
    else:
        new_w = np.einsum("pcs,cj->pjs", w.reshape(w.shape[0], m, -1), a,
                          optimize=True).reshape((w.shape[0], -1) + w.shape[2:])
    layers[nxt] = dataclasses.replace(layers[nxt], weight=new_w)
    return nm.with_layers(network, layers)


# ---------------------------------------------------------------------------
# full-network compression
# ---------------------------------------------------------------------------

def _cut_short(plan, loose, cfg, sigma):
    """The plan find_subset(sigma, cfg) returns, cut short from `plan`, the
    result of find_subset(sigma, loose); cfg differs from loose at most in a
    smaller alpha or cap (0, no cap, is the largest). The greedy order on a
    fixed sigma depends on neither, so cfg's plan stops at the first step of
    that order that reaches its alpha or cap; where none does, both plans
    plateaued or ran out of candidates at the same step."""
    if cfg == loose:
        return plan
    for t, ratio in enumerate(plan.ratio_trace, 1):
        if ratio >= cfg.alpha or t == cfg.max_cardinality:
            return PruningPlan(selected=plan.selected[:t],
                               recovery=recovery_matrix(sigma, sorted(plan.selected[:t])),
                               ratio_trace=plan.ratio_trace[:t], plateau_flag=False)
    return plan


class SweepMemo:
    """The compress_network calls of one sweep, walked as one tree of cuts.

    points holds one {capture: GreedyConfig} map per sweep point, in sweep
    order. The k-th call given the memo must pass the k-th point's configs
    and the first call's network, input streams and seed. Points that cut
    every earlier capture alike share a node, which pushes and takes moments
    once and runs find_subset once, under their loosest config; each plan is
    that order cut short, and each group keeping the same nodes walks on.
    A node is computed by the first call that reaches it, and each point's
    results are bit-identical to a sweep of that point alone. Once a call's
    walk raises, the walk is over, and every later call raises ValueError
    naming that point.
    """

    def __init__(self, points):
        self._points = [dict(point) for point in points]
        plain = [{cp: dataclasses.replace(cfg, alpha=1.0, max_cardinality=0)
                  for cp, cfg in point.items()} for point in self._points]
        if not plain or any(p != plain[0] for p in plain):
            raise ValueError("a sweep needs points, which may differ only in alpha "
                             "and max_cardinality at each capture")
        self._plans = {k: {} for k in range(len(self._points))}  # until returned
        self._inputs = None
        self._raised = None  # the point whose walk raised

    def _next(self, network, configs, slots, streams, labels, seed):
        """The next point's (network, plans), once the call is checked."""
        if self._raised is not None:
            raise ValueError(f"SweepMemo: the walk raised at point {self._raised} of "
                             f"{len(self._points)}, so the sweep cannot go on")
        if self._inputs is None:  # the first call binds the memo
            self._inputs = (network, slots, tuple(streams), seed)
            self._captures = sorted(network.capture_points)
            self._slots, self._labels, self._seed = slots, labels, seed
            self._walk = self._node(0, network, streams, range(len(self._points)))
        network0, slots0, streams0, seed0 = self._inputs
        if (network is not network0 or slots != slots0 or seed != seed0
                or not all(np.array_equal(a, b) for a, b in zip(streams, streams0))):
            raise ValueError("SweepMemo was bound to another network, input streams or seed")
        k = len(self._points) - len(self._plans)  # the points returned so far
        if k == len(self._points) or configs != self._points[k]:
            raise ValueError(f"SweepMemo: the configs are not those of its next point, "
                             f"{k} of {len(self._points)}")
        try:
            network = next(self._walk)
        except BaseException:
            self._raised, self._walk = k, None
            raise
        result = network, self._plans.pop(k)
        if not self._plans:  # the walk's frames refer to the memo, so end it now
            self._walk = None
        return result

    def _node(self, k, network, streams, points):
        """Yield the network of each of `points` (sweep indices, ascending),
        cut at capture k and every later one, in turn."""
        captures = self._captures
        if k == len(captures):
            yield from [network] * len(points)
            return
        cp = captures[k]
        start = captures[k - 1] + 1 if k else 0
        streams = [_push(network, x, start, cp + 1) for x in streams]
        groups = self._select(cp, streams, points)
        last, children = next(reversed(groups)), {}
        for i in points:
            plan = self._plans[i][cp]
            key = plan.selected
            if key not in children:
                kept = np.asarray(sorted(key), dtype=np.intp)
                children[key] = self._node(
                    k + 1, apply_plan(network, cp, plan),
                    [x[:, kept] for x in streams] if k + 1 < len(captures) else (), groups[key])
                if key == last:  # only the last group's child holds its cut streams
                    network = streams = None
            yield next(children[key])
            if i == groups[key][-1]:
                del children[key]

    def _select(self, cp, streams, points):
        """Take the moments of the streams pushed to capture cp and cut each
        point's plan there short; returns {kept nodes: points}."""
        rng = np.random.default_rng(self._seed)
        moments = [st.finalize(_rows_to_acc(cp, x, rng), label)
                   for x, label in zip(streams, self._labels)]
        named = {name: moments[i] for name, i in self._slots.items()}
        sigma = named["sigma"].sigma
        configs = [self._points[i][cp] for i in points]
        caps = [c.max_cardinality for c in configs]
        loose = dataclasses.replace(configs[0], alpha=max(c.alpha for c in configs),
                                    max_cardinality=0 if 0 in caps else max(caps))
        try:
            plan = find_subset(sigma, loose, stats_source=named.get("source"),
                               stats_target=named.get("target"))
        except DegenerateSigma as exc:
            raise DegenerateSigma(
                f"capture point {cp} (selection statistics): {exc}") from exc
        groups = {}
        for i, cfg in zip(points, configs):
            self._plans[i][cp] = cut = _cut_short(plan, loose, cfg, sigma)
            groups.setdefault(cut.selected, []).append(i)
        return groups


def _distinct_streams(inputs):
    """Map each named input to one of the distinct arrays among the inputs.

    Inputs with the same data pointer, shape, strides and dtype (two equal
    slices of one array, say) are one stream, pushed, sampled and sliced
    once. A stream is labelled by the first name bound to it ("" for
    "sigma"). Returns ({name: index}, [float64 array], [label]).
    """
    slots, arrays, labels, seen = {}, [], [], {}
    for name, x in inputs.items():
        x = np.asarray(x)
        key = (x.__array_interface__["data"][0], x.shape, x.strides, x.dtype.str)
        if key not in seen:
            seen[key] = len(arrays)
            arrays.append(np.asarray(x, dtype=np.float64))
            labels.append("" if name == "sigma" else name)
        slots[name] = seen[key]
    return slots, arrays, labels


def compress_network(network, sigma_features, cfg, source_features=None,
                     target_features=None, seed=0, memo=None):
    """Prune every capture point, input to output.

    Selection statistics are always computed on the already-compressed prefix
    (the streams are pushed through each pruned block before the next layer
    is considered), so each layer sees the activations the deployed network
    will actually produce.

    cfg is one GreedyConfig for every capture point, or a map with one
    GreedyConfig per capture point id. sigma_features defines the selection
    second moment; source/target features feed the moment-matching
    statistics when any capture's reg_mode is not 'none'. Inputs that are
    one array (equal slices) are one stream: at every capture it is pushed
    and its rows are drawn and accumulated once, and every name bound to it
    gets the same LayerStatistics. Each capture whose moments are computed
    draws its rows from a generator of its own, np.random.default_rng(seed),
    shared by its distinct streams in order.
    memo, a SweepMemo, makes the call the next point of its sweep; without
    one, the call is a sweep of one point.
    """
    captures = sorted(network.capture_points)
    configs = dict.fromkeys(captures, cfg) if isinstance(cfg, GreedyConfig) else cfg
    if set(configs) != set(captures):
        raise ValueError(f"one GreedyConfig per capture point {captures} is needed, "
                         f"got {sorted(configs)}")
    inputs = {"sigma": sigma_features}
    if any(c.reg_mode != "none" for c in configs.values()):
        if source_features is None or target_features is None:
            raise StatsMissing("regularized compression needs both domain streams")
        inputs["source"] = source_features
        inputs["target"] = target_features
    slots, streams, labels = _distinct_streams(inputs)
    memo = SweepMemo([configs]) if memo is None else memo
    return memo._next(network, configs, slots, streams, labels, seed)


def _push(network, x, start, stop):
    """Apply layers [start, stop) in inference mode, BATCH_SIZE samples at a time."""
    if start >= stop:
        return x
    out = None
    for s in range(0, len(x), BATCH_SIZE):
        h = x[s:s + BATCH_SIZE]
        for i in range(start, stop):
            h = nm.apply_layer(network.layers[i], h, index=i)
        if out is None:
            out = np.empty((len(x),) + h.shape[1:], dtype=h.dtype)
        out[s:s + len(h)] = h
    return out


def _rows_to_acc(cp, x, rng):
    """Moment accumulator of the capture rows of x (n, width[, h, w]).

    The rows are taken per block of BATCH_SIZE samples, and a block with
    more than ROW_BUDGET rows (a conv capture has one row per spatial
    position) keeps a uniform random subset of ROW_BUDGET of them, drawn
    from rng. So BATCH_SIZE changes which rows, and how many, enter the
    moments; it is not a pure performance setting. Where no block is
    subsampled nothing is drawn. A sweep node calls it once per distinct
    stream at its capture, for all the names bound to the stream.
    """
    width = x.shape[1]
    acc = st.MomentAccumulator(cp, width)
    for s in range(0, len(x), BATCH_SIZE):
        rows = nm.capture_rows(x[s:s + BATCH_SIZE])
        if rows.shape[0] > ROW_BUDGET:
            keep = rng.choice(rows.shape[0], size=ROW_BUDGET, replace=False)
            rows = rows[keep]
        st.accumulate(acc, nm.ActivationBatch(cp, rows))
    return acc
