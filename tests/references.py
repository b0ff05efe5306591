"""Reference forms of training and selection arithmetic. The faster forms
in src/ must reproduce them bit for bit, except where a test states the
tolerance of a declared change. The closed forms that the tests check
selection and the factorization baselines against live here too."""

import math

import numpy as np
import scipy.linalg

from specprune import backend
from specprune import net as nm
from specprune import spectral as sp
from specprune import stats as st
from specprune import train as tr
from specprune.errors import StatsMissing
from specprune.linalg import cholesky, default_ridge


def is_symmetric(a):
    """linalg.is_symmetric over the whole matrix at once, with m x m
    temporaries. Unlike it, a lone off-diagonal Inf passes here: its gap and
    the tolerance are both infinite."""
    if not a.size:
        return True
    gap = a - a.T
    np.abs(gap, out=gap)
    return float(gap.max()) <= 1e-9 * max(1.0, float(np.abs(a).max()))


def batchnorm_forward(layer, x, training):
    """BatchNorm's forward on the (c, h·w·n) rows, with a new array for each
    step: (output, the cache that batchnorm_backward reads, None in
    inference). Training normalizes with the batch statistics and moves the
    running statistics as the layer does; inference normalizes with the
    running statistics."""
    xc = nm.channel_rows(x)
    if not training:
        inv = 1.0 / np.sqrt(layer.running_var + layer.eps)
        out = (xc - layer.running_mean[:, None]) * inv[:, None] * layer.scale[:, None] \
            + layer.shift[:, None]
        return nm.from_channel_rows(out, x.shape), None
    mu = xc.mean(axis=1)
    centered = xc - mu[:, None]
    var = (centered * centered).mean(axis=1)
    layer.running_mean[:] = layer.running_mean * (1.0 - layer.momentum) + layer.momentum * mu
    layer.running_var[:] = layer.running_var * (1.0 - layer.momentum) + layer.momentum * var
    inv = 1.0 / np.sqrt(var + layer.eps)
    xhat = centered * inv[:, None]
    out = xhat * layer.scale[:, None] + layer.shift[:, None]
    return nm.from_channel_rows(out, x.shape), (xhat, inv)


def batchnorm_backward(layer, cache, dout):
    """BatchNorm's backward with a new array for each step: (dx, grads)."""
    xhat, inv = cache
    dc = nm.channel_rows(dout)
    grads = {"scale": (dc * xhat).sum(axis=1), "shift": dc.sum(axis=1)}
    dc = dc - (xhat * grads["scale"][:, None] + grads["shift"][:, None]) / dc.shape[1]
    return nm.from_channel_rows(dc * (layer.scale * inv)[:, None], dout.shape), grads


def adam(params, grad_steps, lr, wd):
    """The textbook Adam update with weight decay folded into the gradient,
    over a list of steps, each a list of gradients aligned with params (new
    arrays, the inputs are left alone): (params, m, v)."""
    params = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grad_steps, start=1):
        bc1 = 1.0 - tr.ADAM_BETA1 ** t
        bc2 = 1.0 - tr.ADAM_BETA2 ** t
        for w, mk, vk, g in zip(params, m, v, grads):
            g = g + wd * w
            mk *= tr.ADAM_BETA1
            mk += (1.0 - tr.ADAM_BETA1) * g
            vk *= tr.ADAM_BETA2
            vk += (1.0 - tr.ADAM_BETA2) * g * g
            w -= lr * (mk / bc1) / (np.sqrt(vk / bc2) + tr.ADAM_EPS)
    return params, m, v


def layer_statistics_cov(stats):
    """The centered covariance as stats.finalize stored it: sigma - mean
    mean^T, symmetrized once more."""
    cov = stats.sigma - np.outer(stats.mean, stats.mean)
    return (cov + cov.T) / 2.0


def scaling_matrix(target_stats):
    """stats.scaling_matrix from the diagonal of the stored covariance."""
    d = np.maximum(np.diag(layer_statistics_cov(target_stats)), st.SCALING_FLOOR)
    return (d[:, None] * d[None, :]) ** -0.25


# ---------------------------------------------------------------------------
# greedy selection: the step loop, the subset regularizer and the factor-form
# update as they were before the loop reused its arrays and before the update
# read one triangle of sigma; the recovery as it was when it also solved for
# the selected rows
# ---------------------------------------------------------------------------

class SubsetReg:
    """spectral._SubsetReg with a new array for each step."""

    def __init__(self, stats_source, stats_target, scaling):
        self.d = stats_source.mean - stats_target.mean
        self.m = scaling * (stats_source.cov - stats_target.cov)
        self.mean_sq = 0.0
        self.fro_sq = 0.0
        self.col_sq = np.zeros(self.d.shape[0])

    def candidate_values(self, cand):
        term1 = np.sqrt(self.mean_sq + self.d[cand] ** 2)
        diag = np.diagonal(self.m)[cand]
        term2 = np.sqrt(self.fro_sq + 2.0 * self.col_sq[cand] + diag * diag)
        return term1 + term2

    def absorb(self, i):
        self.mean_sq += float(self.d[i] ** 2)
        self.fro_sq += 2.0 * float(self.col_sq[i]) + float(self.m[i, i] ** 2)
        self.col_sq += self.m[i] ** 2


def residual_update(diag, rownorm2, z, sigma, t, isel, ridge):
    """backend.residual_update with a new array for each intermediate and
    the general matrix-vector product for y = Σ z, which reads all of Σ."""
    pivot = diag[isel] + ridge
    if pivot <= 0.0:
        return 0.0
    zs = z[:t]
    zt = sigma[isel] - zs[:, isel] @ zs
    zt /= np.sqrt(pivot)
    y = sigma @ zt - (zs @ zt) @ zs
    zz = float(zt @ zt)
    rownorm2 += zt * (zt * zz - 2.0 * y)
    diag -= zt * zt
    z[t] = zt
    return zz


def recovery_matrix(sigma, j, ridge=None):
    """spectral.recovery_matrix solving for every row, the selected ones
    included, before it overwrites those with the identity."""
    sigma = sp._check_sigma(sigma)
    j = list(j)
    ridge = default_ridge(sigma) if ridge is None else ridge
    lower = cholesky(sigma[np.ix_(j, j)], ridge=ridge)
    a = scipy.linalg.cho_solve((lower, True), sigma[j, :]).T
    a[np.asarray(j, dtype=np.intp), :] = np.eye(len(j))
    return a


def find_subset(sigma, cfg, stats_source=None, stats_target=None):
    """spectral.find_subset's incremental path with the loop that gathers
    its candidates, calls np.std and builds the regularizer at any lambda:
    a PruningPlan."""
    sigma = sp._check_sigma(sigma)
    m = sigma.shape[0]
    total = float(np.trace(sigma))
    ridge = default_ridge(sigma)

    reg_vec = None
    subset_reg = None
    if cfg.reg_mode != "none":
        if stats_source is None or stats_target is None:
            raise StatsMissing(f"reg_mode={cfg.reg_mode} needs source and target stats")
        scaling = st.scaling_matrix(stats_target)
        if cfg.reg_mode == "node":
            reg_vec = sp.reg_node(stats_source, stats_target, scaling)
        else:
            subset_reg = SubsetReg(stats_source, stats_target, scaling)

    max_card = cfg.max_cardinality if cfg.max_cardinality > 0 else m
    diag, rownorm2, factor = backend.residual_init(sigma, min(max_card, m))
    active = np.ones(m, dtype=bool)
    selected = []
    trace = []
    num = 0.0
    ratio = 0.0
    plateau = False

    while ratio < cfg.alpha and len(selected) < max_card and active.any():
        cand = np.flatnonzero(active)
        eff = diag[cand] + ridge
        gains = np.where(eff > 0, rownorm2[cand] / np.maximum(eff, 1e-300), 0.0)
        if float(gains.max()) / total < sp.PLATEAU_TOL:
            plateau = True
            break
        values = (num + gains) / total

        scores = values
        if cfg.reg_mode != "none" and cfg.lam > 0.0:
            rvals = reg_vec[cand] if reg_vec is not None \
                else subset_reg.candidate_values(cand)
            rmax = float(rvals.max())
            if rmax > 0.0:
                scores = values - cfg.lam * float(np.std(values)) * (rvals / rmax)

        pick = int(cand[int(np.argmax(scores))])
        num += residual_update(diag, rownorm2, factor, sigma, len(selected), pick, ridge)
        ratio = num / total
        selected.append(pick)
        trace.append(ratio)
        active[pick] = False
        if subset_reg is not None:
            subset_reg.absorb(pick)

    recovery = recovery_matrix(sigma, sorted(selected), ridge) if selected \
        else np.zeros((m, 0))
    return sp.PruningPlan(selected=tuple(selected), recovery=recovery,
                          ratio_trace=tuple(trace), plateau_flag=plateau)


# ---------------------------------------------------------------------------
# closed forms: the retention ratio of a subset, and the parameter budgets
# that compare node pruning with a rank-k factorization
# ---------------------------------------------------------------------------

def retention_ratio(sigma, j, ridge=None):
    """Fraction of tr(sigma) explainable from the subset j; ridge None
    takes the automatic ridge."""
    sigma = sp._check_sigma(sigma)
    j = list(j)
    if not j:
        return 0.0
    ridge = default_ridge(sigma) if ridge is None else ridge
    return sp._trace_num(sigma, j, ridge) / float(np.trace(sigma))


def matched_rank(k, m, n, p):
    """Kept-node count giving a pruned layer the same parameter budget as a
    rank-k factorization of an m x n layer followed by an n x p layer.

    Uses the square-layer budget identity (the intermediate bias is counted
    on the factorization side), floored and clamped to [1, n]:
        k' = (m (2k + 1 + p) + k) / (m + 1 + p).
    """
    if min(k, m, n, p) < 1:
        raise ValueError("all arguments must be positive")
    raw = (m * (2 * k + 1 + p) + k) / (m + 1 + p)
    return int(min(max(1, math.floor(raw)), n))


def dalr_param_fraction(k, m, n):
    """Factored weight elements as a fraction of the original m x n weight."""
    return k * (m + n) / (m * n)
