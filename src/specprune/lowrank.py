"""Low-rank dense-layer factorization baselines.

svd_truncate replaces a dense weight by its best rank-k approximation;
dalr_compress minimizes the error on observed layer outputs instead
(data-dependent), by projecting the weight onto the top-k left singular
vectors of W @ X. Both factor into two stacked dense layers (k x n bias-free,
then m x k carrying the original bias), plus the parameter-matching rules
used to compare against node pruning at equal budgets.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import net as nm
from .errors import DegenerateData, RankOutOfRange
from .linalg import svd


@dataclass(frozen=True)
class FactoredDense:
    """Two stacked factors replacing one m x n dense layer: y = second @ (first @ x) + bias."""

    first: np.ndarray  # (k, n), bias-free
    second: np.ndarray  # (m, k)
    bias: np.ndarray  # (m,)


def svd_truncate(weight, bias, k):
    """Best rank-k approximation of the weight matrix (data-independent)."""
    weight = np.asarray(weight, dtype=np.float64)
    m, n = weight.shape
    if not 1 <= k <= min(m, n):
        raise RankOutOfRange(f"k={k} outside [1, {min(m, n)}]")
    u, s, v = svd(weight)
    first = s[:k, None] * v[:, :k].T
    second = u[:, :k]
    return FactoredDense(first=first, second=second,
                         bias=np.asarray(bias, dtype=np.float64).copy())


def dalr_compress(weight, bias, activations, k):
    """Rank-k factorization minimizing ||W X - What X||_F over the observed
    layer inputs X (columns are samples).

    The minimizer projects W onto the top-k left singular vectors of W @ X,
    so the factorization preserves the layer's outputs on the data as well as
    any rank-k matrix can.
    """
    weight = np.asarray(weight, dtype=np.float64)
    x = np.asarray(activations, dtype=np.float64)
    m, n = weight.shape
    if x.shape[0] != n:
        raise RankOutOfRange(f"activations have {x.shape[0]} rows, weight has {n} columns")
    if not 1 <= k <= m or x.shape[1] < k:
        raise RankOutOfRange(f"k={k} outside [1, {m}] or more than {x.shape[1]} samples")
    y = weight @ x
    if not np.any(y):
        raise DegenerateData("projected activations are identically zero")
    u, _, _ = svd(y)
    uk = u[:, :k]
    return FactoredDense(first=uk.T @ weight, second=uk,
                         bias=np.asarray(bias, dtype=np.float64).copy())


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


def dalr_feasible(k, m, n):
    """True when the rank-k factorization actually has fewer parameters: k(m+n) < mn."""
    return k * (m + n) < m * n


def dalr_param_fraction(k, m, n):
    """Factored weight elements as a fraction of the original m x n weight."""
    return k * (m + n) / (m * n)


def replace_dense(network, layer_idx, fd):
    """Substitute the Dense layer at layer_idx by its factored pair.

    Later layer indices shift by one; capture points are remapped.
    """
    old = network.layers[layer_idx]
    if not isinstance(old, nm.Dense):
        raise TypeError(f"layer {layer_idx} is {type(old).__name__}, not Dense")
    if fd.second.shape[0] != old.weight.shape[0] or fd.first.shape[1] != old.weight.shape[1]:
        raise RankOutOfRange("factor shapes disagree with the replaced layer")
    factors = (nm.Dense(fd.first, None), nm.Dense(fd.second, fd.bias))  # first bias-free
    layers = network.layers[:layer_idx] + factors + network.layers[layer_idx + 1:]
    capture = tuple(cp if cp < layer_idx else cp + 1 for cp in network.capture_points)
    return nm.Network(layers, network.input_shape, capture)
