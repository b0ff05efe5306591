"""Low-rank dense-layer factorization baselines.

factor_dense minimizes the error on observed layer outputs (DALR, Masana
et al., ICCV 2017) by projecting the weight onto the top-k left singular
vectors of W @ X. On identity inputs, X = I, that projection is the best
rank-k approximation of W itself, the truncated SVD; the `svd` baseline is
that case. A factorization is two stacked dense layers: k x n bias-free, then
m x k carrying the original bias.
"""

import numpy as np

from . import net as nm
from .errors import DegenerateData, RankOutOfRange
from .linalg import svd


def factor_dense(weight, bias, inputs, k):
    """Rank-k factorization minimizing ||W X - What X||_F over the layer
    inputs X (columns are samples): the pair (Dense(U_k^T W, None),
    Dense(U_k, bias)), with U_k the top-k left singular vectors of W X."""
    weight = np.asarray(weight, dtype=np.float64)
    x = np.asarray(inputs, dtype=np.float64)
    m, n = weight.shape
    if x.shape[0] != n:
        raise RankOutOfRange(f"inputs have {x.shape[0]} rows, weight has {n} columns")
    if not 1 <= k <= m or x.shape[1] < k:
        raise RankOutOfRange(f"k={k} outside [1, {m}] or more than {x.shape[1]} samples")
    y = weight @ x
    if not np.any(y):
        raise DegenerateData("projected inputs are identically zero")
    u, _, _ = svd(y)
    uk = u[:, :k]
    return nm.Dense(uk.T @ weight, None), nm.Dense(uk, bias)


def dalr_feasible(k, m, n):
    """True when the rank-k factorization actually has fewer parameters: k(m+n) < mn."""
    return k * (m + n) < m * n


def replace_dense(network, layer_idx, factors):
    """Substitute the Dense layer at layer_idx by its factored pair (first,
    second), as factor_dense returns it.

    Later layer indices shift by one; capture points are remapped.
    """
    old = network.layers[layer_idx]
    if not isinstance(old, nm.Dense):
        raise TypeError(f"layer {layer_idx} is {type(old).__name__}, not Dense")
    first, second = factors
    if second.weight.shape[0] != old.weight.shape[0] \
            or first.weight.shape[1] != old.weight.shape[1]:
        raise RankOutOfRange("factor shapes disagree with the replaced layer")
    layers = network.layers[:layer_idx] + (first, second) + network.layers[layer_idx + 1:]
    capture = tuple(cp if cp < layer_idx else cp + 1 for cp in network.capture_points)
    return nm.Network(layers, network.input_shape, capture)
