"""Dense matrix kernels: ridged Cholesky factorization and SVD.

All routines work on float64 arrays and are pure functions of their inputs.
LAPACK (via numpy) does the heavy lifting; the value added here is the ridge
bookkeeping and the typed errors. The recovery solve and the naive greedy
path factor through here; the incremental greedy kernel is in backend.
"""

import math

import numpy as np

from .errors import NoConvergence, NotPositiveDefinite, ShapeMismatch

#: Relative ridge applied to near-singular moment matrices: ridge = RIDGE_SCALE * tr(A) / dim.
RIDGE_SCALE = 1e-8


def default_ridge(a):
    """Ridge for covariance solves, relative to the mean diagonal magnitude."""
    a = np.asarray(a, dtype=np.float64)
    if a.size == 0:
        return 0.0
    return RIDGE_SCALE * float(np.trace(a)) / a.shape[0]


#: Side of the square tiles is_symmetric compares, so its temporaries stay in cache.
SYMMETRY_TILE = 128


def is_symmetric(a):
    """True when the square array a equals its transpose to within 1e-9 of
    max(1, max |a|); False when a has a non-finite entry.

    Each tile at or below the diagonal is compared with its mirror image,
    so no m x m temporary is made."""
    gaps, sizes = [], []  # max |a - a.T| and max |a| per tile; np.max keeps a NaN
    for i in range(0, a.shape[0], SYMMETRY_TILE):
        for j in range(0, i + 1, SYMMETRY_TILE):
            lower = a[i:i + SYMMETRY_TILE, j:j + SYMMETRY_TILE]
            upper = a[j:j + SYMMETRY_TILE, i:i + SYMMETRY_TILE]
            gap = lower - upper.T
            gaps.append(np.abs(gap, out=gap).max())
            sizes.append(np.abs(lower).max())
            if j < i:
                sizes.append(np.abs(upper).max())
    if not gaps:
        return True
    scale = float(np.max(sizes))
    return math.isfinite(scale) and float(np.max(gaps)) <= 1e-9 * max(1.0, scale)


def cholesky(a, ridge=0.0):
    """Lower-triangular L with L @ L.T == A + ridge * I, for a symmetric
    positive definite matrix A.

    Raises NotPositiveDefinite when a pivot is non-positive even after
    ridging, which signals the caller to raise the ridge.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got {a.shape}")
    if ridge < 0:
        raise ValueError("ridge must be non-negative")
    if not is_symmetric(a):
        raise ValueError("matrix is not symmetric within 1e-9")
    ridged = a if ridge == 0.0 else a + ridge * np.eye(a.shape[0])
    try:
        return np.linalg.cholesky(ridged)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc


def svd(m):
    """Thin SVD: M = U @ diag(s) @ V.T with s sorted descending.

    Returns V (not its transpose); both U and V have orthonormal columns.
    """
    m = np.asarray(m, dtype=np.float64)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return u, s, vt.T
