"""The greedy-selection kernel, in factor form.

Greedy trace-ratio selection on a second moment Σ is greedy column-subset
selection, and the recursive form below is that of Farahat, Ghodsi & Kamel,
"An Efficient Greedy Method for Unsupervised Feature Selection" (ICDM 2011);
it is pivoted Cholesky on Σ + ridge at the pivots.

After t selections the residual is never formed. The state is the selected
factor Z (t x a, stored row-major so each step's slices are contiguous), the
residual diagonal and the residual squared row norms over a working set of a
nodes, with the invariant

    R = Σ_a - ZᵀZ,   diag = diag(R),   rownorm2[j] = ||R[j]||²,

where Σ_a is Σ restricted to the working set, rows and columns. The working
set starts as all m nodes. The gain of candidate j is rownorm2[j] /
(diag[j] + ridge). Absorbing index i adds the row z = R[i] / sqrt(diag[i] +
ridge) to Z; with y = R z the row norms follow ||R[j] - z_j z||² = ||R[j]||² -
2 z_j y_j + z_j² ||z||². Each step costs one symmetric Σ z product (BLAS
dsymv, which reads one triangle of Σ) plus O(t a), and no a x a temporary is
made. Σ must be exactly symmetric and C-contiguous: its transpose is then the
Fortran-ordered view dsymv takes without a copy.

An absorbed node is never a candidate again, and its residual row is only
about ridge / pivot of what it was. So every COMPACT_EVERY selections the
caller drops the absorbed nodes from the working set (residual_compact): Σ_a,
Z, diag and rownorm2 are rebuilt by indexing as new arrays over the nodes
still active, in index order, and every later product runs over a < m. The
caller's Σ is never written. The terms dropped from the row norms are of
order (ridge / pivot)², so the gains move in their last bits only.
"""

import numpy as np
from scipy.linalg.blas import dsymv

#: Selections between two compactions of the working set; a count of steps,
#: so the schedule depends on nothing but the step number.
COMPACT_EVERY = 64


def greedy_backend_name():
    """Name of the kernel implementation; there is one, in NumPy."""
    return "numpy"


def residual_init(sigma, rank):
    """Kernel state for at most `rank` selections on sigma: (diag, rownorm2, z).

    z is (rank x m) and zero; rows are filled as indices are absorbed.
    """
    sigma = np.ascontiguousarray(sigma, dtype=np.float64)
    diag = np.diagonal(sigma).copy()
    rownorm2 = np.einsum("ij,ij->i", sigma, sigma)
    z = np.zeros((rank, sigma.shape[0]))
    return diag, rownorm2, z


def residual_update(diag, rownorm2, z, sigma, t, isel, ridge):
    """Absorb index isel as selection number t; returns the trace gain ||z||².

    Rows [0, t) of z hold the earlier selections. Writes z[t] and updates
    diag and rownorm2 in place. sigma is symmetric and C-contiguous: the
    Σ z product reads one triangle of it. A non-positive pivot returns 0 and
    leaves the state unchanged (z[t] stays zero, so later steps may still
    pass t+1).
    """
    pivot = diag[isel] + ridge
    if pivot <= 0.0:
        return 0.0
    zs, zt = z[:t], z[t]
    np.matmul(zs[:, isel], zs, out=zt)
    np.subtract(sigma[isel], zt, out=zt)
    zt /= np.sqrt(pivot)
    y = dsymv(1.0, sigma.T, zt)
    y -= (zs @ zt) @ zs
    zz = float(zt @ zt)
    # rownorm2 += zt * (zt * zz - 2 y), with -2y formed in place: a + (-2y)
    # rounds exactly as a - 2y
    y *= -2.0
    step = zt * zz
    step += y
    step *= zt
    rownorm2 += step
    np.multiply(zt, zt, out=step)
    diag -= step
    return zz


def residual_compact(diag, rownorm2, z, sigma, t, keep):
    """The kernel state restricted to the positions `keep` (increasing):
    (diag, rownorm2, z, sigma) over len(keep) positions.

    Each result is a new array built by indexing; no input is written. z
    keeps its row count, with the first t rows gathered to the kept columns
    and the rows from t on zero.
    """
    factor = np.zeros((len(z), len(keep)))
    factor[:t] = z[:t, keep]
    return diag[keep], rownorm2[keep], factor, sigma[np.ix_(keep, keep)]
