"""The greedy-selection kernel, in factor form.

Greedy trace-ratio selection on a second moment Σ is greedy column-subset
selection, and the recursive form below is that of Farahat, Ghodsi & Kamel,
"An Efficient Greedy Method for Unsupervised Feature Selection" (ICDM 2011);
it is pivoted Cholesky on Σ + ridge at the pivots, in the blocked,
right-looking form of LAPACK's dpstrf.

The selections run in blocks of COMPACT_EVERY. Within a block the residual
is never formed. The state is the block's factor Z_b (b x a with b <
COMPACT_EVERY rows filled, stored row-major so each step's slices are
contiguous), the residual diagonal and the residual squared row norms over
a working set of a nodes, with the invariant

    R = Σ_a - Z_bᵀZ_b,   diag = diag(R),   rownorm2[j] = ||R[j]||²,

where Σ_a is the residual left by the earlier blocks (Σ itself in the
first), restricted to the working set, rows and columns. The working set
starts as all m nodes. The gain of candidate j is rownorm2[j] / (diag[j] +
ridge). Absorbing index i adds the row z = R[i] / sqrt(diag[i] + ridge) to
Z_b; with y = R z the row norms follow ||R[j] - z_j z||² = ||R[j]||² - 2
z_j y_j + z_j² ||z||². Each step costs one symmetric Σ_a z product (BLAS
dsymv, which reads the lower triangle of Σ_a, about a²/2 entries) plus three
products over the block's rows, about 3·b·a, and no a x a temporary is made.
Σ_a is read only in its lower triangle, row i included: Σ must be exactly
symmetric and C-contiguous, and its transpose is then the Fortran-ordered
view dsymv takes without a copy.

An absorbed node is never a candidate again, and its residual row is only
about ridge / pivot of what it was. So at the end of each block the caller
folds the block into the working set and drops the absorbed nodes from it
(residual_compact): Σ_a becomes (Σ_a - Z_bᵀZ_b) over the nodes still active,
in index order, gathered by indexing into a new array and downdated there by
one dsyrk on its lower triangle; diag and rownorm2 are gathered, and the
factor starts empty. The caller's Σ is never written. The terms dropped from
the row norms are of order (ridge / pivot)², and the fold sums Σ_a - ZᵀZ in
another order than the in-block products, so the gains move in their last
bits only.
"""

import numpy as np
from scipy.linalg.blas import dsymv, dsyrk

#: Selections in one block: the factor's row count, and the steps between two
#: folds of the working set, so the schedule depends on nothing but the step
#: number.
COMPACT_EVERY = 64


def greedy_backend_name():
    """Name of the kernel implementation; there is one, in NumPy."""
    return "numpy"


def residual_init(sigma, rank):
    """Kernel state for a block of at most `rank` selections on sigma:
    (diag, rownorm2, z).

    z is (rank x m) and zero; rows are filled as indices are absorbed.
    """
    sigma = np.ascontiguousarray(sigma, dtype=np.float64)
    diag = np.diagonal(sigma).copy()
    rownorm2 = np.einsum("ij,ij->i", sigma, sigma)
    z = np.zeros((rank, sigma.shape[0]))
    return diag, rownorm2, z


def residual_update(diag, rownorm2, z, sigma, t, isel, ridge):
    """Absorb index isel as selection number t of the block; returns the
    trace gain ||z||².

    Rows [0, t) of z hold the block's earlier selections and sigma is Σ_a,
    the working set's residual before the block. Writes z[t] and updates
    diag and rownorm2 in place. sigma is symmetric and C-contiguous, and only
    its lower triangle is read: row isel as its part left of the diagonal
    and its column below it. A non-positive pivot returns 0 and leaves the
    state unchanged (z[t] stays zero, so later steps may still pass t+1).
    """
    pivot = diag[isel] + ridge
    if pivot <= 0.0:
        return 0.0
    zs, zt = z[:t], z[t]
    np.matmul(zs[:, isel], zs, out=zt)
    head, tail = zt[:isel + 1], zt[isel + 1:]
    np.subtract(sigma[isel, :isel + 1], head, out=head)
    np.subtract(sigma[isel + 1:, isel], tail, out=tail)
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
    """Fold the block's first t factor rows into sigma and restrict the state
    to the positions `keep` (increasing): (diag, rownorm2, z, sigma) over
    len(keep) positions.

    The new sigma is (sigma - z[:t]ᵀz[:t])[keep, keep] on its lower
    triangle, the one residual_update reads; above the diagonal it holds
    sigma[keep, keep]. The new z has z's row count and is zero. Each result
    is a new array; no input is written.
    """
    work = sigma[np.ix_(keep, keep)]
    # work.T is Fortran-ordered, so dsyrk downdates it in place, and its
    # upper triangle is work's lower one; z[:t, keep] comes out of NumPy's
    # gather Fortran-ordered, as dsyrk reads it without a copy
    dsyrk(-1.0, z[:t, keep], 1.0, work.T, trans=1, overwrite_c=True)
    return diag[keep], rownorm2[keep], np.zeros((len(z), len(keep))), work
