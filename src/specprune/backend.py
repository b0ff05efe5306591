"""The greedy-selection kernel, in factor form.

Greedy trace-ratio selection on a second moment Σ is greedy column-subset
selection, and the recursive form below is that of Farahat, Ghodsi & Kamel,
"An Efficient Greedy Method for Unsupervised Feature Selection" (ICDM 2011);
it is pivoted Cholesky on Σ + ridge at the pivots.

After t selections the residual is never formed. The state is the selected
factor Z (t x m, stored row-major so each step's slices are contiguous), the
residual diagonal and the residual squared row norms, with the invariant

    R = Σ - ZᵀZ,   diag = diag(R),   rownorm2[j] = ||R[j]||².

The gain of candidate j is rownorm2[j] / (diag[j] + ridge). Absorbing index i
adds the row z = R[i] / sqrt(diag[i] + ridge) to Z; with y = R z the row
norms follow ||R[j] - z_j z||² = ||R[j]||² - 2 z_j y_j + z_j² ||z||². Each step
costs one symmetric Σ z product (BLAS dsymv, which reads one triangle of Σ)
plus O(t m), and no m x m temporary is made. Σ must be exactly symmetric and
C-contiguous: its transpose is then the Fortran-ordered view dsymv takes
without a copy.
"""

import numpy as np
from scipy.linalg.blas import dsymv


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
