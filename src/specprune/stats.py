"""Per-layer, per-domain activation statistics.

Accumulates the uncentered second moment and mean of post-activation values
at capture points, in float64; the centered covariance is derived from them.
Accumulators are single-writer running sums; finalized statistics are
immutable and checked to be finite.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSigma, InsufficientSamples, ShapeMismatch

SCALING_FLOOR = 1e-12


class MomentAccumulator:
    """Running sums for one capture point: n, sum, and sum of outer products."""

    def __init__(self, layer, width):
        self.layer = int(layer)
        self.width = int(width)
        self.n = 0
        self.sum = np.zeros(width)
        self.sum_outer = np.zeros((width, width))


def accumulate(acc, batch):
    """Fold an ActivationBatch into the accumulator (in place; returns acc)."""
    if batch.layer != acc.layer:
        raise ShapeMismatch(f"batch for layer {batch.layer}, accumulator for {acc.layer}")
    rows = np.asarray(batch.samples, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != acc.width:
        raise ShapeMismatch(f"expected (n, {acc.width}) rows, got {rows.shape}")
    if rows.shape[0] == 0:
        return acc
    acc.n += rows.shape[0]
    acc.sum += rows.sum(axis=0)
    acc.sum_outer += rows.T @ rows
    return acc


@dataclass(frozen=True)
class LayerStatistics:
    """Finalized statistics: uncentered second moment and mean."""

    sigma: np.ndarray
    mean: np.ndarray

    @property
    def cov(self):
        """Centered covariance, sigma - mean mean^T; exactly symmetric
        because sigma is."""
        return self.sigma - np.outer(self.mean, self.mean)


def finalize(acc, domain=""):
    """Mean and second moment of the accumulated rows.

    Raises InsufficientSamples, or DegenerateSigma when a statistic is not
    finite (an activation overflowed or was NaN), naming the capture point.
    """
    where = f"capture point {acc.layer}" + (f" ({domain} stream)" if domain else "")
    if acc.n < 2:
        raise InsufficientSamples(f"{where}: need at least 2 samples, have {acc.n}")
    sigma = acc.sum_outer / acc.n
    sigma = (sigma + sigma.T) / 2.0
    mean = acc.sum / acc.n
    if not (np.isfinite(sigma).all() and np.isfinite(mean).all()):
        raise DegenerateSigma(f"{where}: moment statistics are not finite")
    return LayerStatistics(sigma=sigma, mean=mean)


def scaling_matrix(target_stats):
    """Entrywise normalizer S_ij = (d_i * d_j)^(-1/4) from the target covariance
    diagonal, with the diagonal clamped below by SCALING_FLOOR before the
    power."""
    d = np.maximum(np.diagonal(target_stats.sigma) - target_stats.mean ** 2, SCALING_FLOOR)
    return (d[:, None] * d[None, :]) ** -0.25


def activation_rates(x):
    """Per-node fraction of strictly positive capture rows of activations x
    (n, width[, h, w]) that the caller pushed; a conv capture has one row
    per spatial position of each sample."""
    axes = (0,) if x.ndim == 2 else (0, 2, 3)
    return np.count_nonzero(x > 0, axis=axes) / (x.size // x.shape[1])


def content_key(*parts):
    """sha256 over the reprs of parts (str, int, float), each ended by a NUL."""
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode())
        h.update(b"\x00")
    return h.hexdigest()
