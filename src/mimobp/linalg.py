"""Complex linear algebra and scalar Gaussian helpers shared by every detector.

All Gaussian densities in this package use the circularly-symmetric complex
convention: a scalar CN(mu, v) has density exp(-|x - mu|^2 / v) / (pi * v),
which integrates to one over the complex plane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import SingularMatrixError

# Reciprocal condition number below which a Hermitian solve is refused.
RCOND_MIN = 1e-13


@dataclass(frozen=True)
class ComplexGaussian1D:
    """Scalar circularly-symmetric complex Gaussian, (mean, variance) pair."""

    mean: complex
    variance: float

    def __post_init__(self):
        if self.variance <= 0:
            raise ValueError(f"variance must be positive, got {self.variance}")

    def pdf(self, x):
        return cn_pdf(x, self.mean, self.variance)


def cn_pdf(x, mean, variance):
    """Density of CN(mean, variance) at x.

    Broadcasts over array arguments. variance must be strictly positive.
    """
    variance = np.asarray(variance, dtype=float)
    if np.any(variance <= 0):
        raise ValueError("variance must be positive")
    return np.exp(-np.abs(np.asarray(x) - mean) ** 2 / variance) / (np.pi * variance)


def cn_logpdf(x, mean, variance):
    """Log-density of CN(mean, variance) at x; same contract as cn_pdf."""
    variance = np.asarray(variance, dtype=float)
    if np.any(variance <= 0):
        raise ValueError("variance must be positive")
    return -np.abs(np.asarray(x) - mean) ** 2 / variance - np.log(np.pi * variance)


def partial_covariance(H, sigma2, excluded):
    """Noise-plus-interference covariance with the given columns excluded.

    Returns sigma2 * I + sum of h_k h_k^H over all columns k not in
    ``excluded``.  The result is Hermitian positive definite whenever
    sigma2 > 0.

    Parameters
    ----------
    H : (N, M) complex ndarray
        Channel matrix whose columns are the per-stream signatures.
    sigma2 : float
        Noise variance per complex dimension.
    excluded : iterable of int
        Column indices treated as known signals rather than interference.
    """
    H = np.asarray(H)
    n_rx, n_tx = H.shape
    excluded = frozenset(int(k) for k in excluded)
    for k in excluded:
        if not 0 <= k < n_tx:
            raise ValueError(f"excluded index {k} outside 0..{n_tx - 1}")
    keep = [k for k in range(n_tx) if k not in excluded]
    K = sigma2 * np.eye(n_rx, dtype=complex)
    if keep:
        Hk = H[:, keep]
        K = K + Hk @ Hk.conj().T
    return K


def hermitian_solve(A, b):
    """Solve A x = b for Hermitian positive definite A via Cholesky.

    Raises SingularMatrixError when the reciprocal condition estimate falls
    below RCOND_MIN or the matrix is not positive definite.
    """
    A = np.asarray(A)
    w = np.linalg.eigvalsh(A)
    if w[0] <= 0 or w[0] / w[-1] < RCOND_MIN:
        raise SingularMatrixError(
            f"matrix not safely positive definite (rcond ~ {w[0] / w[-1]:.2e})"
        )
    c, low = cho_factor(A, lower=True, check_finite=False)
    return cho_solve((c, low), np.asarray(b), check_finite=False)
