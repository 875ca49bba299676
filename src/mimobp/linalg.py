"""Scalar complex Gaussian helpers shared by every detector.

All Gaussian densities in this package use the circularly-symmetric complex
convention: a scalar CN(mu, v) has density exp(-|x - mu|^2 / v) / (pi * v),
which integrates to one over the complex plane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
