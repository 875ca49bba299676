"""Exact reference detectors: brute-force marginal posteriors, joint ML, LMMSE.

These are the ground-truth oracles that every approximate detector in the
package is measured against. They enumerate the full symbol lattice and are
therefore capped at 2^24 hypotheses.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .channel import ChannelInstance, Constellation
from .errors import CapacityError

LLR_CLAMP = 40.0
MAX_LATTICE_BITS = 24


def check_lattice_capacity(m, constellation, what="lattice enumeration"):
    """Raise CapacityError, before any lattice-sized allocation, past the cap."""
    bits = m * constellation.bits_per_symbol
    if bits > MAX_LATTICE_BITS:
        raise CapacityError(
            f"{what} needs a lattice of 2^{bits} points, over the 2^{MAX_LATTICE_BITS} cap")


def lattice_indices(m_tx, size):
    """All index vectors of the symbol lattice, in lexicographic order."""
    grids = np.indices((size,) * m_tx).reshape(m_tx, -1).T
    return np.ascontiguousarray(grids)


def _residual_norms(channel, constellation, y):
    """|y - H s|^2 at every lattice point s, plus the (L, M) index table."""
    idx = lattice_indices(channel.n_tx, constellation.size)
    resid = np.asarray(y)[None, :] - constellation.points[idx] @ channel.H.T  # (L, N)
    return np.sum(np.abs(resid) ** 2, axis=1), idx


def _joint_log_posterior(channel, constellation, y):
    """Unnormalised log posterior over the full lattice, plus the index table."""
    dist, idx = _residual_norms(channel, constellation, y)
    return -dist / channel.sigma2 + np.sum(np.log(constellation.prior[idx]), axis=1), idx


def map_marginals(channel: ChannelInstance, constellation: Constellation, y) -> np.ndarray:
    """Exact per-symbol posterior pmfs by full lattice enumeration.

    Returns an (M, size) array whose rows sum to one. Accumulation is done in
    the log domain so high-SNR instances do not underflow.
    """
    check_lattice_capacity(channel.n_tx, constellation)
    logp, idx = _joint_log_posterior(channel, constellation, y)
    m, size = channel.n_tx, constellation.size
    table = logp.reshape((size,) * m)
    out = np.empty((m, size))
    for j in range(m):
        axes = tuple(k for k in range(m) if k != j)
        mj = table.max(axis=axes)
        out[j] = mj + np.log(np.sum(np.exp(table - mj.reshape(
            tuple(size if k == j else 1 for k in range(m)))), axis=axes))
    out -= out.max(axis=1, keepdims=True)
    p = np.exp(out)
    p /= p.sum(axis=1, keepdims=True)
    return p


def ml_hard(channel: ChannelInstance, constellation: Constellation, y) -> np.ndarray:
    """Joint maximum-likelihood decision (MAP under a uniform prior).

    Ties resolve to the lexicographically smallest index vector.
    """
    check_lattice_capacity(channel.n_tx, constellation)
    dist, idx = _residual_norms(channel, constellation, y)
    return idx[int(np.argmin(dist))].copy()


def llr_from_marginals(posteriors, constellation: Constellation) -> np.ndarray:
    """Per-bit log-likelihood ratios log(P[b=0] / P[b=1]), clamped to +-40.

    posteriors is an (M, size) table of per-symbol pmfs.
    """
    post = np.asarray(posteriors, dtype=float)
    labels = constellation.bit_labels  # (size, m)
    p0 = post @ (1.0 - labels)  # (M, m)
    p1 = post @ labels.astype(float)
    with np.errstate(divide="ignore"):
        llr = np.log(p0) - np.log(p1)
    return np.clip(llr, -LLR_CLAMP, LLR_CLAMP)


@dataclass(frozen=True)
class LmmseResult:
    """Linear MMSE estimates and the per-component residual MSE."""

    estimates: np.ndarray
    mmse: np.ndarray


def lmmse(channel: ChannelInstance, y) -> LmmseResult:
    """Linear MMSE estimator x_hat_j = h_j^H K^{-1} y with K = H H^H + sigma2 I.

    The per-component minimum MSE is 1 - h_j^H K^{-1} h_j, strictly inside
    (0, 1) for positive noise power and nonzero columns. That difference
    cancels at high SNR, so it is computed as 1 / (1 + |R^{-H} h_j|^2),
    with K_j = K - h_j h_j^H = R^H R from a QR of [H_{-j}^H; sqrt(sigma2) I].
    """
    H = channel.H
    n_rx, n_tx = H.shape
    K = H @ H.conj().T + channel.sigma2 * np.eye(n_rx)
    # y is solved next to H's columns: alone, its solve may round differently
    Kinvy = np.linalg.solve(K, np.column_stack([H, np.asarray(y)]))[:, -1]
    estimates = H.conj().T @ Kinvy
    mmse = np.empty(n_tx)
    for j in range(n_tx):
        S = np.concatenate([np.delete(H, j, axis=1).conj().T,
                            np.sqrt(channel.sigma2) * np.eye(n_rx)])
        g = np.linalg.solve(np.linalg.qr(S, mode="r").conj().T, H[:, j])
        mmse[j] = 1.0 / (1.0 + np.vdot(g, g).real)
    return LmmseResult(estimates=estimates, mmse=mmse)
