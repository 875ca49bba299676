"""Order-2 channel shortening and tail-biting forward/backward detection.

A bank of multi-modal MMSE filters turns the M-stream channel into an
effective two-tap tail-biting chain: filter r passes its target stream and
the previous stream around the ring, and suppresses everything else into a
Gaussian remainder. These shortening taps are the pairwise conditional-MMSE
links of the ring pairs (order[r] | order[r-1]), built by
``pairwise.conditional_filter``. Unlike the ring BP detector, both
recursion directions here share the same effective observations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelInstance, Constellation
from .discrete_bp import BeliefState, BpConfig, ring_recursion
from .linalg import cn_logpdf
from .pairwise import conditional_filter, ring_order


@dataclass(frozen=True)
class BiDiagonalized:
    """Shortening filters and effective-channel taps, in ring order.

    Row r of the effective model reads
        y'_r = a_diag[r] * x_{order[r]} + a_sub[r] * x_{order[r-1]} + n'_r,
    with E|n'_r|^2 = sigma2_eff[r] = a_diag[r]. ``leakage`` reports the
    residual power of the streams the filter was meant to suppress.
    """

    C: np.ndarray  # (N, M), column r = filter for ring position r
    a_diag: np.ndarray  # (M,) real
    a_sub: np.ndarray  # (M,) complex
    sigma2_eff: np.ndarray  # (M,) real
    leakage: np.ndarray  # (M,) real diagnostic
    order: tuple


def bidiagonalize(channel: ChannelInstance, permutation=None) -> BiDiagonalized:
    """Build the two-tap shortening filters c_r = K_r^{-1} h_target.

    K_r is the covariance of noise plus every stream outside {target,
    previous}; the filter maximises the target's SINR against that
    covariance.
    """
    m = channel.n_tx
    if m < 2:
        raise ValueError("bi-diagonalization needs at least two streams")
    order = ring_order(m, permutation)
    H = channel.H
    C = np.empty((channel.n_rx, m), dtype=complex)
    a_diag = np.empty(m)
    a_sub = np.empty(m, dtype=complex)
    leakage = np.empty(m)
    for r in range(m):
        target, prev = order[r], order[(r - 1) % m]
        c = conditional_filter(H, channel.sigma2, target, prev)
        C[:, r] = c
        a_diag[r] = np.vdot(c, H[:, target]).real
        a_sub[r] = np.vdot(c, H[:, prev])
        others = [k for k in range(m) if k not in (target, prev)]
        leakage[r] = sum(abs(np.vdot(c, H[:, k])) ** 2 for k in others)
    return BiDiagonalized(C=C, a_diag=a_diag, a_sub=a_sub,
                          sigma2_eff=a_diag.copy(), leakage=leakage, order=order)


def forward_backward_detect(bd: BiDiagonalized, constellation: Constellation, y,
                            config: BpConfig) -> BeliefState:
    """Tail-biting forward/backward recursion on the shortened channel.

    One iteration is one full turn in each direction; messages carry the
    symbol prior forward, and beliefs combine the prior with both directions'
    extrinsic messages.
    """
    m = bd.a_diag.shape[0]
    y_eff = bd.C.conj().T @ np.asarray(y)  # filter outputs y'_r = c_r^H y, in ring order
    points = constellation.points

    def factor_table(r):
        # [t, s] = log density of y'_r given previous symbol t and target s
        mu = bd.a_diag[r] * points[None, :] + bd.a_sub[r] * points[:, None]
        return cn_logpdf(y_eff[r], mu, bd.sigma2_eff[r])

    tables = [factor_table(r) for r in range(m)]
    return ring_recursion([t.T for t in tables], tables[1:] + tables[:1],
                          np.log(constellation.prior), constellation.prior, bd.order, config)
