"""Per-ordered-pair conditional MMSE preprocessing.

For an ordered pair (j | i) the receiver treats x_i as known, every other
stream as Gaussian interference, and filters y with the conditional MMSE
filter c = K_{ji}^{-1} h_j, where K_{ji} excludes columns j and i from the
interference covariance. The resulting scalar observation

    y' = c^H y = a_jj x_j + a_ji x_i + n',   E|n'|^2 = sigma2_cond = a_jj,

drives both the discrete translation kernels and the Gaussian recursions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import ChannelInstance
from .linalg import ComplexGaussian1D


class Topology(Enum):
    FULLY_CONNECTED = "fully_connected"
    RING = "ring"


@dataclass(frozen=True)
class PairwiseLink:
    """Precomputed quantities for one ordered pair (target j given known i).

    a_jj is real and equal to sigma2_cond by construction; u, v are the
    offset and slope of the mean recursion through this link and u_var,
    v_var the corresponding variance-recursion coefficients, with
    u_var = 1 / (1 + sigma2_cond) and v_var = |v|^2.
    """

    j: int
    i: int
    c: np.ndarray
    y_prime: complex
    a_jj: float
    a_ji: complex
    sigma2_cond: float
    u: complex
    v: complex
    u_var: float
    v_var: float


def ring_order(m: int, permutation=None) -> tuple:
    """Ring order as a tuple of node ids: natural order by default, else
    ``permutation``, which must be a bijection on 0..m-1."""
    if permutation is None:
        return tuple(range(m))
    order = tuple(int(p) for p in permutation)
    if sorted(order) != list(range(m)):
        raise ValueError(f"permutation must be a bijection on 0..{m - 1}")
    return order


def conditional_filter(H, sigma2, j: int, i: int) -> np.ndarray:
    """Conditional MMSE filter c = K_{ji}^{-1} h_j for target j given known i.

    K_{ji} = sigma2 I + H_{-ji} H_{-ji}^H = R^H R comes from a QR of
    [H_{-ji}^H; sqrt(sigma2) I], and c from two solves, with R^H and then R.
    R has the square root of K_{ji}'s condition number, so K_{ji} is never
    formed.
    """
    H = np.asarray(H)
    n_rx, n_tx = H.shape
    others = [k for k in range(n_tx) if k not in (j, i)]
    S = np.concatenate([H[:, others].conj().T, np.sqrt(sigma2) * np.eye(n_rx)])
    R = np.linalg.qr(S, mode="r")
    return np.linalg.solve(R, np.linalg.solve(R.conj().T, H[:, j]))


def build_link(channel: ChannelInstance, y, j: int, i: int) -> PairwiseLink:
    """Build the conditional-filter link for target j given known i."""
    if i == j:
        raise ValueError("ordered pair needs distinct indices")
    H = channel.H
    c = conditional_filter(H, channel.sigma2, j, i)
    a_jj = float(np.vdot(c, H[:, j]).real)
    a_ji = complex(np.vdot(c, H[:, i]))
    y_prime = complex(np.vdot(c, np.asarray(y)))
    sigma2_cond = a_jj
    scale = 1.0 + sigma2_cond
    u = y_prime / scale
    v = -a_ji / scale
    return PairwiseLink(
        j=j, i=i, c=c, y_prime=y_prime, a_jj=a_jj, a_ji=a_ji,
        sigma2_cond=sigma2_cond, u=u, v=v,
        u_var=1.0 / scale, v_var=abs(v) ** 2,
    )


def translate_kernel(link: PairwiseLink, x_i) -> ComplexGaussian1D:
    """Conditional density of x_j given x_i and the link observation.

    A unit-variance Gaussian prior on x_j is already folded in, so the mean
    is the conditional MMSE estimate of x_j and the variance is constant:

        mean = (y' - a_ji * x_i) / (1 + sigma2_cond)
        variance = 1 / (1 + sigma2_cond)
    """
    scale = 1.0 + link.sigma2_cond
    return ComplexGaussian1D(mean=(link.y_prime - link.a_ji * x_i) / scale, variance=1.0 / scale)


def translate_log_table(link: PairwiseLink, points) -> np.ndarray:
    """Log translation kernel on a point grid: [s, t] = log p(x_j = s | x_i = t)."""
    points = np.asarray(points)
    scale = 1.0 + link.sigma2_cond
    mean = (link.y_prime - link.a_ji * points[None, :]) / scale
    return np.log(scale / np.pi) - scale * np.abs(points[:, None] - mean) ** 2


@dataclass(frozen=True)
class PairwiseGraph:
    """Directed link set for one (channel, y) instance.

    For the ring topology ``order`` lists node ids around the cycle and links
    exist for every consecutive pair in both directions (2M directed
    messages on at most 2M distinct links; M = 2 collapses to the same two
    links the fully-connected graph has). The fully-connected graph holds
    all M(M-1) ordered pairs.
    """

    topology: Topology
    channel: ChannelInstance
    links: dict
    order: tuple

    @property
    def n_nodes(self):
        return self.channel.n_tx

    def link(self, j: int, i: int) -> PairwiseLink:
        return self.links[(j, i)]


def build_graph(channel: ChannelInstance, y, topology: Topology, permutation=None) -> PairwiseGraph:
    """Build every link the requested topology needs.

    ``permutation`` fixes the ring order (node ids, natural order by
    default); it must be a bijection on 0..M-1.
    """
    m = channel.n_tx
    order = ring_order(m, permutation)
    links = {}
    if topology is Topology.FULLY_CONNECTED:
        pairs = [(j, i) for j in range(m) for i in range(m) if i != j]
    else:
        pairs = []
        for r in range(m):
            a, b = order[r], order[(r + 1) % m]
            if a != b:
                pairs.append((b, a))  # forward: translate a's message toward b
                pairs.append((a, b))  # backward direction
    for (j, i) in pairs:
        if (j, i) not in links:
            links[(j, i)] = build_link(channel, y, j, i)
    return PairwiseGraph(topology=topology, channel=channel, links=links, order=order)
