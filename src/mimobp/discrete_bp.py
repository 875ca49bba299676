"""Discrete-alphabet belief propagation detectors.

Three schemes share the message plumbing here:

* factor-graph BP over the received vector (one factor per observation, or a
  single joint factor that reproduces exact marginalisation in one pass),
* BP over the fully-connected pairwise graph (synchronous schedule), and
* BP over the ring, a tail-biting forward/backward recursion whose two
  directions use separately optimised links. That recursion,
  ``ring_recursion``, also runs the shortened-channel detector (polydiag).

Messages and beliefs are probability vectors over the constellation and are
renormalised after every update. Arithmetic runs in the log domain so
near-noiseless instances do not underflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelInstance, Constellation
from .exact import check_lattice_capacity, llr_from_marginals
from .pairwise import PairwiseGraph, Topology, translate_log_table


@dataclass(frozen=True)
class BpConfig:
    """Knobs shared by the iterative detectors."""

    iterations: int = 4

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


@dataclass
class BeliefState:
    """Per-node beliefs plus the per-iteration change trace."""

    beliefs: np.ndarray  # (M, size) rows summing to one
    iterations: int
    delta_trace: np.ndarray  # max_j L1 belief change per iteration


def hard_decide(beliefs) -> np.ndarray:
    """Per-node argmax with lowest-index tie break."""
    return np.argmax(np.asarray(beliefs), axis=1)


def soft_output(beliefs, constellation: Constellation) -> np.ndarray:
    """Clamped per-bit LLRs derived from the beliefs."""
    return llr_from_marginals(beliefs, constellation)


def _lse(a, axis):
    m = np.max(a, axis=axis, keepdims=True)
    return np.squeeze(m, axis=axis) + np.log(np.sum(np.exp(a - m), axis=axis))


def _norm_log(lp):
    return lp - _lse(lp, axis=-1)[..., None]


def _delta(beliefs, prev):
    return float(np.max(np.sum(np.abs(beliefs - prev), axis=1)))


def _uniform(shape, size):
    return np.full(shape, -np.log(size))


def _translate(table, msg):
    """Marginalise a log kernel table [..., s, t] against a log message over t."""
    return _lse(table + msg[..., None, :], axis=-1)


def _to_prob(msg):
    return np.exp(_norm_log(msg))


# ---------------------------------------------------------------------------
# Factor-graph BP over the raw observations


def bp1_factor_graph(channel: ChannelInstance, constellation: Constellation, y,
                     config: BpConfig, singly_connected: bool = False) -> BeliefState:
    """Sum-product over observation factor nodes and symbol variable nodes.

    With ``singly_connected`` a single factor carries the joint likelihood of
    the whole received vector; that graph is a tree, so one iteration already
    yields the exact posterior marginals. The default uses one factor per
    receive dimension, whose messages marginalise the per-observation
    likelihood over the interfering symbols.
    """
    m, size = channel.n_tx, constellation.size
    check_lattice_capacity(m, constellation, "factor marginalisation")
    y = np.asarray(y)
    shape = (size,) * m
    grids = np.indices(shape)
    points = constellation.points

    if singly_connected:
        mu = sum(channel.H[:, j][(...,) + (None,) * m] * points[grids[j]] for j in range(m))
        tables = [-np.sum(np.abs(y[(...,) + (None,) * m] - mu) ** 2, axis=0) / channel.sigma2]
    else:
        tables = []
        for k in range(channel.n_rx):
            mu = sum(channel.H[k, j] * points[grids[j]] for j in range(m))
            tables.append(-np.abs(y[k] - mu) ** 2 / channel.sigma2)

    n_fac = len(tables)
    log_prior = np.log(constellation.prior)
    lam = np.tile(log_prior, (n_fac, m, 1))
    pi = np.zeros((n_fac, m, size))
    beliefs = np.tile(constellation.prior, (m, 1))
    deltas = []

    def axis_view(vec, j):
        return vec.reshape(tuple(size if k == j else 1 for k in range(m)))

    for _ in range(config.iterations):
        for f in range(n_fac):
            w = tables[f] + sum(axis_view(lam[f, l], l) for l in range(m))
            for j in range(m):
                axes = tuple(k for k in range(m) if k != j)
                # lam[f, j] is constant along the marginalised axes, so it can
                # be pulled out of the log-sum-exp and removed afterwards.
                pi[f, j] = _norm_log(_lse(w, axis=axes) - lam[f, j])
        log_b = _norm_log(log_prior[None, :] + pi.sum(axis=0))
        new_beliefs = np.exp(log_b)
        deltas.append(_delta(new_beliefs, beliefs))
        beliefs = new_beliefs
        lam = _norm_log(log_b[None, :, :] - pi)
    return BeliefState(beliefs=beliefs, iterations=config.iterations,
                       delta_trace=np.array(deltas))


# ---------------------------------------------------------------------------
# BP over the pairwise graphs


def _require_uniform(constellation):
    if not constellation.uniform_prior():
        raise ValueError(
            "pairwise-graph BP embeds a unit-Gaussian prior in its translation "
            "kernels and supports uniform symbol priors only"
        )


def bp2_fully_connected(graph: PairwiseGraph, constellation: Constellation,
                        config: BpConfig) -> BeliefState:
    """Synchronous BP over the fully-connected pairwise graph.

    Each directed edge first collects the extrinsic product of the other
    incoming messages, then pushes it through the pair's translation kernel.
    For M <= 2 the graph coincides with the ring and the schedule
    degenerates to the ring recursion, which this routine delegates to so
    the two detectors stay exactly equal there.
    """
    if graph.topology is not Topology.FULLY_CONNECTED:
        raise ValueError("graph topology must be fully connected")
    _require_uniform(constellation)
    m, size = graph.n_nodes, constellation.size
    if m <= 2:
        return bp3_ring(graph, constellation, config)

    points = constellation.points
    table = np.zeros((m, m, size, size))
    for (j, i), link in graph.links.items():
        table[j, i] = translate_log_table(link, points)

    pi = _uniform((m, m, size), size)  # [i, j] holds the i -> j message
    beliefs = np.tile(constellation.prior, (m, 1))
    deltas = []
    off_diag = ~np.eye(m, dtype=bool)

    for _ in range(config.iterations):
        col = np.where(off_diag[:, :, None], pi, 0.0).sum(axis=0)
        # extrinsic toward j: everything into i except what j itself sent
        lam = _norm_log(col[:, None, :] - np.swapaxes(pi, 0, 1))
        cand = _norm_log(_translate(np.swapaxes(table, 0, 1), lam))
        pi = np.where(off_diag[:, :, None], cand, pi)
        new_beliefs = _to_prob(np.where(off_diag[:, :, None], pi, 0.0).sum(axis=0))
        deltas.append(_delta(new_beliefs, beliefs))
        beliefs = new_beliefs
    return BeliefState(beliefs=beliefs, iterations=config.iterations,
                       delta_trace=np.array(deltas))


def bp3_ring(graph: PairwiseGraph, constellation: Constellation,
             config: BpConfig) -> BeliefState:
    """Tail-biting forward/backward BP over the ring.

    One iteration is one complete turn: the forward messages propagate
    sequentially all the way around the ring, then the backward messages do
    the same in the opposite direction. The two directions use their own
    links, so their translated observations differ in general. Any graph of
    at most two nodes is a ring; a single node keeps its prior.
    """
    if graph.topology is not Topology.RING and graph.n_nodes > 2:
        raise ValueError("graph topology must be a ring")
    _require_uniform(constellation)
    m, points, order = graph.n_nodes, constellation.points, graph.order
    if m == 1:
        return BeliefState(beliefs=np.tile(constellation.prior, (1, 1)),
                           iterations=config.iterations, delta_trace=np.zeros(config.iterations))
    # the hops into position r from r - 1, and from r + 1
    into_f = [translate_log_table(graph.link(order[r], order[r - 1]), points) for r in range(m)]
    into_b = [translate_log_table(graph.link(order[r], order[(r + 1) % m]), points)
              for r in range(m)]
    return ring_recursion(into_f, into_b, np.zeros(constellation.size), constellation.prior,
                          order, config)


def ring_recursion(into_f, into_b, log_prior, prior, order, config: BpConfig) -> BeliefState:
    """The tail-biting forward/backward recursion around a ring of M positions.

    ``into_f[r]`` and ``into_b[r]`` are the (Q, Q) log tables [s, t] of the
    hop into ring position r, with t the symbol of position r - 1 and r + 1
    respectively. ``log_prior`` (Q,) is added to every incoming message and
    to the beliefs; zeros leave them as they are. ``prior`` is every node's
    belief before the first turn, and ``order`` the node at each position.
    One iteration is one full turn in each direction.
    """
    m, size = len(into_f), len(prior)
    fwd = _uniform((m, size), size)  # fwd[r]: forward message into position r
    bwd = _uniform((m, size), size)
    beliefs = np.tile(prior, (m, 1))
    deltas = []

    for _ in range(config.iterations):
        for r in range(m):
            fwd[r] = _norm_log(_translate(into_f[r], log_prior + fwd[r - 1]))
        for r in reversed(range(m)):
            bwd[r] = _norm_log(_translate(into_b[r], log_prior + bwd[(r + 1) % m]))
        new_beliefs = np.empty((m, size))
        for r in range(m):
            new_beliefs[order[r]] = _to_prob(log_prior + fwd[r] + bwd[r])
        deltas.append(_delta(new_beliefs, beliefs))
        beliefs = new_beliefs
    return BeliefState(beliefs=beliefs, iterations=config.iterations,
                       delta_trace=np.array(deltas))
