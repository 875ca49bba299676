"""Gaussian message passing over the pairwise graphs.

Messages here are (mean, variance) pairs. On the ring every hop acts on the
mean as a first-order affine map mu -> u + v * mu, so a full turn composes
into a single affine operator whose slope magnitude stays strictly below one
for positive noise power; the mean recursion is therefore a contraction with
a closed-form fixed point, and the combined beliefs' means converge to the
linear MMSE estimates. The fully-connected variant mixes all incoming
messages by precision weighting; its mean is observed (and here tested, but
not proven) to converge to the same point.

One sweep advances every directed message by one hop, in both schemes, so
sweep counts are comparable between them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ContractionError
from .pairwise import PairwiseGraph, Topology

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class AffineOp:
    """First-order map mu -> offset + slope * mu."""

    offset: complex
    slope: complex

    def __call__(self, mu):
        return self.offset + self.slope * mu

    def after(self, inner: "AffineOp") -> "AffineOp":
        """Composition self(inner(.)), inner applied first."""
        return AffineOp(self.offset + self.slope * inner.offset,
                        self.slope * inner.slope)

    def fixed_point(self):
        if abs(self.slope) >= 1.0 - 1e-12:
            raise ContractionError(f"slope magnitude {abs(self.slope):.6f} not inside the unit disc")
        return self.offset / (1.0 - self.slope)


IDENTITY_OP = AffineOp(0.0 + 0.0j, 1.0 + 0.0j)


@dataclass(frozen=True)
class RingAffineOps:
    """Per-hop affine operators of the ring recursion, in ring-position space.

    forward_mean[r] consumes the forward message into position r and emits
    the one into position r+1; backward_mean[r] emits the one into r-1. The
    *_var lists act on variances the same way (real coefficients, slope
    equal to the squared magnitude of the mean slope).
    """

    forward_mean: tuple
    backward_mean: tuple
    forward_var: tuple
    backward_var: tuple
    order: tuple

    @property
    def n_nodes(self):
        return len(self.order)

    def _turn(self, ops, position: int, step: int) -> AffineOp:
        """Composition of ``ops`` round the ring from ``position``, ``step`` = +-1."""
        m = self.n_nodes
        acc = IDENTITY_OP
        for k in range(m):
            acc = ops[(position + step * k) % m].after(acc)
        return acc

    def compose_forward(self, position: int) -> AffineOp:
        """Full-turn operator for the forward mean into ``position``."""
        return self._turn(self.forward_mean, position, 1)

    def compose_backward(self, position: int) -> AffineOp:
        return self._turn(self.backward_mean, position, -1)

    def contraction_bound(self) -> float:
        """Product of s2/(1+s2) over the forward links; dominates |slope|."""
        out = 1.0
        for op in self.forward_var:
            out *= 1.0 - op.offset.real  # offset = 1/(1+s2)
        return out


def _ring_like(graph: PairwiseGraph):
    if graph.n_nodes < 2:
        raise ValueError("ring recursion needs at least two nodes")
    if graph.topology is Topology.RING or graph.n_nodes == 2:
        return
    raise ValueError("ring recursion needs a ring graph (or the degenerate M=2 graph)")


def affine_ops(graph: PairwiseGraph) -> RingAffineOps:
    """Extract the per-hop mean and variance operators from a ring graph."""
    _ring_like(graph)
    m, order = graph.n_nodes, graph.order
    fwd_mean, bwd_mean, fwd_var, bwd_var = [], [], [], []
    for r in range(m):
        lf = graph.link(order[(r + 1) % m], order[r])
        lb = graph.link(order[(r - 1) % m], order[r])
        fwd_mean.append(AffineOp(lf.u, lf.v))
        bwd_mean.append(AffineOp(lb.u, lb.v))
        fwd_var.append(AffineOp(lf.u_var, lf.v_var))
        bwd_var.append(AffineOp(lb.u_var, lb.v_var))
    return RingAffineOps(forward_mean=tuple(fwd_mean), backward_mean=tuple(bwd_mean),
                         forward_var=tuple(fwd_var), backward_var=tuple(bwd_var),
                         order=order)


@dataclass(frozen=True)
class RingFixedPoint:
    """Closed-form converged messages into each ring position."""

    forward: np.ndarray
    backward: np.ndarray
    forward_var: np.ndarray
    backward_var: np.ndarray
    order: tuple


def fixed_point(graph: PairwiseGraph) -> RingFixedPoint:
    """Closed-form fixed points offset / (1 - slope) of the ring recursion."""
    ops = affine_ops(graph)
    m = ops.n_nodes
    fwd = np.array([ops.compose_forward(r).fixed_point() for r in range(m)])
    bwd = np.array([ops.compose_backward(r).fixed_point() for r in range(m)])
    fwd_var = np.array([ops._turn(ops.forward_var, r, 1).fixed_point().real for r in range(m)])
    bwd_var = np.array([ops._turn(ops.backward_var, r, -1).fixed_point().real for r in range(m)])
    return RingFixedPoint(forward=fwd, backward=bwd, forward_var=fwd_var,
                          backward_var=bwd_var, order=ops.order)


@dataclass(frozen=True)
class GbpConfig:
    """Iteration control for the Gaussian schemes."""

    max_sweeps: int = 1000
    tol: float = 1e-12
    init_mean: complex = 0.0 + 0.0j
    init_var: float = 1.0

    def __post_init__(self):
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")
        if self.init_var <= 0:
            raise ValueError("init_var must be positive")


@dataclass
class GbpTrace:
    """Belief means/variances per sweep plus the final directed messages.

    ``means`` and ``variances`` are indexed [sweep, node] in node space.
    Message arrays live in ring-position space for the ring scheme and in
    (source, target) edge space for the fully-connected one.
    """

    means: np.ndarray
    variances: np.ndarray
    n_sweeps: int
    converged: bool
    message_means: np.ndarray
    message_vars: np.ndarray
    backward_means: np.ndarray | None = None
    backward_vars: np.ndarray | None = None
    order: tuple | None = None


def _settle(sweep, config: GbpConfig):
    """Call ``sweep`` until the belief means move less than ``tol``, or ``max_sweeps`` times.

    ``sweep()`` advances every directed message by one hop and returns the
    belief means and variances in node space. Returns (means, variances,
    n_sweeps, converged), the first two indexed [sweep, node].
    """
    means, variances = [], []
    for _ in range(config.max_sweeps):
        mean, var = sweep()
        means.append(mean)
        variances.append(var)
        if len(means) > 1 and np.max(np.abs(mean - means[-2])) < config.tol:
            return np.array(means), np.array(variances), len(means), True
    return np.array(means), np.array(variances), len(means), False


def gbp3g(graph: PairwiseGraph, config: GbpConfig = GbpConfig()) -> GbpTrace:
    """Gaussian forward/backward recursion over the ring.

    The forward and backward chains never interact until the final belief,
    which combines the two incoming messages at each node by precision
    weighting. Stops once the belief means move less than ``tol``. A single
    node has no ring: the belief stays at the unit prior.

    The sweeps read the ring's links directly: the forward message into
    ring position r crosses the link from order[r - 1] to order[r], the
    backward one the link from order[r + 1]. It builds none of the affine
    operators that ``fixed_point`` composes from the same links, so the
    sweep and the closed form are two computations that check each other.
    """
    if graph.n_nodes == 1:
        return GbpTrace(means=np.zeros((1, 1), dtype=complex), variances=np.ones((1, 1)),
                        n_sweeps=1, converged=True,
                        message_means=np.zeros(1, dtype=complex), message_vars=np.ones(1),
                        backward_means=np.zeros(1, dtype=complex), backward_vars=np.ones(1),
                        order=graph.order)
    _ring_like(graph)
    m, order = graph.n_nodes, graph.order
    inv = np.argsort(order)

    def into(step):
        """u, v, u_var and v_var of the links into each position r, from r - step."""
        links = [graph.link(order[r], order[(r - step) % m]) for r in range(m)]
        return [np.array([getattr(lk, name) for lk in links]) for name in ("u", "v", "u_var", "v_var")]

    u_f, v_f, uv_f, vv_f = into(1)
    u_b, v_b, uv_b, vv_b = into(-1)

    mu_f = np.full(m, config.init_mean, dtype=complex)
    var_f = np.full(m, config.init_var)
    mu_b = mu_f.copy()
    var_b = var_f.copy()

    def sweep():
        mu_f[:] = u_f + v_f * np.roll(mu_f, 1)
        var_f[:] = uv_f + vv_f * np.roll(var_f, 1)
        mu_b[:] = u_b + v_b * np.roll(mu_b, -1)
        var_b[:] = uv_b + vv_b * np.roll(var_b, -1)
        prec = 1.0 / var_f + 1.0 / var_b
        return ((mu_f / var_f + mu_b / var_b) / prec)[inv], (1.0 / prec)[inv]

    means, variances, n_sweeps, converged = _settle(sweep, config)
    return GbpTrace(means=means, variances=variances, n_sweeps=n_sweeps, converged=converged,
                    message_means=mu_f, message_vars=var_f,
                    backward_means=mu_b, backward_vars=var_b, order=order)


def gbp2g(graph: PairwiseGraph, config: GbpConfig = GbpConfig()) -> GbpTrace:
    """Gaussian BP over the fully-connected graph, synchronous schedule.

    Extrinsic messages combine every other incoming message by precision
    weighting before translation. For M <= 2 the graph equals the ring and
    the routine returns the ring recursion's trace, messages in ring-position
    space. Convergence of the mean to the linear MMSE point is empirical
    here, so a run that fails to settle is flagged (logged and reported),
    never raised.
    """
    if graph.topology is not Topology.FULLY_CONNECTED:
        raise ValueError("graph topology must be fully connected")
    m = graph.n_nodes
    if m <= 2:
        return gbp3g(graph, config)

    u = np.zeros((m, m), dtype=complex)
    v = np.zeros((m, m), dtype=complex)
    uv = np.zeros((m, m))
    vv = np.zeros((m, m))
    for (j, i), link in graph.links.items():
        u[i, j], v[i, j] = link.u, link.v
        uv[i, j], vv[i, j] = link.u_var, link.v_var

    mu = np.full((m, m), config.init_mean, dtype=complex)
    var = np.full((m, m), config.init_var)
    off = ~np.eye(m, dtype=bool)

    def sweep():
        prec = np.where(off, 1.0 / var, 0.0)
        wmean = np.where(off, mu / var, 0.0)
        tot_p = prec.sum(axis=0)
        tot_w = wmean.sum(axis=0)
        lam_prec = tot_p[:, None] - prec.T  # [i, j]: everything into i except from j
        lam_mean = (tot_w[:, None] - wmean.T) / lam_prec
        var[:] = np.where(off, uv + vv / lam_prec, var)
        mu[:] = np.where(off, u + v * lam_mean, mu)
        prec = np.where(off, 1.0 / var, 0.0)
        bel_prec = prec.sum(axis=0)
        return np.where(off, mu / var, 0.0).sum(axis=0) / bel_prec, 1.0 / bel_prec

    means, variances, n_sweeps, converged = _settle(sweep, config)
    if not converged:
        logger.warning("fully-connected Gaussian BP did not settle within %d sweeps", config.max_sweeps)
    return GbpTrace(means=means, variances=variances, n_sweeps=n_sweeps, converged=converged,
                    message_means=mu, message_vars=var)


@dataclass(frozen=True)
class ConvergenceTrace:
    """Residual-error curves of a Gaussian BP run.

    e[n] is the squared distance of the belief means to the transmitted
    symbols, normalised by the total minimum MSE; d[n] measures the distance
    to the linear MMSE estimates instead and must decay to zero.
    """

    e: np.ndarray
    d: np.ndarray


def convergence_metric(trace: GbpTrace, x_true, lmmse_estimates, mmse) -> ConvergenceTrace:
    x_true = np.asarray(x_true)
    xhat = np.asarray(lmmse_estimates)
    denom = float(np.sum(mmse))
    e = np.sum(np.abs(trace.means - x_true[None, :]) ** 2, axis=1) / denom
    d = np.sum(np.abs(trace.means - xhat[None, :]) ** 2, axis=1) / denom
    return ConvergenceTrace(e=e, d=d)
