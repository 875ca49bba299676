"""Vectorised detector kernels for Monte Carlo sweeps.

Every kernel here stacks trials along a leading batch axis and reproduces
the corresponding single-instance reference implementation (the sibling
modules) to numerical precision; the test suite cross-checks each pair.
Shapes: H is (B, N, M), y is (B, N), and beliefs are (B, M, Q) with a
trailing constellation axis of length Q. Inside, every iterative kernel
puts the trials last, so that its reductions add long contiguous rows of
B: the lattice kernels (ML, MAP, BP1) put the L = Q^M lattice points first,
e.g. (L, N, B), GBP2G keeps its messages as (M, M, B), BP2 as (M, M, Q, B)
and the ring kernels (BP3, FB) as (M, Q, B).

All of LMMSE, FB and the pairwise links come from one Gaussian posterior per
trial, ``factor_posterior``. A caller that runs several of them on the same
batch factors it once and hands the result to each through the ``posterior``
keyword; without it each kernel factors for itself, with the same bits.
The posterior is a Householder QR with the trials last, in elementwise
numpy calls, so this module makes no LAPACK call, per trial or otherwise.
``LinkTables`` holds the three filter outputs of every ordered pair, y',
a_jj and a_ji. The Gaussian kernels compute the coefficients of their
recursions (u, v, u_var, v_var) from the entries they read, and the
tables' properties u and v compute the mean recursion's for the whole table.
Likewise ML, MAP and BP1 read one table of lattice residuals,
``lattice_residuals``, through their ``residuals`` keyword. That table is
built from two half-lattice tables with elementwise ops only, never a BLAS
product over the batch, so its bits, and theirs, do not depend on the batch.
No kernel writes into its inputs, which may be read-only.

Two working sets grow with the trials times the lattice or the alphabet
squared: the lattice kernels' residual tables, L*N doubles per trial and
table, and BP2's (M, M, Q, Q) log tables. Both are walked in
``trial_blocks`` of a fixed byte size, so their memory stays flat however
large the batch: ``lattice_blocks`` for ML, MAP and BP1 (a caller that
shares one table among them builds it per block; see ``sim._run_arms``),
and BP2 inside ``bp2_batch``. Every kernel gives a trial the same bits in
any block, so the blocks move no bit. The other kernels (LMMSE, FB, BP3,
GBP2G, GBP3G) hold O(M^2) or O(M Q^2) per trial and run on the whole
batch: cut from 512 trials to 128, GBP2G, BP3 and FB ran 1.2x to 2.7x slower
per trial, since their numpy calls are many and small. The posterior and
the link tables that feed them are whole-batch too. A single trial larger
than the budget still runs as one block.

A trial's bits must not depend on how many trials share its batch, and
complex products need care for that. numpy's complex multiply fuses one of
its products into a multiply-add, so ``a * b`` and ``b * a`` can differ in
the last bit. And once a temporary reaches 256 KiB, numpy evaluates
``named * temporary`` in place in the temporary, with the operands swapped.
So in the posterior and the Gaussian kernels a complex product whose right
operand is a temporary is written ``np.multiply(a, b)``, whose order numpy
keeps, and their sums over rows go through ``_sum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from .channel import Constellation
from .discrete_bp import _require_uniform
from .exact import check_lattice_capacity, lattice_indices
from .pairwise import ring_order


# Shifted exponents below about -708 leave the normal double range, where
# exp is tens of times slower. Next to the max term exp(0) = 1 such terms
# are under 1e-304, so clamping them to this floor leaves every sum as is.
_EXP_FLOOR = -700.0


# Trial blocks of about _BLOCK_BYTES each, but never fewer than _MIN_BLOCK
# trials, below which numpy's fixed cost per call dominates. Both come from
# a sweep of run_simulate (CHANGES.md): 2 MiB blocks made the lattice arms
# 11% slower than one block at 4x4 QPSK, 4 MiB none; 8 and 16 trials were
# fastest for 4x4 QAM16, and 4 trials 1.4x slower. Every kernel is
# partition-exact, so neither constant moves a bit.
_BLOCK_BYTES = 4 << 20
_MIN_BLOCK = 16


def trial_blocks(B, bytes_per_trial):
    """Contiguous slices that cover range(B), of nearly equal width, at
    most max(_MIN_BLOCK, _BLOCK_BYTES // bytes_per_trial) and at most B."""
    width = max(1, min(B, max(_MIN_BLOCK, _BLOCK_BYTES // bytes_per_trial)))
    count = max(1, -(-B // width))  # an empty batch is one empty block
    return [slice(B * i // count, B * (i + 1) // count) for i in range(count)]


def _sum(a, axis, keepdims=False):
    """np.sum over ``axis``, in the same order whatever the trailing batch size.

    With more than one trial on the trailing axis, numpy adds the slices
    along ``axis`` one after another. With a trailing axis of 1 it drops
    that axis and may sum ``axis`` pairwise instead, which from 8 terms on
    rounds differently; a running sum, whose last slice is taken, adds the
    slices in order and keeps a lone trial's bits equal to its row of a
    larger batch.
    """
    axis %= a.ndim
    if a.shape[-1] != 1 or axis == a.ndim - 1 or a.shape[axis] == 0:
        return np.sum(a, axis=axis, keepdims=keepdims)
    last = np.add.accumulate(a, axis=axis)[(slice(None),) * axis + (slice(-1, None),)]
    return last if keepdims else np.squeeze(last, axis=axis)


def _lse(a, axis, work=None):
    """Log-sum-exp over ``axis``; ``work`` (``a`` itself, or a buffer of its
    shape) takes the scratch in place of a new temporary."""
    m = np.max(a, axis=axis, keepdims=True)
    t = np.subtract(a, m, out=work)
    np.maximum(t, _EXP_FLOOR, out=t)
    np.exp(t, out=t)
    return np.squeeze(m, axis=axis) + np.log(_sum(t, axis))


def _norm_log(lp, axis):
    return lp - np.expand_dims(_lse(lp, axis=axis), axis)


def factor_posterior(H, y, sigma2):
    """W and xhat, (B, M, M) and (B, M), of the posterior of x ~ CN(0, I):
    covariance sigma2 W W^H = sigma2 A^{-1} and mean xhat = A^{-1} H^H y,
    A = sigma2 I + H^H H = R^H R from a QR of [[H, y], [sqrt(sigma2) I, 0]].
    R has the square root of A's condition number, so A is never formed.

    The QR is Householder's with the trials last, S as (N+M, M+1, B), in
    elementwise numpy calls over rows of B: no LAPACK call per trial, and
    no result that depends on the batch. Reflector k reads rows k..N+k
    only; further down, column k is still zero, since no earlier reflector
    reached those rows. Row N+k keeps its sqrt(sigma2) until step k, so
    |R_kk| >= sqrt(sigma2) > 0 and no pivot vanishes. R's diagonal is
    complex, so W = R^{-1} differs from a real-diagonal factor's by a
    unitary diagonal on the right, which leaves W W^H and xhat as they are.
    Back-substitution then solves R [W | xhat] = [I | z], z = Q^H [y; 0].
    """
    B, n, m = H.shape
    S = np.zeros((n + m, m + 1, B), dtype=complex)
    S[:n, :m], S[:n, m] = H.transpose(1, 2, 0), y.T
    S[n + np.arange(m), np.arange(m)] = np.sqrt(sigma2)
    diag = np.empty((m, B), dtype=complex)
    for k in range(m):
        x = S[k:n + k + 1, k]  # becomes the reflector v, x + phase |x| e_0
        norm = np.sqrt(_sum(np.square(x.real) + np.square(x.imag), 0))
        lead = np.abs(x[0])
        nonzero = lead > 0  # a zero leading entry takes phase 1
        phase = np.where(nonzero, x[0], 1.0) / np.where(nonzero, lead, 1.0)
        shift = phase * norm
        diag[k] = -shift
        x[0] += shift
        # (I - v v^H / beta) on the columns right of k, beta = v^H v / 2
        rest = S[k:n + k + 1, k + 1:]
        w = _sum(np.multiply(x.conj()[:, None], rest), 0)
        w /= norm * (norm + lead)
        rest -= np.multiply(x[:, None], w)
    inv = 1.0 / diag
    sol = np.zeros((m, m + 1, B), dtype=complex)  # [I | z], row by row [W | xhat]
    sol[np.arange(m), np.arange(m)] = 1.0
    sol[:, m] = S[:m, m]
    for i in reversed(range(m)):
        if i + 1 < m:
            sol[i] -= _sum(np.multiply(S[i, i + 1:m, None], sol[i + 1:]), 0)
        sol[i] *= inv[i]
    return sol[:, :m].transpose(2, 0, 1), sol[:, m].T


def lmmse_batch(H, y, sigma2, posterior=None):
    """Batched linear MMSE: returns (estimates (B, M), per-component MSE).

    ``posterior`` is ``factor_posterior(H, y, sigma2)`` when the caller has it."""
    W, xhat = posterior or factor_posterior(H, y, sigma2)
    return xhat, sigma2 * np.einsum("bjk,bjk->bj", W, W.conj()).real


def _lattice_marginals(w, size, k):
    """Log-marginals of every lattice digit; (size**k, ...) -> (k, size, ...).

    The lattice axis leads and the batch axes trail, so every reduction
    runs over long contiguous rows. The lattice is split into its leading
    k//2 and trailing k - k//2 digits; each half is summed out with a
    log-sum-exp shifted by the max per retained index, and the recursion
    continues on the two smaller tables. The full lattice is thus
    exponentiated twice rather than once per digit.
    """
    if k == 1:
        return w[None]
    lead = k // 2
    blocks = w.reshape((size ** lead, size ** (k - lead)) + w.shape[1:])
    return np.concatenate([_lattice_marginals(_lse(blocks, axis=1), size, lead),
                           _lattice_marginals(_lse(blocks, axis=0), size, k - lead)])


def _kron_tables(tables, out):
    """Extend the lattice table ``out`` (rows, ...) by one digit per table in
    ``tables`` (digits, Q, ...): [row, s_0, s_1, ...] = out[row] + tables[0][s_0]
    + tables[1][s_1] + ..., flattened in lexicographic order, last digit fastest."""
    for table in tables:
        # an explicit length, as in lattice_residuals and bp1_batch: numpy
        # cannot resolve a -1 at zero trials
        out = (out[:, None] + table).reshape((len(out) * len(table),) + table.shape[1:])
    return out


def lattice_residuals(H, y, constellation):
    """|y_n - (H s)_n|^2 for every lattice point s; C-contiguous (L, N, B),
    lattice first, in ``lattice_indices`` order.

    The digits are split at k = M // 2: a lead table (Q^k, N, B) holds
    y - sum_{m<k} h_m s_m and a trail table (Q^(M-k), N, B) holds
    sum_{m>=k} h_m s_m, both built digit by digit with elementwise ops. Each
    lead row minus the trail table then fills one block of the result, so
    no entry depends on how many trials share the batch.
    """
    B, n_rx, m = H.shape
    check_lattice_capacity(m, constellation)
    k = m // 2
    terms = constellation.points[:, None, None] * H.transpose(2, 1, 0)[:, None]  # [m, s, n, b]
    lead = _kron_tables(-terms[:k], y.T[None])
    trail = _kron_tables(terms[k + 1:], terms[k])
    sq = np.empty((len(lead), len(trail), n_rx, B))
    diff = np.empty(trail.shape, dtype=complex)
    for a, row in enumerate(lead):
        np.abs(np.subtract(row, trail, out=diff), out=sq[a])
    sq = sq.reshape(len(lead) * len(trail), n_rx, B)
    return np.square(sq, out=sq)


def lattice_blocks(H, constellation):
    """``trial_blocks`` of the lattice kernels. A trial's residual table and
    BP1's two work tables hold L*N doubles each; with the table's build and
    BP1's small tables, traced peaks were 3.0 to 3.7 of them per trial on
    lattices of 256 points or more."""
    _, n_rx, m = H.shape
    return trial_blocks(len(H), 4 * 8 * n_rx * constellation.size ** m)


def _by_lattice_blocks(kernel, H, y, sigma2, constellation, *args):
    """``kernel`` on each of ``lattice_blocks`` with that block's residual
    table, its outputs joined over the trials."""
    return np.concatenate([
        kernel(H[part], y[part], sigma2, constellation, *args,
               residuals=lattice_residuals(H[part], y[part], constellation))
        for part in lattice_blocks(H, constellation)])


def ml_hard_batch(H, y, sigma2, constellation, residuals=None):
    """Joint ML decisions; argmin keeps the lexicographically smallest tie.

    ``residuals`` is ``lattice_residuals(H, y, constellation)`` when the
    caller has it; no lattice kernel writes into it. Without it, each of
    ``lattice_blocks`` builds its own table, so the batch never has one."""
    if residuals is None:
        return _by_lattice_blocks(ml_hard_batch, H, y, sigma2, constellation)
    return lattice_indices(H.shape[2], constellation.size)[np.argmin(_sum(residuals, 1), axis=0)]


def map_marginals_batch(H, y, sigma2, constellation, residuals=None):
    """Exact per-symbol posteriors for a batch; (B, M, Q)."""
    if residuals is None:
        return _by_lattice_blocks(map_marginals_batch, H, y, sigma2, constellation)
    sq = residuals
    m, size = H.shape[2], constellation.size
    lat = lattice_indices(m, size)
    logp = -_sum(sq, 1) / sigma2 + np.sum(np.log(constellation.prior)[lat], axis=1)[:, None]
    p = np.exp(_norm_log(_lattice_marginals(logp, size, m), axis=1))  # [j, s, b]
    p /= _sum(p, 1, keepdims=True)
    return np.ascontiguousarray(p.transpose(2, 0, 1))


# ---------------------------------------------------------------------------
# pairwise link coefficients


def _recursion_coefficients(y_prime, a_diag, a_cross):
    """(u, v, u_var, v_var) of the links given elementwise: the offset and
    slope of the Gaussian mean recursion, u = y' / (1 + a_jj) and
    v = -a_ji / (1 + a_jj), and of the variance recursion, 1 / (1 + a_jj)
    and |v|^2."""
    scale = 1.0 + a_diag
    v = -a_cross / scale
    return y_prime / scale, v, 1.0 / scale, np.abs(v) ** 2


@dataclass
class LinkTables:
    """Ordered-pair filter outputs for a batch; index [b, target j, known i].

    Only the three filter outputs are stored. The mean recursion's offset
    u and slope v are computed from them on each read, and the Gaussian
    kernels compute all four coefficients from the entries they use."""

    y_prime: np.ndarray  # (B, M, M) complex
    a_diag: np.ndarray  # (B, M, M) real, equals sigma2_cond
    a_cross: np.ndarray  # (B, M, M) complex

    u = property(lambda self: self._coefficients()[0])
    v = property(lambda self: self._coefficients()[1])

    def _coefficients(self):
        return _recursion_coefficients(self.y_prime, self.a_diag, self.a_cross)

    def trials(self, part):
        """The tables of the trials ``part``, a slice; views, not copies."""
        return LinkTables(**{f.name: getattr(self, f.name)[part] for f in fields(self)})


def _posterior_links(posterior, sigma2, j, i):
    """(a_jj, a_ji, y'_j) of the ordered pairs (j | i); ``j``, ``i`` broadcast, j == i reads 0.

    With U = [h_j h_i] and K = H H^H + sigma2 I = K_ji + U U^H, Woodbury makes
    the posterior covariance block P_(j,i) = (I + U^H K_ji^{-1} U)^{-1}. So
    a_jj, a_ji and y'_j = h_j^H K_ji^{-1} y are the first rows of
    P_(j,i)^{-1} - I and P_(j,i)^{-1} xhat_(j,i), and no K_ji is formed.
    """
    W, xhat = posterior
    P = sigma2 * np.einsum("bjk,bik->bji", W, W.conj())
    link = j != i
    p_jj, p_ii = P[:, j, j].real, P[:, i, i].real
    p_ji = P[:, j, i] * link
    det = p_jj * p_ii - np.abs(p_ji) ** 2  # P_jj^2 > 0 where j == i
    return (link * (p_ii / det - 1.0), -p_ji / det,
            link * (p_ii * xhat[:, j] - p_ji * xhat[:, i]) / det)


def link_tables(H, y, sigma2, posterior=None) -> LinkTables:
    """Links of every ordered pair, from ``posterior`` (``factor_posterior``) if given."""
    m = H.shape[2]
    posterior = posterior or factor_posterior(H, y, sigma2)
    a_diag, a_cross, y_prime = _posterior_links(posterior, sigma2, *np.indices((m, m)))
    return LinkTables(y_prime=y_prime, a_diag=a_diag, a_cross=a_cross)


def _trials_last(a):
    """(B, rest...) -> contiguous (rest..., B)."""
    return np.ascontiguousarray(np.moveaxis(a, 0, -1))


def _translate_log_tables(links: LinkTables, points, j=slice(None), i=slice(None)):
    """[pairs..., s, t, b] = log p(x_j = s | x_i = t) of the pairs [b, j, i]; default all."""
    a_diag, a_cross, y_prime = (_trials_last(a[:, j, i])[..., None, :]
                                for a in (links.a_diag, links.a_cross, links.y_prime))
    scale = 1.0 + a_diag  # [pairs..., 1, b]
    mean = (y_prime - a_cross * points[:, None]) / scale  # [pairs..., t, b]
    # log(scale / pi) - scale * |s - mean|^2, built in one buffer, one
    # symbol s at a time so that no complex temporary spans all of it
    out = np.empty(mean.shape[:-2] + (len(points),) + mean.shape[-2:])
    for s, point in enumerate(points):
        np.abs(point - mean, out=out[..., s, :, :])
    np.square(out, out=out)
    np.multiply(scale[..., None, :, :], out, out=out)
    return np.subtract(np.log(scale / np.pi)[..., None, :, :], out, out=out)


def bp2_batch(links: LinkTables, constellation: Constellation, iterations: int) -> np.ndarray:
    """Beliefs of the fully-connected discrete scheme; (B, M, Q).

    Messages are (M, M, Q, B), [j, i, s, b] for the i -> j message about
    x_j = s. The self-message [j, j] is held at zero, so the sums over
    sources need no mask. The trials run in ``trial_blocks``: the (M, M, Q,
    Q) log tables and one work table of their shape, with temporaries 2.7
    to 3.3 tables per trial in traced runs, are the largest working set of
    any pairwise kernel. The block budget counts 5. ValueError for a
    non-uniform prior, as ``bp2_fully_connected`` raises.
    """
    _require_uniform(constellation)
    B, m, _ = links.a_diag.shape
    if m == 2:
        return bp3_batch(links, constellation, iterations, order=(0, 1))
    return np.concatenate([_bp2_block(links.trials(part), constellation, iterations)
                           for part in trial_blocks(B, 5 * 8 * (m * constellation.size) ** 2)])


def _bp2_block(links, constellation, iterations):
    """``bp2_batch`` on the trials of ``links``, in one block."""
    B, m, _ = links.a_diag.shape
    size = constellation.size
    log_t = _translate_log_tables(links, constellation.points)  # [j, i, s, t, b]
    self_msg = (np.arange(m), np.arange(m))
    work = np.empty_like(log_t)
    pi = np.full((m, m, size, B), -np.log(size))
    pi[self_msg] = 0.0
    for _ in range(iterations):
        # [j, i]: everything into i except from j
        lam = _norm_log(pi.sum(axis=1)[None] - np.swapaxes(pi, 0, 1), axis=2)
        pi = _norm_log(_lse(np.add(log_t, lam[:, :, None], out=work), axis=3, work=work), axis=2)
        pi[self_msg] = 0.0
    beliefs = np.exp(_norm_log(pi.sum(axis=1), axis=1))  # [j, s, b]
    return np.ascontiguousarray(beliefs.transpose(2, 0, 1))


def _ring_sweep(into_f, into_b, log_prior, iterations, order):
    """Beliefs of the tail-biting forward/backward ring recursion; (B, M, Q).

    ``into_f[r]`` and ``into_b[r]`` are the (Q, Q, B) log tables [s, t, b]
    of the hop into ring position r, with t the symbol of position r - 1 and
    r + 1 respectively. ``log_prior`` (Q,) is added to every incoming message
    and to the beliefs; zeros leave them as they are. Messages are (M, Q, B).
    """
    m = len(into_f)
    size, _, B = into_f[0].shape
    log_prior = log_prior[:, None]
    fwd = np.full((m, size, B), -np.log(size))
    bwd = np.full((m, size, B), -np.log(size))
    for _ in range(iterations):
        for r in range(m):
            fwd[r] = _norm_log(_lse(into_f[r] + (log_prior + fwd[r - 1]), axis=1), axis=0)
        for r in reversed(range(m)):
            bwd[r] = _norm_log(_lse(into_b[r] + (log_prior + bwd[(r + 1) % m]), axis=1), axis=0)
    beliefs = np.empty((B, m, size))
    beliefs[:, list(order)] = np.exp(_norm_log(log_prior + fwd + bwd, axis=1)).transpose(2, 0, 1)
    return beliefs


def bp3_batch(links: LinkTables, constellation: Constellation, iterations: int,
              order=None) -> np.ndarray:
    """Beliefs of the ring scheme, full sequential turns; (B, M, Q).
    ValueError for a non-uniform prior, as ``bp3_ring`` raises."""
    _require_uniform(constellation)
    B, m, _ = links.a_diag.shape
    order = ring_order(m, order)
    if m == 1:
        # no ring: the diagonal of LinkTables is no link, so the belief is the prior
        return np.tile(constellation.prior, (B, 1, 1))
    tgt = np.array(order)
    # [d, r]: the hop into ring position r from r - 1 (d = 0) and r + 1 (d = 1)
    into_f, into_b = _translate_log_tables(links, constellation.points, tgt,
                                           np.stack([np.roll(tgt, 1), np.roll(tgt, -1)]))
    return _ring_sweep(into_f, into_b, np.zeros(constellation.size), iterations, order)


def fb_batch(H, y, sigma2, constellation: Constellation, iterations: int,
             order=None, posterior=None) -> np.ndarray:
    """Beliefs of the shortened-channel forward/backward detector; (B, M, Q).

    The shortening taps of ring position r are the pairwise links of the
    ring pair (order[r] | order[r-1]), read from ``posterior``
    (``factor_posterior``) if given.
    """
    B, n_rx, m = H.shape
    if m < 2:
        raise ValueError("channel shortening needs at least two streams")
    order = ring_order(m, order)
    points = constellation.points
    tgt = np.array(order)
    posterior = posterior or factor_posterior(H, y, sigma2)
    a_diag, a_sub, y_eff = (_trials_last(a)[:, None, None]
                            for a in _posterior_links(posterior, sigma2, tgt, np.roll(tgt, 1)))
    # [r, t, s, b] = log density of y_eff[r] given previous symbol t and target s
    mu = a_diag * points[:, None] + a_sub * points[:, None, None]
    # -|y_eff - mu|^2 / a_diag, built in one buffer
    tables = np.abs(np.subtract(y_eff, mu, out=mu))
    np.square(tables, out=tables)
    np.divide(np.negative(tables, out=tables), a_diag, out=tables)
    return _ring_sweep(np.swapaxes(tables, 1, 2), [tables[(r + 1) % m] for r in range(m)],
                       np.log(constellation.prior), iterations, order)


# ---------------------------------------------------------------------------
# Gaussian schemes (fixed sweep counts keep outputs independent of batching).
# Every hop of the ring recursion is the affine map mu -> u + v * mu of
# gaussian_bp.RingAffineOps, so the ring kernel composes T hops by recursive
# doubling in O(log T) steps instead of sweeping T times. The fully-connected
# recursion mixes messages nonlinearly and still sweeps.


def _times_rolled(a, b, shift, out):
    """a * np.roll(b, shift, axis=1) into ``out``, which may be ``a`` but not
    ``b``. No rolled copy is made: the two slices of the roll are multiplied
    in place, with ``a`` kept as the left operand (see the module docstring)."""
    s = shift % b.shape[1]
    if not s:
        return np.multiply(a, b, out=out)
    np.multiply(a[:, s:], b[:, :-s], out=out[:, s:])
    np.multiply(a[:, :s], b[:, -s:], out=out[:, :s])
    return out


def _compose_hops(off, slope, sweeps):
    """The ``sweeps``-hop maps (offset, slope) of a stack of ring chains, by
    recursive doubling from their one-hop maps ``off`` and ``slope``, which
    it overwrites. Every array is (chains, M, B) over ring positions.

    The h-hop map into position r is mu -> offset[r] + slope[r] * mu, with
    mu the message into position r - h. Applied after a k-hop map, it gives
    the (h + k)-hop map with offset offset[r] + slope[r] * offset'[r - h]
    and slope slope[r] * slope'[r - h].
    """
    # acc_* hold the map of the first `hops` hops, off/slope the `step`-hop map
    acc_off = np.zeros_like(off)
    acc_slope = np.ones_like(slope)
    term, spare = np.empty_like(off), np.empty_like(slope)
    hops, step = 0, 1
    while sweeps:
        if sweeps & 1:
            np.add(acc_off, _times_rolled(acc_slope, off, hops, term), out=acc_off)
            _times_rolled(acc_slope, slope, hops, acc_slope)
            hops += step
        sweeps >>= 1
        if sweeps:
            np.add(off, _times_rolled(slope, off, step, term), out=off)
            slope, spare = _times_rolled(slope, slope, step, spare), slope
            step *= 2
    return acc_off, acc_slope


def gbp3g_batch(links: LinkTables, sweeps: int, order=None) -> np.ndarray:
    """Belief means of the ring Gaussian recursion after ``sweeps`` hops.

    The two mean chains (forward, backward) form a complex (2, M, B) stack
    over ring positions, and the two variance chains a real one; the
    backward chains run over the reversed ring, so every chain reads
    position r - 1. Each stack is composed by ``_compose_hops``. The
    messages start at mean 0 and variance 1, so after ``sweeps`` hops the
    means are the offsets and the variances are offset + slope.
    """
    B, m, _ = links.a_diag.shape
    tgt = np.array(ring_order(m, order))
    rows = np.stack([tgt, tgt[::-1]])
    cols = np.roll(rows, 1, axis=1)  # the node each hop into rows[., r] comes from
    coefficients = _recursion_coefficients(
        *(a[:, rows, cols] for a in (links.y_prime, links.a_diag, links.a_cross)))
    u, v, u_var, v_var = (np.ascontiguousarray(a.transpose(1, 2, 0)) for a in coefficients)
    mu, _ = _compose_hops(u, v, sweeps)
    var = np.add(*_compose_hops(u_var, v_var, sweeps))
    mu_f, mu_b = mu[0], mu[1, ::-1]
    var_f, var_b = var[0], var[1, ::-1]
    bel = (mu_f / var_f + mu_b / var_b) / (1.0 / var_f + 1.0 / var_b)
    out = np.empty((B, m), dtype=complex)
    out[:, tgt] = bel.T
    return out


# gbp2g_batch looks for exact shortcuts every _PERIOD sweeps; a trial whose
# state repeats after _PERIOD sweeps cycles with a period that divides it.
_PERIOD = 8


def _same_bits(a, b):
    """Per trial (the last axis), whether ``a`` and ``b`` agree bit for bit;
    unlike ==, this tells -0.0 from 0.0 and matches a NaN with itself."""
    differ = a.view(np.uint64) != b.view(np.uint64)
    # first per word of the last axis, over long rows; then per trial
    differ = differ.reshape(math.prod(a.shape[:-1]), -1).any(axis=0)
    return ~differ.reshape(a.shape[-1], a.itemsize // 8).any(axis=1)


def _pick(mask, a):
    """The trials (last axis) of ``a`` where ``mask`` holds, C-contiguous."""
    return a.compress(mask, axis=-1)


def _region(flat, shape, at_back=False):
    """A C-contiguous view of ``shape`` at the start, or the end, of ``flat``."""
    k = math.prod(shape)
    return (flat[flat.size - k:] if at_back else flat[:k]).reshape(shape)


def _repack(flat, front, *back):
    """Lay out a flat per-trial buffer anew: the (M, M, n) array ``front`` at
    its start, and the arrays ``back``, joined on the trial axis, at its end."""
    flat[:front.size] = front.reshape(-1)
    if back:
        shape = front.shape[:-1] + (sum(a.shape[-1] for a in back),)
        np.concatenate(back, axis=-1, out=_region(flat, shape, at_back=True))


def _gbp2g_spread(w, wsum, lam):
    """Sum w - w^T of (M, M, n) weighted means w into ``lam``, [i, j]:
    everything into i except from j. ``wsum`` (M, n) is work space."""
    np.add.reduce(w, axis=0, out=wsum)
    np.subtract(wsum[:, None], w.transpose(1, 0, 2), out=lam)


def _gbp2g_beliefs(w, prec):
    """(M, n) belief means [j, b] of (M, M, n) messages in information form."""
    return w.sum(axis=0) * (1.0 / prec.sum(axis=0))


def gbp2g_batch(links: LinkTables, sweeps: int) -> np.ndarray:
    """Belief means of the fully-connected Gaussian scheme after ``sweeps``.

    Messages are (M, M, B), [i, j, b] for the i -> j edge, so the sums over
    source nodes are row adds. Each message is held in information form, as
    its precision prec = 1/var and weighted mean w = prec * mu. A sweep is

        lam_prec = sum prec - prec^T   ([i, j]: everything into i except from j)
        prec'    = 1 / (u_var + v_var / lam_prec)
        d, a     = v * (prec' / lam_prec), u * prec'
        w'       = a + (sum w - w^T) * d

    and the beliefs are sum w * (1 / sum prec). A self-edge has u_var = inf
    and zero coefficients, so it keeps precision 0 and weighted mean 0 and
    adds nothing to either sum, which takes the place of an off-diagonal mask.

    A sweep of a trial is a fixed function of that trial's own state, and
    its precision half never reads the weighted means (Weiss and Freeman,
    Neural Computation 2001). Two shortcuts follow that leave every output
    bit as the plain sweep makes it (but for the sign of a NaN, which
    numpy's loops vary with the array length in the plain sweep too):

    - **Freeze.** Precisions equal to the previous sweep's bit for bit stay
      so for good, and so do a and d. Such a trial moves to a frozen group
      that keeps them, built by the very operations of the sweep, and runs
      only its last line: reduce, subtract, multiply, add.
    - **Retire.** A state (w and prec) equal to the one ``_PERIOD`` sweeps
      earlier recurs every ``_PERIOD`` sweeps. Checked only after t sweeps
      with ``sweeps - t`` a multiple of ``_PERIOD``, it is already the final
      state, so the trial's beliefs are taken and it leaves.

    Both are checked every ``_PERIOD`` sweeps, and a group is compacted only
    once an eighth of it qualifies, which keeps the copies rare. Every
    per-trial array is a view of one flat buffer for all B trials, allocated
    once: the moving trials' (M, M, n) array fills the front of the buffer
    and the frozen trials' the back. The frozen group keeps a in the buffer
    of u, d in that of v and its precisions in that of u_var, which it no
    longer reads.
    """
    B, m, _ = links.a_diag.shape
    if m <= 2:
        # one node has no neighbours and two form a ring; both divide 0/0 below
        return gbp3g_batch(links, sweeps)
    size = m * m * B
    u, v, uv, vv = (a.reshape(-1) for a in _recursion_coefficients(
        *(np.ascontiguousarray(a.transpose(2, 1, 0))
          for a in (links.y_prime, links.a_diag, links.a_cross))))
    self_edge = (np.arange(m), np.arange(m))
    uv.reshape(m, m, B)[self_edge] = np.inf
    w = np.zeros(size, dtype=complex)
    prec = np.ones(size)
    prec.reshape(m, m, B)[self_edge] = 0.0
    lam, w_snap = np.empty(size, dtype=complex), np.empty(size, dtype=complex)
    nxt, lam_prec, prec_snap = np.empty(size), np.empty(size), np.empty(size)
    wsum, psum = np.empty(m * B, dtype=complex), np.empty(m * B)
    ids, f_ids = np.arange(B), np.arange(0)  # the trials of the moving and the frozen group
    beliefs = np.empty((m, B), dtype=complex)

    def regroup():
        """Views of the moving group, at the front of every buffer, and of
        the frozen group, at the back; work space starts at the front."""
        n, nf = ids.size, f_ids.size
        mov = SimpleNamespace(n=n, psum=_region(psum, (m, n)), wsum=_region(wsum, (m, n)), **{
            key: _region(a, (m, m, n)) for key, a in dict(
                w=w, prec=prec, nxt=nxt, u=u, v=v, uv=uv, vv=vv, lam_prec=lam_prec, lam=lam,
                w_snap=w_snap, prec_snap=prec_snap).items()})
        frz = SimpleNamespace(n=nf, wsum=_region(wsum, (m, nf)), lam=_region(lam, (m, m, nf)), **{
            key: _region(a, (m, m, nf), at_back=True) for key, a in dict(
                w=w, a=u, d=v, prec=uv, w_snap=w_snap).items()})
        return mov, frz

    mov, frz = regroup()
    snapped = False
    for left in reversed(range(sweeps)):  # the sweeps still to run after this one
        if mov.n:
            np.add.reduce(mov.prec, axis=0, out=mov.psum)
            np.subtract(mov.psum[:, None], mov.prec.transpose(1, 0, 2), out=mov.lam_prec)
            np.divide(mov.vv, mov.lam_prec, out=mov.nxt)
            np.add(mov.uv, mov.nxt, out=mov.nxt)
            np.divide(1.0, mov.nxt, out=mov.nxt)
            np.divide(mov.nxt, mov.lam_prec, out=mov.lam_prec)  # prec'/lam_prec from here on
            _gbp2g_spread(mov.w, mov.wsum, mov.lam)
            np.multiply(mov.v, mov.lam_prec, out=mov.w)  # d
            np.multiply(mov.lam, mov.w, out=mov.lam)
            np.multiply(mov.u, mov.nxt, out=mov.w)  # a
            np.add(mov.w, mov.lam, out=mov.w)
            # swap: prec holds the new precisions, nxt the previous ones
            prec, nxt, mov.prec, mov.nxt = nxt, prec, mov.nxt, mov.prec
        if frz.n:
            _gbp2g_spread(frz.w, frz.wsum, frz.lam)
            np.multiply(frz.lam, frz.d, out=frz.lam)
            np.add(frz.a, frz.lam, out=frz.w)
        if not left or left % _PERIOD:
            continue
        freeze_m = _same_bits(mov.prec, mov.nxt)
        retire_m, retire_f = np.zeros(mov.n, bool), np.zeros(frz.n, bool)
        if snapped:
            retire_m = _same_bits(mov.w, mov.w_snap) & _same_bits(mov.prec, mov.prec_snap)
            retire_f = _same_bits(frz.w, frz.w_snap)
        freeze_m &= ~retire_m
        # a group gives up trials only once an eighth of it qualifies
        if 8 * np.count_nonzero(retire_m | freeze_m) < mov.n:
            retire_m[:] = freeze_m[:] = False
        if 8 * np.count_nonzero(retire_f) < frz.n:
            retire_f[:] = False
        if retire_m.any() or freeze_m.any() or retire_f.any():
            beliefs[:, ids[retire_m]] = _gbp2g_beliefs(_pick(retire_m, mov.w),
                                                       _pick(retire_m, mov.prec))
            beliefs[:, f_ids[retire_f]] = _gbp2g_beliefs(_pick(retire_f, frz.w),
                                                         _pick(retire_f, frz.prec))
            keep_m, keep_f = ~(retire_m | freeze_m), ~retire_f
            # every moving trial's a and d as the sweep just run built them, which
            # a freezing trial's later sweeps would rebuild bit for bit; in work
            # space that the snapshots below overwrite
            a = np.multiply(mov.u, mov.prec, out=mov.w_snap)
            d = np.multiply(mov.v, mov.lam_prec, out=mov.lam)
            for flat, moving, frozen, freezing in ((w, mov.w, frz.w, mov.w), (u, mov.u, frz.a, a),
                                                   (v, mov.v, frz.d, d),
                                                   (uv, mov.uv, frz.prec, mov.prec)):
                _repack(flat, _pick(keep_m, moving), _pick(keep_f, frozen), _pick(freeze_m, freezing))
            _repack(vv, _pick(keep_m, mov.vv))
            _repack(prec, _pick(keep_m, mov.prec))
            ids, f_ids = ids[keep_m], np.concatenate([f_ids[keep_f], ids[freeze_m]])
            mov, frz = regroup()
        for snap, now in ((mov.w_snap, mov.w), (mov.prec_snap, mov.prec), (frz.w_snap, frz.w)):
            np.copyto(snap, now)
        snapped = True
    beliefs[:, ids] = _gbp2g_beliefs(mov.w, mov.prec)
    beliefs[:, f_ids] = _gbp2g_beliefs(frz.w, frz.prec)
    return beliefs.T


# ---------------------------------------------------------------------------
# factor-graph scheme over the raw observations


def bp1_batch(H, y, sigma2, constellation: Constellation, iterations: int,
              residuals=None) -> np.ndarray:
    """Beliefs of the observation factor-graph scheme; (B, M, Q).

    ``residuals`` is ``lattice_residuals(H, y, constellation)`` when the
    caller has it. The lattice is split at k = M // 2 as in
    ``lattice_residuals``: with LA and LT the sums of the incoming messages
    over the lead and the trail digits, every lead digit's marginal is a
    marginal of LA + LSE_trail(ll + LT), and every trail digit's one of
    LT + LSE_lead(ll + LA). Both log-sum-exps run in one work buffer.
    """
    if residuals is None:
        return _by_lattice_blocks(bp1_batch, H, y, sigma2, constellation, iterations)
    B, _, m = H.shape
    size = constellation.size
    n_fac = residuals.shape[1]  # residuals: (L, F, B)
    k = m // 2
    ll = np.divide(residuals, -sigma2).reshape((size ** k, size ** (m - k), n_fac, B))
    work = np.empty_like(ll)
    log_prior = np.log(constellation.prior)[:, None]
    lam = np.broadcast_to(log_prior[:, :, None], (m, size, n_fac, B))  # [j, s, f, b]
    log_b = np.broadcast_to(log_prior, (m, size, B))
    zero = np.zeros((1, n_fac, B))
    for _ in range(iterations):
        lead_sum, trail_sum = _kron_tables(lam[:k], zero), _kron_tables(lam[k:], zero)
        trail = trail_sum + _lse(np.add(ll, lead_sum[:, None], out=work), 0, work=work)
        if k:
            lead = lead_sum + _lse(np.add(ll, trail_sum, out=work), 1, work=work)
            marg = np.concatenate([_lattice_marginals(lead, size, k),
                                   _lattice_marginals(trail, size, m - k)])
        else:
            marg = _lattice_marginals(trail, size, m)
        # lam[j] is constant along the axes summed out for digit j, so it
        # is pulled out of the log-sum-exp and removed afterwards
        pi = _norm_log(marg - lam, axis=1)
        log_b = _norm_log(log_prior + _sum(pi, 2), axis=1)  # [j, s, b]
        lam = _norm_log(log_b[:, :, None] - pi, axis=1)
    return np.ascontiguousarray(np.exp(log_b).transpose(2, 0, 1))
