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
``LinkTables`` holds the three filter outputs of every ordered pair, y',
a_jj and a_ji. The Gaussian kernels compute the coefficients of their
recursions (u, v, u_var, v_var) from the entries they read, and the
tables' properties of those names compute them for the whole table.
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
So in the Gaussian kernels a complex product whose right operand is a
temporary is written ``np.multiply(a, b)``, whose order numpy keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from .channel import Constellation
from .errors import CapacityError
from .exact import MAX_LATTICE_BITS, lattice_indices
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
    rounds differently; adding the slices here in order keeps a lone
    trial's bits equal to its row of a larger batch.
    """
    axis %= a.ndim
    if a.shape[-1] != 1 or axis == a.ndim - 1:
        return np.sum(a, axis=axis, keepdims=keepdims)
    parts = np.moveaxis(a, axis, 0)
    out = parts[0].copy()
    for part in parts[1:]:
        out += part
    return np.expand_dims(out, axis) if keepdims else out


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
    R has the square root of A's condition number, so A is never formed."""
    B, n, m = H.shape
    S = np.zeros((B, n + m, m + 1), dtype=complex)
    S[:, :n, :m], S[:, :n, m] = H, y
    S[:, n + np.arange(m), np.arange(m)] = np.sqrt(sigma2)
    R = np.linalg.qr(S, mode="r")  # [[R, z], [0, r]], z = Q^H [y; 0] so xhat = R^{-1} z
    sol = np.linalg.solve(R[:, :m, :m], np.concatenate(
        [np.broadcast_to(np.eye(m), (B, m, m)), R[:, :m, m:]], axis=2))
    return sol[:, :, :m], sol[:, :, m]


def lmmse_batch(H, y, sigma2, posterior=None):
    """Batched linear MMSE: returns (estimates (B, M), per-component MSE).

    ``posterior`` is ``factor_posterior(H, y, sigma2)`` when the caller has it."""
    W, xhat = posterior or factor_posterior(H, y, sigma2)
    return xhat, sigma2 * np.einsum("bjk,bjk->bj", W, W.conj()).real


def check_lattice_capacity(m, constellation, what="lattice enumeration"):
    """Raise CapacityError, before any lattice-sized allocation, past the cap."""
    bits = m * constellation.bits_per_symbol
    if bits > MAX_LATTICE_BITS:
        raise CapacityError(
            f"{what} needs a lattice of 2^{bits} points, over the 2^{MAX_LATTICE_BITS} cap")


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
        out = (out[:, None] + table).reshape((-1,) + table.shape[1:])
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
    sq = sq.reshape(-1, n_rx, B)
    return np.square(sq, out=sq)


def lattice_blocks(H, constellation):
    """``trial_blocks`` of the lattice kernels. A trial's residual table and
    BP1's two work tables hold L*N doubles each; with the table's build and
    BP1's small tables, traced peaks were 3.0 to 3.7 of them per trial on
    lattices of 256 points or more."""
    _, n_rx, m = H.shape
    return trial_blocks(len(H), 4 * 8 * n_rx * constellation.size ** m)


def _by_lattice_blocks(kernel, H, y, sigma2, constellation, *args, **kwargs):
    """``kernel`` on each of ``lattice_blocks`` with that block's residual
    table, its outputs joined over the trials."""
    return np.concatenate([
        kernel(H[part], y[part], sigma2, constellation, *args,
               residuals=lattice_residuals(H[part], y[part], constellation), **kwargs)
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

    Only the three filter outputs are stored. The Gaussian recursion's
    coefficients u, v, u_var and v_var are computed from them on each read,
    and the Gaussian kernels compute them from the entries they use."""

    y_prime: np.ndarray  # (B, M, M) complex
    a_diag: np.ndarray  # (B, M, M) real, equals sigma2_cond
    a_cross: np.ndarray  # (B, M, M) complex

    u = property(lambda self: self._coefficients()[0])
    v = property(lambda self: self._coefficients()[1])
    u_var = property(lambda self: self._coefficients()[2])
    v_var = property(lambda self: self._coefficients()[3])

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
    any pairwise kernel. The block budget counts 5.
    """
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
    """Beliefs of the ring scheme, full sequential turns; (B, M, Q)."""
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


def _times_rolled(a, b, shift):
    """a * np.roll(b, shift, axis=1), computed in the rolled copy with ``a``
    kept as the left operand whatever the size (see the module docstring)."""
    rolled = np.roll(b, shift, axis=1)
    return np.multiply(a, rolled, out=rolled)


def gbp3g_batch(links: LinkTables, sweeps: int, order=None) -> np.ndarray:
    """Belief means of the ring Gaussian recursion after ``sweeps`` hops.

    The four chains (forward mean, backward mean, forward variance, backward
    variance) are stacked as (4, M, B) over ring positions; the backward
    chains run over the reversed ring, so every chain reads position r - 1.
    The h-hop map into position r is mu -> offset[r] + slope[r] * mu, with
    mu the message into position r - h. Applied after a k-hop map, it gives
    the (h + k)-hop map with offset offset[r] + slope[r] * offset'[r - h]
    and slope slope[r] * slope'[r - h]. The messages start at mean 0 and
    variance 1, so after ``sweeps`` hops the means are the offsets and the
    variances are offset + slope.
    """
    B, m, _ = links.a_diag.shape
    tgt = np.array(ring_order(m, order))
    rows = np.stack([tgt, tgt[::-1]])
    cols = np.roll(rows, 1, axis=1)  # the node each hop into rows[., r] comes from
    u, v, u_var, v_var = _recursion_coefficients(
        *(a[:, rows, cols] for a in (links.y_prime, links.a_diag, links.a_cross)))
    off = np.concatenate([u, u_var], axis=1)
    slope = np.concatenate([v, v_var], axis=1)
    off, slope = (np.ascontiguousarray(a.transpose(1, 2, 0)) for a in (off, slope))
    # acc_* hold the map of the first `hops` hops, off/slope the `step`-hop map
    acc_off = np.zeros_like(off)
    acc_slope = np.ones_like(slope)
    hops, step = 0, 1
    while sweeps:
        if sweeps & 1:
            acc_off = acc_off + _times_rolled(acc_slope, off, hops)
            acc_slope = _times_rolled(acc_slope, slope, hops)
            hops += step
        sweeps >>= 1
        if sweeps:
            off = off + _times_rolled(slope, off, step)
            slope = _times_rolled(slope, slope, step)
            step *= 2
    mu_f, mu_b = acc_off[0], acc_off[1, ::-1]
    var = (acc_off[2:] + acc_slope[2:]).real
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


def _gbp2g_means(wmean, inv, u, v, wsum, lam):
    """The mean half of a GBP2G sweep, in place: from the weighted means
    wmean = mu * prec, (M, M, n), to the next means u + v * lam_mean, given
    inv = 1/lam_prec. ``wsum`` (M, n) and ``lam`` (M, M, n) are work space."""
    np.add.reduce(wmean, axis=0, out=wsum)
    # [i, j]: everything into i except from j
    np.subtract(wsum[:, None], wmean.transpose(1, 0, 2), out=lam)
    np.multiply(lam, inv, out=lam)
    np.multiply(v, lam, out=wmean)
    np.add(u, wmean, out=wmean)


def _gbp2g_beliefs(mu, prec):
    """(M, n) belief means [j, b] of (M, M, n) messages with precisions ``prec``."""
    return (mu * prec).sum(axis=0) * (1.0 / prec.sum(axis=0))


def gbp2g_batch(links: LinkTables, sweeps: int) -> np.ndarray:
    """Belief means of the fully-connected Gaussian scheme after ``sweeps``.

    Messages are (M, M, B), [i, j, b] for the i -> j edge, so the sums over
    source nodes are row adds. A self-edge keeps variance inf and zero
    coefficients: it contributes zero precision and zero weighted mean,
    which takes the place of an off-diagonal mask. A complex array divided
    by a real one is taken as both parts times the reciprocal, which is what
    numpy's complex division computes for a zero imaginary part.

    A sweep of a trial is a fixed function of that trial's own state, and
    its variance half never reads the means (Weiss and Freeman, Neural
    Computation 2001). Two shortcuts follow that leave every output bit as
    the plain sweep makes it (but for the sign of a NaN, which numpy's loops
    vary with the array length in the plain sweep too):

    - **Freeze.** Variances equal to the previous sweep's bit for bit stay
      so for good, and so do prec = 1/var and 1/lam_prec. Such a trial moves
      to a frozen group that keeps both and runs only the mean half.
    - **Retire.** A state (means and variances) equal to the one ``_PERIOD``
      sweeps earlier recurs every ``_PERIOD`` sweeps. Checked only after t
      sweeps with ``sweeps - t`` a multiple of ``_PERIOD``, it is already
      the final state, so the trial's beliefs are taken and it leaves.

    Both are checked every ``_PERIOD`` sweeps, and a group is compacted only
    once an eighth of it qualifies, which keeps the copies rare. Every
    per-trial array is a view of one flat buffer for all B trials, allocated
    once: the moving trials' (M, M, n) array fills the front of the buffer
    and the frozen trials' the back. The frozen group keeps 1/var in the
    buffer of u_var and 1/lam_prec in that of v_var, which it no longer reads.
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
    mu = np.zeros(size, dtype=complex)
    var = np.ones(size)
    var.reshape(m, m, B)[self_edge] = np.inf
    lam, mu_snap = np.empty(size, dtype=complex), np.empty(size, dtype=complex)
    prec, lam_prec, var_snap = np.empty(size), np.empty(size), np.empty(size)
    wsum, psum = np.empty(m * B, dtype=complex), np.empty(m * B)
    ids, f_ids = np.arange(B), np.arange(0)  # the trials of the moving and the frozen group
    beliefs = np.empty((m, B), dtype=complex)

    def regroup():
        """Views of the moving group, at the front of every buffer, and of
        the frozen group, at the back; work space starts at the front."""
        n, nf = ids.size, f_ids.size
        mov = SimpleNamespace(n=n, psum=_region(psum, (m, n)), wsum=_region(wsum, (m, n)), **{
            key: _region(a, (m, m, n)) for key, a in dict(
                mu=mu, var=var, u=u, v=v, uv=uv, vv=vv, prec=prec, lam_prec=lam_prec, lam=lam,
                mu_snap=mu_snap, var_snap=var_snap).items()})
        frz = SimpleNamespace(n=nf, wsum=_region(wsum, (m, nf)), lam=_region(lam, (m, m, nf)), **{
            key: _region(a, (m, m, nf), at_back=True) for key, a in dict(
                mu=mu, u=u, v=v, prec=uv, inv=vv, mu_snap=mu_snap).items()})
        return mov, frz

    mov, frz = regroup()
    snapped = False
    for left in reversed(range(sweeps)):  # the sweeps still to run after this one
        if mov.n:
            np.divide(1.0, mov.var, out=mov.prec)
            np.add.reduce(mov.prec, axis=0, out=mov.psum)
            np.subtract(mov.psum[:, None], mov.prec.transpose(1, 0, 2), out=mov.lam_prec)
            np.multiply(mov.mu, mov.prec, out=mov.mu)
            np.divide(1.0, mov.lam_prec, out=mov.prec)  # 1/lam_prec from here on
            _gbp2g_means(mov.mu, mov.prec, mov.u, mov.v, mov.wsum, mov.lam)
            np.divide(mov.vv, mov.lam_prec, out=mov.lam_prec)
            np.add(mov.uv, mov.lam_prec, out=mov.lam_prec)
            # swap: var holds the new variances, lam_prec the previous ones
            var, lam_prec, mov.var, mov.lam_prec = lam_prec, var, mov.lam_prec, mov.var
        if frz.n:
            np.multiply(frz.mu, frz.prec, out=frz.mu)
            _gbp2g_means(frz.mu, frz.inv, frz.u, frz.v, frz.wsum, frz.lam)
        if not left or left % _PERIOD:
            continue
        freeze_m = _same_bits(mov.var, mov.lam_prec)
        retire_m, retire_f = np.zeros(mov.n, bool), np.zeros(frz.n, bool)
        if snapped:
            retire_m = _same_bits(mov.mu, mov.mu_snap) & _same_bits(mov.var, mov.var_snap)
            retire_f = _same_bits(frz.mu, frz.mu_snap)
        freeze_m &= ~retire_m
        # a group gives up trials only once an eighth of it qualifies
        if 8 * np.count_nonzero(retire_m | freeze_m) < mov.n:
            retire_m[:] = freeze_m[:] = False
        if 8 * np.count_nonzero(retire_f) < frz.n:
            retire_f[:] = False
        if retire_m.any() or freeze_m.any() or retire_f.any():
            beliefs[:, ids[retire_m]] = _gbp2g_beliefs(_pick(retire_m, mov.mu),
                                                       1.0 / _pick(retire_m, mov.var))
            beliefs[:, f_ids[retire_f]] = _gbp2g_beliefs(_pick(retire_f, frz.mu),
                                                         _pick(retire_f, frz.prec))
            keep_m, keep_f = ~(retire_m | freeze_m), ~retire_f
            for flat, moving, frozen in ((mu, mov.mu, frz.mu), (u, mov.u, frz.u), (v, mov.v, frz.v)):
                _repack(flat, _pick(keep_m, moving), _pick(keep_f, frozen), _pick(freeze_m, moving))
            # a frozen trial keeps 1/var where u_var was and 1/lam_prec where v_var was
            _repack(uv, _pick(keep_m, mov.uv), _pick(keep_f, frz.prec),
                    1.0 / _pick(freeze_m, mov.var))
            _repack(vv, _pick(keep_m, mov.vv), _pick(keep_f, frz.inv), _pick(freeze_m, mov.prec))
            _repack(var, _pick(keep_m, mov.var))
            ids, f_ids = ids[keep_m], np.concatenate([f_ids[keep_f], ids[freeze_m]])
            mov, frz = regroup()
        for snap, now in ((mov.mu_snap, mov.mu), (mov.var_snap, mov.var), (frz.mu_snap, frz.mu)):
            np.copyto(snap, now)
        snapped = True
    beliefs[:, ids] = _gbp2g_beliefs(mov.mu, 1.0 / mov.var)
    beliefs[:, f_ids] = _gbp2g_beliefs(frz.mu, frz.prec)
    return beliefs.T


# ---------------------------------------------------------------------------
# factor-graph scheme over the raw observations


def bp1_batch(H, y, sigma2, constellation: Constellation, iterations: int,
              singly_connected: bool = False, residuals=None) -> np.ndarray:
    """Beliefs of the observation factor-graph scheme; (B, M, Q).

    ``residuals`` is ``lattice_residuals(H, y, constellation)`` when the
    caller has it. The lattice is split at k = M // 2 as in
    ``lattice_residuals``: with LA and LT the sums of the incoming messages
    over the lead and the trail digits, every lead digit's marginal is a
    marginal of LA + LSE_trail(ll + LT), and every trail digit's one of
    LT + LSE_lead(ll + LA). Both log-sum-exps run in one work buffer.
    """
    if residuals is None:
        return _by_lattice_blocks(bp1_batch, H, y, sigma2, constellation, iterations,
                                  singly_connected=singly_connected)
    B, _, m = H.shape
    size = constellation.size
    sq = residuals  # (L, F, B)
    if singly_connected:
        sq = _sum(sq, 1, keepdims=True)
    n_fac = sq.shape[1]
    k = m // 2
    ll = np.divide(sq, -sigma2).reshape((size ** k, -1, n_fac, B))
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
