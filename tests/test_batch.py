"""Every vectorised kernel must reproduce its single-instance reference."""

from collections import deque
from dataclasses import fields

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mimobp import (BpConfig, CapacityError, ChannelInstance, GbpConfig, Topology,
                    bidiagonalize, bp1_factor_graph, bp2_fully_connected,
                    bp3_ring, build_graph, forward_backward_detect, gbp2g,
                    gbp3g, get_constellation, lmmse, map_marginals, ml_hard, qpsk)
from mimobp import batch
from mimobp.batch import LinkTables
from mimobp.exact import lattice_indices
from mimobp.pairwise import PairwiseGraph, PairwiseLink, build_link
from mimobp.sim import SimConfig, generate_batch

SIGMA2 = 0.1
B = 48


@pytest.fixture(scope="module")
def stacked():
    cfg = SimConfig(snr_db=(10.0,), trials=B, batch_size=B)
    c = qpsk()
    H, idx, y = generate_batch(cfg, c, SIGMA2, 0, 0, B)
    return c, H, idx, y


def instances(H, y, count=10):
    for b in range(count):
        yield b, ChannelInstance(H=H[b], sigma2=SIGMA2), y[b]


def test_lmmse_batch_matches_reference(stacked):
    c, H, _, y = stacked
    xhat, mmse = batch.lmmse_batch(H, y, SIGMA2)
    for b, ch, yb in instances(H, y):
        ref = lmmse(ch, yb)
        assert np.max(np.abs(xhat[b] - ref.estimates)) < 1e-12
        assert np.max(np.abs(mmse[b] - ref.mmse)) < 1e-12


def test_ml_batch_matches_reference(stacked):
    c, H, _, y = stacked
    hard = batch.ml_hard_batch(H, y, SIGMA2, c)
    for b, ch, yb in instances(H, y):
        assert np.array_equal(hard[b], ml_hard(ch, c, yb))


def test_map_batch_matches_reference(stacked):
    c, H, _, y = stacked
    post = batch.map_marginals_batch(H, y, SIGMA2, c)
    for b, ch, yb in instances(H, y):
        assert np.max(np.abs(post[b] - map_marginals(ch, c, yb))) < 1e-10


def test_link_tables_match_reference(stacked):
    c, H, _, y = stacked
    t = batch.link_tables(H, y, SIGMA2)
    for b, ch, yb in instances(H, y, count=5):
        g = build_graph(ch, yb, Topology.FULLY_CONNECTED)
        for (j, i), link in g.links.items():
            assert t.y_prime[b, j, i] == pytest.approx(link.y_prime, rel=1e-10)
            assert t.a_diag[b, j, i] == pytest.approx(link.sigma2_cond, rel=1e-10)
            assert t.a_cross[b, j, i] == pytest.approx(link.a_ji, rel=1e-10, abs=1e-12)
            assert t.u[b, j, i] == pytest.approx(link.u, rel=1e-10)
            assert t.v[b, j, i] == pytest.approx(link.v, rel=1e-10, abs=1e-12)


def _mp_links(H, y, sigma2):
    """40-digit (a_jj, a_ji, y'_j) of every ordered pair, [k, j, i], from the
    conditional filter c = K_ji^{-1} h_j itself."""
    n, m = H.shape
    out = np.zeros((3, m, m), dtype=complex)
    with mpmath.workdps(40):
        cols = [mpmath.matrix([complex(v) for v in H[:, k]]) for k in range(m)]
        ym = mpmath.matrix([complex(v) for v in y])
        for j in range(m):
            for i in range(m):
                if i == j:
                    continue
                K = mpmath.mpf(sigma2) * mpmath.eye(n)
                for k in set(range(m)) - {j, i}:
                    K += cols[k] * cols[k].H
                c = mpmath.lu_solve(K, cols[j])
                out[:, j, i] = [complex((c.H * v)[0]) for v in (cols[j], cols[i], ym)]
    return out


# The worst |got - ref| / (1 + |ref|) of 12500 swept trials was 1.3e-12, at
# M = N = 6 and 39 dB; a per-pair solve with K_ji formed explicitly reached
# 2.7e-10.
LINK_TOL = 5e-12


def _link_error(got, ref):
    return np.max(np.abs(got - ref) / (1.0 + np.abs(ref)))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda m: st.tuples(
    st.just(m), st.integers(m, 6), st.sampled_from(("QPSK", "QAM16")),
    st.floats(-10.0, 40.0), st.integers(0, 2 ** 32 - 1))))
def test_link_tables_match_extended_precision_across_snr(case):
    """Both the batch link tables and the oracle's per-pair links."""
    m, n, name, snr, seed = case
    sigma2 = 10.0 ** (-snr / 10.0)
    cfg = SimConfig(m=m, n=n, constellation=name, snr_db=(snr,), seed=seed)
    H, _, y = generate_batch(cfg, get_constellation(name), sigma2, 0, 0, 2)
    t = batch.link_tables(H, y, sigma2)
    for b in range(2):
        ref = _mp_links(H[b], y[b], sigma2)
        assert _link_error(np.stack([t.a_diag[b], t.a_cross[b], t.y_prime[b]]), ref) < LINK_TOL
        ch = ChannelInstance(H=H[b], sigma2=sigma2)
        for j in range(m):
            for i in set(range(m)) - {j}:
                link = build_link(ch, y[b], j, i)
                assert _link_error(np.array([link.a_jj, link.a_ji, link.y_prime]),
                                   ref[:, j, i]) < LINK_TOL, (j, i)


def _mp_lmmse(H, y, sigma2):
    """40-digit LMMSE estimates A^{-1} H^H y and per-component MSE
    sigma2 [A^{-1}]_jj, A = sigma2 I + H^H H."""
    n, m = H.shape
    with mpmath.workdps(40):
        Hm = mpmath.matrix([[complex(v) for v in row] for row in H])
        A_inv = mpmath.inverse(mpmath.mpf(sigma2) * mpmath.eye(m) + Hm.H * Hm)
        xhat = A_inv * (Hm.H * mpmath.matrix([complex(v) for v in y]))
        return (np.array([complex(xhat[k]) for k in range(m)]),
                np.array([float(mpmath.mpf(sigma2) * mpmath.re(A_inv[k, k])) for k in range(m)]))


# The worst error of 8000 randomly drawn trials over this domain was 8.8e-15
# for the estimates (|got - ref| / (1 + |ref|)) and 9.5e-15 for the MSE
# (|got - ref| / ref), both at M = N = 6 above 33 dB.
LMMSE_TOL = 1e-13


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda m: st.tuples(
    st.just(m), st.integers(m, 6), st.sampled_from(("QPSK", "QAM16")),
    st.floats(-10.0, 40.0), st.integers(0, 2 ** 32 - 1))))
def test_lmmse_batch_matches_extended_precision_across_snr(case):
    m, n, name, snr, seed = case
    sigma2 = 10.0 ** (-snr / 10.0)
    cfg = SimConfig(m=m, n=n, constellation=name, snr_db=(snr,), seed=seed)
    H, _, y = generate_batch(cfg, get_constellation(name), sigma2, 0, 0, 2)
    xhat, mmse = batch.lmmse_batch(H, y, sigma2)
    for b in range(2):
        ref_x, ref_mse = _mp_lmmse(H[b], y[b], sigma2)
        assert np.max(np.abs(xhat[b] - ref_x) / (1.0 + np.abs(ref_x))) < LMMSE_TOL
        assert np.max(np.abs(mmse[b] - ref_mse) / ref_mse) < LMMSE_TOL


@pytest.mark.parametrize("iters", [1, 3])
def test_bp2_batch_matches_reference(stacked, iters):
    c, H, _, y = stacked
    t = batch.link_tables(H, y, SIGMA2)
    beliefs = batch.bp2_batch(t, c, iters)
    for b, ch, yb in instances(H, y):
        g = build_graph(ch, yb, Topology.FULLY_CONNECTED)
        ref = bp2_fully_connected(g, c, BpConfig(iterations=iters))
        assert np.max(np.abs(beliefs[b] - ref.beliefs)) < 1e-12


@pytest.mark.parametrize("perm", [None, (2, 0, 3, 1)])
def test_bp3_batch_matches_reference(stacked, perm):
    c, H, _, y = stacked
    t = batch.link_tables(H, y, SIGMA2)
    beliefs = batch.bp3_batch(t, c, 4, order=perm)
    for b, ch, yb in instances(H, y):
        g = build_graph(ch, yb, Topology.RING, perm)
        ref = bp3_ring(g, c, BpConfig(iterations=4))
        assert np.max(np.abs(beliefs[b] - ref.beliefs)) < 1e-12


def test_fb_batch_matches_reference(stacked):
    c, H, _, y = stacked
    beliefs = batch.fb_batch(H, y, SIGMA2, c, 4)
    for b, ch, yb in instances(H, y):
        ref = forward_backward_detect(bidiagonalize(ch), c, yb, BpConfig(iterations=4))
        assert np.max(np.abs(beliefs[b] - ref.beliefs)) < 1e-12


@pytest.mark.parametrize("singly", [False, True])
def test_bp1_batch_matches_reference(stacked, singly):
    c, H, _, y = stacked
    beliefs = batch.bp1_batch(H, y, SIGMA2, c, 4, singly_connected=singly)
    for b, ch, yb in instances(H, y):
        ref = bp1_factor_graph(ch, c, yb, BpConfig(iterations=4), singly_connected=singly)
        assert np.max(np.abs(beliefs[b] - ref.beliefs)) < 1e-10


def test_gbp_batches_match_reference(stacked):
    c, H, _, y = stacked
    t = batch.link_tables(H, y, SIGMA2)
    m2 = batch.gbp2g_batch(t, 150)
    m3 = batch.gbp3g_batch(t, 150)
    cfg = GbpConfig(max_sweeps=150, tol=0.0)
    for b, ch, yb in instances(H, y):
        full = build_graph(ch, yb, Topology.FULLY_CONNECTED)
        ring = build_graph(ch, yb, Topology.RING)
        assert np.max(np.abs(m2[b] - gbp2g(full, cfg).means[-1])) < 1e-12
        assert np.max(np.abs(m3[b] - gbp3g(ring, cfg).means[-1])) < 1e-12


def test_zero_iterations_return_the_prior(stacked):
    c, H, _, y = stacked
    t = batch.link_tables(H, y, SIGMA2)
    kernels = {"BP1": batch.bp1_batch(H, y, SIGMA2, c, 0), "BP2": batch.bp2_batch(t, c, 0),
               "BP3": batch.bp3_batch(t, c, 0), "FB": batch.fb_batch(H, y, SIGMA2, c, 0)}
    for name, beliefs in kernels.items():
        assert np.max(np.abs(beliefs - c.prior)) < 1e-15, name
    assert not np.any(batch.gbp2g_batch(t, 0)) and not np.any(batch.gbp3g_batch(t, 0))


def test_single_stream_pairwise_kernels():
    c = get_constellation("QAM16")
    sigma2 = 1.0
    cfg = SimConfig(m=1, n=2, constellation="QAM16", snr_db=(0.0,))
    H, _, y = generate_batch(cfg, c, sigma2, 0, 0, 3)
    with pytest.raises(ValueError, match="two streams"):
        batch.fb_batch(H, y, sigma2, c, 4)
    t = batch.link_tables(H, y, sigma2)
    with np.errstate(all="raise"):
        means = batch.gbp2g_batch(t, 10)
    beliefs = batch.bp3_batch(t, c, 4)
    for b in range(3):
        ch = ChannelInstance(H=H[b], sigma2=sigma2)
        full = build_graph(ch, y[b], Topology.FULLY_CONNECTED)
        assert np.array_equal(means[b], gbp2g(full, GbpConfig(max_sweeps=10, tol=0.0)).means[-1])
        ring = build_graph(ch, y[b], Topology.RING)
        assert np.array_equal(beliefs[b], bp3_ring(ring, c, BpConfig(iterations=4)).beliefs)


def test_ml_batch_lexicographic_tie_break():
    c = qpsk()
    H = np.zeros((2, 2, 2), dtype=complex)
    y = np.zeros((2, 2), dtype=complex)
    hard = batch.ml_hard_batch(H, y, 1.0, c)
    assert np.array_equal(hard, np.zeros((2, 2), dtype=int))


@st.composite
def lattice_cases(draw):
    """Odd M and uneven lattice splits included; QAM16 only where M <= 2."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(m, 6))
    name = draw(st.sampled_from(("QPSK", "QAM16") if m <= 2 else ("QPSK",)))
    snr = draw(st.floats(-10.0, 40.0))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    iters = draw(st.integers(1, 4))
    return m, n, name, snr, seed, iters


@settings(max_examples=100, deadline=None)
@given(lattice_cases())
def test_lattice_batches_match_reference_across_snr(case):
    m, n, name, snr, seed, iters = case
    c = get_constellation(name)
    sigma2 = 10.0 ** (-snr / 10.0)
    cfg = SimConfig(m=m, n=n, constellation=name, snr_db=(snr,), seed=seed)
    H, _, y = generate_batch(cfg, c, sigma2, 0, 0, 3)
    post = batch.map_marginals_batch(H, y, sigma2, c)
    hard = batch.ml_hard_batch(H, y, sigma2, c)
    bp1 = {singly: batch.bp1_batch(H, y, sigma2, c, iters, singly_connected=singly)
           for singly in (False, True)}
    assert np.all(np.isfinite(post))
    for b in range(3):
        ch = ChannelInstance(H=H[b], sigma2=sigma2)
        assert np.max(np.abs(post[b] - map_marginals(ch, c, y[b]))) < 1e-10
        assert np.array_equal(hard[b], ml_hard(ch, c, y[b]))
        for singly, beliefs in bp1.items():
            assert np.all(np.isfinite(beliefs[b]))
            ref = bp1_factor_graph(ch, c, y[b], BpConfig(iterations=iters),
                                   singly_connected=singly)
            assert np.max(np.abs(beliefs[b] - ref.beliefs)) < 1e-10


@st.composite
def pairwise_cases(draw):
    """Random ring permutations, QPSK and QAM16 at every M."""
    m = draw(st.integers(2, 5))
    n = draw(st.integers(m, 6))
    name = draw(st.sampled_from(("QPSK", "QAM16")))
    snr = draw(st.floats(-10.0, 40.0))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    iters = draw(st.integers(1, 4))
    perm = tuple(draw(st.permutations(range(m))))
    return m, n, name, snr, seed, iters, perm


@settings(max_examples=100, deadline=None)
@given(pairwise_cases())
# high SNR: a link solve that subtracts h_j h_j^H and h_i h_i^H from the
# full covariance missed the reference by 4.0e-12 on trial 0 of this case
@example((3, 3, "QAM16", 27.7, 347247696, 1, (0, 1, 2)))
# an oracle that formed K_ji and solved it by Cholesky missed the batch's BP2
# beliefs by 1.5e-11 on trial 2 of this case
@example((3, 4, "QAM16", 34.420987769493195, 3825313570, 1, (0, 2, 1)))
def test_pairwise_batches_match_reference_across_snr(case):
    m, n, name, snr, seed, iters, perm = case
    c = get_constellation(name)
    sigma2 = 10.0 ** (-snr / 10.0)
    cfg = SimConfig(m=m, n=n, constellation=name, snr_db=(snr,), seed=seed)
    H, _, y = generate_batch(cfg, c, sigma2, 0, 0, 3)
    t = batch.link_tables(H, y, sigma2)
    kernels = {"BP2": batch.bp2_batch(t, c, iters),
               "BP3": batch.bp3_batch(t, c, iters, order=perm),
               "FB": batch.fb_batch(H, y, sigma2, c, iters, order=perm)}
    bp = BpConfig(iterations=iters)
    for b in range(3):
        ch = ChannelInstance(H=H[b], sigma2=sigma2)
        refs = {"BP2": bp2_fully_connected(build_graph(ch, y[b], Topology.FULLY_CONNECTED), c, bp),
                "BP3": bp3_ring(build_graph(ch, y[b], Topology.RING, perm), c, bp),
                "FB": forward_backward_detect(bidiagonalize(ch, perm), c, y[b], bp)}
        for kernel, beliefs in kernels.items():
            assert np.all(np.isfinite(beliefs[b])), kernel
            assert np.max(np.abs(beliefs[b] - refs[kernel].beliefs)) < 1e-12, kernel


def _graph_from_tables(t, b, channel, topology, order):
    """Oracle graph whose links are the batch's own table entries for trial b."""
    m = channel.n_tx
    links = {(j, i): PairwiseLink(j=j, i=i, c=None, y_prime=t.y_prime[b, j, i],
                                  a_jj=t.a_diag[b, j, i], a_ji=t.a_cross[b, j, i],
                                  sigma2_cond=t.a_diag[b, j, i], u=t.u[b, j, i], v=t.v[b, j, i],
                                  u_var=t.u_var[b, j, i], v_var=t.v_var[b, j, i])
             for j in range(m) for i in range(m) if i != j}
    return PairwiseGraph(topology=topology, channel=channel, links=links, order=order)


@st.composite
def gaussian_cases(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(m, 6))
    name = draw(st.sampled_from(("QPSK", "QAM16")))
    snr = draw(st.floats(-10.0, 40.0))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    sweeps = draw(st.integers(1, 300))
    perm = tuple(draw(st.permutations(range(m))))
    return m, n, name, snr, seed, sweeps, perm


@settings(max_examples=100, deadline=None)
@given(gaussian_cases())
def test_gaussian_batches_match_reference_across_snr(case):
    """The oracle reads the batch's link tables, so only the kernels are compared."""
    m, n, name, snr, seed, sweeps, perm = case
    c = get_constellation(name)
    sigma2 = 10.0 ** (-snr / 10.0)
    cfg = SimConfig(m=m, n=n, constellation=name, snr_db=(snr,), seed=seed)
    H, _, y = generate_batch(cfg, c, sigma2, 0, 0, 3)
    t = batch.link_tables(H, y, sigma2)
    m2 = batch.gbp2g_batch(t, sweeps)
    m3 = batch.gbp3g_batch(t, sweeps, order=perm)
    gcfg = GbpConfig(max_sweeps=sweeps, tol=0.0)
    for b in range(3):
        ch = ChannelInstance(H=H[b], sigma2=sigma2)
        full = _graph_from_tables(t, b, ch, Topology.FULLY_CONNECTED, tuple(range(m)))
        ring = _graph_from_tables(t, b, ch, Topology.RING, perm)
        assert np.max(np.abs(m2[b] - gbp2g(full, gcfg).means[-1])) < 1e-12
        assert np.max(np.abs(m3[b] - gbp3g(ring, gcfg).means[-1])) < 1e-12


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def test_gaussian_batches_independent_of_partitioning():
    # 5x6 QAM16 in halves of 37; 8x8 QPSK in 256 + 255 + 1 trials of a
    # 512-trial batch, whose GBP2G trials freeze and retire at different sweeps
    for m, n, name, snr, trials, cuts, order in (
            (5, 6, "QAM16", 25.0, 74, (37,), (3, 0, 4, 1, 2)),
            (8, 8, "QPSK", 20.0, 512, (256, 511), (6, 7, 0, 1, 2, 3, 4, 5))):
        c = get_constellation(name)
        sigma2 = 10.0 ** (-snr / 10.0)
        cfg = SimConfig(m=m, n=n, constellation=name, snr_db=(snr,), seed=3)
        H, _, y = generate_batch(cfg, c, sigma2, 0, 0, trials)
        t = batch.link_tables(H, y, sigma2)
        parts = [t.trials(part) for part in map(slice, (0,) + cuts, cuts + (trials,))]
        kernels = (lambda tables: batch.gbp2g_batch(tables, 200),
                   lambda tables: batch.gbp3g_batch(tables, 200, order=order))
        for kernel in kernels:
            assert np.array_equal(_bits(kernel(t)), _bits(np.concatenate([kernel(p) for p in parts])))


def _plain_gbp2g_states(links, sweeps):
    """(mu, var), trials last, after 0, 1, ..., ``sweeps`` sweeps of the
    fully-connected Gaussian recursion run on every trial every sweep: the
    plain sweep whose bits gbp2g_batch must keep."""
    m = links.a_diag.shape[1]
    u, v, uv, vv = (np.ascontiguousarray(a.transpose(2, 1, 0))
                    for a in (links.u, links.v, links.u_var, links.v_var))
    self_edge = (np.arange(m), np.arange(m))
    uv[self_edge] = np.inf
    mu = np.zeros(u.shape, dtype=complex)
    var = np.ones(u.shape)
    var[self_edge] = np.inf
    yield mu, var
    for _ in range(sweeps):
        prec = 1.0 / var
        wmean = mu * prec
        lam_prec = prec.sum(axis=0)[:, None] - prec.transpose(1, 0, 2)
        lam_mean = (wmean.sum(axis=0)[:, None] - wmean.transpose(1, 0, 2)) * (1.0 / lam_prec)
        var = uv + vv / lam_prec
        mu = u + v * lam_mean
        yield mu, var


def _plain_gbp2g_means(mu, var):
    prec = 1.0 / var
    return ((mu * prec).sum(axis=0) * (1.0 / prec.sum(axis=0))).T


def _same_state(a, b):
    """Per trial, whether two (M, M, B) arrays agree bit for bit."""
    return (_bits(a) == _bits(b)).reshape(-1, a.shape[-1], a.itemsize // 8).all(axis=(0, 2))


class _ShortcutPaths:
    """Replays gbp2g_batch's decisions on a plain trajectory of ``sweeps``
    sweeps and counts the trials that take each shortcut: ``freeze``,
    ``retire`` and ``cycle`` (retired while the variances still move).

    Checks fall after t sweeps with sweeps - t a positive multiple of 8; a
    trial freezes when its variances equal the previous sweep's and retires
    when its state equals the one 8 sweeps (one check) earlier; a group moves
    only when an eighth of it qualifies."""

    def __init__(self, sweeps, trials):
        self.sweeps = sweeps
        self.group = np.zeros(trials, int)  # 0 moving, 1 frozen, 2 retired
        self.counts = dict(freeze=0, retire=0, cycle=0)

    def check(self, done, settled, repeats):
        left = self.sweeps - done
        if left <= 0 or left % 8:
            return
        moving, frozen = self.group == 0, self.group == 1
        repeats = repeats if done - 8 >= 1 else np.zeros_like(repeats)
        retire_f = repeats & frozen
        if 8 * np.count_nonzero(retire_f) < np.count_nonzero(frozen):
            retire_f[:] = False
        retire_m, freeze_m = repeats & moving, settled & ~repeats & moving
        if 8 * np.count_nonzero(retire_m | freeze_m) < np.count_nonzero(moving):
            retire_m[:] = freeze_m[:] = False
        self.counts["freeze"] += np.count_nonzero(freeze_m)
        self.counts["retire"] += np.count_nonzero(retire_f | retire_m)
        self.counts["cycle"] += np.count_nonzero(retire_m & ~settled)
        self.group[retire_f | retire_m] = 2
        self.group[freeze_m] = 1


GBP2G_SWEEPS = (0, 1, 7, 8, 9, 37, 199, 200, 1000)


@pytest.mark.parametrize("name", ["QPSK", "QAM16"])
@pytest.mark.parametrize("m", [3, 4, 5, 8])
def test_gbp2g_shortcuts_keep_every_bit(m, name):
    """gbp2g_batch freezes settled variances and retires trials whose state
    repeats; its means must equal the plain sweep's bit for bit, over SNR,
    sweep counts and batch sizes, and every shortcut must be taken."""
    c = get_constellation(name)
    counts = dict(freeze=0, retire=0, cycle=0)
    for snr in (-10.0, 10.0, 20.0, 40.0):
        sigma2 = 10.0 ** (-snr / 10.0)
        cfg = SimConfig(m=m, n=m, constellation=name, snr_db=(snr,), seed=23)
        for trials in (1, 37, 512):
            H, _, y = generate_batch(cfg, c, sigma2, 0, 0, trials)
            t = batch.link_tables(H, y, sigma2)
            # 1000 sweeps of 512 trials would take most of the test's time
            sweep_counts = [s for s in GBP2G_SWEEPS if trials < 512 or s <= 200]
            paths = [_ShortcutPaths(s, trials) for s in sweep_counts]
            want, recent = {}, deque(maxlen=9)
            for done, (mu, var) in enumerate(_plain_gbp2g_states(t, max(sweep_counts))):
                recent.append((mu, var))
                if done in sweep_counts:
                    want[done] = _plain_gbp2g_means(mu, var)
                if done:
                    settled = _same_state(var, recent[-2][1])
                    repeats = _same_state(mu, recent[0][0]) & _same_state(var, recent[0][1])
                    for p in paths:
                        p.check(done, settled, repeats)
            for sweeps, ref in want.items():
                assert np.array_equal(_bits(batch.gbp2g_batch(t, sweeps)), _bits(ref)), (
                    snr, trials, sweeps)
            for p in paths:
                for k in counts:
                    counts[k] += p.counts[k]
    print(f"GBP2G shortcuts at M={m} {name}: {counts}")
    assert all(counts.values()), counts


def test_discrete_pairwise_batches_independent_of_partitioning():
    c = get_constellation("QAM16")
    sigma2 = 10.0 ** (-14.0 / 10.0)
    cfg = SimConfig(m=5, n=6, constellation="QAM16", snr_db=(14.0,), seed=4)
    H, _, y = generate_batch(cfg, c, sigma2, 0, 0, 2 * 37)
    perm = (3, 0, 4, 1, 2)

    def kernels(part):
        t = batch.link_tables(H[part], y[part], sigma2)
        return (batch.bp2_batch(t, c, 3), batch.bp3_batch(t, c, 3, order=perm),
                batch.fb_batch(H[part], y[part], sigma2, c, 3, order=perm))

    whole = kernels(slice(None))
    # halves of 37, the second ending in a lone trial
    parts = [kernels(part) for part in (slice(None, 37), slice(37, 73), slice(73, None))]
    for k, beliefs in enumerate(whole):
        assert np.array_equal(beliefs, np.concatenate([p[k] for p in parts]))


@pytest.mark.parametrize("m,n,name", [(4, 4, "QPSK"), (8, 8, "QPSK"), (4, 6, "QAM16"),
                                      (1, 1, "QPSK")])
def test_shared_posterior_gives_the_same_bits(m, n, name):
    """LMMSE, FB and the link tables handed one factorisation equal their
    three-argument calls, which factor for themselves."""
    c = get_constellation(name)
    sigma2 = 10.0 ** (-12.0 / 10.0)
    cfg = SimConfig(m=m, n=n, constellation=name, snr_db=(12.0,), seed=11)
    H, _, y = generate_batch(cfg, c, sigma2, 0, 0, 24)
    post = batch.factor_posterior(H, y, sigma2)
    for own, shared in zip(batch.lmmse_batch(H, y, sigma2),
                           batch.lmmse_batch(H, y, sigma2, posterior=post)):
        assert np.array_equal(own, shared)
    own, shared = batch.link_tables(H, y, sigma2), batch.link_tables(H, y, sigma2, posterior=post)
    for f in fields(LinkTables):
        assert np.array_equal(getattr(own, f.name), getattr(shared, f.name)), f.name
    if m >= 2:
        for perm in (None, tuple(reversed(range(m)))):
            assert np.array_equal(batch.fb_batch(H, y, sigma2, c, 3, order=perm),
                                  batch.fb_batch(H, y, sigma2, c, 3, order=perm, posterior=post))


def test_lattice_capacity_checked_before_enumeration(monkeypatch):
    def enumerate_lattice(*args):
        raise AssertionError("lattice enumerated before the capacity check")

    monkeypatch.setattr(batch, "lattice_indices", enumerate_lattice)
    c = qpsk()
    H = np.zeros((1, 13, 13), dtype=complex)
    y = np.zeros((1, 13), dtype=complex)
    kernels = (batch.ml_hard_batch, batch.map_marginals_batch,
               lambda *a: batch.bp1_batch(*a, 4),
               lambda *a: batch.bp1_batch(*a, 4, singly_connected=True))
    for kernel in kernels:
        with pytest.raises(CapacityError, match="2\\^26"):
            kernel(H, y, 1.0, c)


def _kernel_outputs(H, y, sigma2, c, perm):
    """Every batch kernel's output on one batch, each as a tuple of (B, ...) arrays."""
    t = batch.link_tables(H, y, sigma2)
    out = {"links": tuple(getattr(t, f.name) for f in fields(LinkTables)),
           "LMMSE": batch.lmmse_batch(H, y, sigma2),
           "BP2": (batch.bp2_batch(t, c, 3),),
           "BP3": (batch.bp3_batch(t, c, 3, order=perm),),
           "FB": (batch.fb_batch(H, y, sigma2, c, 3, order=perm),),
           "GBP2G": (batch.gbp2g_batch(t, 40),),
           "GBP3G": (batch.gbp3g_batch(t, 40, order=perm),)}
    # the lattice kernels only up to 2^12 lattice points: at 4x6 QAM16 one
    # 64-trial call would hold a 0.4 GB residual table
    if H.shape[2] * c.bits_per_symbol <= 12:
        out.update({"ML": (batch.ml_hard_batch(H, y, sigma2, c),),
                    "MAP": (batch.map_marginals_batch(H, y, sigma2, c),),
                    "BP1": (batch.bp1_batch(H, y, sigma2, c, 3),),
                    "BP1 singly": (batch.bp1_batch(H, y, sigma2, c, 3, singly_connected=True),)})
    return out


def _lone_case(m, n, name, snr, trials=64, alone=64):
    return pytest.param(m, n, name, snr, trials, alone,
                        id="-".join(map(str, (m, n, name, snr) + ((trials,) if trials != 64 else ()))))


@pytest.mark.parametrize("m,n,name,snr,trials,alone", [
    _lone_case(4, 4, "QPSK", 6.0), _lone_case(4, 8, "QPSK", 3.0), _lone_case(3, 4, "QAM16", 14.0),
    _lone_case(4, 6, "QAM16", 14.0),
    # (M, M, B) complex temporaries of 512 trials pass 256 KiB, where numpy
    # starts to reuse a temporary operand as the output of a product
    _lone_case(8, 8, "QPSK", 20.0, trials=512, alone=16)])
def test_lone_trial_matches_its_row_of_the_batch(m, n, name, snr, trials, alone):
    """A trial alone in its batch (--batch-size 1, or a final one-trial batch)
    gets the bits it gets inside a larger batch, from every kernel; the
    first ``alone`` trials of a ``trials``-trial batch are checked."""
    c = get_constellation(name)
    sigma2 = 10.0 ** (-snr / 10.0)
    perm = tuple(reversed(range(m)))
    cfg = SimConfig(m=m, n=n, constellation=name, snr_db=(snr,), seed=17)
    H, _, y = generate_batch(cfg, c, sigma2, 0, 0, trials)
    whole = _kernel_outputs(H, y, sigma2, c, perm)
    differ = dict.fromkeys(whole, 0)
    for b in range(alone):
        lone = _kernel_outputs(H[b:b + 1], y[b:b + 1], sigma2, c, perm)
        for kernel, arrays in whole.items():
            differ[kernel] += not all(np.array_equal(a[b:b + 1], one)
                                      for a, one in zip(arrays, lone[kernel]))
    assert not any(differ.values()), str(differ)


def test_lone_trial_matches_its_row_of_a_cli_sized_gbp3g_batch():
    """GBP3G at the CLI's default batch of 4096 trials, 4x5 QPSK."""
    c = qpsk()
    sigma2 = 10.0 ** (-8.0 / 10.0)
    perm = (2, 0, 3, 1)
    cfg = SimConfig(m=4, n=5, snr_db=(8.0,), seed=17)
    H, _, y = generate_batch(cfg, c, sigma2, 0, 0, 4096)
    whole = batch.gbp3g_batch(batch.link_tables(H, y, sigma2), 40, order=perm)
    differ = [b for b in range(64) if not np.array_equal(whole[b:b + 1], batch.gbp3g_batch(
        batch.link_tables(H[b:b + 1], y[b:b + 1], sigma2), 40, order=perm))]
    assert not differ, differ


@pytest.mark.parametrize("m,n,name", [(2, 9, "QPSK"), (3, 9, "QPSK"), (2, 2, "QPSK"),
                                      (5, 5, "QPSK"), (6, 6, "QPSK"), (3, 3, "QAM16")])
def test_lone_trial_matches_its_row_of_a_lattice_batch(m, n, name):
    """ML, MAP and BP1 (both graphs) on a lone trial against its row of 64
    trials (seed 3, 6 dB), at shapes where a BLAS product over the whole
    batch once rounded the lattice residuals differently with its width."""
    c = get_constellation(name)
    sigma2 = 10.0 ** (-6.0 / 10.0)
    cfg = SimConfig(m=m, n=n, constellation=name, snr_db=(6.0,), seed=3)
    H, _, y = generate_batch(cfg, c, sigma2, 0, 0, 64)

    def kernels(part):
        return {"residuals": batch.lattice_residuals(H[part], y[part], c),
                "ML": batch.ml_hard_batch(H[part], y[part], sigma2, c),
                "MAP": batch.map_marginals_batch(H[part], y[part], sigma2, c),
                "BP1": batch.bp1_batch(H[part], y[part], sigma2, c, 3),
                "BP1 singly": batch.bp1_batch(H[part], y[part], sigma2, c, 3,
                                              singly_connected=True)}

    whole = kernels(slice(None))
    differ = dict.fromkeys(whole, 0)
    for b in range(64):
        for kernel, lone in kernels(slice(b, b + 1)).items():
            differ[kernel] += not np.array_equal(whole[kernel][..., b:b + 1]
                                                 if kernel == "residuals" else
                                                 whole[kernel][b:b + 1], lone)
    assert not any(differ.values()), str(differ)


@pytest.mark.parametrize("m,n,name", [(1, 1, "QPSK"), (2, 3, "QPSK"), (4, 4, "QPSK"),
                                      (5, 5, "QPSK"), (3, 4, "QAM16")])
def test_shared_residuals_give_the_same_bits(m, n, name):
    """ML, MAP and BP1 handed one read-only residual table equal their calls
    without it, which build the table for themselves; none writes into it."""
    c = get_constellation(name)
    sigma2 = 10.0 ** (-8.0 / 10.0)
    cfg = SimConfig(m=m, n=n, constellation=name, snr_db=(8.0,), seed=23)
    H, _, y = generate_batch(cfg, c, sigma2, 0, 0, 24)
    table = batch.lattice_residuals(H, y, c)
    assert table.shape == (c.size ** m, n, 24) and table.flags.c_contiguous
    kept = table.copy()
    table.flags.writeable = False
    kernels = {"ML": lambda **kw: batch.ml_hard_batch(H, y, sigma2, c, **kw),
               "MAP": lambda **kw: batch.map_marginals_batch(H, y, sigma2, c, **kw),
               "BP1": lambda **kw: batch.bp1_batch(H, y, sigma2, c, 3, **kw),
               "BP1 singly": lambda **kw: batch.bp1_batch(H, y, sigma2, c, 3,
                                                          singly_connected=True, **kw)}
    for kernel, run in kernels.items():
        assert np.array_equal(run(), run(residuals=table)), kernel
    assert np.array_equal(table, kept)


@pytest.mark.parametrize("m,n,name", [(1, 2, "QPSK"), (3, 4, "QPSK"), (2, 3, "QAM16")])
def test_lattice_residuals_match_the_direct_product(m, n, name):
    """The split table equals |y - H s|^2 of every lattice point, in
    ``lattice_indices`` order, up to rounding."""
    c = get_constellation(name)
    cfg = SimConfig(m=m, n=n, constellation=name, snr_db=(10.0,), seed=29)
    H, _, y = generate_batch(cfg, c, 0.1, 0, 0, 5)
    lat = c.points[lattice_indices(m, c.size)]  # (L, M)
    direct = np.abs(y.T[None] - np.einsum("bnm,lm->lnb", H, lat)) ** 2
    assert np.allclose(batch.lattice_residuals(H, y, c), direct, rtol=1e-12, atol=1e-12)


def test_trial_blocks_cover_the_batch_in_nearly_equal_widths(monkeypatch):
    monkeypatch.setattr(batch, "_BLOCK_BYTES", 1000)
    monkeypatch.setattr(batch, "_MIN_BLOCK", 3)
    for B, bytes_per_trial, widths in ((10, 100, [10]), (25, 100, [8, 8, 9]), (7, 500, [2, 2, 3]),
                                       (7, 10 ** 9, [2, 2, 3]), (2, 1, [2]), (0, 100, [0])):
        blocks = batch.trial_blocks(B, bytes_per_trial)
        assert [b.stop - b.start for b in blocks] == widths
        assert np.array_equal(np.arange(B)[np.r_[tuple(blocks)]], np.arange(B))


def _forced_blocks(monkeypatch, widths):
    """Blocks of two trials at most, whatever the budget; the widths of every
    ``trial_blocks`` call go to ``widths``."""
    monkeypatch.setattr(batch, "_BLOCK_BYTES", 1)
    monkeypatch.setattr(batch, "_MIN_BLOCK", 2)
    blocks = batch.trial_blocks
    monkeypatch.setattr(batch, "trial_blocks", lambda *args: widths.append(
        [b.stop - b.start for b in blocks(*args)]) or blocks(*args))


@pytest.mark.parametrize("m,n,name,trials", [(4, 4, "QPSK", 9), (5, 5, "QPSK", 7),
                                             (3, 3, "QAM16", 9), (8, 8, "QPSK", 9)])
def test_trial_blocks_move_no_bit(monkeypatch, m, n, name, trials):
    """ML, MAP, BP1 (both graphs), the residual tables and BP2 in blocks of
    two trials, the first of them a lone trial, give the bits of one block."""
    c = get_constellation(name)
    sigma2 = 10.0 ** (-8.0 / 10.0)
    cfg = SimConfig(m=m, n=n, constellation=name, snr_db=(8.0,), seed=37)
    H, _, y = generate_batch(cfg, c, sigma2, 0, 0, trials)
    t = batch.link_tables(H, y, sigma2)

    def kernels():
        out = {"BP2": batch.bp2_batch(t, c, 3)}
        if m < 8:
            out.update({
                "residuals": np.concatenate([batch.lattice_residuals(H[part], y[part], c)
                                             for part in batch.lattice_blocks(H, c)], axis=-1),
                "ML": batch.ml_hard_batch(H, y, sigma2, c),
                "MAP": batch.map_marginals_batch(H, y, sigma2, c),
                "BP1": batch.bp1_batch(H, y, sigma2, c, 3),
                "BP1 singly": batch.bp1_batch(H, y, sigma2, c, 3, singly_connected=True)})
        return out

    whole = kernels()
    widths = []
    _forced_blocks(monkeypatch, widths)
    blocked = kernels()
    expected = [1] + [2] * (trials // 2)
    assert widths == [expected] * len(blocked)
    for kernel, a in whole.items():
        assert np.array_equal(_bits(a), _bits(blocked[kernel])), kernel


@pytest.mark.parametrize("trials", [1, 37])
@pytest.mark.parametrize("m", [1, 2, 4, 8])
def test_kernels_run_on_read_only_inputs(m, trials):
    """Every kernel reads H, y, the posterior, the link tables and the
    residual tables without writing into them: sim._run_arms shares them,
    read-only, between its two lanes. The lattice kernels run at 8x8 on a
    lone trial only, whose residual table alone takes 4 MiB."""
    c = qpsk()
    sigma2 = 0.1
    perm = tuple(reversed(range(m)))
    H, _, y = generate_batch(SimConfig(m=m, n=m, seed=53), c, sigma2, 0, 0, trials)

    def frozen(*arrays):
        for a in arrays:
            a.flags.writeable = False
        return arrays

    frozen(H, y)
    post = frozen(*batch.factor_posterior(H, y, sigma2))
    t = batch.link_tables(H, y, sigma2, posterior=post)
    frozen(*vars(t).values())
    batch.lmmse_batch(H, y, sigma2, posterior=post)
    batch.bp2_batch(t, c, 3)
    batch.bp3_batch(t, c, 3, order=perm)
    batch.gbp2g_batch(t, 40)
    batch.gbp3g_batch(t, 40, order=perm)
    if m >= 2:
        batch.fb_batch(H, y, sigma2, c, 3, order=perm, posterior=post)
    if m < 8 or trials == 1:
        for part in batch.lattice_blocks(H, c):
            res, = frozen(batch.lattice_residuals(H[part], y[part], c))
            batch.ml_hard_batch(H[part], y[part], sigma2, c, residuals=res)
            batch.map_marginals_batch(H[part], y[part], sigma2, c, residuals=res)
            batch.bp1_batch(H[part], y[part], sigma2, c, 3, residuals=res)
            batch.bp1_batch(H[part], y[part], sigma2, c, 3, singly_connected=True, residuals=res)
