"""Every vectorised kernel must reproduce its single-instance reference."""

from collections import deque
from dataclasses import fields
from unittest.mock import patch

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mimobp import (BpConfig, CapacityError, ChannelInstance, GbpConfig, Topology,
                    bidiagonalize, bp1_factor_graph, bp2_fully_connected,
                    bp3_ring, build_graph, forward_backward_detect, gbp2g,
                    gbp3g, get_constellation, lmmse, map_marginals, ml_hard, qpsk)
from mimobp import batch, exact
from mimobp.batch import LinkTables
from mimobp.channel import Constellation
from mimobp.exact import lattice_indices
from mimobp.pairwise import PairwiseGraph, PairwiseLink, build_link, ring_order
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
# (|got - ref| / ref), both at M = N = 6 above 33 dB. The oracle's MSE,
# exact.lmmse, was within 1.6e-14 on 1000 draws.
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
        oracle = lmmse(ChannelInstance(H=H[b], sigma2=sigma2), y[b]).mmse
        assert np.max(np.abs(oracle - ref_mse) / ref_mse) < LMMSE_TOL


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


@pytest.mark.parametrize("m", [2, 3])
def test_discrete_pairwise_batches_refuse_a_non_uniform_prior(m):
    """BP2 and BP3 raise the ValueError of their oracles, at M = 2, where
    BP2 runs the ring, and above; no beliefs come back as if uniform."""
    base = qpsk()
    # unit-modulus points keep average energy 1 under any prior
    skew = Constellation("QPSK", base.points, 2, base.bit_labels, np.array([0.4, 0.3, 0.2, 0.1]))
    H, _, y = generate_batch(SimConfig(m=m, n=m), base, 0.3, 0, 0, 4)
    t = batch.link_tables(H, y, 0.3)
    g = build_graph(ChannelInstance(H=H[0], sigma2=0.3), y[0], Topology.RING)
    with pytest.raises(ValueError, match="uniform"):
        bp3_ring(g, skew, BpConfig())
    with pytest.raises(ValueError, match="uniform"):
        batch.bp2_batch(t, skew, 3)
    with pytest.raises(ValueError, match="uniform"):
        batch.bp3_batch(t, skew, 3)


def test_fb_batch_matches_reference(stacked):
    c, H, _, y = stacked
    beliefs = batch.fb_batch(H, y, SIGMA2, c, 4)
    for b, ch, yb in instances(H, y):
        ref = forward_backward_detect(bidiagonalize(ch), c, yb, BpConfig(iterations=4))
        assert np.max(np.abs(beliefs[b] - ref.beliefs)) < 1e-12


def test_bp1_batch_matches_reference(stacked):
    c, H, _, y = stacked
    beliefs = batch.bp1_batch(H, y, SIGMA2, c, 4)
    for b, ch, yb in instances(H, y):
        ref = bp1_factor_graph(ch, c, yb, BpConfig(iterations=4))
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
    beliefs2 = batch.bp2_batch(t, c, 4)
    beliefs3 = batch.bp3_batch(t, c, 4)
    for b in range(3):
        ch = ChannelInstance(H=H[b], sigma2=sigma2)
        full = build_graph(ch, y[b], Topology.FULLY_CONNECTED)
        assert np.array_equal(means[b], gbp2g(full, GbpConfig(max_sweeps=10, tol=0.0)).means[-1])
        assert np.array_equal(beliefs2[b], bp2_fully_connected(full, c, BpConfig(iterations=4)).beliefs)
        ring = build_graph(ch, y[b], Topology.RING)
        assert np.array_equal(beliefs3[b], bp3_ring(ring, c, BpConfig(iterations=4)).beliefs)


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
    bp1 = batch.bp1_batch(H, y, sigma2, c, iters)
    assert np.all(np.isfinite(post))
    for b in range(3):
        ch = ChannelInstance(H=H[b], sigma2=sigma2)
        assert np.max(np.abs(post[b] - map_marginals(ch, c, y[b]))) < 1e-10
        assert np.array_equal(hard[b], ml_hard(ch, c, y[b]))
        assert np.all(np.isfinite(bp1[b]))
        ref = bp1_factor_graph(ch, c, y[b], BpConfig(iterations=iters))
        assert np.max(np.abs(bp1[b] - ref.beliefs)) < 1e-10


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


def _var_coefficients(links):
    """The variance recursion's offset 1 / (1 + a_jj) and slope |v|^2, whole tables."""
    return 1.0 / (1.0 + links.a_diag), np.abs(links.v) ** 2


def _graph_from_tables(t, b, channel, topology, order):
    """Oracle graph whose links are the batch's own table entries for trial b."""
    m = channel.n_tx
    u_var, v_var = _var_coefficients(t)
    links = {(j, i): PairwiseLink(j=j, i=i, c=None, y_prime=t.y_prime[b, j, i],
                                  a_jj=t.a_diag[b, j, i], a_ji=t.a_cross[b, j, i],
                                  sigma2_cond=t.a_diag[b, j, i], u=t.u[b, j, i], v=t.v[b, j, i],
                                  u_var=u_var[b, j, i], v_var=v_var[b, j, i])
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


@pytest.mark.parametrize("dtype", [float, complex])
def test_lone_trial_sum_adds_rows_in_order(dtype):
    """With one trial on the trailing axis, batch._sum adds the slices along
    ``axis`` one after another, as numpy does for a wider batch; an empty
    axis sums to zeros."""
    rng = np.random.default_rng(3)
    a = rng.standard_normal((9, 12, 1)) * 10.0 ** rng.integers(-8, 8, (9, 12, 1))
    if dtype is complex:
        a = a + 1j * rng.standard_normal(a.shape)
    for axis in (0, 1, -2):
        parts = np.moveaxis(a, axis, 0)
        want = parts[0].copy()
        for part in parts[1:]:
            want += part
        for keepdims in (False, True):
            got = batch._sum(a, axis, keepdims=keepdims)
            ref = np.expand_dims(want, axis) if keepdims else want
            assert got.shape == ref.shape, (axis, keepdims)
            assert np.array_equal(_bits(got), _bits(ref)), (axis, keepdims)
    empty = batch._sum(np.ones((3, 0, 1), dtype), 1, keepdims=True)
    assert empty.shape == (3, 1, 1) and not np.any(empty)


def _stacked_gbp3g(links, sweeps, order=None):
    """The ring Gaussian kernel composed as four complex chains (forward and
    backward mean, forward and backward variance) stacked as (4, M, B), each
    doubling step multiplying a rolled copy: the composition whose bits
    gbp3g_batch must keep."""
    B, m, _ = links.a_diag.shape
    tgt = np.array(ring_order(m, order))
    rows = np.stack([tgt, tgt[::-1]])
    cols = np.roll(rows, 1, axis=1)
    u, v, u_var, v_var = (a[:, rows, cols] for a in (links.u, links.v, *_var_coefficients(links)))
    off, slope = (np.ascontiguousarray(np.concatenate(pair, axis=1).transpose(1, 2, 0))
                  for pair in ((u, u_var), (v, v_var)))

    def times_rolled(a, b, shift):
        rolled = np.roll(b, shift, axis=1)
        return np.multiply(a, rolled, out=rolled)

    acc_off, acc_slope = np.zeros_like(off), np.ones_like(slope)
    hops, step = 0, 1
    while sweeps:
        if sweeps & 1:
            acc_off = acc_off + times_rolled(acc_slope, off, hops)
            acc_slope = times_rolled(acc_slope, slope, hops)
            hops += step
        sweeps >>= 1
        if sweeps:
            off = off + times_rolled(slope, off, step)
            slope = times_rolled(slope, slope, step)
            step *= 2
    var = (acc_off[2:] + acc_slope[2:]).real
    mu_f, mu_b, var_f, var_b = acc_off[0], acc_off[1, ::-1], var[0], var[1, ::-1]
    bel = (mu_f / var_f + mu_b / var_b) / (1.0 / var_f + 1.0 / var_b)
    out = np.empty((B, m), dtype=complex)
    out[:, tgt] = bel.T
    return out


@pytest.mark.parametrize("m", range(1, 9))
def test_gbp3g_keeps_every_bit(m):
    """gbp3g_batch composes the mean chains as one complex stack and the
    variance chains as one real stack, without rolled copies; its means must
    equal the four-chain complex stack's bit for bit, over SNR, sweep counts,
    ring orders and batch sizes (at M <= 2 through gbp2g_batch too)."""
    c = qpsk()
    orders = (None, tuple(int(k) for k in np.random.default_rng(m).permutation(m)))
    for snr in (-100.0, -10.0, 20.0, 40.0, 100.0):
        sigma2 = 10.0 ** (-snr / 10.0)
        cfg = SimConfig(m=m, n=m, snr_db=(snr,), seed=29)
        for trials in (1, 37, 300):
            H, _, y = generate_batch(cfg, c, sigma2, 0, 0, trials)
            t = batch.link_tables(H, y, sigma2)
            for sweeps in sorted({1, 2, m, 2 * m - 1, 199, 200, 257}):
                for order in orders:
                    want = _bits(_stacked_gbp3g(t, sweeps, order))
                    got = _bits(batch.gbp3g_batch(t, sweeps, order=order))
                    assert np.array_equal(got, want), (snr, trials, sweeps, order)
                if m <= 2:
                    assert np.array_equal(_bits(batch.gbp2g_batch(t, sweeps)),
                                          _bits(_stacked_gbp3g(t, sweeps))), (snr, trials, sweeps)


def _plain_gbp2g_states(links, sweeps):
    """(w, prec), trials last, after 0, 1, ..., ``sweeps`` sweeps of the
    fully-connected Gaussian recursion in information form (weighted means
    and precisions) run on every trial every sweep: the plain sweep whose
    bits gbp2g_batch must keep."""
    m = links.a_diag.shape[1]
    u, v, uv, vv = (np.ascontiguousarray(a.transpose(2, 1, 0))
                    for a in (links.u, links.v, *_var_coefficients(links)))
    self_edge = (np.arange(m), np.arange(m))
    uv[self_edge] = np.inf
    w = np.zeros(u.shape, dtype=complex)
    prec = np.ones(u.shape)
    prec[self_edge] = 0.0
    yield w, prec
    for _ in range(sweeps):
        lam_prec = prec.sum(axis=0)[:, None] - prec.transpose(1, 0, 2)
        prec = 1.0 / (uv + vv / lam_prec)
        d = np.multiply(v, prec / lam_prec)
        w = u * prec + np.multiply(w.sum(axis=0)[:, None] - w.transpose(1, 0, 2), d)
        yield w, prec


def _plain_gbp2g_means(w, prec):
    return (w.sum(axis=0) * (1.0 / prec.sum(axis=0))).T


def _same_state(a, b):
    """Per trial, whether two (M, M, B) arrays agree bit for bit."""
    return (_bits(a) == _bits(b)).reshape(-1, a.shape[-1], a.itemsize // 8).all(axis=(0, 2))


class _ShortcutPaths:
    """Replays gbp2g_batch's decisions on a plain trajectory of ``sweeps``
    sweeps and counts the trials that take each shortcut: ``freeze``,
    ``retire`` and ``cycle`` (retired while the precisions still move).

    Checks fall after t sweeps with sweeps - t a positive multiple of 8; a
    trial freezes when its precisions equal the previous sweep's and retires
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
    """gbp2g_batch freezes settled precisions and retires trials whose state
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
            for done, (w, prec) in enumerate(_plain_gbp2g_states(t, max(sweep_counts))):
                recent.append((w, prec))
                if done in sweep_counts:
                    want[done] = _plain_gbp2g_means(w, prec)
                if done:
                    settled = _same_state(prec, recent[-2][1])
                    repeats = _same_state(w, recent[0][0]) & _same_state(prec, recent[0][1])
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
    monkeypatch.setattr(exact, "lattice_indices", enumerate_lattice)
    c = qpsk()
    H = np.zeros((1, 13, 13), dtype=complex)
    y = np.zeros((1, 13), dtype=complex)
    ch = ChannelInstance(H=H[0], sigma2=1.0)
    kernels = (batch.ml_hard_batch, batch.map_marginals_batch,
               lambda *a: batch.bp1_batch(*a, 4),
               lambda *a: map_marginals(ch, c, y[0]),
               lambda *a: ml_hard(ch, c, y[0]),
               lambda *a: bp1_factor_graph(ch, c, y[0], BpConfig(4)),
               lambda *a: bp1_factor_graph(ch, c, y[0], BpConfig(4), singly_connected=True))
    for kernel in kernels:
        with pytest.raises(CapacityError, match="2\\^26"):
            kernel(H, y, 1.0, c)


@st.composite
def partitions(draw):
    """A batch and a contiguous partition of it, empty and lone parts
    included; the last field forces trial blocks of two trials on the parts."""
    m, trials = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    return (m, draw(st.integers(m, 8)), draw(st.sampled_from(("QPSK", "QAM16"))),
            draw(st.floats(-10.0, 40.0)), draw(st.integers(0, 2 ** 32 - 1)),
            tuple(draw(st.permutations(range(m)))), trials,
            tuple(sorted(draw(st.lists(st.integers(0, trials), max_size=6)))), draw(st.booleans()))


def _stages(cfg, c, sigma2, order, start, count):
    """Every stage's outputs on trials [start, start + count), trials first."""
    H, idx, y = generate_batch(cfg, c, sigma2, 0, start, count)
    t = batch.link_tables(H, y, sigma2)
    out = {"generate_batch": (H, idx, y), "factor_posterior": batch.factor_posterior(H, y, sigma2),
           "link_tables": tuple(getattr(t, f.name) for f in fields(LinkTables)),
           "LMMSE": batch.lmmse_batch(H, y, sigma2), "BP2": (batch.bp2_batch(t, c, 3),),
           "BP3": (batch.bp3_batch(t, c, 3, order=order),), "GBP2G": (batch.gbp2g_batch(t, 200),),
           "GBP3G": (batch.gbp3g_batch(t, 200, order=order),)}
    if cfg.m >= 2:
        out["FB"] = (batch.fb_batch(H, y, sigma2, c, 3, order=order),)
    # the lattice up to 2^12 points: at 4x6 QAM16 (2^16) a residual table takes 3 MiB per trial
    if cfg.m * c.bits_per_symbol <= 12:
        out.update(lattice_residuals=(np.moveaxis(batch.lattice_residuals(H, y, c), -1, 0),),
                   ML=(batch.ml_hard_batch(H, y, sigma2, c),),
                   MAP=(batch.map_marginals_batch(H, y, sigma2, c),),
                   BP1=(batch.bp1_batch(H, y, sigma2, c, 3),))
    return out


def _assert_parts_match(m, n, name, snr, seed, order, trials, cuts, forced=False):
    """generate_batch, the posterior, the link tables, the lattice residuals
    and all nine kernels give a batch, and its parts joined in order, the
    same bits; ``forced`` runs the parts in trial blocks of two trials."""
    c = get_constellation(name)
    sigma2 = 10.0 ** (-snr / 10.0)
    cfg = SimConfig(m=m, n=n, constellation=name, seed=seed)
    whole = _stages(cfg, c, sigma2, order, 0, trials)
    with patch.object(batch, "_BLOCK_BYTES", 1 if forced else batch._BLOCK_BYTES), \
            patch.object(batch, "_MIN_BLOCK", 2 if forced else batch._MIN_BLOCK):
        parts = [_stages(cfg, c, sigma2, order, a, b - a)
                 for a, b in zip((0,) + cuts, cuts + (trials,))]
    for stage, arrays in whole.items():
        for k, a in enumerate(arrays):
            joined = np.concatenate([p[stage][k] for p in parts])
            assert np.array_equal(_bits(a), _bits(joined)), (stage, k)


@settings(max_examples=40, deadline=None)
@given(partitions())
def test_every_stage_gives_the_parts_the_bits_of_the_whole(case):
    """--batch-size, the split and the trial blocks move no bit. The regimes
    random draws seldom reach are pinned by the tests that follow."""
    _assert_parts_match(*case)


def test_gaussian_batches_independent_of_partitioning():
    # 5x6 QAM16 in halves of 37; 8x8 QPSK in 256 + 255 + 1 trials of a
    # 512-trial batch, whose GBP2G trials freeze and retire at different
    # sweeps; 4x4 QPSK in 7 + 293 + 212, where a group's one-eighth gate
    # lets trials freeze at other sweeps in each part than in the whole
    _assert_parts_match(5, 6, "QAM16", 25.0, 3, (3, 0, 4, 1, 2), 74, (37,))
    _assert_parts_match(8, 8, "QPSK", 20.0, 3, (6, 7, 0, 1, 2, 3, 4, 5), 512, (256, 511))
    _assert_parts_match(4, 4, "QPSK", 10.0, 3, (2, 0, 3, 1), 512, (7, 300))


def test_discrete_pairwise_batches_independent_of_partitioning():
    # halves of 37, the second ending in a lone trial, on a permuted ring
    _assert_parts_match(5, 6, "QAM16", 14.0, 4, (3, 0, 4, 1, 2), 74, (37, 73), forced=True)


@pytest.mark.parametrize("m,n,name,snr,trials,alone", [
    (4, 4, "QPSK", 6.0, 64, 64), (4, 8, "QPSK", 3.0, 64, 64), (3, 4, "QAM16", 14.0, 64, 64),
    (4, 6, "QAM16", 14.0, 64, 64),
    # (M, M, B) complex temporaries of 512 trials pass 256 KiB, where numpy
    # starts to reuse a temporary operand as the output of a product
    (8, 8, "QPSK", 20.0, 512, 16)],
    ids=["4-4-QPSK-6.0", "4-8-QPSK-3.0", "3-4-QAM16-14.0", "4-6-QAM16-14.0", "8-8-QPSK-20.0-512"])
def test_lone_trial_matches_its_row_of_the_batch(m, n, name, snr, trials, alone):
    """A trial alone in its batch (--batch-size 1, or a final one-trial batch)
    gets the bits it gets inside a larger batch; the first ``alone`` trials
    of a ``trials``-trial batch are checked."""
    _assert_parts_match(m, n, name, snr, 17, tuple(reversed(range(m))), trials,
                        tuple(range(1, alone + 1)))


def test_lone_trial_matches_its_row_of_a_cli_sized_gbp3g_batch():
    """The CLI's default batch of 4096 trials, 4x5 QPSK, against its first 64 trials alone."""
    _assert_parts_match(4, 5, "QPSK", 8.0, 17, (2, 0, 3, 1), 4096, tuple(range(1, 65)))


@pytest.mark.parametrize("m,n,name", [(4, 6, "QAM16"), (8, 8, "QPSK")])
def test_posterior_is_partition_exact_at_the_cli_default(m, n, name):
    """The CLI's default batch of 4096 trials, whose temporaries pass 256
    KiB, against lone trials 0, 1, 2047 and 4095 and the slice 1000:1037."""
    _assert_parts_match(m, n, name, 12.0, 23, tuple(reversed(range(m))), 4096,
                        (1, 2, 1000, 1037, 2047, 2048, 4095))


@pytest.mark.parametrize("m,n,name", [(2, 9, "QPSK"), (3, 9, "QPSK"), (2, 2, "QPSK"),
                                      (5, 5, "QPSK"), (6, 6, "QPSK"), (3, 3, "QAM16")])
def test_lone_trial_matches_its_row_of_a_lattice_batch(m, n, name):
    """Lone trials against their rows of 64 (seed 3, 6 dB), at shapes where a
    BLAS product over the whole batch once rounded the lattice residuals
    differently with its width."""
    _assert_parts_match(m, n, name, 6.0, 3, tuple(reversed(range(m))), 64, tuple(range(1, 64)))


@pytest.mark.parametrize("m,n,name,trials", [(4, 4, "QPSK", 9), (5, 5, "QPSK", 7),
                                             (3, 3, "QAM16", 9), (8, 8, "QPSK", 9)])
def test_trial_blocks_move_no_bit(m, n, name, trials):
    """Every stage keeps the bits of one block when BP2, ML, MAP and BP1
    (both graphs) run in blocks of two trials, the first a lone trial."""
    widths, blocks = [], batch.trial_blocks
    with patch.object(batch, "trial_blocks", lambda *args: widths.append(
            [b.stop - b.start for b in blocks(*args)]) or blocks(*args)):
        _assert_parts_match(m, n, name, 8.0, 37, tuple(reversed(range(m))), trials, (),
                            forced=True)
    blocked = 1 if m * get_constellation(name).bits_per_symbol > 12 else 4
    assert widths == [[trials]] * blocked + [[1] + [2] * (trials // 2)] * blocked


@pytest.mark.parametrize("snr", [-100.0, 0.0, 100.0])
@pytest.mark.parametrize("m,n,name", [(4, 6, "QAM16"), (3, 2, "QPSK"), (1, 1, "QPSK")])
def test_posterior_of_degenerate_channels(m, n, name, snr):
    """An all-zero H (trial 0), a zero first column (trial 1, whose first
    reflector meets a zero leading entry) and a zero row (trial 2) among
    drawn trials: finite outputs, an LMMSE MSE in (0, 1], and each lone
    trial gets its row of the batch. A stream the channel does not reach
    has MSE 1 exactly; rounding may put it an ulp above, as it does with a
    LAPACK QR too, hence the 2 eps."""
    c = get_constellation(name)
    sigma2 = 10.0 ** (-snr / 10.0)
    cfg = SimConfig(m=m, n=n, constellation=name, snr_db=(snr,), seed=29)
    H, _, y = generate_batch(cfg, c, sigma2, 0, 0, 8)
    H[0], H[1, :, 0], H[2, 0] = 0.0, 0.0, 0.0
    W, xhat = posterior = batch.factor_posterior(H, y, sigma2)
    assert np.isfinite(W).all() and np.isfinite(xhat).all()
    _, mse = batch.lmmse_batch(H, y, sigma2, posterior=posterior)
    assert np.all(mse > 0.0) and np.all(mse <= 1.0 + 2 * np.finfo(float).eps), mse
    assert np.allclose(mse[0], 1.0) and np.allclose(mse[1, 0], 1.0)
    for b in range(len(H)):
        for a, one in zip(posterior, batch.factor_posterior(H[b:b + 1], y[b:b + 1], sigma2)):
            assert np.array_equal(a[b:b + 1], one), b


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
               "BP1": lambda **kw: batch.bp1_batch(H, y, sigma2, c, 3, **kw)}
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


@pytest.mark.parametrize("trials", [1, 37])
@pytest.mark.parametrize("m", [1, 2, 4, 8])
def test_kernels_run_on_read_only_inputs(m, trials):
    """Every kernel reads H, y, the posterior, the link tables and the
    residual tables without writing into them: sim._run_arms shares them,
    read-only, between the arms of a batch. The lattice kernels run at 8x8
    on a lone trial only, whose residual table alone takes 4 MiB."""
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


@pytest.mark.parametrize("name", ["QPSK", "QAM16"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_every_kernel_takes_an_empty_batch(m, name):
    """At zero trials every kernel returns an empty output with the trailing
    shape it has at two trials; the lattice kernels once failed to reshape."""
    c = get_constellation(name)
    sigma2 = 0.1
    cfg = SimConfig(m=m, n=m + 1, constellation=name, seed=59)

    def outputs(trials):
        H, _, y = generate_batch(cfg, c, sigma2, 0, 0, trials)
        t = batch.link_tables(H, y, sigma2)
        out = {"lattice_residuals": batch.lattice_residuals(H, y, c).transpose(2, 0, 1),
               "ml_hard_batch": batch.ml_hard_batch(H, y, sigma2, c),
               "map_marginals_batch": batch.map_marginals_batch(H, y, sigma2, c),
               "bp1_batch": batch.bp1_batch(H, y, sigma2, c, 3),
               "lmmse_batch": batch.lmmse_batch(H, y, sigma2)[0],
               "bp2_batch": batch.bp2_batch(t, c, 3),
               "bp3_batch": batch.bp3_batch(t, c, 3),
               "gbp2g_batch": batch.gbp2g_batch(t, 20),
               "gbp3g_batch": batch.gbp3g_batch(t, 20)}
        if m >= 2:
            out["fb_batch"] = batch.fb_batch(H, y, sigma2, c, 3)
        return out

    empty, two = outputs(0), outputs(2)
    for kernel, out in empty.items():
        assert out.shape == (0,) + two[kernel].shape[1:], kernel
