"""Every vectorised kernel must reproduce its single-instance reference."""

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


def test_gaussian_batches_independent_of_partitioning():
    c = get_constellation("QAM16")
    sigma2 = 10.0 ** (-25.0 / 10.0)
    cfg = SimConfig(m=5, n=6, constellation="QAM16", snr_db=(25.0,), seed=3)
    H, _, y = generate_batch(cfg, c, sigma2, 0, 0, 2 * 37)
    t = batch.link_tables(H, y, sigma2)
    halves = [LinkTables(**{f.name: getattr(t, f.name)[part] for f in fields(LinkTables)})
              for part in (slice(None, 37), slice(37, None))]
    kernels = (lambda tables: batch.gbp2g_batch(tables, 200),
               lambda tables: batch.gbp3g_batch(tables, 200, order=(3, 0, 4, 1, 2)))
    for kernel in kernels:
        assert np.array_equal(kernel(t), np.concatenate([kernel(h) for h in halves]))


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


@pytest.mark.parametrize("m,n,name,snr", [(4, 4, "QPSK", 6.0), (4, 8, "QPSK", 3.0),
                                          (3, 4, "QAM16", 14.0),
                                          (4, 6, "QAM16", 14.0)])
def test_lone_trial_matches_its_row_of_the_batch(m, n, name, snr):
    """A trial alone in its batch (--batch-size 1, or a final one-trial batch)
    gets the bits it gets inside a larger batch, from every kernel."""
    c = get_constellation(name)
    sigma2 = 10.0 ** (-snr / 10.0)
    perm = tuple(reversed(range(m)))
    cfg = SimConfig(m=m, n=n, constellation=name, snr_db=(snr,), seed=17)
    H, _, y = generate_batch(cfg, c, sigma2, 0, 0, 64)
    whole = _kernel_outputs(H, y, sigma2, c, perm)
    differ = dict.fromkeys(whole, 0)
    for b in range(64):
        alone = _kernel_outputs(H[b:b + 1], y[b:b + 1], sigma2, c, perm)
        for kernel, arrays in whole.items():
            differ[kernel] += not all(np.array_equal(a[b:b + 1], lone)
                                      for a, lone in zip(arrays, alone[kernel]))
    assert not any(differ.values()), str(differ)
