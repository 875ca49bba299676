"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criterion 5's pairwise
legs are marked strict-xfail: the pairwise schemes' belief products
provably over-count decoupled evidence (their beliefs equal normalised
powers of the true posteriors, reproduced here to machine precision), so
per-entry equality with the exact marginals cannot hold; see the decisions
ledger for the full analysis. Wall-clock CSV fields are excluded from the
byte-identity check in criterion 10, being the one non-deterministic output.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from mimobp import (BpConfig, ChannelInstance, GbpConfig, Topology, affine_ops,
                    bp1_factor_graph, bp2_fully_connected, bp3_ring, build_graph,
                    cn_pdf, draw_channel, fixed_point, gbp3g, lmmse,
                    map_marginals, qpsk)
from mimobp import batch
from mimobp.gaussian_bp import IDENTITY_OP
from mimobp.sim import SimConfig, generate_batch, run_converge, run_simulate
from conftest import diagonal_channel, interference_covariance, random_channel, received

SEED = 20260810
QPSK = qpsk()


def stacked_channels(count, sigma2, snr_idx=0, m=4, n=4, seed=SEED):
    cfg = SimConfig(m=m, n=n, snr_db=(10.0,), trials=count, seed=seed)
    return generate_batch(cfg, QPSK, sigma2, snr_idx, 0, count)


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS  ({detail})")


def test_criterion_01_means_converge_to_lmmse():
    """Ring means reach the LMMSE point on 100 channels at SNR 10 dB in <10 s;
    the fully-connected variant is checked too and only flagged on failure."""
    t0 = time.perf_counter()
    sigma2 = 0.1
    H, _, y = stacked_channels(100, sigma2)
    est, _ = batch.lmmse_batch(H, y, sigma2)
    links = batch.link_tables(H, y, sigma2)
    means3 = batch.gbp3g_batch(links, 1000)
    rel3 = np.max(np.abs(means3 - est) / (np.abs(est) + 1e-12))
    assert rel3 <= 1e-8
    means2 = batch.gbp2g_batch(links, 1000)
    rel2 = np.max(np.abs(means2 - est) / (np.abs(est) + 1e-12))
    flagged = rel2 > 1e-8
    if flagged:  # conjecture-status scheme: flag, never fail
        print(f"\nACCEPTANCE 1: fully-connected variant flagged, rel err {rel2:.2e}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(1, f"ring rel err {rel3:.1e}, fully-connected rel err {rel2:.1e}, {elapsed:.1f}s")


def test_criterion_02_contraction_factor_bounded():
    """|f_V| < 1 and below the per-hop product bound; 1000 channels per noise
    level, zero violations."""
    violations = 0
    worst = 0.0
    for sigma2 in (0.01, 0.1, 1.0):
        H, _, y = stacked_channels(1000, sigma2)
        links = batch.link_tables(H, y, sigma2)
        m = 4
        v_f = np.stack([links.v[:, (r + 1) % m, r] for r in range(m)], axis=1)
        v_b = np.stack([links.v[:, (r - 1) % m, r] for r in range(m)], axis=1)
        s2c = np.stack([links.a_diag[:, (r + 1) % m, r] for r in range(m)], axis=1)
        bound = np.prod(s2c / (1.0 + s2c), axis=1)
        for i in range(m):  # every starting node: same cyclic product, any order
            f_v = np.abs(np.prod(np.roll(v_f, i, axis=1), axis=1))
            b_v = np.abs(np.prod(np.roll(v_b, i, axis=1), axis=1))
            violations += int(np.sum(~((f_v < 1.0) & (f_v <= bound + 1e-12))))
            violations += int(np.sum(b_v >= 1.0))
            worst = max(worst, float(np.max(f_v / bound)))
    assert violations == 0
    report(2, f"0 violations on 3000 channels, worst |f_V|/bound {worst:.3f}")


def test_criterion_03_one_hop_preserves_lmmse():
    """u + v * xhat_i equals xhat_j for every ordered pair of 100 channels."""
    sigma2 = 0.1
    H, _, y = stacked_channels(100, sigma2)
    est, _ = batch.lmmse_batch(H, y, sigma2)
    links = batch.link_tables(H, y, sigma2)
    worst = 0.0
    for j in range(4):
        for i in range(4):
            if i == j:
                continue
            got = links.u[:, j, i] + links.v[:, j, i] * est[:, i]
            err = np.abs(got - est[:, j]) / (1.0 + np.abs(est[:, j]))
            worst = max(worst, float(err.max()))
    assert worst <= 1e-10
    report(3, f"worst normalised hop error {worst:.1e} over 1200 pairs")


def test_criterion_04_fixed_point_closed_form():
    """Closed forms match the 500-sweep iterate; the four-node turn constants
    match the explicit monomial expansion term by term."""
    worst_fp = 0.0
    for seed in range(100):
        ch = random_channel(4, 4, 0.1, 9000 + seed)
        _, _, y = received(ch, QPSK, 9500 + seed)
        graph = build_graph(ch, y, Topology.RING)
        fp = fixed_point(graph)
        trace = gbp3g(graph, GbpConfig(max_sweeps=500, tol=0.0))
        worst_fp = max(worst_fp,
                       float(np.max(np.abs(fp.forward - trace.message_means))),
                       float(np.max(np.abs(fp.backward - trace.backward_means))))
    assert worst_fp <= 1e-10

    ch = random_channel(4, 4, 0.1, 9999)
    _, _, y = received(ch, QPSK, 9998)
    ops = affine_ops(build_graph(ch, y, Topology.RING))
    f = ops.forward_mean
    # the expanded turn constant, written out monomial by monomial
    expansion = [f[3].offset,
                 f[3].slope * f[2].offset,
                 f[3].slope * f[2].slope * f[1].offset,
                 f[3].slope * f[2].slope * f[1].slope * f[0].offset]
    acc = IDENTITY_OP
    partials = []
    for op in (f[0], f[1], f[2], f[3]):
        acc = op.after(acc)
        partials.append(acc)
    for k, part in enumerate(partials):
        # offset of the k-th partial composition is its own k+1-term expansion
        ref = 0.0 + 0.0j
        for a in range(k + 1):
            prod = 1.0 + 0.0j
            for b in range(a + 1, k + 1):
                prod *= f[b].slope
            ref += prod * f[a].offset
        assert abs(part.offset - ref) <= 1e-12
    turn = partials[-1]
    assert abs(turn.offset - sum(expansion)) <= 1e-12
    slope = f[3].slope * f[2].slope * f[1].slope * f[0].slope
    assert abs(turn.slope - slope) <= 1e-12
    report(4, f"worst |closed form - iterate| {worst_fp:.1e}; monomials match to 1e-12")


def _oracle_instances(family, count=1000):
    for seed in range(count):
        if family == "m1":
            ch = random_channel(1, 2, 0.25, 30_000 + seed)
        elif family == "m2":
            ch = random_channel(2, 2, 0.25, 40_000 + seed)
        else:
            ch = diagonal_channel(4, 0.25, 50_000 + seed)
        _, _, y = received(ch, QPSK, 60_000 + seed)
        yield ch, y


def test_criterion_05_factor_graph_scheme_matches_exact():
    """Observation-graph BP equals the exact marginals on single-stream,
    two-stream (joint-factor tree) and decoupled four-stream instances."""
    worst = 0.0
    for family in ("m1", "m2", "diag"):
        for ch, y in _oracle_instances(family):
            ref = map_marginals(ch, QPSK, y)
            state = bp1_factor_graph(ch, QPSK, y, BpConfig(iterations=1),
                                     singly_connected=(family == "m2"))
            worst = max(worst, float(np.max(np.abs(state.beliefs - ref))))
    assert worst <= 1e-9
    report(5, f"factor-graph scheme worst deviation {worst:.1e} over 3000 instances")


@pytest.mark.xfail(strict=True, reason=(
    "pairwise fully-connected beliefs are the normalised product of M-1 "
    "translated messages; on decoupled channels that is the (M-1)-th power "
    "of the true posterior, so per-entry equality with exact marginals is "
    "unattainable (see decisions ledger)"))
def test_criterion_05_pairwise_full_matches_exact():
    for family in ("m1", "m2", "diag"):
        for ch, y in _oracle_instances(family, count=50):
            ref = map_marginals(ch, QPSK, y)
            g = build_graph(ch, y, Topology.FULLY_CONNECTED)
            state = bp2_fully_connected(g, QPSK, BpConfig(iterations=4))
            assert np.max(np.abs(state.beliefs - ref)) <= 1e-9


@pytest.mark.xfail(strict=True, reason=(
    "ring beliefs multiply two informative incoming messages, squaring the "
    "scalar posterior on decoupled channels; per-entry equality with exact "
    "marginals is unattainable (see decisions ledger)"))
def test_criterion_05_ring_matches_exact():
    for family in ("m1", "m2", "diag"):
        for ch, y in _oracle_instances(family, count=50):
            ref = map_marginals(ch, QPSK, y)
            g = build_graph(ch, y, Topology.RING)
            state = bp3_ring(g, QPSK, BpConfig(iterations=4))
            assert np.max(np.abs(state.beliefs - ref)) <= 1e-9


def test_criterion_05_pairwise_power_law_pins():
    """Companion pin: the pairwise schemes' decoupled-channel beliefs equal
    the predicted posterior powers to machine precision, which is the
    sharpest implementation oracle these schemes admit."""
    worst2 = worst3 = 0.0
    for seed in range(200):
        ch = diagonal_channel(4, 0.25, 70_000 + seed)
        _, _, y = received(ch, QPSK, 71_000 + seed)
        ref = map_marginals(ch, QPSK, y)
        g = build_graph(ch, y, Topology.FULLY_CONNECTED)
        b2 = bp2_fully_connected(g, QPSK, BpConfig(iterations=2)).beliefs
        p3 = ref ** 3 / np.sum(ref ** 3, axis=1, keepdims=True)
        worst2 = max(worst2, float(np.max(np.abs(b2 - p3))))
        r = build_graph(ch, y, Topology.RING)
        b3 = bp3_ring(r, QPSK, BpConfig(iterations=2)).beliefs
        p2 = ref ** 2 / np.sum(ref ** 2, axis=1, keepdims=True)
        worst3 = max(worst3, float(np.max(np.abs(b3 - p2))))
    assert worst2 <= 1e-9 and worst3 <= 1e-9
    report(5, f"power-law pins: fully-connected {worst2:.1e}, ring {worst3:.1e}")


def test_criterion_06_scalar_gaussian_identities():
    """Density identities behind the kernel algebra, at bulk sample sizes."""
    g = np.random.default_rng(SEED)
    n = 10_000
    x = g.standard_normal(n) + 1j * g.standard_normal(n)
    mu1 = g.standard_normal(n) + 1j * g.standard_normal(n)
    mu2 = g.standard_normal(n) + 1j * g.standard_normal(n)
    s1 = g.uniform(0.1, 3.0, n)
    s2 = g.uniform(0.1, 3.0, n)
    a = g.standard_normal(n) + 1j * g.standard_normal(n)
    b = g.standard_normal(n) + 1j * g.standard_normal(n)

    base = cn_pdf(x, mu1, s1)
    assert np.allclose(cn_pdf(mu1, x, s1), base, rtol=1e-10)
    assert np.allclose(cn_pdf(x - mu1, 0.0, s1), base, rtol=1e-10)
    # argument scaling carries the |a|^2 density Jacobian
    lhs = cn_pdf(a * x + b, mu1, s1)
    rhs = cn_pdf(x, (mu1 - b) / a, s1 / np.abs(a) ** 2) / np.abs(a) ** 2
    assert np.allclose(lhs, rhs, rtol=1e-10)
    w1, w2 = 1 / s1, 1 / s2
    prod = cn_pdf(x, mu1, s1) * cn_pdf(x, mu2, s2)
    ref = cn_pdf(x, (w1 * mu1 + w2 * mu2) / (w1 + w2), 1 / (w1 + w2)) * cn_pdf(mu1, mu2, s1 + s2)
    assert np.allclose(prod, ref, rtol=1e-10)

    for seed in range(3):  # product integrates to the convolution value
        gg = np.random.default_rng(seed)
        m1 = gg.standard_normal() + 1j * gg.standard_normal()
        m2 = gg.standard_normal() + 1j * gg.standard_normal()
        v1, v2 = gg.uniform(0.3, 1.5, 2)
        half = 8.0 * np.sqrt(max(v1, v2))
        edge = np.linspace(-half, half, 401)
        mid = (edge[:-1] + edge[1:]) / 2
        z = (m1 + m2) / 2 + mid[:, None] + 1j * mid[None, :]
        quad = np.sum(cn_pdf(z, m1, v1) * cn_pdf(z, m2, v2)) * (edge[1] - edge[0]) ** 2
        assert quad == pytest.approx(cn_pdf(m1, m2, v1 + v2), abs=1e-4)

    # closed-form kernel equals the likelihood-ratio form on a 64-point grid
    ch = random_channel(4, 4, 0.1, 123)
    _, _, y = received(ch, QPSK, 124)
    from mimobp import build_link, translate_kernel
    link = build_link(ch, y, 2, 0)
    grid = (np.linspace(-2, 2, 8)[:, None] + 1j * np.linspace(-2, 2, 8)[None, :]).ravel()
    worst = 0.0
    for x_i in QPSK.points:
        num = cn_pdf(link.y_prime, link.a_jj * grid + link.a_ji * x_i, link.sigma2_cond)
        num = num * cn_pdf(grid, 0.0, 1.0)
        den = cn_pdf(link.y_prime, link.a_ji * x_i, link.sigma2_cond + link.a_jj ** 2)
        got = translate_kernel(link, x_i).pdf(grid)
        worst = max(worst, float(np.max(np.abs(got - num / den) / (num / den))))
    assert worst <= 1e-8
    report(6, f"identities at 1e4 draws; kernel ratio-form worst rel err {worst:.1e}")


def test_criterion_07_convergence_study_shape():
    """Twenty channels at SNR 5 and 20 dB: every trace settles below 1e-6
    distance to the LMMSE point, the error curves flatten, and the
    fully-connected scheme needs fewer sweeps on average."""
    cfg = SimConfig(snr_db=(5.0, 20.0), detectors=("GBP2G", "GBP3G"),
                    channels=20, seed=0).validate()
    recs = run_converge(cfg)
    curves = {}
    for r in recs:
        curves.setdefault((r.detector, r.channel_id, r.snr_db), []).append((r.n, r.e_n, r.d_n))
    sweeps = {"GBP2G": [], "GBP3G": []}
    for (det, cid, snr), rows in curves.items():
        rows.sort()
        d = np.array([x[2] for x in rows])
        e = np.array([x[1] for x in rows])
        assert d[-1] <= 1e-6, f"{det} channel {cid} at {snr} dB never settled"
        assert abs(e[-1] - e[-2]) <= 1e-6 * (1.0 + e[-1])  # flattened
        sweeps[det].append(int(np.argmax(d <= 1e-6)) + 1)
    mean2 = float(np.mean(sweeps["GBP2G"]))
    mean3 = float(np.mean(sweeps["GBP3G"]))
    assert mean2 < mean3

    # companion, seed-independent check of the same ordering: the 20-channel
    # ensemble mean is a noisy statistic, so verify the population-level
    # average over 400 fresh channels per SNR as well
    pop2, pop3 = [], []
    for snr in (5.0, 20.0):
        sigma2 = 10.0 ** (-snr / 10.0)
        H, _, y = stacked_channels(400, sigma2, snr_idx=int(snr))
        est, mmse = batch.lmmse_batch(H, y, sigma2)
        links = batch.link_tables(H, y, sigma2)
        n2 = _sweeps_until(links, est, mmse.sum(axis=1), batch.gbp2g_batch)
        n3 = _sweeps_until(links, est, mmse.sum(axis=1), batch.gbp3g_batch)
        pop2.append(n2.mean())
        pop3.append(n3.mean())
    assert np.mean(pop2) < np.mean(pop3)
    report(7, f"all 40 traces settled; mean sweeps {mean2:.2f} (full) < {mean3:.2f} (ring); "
              f"population means {np.mean(pop2):.2f} < {np.mean(pop3):.2f}")


def _sweeps_until(links, est, mmse_total, kernel, tol=1e-6, cap=120):
    """First sweep at which each trial's belief mean is within tol of the
    LMMSE point, measured by running the batched kernel sweep by sweep."""
    B = est.shape[0]
    out = np.full(B, cap)
    done = np.zeros(B, dtype=bool)
    for n in range(1, cap + 1):
        means = kernel(links, n)
        d = np.sum(np.abs(means - est) ** 2, axis=1) / mmse_total
        hit = (~done) & (d <= tol)
        out[hit] = n
        done |= hit
        if done.all():
            break
    return out


def test_criterion_08_ber_ordering():
    """Uncoded 4x4 sweep with paired draws: joint ML bounds the pairwise
    schemes from below, the linear filter from above, with CI separation from
    the linear filter at two or more SNR points. Budget: five minutes."""
    t0 = time.perf_counter()
    cfg = SimConfig(snr_db=(6.0, 8.0, 10.0, 12.0, 14.0),
                    detectors=("ML", "BP2", "BP3", "LMMSE"),
                    trials=100_000, seed=SEED, batch_size=8192).validate()
    recs = run_simulate(cfg)
    table = {(r.detector, r.snr_db): r for r in recs}
    separated = {"BP2": 0, "BP3": 0}
    for snr in cfg.snr_db:
        ml, lm = table[("ML", snr)], table[("LMMSE", snr)]
        for det in ("BP2", "BP3"):
            rec = table[(det, snr)]
            assert ml.ber <= rec.ber + ml.ci95 + rec.ci95, f"ML above {det} at {snr} dB"
            assert rec.ber <= lm.ber + rec.ci95 + lm.ci95, f"{det} above LMMSE at {snr} dB"
            if rec.ber + rec.ci95 < lm.ber - lm.ci95:
                separated[det] += 1
    assert separated["BP2"] >= 2 and separated["BP3"] >= 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    detail = "; ".join(
        f"{snr:g}dB ML {table[('ML', snr)].ber:.2e} BP2 {table[('BP2', snr)].ber:.2e} "
        f"BP3 {table[('BP3', snr)].ber:.2e} LMMSE {table[('LMMSE', snr)].ber:.2e}"
        for snr in cfg.snr_db[:2])
    report(8, f"{detail}; CI-separated from LMMSE at {separated} points; {elapsed:.0f}s")


def test_criterion_09_filter_identities_on_links():
    """Conditioned noise power equals the diagonal gain (quadratic form
    evaluated independently), and both recursion-coefficient forms agree, on
    every ordered pair of 100 channels."""
    worst_noise = worst_dual = 0.0
    from mimobp import build_link
    for seed in range(100):
        ch = random_channel(4, 4, 0.1, 80_000 + seed)
        _, _, y = received(ch, QPSK, 81_000 + seed)
        for j in range(4):
            for i in range(4):
                if i == j:
                    continue
                link = build_link(ch, y, j, i)
                K = interference_covariance(ch.H, ch.sigma2, (j, i))
                noise_power = np.vdot(link.c, K @ link.c).real
                target_gain = np.vdot(link.c, ch.H[:, j]).real
                worst_noise = max(worst_noise, abs(noise_power - target_gain),
                                  abs(link.sigma2_cond - target_gain))
                K_i = interference_covariance(ch.H, ch.sigma2, (i,))
                row = np.linalg.solve(K_i, ch.H[:, j])
                u_right = np.vdot(row, y)
                v_right = -np.vdot(row, ch.H[:, i])
                worst_dual = max(worst_dual,
                                 abs(link.u - u_right) / (1 + abs(u_right)),
                                 abs(link.v - v_right) / (1 + abs(v_right)))
    assert worst_noise <= 1e-10
    assert worst_dual <= 1e-10
    report(9, f"noise-power identity {worst_noise:.1e}; dual forms {worst_dual:.1e}")


def test_criterion_10_cli_determinism(tmp_path):
    """Reruns and re-partitionings produce identical files; the wall-clock
    column is masked, being the single intentionally non-deterministic
    field (see module docstring)."""
    cli = [sys.executable, "-m", "mimobp.cli"]

    def run(*args):
        res = subprocess.run(cli + list(args), capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        return res

    def mask(path):
        out = []
        for line in path.read_text().splitlines():
            if "," in line and not line.startswith(("#", "detector")):
                line = line.rsplit(",", 1)[0]
            out.append(line)
        return "\n".join(out)

    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    args = ("simulate", "--snr-db", "8,10", "--trials", "2000", "--seed", "77",
            "--detectors", "ML,BP2,LMMSE")
    run(*args, "--out", str(a))
    run(*args, "--out", str(b))
    run(*args, "--batch-size", "313", "--out", str(c))
    assert mask(a) == mask(b) == mask(c)

    # converge emits no timing fields: full byte identity holds
    d, e = tmp_path / "d.csv", tmp_path / "e.csv"
    run("converge", "--channels", "4", "--seed", "78", "--out", str(d))
    run("converge", "--channels", "4", "--seed", "78", "--out", str(e))
    assert d.read_bytes() == e.read_bytes()
    report(10, "reruns and re-partitionings identical (wall-clock masked)")
