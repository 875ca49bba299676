"""Output checks, all made outside the timed region.

* pinned counts: the warm-up call at PIN_SEED must reproduce the
  (detector, SNR, trials, bit_errors) rows frozen in pins.json;
* record invariants: every timed call returns one sane record per
  (detector, SNR), with the trial count its stopping rule allows;
* oracle re-decisions: a few trials per workload, drawn with
  `sim.generate_batch`, are decided again by the single-instance oracles and
  compared with the `batch` kernels at the tolerances of tests/test_batch.py.

Each check yields one boolean; the benchmark reports how many it attempted
and how many failed.

    python3 perfbench/checks.py     # rewrite pins.json from the current code
"""

from __future__ import annotations

import json
import logging
import random
from pathlib import Path

import env

env.prepare()

import numpy as np  # noqa: E402

from mimobp import (BpConfig, ChannelInstance, GbpConfig, Topology, batch,  # noqa: E402
                    bidiagonalize, bp1_factor_graph, bp2_fully_connected, bp3_ring,
                    build_graph, forward_backward_detect, gbp2g, gbp3g,
                    get_constellation, lmmse, map_marginals, ml_hard, sim)

import harness  # noqa: E402
from workloads import PIN_SEED, WORKLOADS  # noqa: E402

PINS = Path(__file__).resolve().parent / "pins.json"
ORACLE_TRIALS = 6


def load_pins() -> dict:
    return json.loads(PINS.read_text())


def pin_key(smoke: bool) -> str:
    return "smoke" if smoke else "full"


def check_pins(name: str, smoke: bool, got_rows) -> list:
    """One check per pinned row; a missing or extra row fails."""
    want = load_pins()[name][pin_key(smoke)]
    checks = [a == b for a, b in zip(got_rows, want)]
    checks += [False] * abs(len(got_rows) - len(want))
    return checks


def check_rows(cfg: sim.SimConfig, got_rows) -> list:
    """One check per expected (detector, SNR) record of a `run_simulate` call."""
    bits = cfg.m * get_constellation(cfg.constellation).bits_per_symbol
    cap = cfg.max_trials or (cfg.trials if cfg.target_errors is None else 100 * cfg.trials)
    expected = [(snr, det) for snr in cfg.snr_db for det in cfg.detectors]
    checks = []
    for (snr, det), row in zip(expected, got_rows):
        r_det, r_snr, trials, errors = row
        ok = (r_det, r_snr) == (det, snr) and 0 <= errors <= trials * bits
        if cfg.target_errors is None:
            ok = ok and trials == cfg.trials
        else:
            ok = ok and cfg.trials <= trials <= cap and (errors >= cfg.target_errors or trials == cap)
        checks.append(ok)
    checks += [False] * abs(len(got_rows) - len(expected))
    return checks


def _close(a, b, tol):
    return bool(np.max(np.abs(np.asarray(a) - np.asarray(b))) < tol)


def _approx(a, b, rel, abs_=1e-12):
    """pytest.approx's rule: |a - b| <= max(rel * |b|, abs)."""
    return bool(abs(a - b) <= max(rel * abs(b), abs_))


def _link_checks(tables, b, ch, y):
    g = build_graph(ch, y, Topology.FULLY_CONNECTED)
    ok = True
    for (j, i), link in g.links.items():
        ok = ok and _approx(tables.y_prime[b, j, i], link.y_prime, 1e-10)
        ok = ok and _approx(tables.a_diag[b, j, i], link.sigma2_cond, 1e-10)
        ok = ok and _approx(tables.a_cross[b, j, i], link.a_ji, 1e-10)
        ok = ok and _approx(tables.u[b, j, i], link.u, 1e-10)
        ok = ok and _approx(tables.v[b, j, i], link.v, 1e-10)
    return ok


def oracle_checks(cfg: sim.SimConfig, run_seed: int) -> list:
    """Re-decide ORACLE_TRIALS trials per SNR with the oracles.

    The trials are those of the run's first timed call, at an offset drawn
    from ``run_seed``; one check per (trial, detector) plus one per trial for
    the link tables when a pairwise detector runs.
    """
    c = get_constellation(cfg.constellation)
    perm = cfg.permutation
    dets = set(cfg.detectors)
    start = random.Random(run_seed).randrange(max(1, cfg.trials - ORACLE_TRIALS + 1))
    gcfg = GbpConfig(max_sweeps=cfg.gbp_sweeps, tol=0.0)
    checks = []
    for snr_idx, snr in enumerate(cfg.snr_db):
        sigma2 = 10.0 ** (-snr / 10.0)
        H, _, y = sim.generate_batch(cfg, c, sigma2, snr_idx, start, ORACLE_TRIALS)
        out = {}
        if "LMMSE" in dets:
            out["LMMSE"] = batch.lmmse_batch(H, y, sigma2)
        if "ML" in dets:
            out["ML"] = batch.ml_hard_batch(H, y, sigma2, c)
        if "MAP" in dets:
            out["MAP"] = batch.map_marginals_batch(H, y, sigma2, c)
        if "BP1" in dets:
            out["BP1"] = batch.bp1_batch(H, y, sigma2, c, cfg.iteration_count("BP1"))
        if "FB" in dets:
            out["FB"] = batch.fb_batch(H, y, sigma2, c, cfg.iteration_count("FB"), order=perm)
        tables = None
        if dets & {"BP2", "BP3", "GBP2G", "GBP3G"}:
            tables = batch.link_tables(H, y, sigma2)
            if "BP2" in dets:
                out["BP2"] = batch.bp2_batch(tables, c, cfg.iteration_count("BP2"))
            if "BP3" in dets:
                out["BP3"] = batch.bp3_batch(tables, c, cfg.iteration_count("BP3"), order=perm)
            if "GBP2G" in dets:
                out["GBP2G"] = batch.gbp2g_batch(tables, cfg.gbp_sweeps)
            if "GBP3G" in dets:
                out["GBP3G"] = batch.gbp3g_batch(tables, cfg.gbp_sweeps, order=perm)
        for b in range(ORACLE_TRIALS):
            ch, yb = ChannelInstance(H=H[b], sigma2=sigma2), y[b]
            if tables is not None:
                checks.append(_link_checks(tables, b, ch, yb))
            for det in cfg.detectors:
                checks.append(_oracle_agrees(det, out[det], b, ch, yb, c, cfg, gcfg))
    return checks


def _oracle_agrees(det, got, b, ch, y, c, cfg, gcfg):
    perm = cfg.permutation
    if det == "LMMSE":
        ref = lmmse(ch, y)
        return _close(got[0][b], ref.estimates, 1e-12) and _close(got[1][b], ref.mmse, 1e-12)
    if det == "ML":
        return bool(np.array_equal(got[b], ml_hard(ch, c, y)))
    if det == "MAP":
        return _close(got[b], map_marginals(ch, c, y), 1e-10)
    if det == "BP1":
        ref = bp1_factor_graph(ch, c, y, BpConfig(iterations=cfg.iteration_count("BP1")))
        return _close(got[b], ref.beliefs, 1e-10)
    if det == "BP2":
        g = build_graph(ch, y, Topology.FULLY_CONNECTED)
        ref = bp2_fully_connected(g, c, BpConfig(iterations=cfg.iteration_count("BP2")))
        return _close(got[b], ref.beliefs, 1e-12)
    if det == "BP3":
        g = build_graph(ch, y, Topology.RING, perm)
        ref = bp3_ring(g, c, BpConfig(iterations=cfg.iteration_count("BP3")))
        return _close(got[b], ref.beliefs, 1e-12)
    if det == "FB":
        ref = forward_backward_detect(bidiagonalize(ch, perm), c, y,
                                      BpConfig(iterations=cfg.iteration_count("FB")))
        return _close(got[b], ref.beliefs, 1e-12)
    # tol=0 runs every sweep, so the oracles' "did not settle" warnings are expected
    quiet = logging.getLogger("mimobp.gaussian_bp")
    level = quiet.level
    quiet.setLevel(logging.ERROR)
    try:
        if det == "GBP2G":
            ref = gbp2g(build_graph(ch, y, Topology.FULLY_CONNECTED), gcfg)
        else:
            ref = gbp3g(build_graph(ch, y, Topology.RING, perm), gcfg)
    finally:
        quiet.setLevel(level)
    return _close(got[b], ref.means[-1], 1e-12)


def write_pins():
    pins = {}
    for name, workload in WORKLOADS.items():
        pins[name] = {pin_key(smoke): harness.rows(sim.run_simulate(
            harness.make_config(workload, PIN_SEED, smoke))) for smoke in (False, True)}
    PINS.write_text(json.dumps(pins, indent=1) + "\n")


if __name__ == "__main__":
    write_pins()
