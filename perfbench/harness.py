"""Closed-loop driver of `sim.run_simulate` used by the timed and traced runs."""

from __future__ import annotations

import sys
import time
import traceback

import numpy as np

from mimobp import sim

from workloads import Workload, call_seed, config_fields


def make_config(workload: Workload, seed: int, smoke: bool = False) -> sim.SimConfig:
    return sim.load_config(overrides=config_fields(workload, seed, smoke))


def rows(records) -> list:
    """The deterministic part of a record list: (detector, snr, trials, errors)."""
    return [[r.detector, r.snr_db, r.trials, r.bit_errors] for r in records]


def useful_trials(records) -> int:
    """Trials that count toward a result: max over detectors, summed over SNR."""
    per_snr: dict = {}
    for r in records:
        per_snr[r.snr_db] = max(per_snr.get(r.snr_db, 0), r.trials)
    return sum(per_snr.values())


def timed_call(cfg: sim.SimConfig):
    """One `run_simulate` call: (wall seconds, records)."""
    t0 = time.perf_counter()
    records = sim.run_simulate(cfg)
    return time.perf_counter() - t0, records


def closed_loop(workload: Workload, run_seed: int, seconds: float, min_calls: int,
                smoke: bool, step):
    """Call ``step(k, cfg)`` back to back until ``seconds`` have passed.

    Each call starts after the previous one returns and runs with its own
    seed, derived from ``run_seed``. Returns the step results and the number
    of calls that raised; a raising call is reported on stderr and skipped.
    """
    results, raised = [], 0
    end = time.perf_counter() + seconds
    k = 0
    while k < min_calls or time.perf_counter() < end:
        cfg = make_config(workload, call_seed(run_seed, k), smoke)
        try:
            results.append(step(k, cfg))
        except Exception:  # the loop must go on; the failure is counted
            traceback.print_exc(file=sys.stderr)
            raised += 1
        k += 1
    return results, raised


# Seconds the reference probe takes on a 2-vCPU x86-64 VM (numpy 2.4,
# OpenBLAS, one thread) in its fast state; the scale of normalised times.
REFERENCE_NOMINAL_S = 0.031
_RNG = np.random.default_rng(0)
_REF_MATRIX = _RNG.standard_normal((96, 96)) / 96
_REF_VECTOR = _RNG.standard_normal(100_000)
_REF_SMALL = _RNG.standard_normal((64, 8)) + 1j
_REF_GRAM = _RNG.standard_normal((256, 6, 6)) + 1j * _RNG.standard_normal((256, 6, 6))
_REF_GRAM = _REF_GRAM @ _REF_GRAM.conj().transpose(0, 2, 1) + np.eye(6)
_REF_RHS = _RNG.standard_normal((256, 6, 1)) + 0j


def reference_seconds() -> float:
    """Wall time of a fixed mix of the numpy work the engine is made of.

    Equal parts of small BLAS products, elementwise transcendentals, small
    batched complex solves, Philox stream set-up, small-array reductions and
    interpreter loops. It runs no mimobp code, so it tracks only the
    machine's current speed, and dividing by it cancels slow phases of a
    shared host.
    """
    t0 = time.perf_counter()
    x = _REF_MATRIX
    for _ in range(100):
        x = np.tanh(x @ _REF_MATRIX + 0.1)
    for _ in range(8):
        np.exp(-np.abs(_REF_VECTOR))
    for _ in range(20):
        np.linalg.solve(_REF_GRAM, _REF_RHS)
    for b in range(300):
        g = np.random.Generator(np.random.Philox(key=7, counter=b << 128))
        g.standard_normal(48)
    for _ in range(800):
        np.sum(np.abs(_REF_SMALL) ** 2, axis=1)
    total = 0
    for i in range(60_000):
        total += i
    return time.perf_counter() - t0


def normalised(seconds: float, reference: float) -> float:
    """``seconds`` rescaled to the machine speed at which the probe takes REFERENCE_NOMINAL_S."""
    return seconds * REFERENCE_NOMINAL_S / reference
