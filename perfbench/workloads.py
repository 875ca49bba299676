"""Benchmark workloads: the `run_simulate` configurations and their seeds.

This module imports nothing outside the standard library, so that the
set-up probe can time `import mimobp` from a clean start.
"""

from __future__ import annotations

from dataclasses import dataclass

ALL_DETECTORS = ("MAP", "ML", "LMMSE", "BP1", "BP2", "BP3", "FB", "GBP2G", "GBP3G")

# SimConfig seed of the warm-up call whose counts are pinned in pins.json
PIN_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict  # SimConfig fields; the seed is set per call
    smoke: dict  # overrides that shrink the workload for the smoke test


WORKLOADS = {w.name: w for w in (
    Workload(
        name="qpsk4x4-all",
        why="4x4 QPSK at 10 dB with all nine detectors: the lattice kernels "
            "(BP1 about half, MAP, ML) and GBP2G dominate; generation is a few percent",
        config=dict(m=4, n=4, constellation="QPSK", snr_db=(10.0,),
                    detectors=ALL_DETECTORS, trials=512, batch_size=512),
        smoke=dict(trials=24, batch_size=24),
    ),
    Workload(
        name="qpsk8x8-pairwise",
        why="8x8 QPSK at 20 dB with the pairwise and linear detectors: GBP2G, "
            "BP2 and the 56-link tables dominate, some GBP trials never settle; "
            "no lattice kernel runs",
        config=dict(m=8, n=8, constellation="QPSK", snr_db=(20.0,),
                    detectors=("LMMSE", "BP2", "BP3", "FB", "GBP2G", "GBP3G"),
                    trials=512, batch_size=512),
        smoke=dict(trials=24, batch_size=24),
    ),
    Workload(
        name="qam16-4x6-target",
        why="4x6 QAM16 at 12 dB, LMMSE and GBP3G on a permuted ring, stopped "
            "by target_errors: generation and link tables are the largest layers",
        config=dict(m=4, n=6, constellation="QAM16", snr_db=(12.0,),
                    detectors=("LMMSE", "GBP3G"), permutation=(0, 2, 1, 3),
                    trials=512, target_errors=1000, batch_size=512),
        smoke=dict(trials=24, target_errors=40, batch_size=24),
    ),
)}


def config_fields(workload: Workload, seed: int, smoke: bool = False) -> dict:
    """SimConfig keyword arguments of one `run_simulate` call."""
    fields = dict(workload.config, seed=seed)
    if smoke:
        fields.update(workload.smoke)
    return fields


def call_seed(run_seed: int, k: int) -> int:
    """SimConfig seed of the k-th timed call of a run with seed ``run_seed``."""
    return (run_seed * 1_000_003 + k) % 2 ** 64
