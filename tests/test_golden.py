"""Fixed-seed bit-error counts that a refactor must leave unchanged.

``golden_counts.json`` holds ``(trials, bit_errors)`` per (detector, SNR)
for three small fixed-seed ``run_simulate`` runs: 4x4 QPSK with every
detector, 3x5 QAM16 with the non-lattice detectors, and 4x4 QPSK ring
detectors on a permuted ring. It also holds one ``run_iterstudy`` run,
BP2 and BP3 at 1, 2 and 4 iterations, keyed per (detector, SNR, count)
as ``DET@snr#count``. Rewrite it with
``PYTHONPATH=src python tests/test_golden.py`` only for an intended change
of behaviour, and list that change in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from mimobp.sim import DETECTORS, SimConfig, run_iterstudy, run_simulate

GOLDEN = Path(__file__).with_name("golden_counts.json")

RUNS = {
    "qpsk4x4-all": (run_simulate, SimConfig(m=4, n=4, snr_db=(4.0, 10.0), detectors=DETECTORS,
                                            trials=300, seed=101)),
    "qam16-3x5": (run_simulate, SimConfig(m=3, n=5, constellation="QAM16", snr_db=(10.0, 16.0),
                                          detectors=("LMMSE", "BP2", "BP3", "FB", "GBP2G", "GBP3G"),
                                          trials=300, seed=102)),
    "qpsk4x4-ring": (run_simulate, SimConfig(m=4, n=4, snr_db=(4.0, 10.0),
                                             detectors=("BP3", "FB", "GBP3G"),
                                             permutation=(2, 0, 3, 1), trials=300, seed=103)),
    "qpsk4x4-iterstudy": (run_iterstudy, SimConfig(m=4, n=4, snr_db=(4.0, 8.0),
                                                   detectors=("BP2", "BP3"), iter_list=(1, 2, 4),
                                                   trials=300, seed=104)),
}


def counts(name):
    """{"DET@snr": [trials, bit_errors]} for one run; "DET@snr#count" in an iteration study."""
    run, cfg = RUNS[name]
    return {f"{r.detector}@{r.snr_db:g}" + ("" if r.iterations is None else f"#{r.iterations}"):
            [r.trials, r.bit_errors]
            for r in run(cfg.validate())}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_counts_unchanged(name):
    assert counts(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: counts(name) for name in RUNS},
                                 indent=1, sort_keys=True) + "\n")
