"""Fresh-process side of the benchmark, started by run.py.

    python3 perfbench/worker.py setup --workload NAME [--smoke]
    python3 perfbench/worker.py loop --workload NAME --seed N --seconds S [--smoke]

`setup` times `import mimobp`, `sim.load_config` and `get_constellation`
in a fresh process. `loop` makes the pinned warm-up call, then the timed
closed loop, and reports every call's records with the process's peak RSS.
Both print one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import time

import env

env.prepare()

from workloads import PIN_SEED, WORKLOADS, config_fields  # noqa: E402


# Seconds interpreter_seconds() takes on a 2-vCPU x86-64 VM in its fast state
INTERPRETER_NOMINAL_S = 0.013


def interpreter_seconds() -> float:
    """Wall time of a fixed pure-Python loop.

    Importing is interpreter work, so this probe, not the numpy one, tracks
    the host speed for the set-up time; it needs nothing imported, so it can
    run on both sides of the timed imports.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i % 7
    return time.perf_counter() - t0


def probe_setup(workload, smoke):
    """Set-up time, normalised by the interpreter probes run just before and after it."""
    before = interpreter_seconds()
    t0 = time.perf_counter()
    import mimobp
    from mimobp import sim
    cfg = sim.load_config(overrides=config_fields(workload, PIN_SEED, smoke))
    mimobp.get_constellation(cfg.constellation)
    wall = time.perf_counter() - t0
    reference = (before + interpreter_seconds()) / 2
    return {"setup_s": wall * INTERPRETER_NOMINAL_S / reference, "wall_s": wall,
            "reference_s": reference}


def timed_loop(workload, seed, seconds, smoke):
    import harness

    _, pin_records = harness.timed_call(harness.make_config(workload, PIN_SEED, smoke))
    references = [harness.reference_seconds()]

    def step(k, cfg):
        """One timed call between two reference probes (each probe is shared by two calls)."""
        wall, records = harness.timed_call(cfg)
        references.append(harness.reference_seconds())
        return {"seed": cfg.seed, "wall_s": wall, "reference_s": (references[-2] + references[-1]) / 2,
                "useful_trials": harness.useful_trials(records), "rows": harness.rows(records)}

    calls, raised = harness.closed_loop(workload, seed, seconds, 3, smoke, step)
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"pin_rows": harness.rows(pin_records), "calls": calls, "raised": raised,
            "maxrss_kb": maxrss_kb}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "loop"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        out = probe_setup(workload, args.smoke)
    else:
        out = timed_loop(workload, args.seed, args.seconds, args.smoke)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
