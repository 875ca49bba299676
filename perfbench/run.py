"""Benchmark of the Monte Carlo BER engine, `mimobp.sim.run_simulate`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. With `--trace 0` it reports the end-to-end
metrics: set-up time from fresh processes, then a closed loop of
`run_simulate` calls in one fresh worker process, whose peak RSS is
reported too. With `--trace 1` it reports the per-layer metrics from a
traced loop in this process, with separate memory and solver-counter passes.
Times are rescaled by a reference probe measured next to them (see
harness.reference_seconds), so that slow phases of a shared host cancel.
Every run checks the outputs (see checks.py) after timing. The last stdout
line is one JSON object: correct, attempted, failed and metrics. Details,
raw samples and provenance go to `.perfbench_out/` in the checkout.
`--smoke` shrinks every workload for the smoke test.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import env

env.prepare()

from workloads import PIN_SEED, WORKLOADS, call_seed  # noqa: E402

WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROBES = 8
END_TO_END_UNITS = {"trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def spawn(*args, timeout):
    """Run worker.py in a fresh process and return its JSON reply."""
    proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=env.ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=timeout, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(workload, seed, seconds, smoke):
    """Untraced metrics: (metrics, sample counts, raw samples, check booleans, calls raised)."""
    flags = ["--workload", workload.name] + (["--smoke"] if smoke else [])
    # half the set-up probes run before the timed loop and half after it, so
    # that their median samples the host's speed at two times
    probes = [spawn("setup", *flags, timeout=60) for _ in range(SETUP_PROBES // 2)]
    loop = spawn("loop", *flags, "--seed", str(seed), "--seconds", str(seconds),
                 timeout=seconds + 120)
    probes += [spawn("setup", *flags, timeout=60) for _ in range(SETUP_PROBES // 2)]

    import checks
    import harness

    found = checks.check_pins(workload.name, smoke, loop["pin_rows"])
    for call in loop["calls"]:
        found += checks.check_rows(harness.make_config(workload, call["seed"], smoke), call["rows"])
    found += checks.oracle_checks(harness.make_config(workload, call_seed(seed, 0), smoke), seed)
    rates = [c["useful_trials"] / harness.normalised(c["wall_s"], c["reference_s"])
             for c in loop["calls"]]
    setup = [p["setup_s"] for p in probes]
    metrics = {"trials_per_s": statistics.median(rates) if rates else math.nan,
               "setup_s": statistics.median(setup),
               "peak_rss_mb": loop["maxrss_kb"] / 1024.0}
    samples = {"trials_per_s": len(rates), "setup_s": len(setup), "peak_rss_mb": 1}
    raw = {"calls": [{k: c[k] for k in ("seed", "wall_s", "reference_s", "useful_trials")}
                     for c in loop["calls"]],
           "setup_probes": probes}
    return metrics, samples, raw, found, loop["raised"]


def per_layer(workload, seed, seconds, smoke):
    """Traced metrics: (metrics, sample counts, raw samples, check booleans, calls raised)."""
    import checks
    import harness
    import tracing
    from mimobp import sim

    _, pin_records = harness.timed_call(harness.make_config(workload, PIN_SEED, smoke))
    found = checks.check_pins(workload.name, smoke, harness.rows(pin_records))
    tracer = tracing.Tracer()
    useful = 0
    references = [harness.reference_seconds()]

    def traced_call(k, cfg):
        with tracing.patched(tracer.wrap):
            return tracer.run(k, sim.run_simulate, cfg)

    def pair(k, cfg):
        """One untraced and one traced call on the same inputs, in alternating order."""
        nonlocal useful
        if k % 2:
            traced_wall, traced = traced_call(k, cfg)
            plain_wall, plain = harness.timed_call(cfg)
        else:
            plain_wall, plain = harness.timed_call(cfg)
            traced_wall, traced = traced_call(k, cfg)
        useful += harness.useful_trials(traced)
        found.extend(checks.check_rows(cfg, harness.rows(plain)))
        found.append(harness.rows(traced) == harness.rows(plain))
        references.append(harness.reference_seconds())
        return 1.0 - plain_wall / traced_wall

    overheads, raised = harness.closed_loop(workload, seed, seconds, 2, smoke, pair)
    metrics, closure = tracing.layer_metrics(tracer, useful)
    found.append(closure < 1e-9)
    scale = harness.normalised(1.0, statistics.median(references))
    for name in metrics:
        if name.endswith(("us_per_trial", "us_per_call")):
            metrics[name] *= scale
    first = harness.make_config(workload, call_seed(seed, 0), smoke)
    metrics.update(tracing.memory_pass(first))
    metrics.update(tracing.solver_counters(first))
    metrics["trace.overhead_frac"] = statistics.median(overheads) if overheads else math.nan
    found += checks.oracle_checks(first, seed)
    _write_spans(tracer.spans, workload.name, seed)
    samples = dict.fromkeys(metrics, len(overheads))
    for name in metrics:
        if name.endswith(("peak_alloc_mb", "unsettled_frac", "lmmse_gap")):
            samples[name] = 1
    return metrics, samples, {"trace.overhead_frac": overheads}, found, raised


def _write_spans(spans, name, seed):
    env.OUT_DIR.mkdir(exist_ok=True)
    with open(env.OUT_DIR / f"spans-{name}-seed{seed}.jsonl", "w", encoding="utf-8") as fh:
        fh.write('["name","start","end","parent","run"]\n')
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def provenance(args):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"git_rev": env.git_rev(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas, "cpu_count": os.cpu_count(),
            "threads": {k: os.environ.get(k) for k in env.THREAD_ENV},
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny trial counts, for the smoke test")
    args = ap.parse_args()
    if not 0 <= args.seed < 2 ** 40:
        ap.error("--seed must lie in [0, 2^40)")
    workload = WORKLOADS[args.workload]
    measure = per_layer if args.trace else end_to_end
    metrics, samples, raw, found, raised = measure(workload, args.seed, args.seconds, args.smoke)
    if args.trace:
        import tracing

        units = tracing.PER_LAYER_UNITS
    else:
        units = END_TO_END_UNITS
    metrics = {name: metrics[name] for name in units}
    if not all(math.isfinite(v) for v in metrics.values()):
        raise SystemExit("perfbench: no complete measurement; every timed call raised")

    attempted = len(found) + raised
    failed = found.count(False) + raised
    info = provenance(args)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"rev={info['git_rev'][:12]} numpy={info['numpy']}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]:9s} n={samples[name]}")
    print(f"  {'failed_frac':40s} {failed / attempted:14.6g} {'frac':9s} "
          f"n={attempted} ({failed} failed, {raised} raised)")
    detail = {"provenance": info, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k], "samples": samples[k]}
                          for k, v in metrics.items()},
              "raw_samples": raw}
    env.OUT_DIR.mkdir(exist_ok=True)
    out = env.OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1) + "\n")
    print(f"provenance {json.dumps(info)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))


if __name__ == "__main__":
    main()
