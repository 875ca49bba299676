"""Per-layer measurement of `run_simulate` from outside the library.

Three passes, each separate from the others and from the untraced timing:

* spans: public functions are wrapped by replacing module attributes
  (`mimobp.sim.generate_batch`, `mimobp.sim.trial_rng`, each
  `mimobp.batch.<kernel>`) and restored afterwards; spans stay in memory;
* memory: the same wrapping with `tracemalloc` peaks per kernel call;
* solver counters: the Gaussian kernels run again at `gbp_sweeps - 1`
  sweeps on one untraced batch.
"""

from __future__ import annotations

import dataclasses
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from mimobp import batch, get_constellation, sim

KERNELS = ("link_tables", "lmmse_batch", "ml_hard_batch", "map_marginals_batch",
           "bp1_batch", "bp2_batch", "bp3_batch", "fb_batch", "gbp2g_batch", "gbp3g_batch")
ROOT = "sim.run_simulate"
GENERATE = "sim.generate_batch"
TRIAL_RNG = "channel.trial_rng"
SETTLE_TOL = 1e-12

PER_LAYER_UNITS = {
    f"{GENERATE}.us_per_trial": "us",
    f"{GENERATE}.share": "frac",
    f"{TRIAL_RNG}.us_per_call": "us",
    "sim.self_share": "frac",
    "sim.useful_trial_frac": "frac",
    **{f"batch.{k}.{m}": u for k in KERNELS
       for m, u in (("us_per_trial", "us"), ("share", "frac"), ("peak_alloc_mb", "MB"))},
    "batch.gbp2g_batch.unsettled_frac": "frac",
    "batch.gbp3g_batch.unsettled_frac": "frac",
    "batch.gbp2g_batch.lmmse_gap": "amplitude",
    "trace.overhead_frac": "frac",
}


def _targets():
    """(module, attribute, span name) of every wrapped public function."""
    return ([(sim, "generate_batch", GENERATE), (sim, "trial_rng", TRIAL_RNG)]
            + [(batch, k, f"batch.{k}") for k in KERNELS])


@contextmanager
def patched(wrap):
    """Replace each target with ``wrap(span name, original)``; restore on exit."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in _targets()]
    try:
        for (mod, attr, name), (_, _, original) in zip(_targets(), saved):
            setattr(mod, attr, wrap(name, original))
        yield
    finally:
        for mod, attr, original in saved:
            setattr(mod, attr, original)


class Tracer:
    """In-memory spans: [name, start, end, parent span index or -1, run id]."""

    def __init__(self):
        self.spans = []
        self.generated = 0  # trials returned by generate_batch
        self._stack = []
        self._run = -1

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._run])

    def _exit(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit()
            if name == GENERATE:
                self.generated += len(out[0])
            return out
        return traced

    def run(self, run_id, fn, *args):
        """Call ``fn`` under a root span of its own run id; (wall seconds, result)."""
        self._run = run_id
        index = len(self.spans)
        self._enter(ROOT)
        try:
            out = fn(*args)
        finally:
            self._exit()
        _, start, end, _, _ = self.spans[index]
        return end - start, out


def self_times(spans):
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, edge = 0.0, start
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], edge), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out.append(end - start - covered)
    return out


def layer_metrics(tracer: Tracer, useful_trials: int):
    """Per-layer metrics of all traced calls, plus the self-time closure error.

    Shares divide by the summed root wall time. `sim.generate_batch` is
    counted inclusive of its `channel.trial_rng` children, so the shares of
    `sim.generate_batch`, `sim` (self) and the batch kernels add up to one.
    """
    selfs = self_times(tracer.spans)
    self_s, total_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for span, own in zip(tracer.spans, selfs):
        self_s[span[0]] += own
        total_s[span[0]] += span[2] - span[1]
        calls[span[0]] += 1
    wall = total_s[ROOT]
    trials = max(tracer.generated, 1)
    metrics = {
        f"{GENERATE}.us_per_trial": total_s[GENERATE] / trials * 1e6,
        f"{GENERATE}.share": total_s[GENERATE] / wall,
        f"{TRIAL_RNG}.us_per_call": total_s[TRIAL_RNG] / max(calls[TRIAL_RNG], 1) * 1e6,
        "sim.self_share": self_s[ROOT] / wall,
        "sim.useful_trial_frac": useful_trials / trials,
    }
    for k in KERNELS:
        metrics[f"batch.{k}.us_per_trial"] = self_s[f"batch.{k}"] / trials * 1e6
        metrics[f"batch.{k}.share"] = self_s[f"batch.{k}"] / wall
    accounted = self_s[ROOT] + total_s[GENERATE] + sum(self_s[f"batch.{k}"] for k in KERNELS)
    return metrics, abs(accounted - wall) / wall


def memory_pass(cfg: sim.SimConfig) -> dict:
    """tracemalloc peak (MB) of the largest call of each kernel over one batch."""
    one_batch = dataclasses.replace(cfg, trials=cfg.batch_size, target_errors=None,
                                    max_trials=None)
    peaks = {f"batch.{k}": 0.0 for k in KERNELS}
    active = []

    def wrap(name, fn):
        if name not in peaks:
            return fn

        def measured(*args, **kwargs):
            if active:  # a kernel called by another kernel counts in the outer one
                return fn(*args, **kwargs)
            active.append(name)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] - base
                peaks[name] = max(peaks[name], peak / 2 ** 20)
                active.pop()
        return measured

    tracemalloc.start()
    try:
        with patched(wrap):
            sim.run_simulate(one_batch)
    finally:
        tracemalloc.stop()
    return {f"{name}.peak_alloc_mb": mb for name, mb in peaks.items()}


def solver_counters(cfg: sim.SimConfig) -> dict:
    """Unsettled-trial fractions of the Gaussian kernels and GBP2G's LMMSE gap.

    A trial is unsettled when some belief mean still moves by more than
    SETTLE_TOL in the last of `gbp_sweeps` sweeps.
    """
    c = get_constellation(cfg.constellation)
    sweeps = cfg.gbp_sweeps
    unsettled = {"GBP2G": 0, "GBP3G": 0}
    gap, seen = 0.0, 0
    for snr_idx, snr in enumerate(cfg.snr_db):
        sigma2 = 10.0 ** (-snr / 10.0)
        H, _, y = sim.generate_batch(cfg, c, sigma2, snr_idx, 0, cfg.batch_size)
        tables = batch.link_tables(H, y, sigma2)
        seen += len(H)
        if "GBP2G" in cfg.detectors:
            last = batch.gbp2g_batch(tables, sweeps)
            unsettled["GBP2G"] += _moving(last, batch.gbp2g_batch(tables, sweeps - 1))
            xhat, _ = batch.lmmse_batch(H, y, sigma2)
            gap = max(gap, float(np.max(np.abs(last - xhat))))
        if "GBP3G" in cfg.detectors:
            order = cfg.permutation
            unsettled["GBP3G"] += _moving(batch.gbp3g_batch(tables, sweeps, order=order),
                                          batch.gbp3g_batch(tables, sweeps - 1, order=order))
    return {
        "batch.gbp2g_batch.unsettled_frac": unsettled["GBP2G"] / seen,
        "batch.gbp3g_batch.unsettled_frac": unsettled["GBP3G"] / seen,
        "batch.gbp2g_batch.lmmse_gap": gap,
    }


def _moving(last, prev):
    return int(np.sum(np.max(np.abs(last - prev), axis=1) > SETTLE_TOL))
