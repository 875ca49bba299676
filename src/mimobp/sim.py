"""Monte Carlo harness: BER sweeps, convergence traces, iteration studies.

Reproducibility contract: every trial owns a counter-based random stream
derived from (master seed, SNR index, trial index), and all aggregation is
order-independent, so results are byte-identical for any batch size. A batch
draws its trials with one Philox generator moved to each trial's counter in
turn, which yields exactly the numbers of a fresh generator per trial. All
detectors inside one trial see the same channel, symbols and noise, which
makes BER comparisons paired. Timing columns are the one exception to
byte-identical output; everything else is deterministic.

``simulate`` and ``iterstudy`` share one BER loop over arms, each arm a
(detector, iteration count) pair: one arm per detector at its configured
count, or one per BP2/BP3 detector and ``iter_list`` count. Every arm sees
the same draws, and ``target_errors``/``max_trials`` apply to every arm.
"""

from __future__ import annotations

import collections
import io
import json
import os
import threading
import time
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from . import batch
from .channel import ChannelInstance, consecutive_streams, get_constellation, trial_rng
from .discrete_bp import BpConfig, bp1_factor_graph, bp2_fully_connected, bp3_ring, hard_decide, soft_output
from .errors import ConfigError
from .exact import lmmse, map_marginals, ml_hard
from .gaussian_bp import GbpConfig, affine_ops, convergence_metric, fixed_point, gbp2g, gbp3g
from .pairwise import Topology, build_graph, ring_order
from .polydiag import bidiagonalize, forward_backward_detect

DETECTORS = ("MAP", "ML", "LMMSE", "BP1", "BP2", "BP3", "FB", "GBP2G", "GBP3G")
LATTICE_DETECTORS = ("MAP", "ML", "BP1")
LINKED_DETECTORS = ("BP2", "BP3", "GBP2G", "GBP3G")  # read batch.link_tables
POSTERIOR_DETECTORS = ("LMMSE", "FB") + LINKED_DETECTORS  # read batch.factor_posterior
DEFAULT_ITERATIONS = {"BP1": 4, "BP2": 3, "BP3": 4, "FB": 4}
# The tasks of a generated batch, longest first, as traced on the benchmark
# workloads: the lattice arms (ML, MAP and BP1 on shared residual tables),
# then one per other iterative arm. LMMSE is no task; see _run_arms.
_TASK_ORDER = ("lattice", "GBP2G", "BP2", "FB", "BP3", "GBP3G")
# Batches of fewer trials run on one lane. numpy lets go of the GIL only in
# loops over more than 500 elements, and a handoff of the GIL between the
# lanes costs about as much as a loop over a few thousand; so on small
# batches the second lane adds handoffs and hardly any overlap. Two lanes
# ran 1.1 to 1.4x slower than one at 16 to 128 trials per batch (CHANGES.md).
_LANE_MIN_TRIALS = 256


# Beyond +-100 dB the detectors' arithmetic leaves the double range: at
# 1600 dB and -200 dB the kernels divide 0 by 0 or overflow and count NaN
# beliefs as decisions.
MAX_ABS_SNR_DB = 100.0


def noise_variance(snr_db) -> float:
    """sigma2 = 10^(-snr_db / 10), the noise power per complex dimension at
    unit symbol energy. ConfigError unless |snr_db| <= MAX_ABS_SNR_DB."""
    if not abs(snr_db) <= MAX_ABS_SNR_DB:  # also rejects NaN
        raise ConfigError(f"snr_db {snr_db!r} is outside [-{MAX_ABS_SNR_DB:g}, "
                          f"{MAX_ABS_SNR_DB:g}] dB, where results stay finite")
    return 10.0 ** (-snr_db / 10.0)


@dataclass(frozen=True)
class BerRecord:
    detector: str
    snr_db: float
    trials: int
    bit_errors: int
    ber: float
    ci95: float
    elapsed_s: float
    iterations: int | None = None


@dataclass(frozen=True)
class SimConfig:
    """Full description of one simulator run."""

    m: int = 4
    n: int = 4
    constellation: str = "QPSK"
    snr_db: tuple = (6.0, 8.0, 10.0, 12.0, 14.0)
    detectors: tuple = ("ML", "BP2", "BP3", "LMMSE")
    iterations: dict = field(default_factory=dict)
    trials: int = 10000
    target_errors: int | None = None
    max_trials: int | None = None
    seed: int = 0
    permutation: tuple | None = None
    out: str | None = None
    fmt: str = "csv"
    batch_size: int = 4096
    gbp_sweeps: int = 200
    channels: int = 20
    sweeps: int = 1000
    iter_list: tuple = (2, 3, 4, 6)

    def validate(self):
        if self.m < 1 or self.n < self.m:
            raise ConfigError(f"need N >= M >= 1, got M={self.m}, N={self.n}")
        if not self.snr_db:
            raise ConfigError("snr_db list must not be empty")
        for snr in self.snr_db:
            noise_variance(snr)
        if not self.detectors:
            raise ConfigError("detector list must not be empty")
        for d in self.detectors:
            if d not in DETECTORS:
                raise ConfigError(f"unknown detector {d!r}; choose from {', '.join(DETECTORS)}")
        for key in ("trials", "batch_size", "gbp_sweeps", "sweeps", "channels"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1")
        if not self.iter_list:
            raise ConfigError("iter_list must not be empty")
        if min(self.iter_list) < 1:
            raise ConfigError(f"iter_list counts must be >= 1, got {self.iter_list}")
        if self.max_trials is not None and self.max_trials < self.trials:
            raise ConfigError(f"max_trials ({self.max_trials}) must be >= trials ({self.trials})")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must fit in 64 bits")
        for key in ("trials", "max_trials"):
            if (getattr(self, key) or 0) >= 2 ** 64:
                raise ConfigError(f"{key} must be below 2^64: trial indices are 64-bit stream ids")
        for det, count in self.iterations.items():
            if det not in DEFAULT_ITERATIONS:
                raise ConfigError(f"{det} takes no iteration count (GBP sweeps: gbp_sweeps)")
            if count < 1:
                raise ConfigError(f"iterations for {det} must be >= 1")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"unknown format {self.fmt!r}")
        if "FB" in self.detectors and self.m < 2:
            raise ConfigError("FB needs M >= 2: each shortening filter pairs two streams")
        try:
            ring_order(self.m, self.permutation)
            get_constellation(self.constellation)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return self

    def iteration_count(self, detector):
        return int(self.iterations.get(detector, DEFAULT_ITERATIONS.get(detector, 4)))

    def echo(self) -> str:
        items = []
        for key, value in sorted(asdict(self).items()):
            # batch_size is a parallelism knob with no effect on results, so
            # it stays out of the provenance line to keep outputs identical
            # across partitionings
            if value is None or key in ("out", "batch_size"):
                continue
            if isinstance(value, dict):
                value = ";".join(f"{k}:{v}" for k, v in sorted(value.items())) or "default"
            elif isinstance(value, (tuple, list)):
                value = ",".join(str(v) for v in value)
            items.append(f"{key}={value}")
        return " ".join(items)


# ---------------------------------------------------------------------------
# config file parsing

_LIST_KEYS = {"snr_db", "detectors", "permutation", "iter_list"}
_INT_KEYS = {"m", "n", "trials", "target_errors", "max_trials", "seed",
             "batch_size", "gbp_sweeps", "channels", "sweeps"}


def parse_config_text(text: str) -> dict:
    """Parse the flat key = value config format; '#' starts a comment."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key.startswith("iterations."):
            det = key.split(".", 1)[1].upper()
            if det not in DETECTORS:
                raise ConfigError(f"line {lineno}: unknown detector {det!r} in {key!r}")
            out.setdefault("iterations", {})[det] = _parse_scalar(key, value, lineno, int)
        elif key == "iterations":
            out["iterations"] = _all_iterations(_parse_scalar(key, value, lineno, int))
        elif key in _LIST_KEYS:
            out[key] = _parse_list(key, value, lineno)
        elif key in _INT_KEYS:
            out[key] = _parse_scalar(key, value, lineno, int)
        elif key in ("constellation", "fmt", "out"):
            out[key] = value
        elif key == "detector":
            out["detectors"] = _parse_list(key, value, lineno)
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    return out


def _all_iterations(count: int) -> dict:
    """One scalar iteration count for every iterative detector."""
    if count < 1:
        raise ConfigError(f"iterations must be >= 1, got {count}")
    return dict.fromkeys(DEFAULT_ITERATIONS, count)


def _parse_scalar(key, value, lineno, cast):
    try:
        return cast(value)
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: field {key!r}: {exc}") from None


def _parse_list(key, value, lineno):
    parts = [p.strip() for p in value.split(",") if p.strip()]
    if key == "snr_db":
        return tuple(_parse_scalar(key, p, lineno, float) for p in parts)
    if key in ("permutation", "iter_list"):
        return tuple(_parse_scalar(key, p, lineno, int) for p in parts)
    return tuple(p.upper() for p in parts)


def load_config(path=None, overrides=None) -> SimConfig:
    data: dict = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            data.update(parse_config_text(fh.read()))
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key == "iterations" and isinstance(value, int):
            value = {**data.get("iterations", {}), **_all_iterations(value)}
        data[key] = value
    try:
        cfg = SimConfig(**data)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None
    return cfg.validate()


# ---------------------------------------------------------------------------
# trial generation

def generate_batch(cfg: SimConfig, constellation, sigma2, snr_idx, start, count):
    """Draw ``count`` trials, one independent stream per (seed, snr, trial).

    Per-trial draw protocol (fixed for reproducibility): 2NM standard
    normals for the channel, M uniforms for the symbol indices, then 2N
    standard normals for the noise.

    One Philox serves the whole batch: it is moved to each trial's stream in
    turn and draws straight into that trial's rows, and the channels, symbols
    and received vectors are then formed for all trials at once. The numbers
    are those of a fresh ``trial_rng(seed, trial, snr_idx)`` per trial.
    """
    m, n = cfg.m, cfg.n
    g = trial_rng(cfg.seed, start, snr_idx)
    trials = consecutive_streams(g, start, count, snr_idx)
    W = np.empty((count, 2 * n * m))
    U = np.empty((count, m))
    WN = np.empty((count, 2 * n))
    for b in trials:
        g.standard_normal(out=W[b])
        g.random(out=U[b])
        g.standard_normal(out=WN[b])
    H = (W[:, : n * m] + 1j * W[:, n * m:]).reshape(count, n, m) / np.sqrt(2.0)
    cum = np.cumsum(constellation.prior)
    idx = np.minimum(np.searchsorted(cum, U, side="right"), constellation.size - 1)
    # a stack of matrix-vector products makes the same BLAS call per trial as
    # H[b] @ x[b], so y is bit-identical to per-trial draws (einsum is not)
    y = (H @ constellation.points[idx][..., None])[..., 0]
    y += np.sqrt(sigma2 / 2.0) * (WN[:, :n] + 1j * WN[:, n:])
    return H, idx, y


def _detect_batch(detector, count, H, y, sigma2, constellation, posterior, tables, residuals,
                  order):
    """Hard decisions (B, M) of one arm on one generated batch, or for a
    lattice arm on one block of its trials.

    ``count`` is the arm's iteration or sweep count, ``posterior`` the
    batch's ``batch.factor_posterior``, ``tables`` its link tables and
    ``residuals`` the block's ``batch.lattice_residuals``, each None when no
    arm needs it.
    """
    if detector == "LMMSE":
        xhat, _ = batch.lmmse_batch(H, y, sigma2, posterior=posterior)
        return constellation.slice_hard(xhat)
    if detector == "ML":
        return batch.ml_hard_batch(H, y, sigma2, constellation, residuals=residuals)
    if detector == "MAP":
        return np.argmax(batch.map_marginals_batch(H, y, sigma2, constellation,
                                                   residuals=residuals), axis=2)
    if detector == "BP1":
        return np.argmax(batch.bp1_batch(H, y, sigma2, constellation, count,
                                         residuals=residuals), axis=2)
    if detector == "BP2":
        return np.argmax(batch.bp2_batch(tables, constellation, count), axis=2)
    if detector == "BP3":
        return np.argmax(batch.bp3_batch(tables, constellation, count, order=order), axis=2)
    if detector == "FB":
        return np.argmax(batch.fb_batch(H, y, sigma2, constellation, count, order=order,
                                        posterior=posterior), axis=2)
    if detector == "GBP2G":
        return constellation.slice_hard(batch.gbp2g_batch(tables, count))
    if detector == "GBP3G":
        return constellation.slice_hard(batch.gbp3g_batch(tables, count, order=order))
    raise ConfigError(f"unknown detector {detector!r}")


def _check_capacity(cfg, constellation):
    lattice = [d for d in cfg.detectors if d in LATTICE_DETECTORS]
    if lattice:
        batch.check_lattice_capacity(cfg.m, constellation, what="detectors " + ",".join(lattice))


def _cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class _Worker:
    """One daemon thread that runs the callables handed to ``submit`` in turn."""

    def __init__(self):
        self.pid = os.getpid()
        self._jobs = collections.deque()  # append and popleft are thread-safe
        self._pending = threading.Semaphore(0)
        threading.Thread(target=self._serve, name="mimobp-lane", daemon=True).start()

    def _serve(self):
        while True:
            self._pending.acquire()
            fn, done = self._jobs.popleft()
            try:
                fn()
            finally:
                # drop the job, and the batch it holds, before the next wait
                del fn
                done.set()

    def submit(self, fn):
        """Queue ``fn``, which must not raise; returns an Event set once it has run."""
        done = threading.Event()
        self._jobs.append((fn, done))
        self._pending.release()
        return done


_worker = None


def _the_worker():
    """The process's one worker, started on first use. A child forked after
    the worker started has no thread behind it and starts its own. Two
    threads that race here may start one each; the spare one stays idle."""
    global _worker
    if _worker is None or _worker.pid != os.getpid():
        _worker = _Worker()
    return _worker


def _run_tasks(tasks, share):
    """Call each of ``tasks`` once, on this thread and, if ``share`` holds
    and there are two or more tasks, on the worker thread as well.

    Each lane takes the next task in list order until none is left, so the
    longest tasks, listed first, start first. Returns once both lanes are
    idle. If tasks raised, the exception of the first of them in list order
    is raised. A lane takes no task after one has raised, but every task
    listed before a raising one was taken before it and has run, so the
    exception raised does not depend on which lane ran what.
    """
    failed = {}
    taken = iter(range(len(tasks)))
    lock = threading.Lock()

    def lane():
        while not failed:
            with lock:
                t = next(taken, None)
            if t is None:
                return
            try:
                tasks[t]()
            except BaseException as exc:  # re-raised below, once both lanes are idle
                failed[t] = exc

    done = _the_worker().submit(lane) if share and len(tasks) > 1 else None
    try:
        lane()
    finally:
        if done is not None:
            done.wait()
    if failed:
        raise failed[min(failed)]


def _read_only(*arrays):
    """Mark ``arrays`` read-only, so that a kernel writing into input that
    both lanes read raises instead of racing."""
    for a in arrays:
        a.flags.writeable = False


def _ci95(errors, n_bits):
    p = errors / n_bits
    p_floor = max(p, 0.5 / n_bits)  # continuity floor keeps zero-error CIs positive
    return 1.96 * np.sqrt(p_floor * (1.0 - p_floor) / n_bits)


# ---------------------------------------------------------------------------
# commands


def run_simulate(cfg: SimConfig):
    """BER per (detector, SNR) at the configured counts."""
    return _run_arms(cfg, [(d, None) for d in cfg.detectors])


def run_iterstudy(cfg: SimConfig):
    """BER per (detector, iteration count, SNR) for the pairwise BP detectors."""
    bad = [d for d in cfg.detectors if d not in ("BP2", "BP3")]
    if bad:
        raise ConfigError(f"iterstudy supports BP2/BP3 only, got {bad}")
    return _run_arms(cfg, [(d, k) for d in cfg.detectors for k in cfg.iter_list])


def _run_arms(cfg: SimConfig, arms):
    """BER per (arm, SNR); common random numbers across arms.

    An arm is a (detector, count) pair and is kept by position, so a repeated
    arm gives a repeated record. A count of None means the configured one,
    ``gbp_sweeps`` for GBP and ``iteration_count`` otherwise, and leaves the
    record's ``iterations`` empty.

    Each generated batch's posterior is factored once, and its link tables
    built once, before the arm timers: LMMSE, FB and the link tables all read
    the same factorisation. The lattice arms (ML, MAP, BP1) walk the batch in
    ``batch.lattice_blocks``, and each block's residual table is built once,
    outside the arm timers, and read by all of them, so no batch ever holds
    one table for all its trials. No arm's ``elapsed_s`` carries shared work.

    The arms of a batch are independent, so they run as tasks on two lanes
    (``_run_tasks``): one task for the lattice arms and one per other arm,
    in ``_TASK_ORDER``. LMMSE, a closed-form read of the posterior, runs on
    this thread first. The second lane, a worker thread, takes tasks only
    when the process may run on two CPUs and the batch has at least
    ``_LANE_MIN_TRIALS`` trials. The shared inputs are read-only by then.
    Decisions are kept per arm and counted in arm order once both lanes are
    done, so the records do not depend on the lanes. An arm's ``elapsed_s``
    is the CPU time of its own thread (``time.thread_time``) in its kernels.
    """
    constellation = get_constellation(cfg.constellation)
    _check_capacity(cfg, constellation)
    labels = constellation.bit_labels
    bits_per_trial = cfg.m * constellation.bits_per_symbol
    counts = [k if k is not None else
              cfg.gbp_sweeps if d.startswith("GBP") else cfg.iteration_count(d)
              for d, k in arms]
    linked = any(d in LINKED_DETECTORS for d, _ in arms)
    factored = any(d in POSTERIOR_DETECTORS for d, _ in arms)
    on_lattice = [a for a, (d, _) in enumerate(arms) if d in LATTICE_DETECTORS]
    closed_form = [a for a, (d, _) in enumerate(arms) if d == "LMMSE"]
    two_cpus = _cpus() > 1
    tasked = sorted((a for a, (d, _) in enumerate(arms)
                     if d not in LATTICE_DETECTORS and d != "LMMSE"),
                    key=lambda a: _TASK_ORDER.index(arms[a][0]))
    records = []
    for snr_idx, snr in enumerate(cfg.snr_db):
        sigma2 = noise_variance(snr)
        errors = [[] for _ in arms]
        totals = [0] * len(arms)
        elapsed = [0.0] * len(arms)
        hard_cap = cfg.max_trials or (cfg.trials if cfg.target_errors is None
                                      else 100 * cfg.trials)
        done = 0
        while done < hard_cap:
            count = min(cfg.batch_size, hard_cap - done)
            H, idx_true, y = generate_batch(cfg, constellation, sigma2, snr_idx, done, count)
            bits_true = labels[idx_true]
            posterior = batch.factor_posterior(H, y, sigma2) if factored else None
            tables = batch.link_tables(H, y, sigma2, posterior=posterior) if linked else None
            _read_only(H, y, *(posterior or ()), *(vars(tables).values() if tables else ()))
            decided = [[] for _ in arms]  # each arm's decisions, block by block

            def decide(a, part=slice(None), residuals=None):
                t0 = time.thread_time()
                decided[a].append(_detect_batch(arms[a][0], counts[a], H[part], y[part], sigma2,
                                                constellation, posterior, tables, residuals,
                                                cfg.permutation))
                elapsed[a] += time.thread_time() - t0

            def lattice():
                for part in batch.lattice_blocks(H, constellation):
                    residuals = batch.lattice_residuals(H[part], y[part], constellation)
                    _read_only(residuals)
                    for a in on_lattice:
                        decide(a, part, residuals)

            for a in closed_form:
                decide(a)
            _run_tasks(([lattice] if on_lattice else []) + [partial(decide, a) for a in tasked],
                       share=two_cpus and count >= _LANE_MIN_TRIALS)
            for a, parts in enumerate(decided):
                errors[a].append(np.sum(labels[np.concatenate(parts)] != bits_true, axis=(1, 2)))
                totals[a] += int(errors[a][-1].sum())
            done += count
            if _stopping_met(cfg, totals, done):
                break
        for (det, k), chunks, secs in zip(arms, errors, elapsed):
            per_trial = np.concatenate(chunks)
            used = _trials_used(cfg, per_trial)
            n_err = int(per_trial[:used].sum())
            n_bits = used * bits_per_trial
            records.append(BerRecord(detector=det, snr_db=snr, trials=used,
                                     bit_errors=n_err, ber=n_err / n_bits,
                                     ci95=float(_ci95(n_err, n_bits)),
                                     elapsed_s=secs, iterations=k))
    return records


def _trials_used(cfg, per_trial):
    """Stopping trial for one arm; independent of batch partitioning."""
    total = per_trial.shape[0]
    if cfg.target_errors is None:
        return min(cfg.trials, total)
    floor = min(cfg.trials, total)
    cum = np.cumsum(per_trial)
    reached = np.nonzero(cum >= cfg.target_errors)[0]
    if reached.size == 0:
        return total
    return max(floor, int(reached[0]) + 1)


def _stopping_met(cfg, totals, done):
    """Whether ``done`` trials, with ``totals`` bit errors per arm, end the SNR point."""
    if cfg.target_errors is None or done < cfg.trials:
        return done >= cfg.trials
    return min(totals) >= cfg.target_errors


@dataclass(frozen=True)
class ConvergenceRecord:
    channel_id: int
    snr_db: float
    detector: str
    n: int
    e_n: float
    d_n: float


def run_converge(cfg: SimConfig):
    """Per-channel convergence traces of the Gaussian schemes."""
    bad = [d for d in cfg.detectors if d not in ("GBP2G", "GBP3G")]
    if bad:
        raise ConfigError(f"converge supports GBP2G/GBP3G only, got {bad}")
    constellation = get_constellation(cfg.constellation)
    records = []
    gcfg = GbpConfig(max_sweeps=cfg.sweeps, tol=1e-13)
    for cid in range(cfg.channels):
        for snr_idx, snr in enumerate(cfg.snr_db):
            sigma2 = noise_variance(snr)
            # one independent stream per (channel id, SNR point), mirroring
            # the BER sweep's trial streams
            H, idx, y = generate_batch(cfg, constellation, sigma2, snr_idx, cid, 1)
            channel = ChannelInstance(H=H[0], sigma2=sigma2)
            x_true = constellation.points[idx[0]]
            ref = lmmse(channel, y[0])
            for det in cfg.detectors:
                if det == "GBP2G":
                    graph = build_graph(channel, y[0], Topology.FULLY_CONNECTED)
                    trace = gbp2g(graph, gcfg)
                else:
                    graph = build_graph(channel, y[0], Topology.RING, cfg.permutation)
                    trace = gbp3g(graph, gcfg)
                curves = convergence_metric(trace, x_true, ref.estimates, ref.mmse)
                for n in range(trace.n_sweeps):
                    records.append(ConvergenceRecord(channel_id=cid, snr_db=snr,
                                                     detector=det, n=n + 1,
                                                     e_n=float(curves.e[n]),
                                                     d_n=float(curves.d[n])))
    return records


def run_detect(cfg: SimConfig):
    """Single-instance diagnostic report, built on the reference detectors."""
    constellation = get_constellation(cfg.constellation)
    snr = cfg.snr_db[0]
    sigma2 = noise_variance(snr)
    H, idx, y = generate_batch(cfg, constellation, sigma2, 0, 0, 1)
    channel = ChannelInstance(H=H[0], sigma2=sigma2)
    y0 = y[0]
    report = {
        "snr_db": snr,
        "sigma2": sigma2,
        "H": _cplx(channel.H),
        "y": _cplx(y0),
        "tx_indices": idx[0].tolist(),
        "tx_bits": constellation.bits_for(idx[0]).tolist(),
        "detectors": {},
    }
    detectors = list(cfg.detectors)
    if cfg.m == 1:
        detectors = [d for d in detectors if d in ("MAP", "ML", "LMMSE", "BP1")]
    for det in detectors:
        entry = {}
        if det == "MAP":
            beliefs = map_marginals(channel, constellation, y0)
        elif det == "ML":
            hard = ml_hard(channel, constellation, y0)
            report["detectors"][det] = {"hard": hard.tolist(),
                                        "bits": constellation.bits_for(hard).tolist()}
            continue
        elif det == "LMMSE":
            res = lmmse(channel, y0)
            hard = constellation.slice_hard(res.estimates)
            report["detectors"][det] = {
                "estimates": _cplx(res.estimates), "mmse": res.mmse.tolist(),
                "hard": hard.tolist(), "bits": constellation.bits_for(hard).tolist()}
            continue
        elif det == "BP1":
            state = bp1_factor_graph(channel, constellation, y0,
                                     BpConfig(iterations=cfg.iteration_count("BP1")))
            beliefs = state.beliefs
        elif det == "BP2":
            graph = build_graph(channel, y0, Topology.FULLY_CONNECTED)
            beliefs = bp2_fully_connected(graph, constellation,
                                          BpConfig(iterations=cfg.iteration_count("BP2"))).beliefs
        elif det == "BP3":
            graph = build_graph(channel, y0, Topology.RING, cfg.permutation)
            beliefs = bp3_ring(graph, constellation,
                               BpConfig(iterations=cfg.iteration_count("BP3"))).beliefs
        elif det == "FB":
            bd = bidiagonalize(channel, cfg.permutation)
            beliefs = forward_backward_detect(bd, constellation, y0,
                                              BpConfig(iterations=cfg.iteration_count("FB"))).beliefs
        elif det in ("GBP2G", "GBP3G"):
            if det == "GBP2G":
                graph = build_graph(channel, y0, Topology.FULLY_CONNECTED)
                trace = gbp2g(graph, GbpConfig(max_sweeps=cfg.sweeps))
            else:
                graph = build_graph(channel, y0, Topology.RING, cfg.permutation)
                trace = gbp3g(graph, GbpConfig(max_sweeps=cfg.sweeps))
            means = trace.means[-1]
            hard = constellation.slice_hard(means)
            report["detectors"][det] = {
                "means": _cplx(means), "variances": trace.variances[-1].tolist(),
                "sweeps": trace.n_sweeps, "converged": bool(trace.converged),
                "hard": hard.tolist(), "bits": constellation.bits_for(hard).tolist()}
            continue
        else:
            raise ConfigError(f"unknown detector {det!r}")
        hard = hard_decide(beliefs)
        entry.update({"beliefs": [row.tolist() for row in beliefs],
                      "llr": [row.tolist() for row in soft_output(beliefs, constellation)],
                      "hard": hard.tolist(), "bits": constellation.bits_for(hard).tolist()})
        report["detectors"][det] = entry

    if cfg.m >= 2:
        graph = build_graph(channel, y0, Topology.FULLY_CONNECTED)
        report["links"] = [
            {"target": j, "known": i, "y_prime": _c(l.y_prime), "a_diag": l.a_jj,
             "a_cross": _c(l.a_ji), "sigma2_cond": l.sigma2_cond,
             "u": _c(l.u), "v": _c(l.v)}
            for (j, i), l in sorted(graph.links.items())
        ]
        ring = build_graph(channel, y0, Topology.RING, cfg.permutation)
        ops = affine_ops(ring)
        report["contraction"] = {
            "f_V": [_c(ops.compose_forward(r).slope) for r in range(cfg.m)],
            "b_V": [_c(ops.compose_backward(r).slope) for r in range(cfg.m)],
            "bound": ops.contraction_bound(),
        }
        fp = fixed_point(ring)
        report["ring_fixed_point"] = {"forward": _cplx(fp.forward), "backward": _cplx(fp.backward)}
    return report


def _c(z):
    return [float(np.real(z)), float(np.imag(z))]


def _cplx(arr):
    arr = np.asarray(arr)
    return [[_c(v) for v in row] for row in arr] if arr.ndim == 2 else [_c(v) for v in arr]


# ---------------------------------------------------------------------------
# output


def format_report(report: dict) -> str:
    lines = [f"instance at SNR {report['snr_db']} dB (sigma2 = {report['sigma2']:.6g})"]
    lines.append("H (re, im):")
    for row in report["H"]:
        lines.append("  " + "  ".join(f"({re:+.4f},{im:+.4f})" for re, im in row))
    lines.append("y: " + "  ".join(f"({re:+.4f},{im:+.4f})" for re, im in report["y"]))
    lines.append(f"tx indices: {report['tx_indices']}  bits: {report['tx_bits']}")
    for det, entry in report["detectors"].items():
        lines.append(f"[{det}] hard={entry['hard']} bits={entry['bits']}")
        if "beliefs" in entry:
            for j, row in enumerate(entry["beliefs"]):
                lines.append(f"  belief[{j}] " + " ".join(f"{p:.6f}" for p in row)
                             + f"  (sum={sum(row):.12f})")
        if "means" in entry:
            lines.append(f"  means={entry['means']} sweeps={entry['sweeps']} converged={entry['converged']}")
        if "estimates" in entry:
            lines.append(f"  estimates={entry['estimates']} mmse={entry['mmse']}")
    if "contraction" in report:
        lines.append(f"ring contraction f_V={report['contraction']['f_V']}")
        lines.append(f"ring contraction b_V={report['contraction']['b_V']} "
                     f"bound={report['contraction']['bound']:.6f}")
    return "\n".join(lines)


_CSV_FIELDS = {
    "simulate": ("detector", "snr_db", "trials", "bit_errors", "ber", "ci95", "elapsed_s"),
    "iterstudy": ("detector", "iterations", "snr_db", "trials", "bit_errors", "ber", "ci95", "elapsed_s"),
    "converge": ("channel_id", "snr_db", "detector", "n", "e_n", "d_n"),
}


def _fmt_value(v):
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def render_csv(command: str, cfg: SimConfig, records) -> str:
    fields = _CSV_FIELDS[command]
    buf = io.StringIO()
    buf.write(f"# mimobp {command} {cfg.echo()}\n")
    buf.write(",".join(fields) + "\n")
    for rec in records:
        row = asdict(rec)
        buf.write(",".join(_fmt_value(row[f]) for f in fields) + "\n")
    return buf.getvalue()


def render_json(command: str, cfg: SimConfig, records) -> str:
    payload = {
        "command": command,
        # batch_size stays out for the reason given in SimConfig.echo
        "config": {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in asdict(cfg).items() if k not in ("out", "batch_size")},
        "records": records if isinstance(records, dict) else [asdict(r) for r in records],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def render(command: str, cfg: SimConfig, records) -> str:
    if cfg.fmt == "json" or command == "detect":
        return render_json(command, cfg, records)
    return render_csv(command, cfg, records)
