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

import ctypes
import io
import json
import os
import pickle
import signal
import threading
import time
import warnings
from dataclasses import asdict, dataclass, field, fields
from functools import partial

import numpy as np

from . import batch
from .channel import ChannelInstance, consecutive_streams, get_constellation, trial_rng
from .discrete_bp import BpConfig, bp1_factor_graph, bp2_fully_connected, bp3_ring, hard_decide, soft_output
from .errors import CapacityError, ConfigError
from .exact import check_lattice_capacity, lmmse, map_marginals, ml_hard
from .gaussian_bp import GbpConfig, affine_ops, convergence_metric, fixed_point, gbp2g, gbp3g
from .pairwise import Topology, build_graph, ring_order
from .polydiag import bidiagonalize, forward_backward_detect

DETECTORS = ("MAP", "ML", "LMMSE", "BP1", "BP2", "BP3", "FB", "GBP2G", "GBP3G")
LATTICE_DETECTORS = ("MAP", "ML", "BP1")
LINKED_DETECTORS = ("BP2", "BP3", "GBP2G", "GBP3G")  # read batch.link_tables
POSTERIOR_DETECTORS = ("LMMSE", "FB") + LINKED_DETECTORS  # read batch.factor_posterior
DEFAULT_ITERATIONS = {"BP1": 4, "BP2": 3, "BP3": 4, "FB": 4}
# Batches of fewer trials run in one process: a split runs two half-size
# sets of numpy calls in place of one, and adds a pipe round trip and, at
# the first split of a run, a fork of about 3 ms. On the three benchmark
# shapes, split runs of 2048 trials were 0.68 to 0.93x as fast as one
# process at 16 and 32 trials per batch, and 1.14 to 1.39x at 256 (2 vCPUs).
_SPLIT_MIN_TRIALS = 256


# Left out of the provenance line and the JSON config: the output path, and
# batch_size, which has no effect on results, so outputs match across batchings.
_UNECHOED = ("out", "batch_size")

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
        if self.target_errors is not None and self.target_errors < 1:
            raise ConfigError("target_errors must be >= 1")
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
        paired = [d for d in self.detectors if d in LINKED_DETECTORS]
        if paired and self.m < 2:
            raise ConfigError(f"drop {', '.join(paired)} from detectors: the pairwise detectors "
                              f"need M >= 2, since at M = 1 the graph has no link to carry y")
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
            if value is None or key in _UNECHOED:
                continue
            if isinstance(value, dict):
                value = ";".join(f"{k}:{v}" for k, v in sorted(value.items())) or "default"
            elif isinstance(value, (tuple, list)):
                value = ",".join(str(v) for v in value)
            items.append(f"{key}={value}")
        return " ".join(items)


# ---------------------------------------------------------------------------
# config reading


def _list_of(cast):
    """Reader of a comma-separated list; empty items are skipped."""
    return lambda text: tuple(cast(p.strip()) for p in text.split(",") if p.strip())


# How each key's text reads; every key not named here holds one int, and
# ``iterations`` one count for every iterative detector.
_READERS = {"snr_db": _list_of(float), "detectors": _list_of(str.upper),
            "permutation": _list_of(int), "iter_list": _list_of(int),
            "constellation": str, "fmt": str, "out": str}
_KEYS = {f.name for f in fields(SimConfig)}


def read_value(key: str, text: str):
    """The value of config key ``key`` written as ``text``, read the same
    from a config file line and from a flag. ConfigError names the key."""
    if key not in _KEYS:
        raise ConfigError(f"unknown key {key!r}")
    try:
        return _READERS.get(key, int)(text)
    except ValueError as exc:
        raise ConfigError(f"field {key!r}: {exc}") from None


def parse_config_text(text: str) -> dict:
    """Parse the flat key = value config format; '#' starts a comment."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if "=" not in line:
                raise ConfigError(f"expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key.startswith("iterations."):
                det = key.split(".", 1)[1].upper()
                if det not in DETECTORS:
                    raise ConfigError(f"unknown detector {det!r} in {key!r}")
                out.setdefault("iterations", {})[det] = read_value("iterations", value)
            elif key == "iterations":
                out["iterations"] = _all_iterations(read_value(key, value))
            else:
                out[key] = read_value(key, value)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    return out


def _all_iterations(count: int) -> dict:
    """One scalar iteration count for every iterative detector."""
    if count < 1:
        raise ConfigError(f"iterations must be >= 1, got {count}")
    return dict.fromkeys(DEFAULT_ITERATIONS, count)


def load_config(path=None, overrides=None, defaults=None) -> SimConfig:
    """The validated config of one run. Each layer wins over the ones
    before it: SimConfig's defaults, ``defaults`` (a subcommand's), the
    config file at ``path``, then ``overrides`` (flags, or a caller's
    fields), where None leaves a key unset. Iteration counts merge across
    the layers, and an int count stands for every iterative detector."""
    layers = [defaults or {}]
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            layers.append(parse_config_text(fh.read()))
    layers.append(overrides or {})
    data: dict = {}
    for layer in layers:
        for key, value in layer.items():
            if value is None:
                continue
            if key == "iterations":
                if isinstance(value, int):
                    value = _all_iterations(value)
                value = {**data.get("iterations", {}), **value}
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
    normal, uniform = g.standard_normal, g.random
    # zip moves g to trial b's stream before it takes b's rows
    for _, w, u, wn in zip(trials, W, U, WN):
        normal(out=w)
        uniform(out=u)
        normal(out=wn)
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


def _cpus():
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


class _Helper:
    """The second process of one ``_run_arms`` call: a copy of this one,
    forked at the first batch that ``run`` splits and sent every later
    split of the call over a job pipe. It answers with ``work``'s pickled
    result, or the exception ``work`` raised, re-raised here with its type;
    one that ends without a result raises CapacityError naming its signal
    or exit code. A split that cannot start runs in this process. On
    leaving the ``with`` block the helper is reaped, and killed first when
    an exception is leaving, so no process outlives the call.
    """

    def __init__(self, work):
        self._work = work
        self._pid = None  # until the first split
        self._alive = False  # forked and not yet reaped

    def run(self, snr_idx, first, count):
        """``work``'s result on trials [first, first + count) of SNR point
        ``snr_idx``: each arm's bit errors per trial, (arms, count) in trial
        order, and its CPU seconds, (arms,). From ``_SPLIT_MIN_TRIALS``
        trials where a fork is safe, this process runs the first half and
        the helper the second, whose errors are joined after this one's and
        whose seconds are added, so a split batch gives one result too."""
        half = count // 2
        if count < _SPLIT_MIN_TRIALS or not half or (self._pid is None and not self._start()):
            return self._work(snr_idx, first, count)
        try:
            os.write(self._jobs, pickle.dumps((snr_idx, first + half, count - half)))
            mine = self._work(snr_idx, first, half)
            theirs = pickle.load(self._results)
        except (BrokenPipeError, EOFError, pickle.UnpicklingError):
            raise self._lost() from None
        if isinstance(theirs, BaseException):
            raise theirs
        return np.concatenate((mine[0], theirs[0]), axis=1), mine[1] + theirs[1]

    def _start(self):
        """Fork the helper, if the process is on Linux (``os.fork`` and
        ``os.sched_getaffinity`` both exist; macOS's system BLAS is not safe
        across a fork), may run on two or more CPUs, and has no other Python
        thread, which could hold a lock the child needs. Whether it forked:
        a pipe or fork that fails for want of fds, memory or processes
        closes what was opened and declines, and a later batch may try
        again. From before the pipes until the helper is recorded, SIGINT
        runs a handler that only notes it. Whichever OS thread takes the
        signal, a BLAS pool's included, Python runs that handler in this
        one, the main thread (the only Python thread, checked above). The
        old handler is restored after, and a noted Ctrl-C raised again
        there, where ``__exit__`` kills and reaps the helper. The helper
        keeps the noting handler."""
        if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
                and threading.active_count() == 1 and _cpus() > 1):
            return False
        caller, fds, held = os.getpid(), [], []
        handler = signal.signal(signal.SIGINT, lambda signum, frame: held.append(signum))
        try:
            fds += os.pipe()
            fds += os.pipe()
            with warnings.catch_warnings():
                # Python 3.12 warns at a fork of any process with two or more OS
                # threads. No Python thread but this one runs (checked above), and
                # OpenBLAS, whose pool is the usual other thread, shuts that pool
                # down before a fork and starts it again when next called.
                warnings.filterwarnings("ignore", "This process .* is multi-threaded",
                                        DeprecationWarning)
                pid = os.fork()
                if pid == 0:
                    _serve(self._work, caller, *fds)  # the child's one statement: it never returns
        except OSError:  # no fd, memory or process to spare: this run goes on in one process
            for fd in fds:
                os.close(fd)
            return False
        else:
            jobs, self._jobs, results, sent = fds
            self._results = os.fdopen(results, "rb")
            self._pid, self._alive = pid, True  # from here on __exit__ kills and reaps it
            os.close(jobs)
            os.close(sent)
            return True
        finally:
            signal.signal(signal.SIGINT, handler)
            if held:
                signal.raise_signal(signal.SIGINT)

    def _lost(self):
        """The error for a helper that ended without a result, once reaped."""
        code = os.waitstatus_to_exitcode(os.waitpid(self._pid, 0)[1])
        self._alive = False
        how = (f"exit code {code}" if code >= 0 else
               "signal " + next((s.name for s in signal.Signals if s == -code), str(-code)))
        hint = (" (the out-of-memory killer sends SIGKILL; a smaller --batch-size needs less "
                "memory)" if code == -signal.SIGKILL else "")
        return CapacityError(f"the helper process that runs half of each batch ended by {how} "
                             f"without a result{hint}")

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._pid is None:
            return
        if exc_type is not None and self._alive:
            os.kill(self._pid, signal.SIGKILL)
        os.close(self._jobs)  # the end of its jobs: a live helper exits
        self._results.close()
        if self._alive:
            os.waitpid(self._pid, 0)
            self._alive = False


def _serve(work, caller, jobs, to_jobs, results, sent):
    """The helper's life, from the fork on: call ``work`` on each job read
    from fd ``jobs`` and write its pickled result, or the exception it
    raised, to fd ``sent``, until the jobs end; ``to_jobs`` and ``results``
    are the caller's ends. It never returns: whatever happens, it leaves
    through ``os._exit``, exit code 0 once the jobs end and 1 otherwise, so
    no atexit handler runs, no stdio buffer copied from the caller is
    flushed a second time and no exception unwinds into the caller's code.
    It keeps the SIGINT handler it was forked with, which only notes the
    signal: Ctrl-C ends the caller, which kills it, and a caller ended by
    any other signal takes it along."""
    code = 1
    try:
        try:
            # PR_SET_PDEATHSIG (1): the kernel kills this helper when its
            # caller dies, also by a signal that runs no Python code
            prctl = ctypes.CDLL(None, use_errno=True).prctl
            prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
            prctl(1, signal.SIGKILL)
        except (OSError, AttributeError):  # no prctl: the helper ends at its next write
            pass
        if os.getppid() != caller:  # the caller died before the call
            return
        os.close(to_jobs)
        os.close(results)
        with os.fdopen(jobs, "rb") as reader, os.fdopen(sent, "wb") as writer:
            while reader.peek(1):  # empty once the caller closes its end
                job = pickle.load(reader)
                try:
                    out = pickle.dumps(work(*job))
                except Exception as exc:  # raised again in the parent
                    out = pickle.dumps(exc)
                writer.write(out)
                writer.flush()
        code = 0
    finally:
        os._exit(code)


def _read_only(*arrays):
    """Mark ``arrays`` read-only, so that a kernel writing into input that
    the arms after it read raises instead of changing their bits."""
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

    Each batch's trials go to ``_batch_errors`` through a ``_Helper``, which
    may split them in two halves, this process running the first and a
    forked helper the second, and joins the helper's half after this one's
    in trial order. So the loop sees one result per batch, and since every
    kernel gives a trial the same bits in any partition, the records do not
    depend on the split. An SNR point ends at the trial cap, or once
    ``trials`` are done and every arm has ``target_errors``; a fixed-trial
    run's cap is ``trials``. An arm's ``elapsed_s`` is the CPU time of its
    kernels (``time.thread_time`` of the thread that ran them), summed over
    both processes.
    """
    constellation = get_constellation(cfg.constellation)
    lattice = [d for d in cfg.detectors if d in LATTICE_DETECTORS]
    if lattice:
        check_lattice_capacity(cfg.m, constellation, "detectors " + ",".join(lattice))
    labels = constellation.bit_labels
    hamming = np.sum(labels[:, None] != labels, axis=2)  # bit errors by (decided, sent) point
    bits_per_trial = cfg.m * constellation.bits_per_symbol
    resolved = [(d, k if k is not None else
                 cfg.gbp_sweeps if d.startswith("GBP") else cfg.iteration_count(d))
                for d, k in arms]
    hard_cap = cfg.trials if cfg.target_errors is None else cfg.max_trials or 100 * cfg.trials
    target = cfg.target_errors or 0
    records = []
    with _Helper(partial(_batch_errors, cfg, resolved, constellation, hamming)) as helper:
        for snr_idx, snr in enumerate(cfg.snr_db):
            errors, totals, elapsed = [], np.zeros(len(arms), dtype=np.int64), np.zeros(len(arms))
            done = 0
            while done < hard_cap and not (done >= cfg.trials and totals.min() >= target):
                count = min(cfg.batch_size, hard_cap - done)
                per_trial, secs = helper.run(snr_idx, done, count)
                errors.append(per_trial)
                totals += per_trial.sum(axis=1)
                elapsed += secs
                done += count
            for (det, k), per_trial, secs in zip(arms, np.concatenate(errors, axis=1), elapsed):
                used = _trials_used(cfg, per_trial)
                n_err = int(per_trial[:used].sum())
                n_bits = used * bits_per_trial
                records.append(BerRecord(detector=det, snr_db=snr, trials=used,
                                         bit_errors=n_err, ber=n_err / n_bits,
                                         ci95=float(_ci95(n_err, n_bits)),
                                         elapsed_s=float(secs), iterations=k))
    return records


def _batch_errors(cfg, arms, constellation, hamming, snr_idx, first, n):
    """Each arm's bit errors per trial on trials [first, first + n) of SNR
    point ``snr_idx``, (arms, n), and each arm's CPU seconds in its
    kernels, (arms,). ``arms`` are (detector, count) pairs with every count
    resolved.

    The posterior is factored once, and the link tables built once, before
    the arm timers: LMMSE, FB and the link tables all read the same
    factorisation. The lattice arms (ML, MAP, BP1) walk the trials in
    ``batch.lattice_blocks``, and each block's residual table is built once,
    outside the arm timers, and read by all of them, so no batch ever holds
    one table for all its trials. No arm's time carries shared work. The
    arms run one after another on these shared inputs, which are read-only.
    """
    sigma2 = noise_variance(cfg.snr_db[snr_idx])
    H, idx_true, y = generate_batch(cfg, constellation, sigma2, snr_idx, first, n)
    detectors = [d for d, _ in arms]
    factored = any(d in POSTERIOR_DETECTORS for d in detectors)
    posterior = batch.factor_posterior(H, y, sigma2) if factored else None
    linked = any(d in LINKED_DETECTORS for d in detectors)
    tables = batch.link_tables(H, y, sigma2, posterior=posterior) if linked else None
    _read_only(H, y, *(posterior or ()), *(vars(tables).values() if tables else ()))
    decided = [[] for _ in arms]  # each arm's decisions, block by block
    elapsed = np.zeros(len(arms))

    def decide(a, part=slice(None), residuals=None):
        t0 = time.thread_time()
        decided[a].append(_detect_batch(*arms[a], H[part], y[part], sigma2, constellation,
                                        posterior, tables, residuals, cfg.permutation))
        elapsed[a] += time.thread_time() - t0

    on_lattice = [a for a, d in enumerate(detectors) if d in LATTICE_DETECTORS]
    if on_lattice:
        for part in batch.lattice_blocks(H, constellation):
            residuals = batch.lattice_residuals(H[part], y[part], constellation)
            _read_only(residuals)
            for a in on_lattice:
                decide(a, part, residuals)
    for a, d in enumerate(detectors):
        if d not in LATTICE_DETECTORS:
            decide(a)
    decisions = np.stack([np.concatenate(parts) for parts in decided])  # (arms, n, M)
    return hamming[decisions, idx_true].sum(axis=2), elapsed


def _trials_used(cfg, per_trial):
    """The trials one arm's record counts, of the ``per_trial`` errors its
    SNR point drew: the first count from ``trials`` on whose errors reach
    ``target_errors``, or all of them when none does. A fixed-trial run,
    whose target is 0, drew exactly ``trials``. Independent of the batch
    partitioning and of the split."""
    reached = np.cumsum(per_trial)[cfg.trials - 1:] >= (cfg.target_errors or 0)
    return cfg.trials + int(np.argmax(reached)) if reached.any() else per_trial.size


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
    full = build_graph(channel, y0, Topology.FULLY_CONNECTED)
    ring = build_graph(channel, y0, Topology.RING, cfg.permutation)

    def bp(det):
        return BpConfig(iterations=cfg.iteration_count(det))

    belief_oracles = {
        "MAP": lambda: map_marginals(channel, constellation, y0),
        "BP1": lambda: bp1_factor_graph(channel, constellation, y0, bp("BP1")).beliefs,
        "BP2": lambda: bp2_fully_connected(full, constellation, bp("BP2")).beliefs,
        "BP3": lambda: bp3_ring(ring, constellation, bp("BP3")).beliefs,
        "FB": lambda: forward_backward_detect(bidiagonalize(channel, cfg.permutation),
                                              constellation, y0, bp("FB")).beliefs,
    }
    for det in cfg.detectors:
        entry = {}
        if det in belief_oracles:
            beliefs = belief_oracles[det]()
            hard = hard_decide(beliefs)
            entry = {"beliefs": [row.tolist() for row in beliefs],
                     "llr": [row.tolist() for row in soft_output(beliefs, constellation)]}
        elif det == "ML":
            hard = ml_hard(channel, constellation, y0)
        elif det == "LMMSE":
            res = lmmse(channel, y0)
            hard = constellation.slice_hard(res.estimates)
            entry = {"estimates": _cplx(res.estimates), "mmse": res.mmse.tolist()}
        else:
            gcfg = GbpConfig(max_sweeps=cfg.sweeps)
            trace = gbp2g(full, gcfg) if det == "GBP2G" else gbp3g(ring, gcfg)
            hard = constellation.slice_hard(trace.means[-1])
            entry = {"means": _cplx(trace.means[-1]), "variances": trace.variances[-1].tolist(),
                     "sweeps": trace.n_sweeps, "converged": bool(trace.converged)}
        report["detectors"][det] = {**entry, "hard": hard.tolist(),
                                    "bits": constellation.bits_for(hard).tolist()}

    if cfg.m >= 2:
        report["links"] = [
            {"target": j, "known": i, "y_prime": _c(l.y_prime), "a_diag": l.a_jj,
             "a_cross": _c(l.a_ji), "sigma2_cond": l.sigma2_cond,
             "u": _c(l.u), "v": _c(l.v)}
            for (j, i), l in sorted(full.links.items())
        ]
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
        "config": {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in asdict(cfg).items() if k not in _UNECHOED},
        "records": records if isinstance(records, dict) else [asdict(r) for r in records],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def render(command: str, cfg: SimConfig, records) -> str:
    """JSON, or at ``fmt`` csv a CSV table, but ``detect``'s text report."""
    if cfg.fmt == "json":
        return render_json(command, cfg, records)
    if command == "detect":
        return format_report(records) + "\n"
    return render_csv(command, cfg, records)
