import dataclasses
import errno
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mimobp import ConfigError, get_constellation, qpsk
from mimobp import batch, sim
from mimobp.channel import trial_rng
from mimobp.sim import (SimConfig, generate_batch, load_config,
                        parse_config_text, run_converge, run_detect,
                        run_iterstudy, run_simulate)


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        text = """
        # sweep setup
        m = 4
        n = 4
        constellation = QPSK
        snr_db = 6, 8, 10
        detectors = ML, bp2
        trials = 500
        seed = 11
        iterations.BP2 = 5
        permutation = 1, 0, 3, 2
        """
        path = tmp_path / "run.cfg"
        path.write_text(text)
        cfg = load_config(path)
        assert cfg.snr_db == (6.0, 8.0, 10.0)
        assert cfg.detectors == ("ML", "BP2")
        assert cfg.iterations == {"BP2": 5}
        assert cfg.permutation == (1, 0, 3, 2)

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("m = 4\nbogus = 1\n")

    def test_bad_value_reports_field(self):
        with pytest.raises(ConfigError, match="trials"):
            parse_config_text("trials = soon\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just a line\n")

    def test_cli_overrides_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\ntrials = 10\n")
        cfg = load_config(path, {"seed": 99})
        assert cfg.seed == 99 and cfg.trials == 10

    def test_validation(self):
        with pytest.raises(ConfigError, match="detector"):
            SimConfig(detectors=("NOPE",)).validate()
        with pytest.raises(ConfigError, match="N >= M"):
            SimConfig(m=4, n=2).validate()
        with pytest.raises(ConfigError, match="snr"):
            SimConfig(snr_db=()).validate()
        with pytest.raises(ConfigError, match="bijection"):
            SimConfig(permutation=(0, 0, 1, 2)).validate()
        with pytest.raises(ConfigError, match="constellation"):
            SimConfig(constellation="8PSK").validate()
        with pytest.raises(ConfigError, match="FB needs M >= 2"):
            SimConfig(m=1, n=1, detectors=("FB",)).validate()
        with pytest.raises(ConfigError, match="iter_list"):
            SimConfig(iter_list=()).validate()
        with pytest.raises(ConfigError, match="iter_list"):
            SimConfig(iter_list=(2, 0)).validate()

    def test_max_trials_below_trials_rejected(self):
        with pytest.raises(ConfigError, match="max_trials"):
            SimConfig(trials=10, max_trials=3).validate()
        assert SimConfig(trials=10, max_trials=10).validate().max_trials == 10

    def test_trial_counts_must_fit_stream_ids(self):
        with pytest.raises(ConfigError, match="trials must be below 2"):
            SimConfig(trials=2 ** 64).validate()
        with pytest.raises(ConfigError, match="max_trials must be below 2"):
            SimConfig(trials=10, max_trials=2 ** 64).validate()
        assert SimConfig(trials=2 ** 64 - 1).validate().trials == 2 ** 64 - 1

    def test_scalar_iterations_expands(self):
        cfg = load_config(None, {"iterations": 6, "detectors": ("BP2", "BP3")})
        assert cfg.iteration_count("BP2") == 6
        assert cfg.iteration_count("BP3") == 6

    def test_layers_in_order(self, tmp_path):
        """SimConfig defaults < a subcommand's defaults < the file < the
        overrides; a scalar iteration count in a later layer beats a
        per-detector one in an earlier layer."""
        path = tmp_path / "run.cfg"
        path.write_text("detectors = BP3\niterations.BP2 = 5\niterations.FB = 7\nseed = 4\n")
        cfg = load_config(path, {"iterations": 3, "seed": None},
                          {"detectors": ("BP2",), "snr_db": (1.0,)})
        assert (cfg.detectors, cfg.snr_db, cfg.seed) == (("BP3",), (1.0,), 4)
        assert cfg.iterations == dict.fromkeys(sim.DEFAULT_ITERATIONS, 3)
        cfg = load_config(path, {"iterations": {"BP3": 2}})
        assert cfg.iterations == {"BP2": 5, "FB": 7, "BP3": 2}

    def test_read_value_names_the_key(self):
        assert sim.read_value("detectors", " ml, bp3 ,") == ("ML", "BP3")
        assert sim.read_value("snr_db", "5, 7.5") == (5.0, 7.5)
        assert sim.read_value("out", "a b.csv") == "a b.csv"
        with pytest.raises(ConfigError, match="field 'snr_db': could not convert"):
            sim.read_value("snr_db", "5,abc")
        with pytest.raises(ConfigError, match="field 'seed': invalid literal"):
            sim.read_value("seed", "x")
        with pytest.raises(ConfigError, match="unknown key 'snr-db'"):
            sim.read_value("snr-db", "5")
        with pytest.raises(ConfigError, match="^line 2: field 'iter_list': invalid literal"):
            parse_config_text("m = 2\niter_list = 2,x\n")

    def test_single_stream_refuses_every_pairwise_detector(self):
        """At M = 1 the pairwise graph has no link, the only place y enters
        BP2, BP3, GBP2G and GBP3G, so validate refuses them as it does FB."""
        for det in sim.LINKED_DETECTORS:
            with pytest.raises(ConfigError, match=f"drop {det} from detectors"):
                SimConfig(m=1, n=2, detectors=("ML", det)).validate()
        with pytest.raises(ConfigError, match="drop BP2, BP3, GBP2G, GBP3G from detectors"):
            SimConfig(m=1, n=2, detectors=("ML", "LMMSE", "BP2", "BP3", "GBP2G",
                                           "GBP3G")).validate()
        with pytest.raises(ConfigError, match="drop BP2, BP3 from detectors"):
            SimConfig(m=1, n=2).validate()  # the default list
        assert SimConfig(m=1, n=2, detectors=("MAP", "ML", "LMMSE", "BP1")).validate()


class TestGeneration:
    def test_streams_independent_of_partitioning(self):
        cfg = SimConfig(snr_db=(8.0,), trials=32)
        c = qpsk()
        H1, i1, y1 = generate_batch(cfg, c, 0.1, 0, 0, 32)
        Ha, ia, ya = generate_batch(cfg, c, 0.1, 0, 0, 13)
        Hb, ib, yb = generate_batch(cfg, c, 0.1, 0, 13, 19)
        assert np.array_equal(H1, np.concatenate([Ha, Hb]))
        assert np.array_equal(i1, np.concatenate([ia, ib]))
        assert np.array_equal(y1, np.concatenate([ya, yb]))

    def test_snr_index_changes_draws(self):
        cfg = SimConfig(snr_db=(8.0, 10.0), trials=4)
        c = qpsk()
        H0, _, _ = generate_batch(cfg, c, 0.1, 0, 0, 4)
        H1, _, _ = generate_batch(cfg, c, 0.1, 1, 0, 4)
        assert not np.array_equal(H0, H1)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda m: st.tuples(
        st.just(m), st.integers(m, 8), st.sampled_from(("QPSK", "QAM16")),
        st.integers(0, 2 ** 64 - 1), st.integers(0, 2 ** 62), st.integers(0, 5),
        st.integers(0, 6), st.floats(1e-4, 10.0))))
    @example((4, 6, "QAM16", 2 ** 64 - 1, 2 ** 62, 5, 3, 0.063))
    @example((8, 8, "QPSK", 0, 0, 0, 0, 0.01))
    @example((1, 1, "QPSK", 3, 3000, 2, 1, 1.0))
    def test_batch_follows_per_trial_protocol(self, case):
        """Trial b of a batch is the documented draws of its own stream."""
        m, n, name, seed, start, snr_idx, count, sigma2 = case
        c = get_constellation(name)
        H, idx, y = generate_batch(SimConfig(m=m, n=n, constellation=name, seed=seed),
                                   c, sigma2, snr_idx, start, count)
        assert H.shape == (count, n, m) and idx.shape == (count, m) and y.shape == (count, n)
        assert idx.dtype == np.int64 and H.dtype == y.dtype == complex
        cum = np.cumsum(c.prior)
        for b in range(count):
            g = trial_rng(seed, start + b, snr_idx)
            w = g.standard_normal(2 * n * m)
            H_ref = (w[: n * m] + 1j * w[n * m:]).reshape(n, m) / np.sqrt(2.0)
            idx_ref = np.minimum(np.searchsorted(cum, g.random(m), side="right"), c.size - 1)
            wn = g.standard_normal(2 * n)
            y_ref = H_ref @ c.points[idx_ref] + np.sqrt(sigma2 / 2.0) * (wn[:n] + 1j * wn[n:])
            assert np.array_equal(H[b], H_ref)
            assert np.array_equal(idx[b], idx_ref)
            assert np.array_equal(y[b], y_ref)

    @pytest.mark.parametrize("start, count", [(-1, 1), (-5, 0), (2 ** 64 - 1, 2),
                                              (2 ** 64, 1), (2 ** 64 - 2, 2 ** 40)])
    def test_trial_ids_outside_64_bits_rejected_before_allocating(self, start, count):
        # 2**40 trials of 4x4 would need petabytes: the id check comes first
        with pytest.raises(ValueError, match="64 bits"):
            generate_batch(SimConfig(), qpsk(), 0.1, 0, start, count)


class TestRunSimulate:
    def test_noiseless_lmmse_is_error_free(self):
        cfg = SimConfig(snr_db=(100.0,), detectors=("LMMSE",), trials=100,
                        batch_size=50).validate()
        rec, = run_simulate(cfg)
        assert rec.bit_errors == 0 and rec.ber == 0.0
        assert rec.ci95 > 0  # continuity floor keeps the interval open

    def test_deterministic_given_seed(self):
        cfg = SimConfig(snr_db=(8.0,), detectors=("LMMSE", "BP3"), trials=400,
                        seed=5).validate()
        a = run_simulate(cfg)
        b = run_simulate(cfg)
        for ra, rb in zip(a, b):
            assert (ra.detector, ra.trials, ra.bit_errors) == (rb.detector, rb.trials, rb.bit_errors)

    def test_batch_size_invariant(self):
        _assert_cuts_keep_the_records(run_simulate, dict(
            snr_db=(8.0,), detectors=("ML", "BP2"), trials=600, seed=6), 64)

    def test_target_error_mode_stops_at_exact_prefix(self):
        base = dict(snr_db=(6.0,), detectors=("LMMSE",), trials=100, seed=7,
                    target_errors=50)
        a, = run_simulate(SimConfig(batch_size=37, **base).validate())
        b, = run_simulate(SimConfig(batch_size=512, **base).validate())
        assert a.trials == b.trials and a.bit_errors == b.bit_errors
        assert a.bit_errors >= 50 and a.trials >= 100

    @pytest.mark.parametrize("target_errors,max_trials,case", [
        (2, None, "at trials"), (20, None, "at the target"), (10 ** 6, 60, "at the cap")])
    def test_target_error_records_are_fixed_trial_records(self, target_errors, max_trials, case):
        """Each arm's record is the fixed-trial record of its own count n:
        --trials if the first --trials reach the target, else the first count
        whose errors reach it, else the cap."""
        base = dict(m=2, n=2, snr_db=(6.0,), seed=50)

        def fixed(det, n):
            return _sans_elapsed(run_simulate(SimConfig(**base, detectors=(det,),
                                                        trials=n).validate()))[0]

        records = _sans_elapsed(run_simulate(SimConfig(
            **base, detectors=("LMMSE", "ML"), trials=20, target_errors=target_errors,
            max_trials=max_trials).validate()))
        for rec in records:
            n = rec.trials
            assert rec == fixed(rec.detector, n)
            if case == "at trials":
                assert n == 20 and rec.bit_errors >= target_errors
            elif case == "at the target":
                before = fixed(rec.detector, n - 1).bit_errors
                assert n > 20 and rec.bit_errors >= target_errors > before
            else:
                assert n == max_trials and rec.bit_errors < target_errors

    def test_common_random_numbers_pair_detectors(self):
        # identical draws regardless of which detectors run
        cfg1 = SimConfig(snr_db=(8.0,), detectors=("LMMSE",), trials=200, seed=8).validate()
        cfg2 = SimConfig(snr_db=(8.0,), detectors=("LMMSE", "ML"), trials=200, seed=8).validate()
        a = {r.detector: r for r in run_simulate(cfg1)}
        b = {r.detector: r for r in run_simulate(cfg2)}
        assert a["LMMSE"].bit_errors == b["LMMSE"].bit_errors

    def test_records_have_valid_rates(self):
        cfg = SimConfig(snr_db=(6.0, 10.0), detectors=("LMMSE", "BP3"), trials=300,
                        seed=9).validate()
        for rec in run_simulate(cfg):
            assert 0.0 <= rec.ber <= 1.0
            assert rec.ber == rec.bit_errors / (rec.trials * 4 * 2)

    @pytest.mark.parametrize("target_errors,drawn", [(None, [200, 200]), (10 ** 6, [800, 800])])
    def test_max_trials_caps_only_target_error_runs(self, monkeypatch, target_errors, drawn):
        """Trials generated per SNR point: --trials at a fixed count, even
        with max_trials set, and up to max_trials in target-error mode. One
        lane: a helper's generate_batch calls are not counted here."""
        monkeypatch.setattr(sim, "_cpus", lambda: 1)
        asked = {}
        generate = sim.generate_batch

        def counted(cfg, constellation, sigma2, snr_idx, start, count):
            asked[snr_idx] = asked.get(snr_idx, 0) + count
            return generate(cfg, constellation, sigma2, snr_idx, start, count)

        monkeypatch.setattr(sim, "generate_batch", counted)
        cfg = SimConfig(snr_db=(6.0, 10.0), detectors=("LMMSE",), trials=200, max_trials=800,
                        target_errors=target_errors, batch_size=512).validate()
        assert [r.trials for r in run_simulate(cfg)] == drawn
        assert [asked[i] for i in range(2)] == drawn

    @pytest.mark.parametrize("detectors,factored", [
        (("LMMSE", "FB", "BP2", "GBP3G"), [32, 32, 6]), (("ML", "MAP", "BP1"), [])])
    def test_one_posterior_per_generated_batch(self, monkeypatch, detectors, factored):
        """Trial counts of every factorisation: one per batch of 32, 32 and 6."""
        calls = []
        factor = sim.batch.factor_posterior

        def counted(*args):
            calls.append(len(args[0]))
            return factor(*args)

        monkeypatch.setattr(sim.batch, "factor_posterior", counted)
        cfg = SimConfig(snr_db=(8.0,), detectors=detectors, trials=70, batch_size=32,
                        gbp_sweeps=5).validate()
        run_simulate(cfg)
        assert calls == factored

    def test_no_lapack_call_per_trial(self, monkeypatch):
        """The engine factors the posterior with elementwise numpy: with
        numpy's QR, solve and inverse made to raise, factor_posterior and a
        run of the arms that read it still run."""
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg called by the engine")

        for name in ("qr", "solve", "inv"):
            monkeypatch.setattr(np.linalg, name, refuse)
        H, _, y = generate_batch(SimConfig(m=4, n=6, seed=3), qpsk(), 0.1, 0, 0, 37)
        sim.batch.factor_posterior(H, y, 0.1)
        cfg = SimConfig(m=4, n=6, snr_db=(8.0,), detectors=("LMMSE", "FB", "GBP3G"),
                        trials=600, batch_size=512).validate()
        assert [r.trials for r in run_simulate(cfg)] == [600] * 3

    @pytest.mark.parametrize("detectors,built", [
        (("ML", "LMMSE", "MAP", "BP1"), [32, 32, 6]), (("LMMSE", "BP2", "FB"), [])])
    def test_one_residual_table_per_generated_batch(self, monkeypatch, detectors, built):
        """Trial counts of every lattice residual table: one per batch of 32,
        32 and 6 when a lattice arm runs, none otherwise."""
        calls = []
        build = sim.batch.lattice_residuals

        def counted(H, *args):
            calls.append(len(H))
            return build(H, *args)

        monkeypatch.setattr(sim.batch, "lattice_residuals", counted)
        cfg = SimConfig(snr_db=(8.0,), detectors=detectors, trials=70, batch_size=32).validate()
        run_simulate(cfg)
        assert calls == built

    def test_one_residual_table_per_lattice_block(self, monkeypatch):
        """Blocks of at most five trials forced: one table per block, read by
        all three lattice arms, so batches of 32, 32 and 6 build 7, 7 and 2."""
        monkeypatch.setattr(sim.batch, "_BLOCK_BYTES", 1)
        monkeypatch.setattr(sim.batch, "_MIN_BLOCK", 5)
        calls = []
        build = sim.batch.lattice_residuals

        def counted(H, *args):
            calls.append(len(H))
            return build(H, *args)

        monkeypatch.setattr(sim.batch, "lattice_residuals", counted)
        cfg = SimConfig(snr_db=(8.0,), detectors=("ML", "LMMSE", "MAP", "BP1"), trials=70,
                        batch_size=32).validate()
        run_simulate(cfg)
        assert calls == [4, 5, 4, 5, 4, 5, 5] * 2 + [3, 3]

    @pytest.mark.parametrize("fields", [
        dict(detectors=sim.DETECTORS, gbp_sweeps=30),
        dict(m=3, n=3, constellation="QAM16", detectors=("ML", "MAP", "BP1"))])
    def test_records_do_not_depend_on_the_trial_blocks(self, fields):
        """Blocks of at most two trials (the lattice arms and BP2) move no record."""
        _assert_cuts_keep_the_records(run_simulate, dict(
            snr_db=(4.0, 9.0), trials=23, seed=41, **fields), 10, forced=True)

    def test_target_error_mode_independent_of_batch_size(self):
        """Batches of one trial stop where one batch does, for every arm."""
        records = _assert_cuts_keep_the_records(run_simulate, dict(
            m=2, n=2, snr_db=(4.0, 9.0), detectors=("LMMSE", "ML", "BP3"), trials=40,
            target_errors=60, seed=31), 1, forced=True)
        assert all(r.bit_errors >= 60 for r in records)


def _traced(fn, *args):
    """``fn(*args)`` and its tracemalloc peak in bytes, above the memory
    traced at entry."""
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    out = fn(*args)
    return out, tracemalloc.get_traced_memory()[1] - base


class TestMemory:
    """The lattice tables and BP2's log tables run in blocks of trials, so
    their memory stays flat as --batch-size grows."""

    @pytest.fixture(autouse=True)
    def traced(self):
        tracemalloc.start()
        yield
        tracemalloc.stop()

    def test_lattice_run_peak_does_not_grow_with_the_batch(self):
        """4x4 QAM16, ML, MAP and BP1 (one iteration: the peak does not depend
        on the count): batches of 1024 trials peak within 1.25x of batches of
        64. Before the blocks the peak grew by about 6 MiB per trial, 2.0x
        from 16 to 32 trials, so 1024 would have been about 16x 64 (6 GiB)."""
        peaks = [_traced(run_simulate, SimConfig(
            constellation="QAM16", snr_db=(10.0,), detectors=("ML", "MAP", "BP1"),
            iterations={"BP1": 1}, trials=size, batch_size=size).validate())[1]
            for size in (64, 1024)]
        assert peaks[1] <= 1.25 * peaks[0], peaks

    def test_bp2_peak_stays_within_the_block_budget(self, monkeypatch):
        """8x8 QPSK, BP2 alone: every bp2_batch call inside run_simulate, at
        batches of 64 and 1024 trials, peaks within 1.25x of the block budget
        (4 MiB). Before the blocks a 1024-trial call peaked at 37 MiB. The
        link tables and the posterior stay whole-batch, so the run's own peak
        still grows, from 3.6 MiB at 64 trials to 11.8 MiB at 1024 (3.3x;
        44.9 MiB and 12.5x before). One lane, so that the 1024-trial batch
        is not split and its calls are all made here."""
        monkeypatch.setattr(sim, "_cpus", lambda: 1)
        peaks = []
        kernel = sim.batch.bp2_batch

        def measured(*args):
            beliefs, peak = _traced(kernel, *args)
            peaks.append(peak)
            return beliefs

        monkeypatch.setattr(sim.batch, "bp2_batch", measured)
        for size in (64, 1024):
            run_simulate(SimConfig(m=8, n=8, snr_db=(20.0,), detectors=("BP2",), trials=size,
                                   batch_size=size).validate())
        assert len(peaks) == 2 and max(peaks) <= 1.25 * sim.batch._BLOCK_BYTES, peaks


def _lanes(monkeypatch, count):
    """Force ``count`` lanes: one process, or a split of every batch of two
    or more trials with a forked helper, whatever the CPUs and batch size."""
    monkeypatch.setattr(sim, "_cpus", lambda: count)
    monkeypatch.setattr(sim, "_SPLIT_MIN_TRIALS", 1)


def _sans_elapsed(records):
    return [dataclasses.replace(r, elapsed_s=0.0) for r in records]


@st.composite
def cut_runs(draw):
    """A small simulate or iterstudy config, with target_errors or not, and
    how to cut its trials: a --batch-size, trial blocks of two trials or
    not, and one process or two (every batch of two or more trials split)."""
    m, trials, name = draw(st.integers(1, 4)), draw(st.integers(1, 30)), draw(st.sampled_from(
        ("QPSK", "QAM16")))
    fields = dict(m=m, n=draw(st.integers(m, 5)), constellation=name, trials=trials,
                  snr_db=tuple(draw(st.lists(st.floats(-10.0, 40.0), min_size=1, max_size=2))),
                  seed=draw(st.integers(0, 2 ** 64 - 1)))
    if draw(st.booleans()):
        fields.update(target_errors=draw(st.integers(1, 100)),
                      max_trials=trials + draw(st.integers(0, 60)))
    if m >= 2 and draw(st.booleans()):
        fields.update(detectors=draw(st.sampled_from((("BP2",), ("BP3",), ("BP2", "BP3")))),
                      iter_list=tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))))
    else:
        bits = m * get_constellation(name).bits_per_symbol
        allowed = [d for d in sim.DETECTORS if (m >= 2 or d not in sim.LINKED_DETECTORS + ("FB",))
                   and (bits <= 8 or d not in sim.LATTICE_DETECTORS)]
        fields.update(gbp_sweeps=draw(st.integers(1, 40)), detectors=tuple(draw(st.lists(
            st.sampled_from(allowed), min_size=1, max_size=4, unique=True))))
    return (run_iterstudy if "iter_list" in fields else run_simulate, fields,
            draw(st.integers(1, trials + 1)), draw(st.booleans()), draw(st.sampled_from((1, 2))))


def _assert_cuts_keep_the_records(run, fields, batch_size, forced=False, lanes=1):
    """Records, but for elapsed_s, in batches of ``batch_size`` (blocks of two
    trials if ``forced``, every batch split if ``lanes`` is 2) equal those of
    one process in batches of --trials; returns them."""
    with patch.object(sim, "_cpus", lambda: 1):
        whole = _sans_elapsed(run(SimConfig(**fields, batch_size=fields["trials"]).validate()))
    with patch.object(sim, "_cpus", lambda: lanes), patch.object(sim, "_SPLIT_MIN_TRIALS", 1), \
            patch.object(batch, "_BLOCK_BYTES", 1 if forced else batch._BLOCK_BYTES), \
            patch.object(batch, "_MIN_BLOCK", 2 if forced else batch._MIN_BLOCK):
        assert _sans_elapsed(run(SimConfig(**fields, batch_size=batch_size).validate())) == whole
    return whole


@settings(max_examples=50, deadline=None)
@given(cut_runs())
def test_records_do_not_depend_on_how_the_trials_are_cut(case):
    """The regimes random draws seldom reach are pinned by the named tests
    that call the same check."""
    _assert_cuts_keep_the_records(*case)


def _no_child_left():
    """Whether this process has no child process, exited or running."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _act_in(monkeypatch, action, parent=True, helper=True, after=0):
    """Make generate_batch call ``action()`` in this process (``parent``)
    and in the helper (``helper``), each time after its first ``after``
    batches."""
    generate, parent_pid, seen = sim.generate_batch, os.getpid(), []

    def generate_or_act(*args):
        seen.append(1)
        if len(seen) > after and (parent if os.getpid() == parent_pid else helper):
            action()
        return generate(*args)

    monkeypatch.setattr(sim, "generate_batch", generate_or_act)


def _raise(exc):
    def action():
        raise exc
    return action


needs_fork = pytest.mark.skipif(not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
                                reason="the split needs os.fork and CPU affinity")


class TestLanes:
    """A batch of at least _SPLIT_MIN_TRIALS trials splits into two lanes:
    this process runs the first half, a forked helper the second."""

    @pytest.mark.parametrize("batch_size,trials", [(1, 12), (37, 80), (512, 600)])
    @pytest.mark.parametrize("run,fields", [
        (run_simulate, dict(detectors=sim.DETECTORS)),
        (run_simulate, dict(m=8, n=8, snr_db=(20.0,),
                            detectors=("LMMSE", "BP2", "BP3", "FB", "GBP2G", "GBP3G"))),
        (run_simulate, dict(m=3, n=3, constellation="QAM16", detectors=("ML", "MAP", "BP1", "BP3"))),
        (run_iterstudy, dict(detectors=("BP2", "BP3"), iter_list=(2, 3))),
        # each arm stops at its 150th error, mid-batch, or at the trial cap
        (run_simulate, dict(detectors=("LMMSE", "ML", "BP2", "GBP3G"), target_errors=150))],
        ids=["4x4-all", "8x8-pairwise", "3x3-QAM16-lattice", "iterstudy", "target-errors"])
    def test_records_do_not_depend_on_the_lanes(self, run, fields, batch_size, trials):
        """Records of two lanes equal those of one."""
        _assert_cuts_keep_the_records(run, {"snr_db": (4.0, 9.0), "seed": 47, **fields,
                                            "trials": trials}, batch_size, lanes=2)

    @needs_fork
    def test_one_helper_runs_the_second_half_of_every_split(self, monkeypatch, tmp_path):
        """Each process logs the trials it generates. One helper, forked
        once, serves every batch of both SNR points, and its first batch
        overlaps this process's: each waits for the other to start one."""
        generate = sim.generate_batch

        def logged(cfg, constellation, sigma2, snr_idx, start, count):
            log = tmp_path / str(os.getpid())
            if not log.exists():
                log.touch()
                for _ in range(3000):
                    if len(list(tmp_path.iterdir())) == 2:
                        break
                    time.sleep(0.01)
                else:
                    raise AssertionError("the other lane did not start")
            with open(log, "a") as fh:
                fh.write(f"{snr_idx} {start} {count}\n")
            return generate(cfg, constellation, sigma2, snr_idx, start, count)

        monkeypatch.setattr(sim, "generate_batch", logged)
        _lanes(monkeypatch, 2)
        run_simulate(SimConfig(snr_db=(8.0, 9.0), detectors=("LMMSE", "BP2"), trials=100,
                               batch_size=40).validate())
        logs = {int(p.name): [tuple(map(int, line.split())) for line in p.read_text().splitlines()]
                for p in tmp_path.iterdir()}
        mine = [(snr, start, n) for snr in (0, 1) for start, n in ((0, 20), (40, 20), (80, 10))]
        assert logs.pop(os.getpid()) == mine
        assert list(logs.values()) == [[(snr, start + n, n) for snr, start, n in mine]]
        assert _no_child_left()

    @needs_fork
    @pytest.mark.parametrize("exc", [KeyError("lost key"), ConfigError("bad field"),
                                     MemoryError("no room")], ids=lambda e: type(e).__name__)
    def test_an_exception_in_the_helper_comes_back_with_its_type(self, monkeypatch, exc):
        _lanes(monkeypatch, 2)
        _act_in(monkeypatch, _raise(exc), parent=False, after=1)
        with pytest.raises(type(exc), match=str(exc).strip("'")):
            run_simulate(SimConfig(snr_db=(8.0,), detectors=("BP2", "GBP2G"), trials=120,
                                   batch_size=40).validate())
        assert _no_child_left()

    @needs_fork
    @pytest.mark.parametrize("exc", [None, ValueError("parent half"), KeyboardInterrupt()],
                             ids=["normal", "raises", "interrupted"])
    def test_no_process_outlives_the_call(self, monkeypatch, exc):
        """The helper is reaped on every way out of run_simulate, also
        while it is still running a half."""
        _lanes(monkeypatch, 2)
        if exc is not None:
            _act_in(monkeypatch, _raise(exc), helper=False, after=1)
        cfg = SimConfig(snr_db=(8.0,), detectors=("BP2", "GBP2G"), trials=120,
                        batch_size=40).validate()
        if exc is None:
            run_simulate(cfg)
        else:
            with pytest.raises(type(exc)):
                run_simulate(cfg)
        assert _no_child_left()

    @needs_fork
    def test_nothing_forks_while_another_thread_is_alive(self, monkeypatch):
        """Two threads that call run_simulate at once fork nothing and get
        the one-lane records."""
        cfg = SimConfig(snr_db=(8.0,), detectors=("BP2", "BP3", "GBP2G"), trials=80,
                        batch_size=40, seed=48).validate()
        _lanes(monkeypatch, 1)
        expected = _sans_elapsed(run_simulate(cfg))
        _lanes(monkeypatch, 2)
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        got = [None, None]

        def call(k):
            got[k] = _sans_elapsed(run_simulate(cfg))

        callers = [threading.Thread(target=call, args=(k,)) for k in range(2)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
            assert not t.is_alive()
        assert got == [expected, expected] and not forks

    @needs_fork
    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts fds in /proc")
    @pytest.mark.parametrize("fails", ["fork", "second pipe"])
    def test_a_split_that_cannot_start_runs_in_one_process(self, monkeypatch, fails):
        """A fork or pipe refused for want of processes or fds leaves the
        run in this process, with the one-process records and no fd left
        open; every later batch may try again."""
        cfg = SimConfig(snr_db=(8.0,), detectors=("BP2", "GBP2G"), trials=120,
                        batch_size=40, seed=50).validate()
        _lanes(monkeypatch, 1)
        expected = _sans_elapsed(run_simulate(cfg))
        _lanes(monkeypatch, 2)
        pipe, calls = os.pipe, []

        def fork():
            calls.append(1)
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        def every_second_pipe_fails():
            calls.append(1)
            if len(calls) % 2 == 0:
                raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
            return pipe()

        if fails == "fork":
            monkeypatch.setattr(os, "fork", fork)
        else:
            monkeypatch.setattr(os, "pipe", every_second_pipe_fails)
        fds = len(os.listdir("/proc/self/fd"))
        assert _sans_elapsed(run_simulate(cfg)) == expected
        assert len(os.listdir("/proc/self/fd")) == fds
        assert _no_child_left()
        assert len(calls) == (3 if fails == "fork" else 6)  # each of the three batches tried

    @needs_fork
    def test_the_caller_keeps_its_signal_mask(self, monkeypatch):
        """SIGINT is caught by a handler that only notes it in the caller
        while the helper starts, and in the helper for all of its life: a
        caller left with that handler, or with SIGINT blocked, would never
        see Ctrl-C again."""
        _lanes(monkeypatch, 2)
        pids, fork, caught = [], os.fork, []

        def fork_and_keep():
            pids.append(fork())
            return pids[-1]

        def read_the_helpers_mask():
            if os.path.isdir("/proc"):
                with open(f"/proc/{pids[0]}/status") as fh:
                    mask = next(int(line.split()[1], 16) for line in fh
                                if line.startswith("SigCgt:"))
                caught.append(bool(mask >> (signal.SIGINT - 1) & 1))

        monkeypatch.setattr(os, "fork", fork_and_keep)
        _act_in(monkeypatch, read_the_helpers_mask, helper=False)
        def signal_state():
            return signal.pthread_sigmask(signal.SIG_BLOCK, []), signal.getsignal(signal.SIGINT)

        before = signal_state()
        run_simulate(SimConfig(snr_db=(8.0, 9.0), detectors=("BP2",), trials=80,
                               batch_size=40).validate())
        assert signal_state() == before
        assert len(pids) == 1 and _no_child_left()
        assert caught == ([True] * 4 if os.path.isdir("/proc") else [])

    def test_shared_inputs_are_read_only(self, monkeypatch):
        """A kernel that writes into the link tables later arms read raises."""
        def scribble(tables, sweeps):
            tables.a_diag[0, 0, 0] = 0.0

        monkeypatch.setattr(sim.batch, "gbp2g_batch", scribble)
        with pytest.raises(ValueError, match="read-only"):
            run_simulate(SimConfig(snr_db=(8.0,), detectors=("GBP2G",), trials=4).validate())

    def test_a_forked_child_runs_after_its_parent(self, monkeypatch):
        """A child forked after its parent ran split batches splits them too."""
        _lanes(monkeypatch, 2)
        cfg = SimConfig(snr_db=(8.0,), detectors=("BP2", "BP3", "GBP2G"), trials=40,
                        batch_size=20, seed=49).validate()
        expected = _sans_elapsed(run_simulate(cfg))

        def child():
            os._exit(0 if _sans_elapsed(run_simulate(cfg)) == expected else 1)

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(timeout=120)
        if proc.is_alive():
            proc.kill()
            pytest.fail("the forked child hung")
        assert proc.exitcode == 0

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                        reason="needs CPU affinity and two CPUs")
    def test_no_worker_on_one_cpu(self):
        """A fresh process pinned to one CPU forks nothing; unpinned, it
        forks one helper for the same batches. No process outlives the run."""
        script = (
            "import os, sys\n"
            "from mimobp import sim\n"
            "if sys.argv[1] == 'pin':\n"
            "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "forks, fork = [], os.fork\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            "sim.run_simulate(sim.SimConfig(m=2, n=2, snr_db=(10.0, 12.0),\n"
            "                               detectors=('BP2', 'BP3', 'GBP2G'),\n"
            "                               trials=1024, batch_size=512).validate())\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "    left = 1\n"
            "except ChildProcessError:\n"
            "    left = 0\n"
            "print(len(forks), left)\n")
        runs = {}
        for mode in ("pin", "free"):
            res = subprocess.run([sys.executable, "-c", script, mode], capture_output=True,
                                 text=True, timeout=120)
            assert res.returncode == 0, res.stderr
            runs[mode] = tuple(int(v) for v in res.stdout.split())
        assert runs == {"pin": (0, 0), "free": (1, 0)}


class TestIterstudy:
    def test_rejects_other_detectors(self):
        cfg = SimConfig(detectors=("ML",)).validate()
        with pytest.raises(ConfigError, match="BP2/BP3"):
            run_iterstudy(cfg)

    def test_shared_draws_across_iteration_counts(self):
        base = dict(snr_db=(8.0,), detectors=("BP2",), trials=300, seed=10)
        recs = run_iterstudy(SimConfig(iter_list=(2, 2), **base).validate())
        assert recs[0].bit_errors == recs[1].bit_errors
        single, = run_iterstudy(SimConfig(iter_list=(2,), **base).validate())
        for rec in recs:
            assert (rec.iterations, rec.trials, rec.bit_errors) == (2, 300, single.bit_errors)

    def test_target_errors_and_max_trials_apply(self):
        base = dict(snr_db=(8.0,), detectors=("BP2", "BP3"), trials=100, seed=19,
                    target_errors=10 ** 6, max_trials=300, batch_size=128)
        study = run_iterstudy(SimConfig(iter_list=(2,), **base).validate())
        plain = run_simulate(SimConfig(iterations={"BP2": 2, "BP3": 2}, **base).validate())
        assert [r.trials for r in study] == [300, 300]
        assert ([(r.detector, r.trials, r.bit_errors) for r in study]
                == [(r.detector, r.trials, r.bit_errors) for r in plain])

    def test_more_iterations_changes_little_at_bp3(self):
        cfg = SimConfig(snr_db=(8.0,), detectors=("BP3",), trials=500, seed=11,
                        iter_list=(1, 4)).validate()
        recs = {r.iterations: r for r in run_iterstudy(cfg)}
        assert recs[4].bit_errors <= recs[1].bit_errors


class TestConverge:
    def test_rejects_discrete_detectors(self):
        cfg = SimConfig(detectors=("BP2",)).validate()
        with pytest.raises(ConfigError, match="GBP"):
            run_converge(cfg)

    def test_traces_reach_lmmse(self):
        cfg = SimConfig(snr_db=(5.0, 20.0), detectors=("GBP2G", "GBP3G"),
                        channels=4, seed=12).validate()
        recs = run_converge(cfg)
        finals = {}
        for r in recs:
            finals[(r.detector, r.channel_id, r.snr_db)] = r.d_n
        assert finals and all(d < 1e-8 for d in finals.values())

    def test_trace_schema(self):
        cfg = SimConfig(snr_db=(5.0,), detectors=("GBP3G",), channels=1, seed=13).validate()
        recs = run_converge(cfg)
        assert recs[0].n == 1
        ns = [r.n for r in recs]
        assert ns == sorted(ns)


class TestDetectReport:
    def test_report_contains_all_sections(self):
        cfg = SimConfig(snr_db=(10.0,), seed=14,
                        detectors=("MAP", "ML", "LMMSE", "BP1", "BP2", "BP3",
                                   "FB", "GBP2G", "GBP3G")).validate()
        report = run_detect(cfg)
        assert set(report["detectors"]) == set(cfg.detectors)
        for det in ("MAP", "BP1", "BP2", "BP3", "FB"):
            rows = np.array(report["detectors"][det]["beliefs"])
            assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12)
        assert len(report["links"]) == 12
        fv = np.array(report["contraction"]["f_V"])
        assert np.all(np.hypot(fv[:, 0], fv[:, 1]) < 1.0)

    def test_one_graph_per_topology(self, monkeypatch):
        """All nine detectors, the links and the ring diagnostics share one
        fully-connected graph and one ring."""
        calls = []
        build = sim.build_graph

        def counted(channel, y, topology, *args):
            calls.append(topology)
            return build(channel, y, topology, *args)

        monkeypatch.setattr(sim, "build_graph", counted)
        run_detect(SimConfig(snr_db=(10.0,), seed=14, detectors=sim.DETECTORS).validate())
        assert sorted(t.value for t in calls) == ["fully_connected", "ring"]

    def test_scalar_channel_detectors_agree(self):
        cfg = SimConfig(m=1, n=2, snr_db=(10.0,), seed=15,
                        detectors=("MAP", "ML", "LMMSE", "BP1")).validate()
        report = run_detect(cfg)
        decisions = {tuple(entry["hard"]) for entry in report["detectors"].values()}
        assert len(decisions) == 1
        assert np.allclose(report["detectors"]["MAP"]["beliefs"],
                           report["detectors"]["BP1"]["beliefs"], atol=1e-9)


class TestSoftOutputsSanity:
    def test_llr_sign_errors_not_worse_than_hard_decisions(self):
        """Bit decisions from posterior LLR signs do at least as well as
        symbol-argmax decisions, on average."""
        from mimobp import ChannelInstance, llr_from_marginals, map_marginals
        from mimobp.channel import draw_channel, transmit
        c = qpsk()
        g = np.random.default_rng(16)
        llr_err = hard_err = 0
        for t in range(400):
            ch = ChannelInstance(H=draw_channel(4, 4, g), sigma2=10 ** (-0.8))
            rec = transmit(ch, c, g)
            post = map_marginals(ch, c, rec.y)
            llr = llr_from_marginals(post, c)
            bits_llr = (llr < 0).astype(int).reshape(-1)
            llr_err += int(np.sum(bits_llr != rec.bits))
            bits_hard = c.bits_for(post.argmax(axis=1))
            hard_err += int(np.sum(bits_hard != rec.bits))
        assert llr_err <= hard_err


class TestRendering:
    def test_csv_has_schema_and_provenance(self):
        cfg = SimConfig(snr_db=(8.0,), detectors=("LMMSE",), trials=50, seed=17).validate()
        text = sim.render_csv("simulate", cfg, run_simulate(cfg))
        lines = text.strip().split("\n")
        assert lines[0].startswith("# mimobp simulate")
        assert "seed=17" in lines[0]
        assert lines[1] == "detector,snr_db,trials,bit_errors,ber,ci95,elapsed_s"
        assert len(lines) == 3

    def test_json_is_sorted_and_loadable(self):
        import json
        cfg = SimConfig(snr_db=(8.0,), detectors=("LMMSE",), trials=50, seed=18,
                        fmt="json").validate()
        payload = json.loads(sim.render_json("simulate", cfg, run_simulate(cfg)))
        assert payload["command"] == "simulate"
        assert payload["records"][0]["detector"] == "LMMSE"
        assert payload["config"]["seed"] == 18
