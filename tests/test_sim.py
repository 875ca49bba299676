import dataclasses
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mimobp import ConfigError, get_constellation, qpsk
from mimobp import sim
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
        base = dict(snr_db=(8.0,), detectors=("ML", "BP2"), trials=600, seed=6)
        a = run_simulate(SimConfig(batch_size=64, **base).validate())
        b = run_simulate(SimConfig(batch_size=600, **base).validate())
        for ra, rb in zip(a, b):
            assert (ra.bit_errors, ra.trials, ra.ber) == (rb.bit_errors, rb.trials, rb.ber)

    def test_target_error_mode_stops_at_exact_prefix(self):
        base = dict(snr_db=(6.0,), detectors=("LMMSE",), trials=100, seed=7,
                    target_errors=50)
        a, = run_simulate(SimConfig(batch_size=37, **base).validate())
        b, = run_simulate(SimConfig(batch_size=512, **base).validate())
        assert a.trials == b.trials and a.bit_errors == b.bit_errors
        assert a.bit_errors >= 50 and a.trials >= 100

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
    def test_records_do_not_depend_on_the_trial_blocks(self, monkeypatch, fields):
        """Records, but for elapsed_s, with blocks of at most two trials (the
        lattice arms and BP2) equal those with one block per batch."""
        cfg = SimConfig(snr_db=(4.0, 9.0), trials=23, batch_size=10, seed=41, **fields).validate()

        def records():
            return [dataclasses.replace(r, elapsed_s=0.0) for r in run_simulate(cfg)]

        monkeypatch.setattr(sim.batch, "_BLOCK_BYTES", 1 << 40)
        whole = records()
        monkeypatch.setattr(sim.batch, "_BLOCK_BYTES", 1)
        monkeypatch.setattr(sim.batch, "_MIN_BLOCK", 2)
        assert records() == whole

    def test_target_error_mode_independent_of_batch_size(self):
        """Batches of one trial stop where batches of 512 do, for every arm."""
        base = dict(m=2, n=2, snr_db=(4.0, 9.0), detectors=("LMMSE", "ML", "BP3"), trials=40,
                    target_errors=60, seed=31)
        one, many = ([dataclasses.replace(r, elapsed_s=0.0)
                      for r in run_simulate(SimConfig(batch_size=size, **base).validate())]
                     for size in (1, 512))
        assert one == many
        assert all(r.bit_errors >= 60 for r in one)


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
        44.9 MiB and 12.5x before)."""
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
    """Force ``count`` lanes: one, or two whatever the CPUs and batch size."""
    monkeypatch.setattr(sim, "_cpus", lambda: count)
    monkeypatch.setattr(sim, "_LANE_MIN_TRIALS", 1)


def _sans_elapsed(records):
    return [dataclasses.replace(r, elapsed_s=0.0) for r in records]


class TestLanes:
    """The arms of a batch run as tasks on the main thread and one worker."""

    @pytest.mark.parametrize("batch_size,trials", [(1, 12), (37, 80), (512, 600)])
    @pytest.mark.parametrize("run,fields", [
        (run_simulate, dict(detectors=sim.DETECTORS)),
        (run_simulate, dict(m=8, n=8, snr_db=(20.0,),
                            detectors=("LMMSE", "BP2", "BP3", "FB", "GBP2G", "GBP3G"))),
        # BP3 makes a second task next to the lattice arms
        (run_simulate, dict(m=3, n=3, constellation="QAM16", detectors=("ML", "MAP", "BP1", "BP3"))),
        (run_iterstudy, dict(detectors=("BP2", "BP3"), iter_list=(2, 3)))],
        ids=["4x4-all", "8x8-pairwise", "3x3-QAM16-lattice", "iterstudy"])
    def test_records_do_not_depend_on_the_lanes(self, monkeypatch, run, fields, batch_size, trials):
        """Records, but for elapsed_s, of one lane equal those of two."""
        cfg = SimConfig(**{"snr_db": (4.0, 9.0), **fields}, trials=trials, batch_size=batch_size,
                        seed=47).validate()
        _lanes(monkeypatch, 1)
        one = _sans_elapsed(run(cfg))
        _lanes(monkeypatch, 2)
        assert _sans_elapsed(run(cfg)) == one

    def test_the_worker_takes_tasks_next_to_this_thread(self):
        """Two tasks that each wait for the other finish only on two lanes."""
        meet = threading.Barrier(2, timeout=30)
        ran = []

        def task():
            ran.append(threading.get_ident())
            meet.wait()

        sim._run_tasks([task, task], share=True)
        assert len(set(ran)) == 2 and threading.get_ident() in ran
        alone = threading.Barrier(2, timeout=0.2)
        with pytest.raises(threading.BrokenBarrierError):
            sim._run_tasks([alone.wait, alone.wait], share=False)

    def test_the_first_failed_task_in_order_is_raised_once_both_lanes_are_idle(self):
        meet = threading.Barrier(2, timeout=30)
        running = []

        def failing(exc):
            def task():
                running.append(1)
                try:
                    meet.wait()
                    raise exc
                finally:
                    running.pop()
            return task

        later = []
        with pytest.raises(KeyError):
            sim._run_tasks([failing(KeyError("first")), failing(ValueError("second")),
                            lambda: later.append(1)], share=True)
        assert not running and not later

    def test_concurrent_callers_run_every_task_once(self, monkeypatch):
        """Four threads share the one worker; a short switch interval makes
        the lanes interleave often. A task lost or run twice would show."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            ran = [[] for _ in range(4)]

            def call(k):
                sim._run_tasks([lambda i=i: ran[k].append(i) for i in range(200)], share=True)

            callers = [threading.Thread(target=call, args=(k,)) for k in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert all(sorted(r) == list(range(200)) for r in ran)

    def test_shared_inputs_are_read_only(self, monkeypatch):
        """A kernel that writes into the link tables both lanes read raises."""
        def scribble(tables, sweeps):
            tables.a_diag[0, 0, 0] = 0.0

        monkeypatch.setattr(sim.batch, "gbp2g_batch", scribble)
        with pytest.raises(ValueError, match="read-only"):
            run_simulate(SimConfig(snr_db=(8.0,), detectors=("GBP2G",), trials=4).validate())

    def test_a_forked_child_runs_after_its_parent(self, monkeypatch):
        """The child of a process whose worker has started starts its own."""
        _lanes(monkeypatch, 2)
        cfg = SimConfig(snr_db=(8.0,), detectors=("BP2", "BP3", "GBP2G"), trials=40,
                        batch_size=20, seed=49).validate()
        expected = _sans_elapsed(run_simulate(cfg))
        assert sim._worker is not None

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
        """A fresh process pinned to one CPU starts no thread; unpinned, it
        starts the worker for the same batches."""
        script = (
            "import os, sys, threading\n"
            "from mimobp import sim\n"
            "if sys.argv[1] == 'pin':\n"
            "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "sim.run_simulate(sim.SimConfig(m=2, n=2, snr_db=(10.0,), detectors=('BP2', 'BP3', 'GBP2G'),\n"
            "                               trials=512, batch_size=512).validate())\n"
            "print(threading.active_count())\n")
        threads = {}
        for mode in ("pin", "free"):
            res = subprocess.run([sys.executable, "-c", script, mode], capture_output=True,
                                 text=True, timeout=120)
            assert res.returncode == 0, res.stderr
            threads[mode] = int(res.stdout)
        assert threads == {"pin": 1, "free": 2}


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
