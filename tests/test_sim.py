import dataclasses

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

    def test_target_error_mode_independent_of_batch_size(self):
        """Batches of one trial stop where batches of 512 do, for every arm."""
        base = dict(m=2, n=2, snr_db=(4.0, 9.0), detectors=("LMMSE", "ML", "BP3"), trials=40,
                    target_errors=60, seed=31)
        one, many = ([dataclasses.replace(r, elapsed_s=0.0)
                      for r in run_simulate(SimConfig(batch_size=size, **base).validate())]
                     for size in (1, 512))
        assert one == many
        assert all(r.bit_errors >= 60 for r in one)


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
