import json
import os
import subprocess
import sys
import threading

import pytest

CLI = [sys.executable, "-m", "mimobp.cli"]


def run_cli(*args, timeout=None):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, timeout=timeout)


def strip_elapsed(text):
    """Drop the wall-clock column, the one non-deterministic field."""
    out = []
    for line in text.splitlines():
        if line.startswith("#") or line.startswith("detector") or "," not in line:
            out.append(line)
        else:
            out.append(line.rsplit(",", 1)[0])
    return "\n".join(out)


class TestExitCodes:
    def test_success(self, tmp_path):
        res = run_cli("simulate", "--snr-db", "8", "--trials", "50",
                      "--detectors", "LMMSE", "--out", str(tmp_path / "o.csv"))
        assert res.returncode == 0

    def test_config_error(self):
        res = run_cli("simulate", "--detectors", "WAT")
        assert res.returncode == 2
        assert "config error" in res.stderr

    def test_unknown_constellation_exits_two(self):
        res = run_cli("simulate", "--constellation", "8PSK", "--trials", "1")
        assert res.returncode == 2
        assert "config error" in res.stderr and "8PSK" in res.stderr
        assert "Traceback" not in res.stderr

    def test_fb_on_one_stream_exits_two(self):
        res = run_cli("simulate", "--m", "1", "--n", "1", "--detectors", "FB",
                      "--trials", "50", "--snr-db", "10")
        assert res.returncode == 2
        assert "FB needs M >= 2" in res.stderr and res.stdout == ""

    @pytest.mark.parametrize("args", [
        ("simulate", "--detectors", "GBP2G,GBP3G", "--gbp-sweeps", "0"),
        ("converge", "--sweeps", "0"),
        ("converge", "--channels", "0"),
        ("iterstudy", "--iter-list", "0,-2"),
        ("simulate", "--target-errors", "0"),
        ("simulate", "--target-errors", "-5"),
    ])
    def test_sweep_count_below_one_exits_two(self, args):
        res = run_cli(*args, "--trials", "50", "--snr-db", "10")
        assert res.returncode == 2
        assert "must be >= 1" in res.stderr and res.stdout == ""
        assert "Traceback" not in res.stderr

    def test_scalar_iterations_below_one_names_no_other_detector(self):
        res = run_cli("simulate", "--detectors", "BP3", "--iterations", "0",
                      "--trials", "50", "--snr-db", "10")
        assert res.returncode == 2
        assert "iterations must be >= 1" in res.stderr and "BP1" not in res.stderr
        assert res.stdout == ""

    def test_iteration_count_on_a_detector_without_iterations_exits_two(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("iterations.GBP2G = 1\niterations.LMMSE = 7\n")
        res = run_cli("simulate", "--config", str(cfgfile), "--detectors", "GBP2G,LMMSE",
                      "--trials", "50", "--snr-db", "10")
        assert res.returncode == 2
        assert "takes no iteration count" in res.stderr and res.stdout == ""
        assert "Traceback" not in res.stderr

    def test_max_trials_below_trials_exits_two(self, tmp_path):
        out = tmp_path / "o.csv"
        res = run_cli("simulate", "--trials", "10", "--max-trials", "3",
                      "--detectors", "LMMSE", "--out", str(out))
        assert res.returncode == 2
        assert "max_trials" in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("counts", [
        ("--trials", str(2 ** 64 + 1)),
        ("--trials", "10", "--target-errors", "5", "--max-trials", str(2 ** 64)),
    ])
    def test_trial_counts_beyond_64_bit_stream_ids_exit_two(self, counts):
        # such a run could never reach its count, so it must not start
        res = run_cli("simulate", *counts, "--detectors", "LMMSE", timeout=60)
        assert res.returncode == 2
        assert "below 2^64" in res.stderr and res.stdout == ""
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("args", [
        ("simulate", "--snr-db=-4000"),
        ("converge", "--snr-db", "4000"),
        ("detect", "--snr-db", "1e308"),
        ("simulate", "--snr-db", "nan", "--detectors", "LMMSE"),
        ("simulate", "--snr-db", "inf"),
        ("simulate", "--snr-db=-inf"),
        ("simulate", "--snr-db", "10,nan"),
        ("detect", "--snr-db", "nan"),
    ])
    def test_snr_without_a_finite_positive_noise_power_exits_two(self, args):
        res = run_cli(*args, "--trials", "5", timeout=60)
        assert res.returncode == 2
        assert "config error" in res.stderr and "snr_db" in res.stderr
        assert res.stdout == "" and "Traceback" not in res.stderr

    @pytest.mark.parametrize("args", [
        ("simulate", "--snr-db", "2000"),
        ("simulate", "--snr-db=-200"),
        ("converge", "--snr-db", "3200"),
    ])
    def test_snr_beyond_100_db_exits_two(self, args):
        """Finite SNRs past +-100 dB drive the kernels into NaN beliefs, so
        they are config errors rather than meaningless counts."""
        res = run_cli(*args, "--trials", "5", timeout=60)
        assert res.returncode == 2
        assert "config error" in res.stderr and "100" in res.stderr
        assert res.stdout == "" and "Traceback" not in res.stderr

    @pytest.mark.parametrize("snr", ["100", "-100"])
    @pytest.mark.parametrize("args", [
        ("simulate", "--m", "4", "--n", "4", "--detectors", "MAP,ML,LMMSE,BP1,BP2,BP3,FB,GBP2G,GBP3G"),
        ("simulate", "--m", "3", "--n", "5", "--constellation", "QAM16",
         "--detectors", "MAP,ML,LMMSE,BP1,BP2,BP3,FB,GBP2G,GBP3G"),
        ("simulate", "--m", "1", "--n", "1", "--detectors", "MAP,ML,LMMSE,BP1,BP2,BP3,GBP2G,GBP3G"),
        ("converge", "--channels", "2", "--sweeps", "100"),
    ])
    def test_snr_at_the_limits_runs_without_warnings(self, args, snr):
        res = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "mimobp.cli",
                              *args, f"--snr-db={snr}", "--trials", "10"],
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        assert res.stderr == ""

    def test_missing_config_file(self):
        res = run_cli("simulate", "--config", "/nonexistent/path.cfg")
        assert res.returncode == 2

    def test_capacity_error(self):
        res = run_cli("simulate", "--m", "16", "--n", "16",
                      "--constellation", "QAM16", "--detectors", "MAP",
                      "--trials", "1")
        assert res.returncode == 3
        assert "capacity" in res.stderr

    def test_bad_flag_exits_two(self):
        res = run_cli("simulate", "--format", "xml")
        assert res.returncode == 2

    def test_numerical_error_exits_four(self, monkeypatch):
        from mimobp import cli
        from mimobp.errors import NumericalError

        def boom(cfg):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(cli.sim, "run_simulate", boom)
        assert cli.main(["simulate", "--snr-db", "8", "--trials", "1",
                         "--detectors", "LMMSE"]) == 4

    def test_memory_error_exits_three(self, monkeypatch, capsys):
        from mimobp import cli

        def boom(cfg):
            raise MemoryError("synthetic failure")

        monkeypatch.setattr(cli.sim, "run_simulate", boom)
        assert cli.main(["simulate", "--snr-db", "8", "--trials", "1",
                         "--detectors", "ML"]) == 3
        err = capsys.readouterr().err
        assert "--batch-size" in err
        # every stage that takes the whole generated batch is named
        for stage in ("generated batch", "posterior", "link tables", "LMMSE", "FB", "BP3",
                      "GBP2G", "GBP3G"):
            assert stage in err, stage

    def test_memory_error_in_a_worker_arm_exits_three(self, monkeypatch, capsys):
        """The arm the worker thread takes runs out of memory: exit 3, and
        no arm is still running when main returns."""
        from mimobp import cli, sim

        monkeypatch.setattr(sim, "_cpus", lambda: 2)
        monkeypatch.setattr(sim, "_LANE_MIN_TRIALS", 1)
        detect = sim._detect_batch
        failed = threading.Event()
        running = []

        def detect_or_fail(*args):
            running.append(1)
            try:
                if threading.current_thread() is not threading.main_thread():
                    failed.set()
                    raise MemoryError("synthetic failure")
                failed.wait(timeout=30)  # leave a task to the worker
                return detect(*args)
            finally:
                running.pop()

        monkeypatch.setattr(sim, "_detect_batch", detect_or_fail)
        assert cli.main(["simulate", "--snr-db", "8", "--trials", "8",
                         "--detectors", "BP2,BP3,GBP2G"]) == 3
        assert failed.is_set() and not running
        assert "out of memory" in capsys.readouterr().err

    def test_lattice_run_fits_a_1_gb_address_space(self):
        """512 trials of 4x4 QAM16 ML in one batch once asked for a 1 GiB
        residual table and exited 3 under this limit; in blocks of 16 trials
        the tables take 32 MiB. One BLAS thread keeps the thread stacks of a
        many-core host out of the address space."""
        resource = pytest.importorskip("resource")

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (10 ** 9, 10 ** 9))

        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        res = subprocess.run(CLI + ["simulate", "--constellation", "QAM16", "--detectors", "ML",
                                    "--trials", "512", "--snr-db", "10"],
                             capture_output=True, text=True, preexec_fn=cap, env=env, timeout=300)
        assert res.returncode == 0, res.stderr


class TestDeterminism:
    def test_rerun_identical_sans_elapsed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("simulate", "--snr-db", "8", "--trials", "800", "--seed", "21",
                "--detectors", "LMMSE,BP3")
        assert run_cli(*args, "--out", str(a)).returncode == 0
        assert run_cli(*args, "--out", str(b)).returncode == 0
        assert strip_elapsed(a.read_text()) == strip_elapsed(b.read_text())

    def test_batch_size_does_not_change_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("simulate", "--snr-db", "8", "--trials", "700", "--seed", "22",
                "--detectors", "BP2,LMMSE")
        run_cli(*args, "--batch-size", "64", "--out", str(a))
        run_cli(*args, "--batch-size", "999", "--out", str(b))
        assert strip_elapsed(a.read_text()) == strip_elapsed(b.read_text())

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_output_identical_down_to_batches_of_one(self, fmt):
        args = ("simulate", "--m", "4", "--n", "4", "--snr-db", "2", "--trials", "100",
                "--target-errors", "150", "--detectors", "LMMSE,MAP,BP1,BP2,BP3,FB",
                "--seed", "5", "--format", fmt)
        outs = set()
        for size in ("1", "37", "4096"):
            res = run_cli(*args, "--batch-size", size)
            assert res.returncode == 0, res.stderr
            if fmt == "json":
                outs.add("\n".join(line for line in res.stdout.splitlines()
                                    if '"elapsed_s"' not in line))
            else:
                outs.add(strip_elapsed(res.stdout))
        assert len(outs) == 1

    def test_converge_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("converge", "--channels", "3", "--seed", "23")
        run_cli(*args, "--out", str(a))
        run_cli(*args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestFormats:
    def test_json_output(self, tmp_path):
        out = tmp_path / "o.json"
        res = run_cli("simulate", "--snr-db", "8", "--trials", "60",
                      "--detectors", "LMMSE", "--format", "json", "--out", str(out))
        assert res.returncode == 0
        payload = json.loads(out.read_text())
        rec = payload["records"][0]
        assert set(rec) >= {"detector", "snr_db", "trials", "bit_errors", "ber", "ci95", "elapsed_s"}

    def test_iterstudy_csv_schema(self, tmp_path):
        out = tmp_path / "o.csv"
        res = run_cli("iterstudy", "--snr-db", "8", "--trials", "200",
                      "--iter-list", "2,3", "--out", str(out), "--seed", "3")
        assert res.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "detector,iterations,snr_db,trials,bit_errors,ber,ci95,elapsed_s"
        assert len(lines) == 2 + 2 * 2  # two detectors x two settings

    def test_detect_text_and_dump(self, tmp_path):
        res = run_cli("detect", "--seed", "4", "--snr-db", "10",
                      "--detectors", "ML,BP2,LMMSE")
        assert res.returncode == 0
        assert "[BP2]" in res.stdout and "sum=1.0000" in res.stdout
        out = tmp_path / "d.json"
        res = run_cli("detect", "--seed", "4", "--snr-db", "10",
                      "--detectors", "ML,BP2,LMMSE", "--dump", "--out", str(out))
        assert res.returncode == 0
        payload = json.loads(out.read_text())
        assert "BP2" in payload["records"]["detectors"]

    def test_config_file_with_flag_override(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("trials = 40\nseed = 5\ndetectors = LMMSE\nsnr_db = 8\n")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("simulate", "--config", str(cfgfile), "--out", str(out1))
        run_cli("simulate", "--config", str(cfgfile), "--seed", "6", "--out", str(out2))
        assert "seed=5" in out1.read_text().splitlines()[0]
        assert "seed=6" in out2.read_text().splitlines()[0]
