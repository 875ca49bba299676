import argparse
import dataclasses
import json
import os
import signal
import subprocess
import sys
import time

import pytest

CLI = [sys.executable, "-m", "mimobp.cli"]
needs_fork = pytest.mark.skipif(not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
                                reason="the split needs os.fork and CPU affinity")


def run_cli(*args, timeout=None):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, timeout=timeout)


def with_trials(args, count):
    """``args``, plus ``--trials count`` where the subcommand reads trials."""
    return (*args, "--trials", count) if args[0] in ("simulate", "iterstudy") else args


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

    def test_pairwise_detector_on_one_stream_exits_two(self):
        res = run_cli("simulate", "--m", "1", "--n", "2", "--detectors", "BP2",
                      "--trials", "50", "--snr-db", "10")
        assert res.returncode == 2
        assert "drop BP2 from detectors" in res.stderr and res.stdout == ""

    @pytest.mark.parametrize("flag,key,text", [
        ("--snr-db", "snr_db", "5,abc"),
        ("--seed", "seed", "x"),
        ("--permutation", "permutation", "1,0,2,x"),
        ("--iter-list", "iter_list", "2,3.5"),
    ])
    def test_bad_flag_value_reads_as_its_config_line(self, tmp_path, flag, key, text):
        """A bad value exits 2 with the file line's error, less its line number."""
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"{key} = {text}\n")
        by_flag = run_cli("iterstudy", flag, text, "--trials", "5")
        by_file = run_cli("iterstudy", "--config", str(cfgfile), "--trials", "5")
        assert by_flag.returncode == by_file.returncode == 2
        assert by_flag.stderr.startswith(f"config error: field '{key}': ")
        assert by_file.stderr == by_flag.stderr.replace("config error: ", "config error: line 1: ")
        assert not any(word in by_flag.stderr for word in ("_float_list", "_int_list", "usage"))
        assert by_flag.stdout == by_file.stdout == ""

    @pytest.mark.parametrize("args", [
        ("simulate", "--detectors", "GBP2G,GBP3G", "--gbp-sweeps", "0"),
        ("converge", "--sweeps", "0"),
        ("converge", "--channels", "0"),
        ("iterstudy", "--iter-list", "0,-2"),
        ("simulate", "--target-errors", "0"),
        ("simulate", "--target-errors", "-5"),
    ])
    def test_sweep_count_below_one_exits_two(self, args):
        res = run_cli(*with_trials(args, "50"), "--snr-db", "10")
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
        res = run_cli(*with_trials(args, "5"), timeout=60)
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
        res = run_cli(*with_trials(args, "5"), timeout=60)
        assert res.returncode == 2
        assert "config error" in res.stderr and "100" in res.stderr
        assert res.stdout == "" and "Traceback" not in res.stderr

    @pytest.mark.parametrize("snr", ["100", "-100"])
    @pytest.mark.parametrize("args", [
        ("simulate", "--m", "4", "--n", "4", "--detectors", "MAP,ML,LMMSE,BP1,BP2,BP3,FB,GBP2G,GBP3G"),
        ("simulate", "--m", "3", "--n", "5", "--constellation", "QAM16",
         "--detectors", "MAP,ML,LMMSE,BP1,BP2,BP3,FB,GBP2G,GBP3G"),
        ("simulate", "--m", "1", "--n", "1", "--detectors", "MAP,ML,LMMSE,BP1"),
        ("converge", "--channels", "2", "--sweeps", "100"),
    ])
    def test_snr_at_the_limits_runs_without_warnings(self, args, snr):
        res = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "mimobp.cli",
                              *with_trials(args, "10"), f"--snr-db={snr}"],
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        assert res.stderr == ""

    def test_missing_config_file(self):
        res = run_cli("simulate", "--config", "/nonexistent/path.cfg")
        assert res.returncode == 2

    def test_a_config_line_of_an_unknown_key_exits_two(self, tmp_path):
        """``detector``, short for ``detectors``, is a key like any other
        that SimConfig lacks: exit 2 naming the key, and no run."""
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("detector = ML\n")
        res = run_cli("simulate", "--config", str(cfgfile), "--trials", "5")
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr == "config error: line 1: unknown key 'detector'\n"

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

    @needs_fork
    def test_memory_error_in_a_worker_arm_exits_three(self, monkeypatch, capsys):
        """The helper runs out of memory in its half of a batch: exit 3, and
        no process is left when main returns."""
        from mimobp import cli, sim

        monkeypatch.setattr(sim, "_cpus", lambda: 2)
        monkeypatch.setattr(sim, "_SPLIT_MIN_TRIALS", 1)
        generate, parent = sim.generate_batch, os.getpid()

        def generate_or_fail(*args):
            if os.getpid() != parent:
                raise MemoryError("synthetic failure")
            return generate(*args)

        monkeypatch.setattr(sim, "generate_batch", generate_or_fail)
        assert cli.main(["simulate", "--snr-db", "8", "--trials", "8",
                         "--detectors", "BP2,BP3,GBP2G"]) == 3
        assert "out of memory (synthetic failure)" in capsys.readouterr().err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @needs_fork
    def test_a_killed_helper_exits_three(self):
        """A helper killed by SIGKILL, as by the out-of-memory killer, in its
        second batch: exit 3 naming the signal, in bounded time, with no
        traceback and no process left."""
        script = (
            "import os, signal, sys\n"
            "from mimobp import cli, sim\n"
            "sim._cpus, sim._SPLIT_MIN_TRIALS = (lambda: 2), 1\n"
            "generate, parent, calls = sim.generate_batch, os.getpid(), []\n"
            "def generate_or_die(*args):\n"
            "    calls.append(1)\n"
            "    if os.getpid() != parent and len(calls) == 2:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return generate(*args)\n"
            "sim.generate_batch = generate_or_die\n"
            "code = cli.main(['simulate', '--snr-db', '8', '--trials', '120', '--batch-size', '40',\n"
            "                 '--detectors', 'BP2,GBP2G'])\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "    print('a child is left')\n"
            "except ChildProcessError:\n"
            "    pass\n"
            "sys.exit(code)\n")
        res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             timeout=120)
        assert res.returncode == 3, res.stderr
        assert "capacity error" in res.stderr and "SIGKILL" in res.stderr
        assert "Traceback" not in res.stderr and res.stdout == ""

    @needs_fork
    def test_ctrl_c_exits_130(self):
        """SIGINT to the process group, as Ctrl-C sends it, once the first
        batch of a long split run is done: exit 130 with one line on stderr,
        no traceback and no process left."""
        script = (
            "import os, sys\n"
            "from mimobp import cli, sim\n"
            "sim._cpus = lambda: 2\n"
            "generate, parent, calls = sim.generate_batch, os.getpid(), []\n"
            "def generate_and_tell(*args):\n"
            "    calls.append(1)\n"
            "    if os.getpid() == parent and len(calls) == 2:\n"
            "        print('second batch', flush=True)\n"
            "    return generate(*args)\n"
            "sim.generate_batch = generate_and_tell\n"
            "code = cli.main(['simulate', '--snr-db', '8', '--trials', '1000000',\n"
            "                 '--batch-size', '512', '--detectors', 'BP2,GBP2G'])\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "    print('a child is left')\n"
            "except ChildProcessError:\n"
            "    pass\n"
            "sys.exit(code)\n")
        with subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
            try:
                assert proc.stdout.readline() == "second batch\n"
                os.killpg(proc.pid, signal.SIGINT)
                out, err = proc.communicate(timeout=60)
            finally:
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
        assert proc.returncode == 130, err
        assert err == "interrupted by SIGINT (Ctrl-C)\n" and out == ""

    @needs_fork
    def test_a_helper_that_fails_before_its_jobs_exits_three(self):
        """The helper's first call raises KeyboardInterrupt, as a Ctrl-C
        there would. It leaves through its own exit, so the caller's code
        runs once: exit 3 naming the helper's exit code, without the
        out-of-memory hint of a helper killed by SIGKILL."""
        script = (
            "import os, sys\n"
            "from mimobp import cli, sim\n"
            "sim._cpus, sim._SPLIT_MIN_TRIALS = (lambda: 2), 1\n"
            "cdll, parent = sim.ctypes.CDLL, os.getpid()\n"
            "def cdll_or_interrupt(*args, **kwargs):\n"
            "    if os.getpid() != parent:\n"
            "        raise KeyboardInterrupt\n"
            "    return cdll(*args, **kwargs)\n"
            "sim.ctypes.CDLL = cdll_or_interrupt\n"
            "code = cli.main(['simulate', '--snr-db', '8', '--trials', '80', '--batch-size', '40',\n"
            "                 '--detectors', 'BP2,GBP2G'])\n"
            "print('main returned', flush=True)\n"
            "sys.exit(code)\n")
        res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             timeout=120)
        assert res.stdout == "main returned\n"
        assert res.returncode == 3, res.stderr
        assert "exit code 1" in res.stderr and "out-of-memory" not in res.stderr

    @needs_fork
    def test_ctrl_c_just_after_the_fork_leaves_no_child(self):
        """SIGINT reaches the caller right after the fork returns, before
        the helper is recorded. It is raised only once the helper is
        recorded, so the run still kills and reaps it."""
        script = (
            "import os, signal, time\n"
            "from mimobp import sim\n"
            "sim._cpus, sim._SPLIT_MIN_TRIALS = (lambda: 2), 1\n"
            "fork, parent = os.fork, os.getpid()\n"
            "def fork_and_interrupt():\n"
            "    pid = fork()\n"
            "    if pid:\n"
            "        os.kill(parent, signal.SIGINT)\n"
            "    return pid\n"
            "os.fork = fork_and_interrupt\n"
            "try:\n"
            "    sim.run_simulate(sim.SimConfig(snr_db=(8.0,), detectors=('BP2',), trials=8)\n"
            "                    .validate())\n"
            "    print('not interrupted')\n"
            "except KeyboardInterrupt:\n"
            "    print('interrupted')\n"
            "time.sleep(0.5)\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "    print('a child is left')\n"
            "except ChildProcessError:\n"
            "    print('no child')\n")
        res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             timeout=120)
        assert res.returncode == 0, res.stderr
        assert res.stdout == "interrupted\nno child\n"

    @needs_fork
    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
    def test_ctrl_c_that_a_blas_thread_takes_during_the_start_leaves_no_child(self):
        """SIGINT sent to the process during the helper's start, while a
        BLAS pool thread runs, which may take it, so a mask of the calling
        thread alone would not hold it back. It is raised only once the
        helper is recorded, so the run still kills and reaps it and closes
        every pipe."""
        script = (
            "import os, signal, time\n"
            "import numpy as np\n"
            "from mimobp import sim\n"
            "a = np.ones((400, 400))\n"
            "a @ a  # starts the BLAS pool\n"
            "print(len(os.listdir('/proc/self/task')), flush=True)\n"
            "sim._cpus, sim._SPLIT_MIN_TRIALS = (lambda: 2), 1\n"
            "pipe, parent, calls = os.pipe, os.getpid(), []\n"
            "def interrupt_and_pipe():\n"
            "    if not calls:\n"
            "        calls.append(1)\n"
            "        os.kill(parent, signal.SIGINT)\n"
            "    return pipe()\n"
            "os.pipe = interrupt_and_pipe\n"
            "fds = len(os.listdir('/proc/self/fd'))\n"
            "try:\n"
            "    sim.run_simulate(sim.SimConfig(snr_db=(8.0,), detectors=('BP2',), trials=8)\n"
            "                    .validate())\n"
            "    print('not interrupted')\n"
            "except KeyboardInterrupt:\n"
            "    print('interrupted')\n"
            "time.sleep(0.5)\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "    print('a child is left')\n"
            "except ChildProcessError:\n"
            "    print('no child')\n"
            "print(len(os.listdir('/proc/self/fd')) - fds, 'fds left open')\n")
        res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             timeout=120)
        assert res.returncode == 0, res.stderr
        threads, rest = res.stdout.split("\n", 1)
        if threads == "1":
            pytest.skip("no BLAS pool thread: only the caller can take the signal")
        assert rest == "interrupted\nno child\n0 fds left open\n"

    @needs_fork
    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process states from /proc")
    @pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL], ids=lambda s: s.name)
    def test_the_helper_dies_with_its_caller(self, sig):
        """A caller ended by ``sig`` in the middle of a batch, whose halves
        take seconds, takes its helper along: within 1 s the helper is gone
        or a zombie."""
        script = (
            "from mimobp import cli, sim\n"
            "sim._cpus = lambda: 2\n"
            "start = sim._Helper._start\n"
            "def start_and_tell(self):\n"
            "    forked = start(self)\n"
            "    print(self._pid, flush=True)\n"
            "    return forked\n"
            "sim._Helper._start = start_and_tell\n"
            "cli.main(['simulate', '--m', '4', '--n', '4', '--constellation', 'QAM16',\n"
            "          '--snr-db', '10', '--detectors', 'BP1', '--trials', '100000',\n"
            "          '--batch-size', '512'])\n")

        def running(pid):
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    return fh.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
            except FileNotFoundError:
                return False

        helper = None
        with subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                              text=True) as proc:
            try:
                helper = int(proc.stdout.readline())
                time.sleep(0.2)  # both halves are under way
                proc.send_signal(sig)
                proc.wait(timeout=60)
                deadline = time.monotonic() + 1.0
                while running(helper) and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert not running(helper)
            finally:
                if proc.poll() is None:
                    proc.kill()
                if helper is not None and running(helper):
                    os.kill(helper, signal.SIGKILL)

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
                      "--detectors", "ML,BP2,LMMSE", "--format", "json", "--out", str(out))
        assert res.returncode == 0
        payload = json.loads(out.read_text())
        assert "BP2" in payload["records"]["detectors"] and payload["config"]["fmt"] == "json"

    def test_detect_caps_the_gaussian_sweeps(self):
        res = run_cli("detect", "--m", "3", "--n", "3", "--detectors", "GBP2G", "--sweeps", "2")
        assert res.returncode == 0, res.stderr
        sweeps = [int(word.split("=")[1]) for word in res.stdout.split()
                  if word.startswith("sweeps=")]
        assert sweeps and max(sweeps) <= 2

    def test_config_file_with_flag_override(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("trials = 40\nseed = 5\ndetectors = LMMSE\nsnr_db = 8\n")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("simulate", "--config", str(cfgfile), "--out", str(out1))
        run_cli("simulate", "--config", str(cfgfile), "--seed", "6", "--out", str(out2))
        assert "seed=5" in out1.read_text().splitlines()[0]
        assert "seed=6" in out2.read_text().splitlines()[0]

    def test_config_file_over_subcommand_defaults(self, tmp_path):
        """converge's SNRs and detectors and iterstudy's detectors yield to
        the file's, as every other default does."""
        cfgfile = tmp_path / "converge.cfg"
        cfgfile.write_text("snr_db = 12\ndetectors = GBP3G\nchannels = 1\nsweeps = 3\n"
                           "m = 2\nn = 2\n")
        res = run_cli("converge", "--config", str(cfgfile))
        assert res.returncode == 0, res.stderr
        head, _, *rows = res.stdout.splitlines()
        assert "detectors=GBP3G " in head and "snr_db=12.0 " in head
        assert {tuple(r.split(",")[1:3]) for r in rows} == {("12", "GBP3G")}
        cfgfile = tmp_path / "iterstudy.cfg"
        cfgfile.write_text("detectors = BP3\n")
        res = run_cli("iterstudy", "--config", str(cfgfile), "--snr-db", "8",
                      "--trials", "20", "--iter-list", "2")
        assert res.returncode == 0, res.stderr
        assert [r.split(",")[0] for r in res.stdout.splitlines()[2:]] == ["BP3"]


# one value per SimConfig key, none its default, with the subcommand and
# flag that set it
_EVERY_KEY = [
    ("m", "3", "simulate", "--m"),
    ("n", "6", "simulate", "--n"),
    ("constellation", "QAM16", "simulate", "--constellation"),
    ("snr_db", "4.5, 9", "simulate", "--snr-db"),
    ("detectors", "ml, bp3", "simulate", "--detectors"),
    ("iterations", "6", "simulate", "--iterations"),
    ("trials", "500", "simulate", "--trials"),
    ("target_errors", "7", "simulate", "--target-errors"),
    ("max_trials", "20000", "simulate", "--max-trials"),
    ("seed", "17", "simulate", "--seed"),
    ("permutation", "3,1,0,2", "simulate", "--permutation"),
    ("out", "x y.csv", "simulate", "--out"),
    ("fmt", "json", "simulate", "--format"),
    ("batch_size", "64", "simulate", "--batch-size"),
    ("gbp_sweeps", "30", "simulate", "--gbp-sweeps"),
    ("channels", "3", "converge", "--channels"),
    ("sweeps", "40", "converge", "--sweeps"),
    ("iter_list", "2,5", "iterstudy", "--iter-list"),
]


def test_every_key_has_its_flag():
    from mimobp.sim import SimConfig
    assert [k for k, *_ in _EVERY_KEY] == [f.name for f in dataclasses.fields(SimConfig)]


@pytest.mark.parametrize("key,text,command,flag", _EVERY_KEY, ids=[k for k, *_ in _EVERY_KEY])
def test_flag_and_config_line_give_one_config(tmp_path, key, text, command, flag):
    from mimobp import cli
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"{key} = {text}\n")
    parser = cli.build_parser()
    by_flag = cli._config_from_args(parser.parse_args([command, flag, text]))
    by_file = cli._config_from_args(parser.parse_args([command, "--config", str(cfgfile)]))
    assert by_flag == by_file
    assert by_flag != cli._config_from_args(parser.parse_args([command]))


_INSTANCE_FLAGS = ("--seed", "--snr-db", "--detectors", "--permutation", "--out", "--format",
                   "--m", "--n", "--constellation")
_BER_FLAGS = _INSTANCE_FLAGS + ("--trials", "--target-errors", "--max-trials", "--batch-size")


def test_each_subcommand_takes_the_flags_of_the_keys_it_reads():
    from mimobp import cli
    subs = next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    taken = {command: {flag for action in sub._actions for flag in action.option_strings}
             - {"-h", "--help"} for command, sub in subs.choices.items()}
    assert taken == {
        "simulate": {"--config", *_BER_FLAGS, "--iterations", "--gbp-sweeps"},
        "iterstudy": {"--config", *_BER_FLAGS, "--iter-list"},
        "converge": {"--config", *_INSTANCE_FLAGS, "--channels", "--sweeps"},
        "detect": {"--config", *_INSTANCE_FLAGS, "--sweeps", "--iterations"},
    }
    assert sum(map(len, taken.values())) == 55


@pytest.mark.parametrize("args", [
    ("converge", "--trials", "5"),
    ("converge", "--target-errors", "5"),
    ("converge", "--max-trials", "500"),
    ("converge", "--iterations", "3"),
    ("converge", "--batch-size", "64"),
    ("detect", "--trials", "5"),
    ("detect", "--target-errors", "5"),
    ("detect", "--max-trials", "500"),
    ("detect", "--batch-size", "64"),
    ("detect", "--dump"),
    ("iterstudy", "--iterations", "3"),
    ("iterstudy", "--iter", "3"),  # a prefix of --iter-list alone
    ("simulate", "--det", "ML"),  # a prefix of --detectors alone
])
def test_a_flag_the_subcommand_does_not_read_exits_two(args):
    res = run_cli(*args)
    assert res.returncode == 2
    assert f"unrecognized arguments: {' '.join(args[1:])}" in res.stderr
    assert res.stdout == "" and "Traceback" not in res.stderr

