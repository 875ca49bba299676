"""Command-line front end.

Subcommands: simulate (BER sweep), converge (Gaussian-BP traces), detect
(single-instance report), iterstudy (BER versus iteration count). Exit codes:
0 success, 2 configuration error, 3 capacity error, 4 numerical error, 130
interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import sim
from .errors import CapacityError, ConfigError, NumericalError

_HELP = {
    "seed": "master seed (64-bit)",
    "snr_db": "comma-separated SNR list in dB",
    "detectors": "comma-separated detector list",
    "permutation": "ring order, 0-based, e.g. 0,2,1,3",
    "out": "output path (stdout when omitted)",
    "fmt": "output format",
    "m": "transmit streams",
    "n": "receive dimensions",
    "constellation": "QPSK or QAM16",
    "trials": "Monte Carlo trials per point",
    "target_errors": "keep running past --trials until this many bit errors",
    "max_trials": "hard trial cap in target-error mode, at least --trials (default 100 x --trials)",
    "batch_size": "trials per vectorised batch",
    "iterations": "iteration count for the iterative detectors",
    "gbp_sweeps": "fixed sweep count for the Gaussian detectors",
    "channels": "number of independent channels",
    "sweeps": "sweep cap for the Gaussian detectors",
    "iter_list": "iteration counts to sweep, default 2,3,4,6",
}
_INSTANCE = ("seed", "snr_db", "detectors", "permutation", "out", "fmt", "m", "n", "constellation")
_BER = _INSTANCE + ("trials", "target_errors", "max_trials", "batch_size")

# Each subcommand's help, the SimConfig keys it reads (a key's flag is the
# key with dashes, but fmt is --format), and its own defaults, which lie
# below the config file and the flags.
_COMMANDS = {
    "simulate": ("uncoded BER sweep across detectors and SNRs",
                 _BER + ("iterations", "gbp_sweeps"), {}),
    "converge": ("Gaussian BP convergence traces", _INSTANCE + ("channels", "sweeps"),
                 {"snr_db": (5.0, 20.0), "detectors": ("GBP2G", "GBP3G")}),
    "detect": ("single-instance diagnostic report", _INSTANCE + ("sweeps", "iterations"), {}),
    "iterstudy": ("BER versus iteration count for BP2/BP3", _BER + ("iter_list",),
                  {"detectors": ("BP2", "BP3")}),
}


def build_parser():
    parser = argparse.ArgumentParser(prog="mimobp",
                                     description="pairwise-graph BP MIMO detector simulator")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (text, keys, _) in _COMMANDS.items():
        p = subs.add_parser(command, help=text, allow_abbrev=False)
        p.add_argument("--config", help="flat key=value config file; flags override it")
        for key in keys:
            if key == "fmt":
                p.add_argument("--format", dest="fmt", choices=("csv", "json"), help=_HELP[key])
            else:
                p.add_argument("--" + key.replace("_", "-"), help=_HELP[key])
    return parser


def _config_from_args(args) -> sim.SimConfig:
    """Each flag read as its config line would be, over the config file."""
    _, keys, defaults = _COMMANDS[args.command]
    flags = {k: sim.read_value(k, text) for k in keys if (text := getattr(args, k)) is not None}
    return sim.load_config(args.config, flags, defaults)


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        records = getattr(sim, f"run_{args.command}")(cfg)
        _emit(sim.render(args.command, cfg, records), cfg.out)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"capacity error: out of memory ({str(exc) or 'no detail'}); the generated "
              f"batch, the posterior, the link tables, LMMSE, FB, BP3, GBP2G and GBP3G grow "
              f"with the trials per batch, so retry with a smaller --batch-size (MAP, ML, BP1 "
              f"and BP2 run in blocks of trials whatever the batch)",
              file=sys.stderr)
        return 3
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except KeyboardInterrupt:  # only here: a helper only notes SIGINT, and is reaped by now
        print("interrupted by SIGINT (Ctrl-C)", file=sys.stderr)
        return 130
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
