"""Command-line front end.

Subcommands: simulate (BER sweep), converge (Gaussian-BP traces), detect
(single-instance dump), iterstudy (BER versus iteration count). Exit codes:
0 success, 2 configuration error, 3 capacity error, 4 numerical error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import sim
from .errors import CapacityError, ConfigError, NumericalError


def _common_flags(p):
    p.add_argument("--config", help="flat key=value config file; flags override it")
    p.add_argument("--seed", help="master seed (64-bit)")
    p.add_argument("--snr-db", help="comma-separated SNR list in dB")
    p.add_argument("--detectors", help="comma-separated detector list")
    p.add_argument("--trials", help="Monte Carlo trials per point")
    p.add_argument("--target-errors", help="keep running past --trials until this many bit errors")
    p.add_argument("--max-trials", help="hard trial cap in target-error mode, at least --trials "
                                        "(default 100 x --trials)")
    p.add_argument("--iterations", help="iteration count for the iterative detectors")
    p.add_argument("--permutation", help="ring order, 0-based, e.g. 0,2,1,3")
    p.add_argument("--out", help="output path (stdout when omitted)")
    p.add_argument("--format", dest="fmt", choices=("csv", "json"), help="output format")
    p.add_argument("--m", help="transmit streams")
    p.add_argument("--n", help="receive dimensions")
    p.add_argument("--constellation", help="QPSK or QAM16")
    p.add_argument("--batch-size", help="trials per vectorised batch")


def build_parser():
    parser = argparse.ArgumentParser(prog="mimobp",
                                     description="pairwise-graph BP MIMO detector simulator")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("simulate", help="uncoded BER sweep across detectors and SNRs")
    _common_flags(p)
    p.add_argument("--gbp-sweeps", help="fixed sweep count for the Gaussian detectors")

    p = subs.add_parser("converge", help="Gaussian BP convergence traces")
    _common_flags(p)
    p.add_argument("--channels", help="number of independent channels")
    p.add_argument("--sweeps", help="sweep cap per channel")
    # a subcommand's defaults lie below the config file and the flags
    p.set_defaults(defaults={"snr_db": (5.0, 20.0), "detectors": ("GBP2G", "GBP3G")})

    p = subs.add_parser("detect", help="single-instance diagnostic report")
    _common_flags(p)
    p.add_argument("--sweeps", help="sweep cap for the Gaussian detectors")
    p.add_argument("--dump", action="store_true", help="emit the full JSON report")

    p = subs.add_parser("iterstudy", help="BER versus iteration count for BP2/BP3")
    _common_flags(p)
    p.add_argument("--iter-list", help="iteration counts to sweep, default 2,3,4,6")
    p.set_defaults(defaults={"detectors": ("BP2", "BP3")})
    return parser


_CFG_KEYS = tuple(f.name for f in dataclasses.fields(sim.SimConfig))


def _config_from_args(args) -> sim.SimConfig:
    """Each flag read as its config line would be, over the config file."""
    flags = {k: sim.read_value(k, text) for k in _CFG_KEYS
             if (text := getattr(args, k, None)) is not None}
    return sim.load_config(args.config, flags, getattr(args, "defaults", None))


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
        if args.command == "detect":
            report = sim.run_detect(cfg)
            if args.dump or cfg.fmt == "json":
                _emit(sim.render_json("detect", cfg, report), cfg.out)
            else:
                _emit(sim.format_report(report) + "\n", cfg.out)
        else:
            records = getattr(sim, f"run_{args.command}")(cfg)  # simulate, converge, iterstudy
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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
