"""Process environment shared by the benchmark's entry points.

`prepare()` must run before numpy is imported: it pins the BLAS and OpenMP
pools to one thread and puts the checkout's `src/` on the import path.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def prepare():
    """Pin thread pools and import `mimobp` from this checkout, or exit 2."""
    if not (SRC / "mimobp" / "__init__.py").is_file():
        print(f"perfbench: no mimobp sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    os.environ.update(THREAD_ENV)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def git_rev() -> str:
    """Commit of the checkout from its own `.git`, or 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
