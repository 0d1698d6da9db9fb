"""Shared plumbing for the benchmark: program import, paths, statistics.

The benchmark lives beside the program it measures.  It imports the
program from ``src/`` of the same checkout and from nowhere else, so a
directory holding only the benchmark fails fast instead of measuring an
unrelated installed copy.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for indexes, stores and the program's temp files.
WORK = ROOT / ".perfbench-work"
#: Traced runs write their per-layer numbers here.
OUT = Path(__file__).resolve().parent / "out"


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no program, bad input)."""


def bootstrap_env() -> None:
    """Keep the program's temp files inside the checkout, clear knobs.

    The program compiles an optional native helper into the temp
    directory; pointing ``TMPDIR`` at the work area keeps every write
    inside the checkout.  Inherited ``REPRO_*`` variables are dropped so
    the program runs with its defaults whatever the caller's shell holds.
    """
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def import_program():
    """Import ``repro`` from this checkout's ``src/``; raise if absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program at {SRC}/repro")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent.parent != SRC:
        raise SetupError(f"imported repro from {repro.__file__}, not {SRC}")
    return repro


def child_env() -> dict:
    """Environment for program subprocesses (same rules as this one)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["TMPDIR"] = os.environ["TMPDIR"]
    return env


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of ``values`` (``q`` in [0, 1])."""
    xs = sorted(values)
    if not xs:
        return math.nan
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return quantile(values, 0.5)


def tail_percentile(n: int, *, beyond: int = 10) -> float | None:
    """Highest of the usual percentiles with ``beyond`` samples above it."""
    for p in (0.999, 0.99, 0.95, 0.9, 0.75):
        if n * (1.0 - p) >= beyond:
            return p
    return None


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise SetupError("VmHWM missing from /proc status")


def cpu_seconds(pid: int | str = "self") -> float:
    """User + system CPU seconds of a live process (from /proc)."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def emit(result: dict) -> None:
    """Print the one-line result the benchmark contract asks for."""
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    sys.stdout.flush()


def log(msg: str) -> None:
    """Progress line on stderr (stdout carries the results)."""
    sys.stderr.write(f"[perfbench] {msg}\n")
    sys.stderr.flush()
