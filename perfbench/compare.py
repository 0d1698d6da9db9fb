"""Compare two sets of benchmark runs: better, worse, unchanged, unresolved.

Collect alternating pairs (parent first on even pairs, change first on
odd ones), one seed per pair::

    python3 perfbench/compare.py collect --old PARENT_CHECKOUT \\
        --new CHANGE_CHECKOUT --workload serve-read --pairs 10 --out RUNS

That writes ``RUNS/old/<workload>-<seed>.out`` and ``RUNS/new/...``: the
standard output of ``perfbench/run.py`` in each checkout.  Then::

    python3 perfbench/compare.py report RUNS/old RUNS/new

For every (workload, metric) present on both sides the report prints one
verdict, following the paired-run rule:

* ``better`` -- at least 10 pairs, the change wins at least 9 in 10 of
  them (ties count for neither side), and the medians differ by more
  than the parent's own spread (the distance between its quartiles);
* ``worse`` -- an end-to-end metric whose median is worse than the
  parent's by more than its bound in ``BENCHMARK.json``, or any metric
  that loses by the paired rule above;
* ``unresolved`` -- fewer than 10 pairs, or an end-to-end metric whose
  parent spread (quartile distance over median) is wider than its bound,
  unless every run of the change reads better than every parent run;
* ``unchanged`` -- none of the above.

Failures come first.  A run that printed no result or reported
``correct: false`` is a failed run; its pair takes no part in the metric
verdicts.  When the change has more failed runs, or more failed
operations, than the parent on the same seeds, the whole workload reads
``worse`` and no metric verdict is given: a gain does not count while
more operations fail.

Per-kind numbers from the runs' detail lines (``detail.range.p50_ms``
and the like) are compared by the paired rule alone; they have no bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(directory: Path) -> dict:
    """``{(workload, seed): run}`` from run output files.

    A run is ``{"ok": bool, "failed": int, "values": {metric: value}}``;
    ``ok`` is false when the file holds no result or the result is not
    correct, and then ``values`` is empty.
    """
    runs = {}
    for path in sorted(Path(directory).glob("*.out")):
        workload, _, seed = path.stem.rpartition("-")
        lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
        run = {"ok": False, "failed": 0, "values": {}}
        runs[(workload, seed)] = run
        try:
            result = json.loads(lines[-1])
            run["failed"] = int(result["failed"])
        except (IndexError, ValueError, KeyError, TypeError):
            continue
        if not result.get("correct"):
            continue
        run["ok"] = True
        values = run["values"]
        values.update((k, v["value"]) for k, v in result["metrics"].items())
        if len(lines) > 1 and lines[-2].startswith('{"detail"'):
            flatten(json.loads(lines[-2])["detail"], "detail", values)
    return runs


#: Detail fields worth a verdict (timings, rates, input properties).
DETAIL_SUFFIXES = ("_ms", "_s", "max_rps", "_per_request", "_per_query")


def flatten(obj, prefix: str, out: dict) -> None:
    for key, value in obj.items():
        name = f"{prefix}.{key}"
        if isinstance(value, dict):
            flatten(value, name, out)
        elif isinstance(value, (int, float)) and name.endswith(DETAIL_SUFFIXES):
            out[name] = float(value)


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(old, new, *, higher: bool, bound: float | None) -> tuple[str, str]:
    n = len(old)
    sign = 1.0 if higher else -1.0
    wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
    losses = sum(sign * (b - a) < 0 for a, b in zip(old, new))
    m_old, m_new = statistics.median(old), statistics.median(new)
    note = f"n={n} wins={wins} losses={losses} median {m_old:.6g} -> {m_new:.6g}"
    if n < MIN_PAIRS:
        return "unresolved", note + f" (fewer than {MIN_PAIRS} pairs)"
    q1, _, q3 = quartiles(old)
    iqr = q3 - q1
    moved = abs(m_new - m_old) > iqr
    if wins >= WIN_SHARE * n and moved:
        return "better", note
    worse_by = sign * (m_old - m_new) / abs(m_old) if m_old else 0.0
    if bound is not None and worse_by > bound:
        return "worse", note + f" (worse by {worse_by:.1%} > bound {bound:.0%})"
    if losses >= WIN_SHARE * n and moved:
        return "worse", note
    if bound is not None and m_old and iqr / abs(m_old) > bound:
        every = min(new) > max(old) if higher else max(new) < min(old)
        if every:
            return "better", note + " (every run better)"
        return "unresolved", note + (
            f" (parent spread {iqr / abs(m_old):.1%} > bound {bound:.0%})"
        )
    return "unchanged", note


def failures(runs: list[dict]) -> tuple[int, int]:
    """(failed runs, failed operations) of one side's runs."""
    return sum(not r["ok"] for r in runs), sum(r["failed"] for r in runs)


def report(old_dir: Path, new_dir: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    old, new = load_runs(old_dir), load_runs(new_dir)
    both = sorted(set(old) & set(new))
    for workload in sorted({w for w, _ in both}):
        keys = [k for k in both if k[0] == workload]
        f_old = failures([old[k] for k in keys])
        f_new = failures([new[k] for k in keys])
        print(f"== {workload} ({len(keys)} pairs)")
        print(f"  failed runs {f_old[0]} -> {f_new[0]}, "
              f"failed operations {f_old[1]} -> {f_new[1]}")
        if f_new[0] > f_old[0] or f_new[1] > f_old[1]:
            print(f"  {'(workload)':40s} {'worse':10s} the change fails "
                  "more; no metric verdict counts")
            continue
        keys = [k for k in keys if old[k]["ok"] and new[k]["ok"]]
        if not keys:
            continue
        names = sorted(set.intersection(
            *(set(old[k]["values"]) & set(new[k]["values"]) for k in keys)
        ))
        for name in names:
            m = metrics.get(name, {})
            higher = m.get("better") == "higher" or name.endswith("max_rps")
            v, note = verdict(
                [old[k]["values"][name] for k in keys],
                [new[k]["values"][name] for k in keys],
                higher=higher, bound=m.get("bound"),
            )
            print(f"  {name:40s} {v:10s} {note}")
    return 0


def collect(args) -> int:
    """Run alternating pairs of the two checkouts' benchmarks."""
    out = Path(args.out)
    for side in ("old", "new"):
        (out / side).mkdir(parents=True, exist_ok=True)
    # Run length is the benchmark's own, the same on both sides.
    spec = json.loads((Path(args.old) / "BENCHMARK.json").read_text())
    seconds = str(spec["run_seconds"])
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("old", "new") if i % 2 == 0 else ("new", "old")
        for side in order:
            checkout = Path(getattr(args, side))
            cmd = [sys.executable, "perfbench/run.py", "--workload",
                   args.workload, "--seed", str(seed), "--seconds", seconds,
                   "--trace", "0"]
            target = out / side / f"{args.workload}-{seed}.out"
            with open(target, "w") as fh:
                proc = subprocess.run(cmd, cwd=checkout, stdout=fh,
                                      timeout=900)
            print(f"pair {i} {side} seed {seed}: exit {proc.returncode}",
                  flush=True)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    rp = sub.add_parser("report", help="verdicts for two sets of runs")
    rp.add_argument("old")
    rp.add_argument("new")
    cp = sub.add_parser("collect", help="run alternating pairs")
    cp.add_argument("--old", required=True, help="parent checkout")
    cp.add_argument("--new", required=True, help="change checkout")
    cp.add_argument("--workload", required=True)
    cp.add_argument("--pairs", type=int, default=MIN_PAIRS)
    cp.add_argument("--first-seed", type=int, default=1000)
    cp.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    if args.cmd == "report":
        return report(Path(args.old), Path(args.new))
    return collect(args)


if __name__ == "__main__":
    sys.exit(main())
