"""Benchmark of the FaSTED reproduction: one run of one workload.

Usage::

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 15 --trace 0

Workloads (why each is there is recorded in ``BENCHMARK.json``):

* ``serve-read``  -- HTTP range + kNN reads over a persisted grid index
  (:mod:`serve`);
* ``serve-write`` -- reads mixed with appends and deletes over a mutable
  store (:mod:`serve`);
* ``selfjoin``    -- FaSTED and GDS-Join self-joins, no serving layers
  (:mod:`selfjoin`).

Inputs come from ``--seed`` alone; the window lasts ``--seconds``.  Every
answer is checked (brute force, or the seed reference joins), and the
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the ``end_to_end`` metrics of
``BENCHMARK.json``.  With ``--trace 1`` the layer timers of
:mod:`layers` are installed for a second, traced window; the metrics are
the ``per_layer`` ones (a layer the workload does not use reports 0),
and they are also written to ``perfbench/out/trace-<workload>.json``.
The line before the result carries the run's details (per-kind
latencies, the capacity-search steps, input properties) as
``{"detail": ...}``.

The program is imported from ``src/`` of this checkout; without it the
run stops with exit code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback

import common

WORKLOADS = ("serve-read", "serve-write", "selfjoin")


def load_spec() -> dict:
    with open(common.ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if name == "selfjoin":
        import selfjoin

        return selfjoin.run(seed, seconds, trace)
    import serve

    cfg = serve.READ if name == "serve-read" else serve.WRITE
    return serve.run(cfg, seed, seconds, trace)


def per_kind(out: dict) -> dict:
    """The end-to-end numbers split by operation kind (per-layer list)."""
    d = out["detail"]
    vals = {
        "failed_frac": out["failed"] / max(out["attempted"], 1),
        "max_rps": d.get("max_rps") or 0.0,
        "fasted_join_s": d.get("fasted_join_s", 0.0),
        "gds_join_s": d.get("gds_join_s", 0.0),
        "pairs_per_query": d.get("pairs_per_query",
                                 d.get("pairs_per_point", 0.0)),
        "knn_kth_dist_eps": d.get("knn_kth_dist_eps", 0.0),
    }
    for kind in ("range", "knn", "write"):
        stats = d.get(kind) or {}
        vals[f"{kind}_p50_ms"] = stats.get("p50_ms", 0.0)
        vals[f"{kind}_tail_ms"] = stats.get("tail_ms", 0.0)
    return vals


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        common.bootstrap_env()
        common.import_program()
        spec = load_spec()
    except (common.SetupError, OSError) as exc:
        common.log(f"cannot run: {exc}")
        return 2
    trace = bool(args.trace)
    common.log(f"{args.workload} seed={args.seed} seconds={args.seconds} "
               f"trace={int(trace)}")
    try:
        out = run_workload(args.workload, args.seed, args.seconds, trace)
    except Exception:  # noqa: BLE001 -- a crashed run prints no result
        traceback.print_exc()
        return 1
    for problem in out["problems"]:
        common.log(f"run does not count: {problem}")

    if trace:
        values = {**per_kind(out), **(out["layers"] or {})}
        names = spec["per_layer"]
    else:
        values = out["metrics"]
        names = spec["end_to_end"]
    metrics = {}
    for m in names:
        value = float(values.get(m["name"], 0.0))
        if not math.isfinite(value):
            common.log(f"{m['name']} is not finite")
            out["problems"].append(f"{m['name']} is not finite")
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if trace:
        common.OUT.mkdir(exist_ok=True)
        path = common.OUT / f"trace-{args.workload}.json"
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "metrics": metrics,
                       "detail": out["detail"]}, fh, indent=1, sort_keys=True)
    common.emit({"detail": out["detail"]})
    common.emit({
        "correct": out["failed"] == 0 and not out["problems"],
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
