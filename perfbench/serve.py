"""The serving workloads: ``serve-read`` and ``serve-write``.

Both put the program in a process of its own (:mod:`server_proc`, the
HTTP server at its default options) and drive it from this process with
the open-loop generator of :mod:`loadgen`, on evenly paced arrivals.

* ``serve-read``: a persisted grid index (``build_index``) over the Sift
  surrogate base (n = 20000, d = 128, eps at selectivity 64).  75% range,
  25% kNN (k = 10), 8 query rows per request; rows are held-out points
  drawn Zipf-skewed over a pool, so popular queries repeat and the
  engine's candidate LRU is used.
* ``serve-write``: a mutable store (``MutableIndex.create``) over the same
  base, pre-sealed to a fixed delta depth with a small seal threshold.
  Reads (range and kNN, uniform popularity) mix with ``/append`` of fresh
  rows and ``/delete`` of base ids, over one connection (see ``WRITE``).
  At the end the final store is checked against brute force over its
  live rows.

After its fixed-rate window each workload searches its capacity,
``max_rps``: the highest offered rate of the same mix whose tail stays
under ``TAIL_LIMIT_MS`` with no failure and no growing backlog.  The
rate doubles from the window's until a step fails, then the bracket is
bisected to ``RPS_RESOLUTION`` of its lower end.  The generator keeps at
most one request in flight per connection, so this is the capacity at
the workload's concurrency: ``os.cpu_count()`` requests at a time on
``serve-read``, one on ``serve-write``.

Every read answer of ``serve-read`` (warm-up, window and capacity steps)
is checked against brute force; a wrong answer, like a refused or
dropped request, counts as a failed operation and as a miss of every
latency limit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import check
import common
import data as data_mod
import loadgen
from common import median

pc = time.perf_counter

SERVER = common.ROOT / "perfbench" / "server_proc.py"

K = 10  # kNN neighbours per query
BATCH = 8  # query rows (or written rows / ids) per request
KIND_BLOCK = 20  # every block of this many requests holds the exact mix
SETUP_REPS = 5
TAIL_LIMIT_MS = 250.0  # max_rps: the tail must stay under this
RPS_RESOLUTION = 0.05  # max_rps bisection stops at this share of its rate
# The capacity search stops doubling here (times the fixed rate); a run
# that passes even this rate does not count, as its max_rps is a floor.
RPS_CEILING = 32
# A run whose generator sends later than this (p95) does not count: its
# latencies would measure the generator.  Seen: under 12 ms.
LATENESS_LIMIT_MS = 25.0


@dataclass(frozen=True)
class Config:
    name: str
    zipf_s: float  # 0 = uniform popularity over the pool
    rate: float  # fixed offered rate of the timed window (requests/s)
    mix: tuple  # (kind, share) pairs
    seal_threshold: int = 0  # serve-write: rows per sealed segment
    sealed_depth: int = 0  # serve-write: segments sealed before serving
    connections: int = 0  # generator connections; 0 = os.cpu_count()
    p50_kind: str = "range"  # request kind whose median is p50_ms


# The fixed rates sit well below the seed's max_rps (about 35 rps on
# serve-read, 15 on serve-write's one connection, on 2 cores), so the
# window measures service time, not queueing.
#
# serve-write sends one request at a time.  With two in flight the
# program loses acknowledged appends: the server's store cache compares
# the on-disk manifest digest with the store's committed digest, which a
# commit updates only after its os.replace and directory fsync, so a
# request arriving inside that window reloads the store from disk and
# drops the live store with its unsealed rows (IndexCache._get_mutable,
# MutableIndex._commit_manifest_locked).  Until that is fixed, a
# concurrent write workload fails its final-store check in a few runs in
# a hundred.
READ = Config(
    "serve-read", zipf_s=0.7, rate=10.0,
    mix=(("range", 0.75), ("knn", 0.25)),
)
WRITE = Config(
    "serve-write", zipf_s=0.0, rate=8.0,
    mix=(("range", 0.6), ("knn", 0.2), ("append", 0.1), ("delete", 0.1)),
    seal_threshold=64, sealed_depth=4, connections=1, p50_kind="knn",
)


class Server:
    """One server process; commands go over its stdin, one per line."""

    def __init__(self, index, report, *, trace: bool) -> None:
        self.report_path = report
        cmd = [sys.executable, str(SERVER), "--index", str(index),
               "--out", str(report)]
        if trace:
            cmd.append("--trace")
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=common.child_env(), cwd=str(common.ROOT),
        )
        line = self.proc.stdout.readline()
        if not line:
            self.kill()
            raise RuntimeError("server process exited before listening")
        self.port = int(json.loads(line)["port"])
        self.pid = self.proc.pid

    def command(self, cmd: str) -> str:
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()
        return self.proc.stdout.readline().strip()

    def stop(self) -> dict:
        self.proc.stdin.write("stop\n")
        self.proc.stdin.close()
        if self.proc.wait(timeout=60) != 0:
            raise RuntimeError(f"server exited with {self.proc.returncode}")
        with open(self.report_path) as fh:
            return json.load(fh)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class Workload:
    """Inputs, schedule, server lifecycle and checks of one serving run."""

    def __init__(self, cfg: Config, seed: int, seconds: float) -> None:
        self.cfg = cfg
        self.seed = seed
        self.seconds = float(seconds)
        self.rng = np.random.default_rng([seed, 1])
        self.inp = data_mod.serving_inputs()
        self.work = common.WORK / f"{cfg.name}-{seed}-{time.time_ns()}"
        self.work.mkdir(parents=True)
        self.servers: list[Server] = []
        self.weights = (
            data_mod.zipf_weights(self.rng, data_mod.N_POOL, cfg.zipf_s)
            if cfg.zipf_s > 0
            else np.full(data_mod.N_POOL, 1.0 / data_mod.N_POOL)
        )
        self.fresh_next = 0
        self.delete_order = self.rng.permutation(data_mod.N_BASE)
        self.delete_next = 0
        # Expected state of a mutable store: id -> row, built in id order.
        self.appended: dict[int, np.ndarray] = {}
        self.deleted: set[int] = set()
        self._range_ref = None
        self._knn_ref = None

    # -- inputs ----------------------------------------------------------

    def _fresh(self, n: int) -> np.ndarray:
        """The next ``n`` fresh rows; a long run appends them again."""
        idx = np.arange(self.fresh_next, self.fresh_next + n)
        self.fresh_next += n
        return self.inp.fresh.take(idx, axis=0, mode="wrap")

    def make_ops(self, rate: float, seconds: float) -> list[loadgen.Op]:
        dues = loadgen.paced_schedule(self.rng, rate, seconds)
        # Exact shares in every block of KIND_BLOCK requests, shuffled
        # within the block: how many deletes and appends came before a
        # read sets its tombstone padding and delta depth, so that count
        # must not drift with the seed.
        block = [kind for kind, share in self.cfg.mix
                 for _ in range(round(share * KIND_BLOCK))]
        assert len(block) == KIND_BLOCK, self.cfg.mix
        kinds = []
        while len(kinds) < len(dues):
            kinds += self.rng.permutation(block).tolist()
        ops = []
        for due, kind in zip(dues, kinds):
            if kind in ("range", "knn"):
                rows = self.rng.choice(data_mod.N_POOL, size=BATCH,
                                       p=self.weights)
                body = {"queries": self.inp.pool[rows].tolist()}
                if kind == "knn":
                    body["k"] = K
                meta = rows
            elif kind == "append":
                meta = self._fresh(BATCH)
                body = {"rows": meta.tolist()}
            else:
                meta = self.delete_order[
                    self.delete_next : self.delete_next + BATCH
                ]
                self.delete_next += BATCH
                body = {"ids": meta.tolist()}
            ops.append(loadgen.Op(float(due), kind,
                                  json.dumps(body).encode(), meta))
        return ops

    # -- lifecycle -------------------------------------------------------

    def build(self, path) -> None:
        """Build and persist the index or store the server will load."""
        from repro import build_index

        if self.cfg.seal_threshold == 0:
            build_index(self.inp.base, self.inp.eps, path)
            return
        from repro.index.delta import MutableIndex

        store = MutableIndex.create(
            path, self.inp.base, self.inp.eps,
            seal_threshold=self.cfg.seal_threshold,
        )
        for _ in range(self.cfg.sealed_depth):
            rows = self._fresh(self.cfg.seal_threshold)
            for gid, row in zip(store.append(rows).tolist(), rows):
                self.appended[gid] = row
        if store.n_segments != self.cfg.sealed_depth:
            raise common.SetupError("store did not seal to the set depth")

    def start(self, name: str, *, trace: bool) -> tuple[Server, float]:
        """Build, persist, serve, answer one query; returns set-up time."""
        t0 = pc()
        index = self.work / name
        self.build(index)
        server = Server(index, self.work / f"{name}.report.json", trace=trace)
        self.servers.append(server)
        first = [loadgen.Op(0.0, "range", json.dumps(
            {"queries": self.inp.pool[:1].tolist()}
        ).encode())]
        if loadgen.run("127.0.0.1", server.port, first)[0].status != 200:
            raise RuntimeError("first query failed")
        return server, pc() - t0

    def setup(self, *, trace: bool = False) -> tuple[Server, list[float]]:
        """Set up ``SETUP_REPS`` times; keep the last server running."""
        times = []
        for rep in range(SETUP_REPS):
            if rep:
                self.servers[-1].stop()
                # A fresh store each time: the same mutations replay.
                self.appended.clear()
                self.fresh_next = 0
            server, dt = self.start(f"index{rep}", trace=trace)
            times.append(dt)
        return server, times

    def close(self) -> None:
        for server in self.servers:
            server.kill()
        shutil.rmtree(self.work, ignore_errors=True)

    # -- correctness -----------------------------------------------------

    def _refs(self):
        if self._range_ref is None:
            self._range_ref = check.range_reference(
                self.inp.base, self.inp.pool, self.inp.eps
            )
            self._knn_ref = check.knn_reference(self.inp.base, self.inp.pool, K)
        return self._range_ref, self._knn_ref

    def verify(self, ops, outcomes, *, answers: bool) -> dict:
        """Check statuses (and read answers); track acknowledged writes.

        With ``answers`` it also gathers what the served queries asked
        for: range pairs per query row, and each kNN row's k-th distance.
        """
        failed = 0
        pairs, kth = [], []
        if answers:
            range_ref, knn_ref = self._refs()
        for op, out in zip(ops, outcomes):
            if out.status != 200:
                failed += 1
                log_failure(op, out)
                continue
            if op.kind == "append":
                ids = json.loads(out.body)["ids"]
                for gid, row in zip(ids, op.meta):
                    self.appended[gid] = row
            elif op.kind == "delete":
                self.deleted.update(int(i) for i in op.meta)
            elif answers and op.kind == "range":
                ok, n = check.range_answer_ok(
                    out.body, [range_ref[i] for i in op.meta]
                )
                if not ok:
                    log_failure(op, out)
                failed += not ok
                pairs.append(n / len(op.meta))
            elif answers:
                refs = [knn_ref[i] for i in op.meta]
                ok = check.knn_answer_ok(out.body, refs)
                if not ok:
                    log_failure(op, out)
                failed += not ok
                kth += [float(np.sqrt(d[-1])) for _, d in refs]
        return {"attempted": len(ops), "failed": failed, "pairs": pairs,
                "kth": kth}

    def verify_store(self, server: Server) -> dict:
        """Compare the final mutable store with brute force over live rows."""
        live = [i for i in range(data_mod.N_BASE) if i not in self.deleted]
        ids = np.array(live + sorted(self.appended), dtype=np.int64)
        rows = np.concatenate([
            self.inp.base[live],
            np.array([self.appended[i] for i in sorted(self.appended)]),
        ])
        queries = self.inp.pool[:64]
        range_ref = check.range_reference(rows, queries, self.inp.eps, ids)
        knn_ref = check.knn_reference(rows, queries, K, ids)
        ops = []
        for r0 in range(0, queries.shape[0], BATCH):
            q = {"queries": queries[r0 : r0 + BATCH].tolist()}
            ops.append(loadgen.Op(0.0, "range", json.dumps(q).encode(),
                                  range_ref[r0 : r0 + BATCH]))
            ops.append(loadgen.Op(0.0, "knn", json.dumps({**q, "k": K})
                                  .encode(), knn_ref[r0 : r0 + BATCH]))
        failed = 0
        for op in ops:
            out = loadgen.run("127.0.0.1", server.port, [op])[0]
            if out.status != 200:
                ok = False
            elif op.kind == "range":
                ok = check.range_answer_ok(out.body, op.meta)[0]
            else:
                ok = check.knn_answer_ok(out.body, op.meta)
            if not ok:
                log_failure(op, out, " in the final store")
            failed += not ok
        return {"attempted": len(ops), "failed": failed}

    # -- phases ----------------------------------------------------------

    def window(self, server: Server, rate: float, seconds: float):
        ops = self.make_ops(rate, seconds)
        cpu0 = common.cpu_seconds(server.pid)
        outcomes = loadgen.run("127.0.0.1", server.port, ops,
                               connections=self.cfg.connections)
        cpu = common.cpu_seconds(server.pid) - cpu0
        return ops, outcomes, cpu

    def step_ok(self, ops, outcomes) -> bool:
        """No failure, read tail under the limit, no growing backlog."""
        lat = [o.latency_s * 1e3 if o.status == 200 else np.inf
               for o in outcomes]
        n = len(lat)
        p = common.tail_percentile(n) or 0.75
        last = lat[2 * n // 3 :]
        return (
            common.quantile(lat, p) <= TAIL_LIMIT_MS
            and median(last) <= TAIL_LIMIT_MS
        )

    def max_rps(self, server, rate: float, step_s: float, tally):
        """Highest passing offered rate, searched upwards from ``rate``.

        ``rate`` is the fixed-rate window's.  The first bisection point
        falls at a seeded share (0.35 to 0.65) of the bracket, so the rates
        tried differ from run to run and max_rps is not rounded to one
        fixed grid.  Every step is checked and counted in ``tally``.
        Returns ``(max_rps, steps, at_ceiling)``.
        """
        steps = []

        def step(r: float) -> bool:
            ops, outs, _ = self.window(server, r, step_s)
            res = self.verify(ops, outs, answers=not self.cfg.seal_threshold)
            tally["attempted"] += res["attempted"]
            tally["failed"] += res["failed"]
            ok = res["failed"] == 0 and self.step_ok(ops, outs)
            steps.append({"rate": r, "ok": ok, "n": len(ops)})
            return ok

        lo, hi = rate, None
        while hi is None:
            if lo >= RPS_CEILING * rate:
                return lo, steps, True
            if step(2 * lo):
                lo *= 2
            else:
                hi = 2 * lo
        split = 0.35 + 0.3 * self.rng.random()
        while hi - lo > RPS_RESOLUTION * lo:
            mid = lo + split * (hi - lo)
            split = 0.5
            if step(mid):
                lo = mid
            else:
                hi = mid
        return lo, steps, False


def log_failure(op, out, where: str = "") -> None:
    what = "wrong answer" if out.status == 200 else f"status {out.status}"
    common.log(f"failed {op.kind}{where}: {what} "
               f"{out.body[:200].decode(errors='replace')!r}")


def latency_stats(ops, outcomes, kinds) -> dict:
    """p50 and tail (ms) of the ops of ``kinds``; failures count as misses."""
    lat = [
        o.latency_s * 1e3 if o.status == 200 else np.inf
        for op, o in zip(ops, outcomes) if op.kind in kinds
    ]
    if not lat:
        return {}
    p = common.tail_percentile(len(lat))
    return {
        "p50_ms": median(lat),
        "tail_ms": common.quantile(lat, p) if p else max(lat),
        "tail_pct": p,
        "n": len(lat),
    }


def run(cfg: Config, seed: int, seconds: float, trace: bool) -> dict:
    wl = Workload(cfg, seed, seconds)
    try:
        return _run(wl, trace)
    finally:
        wl.close()


def _run(wl: Workload, trace: bool) -> dict:
    cfg = wl.cfg
    server, setups = wl.setup()
    common.log(f"set up in {median(setups):.2f} s (median of {len(setups)})")
    tally = {"attempted": 0, "failed": 0}
    ops, outcomes, cpu, served = phase(wl, server, tally)
    common.log(f"window: {len(ops)} requests at {cfg.rate} rps")
    reads = not cfg.seal_threshold
    allk = latency_stats(ops, outcomes, ("range", "knn", "append", "delete"))
    detail = {
        "range": latency_stats(ops, outcomes, ("range",)),
        "knn": latency_stats(ops, outcomes, ("knn",)),
        "write": latency_stats(ops, outcomes, ("append", "delete")),
        "setup_s_reps": setups,
        "eps": wl.inp.eps,
        "lateness_ms_p95": lateness_p95(outcomes),
        "server_cpu_s_per_request": cpu / len(ops),
    }
    if reads:
        detail["pairs_per_query"] = float(np.mean(served["pairs"]))
        detail["knn_kth_dist_eps"] = float(
            np.median(served["kth"]) / wl.inp.eps
        )
    max_rps, steps, at_ceiling = wl.max_rps(
        server, cfg.rate, wl.seconds / 8, tally
    )
    common.log(f"max_rps {max_rps:.1f} after {len(steps)} steps")
    detail["max_rps_steps"] = steps
    detail["max_rps"] = max_rps
    layers = None
    if trace:
        # The untraced server's window above is the overhead baseline.
        wl.servers.remove(server)
        server.stop()
        wl.appended.clear()
        wl.deleted.clear()
        wl.fresh_next = 0
        server, _ = wl.start("traced", trace=True)
        setup_dump = json.loads(server.command("reset"))
        t_ops, t_outs, t_cpu, _ = phase(wl, server, tally, reset=True)
        window_dump = json.loads(server.command("reset"))
        layers = serving_layers(
            setup_dump, window_dump, t_ops, t_outs, t_cpu,
            untraced_range_p50=detail["range"]["p50_ms"],
        )
    if cfg.seal_threshold:
        res = wl.verify_store(server)
        tally["attempted"] += res["attempted"]
        tally["failed"] += res["failed"]
    wl.servers.remove(server)
    final = server.stop()
    detail["tail_pct"] = allk["tail_pct"]
    detail["requests"] = allk["n"]
    problems = []
    if reads:
        pairs = detail["pairs_per_query"]
        if not 0.5 * data_mod.SELECTIVITY <= pairs <= 2 * data_mod.SELECTIVITY:
            problems.append(f"pairs per query {pairs:.1f} is far from "
                            f"the target {data_mod.SELECTIVITY}")
    if at_ceiling:
        problems.append(f"max_rps passed {RPS_CEILING}x the fixed rate, "
                        "the search's ceiling")
    if detail["lateness_ms_p95"] > LATENESS_LIMIT_MS:
        problems.append(f"generator ran {detail['lateness_ms_p95']:.1f} ms "
                        "late (p95)")
    return {
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "problems": problems,
        "metrics": {
            "setup_s": median(setups),
            # The median of one read kind: the median of the whole mix
            # sits on the range requests' upper shoulder (their 67th
            # percentile on serve-read), which swings with CPU contention.
            # serve-write takes kNN: on 2 cores of a shared host, its
            # range median (about 21 ms) gained a fixed 8-10 ms in slow
            # spells and spread 0.20-0.27 over ten seeds; its kNN median
            # (about 65 ms) spread 0.08.
            "p50_ms": detail[cfg.p50_kind]["p50_ms"],
            "tail_ms": allk["tail_ms"],
            "throughput_per_s": max_rps,
            "peak_rss_mb": final["peak_rss_mb"],
        },
        "detail": detail,
        "layers": layers,
    }


def phase(wl: Workload, server: Server, tally: dict, *, reset=False):
    """Warm up at the fixed rate, then the timed window; all checked.

    The warm-up draws from the same popularity as the window, so the
    engine's candidate cache starts the window in the state the traffic
    itself keeps it in.  Returns the window's ops, outcomes and server CPU
    seconds, and what the served read queries asked for (see ``verify``).
    """
    checked = []
    served = {"pairs": [], "kth": []}
    for seconds in (wl.seconds / 8, wl.seconds):
        if reset and seconds == wl.seconds:
            server.command("reset")
        ops, outcomes, cpu = wl.window(server, wl.cfg.rate, seconds)
        checked.append((ops, outcomes))
    for batch, outs in checked:
        res = wl.verify(batch, outs, answers=not wl.cfg.seal_threshold)
        tally["attempted"] += res["attempted"]
        tally["failed"] += res["failed"]
        served["pairs"] += res["pairs"]
        served["kth"] += res["kth"]
    return ops, outcomes, cpu, served


def lateness_p95(outcomes) -> float:
    return common.quantile([o.lateness_s * 1e3 for o in outcomes], 0.95)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def serving_layers(setup_dump, dump, ops, outcomes, cpu, *,
                   untraced_range_p50) -> dict:
    """Per-layer metrics of a traced window (see BENCHMARK.json)."""
    s, c = dump["sums"], dump["counts"]
    g = lambda name: s.get(name, 0.0)  # noqa: E731
    n = lambda name: c.get(name, 0)  # noqa: E731
    by_rid = {r["rid"]: r for r in dump["requests"]}
    http_self, qwait = [], []
    e2e = unattributed = 0.0
    for op, out in zip(ops, outcomes):
        r = by_rid.get(op.rid)
        if out.status != 200 or r is None or "start" not in r:
            continue
        svc = r["done"] - r["submit"]
        http_self.append((out.latency_s - svc) * 1e3)
        qwait.append((r["start"] - r["submit"]) * 1e3)
        e2e += out.latency_s
        unattributed += r["done"] - r["end"]
    qe_calls = n("engine.range_ms") + n("engine.knn_ms")
    qe_ms = g("engine.range_ms") + g("engine.knn_ms")
    probe = g("grid.probe_ms@range") + g("grid.probe_ms@knn")
    inner = probe + g("engine.dist_ms") + g("source.take_ms")
    traced_range = latency_stats(ops, outcomes, ("range",))
    return {
        "http.self_ms": median(http_self) if http_self else 0.0,
        "http.non200": float(sum(o.status != 200 for o in outcomes)),
        "service.queue_wait_ms": median(qwait) if qwait else 0.0,
        "service.batch_requests": _ratio(
            g("service.batch_requests"), n("service.batch_calls")
        ),
        "service.rejected": float(sum(o.status == 429 for o in outcomes)),
        "service.expired": float(sum(o.status == 504 for o in outcomes)),
        "engine.range_ms": _ratio(g("engine.range_ms"), n("engine.range_ms")),
        "engine.knn_ms": _ratio(g("engine.knn_ms"), n("engine.knn_ms")),
        "engine.rows": _ratio(g("engine.rows"), n("engine.rows")),
        "engine.lru_hit_ratio": (
            1.0 - _ratio(g("engine.takes"), g("engine.lookups"))
            if g("engine.lookups") else 0.0
        ),
        "engine.dist_ms": _ratio(g("engine.dist_ms"), qe_calls),
        "engine.unattributed_frac": _ratio(qe_ms - inner, qe_ms),
        "grid.probe_ms": _ratio(probe, qe_calls),
        "grid.knn_rounds": _ratio(n("grid.rounds@knn"), n("engine.knn_ms")),
        "grid.candidates_per_query": _ratio(
            g("grid.cand_dists@range"), g("engine.rows@range")
        ),
        "grid.knn_candidates_per_query": _ratio(
            g("grid.cand_dists@knn"), g("engine.rows@knn")
        ),
        "grid.useful_ratio": _ratio(
            g("grid.pairs@range"), g("grid.cand_dists@range")
        ),
        "source.take_rows": _ratio(g("source.take_rows"), qe_calls),
        "source.take_ms": _ratio(g("source.take_ms"), qe_calls),
        "delta.depth": _ratio(g("delta.depth"), n("delta.depth")),
        "delta.read_ms": _ratio(g("delta.read_ms"), n("delta.read_ms")),
        "delta.append_ms": _ratio(g("delta.append_ms"), n("delta.append_ms")),
        "delta.delete_ms": _ratio(g("delta.delete_ms"), n("delta.delete_ms")),
        "delta.seal_ms": _ratio(g("delta.seal_ms"), n("delta.seal_ms")),
        "delta.seals": g("delta.seals"),
        "persist.save_ms": _ratio(g("persist.save_ms"), n("persist.save_ms")),
        "persist.fsyncs": g("persist.fsyncs"),
        "persist.bytes_written": g("persist.bytes_written"),
        "persist.load_ms": setup_dump["sums"].get("persist.load_ms", 0.0),
        "server.cpu_s": cpu / len(ops),
        "gen.lateness_ms": lateness_p95(outcomes),
        "unattributed_frac": _ratio(unattributed, e2e),
        "trace.overhead_frac": (
            traced_range["p50_ms"] / untraced_range_p50 - 1.0
        ),
    }
