"""Per-layer timers for traced runs, installed from outside the program.

Traced runs wrap the public functions of each layer -- the HTTP service's
``QueryService.submit*``, ``QueryEngine``/``MutableIndex`` queries and
mutations, ``GridIndex`` probes, ``DatasetSource.take``, the persistence
calls and the join kernels' stages -- and time them from here.  Nothing
is added to the program; untraced runs never import this module's
``install_*`` functions, so they measure the program as shipped.

A :class:`Recorder` keeps sums and counts in memory; :meth:`Recorder.dump`
hands them to the harness when the run ends.  Counters that belong to a
query kind are keyed ``<name>@range`` / ``<name>@knn``.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from pathlib import Path

pc = time.perf_counter


class Recorder:
    """Thread-safe sums and counts, plus per-request service timestamps."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.tl = threading.local()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.sums: dict[str, float] = {}
            self.counts: dict[str, int] = {}
            self.requests: list[dict] = []

    def add(self, name: str, value: float, n: int = 1) -> None:
        with self.lock:
            self.sums[name] = self.sums.get(name, 0.0) + value
            self.counts[name] = self.counts.get(name, 0) + n

    def dump(self) -> dict:
        with self.lock:
            return {
                "sums": dict(self.sums),
                "counts": dict(self.counts),
                "requests": list(self.requests),
            }

    # -- thread-local call context ------------------------------------

    def ctx(self):
        tl = self.tl
        if not hasattr(tl, "stack"):
            tl.stack = []  # open QueryEngine calls: (kind, source-backed)
            tl.depth = 0  # open engine calls of any class
            tl.outer = None  # last outermost engine call on this thread
            tl.take_depth = 0
            tl.join = None  # selfjoin kernel being traced
            tl.prep = 0  # inside a timed join stage (no double count)
        return tl


def _thread_wchar() -> int:
    """Bytes this thread has passed to write-like system calls."""
    with open("/proc/thread-self/io") as fh:
        for line in fh:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    return 0


def _dir_bytes(path) -> int:
    """Bytes of every regular file under ``path``."""
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def _bind(owner, name: str, make):
    """Replace ``owner.name`` with ``make(original)``."""
    orig = getattr(owner, name)
    wrapped = make(orig)
    functools.update_wrapper(wrapped, orig)
    setattr(owner, name, wrapped)


def _timed_groups(gen, on_group, on_time):
    """Re-yield a group generator, timing each step it takes."""
    try:
        while True:
            t0 = pc()
            try:
                item = next(gen)
            except StopIteration:
                on_time(pc() - t0)
                return
            on_time(pc() - t0)
            on_group(item)
            yield item
    finally:
        gen.close()


# ----------------------------------------------------------------------
# serving layers (installed in the server process)
# ----------------------------------------------------------------------


def _install_engine_call(rec: Recorder, cls, name: str, metric):
    """Time a query/mutation method; track the outermost call per thread."""

    def make(orig):
        def wrapper(self, queries, *args, **kwargs):
            tl = rec.ctx()
            outer = tl.depth == 0
            t0 = pc()
            if outer:
                tl.outer = {"t0": t0, "t1": None, "n": 0}
            tl.depth += 1
            try:
                return metric(rec, tl, self, queries, orig, args, kwargs)
            finally:
                tl.depth -= 1
                if outer:
                    tl.outer["t1"] = pc()

        return wrapper

    _bind(cls, name, make)


def install_serving(rec: Recorder) -> None:
    """Wrap the serving stack's public functions (server process only)."""
    import repro.core.engine as core_engine
    import repro.index.delta as delta_mod
    import repro.index.persist as persist_mod
    import repro.service.query as query_mod
    from repro import trace as trace_mod
    from repro.data.source import ArraySource, DatasetSource
    from repro.index.delta import MutableIndex
    from repro.index.grid import GridIndex
    from repro.service.query import QueryEngine
    from repro.service.server import QueryService

    # -- service.server QueryService: submit -> engine start -> done ----
    def finish(r: dict) -> None:
        r["done"] = pc()
        outer = rec.ctx().outer
        if outer is not None and outer["t0"] >= r["submit"]:
            r["start"], r["end"] = outer["t0"], outer["t1"]
            outer["n"] += 1
            if outer["n"] == 1:
                rec.add("service.batch_calls", 0.0)
            rec.add("service.batch_requests", 1.0, n=0)
        with rec.lock:
            rec.requests.append(r)

    def make_submit(orig):
        def wrapper(self, index, *args, **kwargs):
            t = pc()
            pending = orig(self, index, *args, **kwargs)
            span = trace_mod.current_span()
            r = {"rid": span.trace_id if span is not None else None,
                 "submit": t}
            pending.add_done_callback(lambda _p, r=r: finish(r))
            return pending

        return wrapper

    for name in ("submit", "submit_append", "submit_delete"):
        _bind(QueryService, name, make_submit)

    # -- service.query QueryEngine --------------------------------------
    def qe_call(kind):
        def metric(rec, tl, engine, queries, orig, args, kwargs):
            nonres = not isinstance(engine.source, ArraySource)
            tl.stack.append((kind, nonres))
            t0 = pc()
            try:
                res = orig(engine, queries, *args, **kwargs)
            finally:
                tl.stack.pop()
            rec.add(f"engine.{kind}_ms", (pc() - t0) * 1e3)
            rows = int(getattr(queries, "shape", (len(queries),))[0])
            rec.add("engine.rows", float(rows))
            rec.add(f"engine.rows@{kind}", float(rows))
            if kind == "range":
                rec.add("grid.pairs@range", float(res.pairs_i.size), n=0)
            return res

        return metric

    _install_engine_call(rec, QueryEngine, "range_query", qe_call("range"))
    _install_engine_call(rec, QueryEngine, "knn_query", qe_call("knn"))

    # -- index.delta MutableIndex ---------------------------------------
    def delta_read(rec, tl, store, queries, orig, args, kwargs):
        depth = store.delta_depth
        t0 = pc()
        res = orig(store, queries, *args, **kwargs)
        rec.add("delta.read_ms", (pc() - t0) * 1e3)
        rec.add("delta.depth", float(depth))
        return res

    def delta_write(kind):
        def metric(rec, tl, store, arg, orig, args, kwargs):
            segs = store.n_segments
            w0 = _thread_wchar()
            t0 = pc()
            res = orig(store, arg, *args, **kwargs)
            dt = (pc() - t0) * 1e3
            rec.add("persist.bytes_written", float(_thread_wchar() - w0), n=0)
            sealed = store.n_segments - segs
            if sealed > 0:
                rec.add("delta.seal_ms", dt)
                rec.add("delta.seals", float(sealed), n=0)
            else:
                rec.add(f"delta.{kind}_ms", dt)
            return res

        return metric

    for name in ("range_query", "knn_query"):
        _install_engine_call(rec, MutableIndex, name, delta_read)
    _install_engine_call(rec, MutableIndex, "append", delta_write("append"))
    _install_engine_call(rec, MutableIndex, "delete", delta_write("delete"))

    # -- index.grid: probe time, reach rounds, candidates ---------------
    def make_groups(orig):
        def wrapper(self, queries, *args, **kwargs):
            tl = rec.ctx()
            kind = tl.stack[-1][0] if tl.stack else "other"
            rec.add(f"grid.rounds@{kind}", 0.0)

            def on_group(item, kind=kind):
                members, cand = item
                rec.add(f"grid.cand_dists@{kind}",
                        float(len(members) * len(cand)), n=0)

            def on_time(dt, kind=kind):
                rec.add(f"grid.probe_ms@{kind}", dt * 1e3, n=0)

            return _timed_groups(
                orig(self, queries, *args, **kwargs), on_group, on_time
            )

        return wrapper

    _bind(GridIndex, "iter_join_groups", make_groups)

    # -- core.engine: distance evaluation (one per candidate lookup) ----
    def make_dist(orig):
        def wrapper(*args, **kwargs):
            t0 = pc()
            out = orig(*args, **kwargs)
            rec.add("engine.dist_ms", (pc() - t0) * 1e3, n=0)
            tl = rec.ctx()
            if tl.stack and tl.stack[-1][1]:
                rec.add("engine.lookups", 1.0, n=0)
            return out

        return wrapper

    _bind(query_mod, "norm_expansion_sq_dists", make_dist)
    _bind(core_engine, "norm_expansion_sq_dists", make_dist)

    # -- data.source: row gathers ---------------------------------------
    def make_take(orig):
        def wrapper(self, indices):
            tl = rec.ctx()
            tl.take_depth += 1
            t0 = pc()
            try:
                return orig(self, indices)
            finally:
                tl.take_depth -= 1
                if tl.take_depth == 0:
                    rec.add("source.take_ms", (pc() - t0) * 1e3, n=0)
                    rec.add("source.take_rows", float(len(indices)), n=0)
                    if tl.stack and tl.stack[-1][1]:
                        rec.add("engine.takes", 1.0, n=0)

        return wrapper

    def subclasses(cls):
        out = [cls]
        for sub in cls.__subclasses__():
            out.extend(subclasses(sub))
        return out

    for cls in subclasses(DatasetSource):
        if "take" in vars(cls):
            _bind(cls, "take", make_take)

    # -- index.persist ---------------------------------------------------
    def make_timed(metric):
        def make(orig):
            def wrapper(*args, **kwargs):
                t0 = pc()
                try:
                    return orig(*args, **kwargs)
                finally:
                    rec.add(metric, (pc() - t0) * 1e3)

            return wrapper

        return make

    def make_save(orig):
        # Payloads may be written through memory maps, which the write
        # byte count of the mutation wrappers misses: count what the
        # saved directory holds instead of what went through write().
        def wrapper(index, path, *args, **kwargs):
            w0 = _thread_wchar()
            t0 = pc()
            try:
                return orig(index, path, *args, **kwargs)
            finally:
                rec.add("persist.save_ms", (pc() - t0) * 1e3)
                rec.add("persist.bytes_written",
                        float(_dir_bytes(path) - (_thread_wchar() - w0)), n=0)

        return wrapper

    for mod in (persist_mod, delta_mod):
        _bind(mod, "save_index", make_save)
    for mod in (persist_mod, query_mod, delta_mod):
        _bind(mod, "load_index", make_timed("persist.load_ms"))

    def make_fsync(orig):
        def wrapper(fd):
            rec.add("persist.fsyncs", 1.0, n=0)
            return orig(fd)

        return wrapper

    _bind(os, "fsync", make_fsync)


# ----------------------------------------------------------------------
# join kernels (installed in the selfjoin process)
# ----------------------------------------------------------------------


def install_joins(rec: Recorder) -> None:
    """Wrap FaSTED's and GDS-Join's stage functions."""
    import repro.kernels.fasted as fasted_mod
    import repro.kernels.gdsjoin as gds_mod
    from repro.core.results import PairAccumulator
    from repro.index.grid import GridIndex
    from repro.kernels.fasted import FastedKernel
    from repro.kernels.gdsjoin import GdsJoinKernel

    def make_join(tag):
        def make(orig):
            def wrapper(self, data, *args, **kwargs):
                tl = rec.ctx()
                tl.join = tag
                t0 = pc()
                try:
                    return orig(self, data, *args, **kwargs)
                finally:
                    tl.join = None
                    rec.add(f"{tag}.call_ms", (pc() - t0) * 1e3)

            return wrapper

        return make

    _bind(FastedKernel, "self_join", make_join("fasted"))
    _bind(GdsJoinKernel, "self_join", make_join("gds"))

    def make_stage(tag, metric):
        """Time a stage while ``tag``'s join runs (outermost call only)."""

        def make(orig):
            def wrapper(*args, **kwargs):
                tl = rec.ctx()
                if tl.join != tag or tl.prep:
                    return orig(*args, **kwargs)
                tl.prep = 1
                t0 = pc()
                try:
                    return orig(*args, **kwargs)
                finally:
                    tl.prep = 0
                    rec.add(metric, (pc() - t0) * 1e3, n=0)

            return wrapper

        return make

    _bind(fasted_mod, "quantize_fp16", make_stage("fasted", "fasted.prep_ms"))
    _bind(FastedKernel, "precompute_norms",
          make_stage("fasted", "fasted.prep_ms"))
    _bind(fasted_mod, "norm_expansion_sq_dists",
          make_stage("fasted", "fasted.recombine_ms"))
    _bind(gds_mod, "candidate_self_join", make_stage("gds", "gds.join_ms"))
    _bind(GridIndex, "__init__", make_stage("gds", "gds.build_ms"))

    def make_finalize(orig):
        def wrapper(self, *args, **kwargs):
            tl = rec.ctx()
            t0 = pc()
            try:
                return orig(self, *args, **kwargs)
            finally:
                if tl.join is not None:
                    rec.add(f"{tl.join}.finalize_ms", (pc() - t0) * 1e3, n=0)

        return wrapper

    _bind(PairAccumulator, "finalize", make_finalize)

    def make_tiles(orig):
        def wrapper(n, eps2, tile_fn, *args, **kwargs):
            def tile(r0, r1, c0, c1):
                rec.add("fasted.tile_elems", float((r1 - r0) * (c1 - c0)), n=0)
                rec.add("fasted.tile_edges", float((r1 - r0) + (c1 - c0)), n=0)
                return tile_fn(r0, r1, c0, c1)

            t0 = pc()
            try:
                return orig(n, eps2, tile, *args, **kwargs)
            finally:
                rec.add("fasted.tiles_ms", (pc() - t0) * 1e3, n=0)

        return wrapper

    _bind(fasted_mod, "symmetric_self_join", make_tiles)

    def make_cells(orig):
        def wrapper(self, *args, **kwargs):
            if rec.ctx().join != "gds":
                return orig(self, *args, **kwargs)

            def on_group(item):
                members, cand = item
                rec.add("gds.candidate_pairs",
                        float(len(members) * len(cand)), n=0)

            def on_time(dt):
                rec.add("gds.probe_ms", dt * 1e3, n=0)

            return _timed_groups(orig(self, *args, **kwargs), on_group, on_time)

        return wrapper

    _bind(GridIndex, "iter_cells", make_cells)
