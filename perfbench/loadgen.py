"""Open-loop HTTP load on a fixed seeded schedule.

One generator process (the harness) runs at most ``os.cpu_count()``
threads (fewer when a workload asks), each holding one keep-alive
connection.  Arrivals are evenly paced at a seeded phase (Poisson
arrivals were tried: their bursts made the windows' medians too noisy to
compare runs).  Every operation has a scheduled send time; a thread
takes the next operation in schedule order, sleeps until it is due and
sends it, so a slow server makes later operations wait and that wait is
charged to them: latency runs from the scheduled send to the end of the
response (no coordinated omission).

``lateness`` is the generator's own delay: how long after the later of
"operation due" and "thread free" the request actually went out.
Responses are kept as raw bytes and parsed after the timed window, so
the generator spends little CPU while it measures.
"""

from __future__ import annotations

import http.client
import os
import secrets
import threading
import time
from dataclasses import dataclass

import numpy as np

pc = time.perf_counter


@dataclass
class Op:
    """One request: when it is due (seconds from start) and what it is."""

    due: float
    kind: str  # "range" | "knn" | "append" | "delete"
    body: bytes
    meta: object = None  # what the correctness check needs
    rid: str = ""


@dataclass
class Outcome:
    latency_s: float  # from scheduled send to response end
    lateness_s: float  # generator delay beyond "due and thread free"
    status: int  # HTTP status; -1 for a dropped connection
    body: bytes
    done: float  # perf_counter at response end


def paced_schedule(rng: np.random.Generator, rate: float, seconds: float):
    """Evenly paced arrivals over ``seconds`` at a seeded phase."""
    return (rng.random() + np.arange(int(rate * seconds))) / rate


def n_threads(limit: int = 0) -> int:
    """Generator threads: ``os.cpu_count()``, capped at ``limit`` if set."""
    n = max(1, os.cpu_count() or 1)
    return min(n, limit) if limit > 0 else n


def run(host: str, port: int, ops: list[Op], *, connections: int = 0,
        timeout: float = 60.0):
    """Send ``ops`` on their schedule; returns one :class:`Outcome` each.

    ``connections`` caps the threads (and so the requests in flight);
    0 means :func:`n_threads`' default.
    """
    for op in ops:
        if not op.rid:
            op.rid = secrets.token_hex(8)
    out: list[Outcome | None] = [None] * len(ops)
    lock = threading.Lock()
    cursor = [0]
    t0 = pc() + 0.05  # let every thread reach its first wait

    def worker() -> None:
        conn = http.client.HTTPConnection(host, port, timeout=timeout)
        try:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(ops):
                    return
                op = ops[i]
                due = t0 + op.due
                free = pc()
                if due > free:
                    time.sleep(due - free)
                sent = pc()
                status, body = _send(conn, op)
                if status < 0:
                    conn.close()
                    conn = http.client.HTTPConnection(
                        host, port, timeout=timeout
                    )
                done = pc()
                out[i] = Outcome(
                    latency_s=done - due,
                    lateness_s=sent - max(due, free),
                    status=status,
                    body=body,
                    done=done,
                )
        finally:
            conn.close()

    threads = [
        threading.Thread(target=worker, daemon=True)
        for _ in range(n_threads(connections))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return out


def _send(conn: http.client.HTTPConnection, op: Op) -> tuple[int, bytes]:
    try:
        conn.request(
            "POST", f"/{op.kind}", body=op.body,
            headers={
                "Content-Type": "application/json",
                "X-Request-Id": op.rid,
            },
        )
        resp = conn.getresponse()
        return resp.status, resp.read()
    except (OSError, http.client.HTTPException):
        return -1, b""
