"""Correctness references: FP64 brute force over the rows that are live.

Range answers are compared with the program's own dense reference,
``brute_range_query``; kNN answers with an FP64 brute force written here,
which orders neighbours by ``(squared distance, index)``.  A served answer
passes only when its neighbour ids and its distances (FP32, as the
program returns them) are identical to the reference.
"""

from __future__ import annotations

import json

import numpy as np


def range_reference(data: np.ndarray, queries: np.ndarray, eps: float, ids=None):
    """Per query: (sorted neighbour ids, their FP32 squared distances)."""
    from repro.service.query import brute_range_query

    res = brute_range_query(data, queries, eps)
    gid = res.pairs_j if ids is None else np.asarray(ids)[res.pairs_j]
    order = np.lexsort((gid, res.pairs_i))
    bounds = np.searchsorted(res.pairs_i[order], np.arange(queries.shape[0] + 1))
    gid = gid[order].tolist()
    d2 = res.sq_dists[order].astype(np.float64).tolist()
    return [
        (gid[a:b], d2[a:b]) for a, b in zip(bounds[:-1], bounds[1:])
    ]


def knn_reference(data, queries, k: int, ids=None, block: int = 256):
    """Per query: (k nearest ids, FP32 squared distances), FP64 ties by id.

    ``ids`` (ascending) renames data rows; the index tie-break then runs
    on those ids, which keep the row order.
    """
    x = np.asarray(data, dtype=np.float64)
    sx = (x * x).sum(axis=1)
    names = np.arange(x.shape[0]) if ids is None else np.asarray(ids)
    out = []
    for r0 in range(0, queries.shape[0], block):
        q = np.asarray(queries[r0 : r0 + block], dtype=np.float64)
        d2 = (q * q).sum(axis=1)[:, None] + sx[None, :] - 2.0 * (q @ x.T)
        np.maximum(d2, 0.0, out=d2)
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
        for i in range(q.shape[0]):
            # Every row tied with the k-th distance is a candidate; the
            # (distance, index) order then picks exactly k.
            cand = np.nonzero(d2[i] <= kth[i])[0]
            best = cand[np.lexsort((cand, d2[i, cand]))[:k]]
            dk = d2[i, best].astype(np.float32).astype(np.float64)
            out.append((names[best].tolist(), dk.tolist()))
    return out


def range_answer_ok(body: bytes, want: list) -> tuple[bool, int]:
    """Does a /range response equal the reference?  Also: pairs found."""
    got = json.loads(body)
    neigh, dists = got["neighbors"], got.get("sq_dists")
    if len(neigh) != len(want) or dists is None:
        return False, 0
    pairs = 0
    for (ids, d2), gi, gd in zip(want, neigh, dists):
        pairs += len(gi)
        if gi != ids or gd != d2:
            return False, pairs
    return True, pairs


def knn_answer_ok(body: bytes, want: list) -> bool:
    got = json.loads(body)
    if len(got["indices"]) != len(want):
        return False
    return all(
        gi == ids and gd == d2
        for (ids, d2), gi, gd in zip(want, got["indices"], got["sq_dists"])
    )
