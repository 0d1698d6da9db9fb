"""The ``selfjoin`` workload: the paper's own kernels, no serving layers.

Each round runs ``self_join(method="fasted")`` then
``self_join(method="gds-join")`` over 16384 rows of the Sift surrogate
corpus (d = 128, the rows chosen by the seed, eps calibrated to
selectivity 64), back to back, until the
window is spent.  Set-up is the eps calibration plus warm-up calls of
both methods on a slice of the data; it is repeated and its median
reported.  Every round's FaSTED result must be bit-identical
(``joins_bit_identical``) to ``seed_fasted_join``, and its GDS-Join
result to ``seed_candidate_join`` over the grid's cells.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

import common
import data as data_mod
from common import median

pc = time.perf_counter

N = 16384
WARM_N = 2048
SETUP_REPS = 5


def _digest(res) -> str:
    """Bitwise fingerprint of a join result, independent of pair order."""
    from repro.kernels.reference import canon

    h = hashlib.sha256()
    for arr in canon(res):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _rounds(x, eps, seconds: float, keep: list):
    """Timed rounds until ``seconds`` have passed (at least two).

    Returns ``(fasted_s, gds_s, digests)`` per round.  Only the first
    round's results are kept (in ``keep``, when empty), so the memory
    the harness holds does not grow with the number of rounds.
    """
    from repro import self_join

    out = []
    t_end = pc() + seconds
    while pc() < t_end or len(out) < 2:
        t0 = pc()
        fasted = self_join(x, eps, method="fasted")
        t1 = pc()
        gds = self_join(x, eps, method="gds-join")
        t2 = pc()
        out.append((t1 - t0, t2 - t1, (_digest(fasted), _digest(gds)),
                    gds.pairs_i.size))
        if not keep:
            keep.extend((fasted, gds))
        del fasted, gds
    return out


def run(seed: int, seconds: float, trace: bool) -> dict:
    from repro import epsilon_for_selectivity, self_join
    from repro.index.grid import GridIndex
    from repro.kernels.reference import (
        joins_bit_identical,
        seed_candidate_join,
        seed_fasted_join,
    )

    x = data_mod.join_inputs(seed, N)
    setups = []
    for _ in range(SETUP_REPS):
        t0 = pc()
        eps = epsilon_for_selectivity(x, data_mod.SELECTIVITY, seed=seed)
        for method in ("fasted", "gds-join"):
            self_join(x[:WARM_N], eps, method=method)
        setups.append(pc() - t0)

    first: list = []
    rounds = _rounds(x, eps, seconds, first)
    peak = common.peak_rss_mb()
    checked = list(rounds)
    layers = None
    if trace:
        import layers as layers_mod

        rec = layers_mod.Recorder()
        layers_mod.install_joins(rec)
        traced = _rounds(x, eps, seconds, first)
        layers = join_layers(rec.dump(), traced, rounds, x.shape[1])
        checked += traced

    fasted_ref = seed_fasted_join(x, eps)
    gds_ref = seed_candidate_join(
        x, eps, GridIndex(x, eps).iter_cells(), np.float32
    )
    # The first round must equal the seed references; every later round
    # must equal the first, bit for bit.
    ok_first = (
        joins_bit_identical(first[0], fasted_ref),
        joins_bit_identical(first[1], gds_ref),
    )
    want = checked[0][2]
    failed = 0
    for _, _, digests, _ in checked:
        for ok, got, exp in zip(ok_first, digests, want):
            failed += not (ok and got == exp)

    round_ms = [(f + g) * 1e3 for f, g, _, _ in rounds]
    pairs = first[0].pairs_i.size / N
    problems = []
    if not 0.5 * data_mod.SELECTIVITY <= pairs <= 2 * data_mod.SELECTIVITY:
        problems.append(f"selectivity {pairs:.1f} is far from the target")
    return {
        "attempted": 2 * len(checked),
        "failed": failed,
        "problems": problems,
        "metrics": {
            "setup_s": median(setups),
            "p50_ms": median(round_ms),
            "tail_ms": max(round_ms),
            "throughput_per_s": 2 * len(round_ms) / (sum(round_ms) / 1e3),
            "peak_rss_mb": peak,
        },
        "detail": {
            "fasted_join_s": median([r[0] for r in rounds]),
            "gds_join_s": median([r[1] for r in rounds]),
            "rounds": len(rounds),
            "setup_s_reps": setups,
            "eps": eps,
            "pairs_per_point": pairs,
        },
        "layers": layers,
    }


def join_layers(dump, traced, untraced, dim: int) -> dict:
    """Per-layer metrics of the traced rounds (see BENCHMARK.json).

    Times are per join call; ``fasted.ops`` and ``fasted.bytes`` are
    computed from the tiles evaluated (GEMM multiply-adds plus the
    three-term recombination; FP16 operands read, FP32 distances
    written), not measured.
    """
    s = dump["sums"]
    g = lambda name: s.get(name, 0.0)  # noqa: E731
    n = len(traced)
    elems = g("fasted.tile_elems")
    ops = 2.0 * dim * elems + 3.0 * elems
    moved = 2.0 * dim * g("fasted.tile_edges") + 4.0 * elems
    result_pairs = sum(r[3] for r in traced)
    attributed = (
        g("fasted.prep_ms") + g("fasted.tiles_ms") + g("fasted.finalize_ms")
        + g("gds.build_ms") + g("gds.join_ms") + g("gds.finalize_ms")
    )
    total = g("fasted.call_ms") + g("gds.call_ms")
    traced_p50 = median([r[0] + r[1] for r in traced])
    untraced_p50 = median([r[0] + r[1] for r in untraced])
    return {
        "fasted.prep_ms": g("fasted.prep_ms") / n,
        "fasted.tiles_ms": g("fasted.tiles_ms") / n,
        "fasted.recombine_ms": g("fasted.recombine_ms") / n,
        "fasted.finalize_ms": g("fasted.finalize_ms") / n,
        "fasted.ops": ops / n,
        "fasted.bytes": moved / n,
        "fasted.gflops": ops / (g("fasted.tiles_ms") / 1e3) / 1e9,
        "gds.build_ms": g("gds.build_ms") / n,
        "gds.probe_ms": g("gds.probe_ms") / n,
        "gds.join_ms": g("gds.join_ms") / n,
        "gds.candidate_pairs": g("gds.candidate_pairs") / n,
        "gds.useful_ratio": result_pairs / g("gds.candidate_pairs"),
        "unattributed_frac": (total - attributed) / total,
        "trace.overhead_frac": traced_p50 / untraced_p50 - 1.0,
    }
