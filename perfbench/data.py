"""Benchmark inputs: a fixed corpus, and request streams from the seed.

Every workload draws from one fixed corpus: the Sift surrogate
(``load_surrogate("Sift10M")``, 128-d, integer-valued) at its own
default generation seed.  The serving workloads split it, always the
same way, into the indexed base, held-out rows that serve as queries
(same distribution as the base, so a range query at the calibrated eps
finds about the selectivity target) and fresh rows that serve as
appends.  The run's seed draws everything that flows through the
program: the arrival schedule, each request's kind and rows, the
popularity ranks, and the order of deletes.  For ``selfjoin`` the seed
chooses and orders the joined rows.  The same seed gives the same
inputs.

Why the serving base and pool are fixed rather than drawn per seed: the
grid at this eps and dimension sends every query to (nearly) every row,
and the engine's candidate cache keys entries by the exact candidate
array, so a few held-out rows in unusual cells add new 20 MB entries.
Whether a seed's split contains such rows decided whether the 64 MB
cache thrashed: across splits the server's peak RSS read 120 or 205 MB
and the kNN median 48 or 93 ms, which is wider than any useful bound.
With one split the cache behaves the same in every run, and the
spread that is left is the program's and the machine's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Paper dataset the surrogate stands in for, and its selectivity target.
DATASET = "Sift10M"
SELECTIVITY = 64
CORPUS_SEED = 7  # load_surrogate's default generation seed
N_BASE = 20000  # indexed rows of the serving workloads
N_POOL = 4096  # held-out query rows
CORPUS_N = N_BASE + N_POOL + 4096  # the rest are fresh rows for appends
SPLIT_SEED = 0  # the one base / pool / fresh split of the serving corpus


@dataclass
class ServingInputs:
    base: np.ndarray  # indexed rows (global ids 0..n-1)
    pool: np.ndarray  # held-out query rows
    fresh: np.ndarray  # rows for /append
    eps: float


def _corpus() -> np.ndarray:
    from repro.data.realworld import load_surrogate

    data, _ = load_surrogate(DATASET, n=CORPUS_N, seed=CORPUS_SEED)
    return data


def serving_inputs() -> ServingInputs:
    """The serving corpus split into base, query pool and fresh rows."""
    from repro import epsilon_for_selectivity

    corpus = _corpus()
    rows = np.random.default_rng(SPLIT_SEED).permutation(CORPUS_N)
    base = np.ascontiguousarray(corpus[rows[:N_BASE]])
    pool = np.ascontiguousarray(corpus[rows[N_BASE : N_BASE + N_POOL]])
    fresh = np.ascontiguousarray(corpus[rows[N_BASE + N_POOL :]])
    eps = epsilon_for_selectivity(base, SELECTIVITY, seed=SPLIT_SEED)
    return ServingInputs(base, pool, fresh, eps)


def join_inputs(seed: int, n: int) -> np.ndarray:
    """``n`` corpus rows, chosen and ordered by ``seed``."""
    rows = np.random.default_rng([seed, 0]).permutation(CORPUS_N)[:n]
    return np.ascontiguousarray(_corpus()[rows])


def zipf_weights(rng: np.random.Generator, n: int, s: float) -> np.ndarray:
    """Popularity of ``n`` items: Zipf(``s``) over a seeded rank order."""
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
    w /= w.sum()
    return w[rng.permutation(n)]
