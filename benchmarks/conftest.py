"""Shared helpers for the benchmark harness.

Every ``bench_*`` reproduction both *times* its component
(pytest-benchmark) and *prints* the reproduced table/figure series, also
writing it to ``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can
cite stable artifacts.

The ``bench_gate_*`` modules are the speed gates: each times a fast path
against its reference at fixed full sizes and fails when a floor or
ceiling is missed.  They check speed only; answers are checked by the
tier-1 suite under ``tests/``.
"""

import math
import os
import time
from typing import Callable

import numpy as np
import pytest

from repro.datasets import random_unit
from repro.lsh import HyperplaneLSH, LSHIndex
from repro.lsh.base import AsymmetricLSHFamily

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def emit(name: str, text: str) -> None:
    """Print a reproduction artifact and persist it under results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    banner = f"\n===== {name} =====\n"
    print(banner + text)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as handle:
        handle.write(text + "\n")


def format_table(headers, rows) -> str:
    """Plain-text table with right-padded columns."""
    table = [list(map(str, headers))] + [[str(cell) for cell in row] for row in rows]
    widths = [max(len(row[col]) for row in table) for col in range(len(headers))]
    lines = []
    for r, row in enumerate(table):
        lines.append("  ".join(cell.ljust(widths[col]) for col, cell in enumerate(row)))
        if r == 0:
            lines.append("  ".join("-" * widths[col] for col in range(len(headers))))
    return "\n".join(lines)


@pytest.fixture
def rng():
    return np.random.default_rng(2016)


class PerRow(AsymmetricLSHFamily):
    """``family``'s hash pairs without its native hasher: ``sample_batch``
    is the base default (``None``), so an index over it hashes through
    the generic per-row closure path."""

    def __init__(self, family):
        self.family = family

    def sample(self, rng):
        return self.family.sample(rng)


def best_of(fn: Callable, repeats: int = 1):
    """Best-of-``repeats`` wall seconds of ``fn()`` and its last result."""
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def paired(call_a: Callable, call_b: Callable, items=(None,),
           repeats: int = 1):
    """Interleaved paired timing of ``call_a(item)`` and ``call_b(item)``.

    Returns ``(overhead, results_a, results_b)``: the median over rounds
    of ``b / a - 1``, and each side's per-item results of the last round.

    Both sides run back to back for every item, alternating which goes
    first per item and per round, and each round sums every item's wall
    per side.  The overhead is the MEDIAN of the per-round ``b / a - 1``
    ratios: within a round the two sides see the same machine load, so
    the per-round ratio is drift-paired, while the ratio of two
    independent best-of minima is biased by whichever side caught the
    quietest window (observed at +-10% on a busy shared host, far above
    a 2% ceiling).  Pairing per item (one query batch) rather than per
    leg keeps the pairing tight at the millisecond scale; the default
    single ``None`` item pairs whole legs.
    """
    ratios = []
    sides = (("a", call_a), ("b", call_b))
    for i in range(repeats):
        walls = {"a": 0.0, "b": 0.0}
        results = {"a": [], "b": []}
        for j, item in enumerate(items):
            for label, call in sides if (i + j) % 2 == 0 else sides[::-1]:
                start = time.perf_counter()
                results[label].append(call(item))
                walls[label] += time.perf_counter() - start
        ratios.append(walls["b"] / walls["a"] - 1.0)
    return float(np.median(ratios)), results["a"], results["b"]


def planted_unit(n: int, d: int, n_queries: int, seed: int,
                 planted_frac: float = 0.10, rho: float = 0.92):
    """0.95-scaled unit rows with planted matches.

    The first ``planted_frac`` of the queries each get a partner row at
    cosine exactly ``rho`` (inner product ``rho * 0.95**2`` = 0.83 above
    the gates' s = 0.75); random pairs in these dimensions stay far
    below ``cs``.  Returns ``(P, Q)``.
    """
    P = random_unit(n, d, seed=seed)
    Q = random_unit(n_queries, d, seed=seed + 1)
    rng = np.random.default_rng(seed + 7)
    k = max(1, int(round(planted_frac * n_queries)))
    partner = rng.choice(n, size=k, replace=False)
    base = P[partner]
    noise = rng.standard_normal((k, d))
    noise -= np.einsum("ij,ij->i", noise, base)[:, None] * base
    noise /= np.linalg.norm(noise, axis=1, keepdims=True)
    Q[:k] = rho * base + math.sqrt(1.0 - rho * rho) * noise
    return 0.95 * P, 0.95 * Q


def hyperplane_recipe(d: int, cfg: dict, seed: int) -> dict:
    """``lsh`` backend options for a hyperplane index of ``cfg``'s shape."""
    return dict(family=HyperplaneLSH(d), n_tables=cfg["n_tables"],
                hashes_per_table=cfg["bits_per_table"], seed=seed)


def hyperplane_index(P, cfg: dict, seed: int) -> LSHIndex:
    recipe = hyperplane_recipe(P.shape[1], cfg, seed)
    return LSHIndex(recipe.pop("family"), **recipe).build(P)
