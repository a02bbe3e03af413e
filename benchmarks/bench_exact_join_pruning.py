"""Exact join with norm pruning (LEMP-style [50]) vs the plain scan.

The paper's motivating recommender workloads have heavily skewed item
norms, which exact systems like LEMP exploit: only data vectors with
``|p| >= cs / |q|`` can match.  This bench sweeps the norm skew and
prints the fraction of pairs the pruned exact join evaluates — near 1 on
flat norms (the theory's worst case), small on skewed ones — alongside
a verification that its matches coincide with brute force.
"""

import numpy as np

from benchmarks.conftest import emit, format_table
from repro.core import JoinSpec, brute_force_join
from repro.datasets import latent_factor_model
from repro.engine import join as engine_join


def test_norm_pruning_vs_skew(benchmark):
    def build():
        rows = []
        for skew in (0.0, 0.3, 0.8, 1.5):
            model = latent_factor_model(
                32, 2000, rank=16, popularity_skew=skew, seed=int(skew * 10)
            )
            spec = JoinSpec(s=0.4, c=0.8)
            exact = brute_force_join(model.items, model.users, spec)
            pruned = engine_join(model.items, model.users, spec,
                                 backend="norm_pruned")
            agree = all(
                (a is None) == (b is None)
                for a, b in zip(pruned.matches, exact.matches)
            )
            rows.append([
                f"{skew:g}",
                f"{np.linalg.norm(model.items, axis=1).std():.3f}",
                exact.inner_products_evaluated,
                pruned.inner_products_evaluated,
                f"{pruned.inner_products_evaluated / exact.inner_products_evaluated:.3f}",
                "OK" if agree else "MISMATCH",
            ])
        return format_table(
            ["norm skew", "norm std", "scan pairs", "pruned pairs",
             "fraction", "matches agree"],
            rows,
        )

    text = benchmark.pedantic(build, rounds=1, iterations=1)
    emit("norm_pruning", text)
    assert "MISMATCH" not in text


def test_norm_pruned_join_timing(benchmark):
    model = latent_factor_model(32, 2000, rank=16, popularity_skew=0.8, seed=1)
    spec = JoinSpec(s=0.4, c=0.8)
    benchmark.pedantic(
        lambda: engine_join(model.items, model.users, spec,
                            backend="norm_pruned"),
        rounds=3, iterations=1,
    )


def test_brute_force_join_timing(benchmark):
    model = latent_factor_model(32, 2000, rank=16, popularity_skew=0.8, seed=1)
    spec = JoinSpec(s=0.4, c=0.8)
    benchmark.pedantic(
        lambda: brute_force_join(model.items, model.users, spec),
        rounds=3, iterations=1,
    )
