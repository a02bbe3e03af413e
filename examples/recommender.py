"""Recommender-system MIPS: the paper's flagship application.

Latent-factor models score items by user-item inner products (Koren et
al. [31], Teflioudi et al. [50]); retrieving each user's best items is
maximum inner product search.  This example builds a synthetic factor
model with popularity-skewed item norms — the regime where cosine
similarity is *wrong* and MIPS is needed — and compares exact top-1
retrieval against the DATA-DEP ALSH index and the sketch c-MIPS
structure, reporting recall and work.

Run:  python examples/recommender.py
"""

import time

import numpy as np

from repro import engine
from repro.core import JoinSpec
from repro.datasets import latent_factor_model
from repro.lsh import DataDepALSH, LSHIndex
from repro.sketches import SketchCMIPS


def main():
    model = latent_factor_model(
        n_users=64, n_items=4000, rank=24, popularity_skew=0.8, seed=0
    )
    print(f"model: {model.n_items} items, rank {model.rank}, "
          f"item norms in [{np.linalg.norm(model.items, axis=1).min():.2f}, "
          f"{np.linalg.norm(model.items, axis=1).max():.2f}]")

    # Ground truth top-1 per user.
    truth = [int(model.top_items(u, k=1)[0]) for u in range(model.n_users)]
    best_scores = [float(model.preference(u).max()) for u in range(model.n_users)]

    # ALSH index over items (data in the unit ball, users on the sphere).
    family = DataDepALSH(model.rank, sphere="hyperplane")
    start = time.perf_counter()
    index = LSHIndex(family, n_tables=16, hashes_per_table=6, seed=1)
    index.build(model.items)
    build_time = time.perf_counter() - start

    # Each user's best candidate with a positive score, verified exactly.
    hits = 0
    good = 0
    start = time.perf_counter()
    result = engine.join(model.items, model.users, JoinSpec(s=1e-9),
                         backend="lsh", index=index)
    for u, found in enumerate(result.matches):
        if found is None:
            continue
        score = float(model.items[found] @ model.users[u])
        if found == truth[u]:
            hits += 1
        if score >= 0.8 * best_scores[u]:
            good += 1
    lsh_time = time.perf_counter() - start
    print(f"\nALSH (DATA-DEP): built in {build_time:.2f}s, "
          f"queried {model.n_users} users in {lsh_time:.2f}s")
    print(f"  exact top-1 recall: {hits / model.n_users:.2f}, "
          f"within 0.8x of best: {good / model.n_users:.2f}, "
          f"candidates/query: {index.stats.candidates_per_query:.0f} "
          f"(vs {model.n_items} exact)")

    # Sketch c-MIPS over items.
    start = time.perf_counter()
    structure = SketchCMIPS(model.items, kappa=3.0, copies=7, seed=2)
    sketch_build = time.perf_counter() - start
    hits = 0
    good = 0
    start = time.perf_counter()
    for u in range(model.n_users):
        answer = structure.query(model.users[u])
        if answer.index == truth[u]:
            hits += 1
        if answer.value >= 0.8 * best_scores[u]:
            good += 1
    sketch_time = time.perf_counter() - start
    print(f"\nsketch c-MIPS (kappa=3): built in {sketch_build:.2f}s, "
          f"queried in {sketch_time:.2f}s, "
          f"promised c = {structure.approximation_factor:.3f}")
    print(f"  exact top-1 recall: {hits / model.n_users:.2f}, "
          f"within 0.8x of best: {good / model.n_users:.2f}")


if __name__ == "__main__":
    main()
