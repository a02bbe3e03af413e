"""Point MIPS through sessions: exact scans vs ALSH vs sketches.

The paper's related-work landscape, measured on one workload: a
latent-factor model (3,000 items, rank 16, 512 users) with
popularity-skewed norms, the setting where MIPS differs from cosine
search.  Every method is one engine session that answers all users as
one batch:

* ``brute_force`` and ``norm_pruned`` top-1: exact, the second pruning
  by norms (LEMP-style; exact pruning cannot beat a scan in the worst
  case, Chen arXiv:1802.02325);
* ``lsh`` top-1 over the Section 4.1 DATA-DEP ALSH family;
* the Section 4.3 ``sketch`` join (unsigned) over a prebuilt
  ``SketchCMIPS``, which substitutes its own ``c``.

``s`` is the smallest user's best preference, so every user has an
exact answer.  The table reports, from each ``JoinResult``: the share of
users answered, top-1 recall against the brute-force answer (of
``|p . q|`` for the unsigned sketch), the mean value ratio over answered
users, and inner products per query.
"""

import numpy as np

from benchmarks.conftest import emit, format_table
from repro import engine
from repro.core import JoinSpec
from repro.datasets import latent_factor_model
from repro.lsh import DataDepALSH
from repro.sketches import SketchCMIPS

MODEL = dict(n_users=512, n_items=3000, rank=16, popularity_skew=0.8, seed=0)


def _model():
    return latent_factor_model(**MODEL)


def _min_best(model) -> float:
    return float((model.users @ model.items.T).max(axis=1).min())


def _sessions(model, s):
    d = model.rank
    top1 = JoinSpec(s=s, k=1)
    return {
        "brute_force top-1": (top1, dict(backend="brute_force")),
        "norm_pruned top-1": (top1, dict(backend="norm_pruned")),
        "lsh DATA-DEP ALSH (4.1) top-1": (top1, dict(
            backend="lsh", family=DataDepALSH(d, sphere="hyperplane"),
            n_tables=16, hashes_per_table=6, seed=2,
        )),
        "sketch c-MIPS (4.3)": (JoinSpec(s=s, signed=False), dict(
            backend="sketch",
            structure=SketchCMIPS(model.items, kappa=3.0, copies=5, seed=3),
        )),
    }


def test_mips_engine_comparison(benchmark):
    model = _model()
    s = _min_best(model)
    prefs = model.users @ model.items.T

    def build():
        rows = []
        for name, (spec, options) in _sessions(model, s).items():
            with engine.open(model.items, spec, **options) as session:
                result = session.query(model.users)
            scores = prefs if spec.signed else np.abs(prefs)
            truth = np.argmax(scores, axis=1)
            answers = np.array(
                [-1 if m is None else m for m in result.matches]
            )
            hit = answers >= 0
            users = np.flatnonzero(hit)
            ratios = scores[users, answers[hit]] / scores[users, truth[hit]]
            rows.append([
                name,
                f"{hit.mean():.2f}",
                f"{(answers == truth).mean():.2f}",
                f"{ratios.mean():.3f}",
                f"{result.inner_products_evaluated / model.n_users:.0f}",
                f"{result.inner_products_evaluated / prefs.size:.3f}",
            ])
        return (
            f"s = {s:.4f} (the smallest user's best preference)\n"
            + format_table(
                ["session", "answered", "top-1 recall", "mean value ratio",
                 "inner products / query", "work / scan"],
                rows,
            )
        )

    text = benchmark.pedantic(build, rounds=1, iterations=1)
    emit("mips_engines", text)


def _timed_session(benchmark, backend, batch):
    model = _model()
    with engine.open(model.items, JoinSpec(s=_min_best(model), k=1),
                     backend=backend) as session:
        benchmark(session.query, model.users[:batch])


def test_brute_force_top1_point_query(benchmark):
    _timed_session(benchmark, "brute_force", 1)


def test_norm_pruned_top1_point_query(benchmark):
    _timed_session(benchmark, "norm_pruned", 1)


def test_norm_pruned_top1_batch(benchmark):
    _timed_session(benchmark, "norm_pruned", MODEL["n_users"])
