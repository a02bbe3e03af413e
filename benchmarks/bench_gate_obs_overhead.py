"""Speed gate: the disabled observability hooks cost at most 2%.

Every kernel runs with its ``span()`` calls in place and tracing off.
On a planted n = 50,000, d = 64 join with 10,000 queries over a
prebuilt hyperplane index, the instrumented ``lsh`` pipeline
(:func:`~repro.core.lsh_join.pipeline_chunk` over
:func:`~repro.core.lsh_join.lsh_candidates`) may run at most
``OBS_OVERHEAD_CEILING`` slower than :func:`_lsh_chunk_span_free`, the
same loop with the span calls removed.
"""

from benchmarks.conftest import hyperplane_index, paired, planted_unit
from repro.core import JoinSpec
from repro.core.lsh_join import lsh_candidates, pipeline_chunk
from repro.core.verify import _answers, verify_block

OBS_FULL = dict(n=50_000, d=64, n_queries=10_000, s=0.75, c=0.8, n_tables=8,
                bits_per_table=10, block=256, repeats=21, seed=2016)
OBS_OVERHEAD_CEILING = 0.02


def _lsh_chunk_span_free(index, P, Q_chunk, spec, block: int):
    """The ``lsh`` pipeline of a cross join without its ``span()`` calls.

    Kept line for line in step with :func:`pipeline_chunk`, so the timed
    pair differs only in the observability hooks.
    """
    answers = []
    scored = 0
    for q0 in range(0, Q_chunk.shape[0], block):
        Q_block = Q_chunk[q0:q0 + block]
        cands = index.candidates_batch(Q_block, n_probes=0)
        result = verify_block(P, Q_block, cands, signed=spec.signed)
        scored += result.n_evaluated
        answers.extend(_answers(cands.qids(), cands.rows, result.scores,
                                Q_block.shape[0], spec.cs, spec.k))
    return answers, scored


def test_obs_overhead_disabled_within_ceiling():
    cfg = OBS_FULL
    P, Q = planted_unit(cfg["n"], cfg["d"], cfg["n_queries"], cfg["seed"])
    spec = JoinSpec(s=cfg["s"], c=cfg["c"])
    index = hyperplane_index(P, cfg, cfg["seed"] + 2)
    block = cfg["block"]
    overhead, bare, hooked = paired(
        lambda _: _lsh_chunk_span_free(index, P, Q, spec, block),
        lambda _: pipeline_chunk(lsh_candidates(index, Q), P, Q, spec, block),
        repeats=cfg["repeats"])
    # A twin that drifted from the pipeline would time different work.
    assert bare == hooked
    print(f"disabled observability overhead {overhead:+.2%}")
    assert overhead <= OBS_OVERHEAD_CEILING, f"{overhead:+.2%}"
