"""Speed gates: session serving telemetry costs at most 2% / 5%.

Every ``session.query`` records latency histograms, consults the trace
sampler and checks for a sink.  Over 120 batches of 64 queries against
a planted n = 50,000, d = 64 ``lsh`` session, ``session.query`` may run
at most ``SERVING_OBS_DISABLED_CEILING`` slower than
:func:`_pre_telemetry_query` — the query body without that telemetry,
replayed on the same session — with sampling off, and at most
``SERVING_OBS_SAMPLED_CEILING`` slower at a 1% sample rate, where about
one batch in a hundred pays for a full span tree.  The pair interleaves
per batch (:func:`~benchmarks.conftest.paired`): the disabled cost is
about 0.1% of a 2-3 ms call.
"""

from benchmarks.conftest import paired, planted_unit
from repro import engine
from repro.core import JoinSpec

SERVING_FULL = dict(n=50_000, d=64, batch=64, batches=120, n_tables=8,
                    hashes_per_table=10, block=256, repeats=9,
                    sample_rate=0.01, seed=2016)
SERVING_OBS_DISABLED_CEILING = 0.02
SERVING_OBS_SAMPLED_CEILING = 0.05


def _pre_telemetry_query(session, Q):
    """``session.query`` without telemetry: validate, dispatch, count."""
    out = session._dispatch(session._validate_batch(Q), trace=False,
                            root="session.query")
    session.queries_served += 1
    session.metrics.counter("session.queries").inc()
    return out


def _overhead(**sampling) -> float:
    cfg = SERVING_FULL
    P, Q = planted_unit(cfg["n"], cfg["d"], cfg["batches"] * cfg["batch"],
                        cfg["seed"])
    batches = [Q[i:i + cfg["batch"]] for i in range(0, Q.shape[0], cfg["batch"])]
    with engine.open(P, JoinSpec(s=0.75, c=0.8), backend="lsh",
                     seed=cfg["seed"] + 2, block=cfg["block"],
                     expected_queries=cfg["batches"],
                     n_tables=cfg["n_tables"],
                     hashes_per_table=cfg["hashes_per_table"],
                     **sampling) as session:
        overhead, _, _ = paired(
            lambda Qb: _pre_telemetry_query(session, Qb), session.query,
            batches, repeats=cfg["repeats"])
    return overhead


def test_serving_obs_disabled_ceiling():
    overhead = _overhead()
    print(f"serving telemetry overhead, sampling off: {overhead:+.2%}")
    assert overhead <= SERVING_OBS_DISABLED_CEILING, f"{overhead:+.2%}"


def test_serving_obs_sampled_ceiling():
    cfg = SERVING_FULL
    overhead = _overhead(trace_sample_rate=cfg["sample_rate"],
                         trace_sample_seed=cfg["seed"])
    print(f"serving telemetry overhead, 1% sampled: {overhead:+.2%}")
    assert overhead <= SERVING_OBS_SAMPLED_CEILING, f"{overhead:+.2%}"
