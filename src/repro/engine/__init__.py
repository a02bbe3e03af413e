"""Unified join engine: registry, cost-model planner, one dispatch path.

``repro.engine.join(P, Q, spec)`` answers every IPS join variant the
repository implements through one code path; ``backend="auto"`` asks the
cost-model planner to pick among single-stage plans and two-stage
hybrids (:mod:`repro.engine.plan`), and ``n_workers=`` shards the query
set across processes without changing results.  For serving workloads,
``engine.open(P, spec)`` prepares a long-lived
:class:`~repro.engine.session.JoinSession` — plan/build once, then
``session.query(Q)`` / ``session.query_stream(chunks)`` repeatedly,
``session.save(path)`` / ``engine.open_path(path)`` for zero-copy
memmapped reloads.  See :mod:`repro.engine.protocol` for the backend
contract and ``docs/ARCHITECTURE.md`` for the layer map, the Plan IR,
and the session lifecycle.
"""

from repro.engine.api import join, plan
from repro.engine.backends import (
    BruteForceBackend,
    LSHBackend,
    NormPrunedBackend,
    SketchBackend,
)
from repro.engine.plan import (
    Plan,
    Stage,
    norm_prefix_lsh_plan,
    sketch_fallback_plan,
)
from repro.engine.planner import CostModel, JoinPlan, PlanEstimate, plan_join
from repro.engine.protocol import ChunkResult, CostEstimate, JoinBackend
from repro.engine.session import (
    DEFAULT_EXPECTED_QUERIES,
    DEFAULT_QUERY_BATCH_HINT,
    JoinSession,
    open_path,
    open_session,
)
from repro.engine.sharding import (
    ShardedSession,
    open_sharded,
    shard_bounds,
    sharded_join,
)

# ``engine.open(P, spec)`` is the canonical session entry point; the
# module-level name shadows the builtin only inside this namespace.
open = open_session
from repro.engine.measures import (
    MeasureDescriptor,
    available_measures,
    get_measure,
    register_measure,
)
from repro.engine.registry import (
    available_backends,
    backends_for,
    capability_matrix,
    get_backend,
    register,
)
from repro.engine.set_backends import MinHashLSHBackend, SetScanBackend
from repro.quant.backend import IPFilterBackend, QuantizedBackend

# Built-in backends register on import, exact ones first: planner ties
# resolve toward the stronger (exact) guarantee.  The compact tier
# appends after the originals, and the Jaccard measure's backends after
# that, so registration order (and the index-based planner tie-break)
# is stable across releases.
if "brute_force" not in available_backends():
    register(BruteForceBackend())
    register(NormPrunedBackend())
    register(LSHBackend())
    register(SketchBackend())
    register(QuantizedBackend())
    register(IPFilterBackend())
    register(SetScanBackend())
    register(MinHashLSHBackend())

__all__ = [
    "join",
    "plan",
    "plan_join",
    "open",
    "open_session",
    "open_path",
    "open_sharded",
    "JoinSession",
    "ShardedSession",
    "DEFAULT_EXPECTED_QUERIES",
    "DEFAULT_QUERY_BATCH_HINT",
    "sharded_join",
    "shard_bounds",
    "Plan",
    "Stage",
    "norm_prefix_lsh_plan",
    "sketch_fallback_plan",
    "PlanEstimate",
    "JoinBackend",
    "ChunkResult",
    "CostEstimate",
    "CostModel",
    "JoinPlan",
    "register",
    "get_backend",
    "available_backends",
    "backends_for",
    "capability_matrix",
    "MeasureDescriptor",
    "register_measure",
    "get_measure",
    "available_measures",
    "BruteForceBackend",
    "NormPrunedBackend",
    "LSHBackend",
    "SketchBackend",
    "QuantizedBackend",
    "IPFilterBackend",
    "SetScanBackend",
    "MinHashLSHBackend",
]
