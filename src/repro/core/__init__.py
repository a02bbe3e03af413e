"""The paper's primary problem records, kernels and exact baselines.

``problems`` defines the problem records; ``brute_force`` the exact
quadratic baselines; ``verify`` the IP scorer and the answer reducer
every kernel shares; ``lsh_join`` the candidate -> score -> answer
pipeline of the filter backends; ``sketch_join``, ``norm_pruning``,
``topk`` and ``set_join`` the other chunk kernels the engine's backends
run; ``algebraic`` the embed-and-multiply baseline in the
spirit of Valiant/Karppa et al.; ``scaling`` the c-MIPS <-> (cs,s)-search
reductions; ``join`` the unsigned-to-signed reduction.  Joins themselves
are answered by :func:`repro.engine.join`.
"""

from repro.core.problems import JoinResult, JoinSpec, MIPSResult, QueryStats
from repro.core.algebraic import chebyshev_expand_join
from repro.core.brute_force import (
    brute_force_join,
    brute_force_mips,
    brute_force_search,
)
from repro.core.executor import (
    WorkerPool,
    close_pools,
    get_pool,
    map_query_chunks,
    resolve_workers,
)
from repro.core.join import unsigned_via_signed
from repro.core.norm_pruning import NormScanIndex
from repro.core.scaling import cmips_via_search
from repro.core.topk import topk_recall
from repro.core.verify import BlockVerification, verify_block, verify_candidates

__all__ = [
    "JoinSpec",
    "JoinResult",
    "MIPSResult",
    "QueryStats",
    "brute_force_join",
    "brute_force_mips",
    "brute_force_search",
    "chebyshev_expand_join",
    "cmips_via_search",
    "unsigned_via_signed",
    "topk_recall",
    "NormScanIndex",
    "WorkerPool",
    "close_pools",
    "get_pool",
    "map_query_chunks",
    "resolve_workers",
    "BlockVerification",
    "verify_block",
    "verify_candidates",
]
