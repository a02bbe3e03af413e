"""Cost-model planner: pick a backend for a join instance.

Extends the index-level (k, L) theory of :mod:`repro.lsh.planner` one
level up: given instance shape ``(n, m, d)`` and a
:class:`~repro.core.problems.JoinSpec`, ask every registered backend for
a :class:`~repro.engine.protocol.CostEstimate` under one
:class:`CostModel` and rank the feasible ones by predicted total ops.
``repro.engine.join(..., backend="auto")`` executes the winner.

The model's constants are *relative* op weights (a GEMM multiply-add is
the unit).  The defaults are deliberately conservative about the
probabilistic backends: fixed build charges (``lsh_fixed_build``,
``sketch_fixed_build``) price in Python/index constant factors, so on
small instances the planner always lands on an exact backend — which is
also what makes ``auto`` results deterministic and testable against
brute force there.  For machine-specific planning the constants can be
calibrated from measured joins via :meth:`CostModel.from_planner_log`.

Since the Plan IR landed, the planner ranks *plans*, not backends: every
single-backend estimate becomes a one-stage :class:`PlanEstimate`, and
two-stage hybrids (norm-pruned prefix + LSH tail; sketch + exact
fallback, :mod:`repro.engine.plan`) are scored alongside them under the
same model — a hybrid's cost is the sum of its per-stage estimates on
the point/query subsets the model expects each stage to handle
(``hybrid_prefix_fraction``, ``hybrid_tail_query_fraction``,
``sketch_fallback_query_fraction``).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Dict, List, Optional, Tuple

from repro.core.problems import JoinSpec
from repro.engine.plan import (
    Plan,
    norm_prefix_lsh_plan,
    norm_split_size,
    sketch_fallback_plan,
)
from repro.engine.protocol import CostEstimate
from repro.errors import ParameterError

#: Reference throughput used by ``from_planner_log`` to turn measured
#: seconds into relative op weights: ops-per-second of the machine the
#: default constants were tuned on.  Only ratios matter.
_REFERENCE_GEMM_OPS_PER_S = 5e9


@dataclass(frozen=True)
class CostModel:
    """Relative operation weights for backend cost estimates.

    All weights are in units of one dense GEMM multiply-add
    (``gemm_op = 1``).  ``hash_op`` is per *bit* of hashing work before
    the factor-64 bit-packing discount applied in the backends;
    ``candidate_op`` prices bucket bookkeeping per candidate;
    ``row_op`` prices per-query Python/dispatch overhead; the
    ``*_fixed_build`` charges price index-construction constant factors
    that op counts alone miss.
    """

    gemm_op: float = 1.0
    hash_op: float = 2.0
    candidate_op: float = 8.0
    row_op: float = 200.0
    norm_fixed_build: float = 2e4
    lsh_fixed_build: float = 5e5
    sketch_fixed_build: float = 2e6
    #: Fraction of the data a norm-pruned scan is expected to touch.
    norm_prefix_fraction: float = 0.35
    #: Fallback candidate fraction when no (k, L) plan is derivable.
    lsh_candidate_fraction: float = 0.05
    #: Bounds for the sketch trade-off knob when derived from ``c``.
    min_kappa: float = 2.1
    max_kappa: float = 16.0
    #: Data fraction the norm-pruned stage of a hybrid plan covers.
    hybrid_prefix_fraction: float = 0.2
    #: Query fraction expected to fall through to a hybrid's LSH tail.
    hybrid_tail_query_fraction: float = 0.5
    #: Query fraction expected to need the sketch hybrid's exact fallback.
    sketch_fallback_query_fraction: float = 0.3
    #: Per-coordinate weight of the int8 code-product scan relative to a
    #: float64 GEMM multiply-add.  Kept above ``norm_prefix_fraction``:
    #: on unconstrained memory the norm-pruned scan stays the preferred
    #: exact backend, and the compact tier wins through the memory term.
    quant_scan_op: float = 0.5
    #: Fixed cost of quantizing the data matrix.
    quant_fixed_build: float = 5e4
    #: Expected fraction of pairs surviving the quantized scan bound.
    quant_verify_fraction: float = 0.02
    #: Sketch dimensions the planner assumes for the ip_filter backend.
    filter_dims: float = 32.0
    #: Expected fraction of pairs surviving the sketch filter.
    filter_selectivity: float = 0.02
    #: Fixed cost of projecting + quantizing the filter sketches.
    filter_fixed_build: float = 1e5
    #: Per-element weight of the set-intersection postings scan relative
    #: to a float64 GEMM multiply-add (gathers + bincount per posting).
    set_scan_op: float = 4.0
    #: Fixed cost of building the inverted set-postings index.
    set_fixed_build: float = 1e4
    #: Fixed cost of MinHash table construction + bucket sorting.  Fitted
    #: on the benchmark's Jaccard sets (n = 4,000, universe 2,048): the
    #: MinHash index opens 60-80x slower than the set postings (0.13-0.16 s
    #: vs ~2 ms), and this puts the modeled build ratio at ~75x.
    minhash_fixed_build: float = 1e7
    #: Expected fraction of the data surviving MinHash banding per query
    #: (the same trace: 54-56 unique candidates of 4,000 rows).
    minhash_candidate_fraction: float = 0.014
    #: Mean set cardinality assumed when pricing set workloads (the
    #: planner only sees ``(n, m, d)`` with ``d`` = universe size, so the
    #: nnz per row enters as a model constant, calibratable like any
    #: other weight).
    set_mean_size: float = 64.0
    #: Bytes of data-structure working set the scan tier may use before
    #: the memory penalty kicks in; ``0`` disables the memory term.
    mem_budget_bytes: float = 0.0
    #: Multiplier applied to scan work whose working set exceeds the
    #: budget (cache/RAM spill: bandwidth-bound scans slow down by about
    #: the bytes-per-row ratio, which the penalty approximates).
    mem_over_budget_penalty: float = 8.0
    #: Marginal speedup per additional worker (0..1): worker ``i`` adds
    #: ``parallel_efficiency`` of a core's throughput.  Below 1 because
    #: chunks share memory bandwidth and the merge is serial.
    parallel_efficiency: float = 0.75
    #: Fixed per-worker charge (ops): pool dispatch, payload-shell thaw,
    #: per-chunk result pickling.
    parallel_worker_overhead: float = 5e5
    #: Core count the parallel term assumes; ``0`` means read
    #: :func:`os.cpu_count` at plan time.  Tests pin this for
    #: machine-independent assertions.
    parallel_cores: float = 0.0

    def effective_cores(self) -> float:
        return (
            float(self.parallel_cores)
            if self.parallel_cores >= 1.0
            else float(os.cpu_count() or 1)
        )

    def parallel_speedup(self, n_workers: int) -> float:
        """Predicted throughput multiple of ``n_workers`` vs serial.

        Workers beyond the core count add nothing (they time-slice), so
        the efficiency term applies to ``min(n_workers, cores) - 1``
        extra workers.
        """
        if n_workers <= 1:
            return 1.0
        w = min(float(n_workers), self.effective_cores())
        return max(1.0, 1.0 + (w - 1.0) * self.parallel_efficiency)

    def memory_factor(self, row_bytes: float, n: int) -> float:
        """Scan-work multiplier for a structure of ``row_bytes * n`` bytes.

        ``1.0`` when the memory term is off (``mem_budget_bytes == 0``)
        or the working set fits the budget; ``mem_over_budget_penalty``
        when it spills.  Backends multiply their bandwidth-bound scan
        terms by this, which is how ``backend="auto"`` learns to prefer
        the compact tier (about ``d + 24`` bytes per row) over float64
        scans (``8 d`` bytes per row) on memory-constrained instances.
        """
        if self.mem_budget_bytes <= 0.0:
            return 1.0
        if row_bytes * float(n) <= self.mem_budget_bytes:
            return 1.0
        return self.mem_over_budget_penalty

    def parallelize(self, estimate: "CostEstimate", n_workers: int) -> "CostEstimate":
        """Re-price a backend estimate for parallel execution.

        Query work divides by the predicted speedup — build work does
        not: the engine builds each structure once, in the parent,
        before any worker runs, so construction is serial regardless of
        worker count.  Each worker
        also pays a fixed dispatch overhead, which is what lets the
        planner conclude that a small join is cheaper serial.
        """
        if n_workers <= 1 or not estimate.feasible:
            return estimate
        return replace(
            estimate,
            query_ops=(
                estimate.query_ops / self.parallel_speedup(n_workers)
                + self.parallel_worker_overhead * n_workers
            ),
        )

    def lsh_plan(self, n: int, spec: JoinSpec):
        """A (k, L) plan for this instance, or ``None`` when underivable.

        Uses the hyperplane collision form (the scheme the engine
        auto-builds); thresholds are interpreted as cosines, clamped
        into the valid range, so out-of-range specs simply fall back to
        the generic candidate-fraction model instead of failing.
        """
        from repro.lsh.planner import plan
        from repro.lsh.rho import collision_prob_hyperplane

        try:
            s_ratio = min(abs(spec.s), 0.999)
            p1 = collision_prob_hyperplane(s_ratio)
            p2 = collision_prob_hyperplane(spec.c * s_ratio)
            return plan(max(n, 2), p1, p2)
        except ParameterError:
            return None

    def sketch_kappa(self, n: int, c: float) -> float:
        """The ``kappa`` for which ``n^{-1/kappa} = c``, clamped sane."""
        if n < 2 or not 0.0 < c < 1.0:
            return self.min_kappa
        kappa = math.log(n) / math.log(1.0 / c)
        return min(self.max_kappa, max(self.min_kappa, kappa))

    @classmethod
    def from_planner_log(cls, source) -> "CostModel":
        """Calibrate op weights from measured joins in a planner log.

        ``source`` is a :class:`~repro.obs.planner_log.PlannerLog` (or a
        path to one saved as JSONL).  Every record carries the instance
        shape, the backend that ran, measured wall seconds, and the
        join's work counters, which is enough to re-fit the signals the
        estimates are most sensitive to — missing signals leave
        defaults, so a log with only one backend still calibrates what
        it can:

        * ``brute_force`` records re-fit ``gemm_op`` from achieved
          multiply-adds per second (``n * m * d / wall``);
        * ``norm_pruned`` records re-fit ``norm_prefix_fraction`` from
          the fraction of the quadratic pair count actually evaluated;
        * ``lsh`` records re-fit ``lsh_candidate_fraction`` from
          candidates generated per (query, data) pair.
        """
        from repro.obs.planner_log import PlannerLog

        log = PlannerLog.load(source) if isinstance(source, (str, bytes)) else source
        updates: Dict[str, float] = {}
        gemm_rates = [
            r.n * r.m * r.d / r.wall_s
            for r in log
            if r.picked == "brute_force" and r.wall_s > 0
        ]
        if gemm_rates:
            # The best rate is the least noise-inflated estimate of
            # sustained GEMM throughput (slower runs include warm-up).
            updates["gemm_op"] = _REFERENCE_GEMM_OPS_PER_S / max(gemm_rates)
        prefix_fracs = [
            r.evaluated / (r.n * r.m)
            for r in log
            if r.picked == "norm_pruned" and r.evaluated > 0
        ]
        if prefix_fracs:
            updates["norm_prefix_fraction"] = min(
                1.0, sum(prefix_fracs) / len(prefix_fracs)
            )
        cand_fracs = [
            r.generated / (r.n * r.m)
            for r in log
            if r.picked == "lsh" and r.generated > 0
        ]
        if cand_fracs:
            updates["lsh_candidate_fraction"] = min(
                1.0, sum(cand_fracs) / len(cand_fracs)
            )
        if "gemm_op" in updates and updates["gemm_op"] > 0:
            # Weights are relative, GEMM is the unit.  The fraction
            # fields are dimensionless and stay as fitted.
            updates["gemm_op"] = 1.0
        return replace(cls(), **updates)

    def save(self, path: str) -> str:
        """Persist this model as JSON; returns the written path.

        The default location ``~/.repro/costmodel.json`` is what
        :func:`default_model` (hence ``backend="auto"``) picks up on the
        next process start.
        """
        payload = {"format": "repro-costmodel-v1", **asdict(self)}
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path

    @classmethod
    def load(cls, path: str) -> "CostModel":
        """Read a model written by :meth:`save` (unknown keys ignored)."""
        with open(path) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise ParameterError(f"{path}: cost model file must hold an object")
        known = {f.name for f in fields(cls)}
        kwargs = {}
        for key, value in payload.items():
            if key not in known:
                continue
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ParameterError(
                    f"{path}: field {key!r} must be a number, got {value!r}"
                )
            kwargs[key] = float(value)
        return cls(**kwargs)


#: The process-wide default model (uncalibrated).
DEFAULT_MODEL = CostModel()

#: Where :func:`default_model` looks for a persisted calibration unless
#: the ``REPRO_COSTMODEL`` environment variable overrides it.
DEFAULT_MODEL_PATH = os.path.join("~", ".repro", "costmodel.json")

#: One-entry cache for :func:`default_model`: (path, mtime_ns, model).
_MODEL_CACHE: Optional[tuple] = None


def default_model() -> CostModel:
    """The model ``backend="auto"`` uses when none is passed explicitly.

    Resolution order:

    1. ``REPRO_COSTMODEL`` set to a non-empty path — load that file;
    2. ``REPRO_COSTMODEL`` set but empty — the builtin
       :data:`DEFAULT_MODEL` (an explicit opt-out, used by the test
       suite for isolation from developer machines);
    3. unset — ``~/.repro/costmodel.json`` when present (written by
       :meth:`CostModel.save`, e.g. via ``tools/planner_report.py
       --write-model``).

    A missing or unreadable file silently falls back to the builtin
    defaults: a stale calibration must never break joins.  Loads are
    cached on ``(path, mtime)``, so the per-join cost is one ``stat``.
    """
    global _MODEL_CACHE
    env = os.environ.get("REPRO_COSTMODEL")
    if env is not None and not env:
        return DEFAULT_MODEL
    path = os.path.expanduser(env if env else DEFAULT_MODEL_PATH)
    try:
        mtime = os.stat(path).st_mtime_ns
    except OSError:
        return DEFAULT_MODEL
    cached = _MODEL_CACHE
    if cached is not None and cached[0] == path and cached[1] == mtime:
        return cached[2]
    try:
        model = CostModel.load(path)
    except (OSError, ValueError, ParameterError):
        return DEFAULT_MODEL
    _MODEL_CACHE = (path, mtime, model)
    return model


@dataclass(frozen=True)
class PlanEstimate:
    """Predicted cost of one candidate :class:`~repro.engine.plan.Plan`.

    ``stage_estimates`` holds one :class:`CostEstimate` per stage,
    evaluated on the point/query subset the model expects that stage to
    handle; the plan's total is their sum.  A plan is feasible only when
    every stage is.
    """

    plan: Plan
    stage_estimates: Tuple[CostEstimate, ...]
    feasible: bool
    reason: str = ""

    @property
    def backend(self) -> str:
        return self.plan.backend

    @property
    def total_ops(self) -> float:
        return sum(e.total_ops for e in self.stage_estimates)

    def amortized_ops(self, expected_queries: float) -> float:
        """Predicted cost of one build followed by ``expected_queries`` runs.

        Build work is paid once per session; per-query work is paid on
        every ``query()`` call.  At ``expected_queries=1`` this equals
        :attr:`total_ops` — the one-shot ranking — which is what keeps
        ``engine.join()`` bit-identical to its pre-session behavior.
        """
        return sum(
            e.build_ops + expected_queries * e.query_ops
            for e in self.stage_estimates
        )


@dataclass(frozen=True)
class JoinPlan:
    """The planner's ranked view of one join instance.

    ``plans`` ranks the full candidate set — one one-stage plan per
    registered backend, carrying that backend's feasibility and reason,
    plus the two-stage hybrids — and is what ``backend="auto"``
    executes.
    """

    n: int
    m: int
    d: int
    spec: JoinSpec
    plans: List[PlanEstimate] = field(default_factory=list)
    #: Queries the ranking amortized the build over (1 = one-shot).
    expected_queries: float = 1.0

    @property
    def feasible_plans(self) -> List[PlanEstimate]:
        return [p for p in self.plans if p.feasible]

    def _no_feasible_error(self) -> ParameterError:
        # Every backend's own reason, so the caller learns exactly what
        # ruled each one out rather than a bare "no feasible backend".
        detail = "; ".join(
            f"{p.backend}: {p.reason or 'infeasible'}"
            for p in self.plans
            if not p.feasible and not p.plan.is_multi_stage
        )
        return ParameterError(
            f"no feasible plan for the {self.spec.variant!r} variant on "
            f"(n={self.n}, m={self.m}, d={self.d}): {detail}"
        )

    @property
    def best_plan(self) -> PlanEstimate:
        feasible = self.feasible_plans
        if not feasible:
            raise self._no_feasible_error()
        return feasible[0]

    @property
    def backend(self) -> str:
        return self.best_plan.backend


def _hybrid_candidates(
    n: int, m: int, d: int, spec: JoinSpec, model: CostModel
) -> List[PlanEstimate]:
    """Score the two-stage hybrid shapes for this instance.

    Each hybrid's stage costs come from the member backends' own
    ``estimate_cost`` on the subset sizes the model expects: the
    norm-pruned prefix covers ``hybrid_prefix_fraction`` of the data
    with every query, the LSH tail covers the rest of the data for
    ``hybrid_tail_query_fraction`` of the queries, and the sketch
    fallback re-scans ``sketch_fallback_query_fraction`` of the queries
    exactly.
    """
    from repro.engine.measures import get_measure
    from repro.engine.registry import available_backends, get_backend

    # The two-stage shapes below (norm prefix, sketch fallback) are
    # inner-product constructions; other measures opt out through their
    # descriptor.
    if not get_measure(spec.measure).supports_hybrids:
        return []

    names = set(available_backends())
    candidates: List[PlanEstimate] = []

    # Norm-pruned prefix + LSH tail: threshold and top-k joins over a
    # splittable data set.
    if (
        spec.variant in ("join", "topk")
        and n >= 2
        and {"norm_pruned", "lsh"} <= names
    ):
        f = model.hybrid_prefix_fraction
        n_top = norm_split_size(n, f)
        m_tail = max(1, math.ceil(model.hybrid_tail_query_fraction * m))
        head = get_backend("norm_pruned").estimate_cost(n_top, m, d, spec, model)
        tail = get_backend("lsh").estimate_cost(n - n_top, m_tail, d, spec, model)
        infeasible = next((e for e in (head, tail) if not e.feasible), None)
        candidates.append(PlanEstimate(
            plan=norm_prefix_lsh_plan(prefix_fraction=f),
            stage_estimates=(head, tail),
            feasible=infeasible is None,
            reason=(
                f"{infeasible.backend} stage: {infeasible.reason}"
                if infeasible is not None else ""
            ),
        ))

    # Sketch + exact fallback: unsigned threshold joins with a gap.  The
    # sketch stage runs at the best approximation it can actually reach
    # (``kappa`` capped by the model, so ``c`` no stronger than
    # ``n^{-1/max_kappa}``), and the fallback patches whatever that
    # weaker ``c`` misses — so the sketch estimate is taken at the
    # achievable ``c``, not the caller's.  The 0.999 nudge keeps the
    # derived kappa strictly under the cap despite float rounding.
    if (
        spec.variant == "join"
        and not spec.signed
        and 0.0 < spec.c < 1.0
        and n >= 2
        and {"sketch", "brute_force"} <= names
    ):
        c_achievable = 0.999 * float(n) ** (-1.0 / model.max_kappa)
        spec_eff = replace(spec, c=min(spec.c, c_achievable))
        m_fall = max(1, math.ceil(model.sketch_fallback_query_fraction * m))
        propose = get_backend("sketch").estimate_cost(n, m, d, spec_eff, model)
        fallback = get_backend("brute_force").estimate_cost(
            n, m_fall, d, spec, model
        )
        infeasible = next(
            (e for e in (propose, fallback) if not e.feasible), None
        )
        candidates.append(PlanEstimate(
            plan=sketch_fallback_plan(
                sketch_options={"kappa": model.sketch_kappa(n, spec.c)},
            ),
            stage_estimates=(propose, fallback),
            feasible=infeasible is None,
            reason=(
                f"{infeasible.backend} stage: {infeasible.reason}"
                if infeasible is not None else ""
            ),
        ))

    return candidates


def plan_join(
    n: int,
    m: int,
    d: int,
    spec: JoinSpec,
    model: Optional[CostModel] = None,
    include_hybrids: bool = True,
    n_workers: int = 1,
    expected_queries: float = 1.0,
) -> JoinPlan:
    """Rank every candidate plan for an ``(n, d) x (m, d)`` instance.

    Feasible plans come first, cheapest first (ties broken by
    registration order — exact backends register before probabilistic
    ones, and single-stage plans before hybrids, so a tie resolves to
    the stronger guarantee and the simpler plan); infeasible ones
    follow, carrying their reasons for diagnostics.
    ``include_hybrids=False`` restricts the ranking to single-stage
    plans (the engine does this when backend-specific options were
    passed, since those bind to one backend).

    With ``n_workers > 1`` every estimate is re-priced through
    :meth:`CostModel.parallelize` — query work divides by the predicted
    parallel speedup while build work stays serial — so ``auto`` ranks
    backends under the execution mode that will actually run (a
    build-heavy backend looks relatively worse parallel, where its
    construction cannot be amortized across workers).

    ``expected_queries`` amortizes build cost the other way: a session
    that will answer ~k query batches against one prepared structure
    ranks plans by ``build_ops + k * query_ops``, so a backend with an
    expensive build but cheap queries (an LSH index, a norm-sorted scan)
    beats brute force once k is large even though it loses the one-shot
    comparison.  ``m`` should then be the *per-batch* query count, not
    the lifetime total.  The default of 1 is exactly the historical
    one-shot ranking.
    """
    from repro.engine.registry import (
        available_backends,
        capability_gap,
        get_backend,
    )

    if n < 1 or m < 1 or d < 1:
        raise ParameterError(
            f"instance shape must be positive, got n={n}, m={m}, d={d}"
        )
    if expected_queries < 1:
        raise ParameterError(
            f"expected_queries must be >= 1, got {expected_queries}"
        )
    model = model or default_model()
    # A backend outside the spec's capability cell is priced infeasible
    # with the gate's reason, without being asked for an estimate.
    estimates = []
    for name in available_backends():
        gap = capability_gap(name, spec)
        estimates.append(
            CostEstimate(backend=name, feasible=False, reason=gap)
            if gap is not None
            else get_backend(name).estimate_cost(n, m, d, spec, model)
        )
    plans = [
        PlanEstimate(
            plan=Plan.single(e.backend),
            stage_estimates=(e,),
            feasible=e.feasible,
            reason=e.reason,
        )
        for e in estimates
    ]
    if include_hybrids:
        plans.extend(_hybrid_candidates(n, m, d, spec, model))
    if n_workers > 1:
        plans = [
            replace(
                p,
                stage_estimates=tuple(
                    model.parallelize(e, n_workers) for e in p.stage_estimates
                ),
            )
            for p in plans
        ]
    eq = float(expected_queries)
    plan_order = sorted(
        range(len(plans)),
        key=lambda i: (not plans[i].feasible, plans[i].amortized_ops(eq), i),
    )
    return JoinPlan(
        n=n, m=m, d=d, spec=spec,
        plans=[plans[i] for i in plan_order],
        expected_queries=eq,
    )
