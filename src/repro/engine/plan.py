"""The Plan IR: what the engine executes.

A :class:`Plan` is an ordered list of :class:`Stage`\\ s.  Each stage
binds a backend name, the resolved options its ``prepare`` will receive,
and a *partition rule* describing which part of the instance it answers:

* ``points``: the data subset the stage's structure is built over —
  ``"all"``, or a norm-threshold split of ``P`` (``"norm_top"`` /
  ``"norm_tail"`` with a ``fraction``: the top/remaining ``ceil(f * n)``
  rows by decreasing Euclidean norm);
* ``queries``: the query subset the stage answers — ``"all"``, or
  ``"unanswered"`` (queries no prior stage matched), the fallback rule.

Single-backend joins are the one-stage special case
(:meth:`Plan.single`): every request through :func:`repro.engine.join`
normalizes to a Plan, and a one-stage all-points/all-queries Plan runs
the exact pre-IR dispatch path, bit for bit.

Multi-stage execution (see :mod:`repro.engine.api`) walks the stages in
order under one :class:`~repro.core.problems.JoinResult`: each stage
reuses the backend ``prepare``/``run_chunk`` contract on its point/query
subset, the unanswered-query mask flows to the next stage, and matches
whose stage ran under a *weaker* final spec (the sketch backend
substitutes its own ``c``) are re-verified against the caller's ``cs``
before a query counts as answered.  Because the mask is computed from
fully merged stage results, serial and parallel execution stay
bit-identical stage by stage.

The two hybrid shapes the planner scores (:func:`norm_prefix_lsh_plan`,
:func:`sketch_fallback_plan`) mirror the paper's structure: the
LEMP-style exact scan dominates on the high-norm head of the data while
Section 4's LSH wins on the tail, and the Section 4.3 sketch join needs
an exact fallback for queries its recovery descent misses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Tuple

import numpy as np

from repro.core.norm_pruning import norm_order
from repro.errors import ParameterError

#: Valid query-partition rules.
QUERY_RULES = ("all", "unanswered")
#: Valid point-partition rules.
POINT_RULES = ("all", "norm_top", "norm_tail")


@dataclass(frozen=True)
class Stage:
    """One step of a :class:`Plan`: a backend on a point/query subset.

    ``options`` are forwarded to the backend's ``prepare`` verbatim;
    ``fraction`` is required exactly when ``points`` is a norm split.
    """

    backend: str
    options: Mapping = field(default_factory=dict)
    queries: str = "all"
    points: str = "all"
    fraction: Optional[float] = None
    label: str = ""

    def __post_init__(self):
        if not self.backend:
            raise ParameterError("stage backend name must be non-empty")
        if self.queries not in QUERY_RULES:
            raise ParameterError(
                f"stage query rule must be one of {QUERY_RULES}, "
                f"got {self.queries!r}"
            )
        if self.points not in POINT_RULES:
            raise ParameterError(
                f"stage point rule must be one of {POINT_RULES}, "
                f"got {self.points!r}"
            )
        if self.points == "all":
            if self.fraction is not None:
                raise ParameterError(
                    "fraction only applies to norm-split point rules"
                )
        else:
            if self.fraction is None or not 0.0 < self.fraction < 1.0:
                raise ParameterError(
                    f"norm-split stages need a fraction in (0, 1), "
                    f"got {self.fraction!r}"
                )

    @property
    def is_partitioned(self) -> bool:
        """Does this stage run on a proper subset of points or queries?"""
        return self.points != "all" or self.queries != "all"


@dataclass(frozen=True)
class Plan:
    """An ordered sequence of stages answering one join under one result."""

    stages: Tuple[Stage, ...]

    def __post_init__(self):
        if not self.stages:
            raise ParameterError("a plan needs at least one stage")
        stages = tuple(self.stages)
        if any(not isinstance(stage, Stage) for stage in stages):
            raise ParameterError("plan stages must be Stage instances")
        object.__setattr__(self, "stages", stages)

    @property
    def backend(self) -> str:
        """The composite name reported on results: stage names joined by ``+``."""
        return "+".join(stage.backend for stage in self.stages)

    @property
    def is_multi_stage(self) -> bool:
        return len(self.stages) > 1

    @classmethod
    def single(cls, backend: str, options: Optional[Mapping] = None) -> "Plan":
        """The one-stage special case every plain ``backend=`` call becomes."""
        return cls(stages=(Stage(backend=backend, options=dict(options or {})),))


def norm_prefix_lsh_plan(
    prefix_fraction: float = 0.2,
    prefix_options: Optional[Mapping] = None,
    tail_options: Optional[Mapping] = None,
) -> Plan:
    """Hybrid shape 1: exact LEMP-style scan of the high-norm head, LSH tail.

    Stage 1 builds a norm-pruned scan over the top ``prefix_fraction`` of
    the data by norm and answers every query exactly against that head;
    stage 2 builds an LSH index over the remaining tail and answers only
    the queries the head left unanswered.
    """
    return Plan(stages=(
        Stage(
            backend="norm_pruned",
            options=dict(prefix_options or {}),
            points="norm_top",
            fraction=prefix_fraction,
            label="prefix",
        ),
        Stage(
            backend="lsh",
            options=dict(tail_options or {}),
            queries="unanswered",
            points="norm_tail",
            fraction=prefix_fraction,
            label="tail",
        ),
    ))


def sketch_fallback_plan(
    sketch_options: Optional[Mapping] = None,
    fallback_backend: str = "brute_force",
    fallback_options: Optional[Mapping] = None,
) -> Plan:
    """Hybrid shape 2: the Section 4.3 sketch join with an exact fallback.

    Stage 1 runs the sketch join over the full data; because the sketch
    substitutes its own (typically weaker) ``c``, the engine re-verifies
    its matches against the caller's ``cs``, and stage 2 answers the
    remaining queries with an exact scan — so the matched-query set
    equals the exact join's.
    """
    return Plan(stages=(
        Stage(
            backend="sketch",
            options=dict(sketch_options or {}),
            label="sketch",
        ),
        Stage(
            backend=fallback_backend,
            options=dict(fallback_options or {}),
            queries="unanswered",
            label="fallback",
        ),
    ))


def norm_split_size(n: int, fraction: float) -> int:
    """Rows in the ``norm_top`` side of a norm split (at least 1, at most n-1)."""
    if n < 2:
        raise ParameterError(
            f"norm-split stages need at least two data vectors, got {n}"
        )
    return max(1, min(n - 1, math.ceil(fraction * n)))


def norm_partition(P, fraction: float) -> Tuple[np.ndarray, np.ndarray]:
    """Split ``P`` into (top, tail) global index arrays by decreasing norm.

    Splits :func:`~repro.core.norm_pruning.norm_order`, the order
    :class:`~repro.core.norm_pruning.NormScanIndex` walks, so the split
    is deterministic under ties and the top rows are the walk's first
    rows.  Both halves are returned *sorted* (data subsets keep their
    original relative order), which keeps subset scans deterministic and
    makes local->global index remapping a plain gather.
    """
    _, order = norm_order(P)
    n_top = norm_split_size(P.shape[0], fraction)
    return np.sort(order[:n_top]), np.sort(order[n_top:])


def plan_point_indices(the_plan: Plan, P) -> List[Optional[np.ndarray]]:
    """Global data indices each stage's structure is built over.

    ``None`` means the full data set (no gather, no remapping) — the
    one-stage fast path relies on this being exactly the input ``P``.
    Stages that split ``P`` at the same fraction share one
    :func:`norm_partition`, so a norm-prefix hybrid sorts ``P`` by norm
    once per plan walk.
    """
    splits = {}
    parts: List[Optional[np.ndarray]] = []
    for stage in the_plan.stages:
        if stage.points == "all":
            parts.append(None)
            continue
        if stage.fraction not in splits:
            splits[stage.fraction] = norm_partition(P, stage.fraction)
        top, tail = splits[stage.fraction]
        parts.append(top if stage.points == "norm_top" else tail)
    return parts
