"""The four built-in join backends behind ``repro.engine.join``.

Each backend adapts one existing kernel family to the
:class:`~repro.engine.protocol.JoinBackend` contract:

* ``brute_force`` — the exact blocked all-pairs scan
  (:mod:`repro.core.brute_force`, :mod:`repro.core.topk`,
  :mod:`repro.core.self_join`); answers every variant.
* ``norm_pruned`` — the LEMP-style Cauchy-Schwarz prefix scan
  (:mod:`repro.core.norm_pruning`); exact, threshold and top-k joins.
* ``lsh`` — filter-then-verify through any candidates-providing index
  (:mod:`repro.core.lsh_join`); threshold, top-k and self variants.
* ``sketch`` — the Section 4.3 linear-sketch join
  (:mod:`repro.core.sketch_join`); unsigned threshold and self joins,
  with the structure's own ``c = n^{-1/kappa}``.

Each backend declares the spec variants it answers (``variants``) and
the similarity measures it speaks (``measures``, default ``("ip",)`` —
all four of these are inner-product backends); the registry crosses the
two into the ``(measure, variant)`` capability matrix
(:func:`repro.engine.registry.backends_for`) so the planner only
assembles plans whose stages can actually serve the request.  The
Jaccard set-join backends live in :mod:`repro.engine.set_backends`.

The *structures* here are small picklable dataclasses wrapping either a
built index or the recipe to build one: the executor's worker
initializer calls ``payload.build(P)``, so a structure with a pending
recipe is rebuilt (deterministically, from its integer seed) inside each
worker, while a structure wrapping a prebuilt index ships it as-is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional, Tuple

import numpy as np

from repro.core.executor import BatchIndexSpec
from repro.core.problems import JoinSpec
from repro.engine.protocol import ChunkResult, CostEstimate, JoinBackend
from repro.errors import ParameterError

#: Default shape for auto-built LSH indexes (hyperplane scheme: valid on
#: any data, unlike SIMPLE-LSH's unit-ball requirement).
DEFAULT_AUTO_TABLES = 16
DEFAULT_AUTO_BITS = 12


def _concrete_seed(seed, who: str) -> int:
    if seed is None or not isinstance(seed, (int, np.integer)):
        raise ParameterError(
            f"{who} needs a concrete integer seed for reproducible "
            f"(re)builds, got {type(seed).__name__}"
        )
    return int(seed)


def _require_variant(spec: JoinSpec, backend: str, allowed: Tuple[str, ...]):
    if spec.variant not in allowed:
        raise ParameterError(
            f"backend {backend!r} does not answer the {spec.variant!r} "
            f"variant (supported: {', '.join(allowed)})"
        )


# ---------------------------------------------------------------------------
# brute_force


@dataclass
class BruteStructure:
    """No index: the exact scan needs only the spec and a block size."""

    spec: JoinSpec
    block: int


class BruteForceBackend(JoinBackend):
    """Exact blocked all-pairs scan; the reference answer for every variant."""

    name = "brute_force"
    variants = ("join", "topk", "self")

    def prepare(self, P, spec, *, seed=None, block, n_workers=1, **options):
        if options:
            raise ParameterError(
                f"brute_force takes no extra options, got {sorted(options)}"
            )
        return BruteStructure(spec=spec, block=block), spec

    def run_chunk(self, structure, P, Q_chunk, start):
        from repro.core.brute_force import brute_force_chunk
        from repro.core.self_join import self_scan_chunk
        from repro.core.topk import topk_chunk

        spec, block = structure.spec, structure.block
        if spec.is_topk:
            lists, evaluated, generated, stats = topk_chunk(
                P, Q_chunk, spec.signed, spec.cs, spec.k, block
            )
            matches = [int(lst[0]) if lst else None for lst in lists]
            return ChunkResult(matches, evaluated, generated, stats, topk=lists)
        if spec.is_self:
            matches, evaluated, generated, stats = self_scan_chunk(
                P, Q_chunk, start, spec.signed, spec.cs,
                spec.match_duplicates, block,
            )
        else:
            matches, evaluated, generated, stats = brute_force_chunk(
                P, Q_chunk, spec.signed, spec.cs, block
            )
        return ChunkResult(matches, evaluated, generated, stats)

    def estimate_cost(self, n, m, d, spec, model):
        scan = n * m * d * model.gemm_op
        scan *= model.memory_factor(8.0 * d, n)
        return CostEstimate(
            backend=self.name,
            feasible=True,
            build_ops=0.0,
            query_ops=scan + m * model.row_op,
        )


# ---------------------------------------------------------------------------
# norm_pruned


@dataclass
class NormStructure:
    """Norm-sorted prefix-scan index, built lazily (per worker if needed)."""

    spec: JoinSpec
    scan_block: int
    block: int
    index: Any = None

    def build(self, P):
        if self.index is None:
            from repro.core.norm_pruning import NormScanIndex

            self.index = NormScanIndex(P)
        return self


class NormPrunedBackend(JoinBackend):
    """Exact Cauchy-Schwarz prefix scan (LEMP-style); threshold and top-k."""

    name = "norm_pruned"
    variants = ("join", "topk")

    def prepare(self, P, spec, *, seed=None, block, n_workers=1,
                scan_block: int = 256, **options):
        if options:
            raise ParameterError(
                f"norm_pruned takes only scan_block, got {sorted(options)}"
            )
        _require_variant(spec, self.name, self.variants)
        return NormStructure(spec=spec, scan_block=scan_block, block=block), spec

    def run_chunk(self, structure, P, Q_chunk, start):
        from repro.core.norm_pruning import norm_scan_chunk, norm_scan_topk_chunk

        spec = structure.spec
        if spec.is_topk:
            lists, evaluated, generated, stats = norm_scan_topk_chunk(
                structure.index, Q_chunk, spec.signed, spec.cs, spec.k,
                structure.scan_block, structure.block,
            )
            matches = [int(lst[0]) if lst else None for lst in lists]
            return ChunkResult(matches, evaluated, generated, stats, topk=lists)
        matches, evaluated, generated, stats = norm_scan_chunk(
            structure.index, Q_chunk, spec.signed, spec.cs,
            structure.scan_block, structure.block,
        )
        return ChunkResult(matches, evaluated, generated, stats)

    def estimate_cost(self, n, m, d, spec, model):
        if spec.variant not in self.variants:
            return CostEstimate(
                backend=self.name, feasible=False,
                reason=f"no {spec.variant} variant",
            )
        build = model.norm_fixed_build + n * d * model.gemm_op
        build += n * math.log2(max(n, 2)) * model.row_op / 64.0
        query = (
            model.norm_prefix_fraction * n * m * d * model.gemm_op
            * model.memory_factor(8.0 * d, n)
            + m * model.row_op
        )
        return CostEstimate(
            backend=self.name, feasible=True, build_ops=build, query_ops=query
        )


# ---------------------------------------------------------------------------
# lsh


@dataclass
class LSHStructure:
    """A candidates-providing index, prebuilt or described by a recipe.

    Exactly one of ``index`` (used as-is), ``index_spec`` (a
    :class:`~repro.core.executor.BatchIndexSpec`-style recipe) or
    ``family`` (+ shape/seed, rebuilt as a classic
    :class:`~repro.lsh.index.LSHIndex`) is set; :meth:`build` resolves
    the pending forms, in the parent for serial runs and inside each
    worker for parallel ones.
    """

    spec: JoinSpec
    n_probes: int
    block: int
    index: Any = None
    index_spec: Any = None
    family: Any = None
    n_tables: int = 16
    hashes_per_table: int = 4
    seed: Any = None

    def build(self, P):
        if self.index is None:
            if self.index_spec is not None:
                self.index = self.index_spec.build(P)
            else:
                from repro.lsh.index import LSHIndex

                self.index = LSHIndex(
                    self.family,
                    n_tables=self.n_tables,
                    hashes_per_table=self.hashes_per_table,
                    seed=self.seed,
                ).build(P)
        return self


class LSHBackend(JoinBackend):
    """Filter-then-verify through any candidates-providing index."""

    name = "lsh"
    variants = ("join", "topk", "self")

    def prepare(self, P, spec, *, seed=None, block, n_workers=1,
                index=None, index_spec=None, family=None,
                n_tables: int = 16, hashes_per_table: int = 4,
                n_probes: int = 0, **options):
        if options:
            raise ParameterError(
                f"unknown lsh options: {sorted(options)} (valid: index, "
                f"index_spec, family, n_tables, hashes_per_table, n_probes)"
            )
        _require_variant(spec, self.name, self.variants)
        if n_probes and spec.variant != "join":
            raise ParameterError(
                "multiprobe (n_probes) is only supported for threshold joins"
            )
        # Precedence: a prebuilt index wins, then a rebuildable recipe,
        # then a family to index with.
        common = dict(spec=spec, n_probes=n_probes, block=block)
        if index is not None:
            return LSHStructure(index=index, **common), spec
        if index_spec is not None:
            return LSHStructure(index_spec=index_spec, **common), spec
        if family is not None:
            if n_workers > 1:
                seed = _concrete_seed(seed, "parallel lsh with a family")
            return (
                LSHStructure(
                    family=family, n_tables=n_tables,
                    hashes_per_table=hashes_per_table, seed=seed, **common,
                ),
                spec,
            )
        # No index source given: auto-build a batch hyperplane index
        # (valid on any data domain, unlike SIMPLE-LSH's unit ball).
        auto = BatchIndexSpec(
            d=P.shape[1],
            scheme="hyperplane",
            n_tables=DEFAULT_AUTO_TABLES,
            bits_per_table=DEFAULT_AUTO_BITS,
            seed=0 if seed is None else _concrete_seed(seed, "auto-built lsh index"),
        )
        return LSHStructure(index_spec=auto, **common), spec

    def run_chunk(self, structure, P, Q_chunk, start):
        from repro.core.lsh_join import lsh_filter_verify_chunk
        from repro.core.self_join import lsh_self_chunk
        from repro.core.topk import lsh_topk_chunk

        spec, block = structure.spec, structure.block
        index = structure.index
        if spec.is_topk:
            lists, evaluated, generated, stats = lsh_topk_chunk(
                index, P, Q_chunk, spec.signed, spec.cs, spec.k, block
            )
            matches = [int(lst[0]) if lst else None for lst in lists]
            return ChunkResult(matches, evaluated, generated, stats, topk=lists)
        if spec.is_self:
            matches, evaluated, generated, stats = lsh_self_chunk(
                index, P, Q_chunk, start, spec.signed, spec.cs,
                spec.match_duplicates, block,
            )
        else:
            matches, evaluated, generated, stats = lsh_filter_verify_chunk(
                index, P, Q_chunk, spec.signed, spec.cs,
                structure.n_probes, block,
            )
        return ChunkResult(matches, evaluated, generated, stats)

    def estimate_cost(self, n, m, d, spec, model):
        if spec.c >= 1.0:
            return CostEstimate(
                backend=self.name, feasible=False,
                reason="no approximation gap (c = 1): LSH filtering "
                       "cannot guarantee exact answers",
            )
        plan = model.lsh_plan(n, spec)
        if plan is not None:
            tables, bits = plan.n_tables, plan.k
            cand_per_query = min(float(n), plan.expected_false_candidates)
        else:
            tables, bits = DEFAULT_AUTO_TABLES, DEFAULT_AUTO_BITS
            cand_per_query = model.lsh_candidate_fraction * n
        build = (
            model.lsh_fixed_build
            + n * tables * bits * d * model.hash_op / 64.0
            + n * tables * model.candidate_op
        )
        query = (
            m * tables * bits * d * model.hash_op / 64.0
            + m * cand_per_query * (d * model.gemm_op + model.candidate_op)
            + m * model.row_op
        )
        return CostEstimate(
            backend=self.name, feasible=True, build_ops=build, query_ops=query
        )


# ---------------------------------------------------------------------------
# sketch


@dataclass
class SketchStructure:
    """A Section 4.3 c-MIPS sketch structure, prebuilt or built lazily."""

    spec: JoinSpec
    block: int
    structure: Any = None
    kappa: float = 4.0
    copies: int = 7
    leaf_size: int = 8
    seed: Any = None

    def build(self, P):
        if self.structure is None:
            from repro.sketches.cmips import SketchCMIPS

            self.structure = SketchCMIPS(
                P, kappa=self.kappa, copies=self.copies,
                leaf_size=self.leaf_size, seed=self.seed,
            )
        return self


class SketchBackend(JoinBackend):
    """The Section 4.3 linear-sketch join; unsigned threshold and self joins."""

    name = "sketch"
    variants = ("join", "self")

    def prepare(self, P, spec, *, seed=None, block, n_workers=1,
                structure=None, kappa: float = 4.0, copies: int = 7,
                leaf_size: int = 8, **options):
        if options:
            raise ParameterError(
                f"unknown sketch options: {sorted(options)} (valid: "
                f"structure, kappa, copies, leaf_size)"
            )
        _require_variant(spec, self.name, self.variants)
        if spec.signed:
            raise ParameterError(
                "the sketch join is unsigned-only (Section 4.3 recovers "
                "|inner product|)"
            )
        if spec.is_self and not spec.match_duplicates:
            raise ParameterError(
                "the sketch self-join masks identical pairs by index "
                "inside the recovery descent; it cannot also exclude "
                "duplicate rows (match_duplicates=False)"
            )
        if structure is not None:
            c = structure.approximation_factor
            payload = SketchStructure(spec=spec, block=block, structure=structure)
        else:
            from repro.sketches.stable import norm_ratio_bound

            c = 1.0 / norm_ratio_bound(P.shape[0], float(kappa))
            if n_workers > 1:
                seed = _concrete_seed(seed, "parallel sketch join")
            payload = SketchStructure(
                spec=spec, block=block, kappa=kappa, copies=copies,
                leaf_size=leaf_size, seed=seed,
            )
        # The sketch answers with its own approximation factor, not the
        # caller's nominal c; the result spec records what was guaranteed.
        final = JoinSpec(
            s=spec.s, c=min(c, 1.0), signed=False,
            self_join=spec.self_join, match_duplicates=spec.match_duplicates,
        )
        payload.spec = final
        return payload, final

    def run_chunk(self, structure, P, Q_chunk, start):
        from repro.core.sketch_join import (
            sketch_filter_verify_chunk,
            sketch_self_chunk,
        )

        spec = structure.spec
        if spec.is_self:
            matches, evaluated, generated, stats = sketch_self_chunk(
                structure.structure, P, Q_chunk, start, spec.cs,
                structure.block,
            )
        else:
            matches, evaluated, generated, stats = sketch_filter_verify_chunk(
                structure.structure, P, Q_chunk, spec.cs, structure.block
            )
        return ChunkResult(matches, evaluated, generated, stats)

    def estimate_cost(self, n, m, d, spec, model):
        if spec.variant not in self.variants:
            return CostEstimate(
                backend=self.name, feasible=False,
                reason=f"no {spec.variant} variant",
            )
        if spec.signed:
            return CostEstimate(
                backend=self.name, feasible=False,
                reason="unsigned joins only",
            )
        if spec.c >= 1.0:
            return CostEstimate(
                backend=self.name, feasible=False,
                reason="no approximation gap (c = 1)",
            )
        # The sketch's approximation is c = n^{-1/kappa}: reaching the
        # caller's c needs kappa = ln(n) / ln(1/c), and the model caps
        # the kappa it will spend (query time grows as n^{1-2/kappa}).
        required = math.log(max(n, 2)) / math.log(1.0 / spec.c)
        if required > model.max_kappa:
            achievable = float(max(n, 2)) ** (-1.0 / model.max_kappa)
            return CostEstimate(
                backend=self.name, feasible=False,
                reason=(
                    f"c = {spec.c:g} needs kappa = {required:.1f} > "
                    f"max_kappa = {model.max_kappa:g} at n = {n} "
                    f"(achievable c = {achievable:.3g})"
                ),
            )
        kappa = model.sketch_kappa(n, spec.c)
        copies = 7
        build = (
            model.sketch_fixed_build
            + copies * d * float(n) ** (2.0 - 2.0 / kappa) * model.gemm_op
        )
        query = m * (
            copies * d * float(n) ** (1.0 - 2.0 / kappa) * model.gemm_op
            + d * model.gemm_op
            + model.row_op
        )
        return CostEstimate(
            backend=self.name, feasible=True, build_ops=build, query_ops=query
        )
