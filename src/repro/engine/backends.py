"""The four built-in join backends behind ``repro.engine.join``.

Each backend adapts one existing kernel family to the
:class:`~repro.engine.protocol.JoinBackend` contract:

* ``brute_force`` — the exact blocked all-pairs scan
  (:mod:`repro.core.brute_force`, :mod:`repro.core.topk`); answers every
  variant.
* ``norm_pruned`` — the LEMP-style Cauchy-Schwarz prefix scan
  (:mod:`repro.core.norm_pruning`); exact, threshold and top-k joins.
* ``lsh`` — filter-then-verify through an
  :class:`~repro.lsh.index.LSHIndex`; threshold, top-k and self
  variants.
* ``sketch`` — the Section 4.3 linear-sketch join
  (:mod:`repro.core.sketch_join`); unsigned threshold and self joins,
  with the structure's own ``c = n^{-1/kappa}``.

``lsh`` and ``sketch`` (and ``quantized`` and ``ip_filter``,
:mod:`repro.quant.backend`) differ only in their candidate generator:
every chunk runs the one candidate -> score -> answer pipeline of
:mod:`repro.core.lsh_join`.

Each backend declares the spec variants it answers (``variants``) and
the similarity measures it speaks (``measures``, default ``("ip",)`` —
all four of these are inner-product backends); the registry crosses the
two into the ``(measure, variant)`` capability table, which the engine
checks once (:func:`repro.engine.registry.capability_gap`) before any
backend method runs.  The Jaccard set-join backends live in
:mod:`repro.engine.set_backends`.

The *structures* here are small picklable dataclasses wrapping either a
built index or the recipe to build one; the stage's final spec and
verify block reach ``run_chunk`` as arguments.  The engine calls
``payload.build(P)`` once, in the calling process, right after
``prepare`` (:func:`~repro.engine.execute.prepare_stage`); the executor
and its workers only ever see the built structure, so any seed (an
integer or a numpy ``Generator``) gives the same answers at every
worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional

from repro.core.problems import JoinSpec, QueryStats
from repro.engine.protocol import ChunkResult, CostEstimate, JoinBackend
from repro.errors import ParameterError

#: Default shape for auto-built LSH indexes (hyperplane scheme: valid on
#: any data, unlike SIMPLE-LSH's unit-ball requirement); an explicit
#: ``n_tables`` / ``hashes_per_table`` overrides either.
DEFAULT_AUTO_TABLES = 16
DEFAULT_AUTO_BITS = 12


# ---------------------------------------------------------------------------
# brute_force


class BruteForceBackend(JoinBackend):
    """Exact blocked all-pairs scan; the reference answer for every variant.

    It builds nothing, so its payload is ``None``.
    """

    name = "brute_force"
    variants = ("join", "topk", "self")

    def prepare(self, P, spec, *, seed=None, **options):
        if options:
            raise ParameterError(
                f"brute_force takes no extra options, got {sorted(options)}"
            )
        return None, spec

    def run_chunk(self, structure, P, Q_chunk, start, spec, block):
        from repro.core.brute_force import brute_force_chunk
        from repro.core.topk import topk_chunk

        if spec.is_topk:
            out = topk_chunk(P, Q_chunk, spec.signed, spec.cs, spec.k, block)
        else:
            out = brute_force_chunk(
                P, Q_chunk, spec.signed, spec.cs, block,
                start if spec.is_self else None, spec.match_duplicates,
            )
        return ChunkResult.from_answers(spec, *out)

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
    """Norm-sorted prefix-scan index, built lazily."""

    scan_block: int
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

    def prepare(self, P, spec, *, seed=None, scan_block: int = 256,
                **options):
        if options:
            raise ParameterError(
                f"norm_pruned takes only scan_block, got {sorted(options)}"
            )
        if scan_block < 1:
            raise ParameterError(f"scan_block must be >= 1, got {scan_block}")
        return NormStructure(scan_block=scan_block), spec

    def run_chunk(self, structure, P, Q_chunk, start, spec, block):
        from repro.core.norm_pruning import norm_scan_chunk

        out = norm_scan_chunk(
            structure.index, Q_chunk, spec.signed, spec.cs,
            structure.scan_block, block, spec.k,
        )
        return ChunkResult.from_answers(spec, *out)

    def estimate_cost(self, n, m, d, spec, model):
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
    """An :class:`~repro.lsh.index.LSHIndex`, prebuilt or built lazily.

    Either ``index`` is set (used as-is) or ``family`` with the table
    shape and seed, which :meth:`build` turns into an index over ``P``.
    """

    n_probes: int
    index: Any = None
    family: Any = None
    n_tables: int = 16
    hashes_per_table: int = 4
    seed: Any = None

    def build(self, P):
        if self.index is None:
            from repro.lsh.index import LSHIndex

            self.index = LSHIndex(
                self.family,
                n_tables=self.n_tables,
                hashes_per_table=self.hashes_per_table,
                seed=self.seed,
            ).build(P)
        return self


class LSHBackend(JoinBackend):
    """Filter-then-verify through an LSH index (prebuilt or built here).

    ``index=`` serves a prebuilt :class:`~repro.lsh.index.LSHIndex`
    as-is, so ``family``, ``n_tables`` and ``hashes_per_table`` raise
    beside it.  Otherwise the index is built in the given shape, over
    ``family`` (default 16 tables x 4 bits) or, without one, over a
    hyperplane family (default 16 x 12).
    """

    name = "lsh"
    variants = ("join", "topk", "self")

    def prepare(self, P, spec, *, seed=None, index=None, family=None,
                n_tables: Optional[int] = None,
                hashes_per_table: Optional[int] = None,
                n_probes: int = 0, **options):
        if options:
            raise ParameterError(
                f"unknown lsh options: {sorted(options)} (valid: index, "
                f"family, n_tables, hashes_per_table, n_probes)"
            )
        if n_probes and spec.variant != "join":
            raise ParameterError(
                "multiprobe (n_probes) is only supported for threshold joins"
            )
        if index is not None:
            shape = (family, n_tables, hashes_per_table)
            if any(v is not None for v in shape):
                raise ParameterError(
                    "family, n_tables and hashes_per_table shape an index "
                    "to build; a prebuilt index= already has its own"
                )
            return LSHStructure(n_probes=n_probes, index=index), spec
        tables, bits = 16, 4
        if family is None:
            # No index source given: auto-build a hyperplane index (valid
            # on any data domain, unlike SIMPLE-LSH's unit ball).
            from repro.lsh.hyperplane import HyperplaneLSH

            family = HyperplaneLSH(P.shape[1])
            tables, bits = DEFAULT_AUTO_TABLES, DEFAULT_AUTO_BITS
            seed = 0 if seed is None else seed
        return (
            LSHStructure(
                family=family,
                n_tables=tables if n_tables is None else n_tables,
                hashes_per_table=bits if hashes_per_table is None
                else hashes_per_table,
                seed=seed, n_probes=n_probes,
            ),
            spec,
        )

    def run_chunk(self, structure, P, Q_chunk, start, spec, block):
        from repro.core.lsh_join import lsh_candidates, pipeline_chunk

        index = structure.index
        # A reused index keeps counting: report only this chunk's delta.
        before = index.stats.copy()
        answers, evaluated = pipeline_chunk(
            lsh_candidates(index, Q_chunk, structure.n_probes),
            P, Q_chunk, spec, block, start,
        )
        delta = index.stats.diff(before)
        return ChunkResult.from_answers(
            spec, answers, evaluated, delta.candidates, delta
        )

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

    def prepare(self, P, spec, *, seed=None, structure=None,
                kappa: float = 4.0, copies: int = 7, leaf_size: int = 8,
                **options):
        if options:
            raise ParameterError(
                f"unknown sketch options: {sorted(options)} (valid: "
                f"structure, kappa, copies, leaf_size)"
            )
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
            payload = SketchStructure(structure=structure)
        else:
            from repro.sketches.stable import norm_ratio_bound

            c = 1.0 / norm_ratio_bound(P.shape[0], float(kappa))
            payload = SketchStructure(
                kappa=kappa, copies=copies, leaf_size=leaf_size, seed=seed,
            )
        # The sketch answers with its own approximation factor, not the
        # caller's nominal c; the result spec records what was guaranteed.
        final = JoinSpec(
            s=spec.s, c=min(c, 1.0), signed=False,
            self_join=spec.self_join, match_duplicates=spec.match_duplicates,
        )
        return payload, final

    def run_chunk(self, structure, P, Q_chunk, start, spec, block):
        from repro.core.lsh_join import pipeline_chunk
        from repro.core.sketch_join import sketch_candidates

        sketch = structure.structure
        answers, _ = pipeline_chunk(
            sketch_candidates(sketch, Q_chunk, start, spec.is_self),
            P, Q_chunk, spec, block, start,
        )
        # Work is the descent's cost per query; one proposal per query.
        mc = Q_chunk.shape[0]
        per_query = sketch.recovery.query_cost() // max(1, P.shape[1])
        stats = QueryStats(queries=mc, candidates=mc, unique_candidates=mc)
        return ChunkResult.from_answers(spec, answers, per_query * mc, mc, stats)

    def estimate_cost(self, n, m, d, spec, model):
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
