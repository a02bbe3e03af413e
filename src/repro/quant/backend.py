"""Engine adapters for the compact tier.

``quantized`` is an *exact* backend over an 8x-smaller index: the int8
scan kernel over-approximates the match set via its analytic error
bound, then exact float64 GEMM verifies the survivors — so its results
are bit-identical to ``brute_force`` while the scan itself touches one
byte per coordinate.  ``ip_filter`` is the Pagh-Sivertsen-style sketch
filter: its sketches propose a survivor block per chunk, and exact
float64 products decide which survivors match (approximate recall,
exact precision).  Both are candidate generators in front of the shared
filter-then-verify pipeline
(:func:`repro.core.lsh_join.pipeline_chunk`), like ``lsh`` and
``sketch``.

Both structures hold plain contiguous ndarrays, so they freeze/thaw
through the :class:`~repro.core.arena.SharedArena` zero-copy like every
other backend structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.lsh_join import pipeline_chunk
from repro.core.problems import QueryStats
from repro.engine.protocol import ChunkResult, CostEstimate, JoinBackend
from repro.errors import ParameterError
from repro.lsh.csr import CandidateBlock, sorted_unique
from repro.obs.trace import span
from repro.quant.ipfilter import (
    DEFAULT_FILTER_DIMS,
    DEFAULT_FILTER_Z,
    FILTER_BIT_WIDTHS,
    IPSketchFilter,
)
from repro.quant.scalar import (
    DEFAULT_SCAN_BLOCK,
    FLOAT32_EXACT_D,
    QuantizedRows,
    quantize_rows,
    quantized_scan_survivors,
)

_ACCUMULATE_MODES = ("auto", "float32", "int32")


def _proposal_block(proposals, n: int) -> CandidateBlock:
    """Caller-supplied proposals as a block, validated once, vectorized.

    Accepts a :class:`~repro.lsh.csr.CandidateBlock` or one index array
    per query; rows come back ascending and unique within each query.
    """
    if not isinstance(proposals, CandidateBlock):
        # Still unsorted, possibly repeated: normalized below.
        proposals = CandidateBlock.from_lists(
            [np.asarray(p, dtype=np.int64).ravel() for p in proposals])
    qids, rows = proposals.qids(), proposals.rows
    if rows.size and rows.min() < 0:
        raise ParameterError("quantized proposals contain negative indices")
    if rows.size and rows.max() >= n:
        raise ParameterError(
            f"quantized proposals reference point indices >= n={n}"
        )
    pairs = sorted_unique(qids * n + rows)
    return CandidateBlock.from_pairs(pairs // n, pairs % n, len(proposals))


# ---------------------------------------------------------------------------
# quantized


@dataclass
class QuantizedStructure:
    """Int8-quantized ``P`` (scan mode) or a pinned proposal block (verify).

    Built lazily in the parent process — the quantized arrays are plain
    ndarrays, so parallel workers receive them zero-copy via the shared
    arena instead of re-quantizing.
    """

    scan_block: int
    accumulate: str
    data: Optional[QuantizedRows] = None
    proposals: Optional[CandidateBlock] = None

    def build(self, P):
        if self.proposals is None and self.data is None:
            self.data = quantize_rows(P)
        return self


class QuantizedBackend(JoinBackend):
    """Exact joins over an int8 index: quantized scan + exact verify."""

    name = "quantized"
    variants = ("join", "topk")

    def prepare(self, P, spec, *, seed=None,
                scan_block: int = DEFAULT_SCAN_BLOCK,
                accumulate: str = "auto", proposals=None, **options):
        if options:
            raise ParameterError(
                "quantized takes only scan_block, accumulate and "
                f"proposals, got {sorted(options)}"
            )
        if accumulate not in _ACCUMULATE_MODES:
            raise ParameterError(
                f"accumulate must be one of {_ACCUMULATE_MODES}, "
                f"got {accumulate!r}"
            )
        d = P.shape[1]
        if accumulate == "float32" and d > FLOAT32_EXACT_D:
            raise ParameterError(
                f"accumulate='float32' is exact only for d <= "
                f"{FLOAT32_EXACT_D}, got d={d}; use 'int32' or 'auto'"
            )
        if int(scan_block) < 1:
            raise ParameterError(f"scan_block must be >= 1, got {scan_block}")
        structure = QuantizedStructure(
            scan_block=int(scan_block), accumulate=accumulate,
        )
        if proposals is not None:
            structure.proposals = _proposal_block(proposals, P.shape[0])
        return structure, spec

    def run_chunk(self, structure, P, Q_chunk, start, spec, block):
        mc = Q_chunk.shape[0]
        max_bound = None
        if structure.proposals is not None:
            if start + mc > len(structure.proposals):
                raise ParameterError(
                    "quantized proposals must hold one candidate list per "
                    f"query: got {len(structure.proposals)} lists for "
                    f"queries [{start}, {start + mc})"
                )
            cands = structure.proposals.slice(start, start + mc)
        else:
            qq = quantize_rows(np.ascontiguousarray(Q_chunk, dtype=np.float64))
            with span("scan", n_queries=mc):
                cands, _, max_bound = quantized_scan_survivors(
                    structure.data,
                    qq,
                    spec.cs,
                    spec.signed,
                    accumulate=structure.accumulate,
                    scan_block=structure.scan_block,
                )
        generated = int(cands.rows.size)
        answers, evaluated = pipeline_chunk(cands.slice, P, Q_chunk, spec, block)
        stats = QueryStats(
            queries=mc, candidates=generated, unique_candidates=generated
        )
        return ChunkResult.from_answers(
            spec, answers, evaluated, generated, stats, error_bound=max_bound
        )

    def estimate_cost(self, n, m, d, spec, model):
        build = model.quant_fixed_build + 0.5 * n * d * model.gemm_op
        scan = n * m * d * model.quant_scan_op
        scan *= model.memory_factor(d + 24.0, n)
        verify = model.quant_verify_fraction * n * m * d * model.gemm_op
        verify *= model.memory_factor(8.0 * d, n)
        query = scan + verify + m * model.row_op
        return CostEstimate(
            backend=self.name, feasible=True, build_ops=build,
            query_ops=query,
        )


# ---------------------------------------------------------------------------
# ip_filter


@dataclass
class FilterStructure:
    """Sketch-filter recipe/build: the sketch options, then the sketches."""

    n_dims: int
    bits: int
    z: float
    seed: int
    scan_block: int
    filter: Optional[IPSketchFilter] = None

    def build(self, P):
        if self.filter is None:
            self.filter = IPSketchFilter(
                P, n_dims=self.n_dims, bits=self.bits, z=self.z,
                seed=self.seed,
            )
        return self


class IPFilterBackend(JoinBackend):
    """Inner-product sketch filter (Pagh-Sivertsen style) + exact verify."""

    name = "ip_filter"
    variants = ("join", "topk")

    def prepare(self, P, spec, *, seed=None,
                n_dims: int = DEFAULT_FILTER_DIMS, bits: int = 8,
                z: float = DEFAULT_FILTER_Z,
                scan_block: int = DEFAULT_SCAN_BLOCK, **options):
        if options:
            raise ParameterError(
                "ip_filter takes only n_dims, bits, z and scan_block, "
                f"got {sorted(options)}"
            )
        if int(n_dims) < 1:
            raise ParameterError(f"n_dims must be >= 1, got {n_dims}")
        if int(bits) not in FILTER_BIT_WIDTHS:
            raise ParameterError(
                f"bits must be one of {FILTER_BIT_WIDTHS}, got {bits}"
            )
        if float(z) <= 0.0:
            raise ParameterError(f"z must be > 0, got {z}")
        if int(scan_block) < 1:
            raise ParameterError(f"scan_block must be >= 1, got {scan_block}")
        structure = FilterStructure(
            n_dims=int(n_dims),
            bits=int(bits),
            z=float(z),
            seed=0 if seed is None else int(seed),
            scan_block=int(scan_block),
        )
        return structure, spec

    def run_chunk(self, structure, P, Q_chunk, start, spec, block):
        mc = Q_chunk.shape[0]
        with span("sketch_propose", n_queries=mc):
            # Recall anchors at spec.s: pairs inside the (cs, s) promise
            # gap are optional under the c-approximate guarantee, which
            # is what keeps the filter selective (see IPSketchFilter).
            cands, generated, margin_max = structure.filter.propose_chunk(
                Q_chunk, spec.s, spec.signed,
                scan_block=structure.scan_block,
            )
        answers, evaluated = pipeline_chunk(cands.slice, P, Q_chunk, spec, block)
        stats = QueryStats(
            queries=mc, candidates=generated, unique_candidates=generated
        )
        return ChunkResult.from_answers(
            spec, answers, evaluated, generated, stats, error_bound=margin_max
        )

    def estimate_cost(self, n, m, d, spec, model):
        if spec.c >= 1.0:
            return CostEstimate(
                backend=self.name, feasible=False,
                reason="no approximation gap (c = 1): the filter's "
                       "z-sigma margin can drop exact matches",
            )
        # Project the queries, scan int8 sketches of filter_dims
        # coordinates, verify the surviving fraction exactly.
        k_dims = model.filter_dims
        build = model.filter_fixed_build + n * k_dims * d * model.gemm_op
        propose = (
            m * k_dims * d * model.gemm_op
            + n * m * k_dims * model.quant_scan_op
            * model.memory_factor(k_dims + 24.0, n)
            + model.filter_selectivity * n * m * model.candidate_op
        )
        verify = (
            model.filter_selectivity * n * m * d * model.gemm_op
            + m * model.row_op
        )
        return CostEstimate(
            backend=self.name, feasible=True, build_ops=build,
            query_ops=propose + verify,
        )
