"""The Jaccard set-join backends behind ``measure="jaccard"``.

Two adapters over :mod:`repro.core.set_join`, filling the ``jaccard``
rows of the engine's ``(measure, variant)`` capability matrix:

* ``set_scan`` — the exact blocked set-intersection scan through an
  inverted postings index; the ``brute_force`` analogue and the
  reference answer for every Jaccard variant.
* ``minhash_lsh`` — filter-then-verify through a size-partitioned
  MinHash bucket index (the ``MinHashLSHEnsemble`` construction built on
  :mod:`repro.lsh.minhash`'s batch hashing).  Candidates are verified
  exactly, so the banding only affects recall, never precision.

Both accept ``P``/``Q`` as :class:`~repro.datasets.sets.SetCollection`;
dense binary matrices are coerced on entry.  Structures follow the same lazy-``build(P)``
dataclass pattern as :mod:`repro.engine.backends`, so sessions, the
shared-memory arena, and parallel workers compose unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.set_join import (
    DEFAULT_MINHASH_HASHES,
    DEFAULT_MINHASH_PARTITIONS,
    DEFAULT_MINHASH_TABLES,
    MinHashSetIndex,
    SetPostings,
    jaccard_scan_chunk,
    jaccard_self_chunk,
    jaccard_topk_chunk,
    minhash_join_chunk,
)
from repro.datasets.sets import SetCollection
from repro.engine.protocol import ChunkResult, CostEstimate, JoinBackend
from repro.errors import ParameterError


def _as_sets(obj, name: str) -> SetCollection:
    """Coerce a collection to a :class:`SetCollection` (dense 0/1
    matrices are accepted too)."""
    if isinstance(obj, SetCollection):
        return obj
    return SetCollection.coerce(np.asarray(obj), name)


# ---------------------------------------------------------------------------
# set_scan


@dataclass
class SetScanStructure:
    """Inverted postings over ``P``, built lazily (once, in the parent)."""

    postings: Any = None

    def build(self, P):
        if self.postings is None:
            self.postings = SetPostings(_as_sets(P, "P"))
        return self


class SetScanBackend(JoinBackend):
    """Exact postings-scan Jaccard join; the reference for every variant."""

    name = "set_scan"
    variants = ("join", "topk", "self")
    measures = ("jaccard",)

    def prepare(self, P, spec, *, seed=None, **options):
        if options:
            raise ParameterError(
                f"set_scan takes no extra options, got {sorted(options)}"
            )
        return SetScanStructure(), spec

    def run_chunk(self, structure, P, Q_chunk, start, spec, block):
        postings = structure.postings
        Q_chunk = _as_sets(Q_chunk, "Q")
        if spec.is_topk:
            out = jaccard_topk_chunk(postings, Q_chunk, spec.cs, spec.k)
        elif spec.is_self:
            out = jaccard_self_chunk(
                postings, Q_chunk, start, spec.cs, spec.match_duplicates,
            )
        else:
            out = jaccard_scan_chunk(postings, Q_chunk, spec.cs)
        return ChunkResult.from_answers(spec, *out)

    def estimate_cost(self, n, m, d, spec, model):
        # nnz per row enters as the model's set_mean_size constant; a
        # query touches one posting list per member, each of expected
        # length n * mean_size / universe (at least one entry).
        size = model.set_mean_size
        posting_len = max(1.0, n * size / max(d, 1))
        build = model.set_fixed_build + n * size * model.set_scan_op
        query = (
            m * size * posting_len * model.set_scan_op
            + m * model.row_op
        )
        return CostEstimate(
            backend=self.name, feasible=True, build_ops=build, query_ops=query
        )


# ---------------------------------------------------------------------------
# minhash_lsh


@dataclass
class MinHashStructure:
    """A size-partitioned MinHash index recipe, built once from its seed."""

    n_tables: int = DEFAULT_MINHASH_TABLES
    hashes_per_table: int = DEFAULT_MINHASH_HASHES
    num_part: int = DEFAULT_MINHASH_PARTITIONS
    seed: Any = 0
    index: Any = None

    def build(self, P):
        if self.index is None:
            self.index = MinHashSetIndex(
                _as_sets(P, "P"),
                n_tables=self.n_tables,
                hashes_per_table=self.hashes_per_table,
                num_part=self.num_part,
                seed=self.seed,
            )
        return self


class MinHashLSHBackend(JoinBackend):
    """Size-partitioned MinHash filter + exact verification."""

    name = "minhash_lsh"
    variants = ("join", "topk", "self")
    measures = ("jaccard",)

    def prepare(self, P, spec, *, seed=None,
                n_tables: int = DEFAULT_MINHASH_TABLES,
                hashes_per_table: int = DEFAULT_MINHASH_HASHES,
                num_part: int = DEFAULT_MINHASH_PARTITIONS, **options):
        if options:
            raise ParameterError(
                f"unknown minhash_lsh options: {sorted(options)} (valid: "
                f"n_tables, hashes_per_table, num_part)"
            )
        seed = 0 if seed is None else seed
        structure = MinHashStructure(
            n_tables=n_tables, hashes_per_table=hashes_per_table,
            num_part=num_part, seed=seed,
        )
        return structure, spec

    def run_chunk(self, structure, P, Q_chunk, start, spec, block):
        Q_chunk = _as_sets(Q_chunk, "Q")
        out = minhash_join_chunk(
            structure.index, Q_chunk, spec.cs, k=spec.k,
            self_start=start if spec.is_self else None,
            match_duplicates=spec.match_duplicates,
        )
        return ChunkResult.from_answers(spec, *out)

    def estimate_cost(self, n, m, d, spec, model):
        size = model.set_mean_size
        tables = float(DEFAULT_MINHASH_TABLES)
        hashes = float(DEFAULT_MINHASH_HASHES)
        cand_per_query = model.minhash_candidate_fraction * n
        build = (
            model.minhash_fixed_build
            + n * tables * hashes * size * model.hash_op
            + n * tables * model.candidate_op
        )
        query = (
            m * tables * hashes * size * model.hash_op
            + m * cand_per_query * (size * model.set_scan_op
                                    + model.candidate_op)
            + m * model.row_op
        )
        return CostEstimate(
            backend=self.name, feasible=True, build_ops=build, query_ops=query
        )

