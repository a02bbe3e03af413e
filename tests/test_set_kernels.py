"""The block-at-a-time Jaccard kernels against naive per-query references.

* Sparse MinHash hashing (gather + segmented minimum over CSR rows)
  equals the scalar ``hash_rows`` reference on empty rows, singletons, a
  full-universe row, and priorities with ties.
* ``set_scan`` and ``minhash_lsh`` reproduce a naive per-query
  reference bit for bit — matches, top-k lists, ``evaluated``,
  ``generated`` and ``QueryStats`` — for join, top-k and self-join
  (``match_duplicates`` on and off), at query blocks of 1, 7 and 64.
  Every identity check runs next to a non-empty truth set.  The
  ``set_scan`` reference recomputes the head split: on skewed data
  (a full 63-element head, light and heavy queries, a query made only
  of head elements) its counters follow the walked postings, and on
  flat data (an empty head) they equal the plain scan's.
* A 2-worker process ``minhash_lsh`` session pins the whole index in
  the pool's arena, answers like the serial join, and leaves ``/dev/shm``
  clean after ``close()``.
"""

import math

import numpy as np
import pytest

from repro import engine
from repro.core.arena import collect_arrays, repro_segments
from repro.core.problems import JoinSpec
from repro.core.set_join import HEAD_BITS, MinHashSetIndex, SetPostings
from repro.datasets import SetCollection, ov_jaccard_gadget, planted_jaccard_sets
from repro.lsh.batch_hash import MinHashTables

BLOCKS = (1, 7, 64)
UNIVERSE = 96
NUM_PART = 4


@pytest.fixture(scope="module")
def sets():
    """Planted pairs plus empty sets, exact duplicates and a twin-free tail."""
    P, Q = planted_jaccard_sets(150, 70, universe=UNIVERSE, mean_size=9,
                                threshold=0.6, seed=4)
    rows_p = [P.row(i).tolist() for i in range(len(P))]
    rows_p[3] = []
    rows_p[10] = rows_p[11]          # a duplicate pair in P
    rows_q = [Q.row(j).tolist() for j in range(len(Q))]
    rows_q[5] = []
    rows_q[6] = rows_p[20]           # an exact copy of a data row
    return (SetCollection.from_lists(rows_p, UNIVERSE),
            SetCollection.from_lists(rows_q, UNIVERSE))


def _with_edge_rows(P, Q, extra_queries=()):
    """``P`` and ``Q`` plus an empty data set, an exact and a near
    duplicate pair in ``P``, an empty query and a query copying a data
    row."""
    rows_p = [P.row(i).tolist() for i in range(len(P))]
    rows_p[3] = []
    rows_p[10] = rows_p[11]
    rows_p[12] = rows_p[13][:-1]
    rows_q = [Q.row(j).tolist() for j in range(len(Q))]
    rows_q[5] = []
    rows_q[6] = rows_p[20]
    rows_q.extend(extra_queries)
    return (SetCollection.from_lists(rows_p, P.universe),
            SetCollection.from_lists(rows_q, P.universe))


@pytest.fixture(scope="module")
def skewed_sets():
    """Zipfian sets with a full head word, plus a head-only query."""
    P, Q = planted_jaccard_sets(300, 80, universe=1024, mean_size=16,
                                threshold=0.6, exponent=0.6, seed=8)
    head = sorted(naive_head(P))
    assert len(head) == HEAD_BITS
    return _with_edge_rows(P, Q, extra_queries=[head[::5]])


@pytest.fixture(scope="module")
def flat_sets():
    """The set-valued OV gadget: flat element frequencies, no head."""
    P, Q = ov_jaccard_gadget(120, 40, 10, seed=6)
    return _with_edge_rows(P, Q)


# -- naive references ---------------------------------------------------------


def _score(inter, size_p, size_q):
    union = size_p + size_q - inter
    return inter / union if union else 0.0


def _answer(rows, scores, cs, k):
    """Lowest-index best row at or above ``cs``, or the ranked top-k list."""
    if k is not None:
        ranked = sorted((-s, r) for r, s in zip(rows, scores) if s >= cs)
        return [r for _, r in ranked[:k]]
    if not rows:
        return None
    best = max(range(len(rows)), key=lambda i: (scores[i], -rows[i]))
    return rows[best] if scores[best] >= cs else None


def naive_head(P):
    """The head by the kernel's rule, from ``P``'s element counts: the
    most frequent elements (ties to the lower one), at most
    ``HEAD_BITS``, each in at least twice the mean number of sets."""
    counts = np.bincount(P.indices, minlength=P.universe).tolist()
    hot = [e for e, c in enumerate(counts)
           if c > 0 and c * P.universe >= 2 * sum(counts)]
    return set(sorted(hot, key=lambda e: (-counts[e], e))[:HEAD_BITS])


def _need(cs, size):
    """The overlap a pair needs to reach ``cs``: ``ceil(cs |q|)``, less
    the scan's rounding margin."""
    return math.ceil(cs * size * (1.0 - 1e-12))


def naive_scan(P, Q, cs, k=None, self_start=None, match_duplicates=True,
               head=None):
    """Per-query postings scan: ``(answers, evaluated, generated, stats)``.

    A query is light when its head members (``head``, by default
    :func:`naive_head`) number fewer than :func:`_need`; a light query
    walks the postings of its other members, a heavy one those of every
    member.  It generates one pair per posting entry walked (its own row
    included in a self-join) and evaluates every other row sharing a
    walked member; a query left with nothing to evaluate generates
    nothing.  Answers come from every overlapping row.
    """
    head = naive_head(P) if head is None else head
    members_p = [set(P.row(i).tolist()) for i in range(len(P))]
    df = np.bincount(P.indices, minlength=P.universe)
    out, gen, ev = [], [], []
    for j in range(len(Q)):
        q = set(Q.row(j).tolist())
        walked = q - head if len(q & head) < _need(cs, len(q)) else q
        rows, scores, touched = [], [], 0
        for i, p in enumerate(members_p):
            inter = len(p & q)
            if inter and (self_start is None or i != self_start + j):
                s = _score(inter, len(p), len(q))
                if self_start is not None and not match_duplicates and s >= 1.0:
                    s = -np.inf
                rows.append(i)
                scores.append(s)
                touched += bool(p & walked)
        out.append(_answer(rows, scores, cs, k))
        ev.append(touched)
        gen.append(int(df[list(walked)].sum()) if touched else 0)
    return out, sum(ev), sum(gen), (len(Q), sum(gen), sum(ev))


def _light_and_heavy(P, Q, cs):
    """``(light, heavy)`` query counts under the head split."""
    head = naive_head(P)
    light = sum(len(set(Q.row(j).tolist()) & head) < _need(cs, Q.sizes[j])
                for j in range(len(Q)))
    return light, len(Q) - light


def naive_minhash(index, P, Q, cs, k=None, self_start=None,
                  match_duplicates=True):
    """Per-query, per-partition, per-table probe of the same banding.

    Keys come from the scalar ``hash_rows`` reference; partitions are
    re-derived from the set sizes.
    """
    data_keys = index.tables.hash_rows(P.to_dense(np.int64), side="data")
    query_keys = index.tables.hash_rows(Q.to_dense(np.int64), side="query")
    sizes = P.sizes
    order = np.argsort(sizes, kind="stable")
    n_part = min(NUM_PART, len(P))
    bounds = np.linspace(0, len(P), n_part + 1).astype(np.int64)
    parts = [order[bounds[p]:bounds[p + 1]] for p in range(n_part)]
    members_p = [set(P.row(i).tolist()) for i in range(len(P))]
    out, gen, ev = [], [], []
    for j in range(len(Q)):
        q = set(Q.row(j).tolist())
        hits, multiplicity = set(), 0
        for rows in parts if q else []:
            lo, hi = int(sizes[rows[0]]), int(sizes[rows[-1]])
            if hi < cs * len(q) or lo * cs > len(q):
                continue
            for t in range(index.n_tables):
                bucket = [int(r) for r in rows
                          if data_keys[r, t] == query_keys[j, t]]
                multiplicity += len(bucket)
                hits.update(bucket)
        if self_start is not None:
            hits.discard(self_start + j)
        rows = sorted(hits)
        scores = []
        for i in rows:
            s = _score(len(members_p[i] & q), len(members_p[i]), len(q))
            if self_start is not None and not match_duplicates and s >= 1.0:
                s = -np.inf
            scores.append(s)
        out.append(_answer(rows, scores, cs, k))
        ev.append(len(rows))
        gen.append(multiplicity)
    return out, sum(ev), sum(gen), (len(Q), sum(gen), sum(ev))


def _observed(result, k):
    s = result.stats
    answers = result.topk if k is not None else result.matches
    return (answers, result.inner_products_evaluated,
            result.candidates_generated, (s.queries, s.candidates,
                                          s.unique_candidates))


def _truth_nonempty(expected, k):
    answers = expected[0]
    if k is not None:
        return any(answers)
    return any(a is not None for a in answers)


# -- hashing ------------------------------------------------------------------


class TestSparseMinHash:
    def _tables(self, priorities, n_tables=3, hashes=2):
        return MinHashTables(np.asarray(priorities), n_tables, hashes)

    def _check(self, tables, rows, universe):
        sets = SetCollection.from_lists(rows, universe)
        dense = sets.to_dense(np.int64)
        for side in ("data", "query"):
            sparse = tables.hash_csr(sets.indptr, sets.indices, side=side)
            assert np.array_equal(sparse, tables.hash_rows(dense, side=side))
            assert np.array_equal(sparse, tables.hash_matrix(dense, side=side))

    def test_edge_rows_match_scalar_reference(self):
        universe = 12
        rng = np.random.default_rng(0)
        priorities = np.stack([rng.permutation(universe) for _ in range(6)])
        rows = [[], [0], [universe - 1], [5], list(range(universe)),
                [1, 4, 9], []]
        self._check(self._tables(priorities), rows, universe)

    def test_priority_ties_break_to_lowest_element(self):
        universe = 10
        rng = np.random.default_rng(1)
        priorities = rng.integers(0, 3, size=(6, universe))  # many ties
        rows = [list(range(universe)), [2, 7], [3, 4, 5, 8], [9], []]
        self._check(self._tables(priorities), rows, universe)
        tables = self._tables(np.zeros((6, universe), dtype=np.int64))
        sets = SetCollection.from_lists([[4, 6, 8]], universe)
        comps = tables._csr_components(sets.indptr, sets.indices)
        # All priorities tie: every function picks element 4 (shifted by 1).
        assert (comps == 5).all()

    def test_empty_rows_hash_to_the_empty_component(self):
        tables = self._tables(np.arange(6 * 5).reshape(6, 5) % 5)
        sets = SetCollection.from_lists([[], []], 5)
        comps = tables._csr_components(sets.indptr, sets.indices)
        assert (comps == 0).all()

    def test_random_collections_match_scalar_reference(self):
        rng = np.random.default_rng(2)
        for universe in (2, 17, 64):
            priorities = np.stack([rng.permutation(universe) for _ in range(8)])
            tables = self._tables(priorities, n_tables=4, hashes=2)
            rows = [rng.choice(universe, size=int(rng.integers(0, universe + 1)),
                               replace=False).tolist() for _ in range(25)]
            self._check(tables, rows, universe)


# -- blocked kernels vs the naive reference -----------------------------------

VARIANTS = [
    ("join", dict(s=0.5)),
    ("topk", dict(s=0.3, k=3)),
    ("self", dict(s=0.3, self_join=True)),
    ("self_no_dups", dict(s=0.3, self_join=True, match_duplicates=False)),
]


def _reference_kwargs(spec):
    kwargs = dict(k=spec.k)
    if spec.is_self:
        kwargs.update(self_start=0, match_duplicates=spec.match_duplicates)
    return kwargs


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("name,params", VARIANTS, ids=[v[0] for v in VARIANTS])
def test_set_scan_matches_naive(sets, block, name, params):
    P, Q = sets
    spec = JoinSpec(measure="jaccard", **params)
    Qs = None if spec.is_self else Q
    expected = naive_scan(P, P if spec.is_self else Q, spec.cs,
                          **_reference_kwargs(spec))
    assert _truth_nonempty(expected, spec.k)
    result = engine.join(P, Qs, spec, backend="set_scan", block=block)
    assert _observed(result, spec.k) == expected


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("name,params", VARIANTS, ids=[v[0] for v in VARIANTS])
def test_set_scan_head_split_matches_naive(skewed_sets, block, name, params):
    P, Q = skewed_sets
    spec = JoinSpec(measure="jaccard", **params)
    Qs = P if spec.is_self else Q
    light, heavy = _light_and_heavy(P, Qs, spec.cs)
    assert light > 0 and heavy > 0
    expected = naive_scan(P, Qs, spec.cs, **_reference_kwargs(spec))
    assert _truth_nonempty(expected, spec.k)
    result = engine.join(P, None if spec.is_self else Q, spec,
                         backend="set_scan", block=block)
    assert _observed(result, spec.k) == expected


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("name,params", VARIANTS, ids=[v[0] for v in VARIANTS])
def test_set_scan_flat_counters_walk_every_member(flat_sets, block, name,
                                                  params):
    P, Q = flat_sets
    assert SetPostings(P).masks.size == 0 and not naive_head(P)
    spec = JoinSpec(measure="jaccard", **params)
    Qs = P if spec.is_self else Q
    expected = naive_scan(P, Qs, spec.cs, head=set(),
                          **_reference_kwargs(spec))
    assert _truth_nonempty(expected, spec.k)
    result = engine.join(P, None if spec.is_self else Q, spec,
                         backend="set_scan", block=block)
    assert _observed(result, spec.k) == expected


def test_head_words_hold_each_sets_head_members(skewed_sets):
    P, _ = skewed_sets
    postings = SetPostings(P)
    head = np.flatnonzero(postings.masks)
    assert head.tolist() == sorted(naive_head(P))
    bits = postings.masks[head]
    assert sorted(bits.tolist()) == [1 << b for b in range(HEAD_BITS)]
    for i in range(len(P)):
        members = np.isin(head, P.row(i))
        assert postings.words[i] == int(bits[members].sum())


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("name,params", VARIANTS, ids=[v[0] for v in VARIANTS])
def test_minhash_lsh_matches_naive(sets, block, name, params):
    P, Q = sets
    spec = JoinSpec(measure="jaccard", **params)
    index = MinHashSetIndex(P, n_tables=8, hashes_per_table=2, num_part=NUM_PART,
                            seed=5)
    expected = naive_minhash(index, P, P if spec.is_self else Q, spec.cs,
                             **_reference_kwargs(spec))
    assert _truth_nonempty(expected, spec.k)
    result = engine.join(P, None if spec.is_self else Q, spec,
                         backend="minhash_lsh", seed=5, block=block,
                         n_tables=8, hashes_per_table=2, num_part=NUM_PART)
    assert _observed(result, spec.k) == expected


def test_minhash_candidates_are_grouped_and_counted(sets):
    P, Q = sets
    index = MinHashSetIndex(P, n_tables=8, hashes_per_table=2, num_part=NUM_PART,
                            seed=5)
    keys = index.tables.hash_csr(Q.indptr, Q.indices, side="query")
    qids, rows, multiplicity = index.candidates(keys, Q.sizes, 0.5)
    assert qids.size > 0
    pairs = qids * len(P) + rows
    assert (np.diff(pairs) > 0).all()  # unique, by query then row
    assert multiplicity.shape == (len(Q),)
    assert (np.bincount(qids, minlength=len(Q)) <= multiplicity).all()
    assert multiplicity[5] == 0  # the empty query probes nothing


# -- the index in a process pool ----------------------------------------------


def test_minhash_process_session_pins_index_and_cleans_up(sets):
    P, Q = sets
    spec = JoinSpec(s=0.5, measure="jaccard")
    serial = engine.join(P, Q, spec, backend="minhash_lsh", seed=3)
    assert serial.matched_count > 0
    before = repro_segments()
    session = engine.open(P, spec, backend="minhash_lsh", seed=3,
                          n_workers=2, pool="process", block=16)
    try:
        index_arrays = collect_arrays(session._prepared[0].payload)
        assert len(index_arrays) >= 4
        big = {id(a) for a in collect_arrays(P) + index_arrays}
        assert session.metrics.counter("session.pool_pins").value == len(big)
        for _ in range(2):
            result = session.query(Q)
            assert result.matches == serial.matches
            assert (result.inner_products_evaluated
                    == serial.inner_products_evaluated)
            assert result.candidates_generated == serial.candidates_generated
            assert result.stats == serial.stats
    finally:
        session.close()
    assert repro_segments() == before
