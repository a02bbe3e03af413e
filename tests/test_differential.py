"""Differential table: every backend and Plan against a naive reference.

Rows are the (measure, variant) pairs crossed with every backend or
Plan that answers them.  Each cell runs in every execution mode:

* serial;
* process and thread pools at ``REPRO_TEST_WORKERS`` workers (one pool
  per kind, reused by every cell);
* 3 data shards (``sharded_join``; join and top-k only);
* ``save -> open_path(mmap=True) -> query_stream`` (``query(None)`` for
  self joins, which do not stream).

Fixed instances pin what drawn ones may miss: a Chen OV gadget for the
inner product, and for Jaccard duplicated rows and the set-valued OV
gadget (flat element frequencies, so ``set_scan`` has no head to split
off and every query overlaps every data set).

Exact rows must equal a naive reference written here: the lowest-index
maximizer for threshold joins, ``(-score, index)`` order for top-k, and
self joins that skip ``i`` (and rows equal to row ``i`` when
``match_duplicates=False``).  Approximate rows must be sound: every
reported pair scores ``>= cs``, top-k lists follow ``(-score, index)``,
and no self pair appears.  Every unsharded mode must equal the row's
serial run, counters included, and ``lsh`` / ``sketch`` must equal a
naive reduction over ``index.candidates(q)`` / ``structure.query(q)``.

Inner-product instances hold small integers, so every score is exact
in float64 whatever the summation order, and ties are real: the tie
rules are tested, not dodged.  Every cell asserts that its reference
answer set is non-empty.
"""

import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import engine
from repro.core import JoinSpec, WorkerPool
from repro.core.set_join import SetPostings
from repro.datasets.adversarial import adversarial_maxip
from repro.datasets.sets import SetCollection, ov_jaccard_gadget
from repro.lsh import HyperplaneLSH, LSHIndex
from repro.sketches.cmips import SketchCMIPS

#: Worker count of the pool modes; the CI parallel leg sets 3.
TEST_WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"),
    reason="POSIX shared memory mount required",
)

BLOCK = 4
K = 3
SEED = 7
LSH_SHAPE = dict(n_tables=4, hashes_per_table=3)
SKETCH_SHAPE = dict(kappa=4.0, copies=3, leaf_size=4)

#: name -> (measure, variants, exact)
ROWS = {
    "brute_force": ("ip", ("join", "topk", "self"), True),
    "norm_pruned": ("ip", ("join", "topk"), True),
    "quantized": ("ip", ("join", "topk"), True),
    "lsh": ("ip", ("join", "topk", "self"), False),
    "sketch": ("ip", ("join", "self"), False),
    "ip_filter": ("ip", ("join", "topk"), False),
    "norm_prefix_lsh_plan": ("ip", ("join", "topk"), False),
    "set_scan": ("jaccard", ("join", "topk", "self"), True),
    "minhash_lsh": ("jaccard", ("join", "topk", "self"), False),
}


def _cells(measure):
    return [(name, variant) for name, (m, variants, _) in ROWS.items()
            if m == measure for variant in variants]


def test_every_capability_cell_has_a_row():
    """Every registered backend runs here in every cell it claims."""
    for (measure, variant), names in engine.capability_matrix().items():
        for name in names:
            assert name in ROWS, name
            row_measure, variants, _ = ROWS[name]
            assert row_measure == measure and variant in variants, (
                name, measure, variant)


@pytest.fixture(scope="module")
def pools():
    with WorkerPool(TEST_WORKERS, kind="process") as proc, \
            WorkerPool(TEST_WORKERS, kind="thread") as thread:
        yield {"process": proc, "thread": thread}


# -- instances ---------------------------------------------------------------


def _ip_instance(base, queries):
    """``P``: the base rows, a scaled copy of the first two and an exact
    duplicate of the first; ``Q``: the queries and copies of ``P[:2]``.

    A scaled copy hashes like its original under every sign family and
    is not float-equal to it, so the filter backends always find a
    partner, with or without ``match_duplicates``.
    """
    P = np.vstack([base, 2.0 * base[:2], base[:1]])
    Q = np.vstack([queries, P[:2]])
    return P, Q, max(1.0, float(P[0] @ P[0]))


@st.composite
def ip_instances(draw):
    d = draw(st.integers(3, 5))
    n = draw(st.integers(6, 14))
    m = draw(st.integers(3, 9))
    ints = st.integers(-2, 2)
    base = np.array(draw(st.lists(st.lists(ints, min_size=d, max_size=d),
                                  min_size=n, max_size=n)), dtype=np.float64)
    base[0, 0] = 2.0  # a non-zero first row
    queries = np.array(draw(st.lists(st.lists(ints, min_size=d, max_size=d),
                                     min_size=m, max_size=m)), dtype=np.float64)
    return (*_ip_instance(base, queries), draw(st.booleans()),
            draw(st.booleans()))


def _ip_fixed(name):
    if name == "ov_gadget":
        inst = adversarial_maxip(n=48, m=9, d=24, weight=6, seed=3)
        P = np.vstack([inst.P, inst.P[:1]])
        return P, np.vstack([inst.Q, P[:1]]), float(np.median(inst.bulk_max_ip))
    rng = np.random.default_rng(11)
    base = rng.integers(-2, 3, size=(12, 6)).astype(np.float64)
    base[3:6] = base[0]  # exactly duplicated rows
    base[0, 0] = 2.0
    base[3:6, 0] = 2.0
    return _ip_instance(base, rng.integers(-2, 3, size=(7, 6)).astype(np.float64))


def _set_instance(lists, queries, universe):
    """Sets plus an exact duplicate and a near-duplicate of the first."""
    first = sorted(lists[0])
    near = first[:-1] if len(first) > 3 else first + [universe - 1]
    rows = list(lists) + [first, near]
    P = SetCollection.from_lists(rows, universe)
    Q = SetCollection.from_lists(list(queries) + [rows[0], rows[1]], universe)
    return P, Q


@st.composite
def set_instances(draw):
    universe = 12
    member = st.sets(st.integers(0, universe - 1), min_size=1, max_size=6)
    lists = draw(st.lists(member, min_size=6, max_size=14))
    lists[0] = set(lists[0]) | {0, 1, 2, 3}
    queries = draw(st.lists(member, min_size=3, max_size=8))
    return (*_set_instance(lists, queries, universe), draw(st.booleans()))


def _set_fixed():
    rng = np.random.default_rng(5)
    lists = [set(rng.choice(16, size=rng.integers(2, 7), replace=False).tolist())
             for _ in range(14)]
    lists[0] = {0, 1, 2, 3, 4}
    lists[5] = lists[6] = set(lists[0])
    queries = [set(rng.choice(16, size=4, replace=False).tolist())
               for _ in range(6)]
    return _set_instance(lists, queries, 16)


# -- naive references ----------------------------------------------------------


def _ip_scores(P, Q, signed):
    S = Q @ P.T
    return S if signed else np.abs(S)


def _jaccard(a, b):
    union = len(a | b)
    return len(a & b) / union if union else 0.0


def _set_scores(P, Q):
    ps = [set(P.row(i).tolist()) for i in range(len(P))]
    qs = [set(Q.row(j).tolist()) for j in range(len(Q))]
    return np.array([[_jaccard(q, p) for p in ps] for q in qs])


def _reduce(scores, allowed, cs, k):
    """Naive answers from a dense score matrix and a pair mask."""
    out = []
    for row, ok in zip(scores, allowed):
        cand = [(-float(row[i]), int(i)) for i in np.flatnonzero(ok)
                if row[i] >= cs]
        if k is not None:
            out.append([i for _, i in sorted(cand)[:k]])
        else:
            out.append(min(cand)[1] if cand else None)
    return out


def _allowed(P, spec, m, equal_rows):
    allowed = np.ones((m, P.shape[0]), dtype=bool)
    if spec.self_join:
        np.fill_diagonal(allowed, False)
        if not spec.match_duplicates:
            allowed &= ~equal_rows
    return allowed


def _ip_reference(P, Q, spec):
    Qs = P if spec.self_join else Q
    equal = np.all(P[:, None, :] == P[None, :, :], axis=2)
    return _reduce(_ip_scores(P, Qs, spec.signed),
                   _allowed(P, spec, Qs.shape[0], equal), spec.cs, spec.k)


def _set_reference(P, Q, spec):
    Qs = P if spec.self_join else Q
    S = _set_scores(P, Qs)
    return _reduce(S, _allowed(P, spec, len(Qs), S >= 1.0), spec.cs, spec.k)


def _lsh_reduction(P, Q, spec, index):
    """The naive reduction over ``index.candidates(q)``."""
    Qs = P if spec.self_join else Q
    scores = _ip_scores(P, Qs, spec.signed)
    allowed = np.zeros_like(scores, dtype=bool)
    for j in range(Qs.shape[0]):
        allowed[j, index.candidates(Qs[j])] = True
    equal = np.all(P[:, None, :] == P[None, :, :], axis=2)
    allowed &= _allowed(P, spec, Qs.shape[0], equal)
    return _reduce(scores, allowed, spec.cs, spec.k)


def _sketch_reduction(P, Q, spec, structure):
    """The naive reduction over ``structure.query(q)`` (self pairs are
    excluded inside the descent, as the backend does)."""
    out = []
    rows = P if spec.self_join else Q
    for j in range(rows.shape[0]):
        if spec.self_join:
            idx = int(structure.query_batch(rows[j:j + 1], exclude=[j]).indices[0])
        else:
            idx = int(structure.query(rows[j]).index)
        ok = idx >= 0 and abs(float(P[idx] @ rows[j])) >= spec.cs
        out.append(idx if ok else None)
    return out


# -- the cell ------------------------------------------------------------------


def _backend(name, d):
    if name == "norm_prefix_lsh_plan":
        tail = dict(family=HyperplaneLSH(d), **LSH_SHAPE)
        return engine.norm_prefix_lsh_plan(0.3, tail_options=tail), {}
    if name == "lsh":
        return "lsh", dict(family=HyperplaneLSH(d), **LSH_SHAPE)
    if name == "sketch":
        return "sketch", dict(SKETCH_SHAPE)
    return name, {}


def _key(result):
    s = result.stats
    return (result.matches, result.topk, result.inner_products_evaluated,
            result.candidates_generated, s.queries, s.candidates,
            s.unique_candidates, s.probe_candidates, s.probed_buckets,
            result.error_bound)


def _run_modes(name, P, Q, spec, pools):
    """``{mode: JoinResult}`` for every execution mode the cell allows."""
    backend, options = _backend(name, P.shape[1])
    common = dict(backend=backend, seed=SEED, block=BLOCK, **options)
    query = None if spec.self_join else Q
    runs = {"serial": engine.join(P, query, spec, **common)}
    for kind, pool in pools.items():
        runs[kind] = engine.join(P, query, spec, n_workers=TEST_WORKERS,
                                 pool=kind, executor=pool, **common)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "session"
        with engine.open(P, spec, **common) as session:
            session.save(path)
        with engine.open_path(path, mmap=True) as served:
            runs["open_path"] = (
                served.query(None) if spec.self_join
                else served.query_stream(Q, chunk_rows=2 * BLOCK)
            )
    if not spec.self_join:
        runs["shards"] = engine.sharded_join(P, Q, spec, 3, **common)
    return runs


def _reported(result, spec):
    """The answers a result reports: top-k lists or matches."""
    return result.topk if spec.k is not None else result.matches


def _nonempty(answers):
    return any(a not in (None, []) for a in answers)


def _check_sound(result, scores, spec, cs, equal):
    """Reported pairs score >= cs, lists follow (-score, index), and no
    self (or, without match_duplicates, duplicate) pair appears."""
    lists = result.topk if spec.k is not None else [
        [] if m is None else [m] for m in result.matches]
    for j, lst in enumerate(lists):
        assert len(lst) == len(set(lst))
        if spec.k is not None:
            assert len(lst) <= spec.k
            assert lst == sorted(lst, key=lambda i: (-scores[j, i], i))
            assert result.matches[j] == (lst[0] if lst else None)
        for i in lst:
            assert scores[j, i] >= cs, (j, i)
            if spec.self_join:
                assert i != j
                if not spec.match_duplicates:
                    assert not equal[j, i]


def _check_cell(name, P, Q, spec, pools, reference, scores, equal):
    exact = ROWS[name][2]
    runs = _run_modes(name, P, Q, spec, pools)
    serial = runs["serial"]
    # Rows with no naive reference (ip_filter, the Plan, minhash_lsh)
    # must at least answer something, or the soundness checks would be
    # vacuous.
    expected = _reported(serial, spec) if reference is None else reference
    assert _nonempty(expected), "vacuous cell: empty reference answers"
    for mode, result in runs.items():
        if exact:
            assert _reported(result, spec) == reference, mode
        else:
            _check_sound(result, scores, spec, serial.spec.cs, equal)
        if mode != "shards":
            assert _key(result) == _key(serial), mode
    assert _reported(serial, spec) == expected


def _ip_spec(name, variant, s, signed, match_duplicates):
    if name == "sketch":
        signed, match_duplicates = False, True
    return JoinSpec(s=s, c=0.5, signed=signed,
                    k=K if variant == "topk" else None,
                    self_join=variant == "self",
                    match_duplicates=match_duplicates)


def _ip_cell(name, variant, P, Q, s, signed, match_duplicates, pools):
    spec = _ip_spec(name, variant, s, signed, match_duplicates)
    Qs = P if spec.self_join else Q
    scores = _ip_scores(P, Qs, spec.signed)
    if ROWS[name][2]:
        reference = _ip_reference(P, Q, spec)
    elif name == "lsh":
        index = LSHIndex(HyperplaneLSH(P.shape[1]), seed=SEED, **LSH_SHAPE)
        reference = _lsh_reduction(P, Q, spec, index.build(P))
    elif name == "sketch":
        structure = SketchCMIPS(P, seed=SEED, **SKETCH_SHAPE)
        final = JoinSpec(s=s, c=min(structure.approximation_factor, 1.0),
                         signed=False, self_join=spec.self_join)
        reference = _sketch_reduction(P, Q, final, structure)
    else:
        reference = None
    equal = np.all(P[:, None, :] == P[None, :, :], axis=2)
    _check_cell(name, P, Q, spec, pools, reference, scores, equal)


def _set_cell(name, variant, P, Q, match_duplicates, pools, s=0.6):
    spec = JoinSpec(s=s, c=0.9 if name == "minhash_lsh" else 1.0,
                    k=K if variant == "topk" else None,
                    self_join=variant == "self",
                    match_duplicates=match_duplicates, measure="jaccard")
    scores = _set_scores(P, P if spec.self_join else Q)
    reference = _set_reference(P, Q, spec) if ROWS[name][2] else None
    _check_cell(name, P, Q, spec, pools, reference, scores, scores >= 1.0)


DRAWN = settings(max_examples=3, derandomize=True, deadline=None)


@pytest.mark.parametrize("name,variant", _cells("ip"))
@given(inst=ip_instances())
@DRAWN
def test_ip_drawn(pools, name, variant, inst):
    P, Q, s, signed, match_duplicates = inst
    _ip_cell(name, variant, P, Q, s, signed, match_duplicates, pools)


@pytest.mark.parametrize("instance", ["ov_gadget", "duplicates"])
@pytest.mark.parametrize("name,variant", _cells("ip"))
def test_ip_fixed(pools, name, variant, instance):
    P, Q, s = _ip_fixed(instance)
    _ip_cell(name, variant, P, Q, s, True, instance != "duplicates", pools)


@pytest.mark.parametrize("name,variant", _cells("jaccard"))
@given(inst=set_instances())
@DRAWN
def test_jaccard_drawn(pools, name, variant, inst):
    P, Q, match_duplicates = inst
    _set_cell(name, variant, P, Q, match_duplicates, pools)


@pytest.mark.parametrize("name,variant", _cells("jaccard"))
def test_jaccard_duplicates(pools, name, variant):
    P, Q = _set_fixed()
    _set_cell(name, variant, P, Q, False, pools)


@pytest.mark.parametrize("name,variant", _cells("jaccard"))
def test_jaccard_ov_gadget(pools, name, variant):
    """Orthogonal pairs score exactly 1/2 and every other pair less; the
    flat gadget leaves ``set_scan`` no head to split off."""
    P, Q = ov_jaccard_gadget(40, 8, 8, seed=2)
    scores = _set_scores(P, Q)
    assert scores.max() == 0.5 and (scores[::2] == 0.5).any(axis=1).all()
    assert SetPostings(P).masks.size == 0
    _set_cell(name, variant, P, Q, False, pools, s=0.5)


# -- the answer rules every backend shares -------------------------------------


def test_topk_ties_rank_by_score_then_index():
    """Equal-norm OV gadget rows tie often; every exact top-k backend
    (and so ``auto``, whichever it picks) ranks them by (-score, index).
    At s = 1 almost every pair clears, so the norm-pruned walk fills
    every k-buffer in its first step and later steps bring only ties."""
    inst = adversarial_maxip(n=600, m=20, d=32, weight=8, seed=3)
    for spec in (JoinSpec(s=float(np.median(inst.bulk_max_ip)), c=0.75, k=5),
                 JoinSpec(s=1.0, k=1), JoinSpec(s=1.0, k=5)):
        reference = _ip_reference(inst.P, inst.Q, spec)
        assert _nonempty(reference)
        for backend in ("brute_force", "norm_pruned", "quantized"):
            result = engine.join(inst.P, inst.Q, spec, backend=backend)
            assert result.topk == reference, (backend, spec)


def test_threshold_ties_go_to_the_lowest_index():
    """norm_pruned scans in norm order but reports the lowest-index
    maximizer, like every other backend."""
    P = np.array([[1.0, 0.0], [1.0, 5.0], [0.2, 0.1]])
    Q = np.array([[1.0, 0.0]])
    spec = JoinSpec(s=0.5, c=1.0)
    for backend in ("brute_force", "norm_pruned", "quantized"):
        assert engine.join(P, Q, spec, backend=backend).matches == [0], backend
    from repro.core import NormScanIndex

    assert NormScanIndex(P).query(Q[0], threshold=0.5)[0] == 0


@pytest.mark.parametrize("variant", ["join", "topk", "self"])
def test_lsh_candidates_generated_counts_bucket_hits(variant):
    """Every lsh variant reports the index's raw bucket hits as
    ``candidates_generated``, before any self-pair mask."""
    rng = np.random.default_rng(3)
    P = rng.standard_normal((2000, 16))
    Q = rng.standard_normal((50, 16))
    index = LSHIndex(HyperplaneLSH(16), n_tables=8, hashes_per_table=6,
                     seed=3).build(P)
    spec = JoinSpec(s=2.0, c=0.5, k=3 if variant == "topk" else None,
                    self_join=variant == "self")
    result = engine.join(P, None if variant == "self" else Q, spec,
                         backend="lsh", index=index)
    assert result.candidates_generated == result.stats.candidates > 0
    assert result.inner_products_evaluated > 0


@pytest.mark.parametrize("backend", ["brute_force", "lsh"])
def test_duplicate_mask_treats_signed_zeros_as_equal(backend):
    """``match_duplicates=False`` drops rows float-equal to the query
    row (``-0.0 == 0.0``), not byte-equal ones."""
    P = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 0.9], [0.5, 1.0]])
    spec = JoinSpec(s=0.8, c=1.0, self_join=True, match_duplicates=False)
    result = engine.join(P, None, spec, backend=backend, seed=1)
    assert result.matches[:2] == [3, 3]
    assert result.matches == _ip_reference(P, None, spec)
