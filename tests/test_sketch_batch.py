"""Batched sketch paths vs their per-query references.

Index decisions (argmaxes, descent routing, join matches, work counters)
must agree *exactly* between the batched and looped paths; floating
estimates may differ by BLAS-shape ulps (a GEMM over a query block and a
GEMV per query accumulate in different orders), so they are compared at
tight tolerance.
"""

import numpy as np
import pytest

from repro import engine
from repro.core.problems import JoinSpec
from repro.core.verify import verify_candidates
from repro.errors import ParameterError
from repro.mips.sketch_engine import SketchMIPS
from repro.sketches import (
    LKappaSketch,
    MaxDotEstimator,
    PrefixRecoveryIndex,
    SketchCMIPS,
)

TIGHT = dict(rtol=1e-9, atol=1e-12)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(421)
    A = rng.normal(size=(300, 20))
    Q = rng.normal(size=(111, 20))
    return A, Q


def test_apply_matrix_equals_apply(data):
    A, _ = data
    sketch = LKappaSketch(20, 4.0, copies=5, seed=8)
    X = A[:31]
    batch = sketch.apply_matrix(X)
    for j in range(31):
        assert np.array_equal(batch[:, :, j], sketch.apply(X[j]))


def test_estimate_matrix_equals_looped_estimates(data):
    A, _ = data
    sketch = LKappaSketch(20, 3.0, copies=7, seed=9)
    X = A[:50]
    batch = sketch.estimate_matrix(X)
    looped = np.array([sketch.estimate(x) for x in X])
    assert np.array_equal(batch, looped)


def test_estimates_from_values_shape_check():
    sketch = LKappaSketch(6, 4.0, copies=3, rows=2, seed=0)
    with pytest.raises(ParameterError):
        sketch.estimates_from_values(np.zeros((3, 2)))
    with pytest.raises(ParameterError):
        sketch.estimates_from_values(np.zeros((2, 3, 4)))


def test_estimate_batch_matches_looped_estimate(data):
    A, Q = data
    est = MaxDotEstimator(A, kappa=4.0, copies=5, seed=13)
    batch = est.estimate_batch(Q)
    looped = np.array([est.estimate(q) for q in Q])
    assert np.allclose(batch, looped, **TIGHT)
    assert est.estimate_batch(Q[:0]).size == 0


def test_estimate_batch_chunking_consistent(data):
    A, Q = data
    import repro.sketches.maxnorm as maxnorm

    est = MaxDotEstimator(A, kappa=4.0, copies=5, seed=13)
    full = est.estimate_batch(Q)
    original = maxnorm._BATCH_VALUE_ELEMS
    try:
        # Force tiny chunks; results must stay ulp-close to one big GEMM.
        maxnorm._BATCH_VALUE_ELEMS = est.sketch.copies * est.sketch.rows * 7
        chunked = est.estimate_batch(Q)
    finally:
        maxnorm._BATCH_VALUE_ELEMS = original
    assert np.allclose(full, chunked, **TIGHT)


def test_recovery_query_batch_matches_looped_query(data):
    A, Q = data
    rec = PrefixRecoveryIndex(A, kappa=4.0, leaf_size=8, copies=5, seed=17)
    indices, values = rec.query_batch(Q)
    for j, q in enumerate(Q):
        idx, val = rec.query(q)
        assert int(indices[j]) == idx
        assert values[j] == pytest.approx(val, rel=1e-9)
    empty_i, empty_v = rec.query_batch(Q[:0])
    assert empty_i.size == 0 and empty_v.size == 0


def test_cmips_query_batch_matches_looped_query(data):
    A, Q = data
    cmips = SketchCMIPS(A, kappa=4.0, copies=5, seed=23)
    batch = cmips.query_batch(Q)
    assert len(batch) == Q.shape[0]
    for j, q in enumerate(Q):
        answer = cmips.query(q)
        assert batch[j].index == answer.index
        assert batch[j].value == pytest.approx(answer.value, rel=1e-9)
        assert batch[j].norm_estimate == pytest.approx(answer.norm_estimate, rel=1e-9)


def _sketch_join(A, Q, s, **options):
    return engine.join(
        A, Q, JoinSpec(s=s, signed=False), backend="sketch", **options
    )


def test_sketch_join_blocked_equals_per_query_reference(data):
    A, Q = data
    result = _sketch_join(A, Q, 2.0, kappa=4.0, copies=5, seed=29, block=32)
    structure = SketchCMIPS(A, kappa=4.0, copies=5, seed=29)
    per_query = structure.recovery.query_cost() // max(1, A.shape[1])
    proposals = []
    empty = np.empty(0, dtype=np.int64)
    for q in Q:
        answer = structure.query(q)
        proposals.append(
            np.array([answer.index], dtype=np.int64) if answer.index >= 0 else empty
        )
    ref_matches, _ = verify_candidates(
        A, Q, proposals, threshold=result.spec.cs, signed=False, block=32
    )
    assert any(m is not None for m in ref_matches)
    assert result.matches == ref_matches
    assert result.inner_products_evaluated == per_query * Q.shape[0]
    assert result.candidates_generated == Q.shape[0]


def test_sketch_mips_query_batch(data):
    A, Q = data
    mips = SketchMIPS(A, kappa=4.0, copies=5, seed=31)
    batched = mips.query_batch(Q, block=40)
    looped = [mips.query(q) for q in Q]
    assert [a.index for a in batched] == [a.index for a in looped]
    assert [a.work for a in batched] == [a.work for a in looped]
    assert np.allclose(
        [a.value for a in batched], [a.value for a in looped], **TIGHT
    )


def test_sketch_join_worker_invariance(data):
    A, Q = data
    options = dict(kappa=4.0, copies=5, seed=37, block=32)
    serial = _sketch_join(
        A, Q, 2.0, structure=SketchCMIPS(A, kappa=4.0, copies=5, seed=37),
        block=32,
    )
    one = _sketch_join(A, Q, 2.0, n_workers=1, **options)
    multi = _sketch_join(A, Q, 2.0, n_workers=2, **options)
    assert serial.matched_count > 0
    assert serial.matches == one.matches == multi.matches
    assert (
        serial.inner_products_evaluated
        == one.inner_products_evaluated
        == multi.inner_products_evaluated
    )
    assert one.spec.cs == pytest.approx(multi.spec.cs)


def test_mips_engine_default_query_batch(data):
    from repro.mips.base import MIPSEngine

    A, Q = data

    class Exact(MIPSEngine):
        def query(self, q):
            from repro.mips.base import MIPSAnswer

            values = self._P @ q
            j = int(np.argmax(values))
            return MIPSAnswer(index=j, value=float(values[j]), work=self.n)

    exact = Exact(A)
    assert exact.query_batch(Q) == [exact.query(q) for q in Q]
