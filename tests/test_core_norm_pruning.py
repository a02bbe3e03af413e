import numpy as np
import pytest

from repro import engine
from repro.core import JoinSpec, NormScanIndex, brute_force_join
from repro.datasets import adversarial_maxip, latent_factor_model
from repro.errors import ParameterError


def norm_pruned(P, Q, spec, **options):
    return engine.join(P, Q, spec, backend="norm_pruned", **options)


@pytest.fixture(scope="module")
def model():
    return latent_factor_model(16, 400, rank=10, popularity_skew=1.0, seed=0)


class TestNormScanIndex:
    def test_norms_sorted_descending(self, model):
        index = NormScanIndex(model.items)
        assert (np.diff(index.norms) <= 1e-12).all()

    def test_prefix_length_cutoff(self, model):
        index = NormScanIndex(model.items)
        length = index.prefix_length(query_norm=1.0, threshold=0.5)
        assert (index.norms[:length] >= 0.5 - 1e-12).all()
        if length < index.n:
            assert index.norms[length] < 0.5

    def test_prefix_zero_threshold_scans_all(self, model):
        index = NormScanIndex(model.items)
        assert index.prefix_length(1.0, 0.0) == index.n

    def test_prefix_zero_query(self, model):
        index = NormScanIndex(model.items)
        assert index.prefix_length(0.0, 0.5) == 0

    def test_prefix_length_over_an_array_of_norms(self, model):
        """The array form equals one scalar call per norm, on a zero-norm
        query, at thresholds <= 0, and at the one-ulp cutoff of
        :class:`TestBoundaryPair`."""
        cases = [
            (NormScanIndex(model.items), np.array([0.0, 0.3, 1.0, 4.0]),
             (0.5, 0.0, -1.0)),
            (NormScanIndex(TestBoundaryPair.P), np.array([0.1, 0.0]),
             (TestBoundaryPair.SPEC.cs,)),
        ]
        for index, norms, thresholds in cases:
            for threshold in thresholds:
                lengths = index.prefix_length(norms, threshold)
                assert lengths.dtype == np.int64
                assert lengths.tolist() == [
                    index.prefix_length(float(qn), threshold) for qn in norms
                ]
        assert NormScanIndex(TestBoundaryPair.P).prefix_length(
            np.array([0.1]), TestBoundaryPair.SPEC.cs).tolist() == [1]

    def test_query_finds_exact_best(self, model):
        index = NormScanIndex(model.items)
        for u in range(16):
            q = model.users[u]
            prefs = model.preference(u)
            found, value, work = index.query(q, threshold=float(prefs.max()) * 0.99)
            assert found == int(np.argmax(prefs))
            assert abs(value - prefs.max()) < 1e-12

    def test_query_miss(self, model):
        index = NormScanIndex(model.items)
        found, _, work = index.query(model.users[0], threshold=100.0)
        assert found is None
        assert work == 0  # no vector can reach the threshold

    def test_wrong_dimension(self, model):
        index = NormScanIndex(model.items)
        with pytest.raises(ParameterError):
            index.query(np.zeros(3), threshold=0.5)


class TestNormPrunedJoin:
    def test_matches_brute_force_values(self, model):
        spec = JoinSpec(s=0.4, c=0.8)
        pruned = norm_pruned(model.items, model.users, spec)
        exact = brute_force_join(model.items, model.users, spec)
        assert exact.matched_count > 0
        # Compare matched values, not indices, to be robust to exact ties.
        for qi in range(model.n_users):
            a, b = pruned.matches[qi], exact.matches[qi]
            assert (a is None) == (b is None)
            if a is not None:
                va = float(model.items[a] @ model.users[qi])
                vb = float(model.items[b] @ model.users[qi])
                assert abs(va - vb) < 1e-12

    def test_prunes_on_skewed_norms(self, model):
        spec = JoinSpec(s=0.4, c=0.8)
        pruned = norm_pruned(model.items, model.users, spec)
        exact = brute_force_join(model.items, model.users, spec)
        assert pruned.inner_products_evaluated < exact.inner_products_evaluated / 2

    def test_unsigned_spec(self, rng):
        P = rng.normal(size=(100, 6))
        Q = rng.normal(size=(10, 6))
        spec = JoinSpec(s=0.5, signed=False)
        pruned = norm_pruned(P, Q, spec)
        exact = brute_force_join(P, Q, spec)
        assert exact.matched_count > 0
        for qi in range(10):
            a, b = pruned.matches[qi], exact.matches[qi]
            assert (a is None) == (b is None)
            if a is not None:
                assert abs(abs(P[a] @ Q[qi]) - abs(P[b] @ Q[qi])) < 1e-12

    def test_equal_norms_degrades_to_scan(self, rng):
        # Unit-norm data: no pruning possible when the threshold is low.
        P = rng.normal(size=(50, 6))
        P /= np.linalg.norm(P, axis=1, keepdims=True)
        Q = rng.normal(size=(5, 6))
        Q /= np.linalg.norm(Q, axis=1, keepdims=True)
        spec = JoinSpec(s=0.05)
        pruned = norm_pruned(P, Q, spec, scan_block=1000)
        # Some queries find an early best that cuts the scan; the prefix
        # itself is the full set.
        index = NormScanIndex(P)
        assert index.prefix_length(1.0, 0.05) == 50

    def test_small_blocks_consistent(self, model):
        spec = JoinSpec(s=0.4, c=0.8)
        a = norm_pruned(model.items, model.users, spec, scan_block=7)
        b = norm_pruned(model.items, model.users, spec, scan_block=1000)
        for qi in range(model.n_users):
            x, y = a.matches[qi], b.matches[qi]
            assert (x is None) == (y is None)


class TestQueryBlock:
    def test_blocked_equals_scalar_scan(self, model, rng):
        index = NormScanIndex(model.items)
        Q = model.users
        for signed in (True, False):
            for threshold in (0.1, 0.5, 2.0):
                indices, values, work = index.query_block(
                    Q, threshold=threshold, signed=signed, block=64
                )
                for qi, q in enumerate(Q):
                    found, value, evaluated = index.query(
                        q, threshold=threshold, signed=signed, block=64
                    )
                    assert int(indices[qi]) == (-1 if found is None else found)
                    assert int(work[qi]) == evaluated
                    assert values[qi] == pytest.approx(value, rel=1e-9, abs=1e-12)

    def test_blocked_join_preserves_matches_and_work(self, model):
        spec = JoinSpec(s=0.4, c=0.8)
        blocked = norm_pruned(
            model.items, model.users, spec, scan_block=32, block=7
        )
        index = NormScanIndex(model.items)
        work = 0
        matches = []
        for q in model.users:
            found, _, evaluated = index.query(q, threshold=spec.cs, signed=True, block=32)
            matches.append(found)
            work += evaluated
        assert any(m is not None for m in matches)
        assert blocked.matches == matches
        assert blocked.inner_products_evaluated == work

    def test_query_block_empty(self, model):
        index = NormScanIndex(model.items)
        indices, values, work = index.query_block(
            np.empty((0, index.d)), threshold=0.5
        )
        assert indices.size == 0 and values.size == 0 and work.size == 0

    def test_query_block_dimension_mismatch(self, model):
        index = NormScanIndex(model.items)
        with pytest.raises(ParameterError):
            index.query_block(np.ones((2, index.d + 1)), threshold=0.5)


class TestOneWalk:
    """A threshold join is the prefix walk's top-1 case: the same stop
    rule, and only pairs scoring at least ``cs`` are kept."""

    @pytest.mark.parametrize("scan_block", [7, 256])
    @pytest.mark.parametrize("signed", [True, False])
    def test_top1_join_equals_threshold_join(self, scan_block, signed):
        lf = latent_factor_model(40, 600, rank=8, popularity_skew=0.8,
                                 seed=1)
        gadget = adversarial_maxip(n=300, m=24, d=32, weight=8, seed=3)
        instances = (
            (lf.items, lf.users,
             float(np.median((lf.users @ lf.items.T).max(axis=1)))),
            (gadget.P, gadget.Q, 1.0),
            (gadget.P, gadget.Q, float(np.max(gadget.bulk_max_ip))),
        )
        for P, Q, s in instances:
            threshold = norm_pruned(P, Q, JoinSpec(s=s, signed=signed),
                                    scan_block=scan_block)
            top1 = norm_pruned(P, Q, JoinSpec(s=s, signed=signed, k=1),
                               scan_block=scan_block)
            assert threshold.matched_count > 0
            assert top1.matches == threshold.matches
            assert (top1.inner_products_evaluated
                    == threshold.inner_products_evaluated)


class TestBoundaryPair:
    """``P = Q = 0.1 e1`` at ``s = c = 0.1``: ``p . q == cs`` exactly, but
    the cutoff ``cs / |q|`` rounds one ulp above ``|p|``.  The pair must
    survive pruning, as it does in the brute-force join."""

    P = np.array([[0.1, 0.0]])
    SPEC = JoinSpec(s=0.1, c=0.1)

    def test_instance_sits_on_the_boundary(self):
        assert float(self.P[0] @ self.P[0]) == self.SPEC.cs
        assert self.SPEC.cs / 0.1 > 0.1

    @pytest.mark.parametrize("signed", [True, False])
    def test_join_matches_brute_force(self, signed):
        spec = JoinSpec(s=0.1, c=0.1, signed=signed)
        expected = brute_force_join(self.P, self.P, spec).matches
        assert expected == [0]
        assert norm_pruned(self.P, self.P, spec).matches == expected

    def test_scalar_block_and_topk_scans_keep_the_pair(self):
        index = NormScanIndex(self.P)
        cs = self.SPEC.cs
        assert index.query(self.P[0], threshold=cs)[0] == 0
        assert index.query_block(self.P, threshold=cs)[0].tolist() == [0]
        assert index.topk_block(self.P, threshold=cs, k=1)[0] == [[0]]
