import numpy as np
import pytest

from repro import engine
from repro.core import JoinSpec
from repro.datasets import planted_mips
from repro.errors import ParameterError
from repro.lsh import DataDepALSH, HyperplaneLSH, LSHIndex


def _lsh_query(index, P, q, threshold, signed=True):
    """The index's best candidate clearing ``threshold``, or None."""
    spec = JoinSpec(s=threshold, signed=signed)
    return engine.join(P, q[None, :], spec, backend="lsh",
                       index=index).matches[0]


@pytest.fixture(scope="module")
def instance():
    return planted_mips(250, 12, 24, s=0.85, c=0.4, seed=0)


@pytest.fixture(scope="module")
def index(instance):
    fam = DataDepALSH(24, sphere="hyperplane")
    return LSHIndex(fam, n_tables=14, hashes_per_table=6, seed=1).build(instance.P)


class TestBuildAndQuery:
    def test_build_required_before_query(self):
        idx = LSHIndex(HyperplaneLSH(4), seed=0)
        with pytest.raises(ParameterError):
            idx.candidates(np.zeros(4))
        assert not idx.is_built

    def test_candidates_are_valid_indices(self, index, instance):
        cands = index.candidates(instance.Q[0])
        assert ((cands >= 0) & (cands < instance.n)).all()
        assert len(set(cands.tolist())) == cands.size

    def test_recall_on_planted_instance(self, index, instance):
        hits = 0
        for qi in range(12):
            found = _lsh_query(index, instance.P, instance.Q[qi], instance.cs)
            if found is not None:
                value = float(instance.P[found] @ instance.Q[qi])
                assert value >= instance.cs
                hits += 1
        assert hits >= 10  # high recall at these index parameters

    def test_candidates_subquadratic(self, index, instance):
        # Filtering must inspect far fewer pairs than brute force would.
        assert index.stats.candidates_per_query < instance.n / 2

    def test_query_returns_none_for_impossible_threshold(self, index, instance):
        assert _lsh_query(index, instance.P, instance.Q[0], 10.0) is None

    def test_query_all_above(self, index, instance):
        spec = JoinSpec(s=instance.cs, k=instance.n)
        hits = engine.join(instance.P, instance.Q[:1], spec, backend="lsh",
                           index=index).topk[0]
        for h in hits:
            assert abs(float(instance.P[h] @ instance.Q[0])) >= instance.cs

    def test_unsigned_query(self, index, instance):
        found = _lsh_query(index, instance.P, -instance.Q[0], instance.cs,
                           signed=False)
        if found is not None:
            assert abs(float(instance.P[found] @ -instance.Q[0])) >= instance.cs


class TestStats:
    def test_stats_accumulate(self, instance):
        fam = DataDepALSH(24, sphere="hyperplane")
        idx = LSHIndex(fam, n_tables=4, hashes_per_table=4, seed=2).build(instance.P)
        idx.candidates(instance.Q[0])
        idx.candidates(instance.Q[1])
        assert idx.stats.queries == 2
        assert idx.stats.candidates >= idx.stats.unique_candidates

    def test_n_property(self, index, instance):
        assert index.n == instance.n


class TestValidation:
    def test_bad_table_count(self):
        with pytest.raises(ParameterError):
            LSHIndex(HyperplaneLSH(4), n_tables=0)

    def test_bad_hash_count(self):
        with pytest.raises(ParameterError):
            LSHIndex(HyperplaneLSH(4), hashes_per_table=0)

    def test_more_tables_more_candidates(self, instance):
        fam = DataDepALSH(24, sphere="hyperplane")
        small = LSHIndex(fam, n_tables=2, hashes_per_table=6, seed=3).build(instance.P)
        large = LSHIndex(fam, n_tables=20, hashes_per_table=6, seed=3).build(instance.P)
        q = instance.Q[0]
        assert large.candidates(q).size >= small.candidates(q).size
