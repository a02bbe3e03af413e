"""Point MIPS as a top-1 session: the search problem is a join with one
query per row, so the exact scans and the Section 4.1 ALSH answer it
through ``engine.open(..., JoinSpec(k=1, ...))``."""

import numpy as np
import pytest

from repro import engine
from repro.core import JoinSpec
from repro.datasets import latent_factor_model, planted_mips
from repro.errors import ParameterError
from repro.lsh import DataDepALSH


@pytest.fixture(scope="module")
def model():
    return latent_factor_model(24, 800, rank=12, popularity_skew=0.8, seed=0)


def _answer(P, spec, Q, backend="brute_force", **options):
    with engine.open(P, spec, backend=backend, **options) as session:
        return session.query(Q)


class TestExactTop1:
    @pytest.mark.parametrize("backend", ["brute_force", "norm_pruned"])
    def test_matches_argmax(self, model, backend):
        prefs = model.users @ model.items.T
        # s = the smallest user's best preference: every user has an answer.
        spec = JoinSpec(s=float(prefs.max(axis=1).min()), k=1)
        result = _answer(model.items, spec, model.users, backend)
        assert result.matches == np.argmax(prefs, axis=1).tolist()
        assert result.topk == [[m] for m in result.matches]
        scan = model.n_users * model.n_items
        if backend == "brute_force":
            assert result.inner_products_evaluated == scan
        else:
            assert 0 < result.inner_products_evaluated < scan / 2

    def test_top_k_sorted_and_correct(self, model):
        top = _answer(model.items, JoinSpec(s=1e-9, k=5), model.users[:1]).topk[0]
        assert top == np.argsort(-model.preference(0))[:5].tolist()

    def test_top_k_exceeding_n(self, model):
        spec = JoinSpec(s=1e-9, k=10 ** 6)
        top = _answer(model.items, spec, model.users[:1]).topk[0]
        prefs = model.preference(0)
        assert len(top) == int((prefs >= spec.cs).sum())
        assert np.all(np.diff(prefs[top]) <= 0)

    def test_top_k_validates(self):
        with pytest.raises(ParameterError, match="k must be >= 1"):
            JoinSpec(s=0.5, k=0)

    def test_query_dimension_validated(self, model):
        with engine.open(model.items, JoinSpec(s=0.5, k=1)) as session:
            with pytest.raises(ParameterError, match="dimension"):
                session.query(np.zeros((1, model.rank + 1)))


class TestALSHTop1:
    """The DATA-DEP ALSH index as a top-1 session (no scan fallback: a
    query with no candidate above ``cs`` gets an empty list)."""

    def _session_result(self, seed, n_tables):
        inst = planted_mips(400, 12, 24, s=0.9, c=0.3, seed=seed)
        result = _answer(
            inst.P, JoinSpec(s=0.9, c=0.3, k=1), inst.Q, "lsh",
            family=DataDepALSH(24, sphere="hyperplane"),
            n_tables=n_tables, hashes_per_table=6, seed=seed + 1,
        )
        return inst, result

    def test_high_quality_on_planted(self):
        inst, result = self._session_result(5, 16)
        assert sum(1 for top in result.topk if top) >= 10
        for q, top in enumerate(result.topk):
            if top:
                assert float(inst.P[top[0]] @ inst.Q[q]) >= inst.cs

    def test_work_below_scan(self):
        inst, result = self._session_result(7, 8)
        assert result.inner_products_evaluated / len(inst.Q) < inst.n / 2
