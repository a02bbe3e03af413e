"""The measure layer end to end: ``measure="jaccard"`` through the engine.

Covers the tentpole contract of the pluggable-measure refactor:

* ``set_scan`` answers the threshold / top-k / self variants exactly
  (checked against a naive all-pairs Jaccard reference);
* ``minhash_lsh`` is filter-then-verify — sound by construction, and its
  recall on the planted workload clears the CI floor;
* serial == parallel bit-identical, sessions / streams / save-reload /
  sharding compose with the new measure unchanged;
* the capability matrix and ``backends_for`` report consistent cells;
* the ``ip`` measure is regression-gated: the default spec still means
  inner product and validation errors are unchanged.
"""

import numpy as np
import pytest

from repro import engine
from repro.core.problems import JoinSpec
from repro.datasets import (
    SetCollection,
    jaccard_pair,
    planted_jaccard_sets,
    planted_mips,
)
from repro.engine import (
    available_measures,
    backends_for,
    capability_matrix,
    get_measure,
    plan_join,
    sharded_join,
)
from repro.errors import ParameterError, ReproError

N, M, UNIVERSE, MEAN_SIZE = 120, 40, 160, 12
THRESHOLD = 0.6


@pytest.fixture(scope="module")
def workload():
    P, Q = planted_jaccard_sets(
        N, M, universe=UNIVERSE, mean_size=MEAN_SIZE,
        threshold=THRESHOLD, seed=11,
    )
    return P, Q


def naive_best(P, Q, cs):
    """Per query: lowest-index Jaccard maximizer, None below ``cs``."""
    out = []
    for j in range(len(Q)):
        scores = np.array(
            [jaccard_pair(P.row(i), Q.row(j)) for i in range(len(P))]
        )
        best = int(np.argmax(scores))
        out.append(best if scores[best] >= cs else None)
    return out


def naive_topk(P, Q, cs, k):
    """Per query: indices >= cs ranked by score desc, ties to lower index."""
    out = []
    for j in range(len(Q)):
        scores = np.array(
            [jaccard_pair(P.row(i), Q.row(j)) for i in range(len(P))]
        )
        keep = np.flatnonzero(scores >= cs)
        order = keep[np.argsort(-scores[keep], kind="stable")][:k]
        out.append(order.tolist())
    return out


class TestSetScanCorrectness:
    def test_threshold_join_matches_naive(self, workload):
        P, Q = workload
        spec = JoinSpec(s=0.5, measure="jaccard")
        result = engine.join(P, Q, spec, backend="set_scan")
        assert result.matches == naive_best(P, Q, spec.cs)
        assert result.matched_count > 0

    def test_approximate_threshold_uses_cs(self, workload):
        P, Q = workload
        spec = JoinSpec(s=0.6, c=0.5, measure="jaccard")
        result = engine.join(P, Q, spec, backend="set_scan")
        assert result.matches == naive_best(P, Q, spec.cs)

    def test_topk_matches_naive(self, workload):
        P, Q = workload
        spec = JoinSpec(s=0.3, k=3, measure="jaccard")
        result = engine.join(P, Q, spec, backend="set_scan")
        assert result.topk == naive_topk(P, Q, spec.cs, 3)

    def test_self_join_excludes_identity(self, workload):
        P, _ = workload
        spec = JoinSpec(s=0.2, self_join=True, measure="jaccard")
        result = engine.join(P, None, spec, backend="set_scan")
        assert len(result.matches) == len(P)
        for i, match in enumerate(result.matches):
            if match is not None:
                assert match != i
                assert jaccard_pair(P.row(i), P.row(match)) >= spec.cs

    def test_self_join_match_duplicates_off_masks_twins(self):
        rows = [[0, 1, 2], [0, 1, 2], [4, 5], [7]]
        P = SetCollection.from_lists(rows, universe=8)
        spec = JoinSpec(s=0.9, self_join=True, match_duplicates=False,
                        measure="jaccard")
        result = engine.join(P, None, spec, backend="set_scan")
        # Rows 0 and 1 are twins (Jaccard exactly 1): masked.
        assert result.matches[0] is None
        assert result.matches[1] is None

    def test_auto_picks_a_jaccard_backend(self, workload):
        P, Q = workload
        spec = JoinSpec(s=0.5, measure="jaccard")
        result = engine.join(P, Q, spec, backend="auto")
        assert result.backend in ("set_scan", "minhash_lsh")
        exact = engine.join(P, Q, spec, backend="set_scan")
        if result.backend == "set_scan":
            assert result.matches == exact.matches


class TestMinHashLSH:
    def test_matches_are_sound_and_recall_clears_floor(self, workload):
        P, Q = workload
        spec = JoinSpec(s=THRESHOLD, measure="jaccard")
        exact = engine.join(P, Q, spec, backend="set_scan")
        approx = engine.join(P, Q, spec, backend="minhash_lsh", seed=0)
        for j, match in enumerate(approx.matches):
            if match is not None:
                assert jaccard_pair(P.row(match), Q.row(j)) >= spec.cs
        answered = sum(m is not None for m in exact.matches)
        hit = sum(
            a is not None and e is not None
            for a, e in zip(approx.matches, exact.matches)
        )
        assert answered > 0
        assert hit / answered >= 0.95

    def test_topk_lists_verified_exactly(self, workload):
        P, Q = workload
        spec = JoinSpec(s=0.5, k=2, measure="jaccard")
        result = engine.join(P, Q, spec, backend="minhash_lsh", seed=0)
        for j, lst in enumerate(result.topk):
            for i in lst:
                assert jaccard_pair(P.row(i), Q.row(j)) >= spec.cs

    def test_option_validation(self, workload):
        P, Q = workload
        spec = JoinSpec(s=0.5, measure="jaccard")
        with pytest.raises(ParameterError, match="minhash_lsh options"):
            engine.join(P, Q, spec, backend="minhash_lsh", bogus=1)

    def test_seeded_runs_identical(self, workload):
        P, Q = workload
        spec = JoinSpec(s=0.5, measure="jaccard")
        a = engine.join(P, Q, spec, backend="minhash_lsh", seed=7)
        b = engine.join(P, Q, spec, backend="minhash_lsh", seed=7)
        assert a.matches == b.matches
        assert a.inner_products_evaluated == b.inner_products_evaluated


class TestParallelAndComposition:
    @pytest.mark.parametrize("backend", ["set_scan", "minhash_lsh"])
    def test_serial_equals_parallel(self, workload, backend):
        P, Q = workload
        spec = JoinSpec(s=0.5, measure="jaccard")
        serial = engine.join(P, Q, spec, backend=backend, seed=0)
        assert serial.matched_count > 0
        for pool in ("process", "thread"):
            par = engine.join(P, Q, spec, backend=backend, seed=0,
                              n_workers=2, pool=pool, block=16)
            assert par.matches == serial.matches
            assert (par.inner_products_evaluated
                    == serial.inner_products_evaluated)
            assert par.candidates_generated == serial.candidates_generated

    def test_minhash_generator_seed_matches_integer_seed(self, workload):
        """A Generator seed draws the same MinHash family as its integer
        seed, serially and on a worker pool."""
        P, Q = workload
        spec = JoinSpec(s=0.5, measure="jaccard")
        serial = engine.join(P, Q, spec, backend="minhash_lsh", seed=5)
        assert serial.matched_count > 0
        for n_workers in (1, 2):
            par = engine.join(P, Q, spec, backend="minhash_lsh",
                              seed=np.random.default_rng(5),
                              n_workers=n_workers, block=16)
            assert par.matches == serial.matches
            assert par.candidates_generated == serial.candidates_generated

    def test_session_query_equals_one_shot(self, workload):
        P, Q = workload
        spec = JoinSpec(s=0.5, measure="jaccard")
        one_shot = engine.join(P, Q, spec, backend="set_scan")
        assert one_shot.matched_count > 0
        with engine.open(P, spec, backend="set_scan") as session:
            assert session.query(Q).matches == one_shot.matches
            assert session.query(Q).matches == one_shot.matches

    def test_query_stream_bit_identical(self, workload, monkeypatch):
        """Every input kind streams as ``query`` answers: the whole
        collection, ragged set chunks and ragged dense 0/1 chunks."""
        P, Q = workload
        spec = JoinSpec(s=0.5, measure="jaccard")
        dense = Q.to_dense()
        cuts = list(zip([0, 7, 30], [7, 30, len(Q)]))
        inputs = {
            "collection": Q,
            "set chunks": iter([Q[lo:hi] for lo, hi in cuts]),
            "dense chunks": iter([dense[lo:hi] for lo, hi in cuts]),
        }

        def densify(self, dtype=np.float64):
            raise AssertionError("a set stream must not densify")

        monkeypatch.setattr(SetCollection, "to_dense", densify)
        with engine.open(P, spec, backend="set_scan", block=16) as session:
            whole = session.query(Q)
            streams = {
                kind: session.query_stream(batches, chunk_rows=16)
                for kind, batches in inputs.items()
            }
        assert whole.matched_count > 0
        for kind, streamed in streams.items():
            assert streamed.matches == whole.matches, kind
            assert (streamed.inner_products_evaluated
                    == whole.inner_products_evaluated), kind

    def test_save_and_reload(self, workload, tmp_path):
        P, Q = workload
        spec = JoinSpec(s=0.5, measure="jaccard")
        with engine.open(P, spec, backend="set_scan") as session:
            baseline = session.query(Q)
            session.save(tmp_path / "jaccard_index")
        with engine.open_path(tmp_path / "jaccard_index") as reloaded:
            assert reloaded.query(Q).matches == baseline.matches

    def test_sharded_join_equals_serial(self, workload):
        P, Q = workload
        spec = JoinSpec(s=0.5, measure="jaccard")
        serial = engine.join(P, Q, spec, backend="set_scan")
        sharded = sharded_join(P, Q, spec, n_shards=3, backend="set_scan")
        assert serial.matched_count > 0
        assert sharded.matches == serial.matches


class TestCapabilityMatrix:
    def test_matrix_has_both_measure_rows(self):
        matrix = capability_matrix()
        for variant in ("join", "topk", "self"):
            assert "brute_force" in matrix[("ip", variant)]
            assert matrix[("jaccard", variant)] == [
                "set_scan", "minhash_lsh"
            ]

    def test_backends_for_filters_by_measure(self):
        assert "set_scan" not in backends_for("ip", "join")
        assert "brute_force" not in backends_for("jaccard", "join")

    def test_measure_registry(self):
        assert available_measures()[:2] == ["ip", "jaccard"]
        assert get_measure("jaccard").supports_hybrids is False
        with pytest.raises(ParameterError, match="unknown measure"):
            get_measure("cosine")

    @pytest.mark.parametrize("measure, signed",
                             [("ip", True), ("ip", False), ("jaccard", True)])
    def test_block_scorer_matches_pairwise_reference(self, measure, signed):
        """Each measure's block scorer against a naive per-pair score.

        The block holds an empty query and rows repeated across queries;
        for Jaccard, data row 7 and query 5 are empty sets (their
        Jaccard is 0).  Every query also scores alone, as a one-query
        block.
        """
        from repro.lsh.csr import CandidateBlock

        rng = np.random.default_rng(3)
        lists = [[0, 2, 5], [], [0, 2, 6], [3], [1, 4, 6], [1, 6, 7]]
        if measure == "ip":
            P = rng.integers(-3, 4, size=(8, 5)).astype(float)
            Q = rng.integers(-3, 4, size=(6, 5)).astype(float)

            def pair(i, j):
                value = float(P[i] @ Q[j])
                return value if signed else abs(value)
        else:
            def sets(count):
                return [rng.choice(12, size=rng.integers(1, 7), replace=False)
                        for _ in range(count)]

            P = SetCollection.from_lists(sets(7) + [[]], 12)
            Q = SetCollection.from_lists(sets(5) + [[]], 12)

            def pair(i, j):
                return jaccard_pair(P.row(i), Q.row(j))

        scorer = get_measure(measure).verify_block
        block = CandidateBlock.from_lists(
            [np.array(rows, dtype=np.int64) for rows in lists])
        scored = scorer(P, Q, block, signed)
        expected = [pair(i, j) for j, rows in enumerate(lists) for i in rows]
        assert scored.scores.tolist() == expected
        assert scored.n_evaluated == len(expected)
        for j, rows in enumerate(lists):
            alone = scorer(P, Q[j:j + 1], block.slice(j, j + 1), signed)
            assert alone.scores.tolist() == [pair(i, j) for i in rows]

    def test_planner_prices_foreign_measures_infeasible(self):
        plan = plan_join(1000, 100, 64, JoinSpec(s=0.5, measure="jaccard"))
        by_name = {e.backend: e for e in plan.plans}
        assert by_name["set_scan"].feasible
        assert not by_name["brute_force"].feasible
        assert "measure" in by_name["brute_force"].reason
        ip_plan = plan_join(1000, 100, 64, JoinSpec(s=0.75, c=0.8))
        ip_names = {e.backend for e in ip_plan.plans if e.feasible}
        assert "set_scan" not in ip_names and "minhash_lsh" not in ip_names

    def test_explicit_foreign_backend_rejected_cleanly(self, workload):
        P, Q = workload
        spec = JoinSpec(s=0.5, measure="jaccard")
        with pytest.raises(ParameterError, match="does not answer measure"):
            engine.join(P, Q, spec, backend="brute_force")
        dense = planted_mips(50, 10, 16, s=0.8, c=0.5, seed=0)
        with pytest.raises(ParameterError, match="does not answer measure"):
            engine.join(dense.P, dense.Q, JoinSpec(s=0.8, c=0.5),
                        backend="set_scan")


class TestValidationAndIpRegression:
    def test_mismatched_universes_rejected(self):
        P = SetCollection.from_lists([[0, 1]], universe=4)
        Q = SetCollection.from_lists([[0, 1]], universe=5)
        spec = JoinSpec(s=0.5, measure="jaccard")
        with pytest.raises(ParameterError, match="share a universe"):
            engine.join(P, Q, spec, backend="set_scan")

    def test_dense_non_binary_rejected_for_jaccard(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(10, 8))
        spec = JoinSpec(s=0.5, measure="jaccard")
        with pytest.raises(ReproError):
            engine.join(X, X[:4], spec, backend="set_scan")

    def test_jaccard_spec_validation(self):
        with pytest.raises(ParameterError, match="in \\(0, 1\\]"):
            JoinSpec(s=1.5, measure="jaccard")
        with pytest.raises(ParameterError, match="signed"):
            JoinSpec(s=0.5, signed=False, measure="jaccard")

    def test_default_measure_is_ip_and_results_unchanged(self):
        inst = planted_mips(200, 16, 24, s=0.85, c=0.4, seed=5)
        spec = JoinSpec(s=inst.s, c=0.4)
        assert spec.measure == "ip"
        result = engine.join(inst.P, inst.Q, spec, backend="brute_force")
        # The pre-refactor reference: naive numpy argmax over P @ Q.T.
        scores = inst.P @ inst.Q.T
        expected = []
        for j in range(inst.Q.shape[0]):
            best = int(np.argmax(scores[:, j]))
            expected.append(best if scores[best, j] >= spec.cs else None)
        assert result.matches == expected
        auto = engine.join(inst.P, inst.Q, spec, backend="auto", seed=1)
        assert len(auto.matches) == inst.Q.shape[0]

    def test_ip_error_messages_unchanged(self):
        spec = JoinSpec(s=0.5)
        a = np.zeros((4, 3))
        with pytest.raises(ParameterError, match="share a dimension"):
            engine.join(a, np.zeros((2, 5)), spec)
        with pytest.raises(ReproError):
            engine.join(a, SetCollection.from_lists([[0]], universe=3), spec)
