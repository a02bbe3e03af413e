import numpy as np
import pytest

from repro.datasets import planted_ovp
from repro.ovp import (
    OVPInstance,
    solve_ovp_bitpacked,
    solve_ovp_weight_pruned,
    weight_prunable_fraction,
)


class TestWeightPrunedSolver:
    @pytest.mark.parametrize("planted", [True, False])
    def test_agrees_with_bitpacked(self, planted):
        inst = planted_ovp(40, 24, planted=planted, density=0.6, seed=planted)
        a = solve_ovp_weight_pruned(inst)
        b = solve_ovp_bitpacked(inst)
        assert (a is None) == (b is None)
        if a is not None:
            assert inst.is_orthogonal(*a)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_instances_agree(self, seed, rng):
        P = (rng.random((30, 14)) < 0.4).astype(np.int64)
        Q = (rng.random((30, 14)) < 0.4).astype(np.int64)
        inst = OVPInstance(P=P, Q=Q)
        a = solve_ovp_weight_pruned(inst)
        b = solve_ovp_bitpacked(inst)
        assert (a is None) == (b is None)
        if a is not None:
            assert inst.is_orthogonal(*a)

    def test_all_heavy_vectors_short_circuit(self):
        # Every pair weight-incompatible: answer None without coordinate work.
        P = np.ones((5, 6), dtype=np.int64)
        Q = np.ones((5, 6), dtype=np.int64)
        Q[:, 0] = 1  # weight 6 each; 6 + 6 > 6
        inst = OVPInstance(P=P, Q=Q)
        assert solve_ovp_weight_pruned(inst) is None
        assert weight_prunable_fraction(inst) == 1.0

    def test_sparse_instance_nothing_pruned(self):
        P = np.eye(4, dtype=np.int64)
        Q = np.eye(4, dtype=np.int64)
        inst = OVPInstance(P=P, Q=Q)
        # weight 1 + 1 <= 4 always: no pruning, but answers still correct.
        assert weight_prunable_fraction(inst) == 0.0
        pair = solve_ovp_weight_pruned(inst)
        assert pair is not None and inst.is_orthogonal(*pair)

    def test_prunable_fraction_grows_with_density(self, rng):
        d = 16
        sparse = OVPInstance(
            P=(rng.random((20, d)) < 0.2).astype(np.int64),
            Q=(rng.random((20, d)) < 0.2).astype(np.int64),
        )
        dense = OVPInstance(
            P=(rng.random((20, d)) < 0.7).astype(np.int64),
            Q=(rng.random((20, d)) < 0.7).astype(np.int64),
        )
        assert weight_prunable_fraction(dense) > weight_prunable_fraction(sparse)


class TestMultiprobe:
    def test_probes_superset_of_exact(self, rng):
        from repro.lsh import HyperplaneLSH, LSHIndex
        P = rng.normal(size=(120, 8))
        idx = LSHIndex(
            HyperplaneLSH(8), n_tables=4, hashes_per_table=8, seed=0
        ).build(P)
        q = rng.normal(size=8)
        base = set(idx.candidates(q).tolist())
        probed = set(idx.candidates(q, n_probes=3).tolist())
        assert base <= probed

    def test_probes_improve_recall_with_few_tables(self):
        from repro.datasets import planted_mips
        from repro.lsh import DataDepALSH, LSHIndex
        inst = planted_mips(400, 24, 32, s=0.85, c=0.4, seed=1)
        idx = LSHIndex(
            DataDepALSH(32, sphere="hyperplane"), n_tables=2,
            hashes_per_table=12, seed=2,
        ).build(inst.P)
        def recall(n_probes):
            hits = 0
            for qi in range(24):
                cand = idx.candidates(inst.Q[qi], n_probes=n_probes)
                if cand.size and (inst.P[cand] @ inst.Q[qi]).max() >= inst.cs:
                    hits += 1
            return hits / 24
        assert recall(6) >= recall(0)

    def test_probe_budget_validated(self, rng):
        from repro.errors import ParameterError
        from repro.lsh import HyperplaneLSH, LSHIndex
        idx = LSHIndex(
            HyperplaneLSH(4), n_tables=2, hashes_per_table=4, seed=3
        ).build(rng.normal(size=(10, 4)))
        with pytest.raises(ParameterError):
            idx.candidates(np.ones(4), n_probes=5)
        with pytest.raises(ParameterError):
            idx.candidates(np.ones(4), n_probes=-1)
