"""repro: a reproduction of "On the Complexity of Inner Product Similarity Join".

Ahle, Pagh, Razenshteyn, Silvestri — PODS 2016 (arXiv:1510.02824).

The package implements every constructive object in the paper and the
substrates they depend on:

* ``repro.engine`` — the one entry point for every ``(cs, s)`` join
  variant (signed/unsigned, threshold, top-k, self; exact, LSH-based,
  sketch-based), with a cost-model planner and prepared sessions.
* ``repro.core`` — the problem records, the join kernels, MIPS search,
  and an embed-and-multiply baseline.
* ``repro.ovp`` — the Orthogonal Vectors Problem, its solvers, and the
  generalized unbalanced variant (Lemma 1).
* ``repro.embeddings`` — the three gap embeddings of Lemma 3 and the MIPS
  ball-to-sphere reductions of Section 4.
* ``repro.lsh`` — the (A)LSH framework, every hash family the paper
  discusses, a multi-table index, and the Figure 2 ρ formulas.
* ``repro.lowerbounds`` — Lemma 4's collision-grid machinery (Figure 1)
  and the three hard sequence constructions of Theorem 3.
* ``repro.sketches`` — the linear-sketch c-MIPS structure of Section 4.3.
* ``repro.incoherent`` — explicit incoherent vector collections
  (Reed-Solomon and random).
* ``repro.datasets`` — workload generators, including planted instances.
* ``repro.theory`` — Table 1 and the theorem parameter boundaries in
  closed form.

Quickstart::

    from repro import JoinSpec, engine
    from repro.datasets import planted_mips
    from repro.lsh import DataDepALSH

    inst = planted_mips(n=1000, m=16, d=32, s=0.8, c=0.5, seed=0)
    exact = engine.join(inst.P, inst.Q, JoinSpec(s=inst.s),
                        backend="brute_force")
    approx = engine.join(inst.P, inst.Q, JoinSpec(s=inst.s, c=0.5),
                         backend="lsh", family=DataDepALSH(32), seed=0)
    print(approx.recall_against(exact))
"""

from repro.core import (
    JoinResult,
    JoinSpec,
    MIPSResult,
    brute_force_join,
    brute_force_mips,
)
from repro import engine
from repro.errors import (
    CapacityError,
    ConstructionError,
    DomainError,
    ParameterError,
    ReproError,
    ValidationError,
)

__version__ = "1.0.0"

__all__ = [
    "engine",
    "JoinSpec",
    "JoinResult",
    "MIPSResult",
    "brute_force_join",
    "brute_force_mips",
    "ReproError",
    "ValidationError",
    "DomainError",
    "ParameterError",
    "ConstructionError",
    "CapacityError",
    "__version__",
]
