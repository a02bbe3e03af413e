"""Locality-sensitive hashing substrate.

Contains the (A)LSH framework (Definition 2 of the paper), the concrete
hash families the paper discusses or compares against, amplification, a
multi-table index usable for joins, and the closed-form ρ exponents that
generate Figure 2.
"""

from repro.lsh.amplification import AndConstruction, amplify_gap
from repro.lsh.batch_hash import (
    AsymmetricMinHashTables,
    CrossPolytopeTables,
    E2LSHTables,
    GenericHashTables,
    MinHashTables,
    SignProjectionTables,
)
from repro.lsh.csr import CandidateBlock, CSRBucketTable
from repro.lsh.e2lsh import E2LSH
from repro.lsh.empirical_rho import RhoEstimate, empirical_rho_curve, estimate_rho
from repro.lsh.sign_alsh import SignALSH, rho_sign_alsh
from repro.lsh.base import (
    MISS_KEY,
    AsymmetricLSHFamily,
    BatchHashTables,
    HashFunctionPair,
    LSHFamily,
    estimate_collision_probability,
)
from repro.lsh.crosspolytope import CrossPolytopeLSH
from repro.lsh.datadep import DataDepALSH
from repro.lsh.hyperplane import HyperplaneLSH
from repro.lsh.index import LSHIndex, QueryStats
from repro.lsh.l2alsh import L2ALSH
from repro.lsh.minhash import AsymmetricMinHash, MinHash
from repro.lsh.planner import IndexPlan, plan, plan_datadep
from repro.lsh.rho import (
    collision_prob_hyperplane,
    rho_datadep,
    rho_l2alsh,
    rho_mh_alsh,
    rho_simple_lsh,
)
from repro.lsh.simple_alsh import SimpleALSH
from repro.lsh.symmetric import SymmetricIPSHash

__all__ = [
    "LSHFamily",
    "AsymmetricLSHFamily",
    "HashFunctionPair",
    "BatchHashTables",
    "MISS_KEY",
    "estimate_collision_probability",
    "SignProjectionTables",
    "CrossPolytopeTables",
    "E2LSHTables",
    "MinHashTables",
    "AsymmetricMinHashTables",
    "GenericHashTables",
    "AndConstruction",
    "amplify_gap",
    "HyperplaneLSH",
    "CrossPolytopeLSH",
    "MinHash",
    "AsymmetricMinHash",
    "L2ALSH",
    "SimpleALSH",
    "DataDepALSH",
    "SymmetricIPSHash",
    "LSHIndex",
    "QueryStats",
    "CandidateBlock",
    "CSRBucketTable",
    "E2LSH",
    "RhoEstimate",
    "estimate_rho",
    "empirical_rho_curve",
    "SignALSH",
    "rho_sign_alsh",
    "IndexPlan",
    "plan",
    "plan_datadep",
    "rho_datadep",
    "rho_simple_lsh",
    "rho_mh_alsh",
    "rho_l2alsh",
    "collision_prob_hyperplane",
]
