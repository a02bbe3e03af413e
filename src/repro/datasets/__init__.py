"""Workload generators for joins, MIPS, and OVP experiments.

The paper motivates IPS join with recommender systems (latent-factor
models), correlation mining, and set similarity; this package provides
synthetic generators for each of those input families plus planted
instances with known answers for correctness and recall measurements.
"""

from repro.datasets.generators import (
    random_binary,
    random_gaussian,
    random_sign,
    random_sparse_binary,
    random_unit,
)
from repro.datasets.planted import (
    PlantedMIPSInstance,
    planted_mips,
    planted_ovp,
)
from repro.datasets.io import (
    load_vectors,
    normalize_rows,
    normalize_to_unit_ball,
    save_vectors,
)
from repro.datasets.adversarial import (
    AdversarialMaxIPInstance,
    adversarial_maxip,
)
from repro.datasets.recommender import LatentFactorModel, latent_factor_model
from repro.datasets.sets import (
    SetCollection,
    jaccard_pair,
    ov_jaccard_gadget,
    planted_jaccard_sets,
    zipfian_sets,
)

__all__ = [
    "load_vectors",
    "save_vectors",
    "normalize_rows",
    "normalize_to_unit_ball",
    "random_binary",
    "random_gaussian",
    "random_sign",
    "random_sparse_binary",
    "random_unit",
    "PlantedMIPSInstance",
    "planted_mips",
    "planted_ovp",
    "LatentFactorModel",
    "latent_factor_model",
    "AdversarialMaxIPInstance",
    "adversarial_maxip",
    "SetCollection",
    "jaccard_pair",
    "ov_jaccard_gadget",
    "planted_jaccard_sets",
    "zipfian_sets",
]
