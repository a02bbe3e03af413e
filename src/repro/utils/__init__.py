"""Shared low-level utilities: RNG plumbing, validation, bit manipulation."""

from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.validation import (
    check_approximation_factor,
    check_binary,
    check_matrix,
    check_positive,
    check_sign,
    check_threshold,
    check_vector,
)

__all__ = [
    "ensure_rng",
    "spawn_rngs",
    "check_approximation_factor",
    "check_binary",
    "check_matrix",
    "check_positive",
    "check_sign",
    "check_threshold",
    "check_vector",
]
