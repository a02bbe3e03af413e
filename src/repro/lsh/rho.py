"""Closed-form ρ exponents — the series behind the paper's Figure 2.

Figure 2 compares, as a function of the (normalized) threshold ``s`` at a
fixed approximation ``c``:

* ``DATA-DEP`` — this paper's Section 4.1 bound, equation (3):
  ``rho = (1 - s/U) / (1 + (1 - 2c) s/U)``, from composing the asymmetric
  sphere embedding with the optimal data-dependent sphere LSH [9].
* ``SIMP`` — SIMPLE-LSH of [39]:
  ``rho = log(1 - arccos(s)/pi) / log(1 - arccos(cs)/pi)``.
* ``MH-ALSH`` — asymmetric minwise hashing [46], binary data only.  With
  sets normalized so data weight and query weight equal the padding target
  ``M``, the collision probability at normalized inner product ``t`` is
  ``t / (2 - t)``, giving ``rho = log(s/(2-s)) / log(cs/(2-cs))``.

``rho_l2alsh`` additionally evaluates the original L2-ALSH(SL) exponent
[45] (not one of Figure 2's curves, provided for completeness and the
ablation benches).
"""

from __future__ import annotations

import math

from repro.errors import ParameterError


def _check_sc(s: float, c: float) -> None:
    if not 0.0 < s < 1.0:
        raise ParameterError(f"s must be in (0, 1), got {s}")
    if not 0.0 < c < 1.0:
        raise ParameterError(f"c must be in (0, 1), got {c}")


def rho_datadep(s: float, c: float, query_radius: float = 1.0) -> float:
    """Equation (3): ``(1 - s/U) / (1 + (1 - 2c) s/U)``.

    ``s`` is the inner-product threshold with data in the unit ball and
    queries in the ball of radius ``U = query_radius``; requires
    ``s <= U``.
    """
    if not 0.0 < c < 1.0:
        raise ParameterError(f"c must be in (0, 1), got {c}")
    if query_radius <= 0:
        raise ParameterError(f"query_radius must be positive, got {query_radius}")
    ratio = s / query_radius
    if not 0.0 < ratio < 1.0:
        raise ParameterError(f"need 0 < s/U < 1, got {ratio}")
    return (1.0 - ratio) / (1.0 + (1.0 - 2.0 * c) * ratio)


def collision_prob_hyperplane(t: float) -> float:
    """Hyperplane LSH collision probability ``1 - arccos(t)/pi`` at cosine t."""
    if not -1.0 <= t <= 1.0:
        raise ParameterError(f"t must be in [-1, 1], got {t}")
    return 1.0 - math.acos(t) / math.pi


def rho_simple_lsh(s: float, c: float) -> float:
    """SIMPLE-LSH exponent [39] at threshold ``s`` and approximation ``c``."""
    _check_sc(s, c)
    p1 = collision_prob_hyperplane(s)
    p2 = collision_prob_hyperplane(c * s)
    return math.log(p1) / math.log(p2)


def collision_prob_mh_alsh(t: float) -> float:
    """MH-ALSH collision probability ``t / (2 - t)`` at normalized overlap t.

    Normalization: binary vectors with weights equal to the padding target
    ``M``; ``t = a / M`` where ``a`` is the intersection size.
    """
    if not 0.0 <= t <= 1.0:
        raise ParameterError(f"t must be in [0, 1], got {t}")
    return t / (2.0 - t)


def rho_mh_alsh(s: float, c: float) -> float:
    """MH-ALSH exponent [46] (binary data) at threshold s, approximation c."""
    _check_sc(s, c)
    p1 = collision_prob_mh_alsh(s)
    p2 = collision_prob_mh_alsh(c * s)
    return math.log(p1) / math.log(p2)


def collision_prob_e2lsh(distance: float, w: float) -> float:
    """p-stable E2LSH collision probability at Euclidean ``distance``.

    ``p(r) = 1 - 2 Phi(-w/r) - (2 r / (sqrt(2 pi) w)) (1 - e^{-w^2/(2 r^2)})``
    (Datar et al.); monotone decreasing in ``r``.
    """
    if w <= 0:
        raise ParameterError(f"w must be positive, got {w}")
    if distance < 0:
        raise ParameterError(f"distance must be >= 0, got {distance}")
    if distance == 0:
        return 1.0
    ratio = w / distance
    term = (2.0 / (math.sqrt(2.0 * math.pi) * ratio)) * (1.0 - math.exp(-(ratio ** 2) / 2.0))
    # 2 Phi(-x) = erfc(x / sqrt(2)): the normal tail without scipy.stats.
    return 1.0 - math.erfc(ratio / math.sqrt(2.0)) - term


def _l2alsh_distance_sq(t: float, m: int, u0: float) -> float:
    """Embedded squared distance at normalized inner product ``t``."""
    return 1.0 + m / 4.0 - 2.0 * u0 * t + u0 ** (2 ** (m + 1))


def rho_l2alsh(s: float, c: float, m: int = 3, u0: float = 0.83, w: float = 2.5) -> float:
    """L2-ALSH(SL) exponent [45] with explicit parameters ``(m, U0, w)``.

    ``s`` is the normalized threshold (data scaled into the ``U0`` ball,
    unit queries).  Smaller is better; the paper's Figure 2 predecessor
    papers tune ``(m, U0, w)`` per ``(s, c)`` — see
    :func:`rho_l2alsh_tuned`.
    """
    _check_sc(s, c)
    if m < 1 or not 0.0 < u0 < 1.0 or w <= 0:
        raise ParameterError(f"bad parameters m={m}, u0={u0}, w={w}")
    r1 = math.sqrt(_l2alsh_distance_sq(s, m, u0))
    r2 = math.sqrt(_l2alsh_distance_sq(c * s, m, u0))
    p1 = collision_prob_e2lsh(r1, w)
    p2 = collision_prob_e2lsh(r2, w)
    return math.log(p1) / math.log(p2)


def rho_l2alsh_tuned(s: float, c: float) -> float:
    """L2-ALSH exponent minimized over a small ``(m, U0, w)`` grid."""
    _check_sc(s, c)
    best = float("inf")
    for m in (2, 3, 4):
        for u0 in (0.75, 0.83, 0.9):
            for w in (1.5, 2.0, 2.5, 3.0):
                best = min(best, rho_l2alsh(s, c, m=m, u0=u0, w=w))
    return best


def rho_sphere_optimal(r: float, c_prime: float) -> float:
    """Andoni-Razenshteyn sphere exponent ``1 / (2 c'^2 - 1)`` [9].

    ``r`` is the near distance (unused by the formula but kept for
    signature clarity with callers that derive ``c_prime`` from it).
    """
    if c_prime <= math.sqrt(0.5):
        raise ParameterError(f"need c' > 1/sqrt(2), got {c_prime}")
    return 1.0 / (2.0 * c_prime * c_prime - 1.0)


def figure2_series(c: float, s_values) -> dict:
    """The three Figure 2 curves evaluated on a grid of thresholds.

    Returns a dict with keys ``"s"``, ``"DATA-DEP"``, ``"SIMP"``,
    ``"MH-ALSH"`` mapping to lists; this is exactly what the Figure 2
    bench prints.
    """
    out = {"s": [], "DATA-DEP": [], "SIMP": [], "MH-ALSH": []}
    for s in s_values:
        out["s"].append(float(s))
        out["DATA-DEP"].append(rho_datadep(s, c))
        out["SIMP"].append(rho_simple_lsh(s, c))
        out["MH-ALSH"].append(rho_mh_alsh(s, c))
    return out
