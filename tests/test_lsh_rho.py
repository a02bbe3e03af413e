import math

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.lsh.rho import (
    collision_prob_e2lsh,
    collision_prob_hyperplane,
    collision_prob_mh_alsh,
    figure2_series,
    rho_datadep,
    rho_l2alsh,
    rho_l2alsh_tuned,
    rho_mh_alsh,
    rho_simple_lsh,
    rho_sphere_optimal,
)


#: ``collision_prob_e2lsh(r, w)`` as computed with ``scipy.stats``'s
#: normal CDF, by distance ``r`` and bucket width ``w`` (1, 2.5, 4).
E2LSH_PINNED = {
    0.1: (0.9202115439197135, 0.9680846175678854, 0.9800528859799283),
    0.5: (0.609548422215397, 0.840423109224089, 0.9002644298996418),
    1.0: (0.3687463803725072, 0.6824494854221563, 0.8005324324284999),
    2.0: (0.1954171079994935, 0.442631340646432, 0.609548422215397),
    3.0: (0.13176300338583544, 0.31447026609400147, 0.4651792519601056),
    10.0: (0.03986101606563978, 0.09921934257717978, 0.15748278273010147),
}

#: ``rho_l2alsh_tuned(s, 0.5)``, computed the same way.
L2ALSH_TUNED_PINNED = {
    0.1: 0.9701590027783757,
    0.3: 0.8975784182253492,
    0.5: 0.800633371282305,
    0.7: 0.6621517877937485,
    0.9: 0.4357019125570856,
}


class TestCollisionForms:
    def test_e2lsh_pinned_values(self):
        for r, row in E2LSH_PINNED.items():
            for w, want in zip((1.0, 2.5, 4.0), row):
                assert collision_prob_e2lsh(r, w) == pytest.approx(
                    want, rel=0.0, abs=1e-15), (r, w)

    def test_l2alsh_tuned_pinned_values(self):
        for s, want in L2ALSH_TUNED_PINNED.items():
            assert rho_l2alsh_tuned(s, 0.5) == pytest.approx(
                want, rel=1e-12, abs=0.0), s

    def test_hyperplane_extremes(self):
        assert collision_prob_hyperplane(1.0) == 1.0
        assert collision_prob_hyperplane(-1.0) == 0.0
        assert abs(collision_prob_hyperplane(0.0) - 0.5) < 1e-12

    def test_hyperplane_domain(self):
        with pytest.raises(ParameterError):
            collision_prob_hyperplane(1.5)

    def test_mh_alsh_extremes(self):
        assert collision_prob_mh_alsh(0.0) == 0.0
        assert collision_prob_mh_alsh(1.0) == 1.0

    def test_e2lsh_monotone_decreasing(self):
        probs = [collision_prob_e2lsh(r, w=2.0) for r in (0.1, 0.5, 1.0, 3.0)]
        assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_e2lsh_at_zero(self):
        assert collision_prob_e2lsh(0.0, w=1.0) == 1.0

    def test_e2lsh_domain(self):
        with pytest.raises(ParameterError):
            collision_prob_e2lsh(1.0, w=0.0)


class TestRhoFormulas:
    def test_datadep_equation3(self):
        # rho = (1 - s/U) / (1 + (1-2c)s/U)
        assert abs(rho_datadep(0.5, 0.5) - (0.5 / 1.0)) < 1e-12
        assert abs(rho_datadep(0.8, 0.25, query_radius=2.0)
                   - (1 - 0.4) / (1 + 0.5 * 0.4)) < 1e-12

    def test_datadep_approaches_zero_at_high_s(self):
        assert rho_datadep(0.99, 0.5) < 0.02

    def test_all_rhos_in_unit_interval(self):
        for s in (0.1, 0.5, 0.9):
            for c in (0.2, 0.5, 0.8):
                for fn in (rho_datadep, rho_simple_lsh, rho_mh_alsh):
                    assert 0.0 < fn(s, c) <= 1.0 + 1e-9

    def test_paper_claim_datadep_beats_simp(self):
        # "our bound is always stronger than the one from [39]".
        for s in np.linspace(0.05, 0.95, 19):
            for c in (0.2, 0.5, 0.8):
                assert rho_datadep(s, c) <= rho_simple_lsh(s, c) + 1e-9

    def test_paper_claim_sometimes_beats_mh_alsh(self):
        # "sometimes stronger than [46] despite it being tailored for
        # binary vectors" (e.g. s >= 1/3-ish and moderate c).
        wins = sum(
            rho_datadep(s, 0.83) < rho_mh_alsh(s, 0.83)
            for s in np.linspace(0.35, 0.95, 13)
        )
        losses = sum(
            rho_datadep(s, 0.2) > rho_mh_alsh(s, 0.2)
            for s in np.linspace(0.05, 0.3, 6)
        )
        assert wins > 0 and losses > 0

    def test_rho_decreasing_in_s_for_datadep(self):
        values = [rho_datadep(s, 0.5) for s in (0.1, 0.4, 0.7, 0.9)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_l2alsh_worse_than_datadep(self):
        # The original ALSH is dominated at the defaults.
        for s in (0.3, 0.6, 0.9):
            assert rho_l2alsh(s, 0.5) > rho_datadep(s, 0.5)

    def test_l2alsh_tuned_no_worse_than_defaults(self):
        for s in (0.3, 0.6):
            assert rho_l2alsh_tuned(s, 0.5) <= rho_l2alsh(s, 0.5) + 1e-12

    def test_sphere_optimal(self):
        assert abs(rho_sphere_optimal(1.0, 1.0) - 1.0) < 1e-12
        assert rho_sphere_optimal(1.0, 2.0) == 1.0 / 7.0
        with pytest.raises(ParameterError):
            rho_sphere_optimal(1.0, 0.5)

    def test_domain_checks(self):
        with pytest.raises(ParameterError):
            rho_datadep(0.0, 0.5)
        with pytest.raises(ParameterError):
            rho_simple_lsh(0.5, 1.0)
        with pytest.raises(ParameterError):
            rho_mh_alsh(1.5, 0.5)


class TestFigure2Series:
    def test_structure(self):
        series = figure2_series(0.5, [0.2, 0.5, 0.8])
        assert set(series) == {"s", "DATA-DEP", "SIMP", "MH-ALSH"}
        assert len(series["DATA-DEP"]) == 3

    def test_datadep_lowest_at_high_s(self):
        series = figure2_series(0.5, [0.9])
        assert series["DATA-DEP"][0] <= series["SIMP"][0]
        assert series["DATA-DEP"][0] <= series["MH-ALSH"][0]
