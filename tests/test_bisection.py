"""Tests for the discrete bisection simulators (AEP/COR/AUT)."""

import math
import statistics

import pytest

from repro.core.bisection import BisectionOutcome, simulate_aep, simulate_aut
from repro.core.probabilities import t_star_interactions
from repro.exceptions import DomainError

LN2 = math.log(2.0)


class TestOutcome:
    def test_derived_quantities(self):
        out = BisectionOutcome(
            n=100, p=0.3, n0=35, n1=65, interactions=150,
            referential_integrity=True,
        )
        assert out.deviation == pytest.approx(5.0)
        assert out.achieved_fraction == pytest.approx(0.35)
        assert out.per_peer_cost == pytest.approx(1.5)


class TestAEPDiscrete:
    def test_counts_conserved(self):
        out = simulate_aep(500, 0.4, rng=1)
        assert out.n0 + out.n1 == 500

    def test_referential_integrity_invariant(self):
        # The paper's key practical property: every decided peer holds a
        # reference to the opposite partition, in every run.
        for seed in range(10):
            out = simulate_aep(300, 0.35, m=10, rng=seed)
            assert out.referential_integrity

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5])
    def test_achieves_fraction_on_average(self, p):
        runs = [simulate_aep(1000, p, rng=seed) for seed in range(20)]
        mean_frac = statistics.mean(r.achieved_fraction for r in runs)
        assert mean_frac == pytest.approx(p, abs=0.03)

    def test_cost_matches_theory_beta_regime(self):
        runs = [simulate_aep(1000, 0.5, rng=seed) for seed in range(10)]
        mean_cost = statistics.mean(r.interactions for r in runs)
        assert mean_cost == pytest.approx(1000 * LN2, rel=0.1)

    def test_cost_matches_theory_alpha_regime(self):
        runs = [simulate_aep(1000, 0.1, rng=seed) for seed in range(10)]
        mean_cost = statistics.mean(r.interactions for r in runs)
        assert mean_cost == pytest.approx(t_star_interactions(0.1, 1000), rel=0.15)

    def test_sampling_bias_and_correction(self):
        # Discrete analogue of Fig. 4: AEP with sampled p drifts, COR does not.
        plain = [simulate_aep(1000, 0.4, m=5, rng=s) for s in range(25)]
        corr = [simulate_aep(1000, 0.4, m=5, corrected=True, rng=s) for s in range(25)]
        bias_plain = abs(statistics.mean(r.deviation for r in plain))
        bias_corr = abs(statistics.mean(r.deviation for r in corr))
        assert bias_corr < bias_plain

    def test_heuristic_degrades_accuracy(self):
        exact = [simulate_aep(500, 0.35, rng=s) for s in range(20)]
        heur = [simulate_aep(500, 0.35, heuristic=True, rng=s) for s in range(20)]
        err_exact = abs(statistics.mean(r.deviation for r in exact))
        err_heur = abs(statistics.mean(r.deviation for r in heur))
        assert err_heur > err_exact

    def test_deterministic_given_seed(self):
        a = simulate_aep(200, 0.4, m=10, rng=42)
        b = simulate_aep(200, 0.4, m=10, rng=42)
        assert (a.n0, a.interactions) == (b.n0, b.interactions)

    def test_validation(self):
        with pytest.raises(DomainError):
            simulate_aep(1, 0.4)
        with pytest.raises(DomainError):
            simulate_aep(100, 0.0)
        with pytest.raises(DomainError):
            simulate_aep(100, 0.8)
        with pytest.raises(DomainError):
            simulate_aep(100, 0.4, m=0)


class TestAUTDiscrete:
    def test_cost_at_half_is_2ln2(self):
        runs = [simulate_aut(1000, 0.5, rng=s) for s in range(10)]
        mean_cost = statistics.mean(r.per_peer_cost for r in runs)
        assert mean_cost == pytest.approx(2 * LN2, rel=0.1)

    def test_aut_costlier_than_aep_at_half(self):
        aep = statistics.mean(
            simulate_aep(800, 0.5, rng=s).interactions for s in range(10)
        )
        aut = statistics.mean(
            simulate_aut(800, 0.5, rng=s).interactions for s in range(10)
        )
        assert aut > 1.5 * aep

    def test_aut_cheaper_than_aep_for_small_p(self):
        # The Fig. 5 crossover: below p ~ 0.15 AUT wins.
        aep = statistics.mean(
            simulate_aep(800, 0.05, rng=s).interactions for s in range(10)
        )
        aut = statistics.mean(
            simulate_aut(800, 0.05, rng=s).interactions for s in range(10)
        )
        assert aut < aep

    def test_referential_integrity(self):
        for seed in range(10):
            out = simulate_aut(300, 0.3, m=10, rng=seed)
            assert out.referential_integrity

    def test_achieves_fraction_unbiased(self):
        runs = [simulate_aut(1000, 0.3, m=10, rng=s) for s in range(25)]
        mean_frac = statistics.mean(r.achieved_fraction for r in runs)
        assert mean_frac == pytest.approx(0.3, abs=0.02)

    def test_aut_error_spread_larger_than_aep(self):
        # Sec. 3.3: AEP reduces the standard deviation of the partition
        # error by roughly a factor of 2 compared to AUT.
        aep = [simulate_aep(1000, 0.4, m=10, rng=s).deviation for s in range(30)]
        aut = [simulate_aut(1000, 0.4, m=10, rng=s).deviation for s in range(30)]
        assert statistics.pstdev(aut) > 1.3 * statistics.pstdev(aep)

    def test_degenerate_single_side_draw_recovers(self):
        # With extreme p and tiny population all peers may pre-decide the
        # same side; the simulator must still terminate with integrity.
        out = simulate_aut(4, 0.01, rng=0)
        assert out.referential_integrity

    def test_counts_conserved(self):
        out = simulate_aut(500, 0.4, rng=1)
        assert out.n0 + out.n1 == 500

    def test_deterministic_given_seed(self):
        a = simulate_aut(200, 0.4, m=10, rng=42)
        b = simulate_aut(200, 0.4, m=10, rng=42)
        assert (a.n0, a.interactions) == (b.n0, b.interactions)

    def test_cost_falls_as_p_moves_toward_half(self):
        # The larger the minority side, the sooner a random contact sits
        # on the other side or already holds a reference to it.
        costs = [
            statistics.mean(
                simulate_aut(1000, p, rng=s).per_peer_cost for s in range(10)
            )
            for p in (0.05, 0.15, 0.3, 0.5)
        ]
        assert costs == sorted(costs, reverse=True)

    def test_per_peer_cost_does_not_depend_on_population(self):
        small = statistics.mean(
            simulate_aut(200, 0.3, rng=s).per_peer_cost for s in range(10)
        )
        large = statistics.mean(
            simulate_aut(2000, 0.3, rng=s).per_peer_cost for s in range(10)
        )
        assert small == pytest.approx(large, rel=0.05)

    def test_validation(self):
        with pytest.raises(DomainError):
            simulate_aut(1, 0.4)
        with pytest.raises(DomainError):
            simulate_aut(100, 0.0)
        with pytest.raises(DomainError):
            simulate_aut(100, 0.8)
        with pytest.raises(DomainError):
            simulate_aut(100, 0.4, m=0)
