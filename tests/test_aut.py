"""Tests for the AUT fluid model."""

import statistics

import pytest

from repro.core.aut import AUT_HALF_COST, aut_cost_per_peer, aut_interactions
from repro.core.bisection import simulate_aut
from repro.exceptions import DomainError


class TestFluidModel:
    def test_half_cost_closed_form(self):
        # u(tau) = 2 - e^{tau/2}  =>  tau* = 2 ln 2.
        pred = aut_interactions(1000, 0.5)
        assert pred.per_peer == pytest.approx(AUT_HALF_COST, rel=0.01)

    def test_cost_decreases_with_skew_toward_half(self):
        # Cost falls as p grows toward 1/2 (majority finds references faster).
        costs = [aut_cost_per_peer(p) for p in (0.05, 0.15, 0.3, 0.5)]
        assert costs == sorted(costs, reverse=True)

    def test_population_cancels(self):
        assert aut_interactions(100, 0.3).per_peer == pytest.approx(
            aut_interactions(10_000, 0.3).per_peer, rel=0.01
        )

    def test_interactions_scale_with_n(self):
        pred = aut_interactions(500, 0.4)
        assert pred.interactions == pytest.approx(500 * pred.per_peer)

    def test_matches_discrete_simulation(self):
        for p in (0.2, 0.5):
            fluid = aut_interactions(1000, p).per_peer
            sims = [simulate_aut(1000, p, rng=s).per_peer_cost for s in range(10)]
            assert statistics.mean(sims) == pytest.approx(fluid, rel=0.1)

    def test_validation(self):
        with pytest.raises(DomainError):
            aut_interactions(1, 0.4)
        with pytest.raises(DomainError):
            aut_interactions(100, 0.0)
        with pytest.raises(DomainError):
            aut_interactions(100, 0.9)
