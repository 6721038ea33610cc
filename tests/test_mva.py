"""Tests for the mean-value models (MVA / SAM)."""

import math

import pytest

from repro.core import mva
from repro.core.probabilities import t_star_interactions
from repro.exceptions import DomainError

LN2 = math.log(2.0)


class TestMVA:
    @pytest.mark.parametrize("p", [0.05, 0.15, 0.25, 0.35, 0.45, 0.5])
    def test_achieves_target_fraction(self, p):
        traj = mva.run_mva(1000, p)
        assert traj.achieved_fraction == pytest.approx(p, abs=0.01)

    def test_beta_regime_cost_is_n_ln2(self):
        for p in [0.35, 0.45, 0.5]:
            traj = mva.run_mva(1000, p)
            assert traj.interactions == pytest.approx(1000 * LN2, rel=0.01)

    def test_alpha_regime_cost_matches_closed_form(self):
        for p in [0.05, 0.15, 0.25]:
            traj = mva.run_mva(2000, p)
            assert traj.interactions == pytest.approx(
                t_star_interactions(p, 2000), rel=0.02
            )

    def test_all_peers_decided(self):
        traj = mva.run_mva(500, 0.4)
        assert traj.x + traj.y == pytest.approx(500, abs=1e-6)

    def test_undecided_follows_closed_form(self):
        traj = mva.run_mva(1000, 0.5, keep_history=True)
        for i in (10, 100, 400):
            expected = mva.closed_form_undecided(1000, i + 1)
            assert traj.history_u[i] == pytest.approx(expected, rel=1e-9)

    def test_heuristic_misses_target(self):
        exact = mva.run_mva(1000, 0.35)
        heur = mva.run_mva(1000, 0.35, heuristic=True)
        assert abs(heur.achieved_fraction - 0.35) > 5 * abs(
            exact.achieved_fraction - 0.35
        )

    def test_rejects_bad_p(self):
        with pytest.raises(DomainError):
            mva.run_mva(100, 0.0)
        with pytest.raises(DomainError):
            mva.run_mva(100, 0.7)


class TestSAM:
    def test_sampling_induces_systematic_bias(self):
        # The Fig. 4 phenomenon: plug-in estimation shifts the balance.
        runs = [mva.run_sam(1000, 0.35, m=5, rng=seed) for seed in range(30)]
        mean_dev = sum(t.deviation for t in runs) / len(runs)
        assert abs(mean_dev) > 1.0  # systematic, not noise

    def test_correction_reduces_bias(self):
        plain = [mva.run_sam(1000, 0.35, m=5, rng=seed) for seed in range(30)]
        corr = [
            mva.run_sam(1000, 0.35, m=5, corrected=True, rng=seed)
            for seed in range(30)
        ]
        bias_plain = abs(sum(t.deviation for t in plain) / len(plain))
        bias_corr = abs(sum(t.deviation for t in corr) / len(corr))
        assert bias_corr < bias_plain

    def test_bias_moves_peers_onto_the_minority_side(self):
        # Sec. 3.2: plug-in estimates shift the side-1 count down, so the
        # side-0 (minority) count ends above its target N p.
        runs = [mva.run_sam(1000, 0.35, m=10, rng=seed) for seed in range(25)]
        assert sum(t.deviation for t in runs) / len(runs) > 0

    def test_bias_shrinks_with_sample_size(self):
        def bias(m):
            runs = [mva.run_sam(1000, 0.35, m=m, rng=seed) for seed in range(25)]
            return abs(sum(t.deviation for t in runs) / len(runs))

        assert bias(100) < bias(10) < bias(5)

    def test_spread_grows_with_population(self):
        def spread(n):
            devs = [mva.run_sam(n, 0.4, m=10, rng=seed).deviation for seed in range(30)]
            mean = sum(devs) / len(devs)
            return math.sqrt(sum((d - mean) ** 2 for d in devs) / len(devs))

        assert 0 < spread(500) < spread(2000)

    def test_large_samples_converge_to_mva(self):
        sam = mva.run_sam(1000, 0.4, m=5000, rng=1)
        exact = mva.run_mva(1000, 0.4)
        assert sam.achieved_fraction == pytest.approx(
            exact.achieved_fraction, abs=0.01
        )

    def test_rejects_bad_sample_size(self):
        with pytest.raises(DomainError):
            mva.run_sam(100, 0.4, m=0)

    def test_deterministic_given_seed(self):
        a = mva.run_sam(500, 0.4, m=10, rng=7)
        b = mva.run_sam(500, 0.4, m=10, rng=7)
        assert a.x == b.x and a.interactions == b.interactions
