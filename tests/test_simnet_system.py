"""Integration tests: the full five-phase experiment (compressed)."""

import pytest

from repro.exceptions import SimulationError
from repro.simnet.experiment import ExperimentConfig, run_experiment


@pytest.fixture(scope="module")
def small_report():
    config = ExperimentConfig(
        peers=60,
        join_end=10,
        replicate_start=10,
        construct_start=20,
        query_start=60,
        churn_start=90,
        end=110,
        seed=17,
    )
    return run_experiment(config)


class TestPopulationCurve:
    def test_ramp_up_then_plateau(self, small_report):
        pop = dict(small_report.population)
        early = pop.get(2.0, 0)
        plateau = pop.get(50.0, 0)
        assert plateau == 60
        assert early < plateau

    def test_churn_reduces_population(self, small_report):
        pop = dict(small_report.population)
        during_churn = [c for m, c in pop.items() if 95 <= m <= 109]
        assert min(during_churn) < 60

    def test_all_peers_join(self, small_report):
        pop = dict(small_report.population)
        assert max(pop.values()) == 60


class TestBandwidthCurve:
    def test_construction_peak_then_decay(self, small_report):
        maint = dict(small_report.maintenance_bandwidth)
        construction_window = [
            bps for m, bps in maint.items() if 21 <= m <= 40
        ]
        late_window = [bps for m, bps in maint.items() if 70 <= m <= 85]
        assert max(construction_window) > 5 * (
            max(late_window) if late_window else 1.0
        )

    def test_query_traffic_appears_in_query_phase(self, small_report):
        q = dict(small_report.query_bandwidth)
        before = sum(bps for m, bps in q.items() if m < 55)
        after = sum(bps for m, bps in q.items() if m >= 60)
        assert before == 0.0 or after > before
        assert after > 0.0


class TestQueryBehaviour:
    def test_static_success_near_perfect(self, small_report):
        assert small_report.success_rate_static >= 0.97

    def test_churn_success_in_paper_band(self, small_report):
        # Paper: 95-100% even during churn.
        assert small_report.success_rate_churn >= 0.85

    def test_hops_about_half_path_length(self, small_report):
        # Sec. 5.2: average hops ~ half the mean path length.
        assert small_report.mean_query_hops <= small_report.mean_path_length
        assert small_report.mean_query_hops >= 0.2 * small_report.mean_path_length

    def test_latency_series_has_data(self, small_report):
        assert len(small_report.latency) > 5
        for _, avg, sd in small_report.latency:
            assert avg >= 0.0 and sd >= 0.0


class TestStructure:
    def test_deviation_in_paper_band(self, small_report):
        # Paper: 0.39 on PlanetLab / 0.38 in simulation.
        assert small_report.deviation < 0.9

    def test_replication_factor_at_least_n_min_ish(self, small_report):
        assert small_report.replication_factor >= 2.0

    def test_paths_formed(self, small_report):
        assert small_report.mean_path_length > 1.5

    def test_messages_flowed(self, small_report):
        assert small_report.messages_sent > 1000
        assert small_report.messages_dropped < small_report.messages_sent


class TestConfigValidation:
    def test_phase_order_enforced(self):
        config = ExperimentConfig(construct_start=50.0, query_start=40.0)
        with pytest.raises(SimulationError):
            config.validate()

    def test_minimum_population(self):
        with pytest.raises(SimulationError):
            ExperimentConfig(peers=5).validate()

    def test_d_max_default(self):
        assert ExperimentConfig(n_min=7).resolved_d_max() == 70.0
        assert ExperimentConfig(d_max=33.0).resolved_d_max() == 33.0

    def test_summary_rows_complete(self, small_report):
        names = [name for name, _ in small_report.summary_rows()]
        assert "load-balance deviation" in names
        assert "query success (churn)" in names
