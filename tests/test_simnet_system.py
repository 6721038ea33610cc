"""Integration tests: the Sec. 5 timeline (``paper-sec52-planetlab``),
compressed to 110 simulated minutes, on the wire."""

import dataclasses
import pathlib
import sys

import pytest

from repro.exceptions import SimulationError
from repro.scenarios import MessageScenarioRunner, library

ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(ROOT / "benchmarks"))

import paper_claims  # noqa: E402

NAN = float("nan")
INF = float("inf")
SCALE = 110 / 525


@pytest.fixture(scope="module")
def small_run():
    return paper_claims.paper_sec52_planetlab(60, 17, SCALE)


def minutes(run):
    """The timeline in minutes, from the phase boundaries: joins end,
    construction starts, queries start, churn starts, the run ends."""
    return paper_claims._timeline(run) + (run.spec.duration_s / 60,)


def at(series, minute):
    """The last sampled value at or before ``minute``."""
    return series[max(m for m in series if m <= minute)]


column = paper_claims._column


class TestPopulationCurve:
    def test_ramp_up_then_plateau(self, small_run):
        joined, construct, query, _, _ = minutes(small_run)
        pop = column(small_run, "online")
        early = at(pop, joined / 5)
        plateau = at(pop, construct + 0.75 * (query - construct))
        assert plateau == 60
        assert early < plateau

    def test_churn_reduces_population(self, small_run):
        _, _, _, churn, end = minutes(small_run)
        pop = column(small_run, "online")
        during_churn = [c for m, c in pop.items() if churn + 5 <= m <= end - 1]
        assert min(during_churn) < 60

    def test_all_peers_join(self, small_run):
        assert max(column(small_run, "online").values()) == 60


class TestBandwidthCurve:
    def test_construction_peak_then_decay(self, small_run):
        _, construct, query, churn, _ = minutes(small_run)
        maint = column(small_run, "maint_Bps")
        middle = (construct + query) / 2
        construction_window = [
            bps for m, bps in maint.items() if construct + 1 <= m <= middle
        ]
        late_window = [bps for m, bps in maint.items() if query + 10 <= m <= churn - 5]
        assert max(construction_window) > 5 * (
            max(late_window) if late_window else 1.0
        )

    def test_query_traffic_appears_in_query_phase(self, small_run):
        _, _, query, _, _ = minutes(small_run)
        q = column(small_run, "query_Bps")
        before = sum(bps for m, bps in q.items() if m < query - 5)
        after = sum(bps for m, bps in q.items() if m >= query)
        assert before == 0.0 or after > before
        assert after > 0.0


class TestQueryBehaviour:
    def test_static_success_near_perfect(self, small_run):
        assert small_run.report.phases[1]["success_rate"] >= 0.97

    def test_churn_success_in_paper_band(self, small_run):
        # Paper: 95-100% even during churn.
        assert small_run.report.phases[2]["success_rate"] >= 0.95

    def test_hops_about_half_path_length(self, small_run):
        # Sec. 5.2: average hops ~ half the mean path length.
        hops = small_run.report.totals["mean_hops"]
        assert hops <= small_run.mean_path_length
        assert hops >= 0.2 * small_run.mean_path_length

    def test_latency_series_has_data(self, small_run):
        assert len(small_run.latency) > 5
        for _, avg, sd in small_run.latency:
            assert avg >= 0.0 and sd >= 0.0


class TestStructure:
    def test_deviation_in_paper_band(self, small_run):
        # Paper: 0.39 on PlanetLab / 0.38 in simulation.
        assert small_run.deviation < 0.9

    def test_replication_factor_at_least_n_min_ish(self, small_run):
        assert small_run.replication_factor >= 2.0

    def test_paths_formed(self, small_run):
        assert small_run.mean_path_length > 1.5

    def test_messages_flowed(self, small_run):
        wire = small_run.report.message_level
        assert wire["messages_sent"] > 1000
        assert wire["messages_dropped"] < wire["messages_sent"]


def first_phase(spec, **changes):
    return dataclasses.replace(
        spec, phases=(dataclasses.replace(spec.phases[0], **changes),) + spec.phases[1:]
    )


class TestSpecValidation:
    # Unchecked, each would fail late or never: as commented.
    @pytest.mark.parametrize(
        "change",
        [
            lambda s: dataclasses.replace(s, n_min=0),  # ZeroDivisionError mid-construction
            lambda s: dataclasses.replace(s, d_max=0.0),  # PartitionError after the timeline
            lambda s: dataclasses.replace(s, d_max=NAN),  # a report built on NaN bounds
            lambda s: first_phase(s, duration_s=INF),  # a run that never ends
            lambda s: dataclasses.replace(s, n_peers=20.5),  # TypeError in the workload draw
            lambda s: dataclasses.replace(s, n_min=2.5),  # TypeError in the workload draw
            lambda s: first_phase(s, duration_s=NAN),  # NaN fails every comparison
        ],
        ids=["n_min=0", "d_max=0", "d_max=nan", "duration=inf", "n_peers=20.5",
             "n_min=2.5", "duration=nan"],
    )
    def test_rejected_before_any_event(self, change):
        spec = change(library.paper_sec52_planetlab(20, seed=17, duration_scale=SCALE))
        with pytest.raises(SimulationError):
            MessageScenarioRunner(spec)

    def test_only_the_first_phase_constructs(self):
        spec = library.paper_sec52_planetlab(20, seed=17, duration_scale=SCALE)
        query = dataclasses.replace(spec.phases[1], construct=True)
        spec = dataclasses.replace(spec, phases=(spec.phases[0], query) + spec.phases[2:])
        with pytest.raises(SimulationError, match="first phase"):
            MessageScenarioRunner(spec)
