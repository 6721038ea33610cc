"""Unit tests for the declarative scenario engine (spec, runner, library)."""

import random

import pytest

from repro.exceptions import DomainError, SimulationError
from repro.scenarios import (
    SCENARIOS,
    CachePolicy,
    ChurnSpec,
    Hotspot,
    PartitionSpec,
    Phase,
    QueryMix,
    RestartSpec,
    ScenarioRunner,
    ScenarioSpec,
    WriteMix,
    run_scenario,
    scenario,
)
from repro.scenarios.library import (
    correlated_churn,
    flash_crowd,
    mass_join,
    mass_leave,
    paper_sec51_churn,
    regional_outage,
    uniform_baseline,
)
from repro.workloads.queries import POINT, RANGE, QuerySampler

NAN = float("nan")


def _phase(**fields):
    return Phase(name="p", **{"duration_s": 10.0, **fields})


def _spec(phase=None, **fields):
    return ScenarioSpec(name="x", phases=(phase or _phase(),), **fields)


#: One spec per float bound, with NaN in that field.  NaN fails every
#: comparison, so a bound written ``x <= 0`` lets it through.
NAN_SPECS = {
    "Phase.duration_s": lambda: _spec(_phase(duration_s=NAN)),
    "Phase.query_rate": lambda: _spec(_phase(query_rate=NAN)),
    "Phase.maintenance_interval_s": lambda: _spec(_phase(maintenance_interval_s=NAN)),
    "WriteMix.write_rate": lambda: _spec(_phase(writes=WriteMix(write_rate=NAN))),
    "WriteMix.insert_weight": lambda: _spec(_phase(writes=WriteMix(insert_weight=NAN))),
    "WriteMix.delete_weight": lambda: _spec(_phase(writes=WriteMix(delete_weight=NAN))),
    "WriteMix.update_weight": lambda: _spec(_phase(writes=WriteMix(update_weight=NAN))),
    "QueryMix.zipf_exponent": lambda: _spec(_phase(mix=QueryMix(zipf_exponent=NAN))),
    "QueryMix.point_weight": lambda: _spec(_phase(mix=QueryMix(point_weight=NAN))),
    "QueryMix.range_weight": lambda: _spec(_phase(mix=QueryMix(range_weight=NAN))),
    "RestartSpec.stagger_s": lambda: _spec(_phase(restarts=RestartSpec(stagger_s=NAN))),
    "ScenarioSpec.d_max": lambda: _spec(d_max=NAN),
    "ScenarioSpec.report_bin_s": lambda: _spec(report_bin_s=NAN),
    "ScenarioSpec.tombstone_ttl_s": lambda: _spec(tombstone_ttl_s=NAN),
    "CachePolicy.result_ttl_s": lambda: _spec(cache=CachePolicy(result_ttl_s=NAN)),
    "CachePolicy.route_ttl_s": lambda: _spec(cache=CachePolicy(route_ttl_s=NAN)),
    "CachePolicy.decay_interval_s": lambda: _spec(cache=CachePolicy(decay_interval_s=NAN)),
    "CachePolicy.grant_ttl_s": lambda: _spec(cache=CachePolicy(grant_ttl_s=NAN)),
}


#: One builder per count field, taking the value to put there.
COUNT_FIELDS = {
    "ScenarioSpec.n_peers": lambda v: _spec(n_peers=v),
    "ScenarioSpec.keys_per_peer": lambda v: _spec(keys_per_peer=v),
    "ScenarioSpec.n_min": lambda v: _spec(n_min=v),
    "ScenarioSpec.max_refs": lambda v: _spec(max_refs=v),
    "ScenarioSpec.query_retries": lambda v: _spec(query_retries=v),
    "Phase.join_peers": lambda v: _spec(_phase(join_peers=v)),
    "Phase.leave_peers": lambda v: _spec(_phase(leave_peers=v)),
    "QueryMix.batch_size": lambda v: _spec(_phase(mix=QueryMix(batch_size=v))),
    "QueryMix.zipf_keys": lambda v: _spec(_phase(mix=QueryMix(zipf_keys=v))),
}
#: One NaN and one fractional spec per count field.  A count checked
#: only against its bound lets both through, and the run then crashes
#: or silently misbehaves.
COUNT_SPECS = {
    f"{field}={value}": (lambda build=build, value=value: build(value))
    for field, build in COUNT_FIELDS.items()
    for value in (NAN, 2.5)
}


class TestSpecValidation:
    def test_library_specs_validate(self):
        for name in SCENARIOS:
            spec = scenario(name, n_peers=64, seed=1, duration_scale=0.1)
            spec.validate()  # should not raise
            assert spec.name == name
            assert spec.duration_s > 0

    def test_registry_is_complete(self):
        assert sorted(SCENARIOS) == [
            "asymmetric-partition-writes",
            "cache-coherence-storm",
            "correlated-churn",
            "correlated-hotspot-2d",
            "datacenter-power-cycle",
            "flash-crowd",
            "geo-box-serving",
            "mass-join",
            "mass-leave",
            "paper-sec51-churn",
            "pareto-hotspot",
            "read-write-balanced",
            "regional-outage",
            "restart-storm",
            "rolling-deploy",
            "uniform-baseline",
            "write-hotspot-adversarial",
            "zipf-serving",
        ]

    def test_unknown_scenario_name(self):
        with pytest.raises(DomainError):
            scenario("no-such-scenario")

    def test_empty_phases_rejected(self):
        with pytest.raises(SimulationError):
            ScenarioSpec(name="x", phases=()).validate()

    def test_negative_duration_rejected(self):
        spec = ScenarioSpec(name="x", phases=(Phase(name="p", duration_s=-1.0),))
        with pytest.raises(SimulationError):
            spec.validate()

    @pytest.mark.parametrize("label", ["nope", "U@0/4", "U@"])
    def test_bad_distribution_rejected(self, label):
        spec = ScenarioSpec(
            name="x",
            phases=(Phase(name="p", duration_s=10.0),),
            distribution=label,
        )
        with pytest.raises(SimulationError):
            spec.validate()

    @pytest.mark.parametrize("field", sorted(NAN_SPECS))
    def test_nan_rejected(self, field):
        with pytest.raises(SimulationError):
            NAN_SPECS[field]().validate()

    @pytest.mark.parametrize("case", sorted(COUNT_SPECS))
    def test_non_integer_count_rejected(self, case):
        with pytest.raises(SimulationError):
            COUNT_SPECS[case]().validate()

    def test_nan_duration_scale_rejected(self):
        with pytest.raises(SimulationError):
            _spec().scaled(NAN)

    def test_bad_hotspot_rejected(self):
        mix = QueryMix(hotspot=Hotspot(lo=0.5, hi=0.4))
        spec = ScenarioSpec(
            name="x", phases=(Phase(name="p", duration_s=10.0, mix=mix),)
        )
        with pytest.raises(SimulationError):
            spec.validate()

    def test_bad_churn_fraction_rejected(self):
        churn = ChurnSpec(fraction=0.0)
        spec = ScenarioSpec(
            name="x", phases=(Phase(name="p", duration_s=10.0, churn=churn),)
        )
        with pytest.raises(SimulationError):
            spec.validate()

    @pytest.mark.parametrize(
        "fractions",
        # 1 region / negative / sum != 1 / NaN
        [(1.0,), (0.8, -0.2), (0.5, 0.4), (NAN, 0.5)],
    )
    def test_bad_partition_fractions_rejected(self, fractions):
        spec = ScenarioSpec(
            name="x",
            phases=(
                Phase(
                    name="p",
                    duration_s=10.0,
                    partitions=PartitionSpec(fractions=fractions),
                ),
            ),
        )
        with pytest.raises(SimulationError):
            spec.validate()

    def test_partition_spec_survives_scaling(self):
        spec = regional_outage(n_peers=64, seed=1).scaled(0.5)
        outage = spec.phases[1]
        assert outage.partitions is not None
        assert outage.partitions.fractions == (0.8, 0.2)

    def test_scaled_dilates_everything(self):
        spec = paper_sec51_churn(n_peers=64, seed=1)
        half = spec.scaled(0.5)
        assert half.duration_s == pytest.approx(spec.duration_s / 2)
        assert half.report_bin_s == pytest.approx(spec.report_bin_s / 2)
        churn = half.phases[1].churn
        assert churn.min_offline_s == pytest.approx(30.0)
        assert half.phases[1].maintenance_interval_s == pytest.approx(60.0)

    def test_boundaries_partition_the_timeline(self):
        spec = flash_crowd(n_peers=64, seed=1)
        bounds = spec.boundaries()
        assert bounds[0][0] == 0.0
        assert bounds[-1][1] == pytest.approx(spec.duration_s)
        for (_, a_end), (b_start, _) in zip(bounds, bounds[1:]):
            assert a_end == pytest.approx(b_start)


class TestPartitionScenarios:
    def test_regional_outage_dips_and_recovers_on_dataplane(self):
        # The data plane approximates the cut as a correlated departure
        # of the minority region: the online series dips during the
        # outage phase and recovers to full population at the heal.
        report = ScenarioRunner(
            regional_outage(n_peers=48, seed=7, duration_scale=0.2)
        ).run()
        online = [row["online"] for row in report.series if row["online"] is not None]
        assert min(online) < 48  # the outage is visible
        assert report.totals["final_online"] == 48  # and fully healed
        assert report.totals["final_coverage"] == 1.0

    def test_regional_outage_drops_cross_region_messages_on_the_wire(self):
        report = run_scenario(
            regional_outage(n_peers=48, seed=7, duration_scale=0.2),
            backend="message",
        )
        assert report.message_level["drops"]["partition"] > 0
        # The refused sends fed the repair machinery.
        assert report.message_level["repair"]["suspects"] > 0

    def test_correlated_churn_cuts_different_regions_per_wave(self):
        spec = correlated_churn(n_peers=64, seed=3, duration_scale=0.2)
        runner = ScenarioRunner(spec)
        cuts = []
        original = ScenarioRunner._set_partitions

        def spy(self, groups):
            cuts.append(frozenset(pid for g in groups[1:] for pid in g))
            original(self, groups)

        ScenarioRunner._set_partitions = spy
        try:
            runner.run()
        finally:
            ScenarioRunner._set_partitions = original
        assert len(cuts) == 3  # one cut per wave
        assert len(set(cuts)) == 3  # each wave severs a different region

    def test_both_backends_run_every_partition_scenario(self):
        for factory in (regional_outage, correlated_churn):
            spec = factory(n_peers=32, seed=11, duration_scale=0.1)
            fast = run_scenario(spec)
            wire = run_scenario(spec, backend="message")
            assert fast.totals["queries"] > 0
            assert wire.totals["queries"] > 0
            assert fast.n_peers_end == wire.n_peers_end == 32


class TestQuerySampler:
    def test_pure_point_mix(self):
        sampler = QuerySampler(point_weight=1.0, range_weight=0.0)
        rng = random.Random(1)
        assert all(sampler.draw_kind(rng) == POINT for _ in range(50))

    def test_mixed_weights_roughly_respected(self):
        sampler = QuerySampler(point_weight=0.5, range_weight=0.5)
        rng = random.Random(2)
        kinds = [sampler.draw_kind(rng) for _ in range(2000)]
        share = kinds.count(RANGE) / len(kinds)
        assert 0.4 < share < 0.6

    def test_hotspot_concentrates_targets(self):
        from repro.pgrid.keyspace import MAX_KEY

        sampler = QuerySampler(hotspot=(0.4, 0.42, 0.9))
        rng = random.Random(3)
        keys = [sampler.draw_point_key(rng) for _ in range(2000)]
        hot = sum(1 for k in keys if 0.4 <= k / MAX_KEY < 0.42)
        assert hot / len(keys) > 0.8

    def test_range_span_and_bounds(self):
        from repro.pgrid.keyspace import MAX_KEY

        sampler = QuerySampler(range_weight=1.0, point_weight=0.0, range_span=0.05)
        rng = random.Random(4)
        for _ in range(200):
            lo, hi = sampler.draw_range(rng)
            assert 0 <= lo < hi <= MAX_KEY
            assert (hi - lo) / MAX_KEY == pytest.approx(0.05, rel=1e-9)

    def test_invalid_mix_rejected(self):
        with pytest.raises(DomainError):
            QuerySampler(point_weight=0.0, range_weight=0.0)
        with pytest.raises(DomainError):
            QuerySampler(hotspot=(0.9, 0.1, 0.5))


class TestRunner:
    def test_baseline_fully_succeeds(self):
        report = ScenarioRunner(
            uniform_baseline(n_peers=48, seed=5, duration_scale=0.1)
        ).run()
        assert report.totals["queries"] > 50
        assert report.totals["success_rate"] == 1.0
        assert report.totals["range_incomplete"] == 0
        assert report.totals["final_coverage"] == 1.0
        assert report.n_peers_end == report.n_peers_start == 48
        assert all(row["online"] in (None, 48) for row in report.series)

    def test_mass_leave_shrinks_population(self):
        report = ScenarioRunner(
            mass_leave(n_peers=48, seed=5, duration_scale=0.1)
        ).run()
        assert report.totals["leaves"] == 12
        assert report.totals["final_online"] == 36
        # Queries keep flowing after the exodus (repair carries them).
        assert report.phases[-1]["success_rate"] > 0.5

    def test_mass_join_grows_population(self):
        report = ScenarioRunner(
            mass_join(n_peers=48, seed=5, duration_scale=0.1)
        ).run()
        assert report.totals["joins"] == 12
        assert report.n_peers_end == 60
        assert report.totals["bytes_maintenance"] > 0

    def test_flash_crowd_surges_queries(self):
        report = ScenarioRunner(
            flash_crowd(n_peers=48, seed=5, duration_scale=0.1)
        ).run()
        calm, flash, cooldown = report.phases
        # The flash phase runs at 4x the query rate of its neighbors.
        assert flash["queries"] > 2 * calm["queries"]
        assert flash["queries"] > 2 * cooldown["queries"]

    def test_churn_scenario_reports_series(self):
        report = ScenarioRunner(
            paper_sec51_churn(n_peers=48, seed=5, duration_scale=0.2)
        ).run()
        assert report.totals["churn_transitions"] > 0
        # The acceptance-criteria series: success rate and bandwidth
        # over time must both be populated.
        assert len(report.success_rate_series()) > 3
        assert len(report.bandwidth_series()) > 3
        assert any(maint > 0 for _, _, maint in report.bandwidth_series())
        # Some bin saw a reduced population.
        assert min(
            row["online"] for row in report.series if row["online"] is not None
        ) < 48

    def test_runner_exposes_network_and_simulator(self):
        runner = ScenarioRunner(uniform_baseline(n_peers=32, seed=1, duration_scale=0.05))
        report = runner.run()
        assert runner.network is not None
        assert len(runner.network.peers) == report.n_peers_end
        assert runner.simulator.now >= report.duration_s

    def test_report_json_round_trips(self):
        import json

        report = ScenarioRunner(
            uniform_baseline(n_peers=32, seed=1, duration_scale=0.05)
        ).run()
        payload = json.loads(report.to_json())
        assert payload["scenario"] == "uniform-baseline"
        assert payload["totals"]["queries"] == report.totals["queries"]
        assert len(payload["series"]) == len(report.series)
