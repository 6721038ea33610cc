"""Figure 8: aggregate bandwidth, maintenance vs query traffic.

Paper shape: maintenance traffic peaks during the construction phase
(~250 Bps/peer on PlanetLab) and decays quickly afterwards; query
traffic dominates during the query phase.

Guards: Fig. 8 -- maintenance-vs-query bandwidth over the timeline.
"""

from repro.experiments import fig789
from repro.experiments.reporting import print_table


def test_fig8_bandwidth_timeline(benchmark):
    report = benchmark.pedantic(fig789.system_report, rounds=1, iterations=1)
    print_table(
        ["minute", "maintenance Bps", "query Bps"],
        fig789.fig8_rows(),
        title="Figure 8 -- aggregate bandwidth consumption",
    )
    config = report.config
    maint = dict(report.maintenance_bandwidth)
    construction = [
        bps
        for m, bps in maint.items()
        if config.construct_start < m <= config.query_start
    ]
    late = [
        bps for m, bps in maint.items() if m > config.query_start + 10
    ]
    assert max(construction) > 4 * (max(late) if late else 1.0), (
        "construction phase must dominate maintenance traffic"
    )
    query = dict(report.query_bandwidth)
    in_query_phase = sum(
        bps for m, bps in query.items() if m > config.query_start
    )
    before = sum(bps for m, bps in query.items() if m <= config.query_start)
    assert in_query_phase > before
