"""Churn resilience: the paper's Sec. 5.1 stress, via the scenario engine.

Runs the ``paper-sec51-churn`` library scenario -- a static measurement
phase followed by every peer independently going offline 1-5 minutes
every 5-10 minutes with periodic repair -- and prints the headline
numbers: query success stays in the paper's 95-100% band while a
quarter of the population is offline at any moment.

The declarative spec lives in :mod:`repro.scenarios.library`; this
script is deliberately a thin client of the scenario engine and can run
the same spec on either backend:

* ``backend="dataplane"`` (default): synchronous data-plane queries --
  the fast engine, seconds even at N=4096;
* ``backend="message"``: the same phases over message-passing nodes
  with wire latency, loss, timeouts and retries -- the report then
  carries query latency percentiles, drop accounting and the
  route-repair counters in ``report.message_level`` (see
  :mod:`repro.pgrid.liveness`).

For the full message-level five-phase deployment (join/replicate/
construct/query/churn with construction itself on the simulated wire),
see :func:`repro.simnet.experiment.run_experiment`.
"""

from repro.scenarios import run_scenario, scenario


def run(
    n_peers: int = 128,
    seed: int = 23,
    duration_scale: float = 0.5,
    backend: str = "dataplane",
):
    """Execute the Sec. 5.1 churn scenario; returns the ScenarioReport."""
    spec = scenario(
        "paper-sec51-churn", n_peers=n_peers, seed=seed, duration_scale=duration_scale
    )
    return run_scenario(spec, backend=backend)


def _print_wire(report) -> None:
    latency = report.message_level["latency_s"]
    drops = report.message_level["drops"]
    repair = report.message_level["repair"]
    print(f"\nmessage-level backend ({report.n_peers_start} peers, "
          f"{report.duration_s / 60:.0f} simulated minutes)")
    print(f"  query success rate:                 {report.totals['success_rate']:12.3f}")
    if latency["count"]:  # percentiles exist only when something succeeded
        print(f"  lookup latency p50/p99 (s):         "
              f"{latency['p50']:10.3f} / {latency['p99']:.3f}")
    print(f"  timeouts / retries:                 "
          f"{report.message_level['timeouts']:6d} / {report.message_level['retries']}")
    print(f"  drops (offline/loss):               "
          f"{drops['offline']:6d} / {drops['loss']}")
    print(f"  repair: suspects/probes/evictions:  "
          f"{repair['suspects']:6d} / {repair['probes']} / {repair['evictions']}")
    print(f"  repair: replacements / bytes:       "
          f"{repair['replacements']:6d} / {repair['repair_bytes']}")


def main() -> None:
    report = run()
    print(f"paper-sec51-churn scenario ({report.n_peers_start} peers, "
          f"{report.duration_s / 60:.0f} simulated minutes)")
    for name, value in report.summary_rows():
        print(f"  {name:35s} {value:12.3f}")
    static, churn = report.phases
    print(f"  success rate (static phase):        {static['success_rate']:12.3f}")
    print(f"  success rate (churn phase):         {churn['success_rate']:12.3f}")
    lowest = min(
        (row for row in report.series if row["online"] is not None),
        key=lambda row: row["online"],
    )
    print(f"  population low point: {lowest['online']} peers online "
          f"at minute {lowest['minute']:.0f}")
    assert static["success_rate"] > 0.95
    assert churn["success_rate"] > 0.8
    assert report.totals["final_coverage"] == 1.0

    # The same spec, message-level: every query pays wire latency and
    # loss, and dead references are detected from the traffic itself --
    # suspected, probed, evicted and replaced.
    wire = run(n_peers=256, duration_scale=0.25, backend="message")
    _print_wire(wire)
    assert wire.totals["success_rate"] > 0.7


if __name__ == "__main__":
    main()
