"""Declarative scenario engine for churn/skew stress experiments.

This package turns the repo's stress ingredients -- churn processes
(:mod:`repro.simnet.churn`), key distributions
(:mod:`repro.workloads.distributions`), sequential maintenance
(:mod:`repro.pgrid.maintenance`) and the overlay data plane
(:mod:`repro.pgrid.network`) -- into one declarative subsystem with
**two execution backends** behind the same spec:

``spec``
    :class:`ScenarioSpec`: phases of arrivals/departures, churn regimes,
    flash-crowd query hotspots, point/range query mixes, write mixes
    (:class:`WriteMix`: insert/delete/update rates with hotspot
    support), maintenance cadence -- an experiment as data.
``base``
    :class:`~repro.scenarios.base.ScenarioRunnerBase`: the shared phase
    compiler both backends plug into.
``runner``
    :class:`ScenarioRunner` (backend ``"dataplane"``): synchronous
    queries on :class:`~repro.pgrid.network.PGridNetwork`; the fast
    backend -- N=4096 scenarios in seconds.
``message_runner``
    :class:`MessageScenarioRunner` (backend ``"message"``): the same
    phases over :class:`~repro.simnet.node.PGridNode` protocol nodes
    with per-link latency, loss, timeouts and retries; adds a
    ``message_level`` report section (latency percentiles,
    timeout/retry counts, drop breakdown, in-flight peak, per-link
    bandwidth, and the route-repair counters).  Route repair is
    switched per run via ``MessageNetConfig(repair=RouteRepairPolicy
    (enabled=...))`` -- see :mod:`repro.pgrid.liveness`.
``report``
    :class:`ScenarioReport`: hop counts, success under churn,
    message/bandwidth totals, per-peer load imbalance and replication
    health over time, with byte-stable JSON for golden-trace testing.
``library``
    Eighteen named scenarios (uniform-baseline, pareto-hotspot,
    flash-crowd, mass-join, mass-leave, paper-sec51-churn,
    regional-outage, correlated-churn, the write workloads
    read-write-balanced, write-hotspot-adversarial and
    asymmetric-partition-writes, the persistence/restart
    scenarios restart-storm, rolling-deploy and
    datacenter-power-cycle, the serving-layer scenarios
    zipf-serving and cache-coherence-storm, plus the
    multi-dimensional scenarios geo-box-serving and
    correlated-hotspot-2d) runnable at N=4096 on either backend.
    Multi-dimensional specs carry a
    :class:`~repro.scenarios.spec.ZOrderCodec` (``ScenarioSpec.codec``)
    that interleaves d attributes into one key and decomposes box
    queries into z-order ranges -- see :mod:`repro.pgrid.mdim`.
    Restart phases (:class:`RestartSpec`) drive the persistence &
    recovery subsystem (:mod:`repro.pgrid.state`): warm rejoins from
    checkpoints when durability is on
    (:class:`~repro.pgrid.state.DurabilityPolicy`), cold sponsored
    joins when off.
``invariants``
    Structural checks (prefix-complete partition, complementary routing,
    live key coverage) for the randomized invariant test layer.

Quickstart::

    from repro.scenarios import run_scenario, scenario
    spec = scenario("paper-sec51-churn", n_peers=256)
    fast = run_scenario(spec)                       # data-plane backend
    wire = run_scenario(spec, backend="message")    # message-level backend
    print(wire.message_level["latency_s"])

To add a new scenario, write a factory returning a
:class:`ScenarioSpec` and register it in
:data:`repro.scenarios.library.SCENARIOS`; ``bench_scenarios.py`` and
the determinism tests pick it up automatically on both backends.
"""

from . import base, invariants, library, message_runner, report, runner, spec  # noqa: F401
from ..pgrid.liveness import RouteRepairPolicy  # noqa: F401
from ..pgrid.state import DurabilityPolicy  # noqa: F401
from .base import ScenarioRunnerBase  # noqa: F401
from .invariants import (  # noqa: F401
    check_invariants,
    check_replica_divergence,
    live_key_coverage,
)
from .library import SCENARIOS, scenario  # noqa: F401
from .message_runner import (  # noqa: F401
    MessageNetConfig,
    MessageScenarioRunner,
    run_sliced_ensemble,
    slice_spec,
)
from .report import ScenarioReport  # noqa: F401
from .runner import ScenarioRunner  # noqa: F401
from .spec import (  # noqa: F401
    CachePolicy,
    ChurnSpec,
    Hotspot,
    KeyCodec,
    PartitionSpec,
    Phase,
    QueryMix,
    RestartSpec,
    ScalarCodec,
    ScenarioSpec,
    WriteMix,
    ZOrderCodec,
)

from ..exceptions import DomainError

#: Execution backends by name -- the selector used by
#: ``bench_scenarios.py``, the examples and the determinism tests.
BACKENDS = {
    "dataplane": ScenarioRunner,
    "message": MessageScenarioRunner,
}


def runner_for(backend: str) -> type:
    """The runner class for a backend name (raises on unknown names)."""
    try:
        return BACKENDS[backend]
    except KeyError:
        raise DomainError(
            f"unknown scenario backend {backend!r}; known: {sorted(BACKENDS)}"
        ) from None


def run_scenario(
    spec: ScenarioSpec, *, backend: str = "dataplane", **runner_kwargs
) -> ScenarioReport:
    """Execute ``spec`` on the chosen backend and return its report.

    Extra keyword arguments go to the runner's constructor -- e.g.
    ``run_scenario(spec, backend="message",
    net_config=MessageNetConfig(loss_rate=0.05))`` to tune the wire.
    """
    return runner_for(backend)(spec, **runner_kwargs).run()


__all__ = [
    "ScenarioSpec",
    "Phase",
    "QueryMix",
    "WriteMix",
    "CachePolicy",
    "KeyCodec",
    "ScalarCodec",
    "ZOrderCodec",
    "Hotspot",
    "ChurnSpec",
    "PartitionSpec",
    "RestartSpec",
    "RouteRepairPolicy",
    "DurabilityPolicy",
    "ScenarioRunnerBase",
    "ScenarioRunner",
    "MessageScenarioRunner",
    "MessageNetConfig",
    "BACKENDS",
    "runner_for",
    "run_scenario",
    "run_sliced_ensemble",
    "slice_spec",
    "ScenarioReport",
    "SCENARIOS",
    "scenario",
    "check_invariants",
    "check_replica_divergence",
    "live_key_coverage",
]
