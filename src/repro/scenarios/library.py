"""Named, ready-to-run stress scenarios (the ISSUE-2 library).

Nineteen scenarios cover the stress axes of the paper's evaluation and
the ROADMAP's "as many scenarios as you can imagine" ambition:

==================  ====================================================
``uniform-baseline``  steady uniform workload, light maintenance -- the
                      control every other scenario is compared against
``pareto-hotspot``    Pareto-0.5 data skew *and* a query hotspot on the
                      mass-carrying low key region (Sec. 4.4's extreme
                      skew, queried where the data is)
``flash-crowd``       a calm phase, then 95% of (4x more frequent)
                      queries collapse onto a 2% key window, then
                      cooldown -- cache-busting read skew
``mass-join``         a +25% arrival wave through sequential joins mid-
                      run (the Sec. 4.3 maintenance model under load)
``mass-leave``        25% of the population departs at once; repair and
                      anti-entropy carry queries through the hole
``paper-sec51-churn`` the paper's Sec. 5.1 schedule: every peer offline
                      1-5 minutes every 5-10 minutes, with periodic
                      repair -- the query-success-under-churn headline
``paper-sec52-planetlab``  the paper's Sec. 5 deployment: the overlay
                      is constructed from nothing over the wire, then
                      queried, then churned -- the run Figs. 7-9 and
                      the Sec. 5.2 statistics are read off (296 peers
                      by default)
``regional-outage``   a 20% region is cut off for five minutes, then
                      heals -- on the message backend a true transport
                      partition driving the route-repair machinery
``correlated-churn``  three waves, each severing a different random 15%
                      region with recovery gaps -- correlated failures,
                      not the independent-churn idealization
``read-write-balanced``  queries and mutations (insert/delete/update)
                      interleave at comparable rates under light churn
                      -- the data-oriented index actually being *fed*
``write-hotspot-adversarial``  a write flash-crowd: most mutations
                      collapse onto a 2% key window while queries hit
                      the same region and part of the population churns
``asymmetric-partition-writes``  an asymmetric three-way regional cut
                      with writes continuing throughout -- replicas
                      diverge measurably, then anti-entropy reconverges
                      them after the heal
``restart-storm``     half the population clean-restarts within a
                      minute while writes continue -- warm rejoins from
                      snapshots (``repro.pgrid.state``) vs the cold
                      sponsored-join baseline
``rolling-deploy``    every peer restarts exactly once, staggered
                      across the phase (a rolling upgrade); the overlay
                      must never lose quorum or acked writes
``datacenter-power-cycle``  35% of peers *crash* near-simultaneously
                      and return minutes later -- restores come from
                      the last periodic checkpoint, quantifying the
                      crash model's bounded write loss
``zipf-serving``      Zipf-ranked repeat-heavy reads entering through a
                      gateway tier with result/route caches, batched
                      issue and adaptive replication on, plus a light
                      hotspot write mix so the stale-read audit has
                      something to catch -- the serving layer's
                      headline scenario (A/B against
                      ``CachePolicy(enabled=False)`` in the bench)
``cache-coherence-storm``  delete-heavy hotspot writes hammer exactly
                      the keys the caches hold while part of the
                      population churns -- the adversarial coherence
                      test: invalidation traffic racing cached results,
                      measured as ``serving.stale_read_rate``
``geo-box-serving``   two-attribute points under a z-order codec,
                      queried with 2D boxes on a quiet overlay -- the
                      clean-room recall scenario: every box must come
                      back complete (``mdim.box_recall == 1.0``)
``correlated-hotspot-2d``  a correlated-attribute flash-crowd: one
                      hotspot coin confines *both* attributes of a
                      point (a hot diagonal block), boxes carry skewed
                      per-dimension spans (wide x narrow), and an
                      insert-leaning write stream feeds the 2D index
                      mid-storm
==================  ====================================================

Every factory takes ``n_peers`` (default 4096, the ROADMAP scale point;
296, the paper's deployment, for ``paper-sec52-planetlab``),
``seed`` and ``duration_scale`` (time-dilates the whole scenario; CI
uses ~0.25).  ``scenario(name, ...)`` looks factories up by name;
``SCENARIOS`` is the registry that ``benchmarks/bench_scenarios.py``
iterates.  Every scenario runs on both execution backends
(``repro.scenarios.run_scenario(spec, backend="dataplane" | "message")``);
the bench script records them as separate snapshot sections.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..exceptions import DomainError
from .spec import (
    CachePolicy,
    ChurnSpec,
    Hotspot,
    PartitionSpec,
    Phase,
    QueryMix,
    RestartSpec,
    ScenarioSpec,
    WriteMix,
    ZOrderCodec,
)

__all__ = [
    "SCENARIOS",
    "scenario",
    "uniform_baseline",
    "pareto_hotspot",
    "flash_crowd",
    "mass_join",
    "mass_leave",
    "paper_sec51_churn",
    "paper_sec52_planetlab",
    "regional_outage",
    "correlated_churn",
    "read_write_balanced",
    "write_hotspot_adversarial",
    "asymmetric_partition_writes",
    "restart_storm",
    "rolling_deploy",
    "datacenter_power_cycle",
    "zipf_serving",
    "cache_coherence_storm",
    "geo_box_serving",
    "correlated_hotspot_2d",
]

#: Default population: the ROADMAP's 4096-peer scale point.
DEFAULT_N_PEERS = 4096

_BASE = dict(keys_per_peer=8, d_max=40.0, n_min=3, max_refs=4)


def _build(name, phases, n_peers, seed, duration_scale, **overrides) -> ScenarioSpec:
    params = dict(_BASE)
    params.update(overrides)
    spec = ScenarioSpec(name=name, phases=tuple(phases), n_peers=n_peers, seed=seed, **params)
    if duration_scale != 1.0:
        spec = spec.scaled(duration_scale)
    spec.validate()
    return spec


def uniform_baseline(
    n_peers: int = DEFAULT_N_PEERS, *, seed: int = 20050830, duration_scale: float = 1.0
) -> ScenarioSpec:
    """Steady uniform workload: the control scenario."""
    return _build(
        "uniform-baseline",
        [Phase(name="steady", duration_s=600.0, maintenance_interval_s=120.0)],
        n_peers,
        seed,
        duration_scale,
    )


def pareto_hotspot(
    n_peers: int = DEFAULT_N_PEERS, *, seed: int = 20050830, duration_scale: float = 1.0
) -> ScenarioSpec:
    """Pareto-0.5 data skew with queries focused where the mass is."""
    mix = QueryMix(hotspot=Hotspot(lo=0.0, hi=0.02, weight=0.7))
    return _build(
        "pareto-hotspot",
        [Phase(name="skewed", duration_s=600.0, mix=mix, maintenance_interval_s=120.0)],
        n_peers,
        seed,
        duration_scale,
        distribution="P0.5",
    )


def flash_crowd(
    n_peers: int = DEFAULT_N_PEERS, *, seed: int = 20050830, duration_scale: float = 1.0
) -> ScenarioSpec:
    """Calm, then a 4x query surge with 95% of traffic on a 2% window."""
    hot = QueryMix(
        point_weight=0.95,
        range_weight=0.05,
        range_span=0.02,
        hotspot=Hotspot(lo=0.40, hi=0.42, weight=0.95),
    )
    return _build(
        "flash-crowd",
        [
            Phase(name="calm", duration_s=300.0, maintenance_interval_s=120.0),
            Phase(
                name="flash",
                duration_s=300.0,
                query_rate=16.0,
                mix=hot,
                maintenance_interval_s=120.0,
            ),
            Phase(name="cooldown", duration_s=300.0, maintenance_interval_s=120.0),
        ],
        n_peers,
        seed,
        duration_scale,
    )


def mass_join(
    n_peers: int = DEFAULT_N_PEERS, *, seed: int = 20050830, duration_scale: float = 1.0
) -> ScenarioSpec:
    """A +25% arrival wave through sequential maintenance joins."""
    return _build(
        "mass-join",
        [
            Phase(name="steady", duration_s=300.0, maintenance_interval_s=120.0),
            Phase(
                name="join-wave",
                duration_s=300.0,
                join_peers=max(1, n_peers // 4),
                maintenance_interval_s=60.0,
            ),
            Phase(name="settled", duration_s=300.0, maintenance_interval_s=120.0),
        ],
        n_peers,
        seed,
        duration_scale,
    )


def mass_leave(
    n_peers: int = DEFAULT_N_PEERS, *, seed: int = 20050830, duration_scale: float = 1.0
) -> ScenarioSpec:
    """25% of peers vanish at once; repair keeps the overlay queryable."""
    return _build(
        "mass-leave",
        [
            Phase(name="steady", duration_s=300.0, maintenance_interval_s=120.0),
            Phase(
                name="exodus",
                duration_s=300.0,
                leave_peers=max(1, n_peers // 4),
                maintenance_interval_s=60.0,
            ),
            Phase(name="recovered", duration_s=300.0, maintenance_interval_s=120.0),
        ],
        n_peers,
        seed,
        duration_scale,
    )


def paper_sec51_churn(
    n_peers: int = DEFAULT_N_PEERS, *, seed: int = 20050830, duration_scale: float = 1.0
) -> ScenarioSpec:
    """The paper's churn experiment: offline 1-5 min every 5-10 min.

    Phase one measures the static success baseline; phase two applies the
    Sec. 5.1 renewal schedule to every peer with periodic repair, and the
    report's per-bin series carries the success-rate and bandwidth
    timelines of Figs. 7-9's churn window.
    """
    return _build(
        "paper-sec51-churn",
        [
            Phase(name="static", duration_s=300.0, maintenance_interval_s=120.0),
            Phase(
                name="churn",
                duration_s=900.0,
                churn=ChurnSpec(),  # 1-5 min offline every 5-10 min
                maintenance_interval_s=120.0,
            ),
        ],
        n_peers,
        seed,
        duration_scale,
    )


def paper_sec52_planetlab(
    n_peers: int = 296, *, seed: int = 20050830, duration_scale: float = 1.0
) -> ScenarioSpec:
    """The paper's Sec. 5 PlanetLab timeline, the run behind Figs. 7-9.

    300 minutes build the overlay from nothing over the wire (joins,
    replication, then the Fig. 2 interactions), 175 minutes of point
    queries follow -- one per peer every 1-2 minutes -- and the last 50
    minutes add the Sec. 5.1 churn.  Ten ``"A"`` keys per peer,
    ``n_min`` 5 and ``d_max`` 50 as in the deployment; 296 peers.
    """
    queries = dict(
        query_rate=n_peers / 90.0,
        mix=QueryMix(point_weight=1.0, range_weight=0.0),
        maintenance_interval_s=120.0,
    )
    return _build(
        "paper-sec52-planetlab",
        [
            Phase(
                name="construct",
                duration_s=300 * 60.0,
                query_rate=0.0,
                maintenance_interval_s=120.0,
                construct=True,
            ),
            Phase(name="query", duration_s=175 * 60.0, **queries),
            Phase(name="churn", duration_s=50 * 60.0, churn=ChurnSpec(), **queries),
        ],
        n_peers,
        seed,
        duration_scale,
        keys_per_peer=10,
        distribution="A",
        d_max=50.0,
        n_min=5,
        query_retries=4,
    )


def regional_outage(
    n_peers: int = DEFAULT_N_PEERS, *, seed: int = 20050830, duration_scale: float = 1.0
) -> ScenarioSpec:
    """A 20% region is cut off for five minutes, then the cut heals.

    On the message backend this is a true transport partition
    (``Network.set_partitions``): sends crossing the boundary are
    refused, which the route-repair subsystem observes as failure
    evidence -- suspects, probes, evictions and gossip replacements all
    fire.  The data plane approximates the cut as a correlated
    mass-departure of the minority region with a guaranteed return.
    """
    return _build(
        "regional-outage",
        [
            Phase(name="steady", duration_s=300.0, maintenance_interval_s=120.0),
            Phase(
                name="outage",
                duration_s=300.0,
                partitions=PartitionSpec(fractions=(0.8, 0.2)),
                maintenance_interval_s=60.0,
            ),
            Phase(name="healed", duration_s=300.0, maintenance_interval_s=120.0),
        ],
        n_peers,
        seed,
        duration_scale,
    )


def correlated_churn(
    n_peers: int = DEFAULT_N_PEERS, *, seed: int = 20050830, duration_scale: float = 1.0
) -> ScenarioSpec:
    """Peers fail in correlated waves, not independently.

    Independent-churn models (``paper-sec51-churn``) understate how
    overlays die in practice: co-located peers share racks, ASes and
    power.  Three two-minute waves each cut off a *different* random 15%
    region (fresh deterministic draw per wave), separated by recovery
    gaps with faster maintenance -- repair must keep (re)converging on a
    moving target rather than absorb one stationary regime.
    """
    wave = PartitionSpec(fractions=(0.85, 0.15))
    return _build(
        "correlated-churn",
        [
            Phase(name="steady", duration_s=240.0, maintenance_interval_s=120.0),
            Phase(name="wave-1", duration_s=120.0, partitions=wave,
                  maintenance_interval_s=60.0),
            Phase(name="respite-1", duration_s=120.0, maintenance_interval_s=60.0),
            Phase(name="wave-2", duration_s=120.0, partitions=wave,
                  maintenance_interval_s=60.0),
            Phase(name="respite-2", duration_s=120.0, maintenance_interval_s=60.0),
            Phase(name="wave-3", duration_s=120.0, partitions=wave,
                  maintenance_interval_s=60.0),
            Phase(name="recovered", duration_s=240.0, maintenance_interval_s=120.0),
        ],
        n_peers,
        seed,
        duration_scale,
    )


def read_write_balanced(
    n_peers: int = DEFAULT_N_PEERS, *, seed: int = 20050830, duration_scale: float = 1.0
) -> ScenarioSpec:
    """Queries and mutations interleave at comparable rates.

    The paper's index is *data-oriented*: its bandwidth and consistency
    story assumes keys are continuously inserted, updated and deleted
    while queries route around churn.  A read-only warmup pins the
    baseline; the mixed phase feeds the index at half the query rate
    (insert-leaning, so the key population grows); the settle phase
    stops the writes and lets replica sync + anti-entropy drive the
    measured divergence back down.
    """
    writes = WriteMix(
        write_rate=2.0, insert_weight=0.45, delete_weight=0.3, update_weight=0.25
    )
    light_churn = ChurnSpec(fraction=0.2)
    return _build(
        "read-write-balanced",
        [
            Phase(name="warmup", duration_s=180.0, maintenance_interval_s=120.0),
            Phase(
                name="mixed",
                duration_s=480.0,
                writes=writes,
                churn=light_churn,
                maintenance_interval_s=120.0,
            ),
            Phase(name="settle", duration_s=240.0, maintenance_interval_s=60.0),
        ],
        n_peers,
        seed,
        duration_scale,
    )


def write_hotspot_adversarial(
    n_peers: int = DEFAULT_N_PEERS, *, seed: int = 20050830, duration_scale: float = 1.0
) -> ScenarioSpec:
    """A write flash-crowd on a 2% key window, queried while it burns.

    The adversarial composition: 90% of an 8/s mutation stream collapses
    onto one narrow region (delete-heavy, so the same partitions keep
    absorbing inserts *and* tombstones), queries focus on the same
    window, and 30% of the population churns -- the owners of the hot
    partitions must apply, fan out and reconcile the write storm while
    their replica groups blink.  Load concentration shows up in
    ``load.max_over_mean``; replica staleness in ``writes.divergence``.
    """
    hot = Hotspot(lo=0.40, hi=0.42, weight=0.9)
    writes = WriteMix(
        write_rate=8.0,
        insert_weight=0.4,
        delete_weight=0.4,
        update_weight=0.2,
        hotspot=hot,
    )
    hot_queries = QueryMix(point_weight=0.9, range_weight=0.1, range_span=0.02,
                           hotspot=hot)
    return _build(
        "write-hotspot-adversarial",
        [
            Phase(name="calm", duration_s=240.0, maintenance_interval_s=120.0),
            Phase(
                name="write-storm",
                duration_s=360.0,
                mix=hot_queries,
                writes=writes,
                churn=ChurnSpec(fraction=0.3),
                maintenance_interval_s=60.0,
            ),
            Phase(name="cooldown", duration_s=300.0, maintenance_interval_s=60.0),
        ],
        n_peers,
        seed,
        duration_scale,
    )


def asymmetric_partition_writes(
    n_peers: int = DEFAULT_N_PEERS, *, seed: int = 20050830, duration_scale: float = 1.0
) -> ScenarioSpec:
    """Writes continue through an asymmetric three-way regional cut.

    The population splits 75/15/10 for five minutes while mutations keep
    arriving.  On the message backend the cut is a real transport
    partition: writes originating in minority regions cannot reach
    majority-side owners (refused connects feed route repair), replica
    sync cannot cross the boundary, and the replica groups straddling
    the cut diverge.  The data plane approximates the minority regions
    as offline, so its owners simply miss five minutes of writes.  The
    heal phase runs fast maintenance and measures how far anti-entropy
    pulls the divergence back down.
    """
    writes = WriteMix(
        write_rate=3.0, insert_weight=0.5, delete_weight=0.3, update_weight=0.2
    )
    return _build(
        "asymmetric-partition-writes",
        [
            Phase(name="steady", duration_s=240.0, writes=writes,
                  maintenance_interval_s=120.0),
            Phase(
                name="cut",
                duration_s=300.0,
                writes=writes,
                partitions=PartitionSpec(fractions=(0.75, 0.15, 0.10)),
                maintenance_interval_s=60.0,
            ),
            Phase(name="heal", duration_s=360.0, writes=writes,
                  maintenance_interval_s=60.0),
        ],
        n_peers,
        seed,
        duration_scale,
    )


def restart_storm(
    n_peers: int = DEFAULT_N_PEERS, *, seed: int = 20050830, duration_scale: float = 1.0
) -> ScenarioSpec:
    """Half the population clean-restarts within a minute, writes on.

    The headline persistence scenario: 50% of the peers shut down
    cleanly (snapshot taken at the shutdown instant) inside a one-minute
    window and stay down 30-90s each, while a 2/s mutation stream keeps
    feeding the index.  With durability enabled every returnee
    warm-rejoins from its snapshot and reconciles only the delta via
    anti-entropy; with ``DurabilityPolicy(enabled=False)`` each one pays
    a full cold sponsored join.  The report's ``recovery`` section
    (time-to-converged-divergence, recovery maintenance bytes,
    lost-acked-writes, tombstone resurrections) is the warm-vs-cold
    scoreboard.

    All three restart scenarios provision ``tombstone_ttl_s`` above the
    wire default: a delete acked at the storm's start must still be
    enforceable against a peer that restored a pre-delete snapshot and
    only reconciles via slow anti-entropy near the scenario end, so the
    certificate TTL has to cover the whole delete-to-audit window.
    """
    return _build(
        "restart-storm",
        [
            Phase(name="steady", duration_s=240.0, maintenance_interval_s=120.0),
            Phase(
                name="storm",
                duration_s=300.0,
                writes=WriteMix(write_rate=2.0),
                restarts=RestartSpec(
                    fraction=0.5,
                    min_down_s=30.0,
                    max_down_s=90.0,
                    stagger_s=60.0,
                    crash_fraction=0.0,
                ),
                maintenance_interval_s=60.0,
            ),
            Phase(name="recovery", duration_s=360.0, maintenance_interval_s=60.0),
        ],
        n_peers,
        seed,
        duration_scale,
        tombstone_ttl_s=1200.0,
    )


def rolling_deploy(
    n_peers: int = DEFAULT_N_PEERS, *, seed: int = 20050830, duration_scale: float = 1.0
) -> ScenarioSpec:
    """Every peer restarts exactly once, staggered across the phase.

    The rolling-upgrade shape: restarts spread over seven minutes with
    short 20-40s downtimes, so only a thin slice of the population is
    ever down at once -- the overlay must stay continuously queryable
    and lose no acknowledged write.  Clean shutdowns throughout (a
    deploy flushes state), so with durability on this is the best case
    for warm rejoin.
    """
    return _build(
        "rolling-deploy",
        [
            Phase(name="steady", duration_s=240.0, maintenance_interval_s=120.0),
            Phase(
                name="rolling",
                duration_s=480.0,
                writes=WriteMix(write_rate=1.0),
                restarts=RestartSpec(
                    fraction=1.0,
                    min_down_s=20.0,
                    max_down_s=40.0,
                    stagger_s=420.0,
                    crash_fraction=0.0,
                ),
                maintenance_interval_s=60.0,
            ),
            Phase(name="settled", duration_s=240.0, maintenance_interval_s=120.0),
        ],
        n_peers,
        seed,
        duration_scale,
        tombstone_ttl_s=1200.0,
    )


def datacenter_power_cycle(
    n_peers: int = DEFAULT_N_PEERS, *, seed: int = 20050830, duration_scale: float = 1.0
) -> ScenarioSpec:
    """35% of peers crash near-simultaneously, then power back on.

    The crash half of the model: no shutdown snapshot, so every returnee
    restores the last *periodic* checkpoint (up to
    ``DurabilityPolicy.snapshot_interval_s`` stale) and loses in-flight
    writes and syncs after it.  Writes run at 2/s before and through the
    outage, so the report's ``recovery`` audit quantifies exactly how
    many acknowledged writes the crash window can eat and whether any
    tombstoned key resurrects from a stale snapshot.
    """
    return _build(
        "datacenter-power-cycle",
        [
            Phase(
                name="steady",
                duration_s=240.0,
                writes=WriteMix(write_rate=2.0),
                maintenance_interval_s=120.0,
            ),
            Phase(
                name="power-cycle",
                duration_s=300.0,
                restarts=RestartSpec(
                    fraction=0.35,
                    min_down_s=60.0,
                    max_down_s=120.0,
                    stagger_s=10.0,
                    crash_fraction=1.0,
                ),
                maintenance_interval_s=60.0,
            ),
            Phase(name="recovery", duration_s=360.0, maintenance_interval_s=60.0),
        ],
        n_peers,
        seed,
        duration_scale,
        tombstone_ttl_s=1200.0,
    )


def zipf_serving(
    n_peers: int = DEFAULT_N_PEERS, *, seed: int = 20050830, duration_scale: float = 1.0
) -> ScenarioSpec:
    """Zipf repeat-heavy reads through a gateway tier, caches on.

    The serving layer's headline scenario: queries enter through 16
    front-end gateways, 95% of them drawn Zipf(1.1) from 64 popular
    workload keys inside a 4% hotspot window, released in batches of
    four.  Result caches absorb the repeats, route caches short-circuit
    the trie walk for the rest, and the hot owners grant helper
    replicas that the gateways' route rotation actually spreads load
    onto.  A light hotspot write mix runs through the storm so
    invalidation traffic and the ``stale_read_rate`` audit are
    exercised, not just idle.  The bench script re-runs this spec with
    ``CachePolicy(enabled=False)`` (same gateways, no caches) -- the
    cache-on run must beat that baseline on p99 latency and per-peer
    load Gini.
    """
    hot = Hotspot(lo=0.30, hi=0.34, weight=0.95)
    zipf = QueryMix(
        point_weight=1.0,
        range_weight=0.0,
        hotspot=hot,
        batch_size=4,
        zipf_keys=64,
        zipf_exponent=1.1,
    )
    writes = WriteMix(
        write_rate=1.0,
        insert_weight=0.3,
        delete_weight=0.4,
        update_weight=0.3,
        hotspot=hot,
    )
    return _build(
        "zipf-serving",
        [
            Phase(name="warmup", duration_s=180.0, maintenance_interval_s=120.0),
            Phase(
                name="zipf-storm",
                duration_s=480.0,
                query_rate=16.0,
                mix=zipf,
                writes=writes,
                maintenance_interval_s=120.0,
            ),
            Phase(
                name="tail",
                duration_s=240.0,
                query_rate=8.0,
                mix=zipf,
                maintenance_interval_s=120.0,
            ),
        ],
        n_peers,
        seed,
        duration_scale,
        cache=CachePolicy(
            result_ttl_s=180.0,
            route_ttl_s=300.0,
            hot_threshold=48,
            front_ends=16,
        ),
    )


def cache_coherence_storm(
    n_peers: int = DEFAULT_N_PEERS, *, seed: int = 20050830, duration_scale: float = 1.0
) -> ScenarioSpec:
    """Delete-heavy hotspot writes race the caches that hold those keys.

    The adversarial coherence composition: a read phase warms every
    gateway cache on 48 popular keys with a *long* result TTL (180s --
    deliberately useless as a coherence mechanism, so eager write
    invalidation has to do all the work), then a 6/s delete-leaning
    mutation stream collapses onto the same 2% window while a quarter
    of the population churns.  Every churned-out replica that misses a
    ``replica_sync`` is a chance for some cache to keep serving a key
    the index already deleted; the measured ``serving.stale_read_rate``
    is exactly how often that happened.
    """
    hot = Hotspot(lo=0.50, hi=0.52, weight=0.95)
    reads = QueryMix(
        point_weight=1.0,
        range_weight=0.0,
        hotspot=hot,
        batch_size=8,
        zipf_keys=48,
        zipf_exponent=1.0,
    )
    writes = WriteMix(
        write_rate=6.0,
        insert_weight=0.2,
        delete_weight=0.55,
        update_weight=0.25,
        hotspot=hot,
    )
    return _build(
        "cache-coherence-storm",
        [
            Phase(
                name="warm-cache",
                duration_s=240.0,
                query_rate=12.0,
                mix=reads,
                maintenance_interval_s=120.0,
            ),
            Phase(
                name="write-storm",
                duration_s=360.0,
                query_rate=12.0,
                mix=reads,
                writes=writes,
                churn=ChurnSpec(fraction=0.25),
                maintenance_interval_s=60.0,
            ),
            Phase(
                name="drain",
                duration_s=240.0,
                query_rate=6.0,
                mix=reads,
                maintenance_interval_s=60.0,
            ),
        ],
        n_peers,
        seed,
        duration_scale,
        cache=CachePolicy(
            result_ttl_s=180.0,
            route_ttl_s=240.0,
            hot_threshold=40,
            front_ends=24,
        ),
    )


def geo_box_serving(
    n_peers: int = DEFAULT_N_PEERS, *, seed: int = 20050830, duration_scale: float = 1.0
) -> ScenarioSpec:
    """2D box queries over z-order keys.

    The multi-dimensional headline: every key interleaves two
    attributes (think latitude/longitude quantized to the unit square)
    under a :class:`~repro.scenarios.spec.ZOrderCodec`, and two thirds
    of the traffic is 2%-per-side *box* queries, each one range query
    over its z-span that carries the box, so the range shower forwards
    only into subtrees the box meets.  A mild hotspot concentrates
    traffic on a popular region (correlated across both attributes).  No
    ``CachePolicy``: point targets are fresh continuous draws that
    never repeat at 26-bit cell resolution, so result caches are
    structurally hitless here and the serving gate (caches must *earn*
    their machinery) would rightly reject them.

    Deliberately quiet -- no churn, writes, restarts or maintenance --
    so the brute-force recall audit has a clean ground truth: the
    report must show ``mdim.box_recall == 1.0`` (the acceptance gate
    ``benchmarks/check_regression.py`` enforces), and
    ``mdim.partitions_per_box_mean`` says how many partitions a box's
    shower reached.
    """
    mix = QueryMix(
        point_weight=0.35,
        range_weight=0.65,
        range_span=0.02,
        hotspot=Hotspot(lo=0.55, hi=0.60, weight=0.5),
    )
    return _build(
        "geo-box-serving",
        [
            Phase(name="warm", duration_s=180.0, query_rate=4.0, mix=mix),
            Phase(name="geo-serve", duration_s=600.0, query_rate=8.0, mix=mix),
        ],
        n_peers,
        seed,
        duration_scale,
        codec=ZOrderCodec(dims=2),
    )


def correlated_hotspot_2d(
    n_peers: int = DEFAULT_N_PEERS, *, seed: int = 20050830, duration_scale: float = 1.0
) -> ScenarioSpec:
    """A correlated-attribute flash-crowd with skewed box selectivity.

    The stress half of the mdim pair: during the storm one hotspot coin
    confines *both* attributes of 90% of draws to a 4% interval -- a
    hot diagonal block whose z-order cells share long prefixes, so a
    few trie partitions absorb most of the traffic (watch
    ``load.max_over_mean``).  The box minority carries deliberately
    skewed per-dimension spans (10% x 0.4%: wide in one attribute,
    narrow in the other -- a long z-span the box meets in few places,
    so the shower prunes hardest), and an insert-leaning hotspot write
    stream feeds the 2D index mid-storm.  No deletes: the recall oracle is the
    initial workload universe, and deleted keys would turn honest
    misses into phantom recall loss.
    """
    hot = Hotspot(lo=0.48, hi=0.52, weight=0.9)
    storm = QueryMix(
        point_weight=0.75,
        range_weight=0.25,
        range_span=0.02,
        box_spans=(0.10, 0.004),
        hotspot=hot,
    )
    writes = WriteMix(
        write_rate=2.0,
        insert_weight=0.7,
        delete_weight=0.0,
        update_weight=0.3,
        hotspot=hot,
    )
    return _build(
        "correlated-hotspot-2d",
        [
            Phase(name="calm", duration_s=240.0, maintenance_interval_s=120.0),
            Phase(
                name="hot-storm",
                duration_s=360.0,
                query_rate=8.0,
                mix=storm,
                writes=writes,
                maintenance_interval_s=120.0,
            ),
            Phase(name="cooldown", duration_s=240.0, maintenance_interval_s=120.0),
        ],
        n_peers,
        seed,
        duration_scale,
        codec=ZOrderCodec(dims=2),
    )


#: Registry iterated by ``benchmarks/bench_scenarios.py`` and the tests.
SCENARIOS: Dict[str, Callable[..., ScenarioSpec]] = {
    "uniform-baseline": uniform_baseline,
    "pareto-hotspot": pareto_hotspot,
    "flash-crowd": flash_crowd,
    "mass-join": mass_join,
    "mass-leave": mass_leave,
    "paper-sec51-churn": paper_sec51_churn,
    "paper-sec52-planetlab": paper_sec52_planetlab,
    "regional-outage": regional_outage,
    "correlated-churn": correlated_churn,
    "read-write-balanced": read_write_balanced,
    "write-hotspot-adversarial": write_hotspot_adversarial,
    "asymmetric-partition-writes": asymmetric_partition_writes,
    "restart-storm": restart_storm,
    "rolling-deploy": rolling_deploy,
    "datacenter-power-cycle": datacenter_power_cycle,
    "zipf-serving": zipf_serving,
    "cache-coherence-storm": cache_coherence_storm,
    "geo-box-serving": geo_box_serving,
    "correlated-hotspot-2d": correlated_hotspot_2d,
}


def scenario(
    name: str,
    n_peers: int = DEFAULT_N_PEERS,
    *,
    seed: int = 20050830,
    duration_scale: float = 1.0,
) -> ScenarioSpec:
    """Build a library scenario by name."""
    try:
        factory = SCENARIOS[name]
    except KeyError:
        raise DomainError(
            f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}"
        ) from None
    return factory(n_peers, seed=seed, duration_scale=duration_scale)
