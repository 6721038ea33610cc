"""Declarative scenario specifications for churn/skew stress experiments.

A :class:`ScenarioSpec` describes a complete overlay stress experiment as
data: the initial population and key workload, then a sequence of
:class:`Phase` objects, each combining peer arrivals/departures, a churn
regime, a query mix (point lookups and range scans, optionally focused
on a flash-crowd hotspot), a write mix (:class:`WriteMix`:
insert/delete/update mutations, optionally hotspot-focused) and a
maintenance/repair cadence.  The shared
compiler (:mod:`repro.scenarios.base`) turns a spec into
:class:`repro.simnet.engine.Simulator` events for either execution
backend: the synchronous data plane
(:class:`repro.scenarios.runner.ScenarioRunner` over a
:class:`repro.pgrid.network.PGridNetwork`) or the message level
(:class:`repro.scenarios.message_runner.MessageScenarioRunner` over
:class:`repro.simnet.node.PGridNode` protocol nodes with latency and
loss).  ``query_retries`` maps to synchronous re-routing attempts on
the first backend and to timeout-driven wire retries on the second.

Specs are plain frozen dataclasses so they can be constructed inline,
shipped in the library (:mod:`repro.scenarios.library`) and compared for
equality in tests.  Everything is seeded: the same spec and seed always
produce the same :class:`~repro.scenarios.report.ScenarioReport`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from .._util import is_count
from ..exceptions import DomainError, SimulationError
from ..pgrid.keyspace import KeyCodec, ScalarCodec
from ..pgrid.mdim import ZOrderCodec
from ..pgrid.serving import CachePolicy
from ..simnet.churn import ChurnConfig
from ..workloads.distributions import DISTRIBUTIONS, distribution
from ..workloads.queries import QuerySampler

__all__ = [
    "CachePolicy",
    "ChurnSpec",
    "Hotspot",
    "KeyCodec",
    "PartitionSpec",
    "QueryMix",
    "RestartSpec",
    "ScalarCodec",
    "WriteMix",
    "Phase",
    "ScenarioSpec",
    "ZOrderCodec",
]


@dataclass(frozen=True)
class RestartSpec:
    """A phase's restart regime (process restarts, not churn).

    Unlike churn -- where a peer merely goes unreachable and returns
    with its memory intact -- a restart terminates the process: pending
    operations are lost and what survives is whatever the persistence
    subsystem (:mod:`repro.pgrid.state`) checkpointed.  During the
    phase, ``fraction`` of the online population restarts once each:
    shutdown times are staggered uniformly over ``[0, stagger_s]`` from
    the phase start, and each peer returns after a downtime drawn
    uniformly from ``[min_down_s, max_down_s]``.

    ``crash_fraction`` of the restarts are *crashes* (state as of the
    last periodic checkpoint, stale by up to the durability policy's
    ``snapshot_interval_s``); the rest are *clean shutdowns* (exact
    checkpoint at the shutdown instant).  Whether a returning peer
    rejoins warm (restore + delta reconciliation) or cold (sponsored
    join from nothing) is decided by the runner's
    :class:`~repro.pgrid.state.DurabilityPolicy`, not the spec -- the
    same spec benchmarks both sides of the A/B.
    """

    fraction: float = 0.5
    min_down_s: float = 30.0
    max_down_s: float = 90.0
    stagger_s: float = 60.0
    crash_fraction: float = 0.0

    def validate(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise SimulationError(
                f"restart fraction must lie in (0, 1], got {self.fraction}"
            )
        if not 0.0 < self.min_down_s <= self.max_down_s or self.min_down_s == math.inf:
            raise SimulationError("invalid restart downtime interval")
        if not self.stagger_s >= 0.0:
            raise SimulationError("restart stagger must be non-negative")
        if not 0.0 <= self.crash_fraction <= 1.0:
            raise SimulationError(
                f"crash fraction must lie in [0, 1], got {self.crash_fraction}"
            )


@dataclass(frozen=True)
class PartitionSpec:
    """A correlated regional cut lasting one phase.

    At the phase boundary the population is split into
    ``len(fractions)`` disjoint regions (a deterministic seeded shuffle
    sized by ``fractions``); the cut heals at the phase end.  The
    message backend installs a real transport partition
    (:meth:`repro.simnet.transport.Network.set_partitions` -- messages
    crossing a region boundary are refused at send time), exercising the
    route-repair subsystem's partition evidence.  The data plane has no
    per-link transport, so it approximates the cut from the majority
    region's viewpoint: every peer outside region 0 is unavailable for
    the duration -- a correlated mass-departure with a guaranteed
    return.
    """

    #: Relative region sizes; region 0 is the majority/reference region.
    fractions: Tuple[float, ...] = (0.8, 0.2)

    def __post_init__(self):
        if not isinstance(self.fractions, tuple):
            object.__setattr__(self, "fractions", tuple(self.fractions))

    def validate(self) -> None:
        if len(self.fractions) < 2:
            raise SimulationError("a partition needs at least two regions")
        if not all(f > 0.0 for f in self.fractions):
            raise SimulationError("partition region fractions must be positive")
        if abs(sum(self.fractions) - 1.0) > 1e-9:
            raise SimulationError(
                f"partition region fractions must sum to 1, got {self.fractions}"
            )


@dataclass(frozen=True)
class ChurnSpec:
    """A phase's churn regime (times in seconds, like the simulator clock).

    Defaults are the paper's Sec. 5.1 schedule: "each peer independently
    decide[s] to go offline 1-5 minutes every 5-10 minutes".
    ``fraction`` restricts churn to a random subset of the online
    population (1.0 = everybody churns).
    """

    min_offline_s: float = 60.0
    max_offline_s: float = 300.0
    min_online_s: float = 300.0
    max_online_s: float = 600.0
    fraction: float = 1.0

    def validate(self) -> None:
        self.to_config().validate()
        if not 0.0 < self.fraction <= 1.0:
            raise SimulationError(
                f"churn fraction must lie in (0, 1], got {self.fraction}"
            )

    def to_config(self) -> ChurnConfig:
        """The equivalent :class:`~repro.simnet.churn.ChurnConfig`."""
        return ChurnConfig(
            min_offline=self.min_offline_s,
            max_offline=self.max_offline_s,
            min_online=self.min_online_s,
            max_online=self.max_online_s,
        )


@dataclass(frozen=True)
class Hotspot:
    """A flash-crowd focus interval in ``[0, 1)`` of the key space.

    ``weight`` is the probability that any single query targets the hot
    interval instead of the whole key space.
    """

    lo: float
    hi: float
    weight: float = 0.9

    def as_tuple(self) -> Tuple[float, float, float]:
        return (self.lo, self.hi, self.weight)


@dataclass(frozen=True)
class QueryMix:
    """Relative blend of point lookups and range scans for one phase.

    ``batch_size`` releases that many concurrent queries per arrival
    tick instead of one-at-a-time (the arrival rate is divided by the
    batch size, so the mean query rate is unchanged; ``1`` reproduces
    the one-at-a-time event stream bit-for-bit).  ``zipf_keys`` > 0
    switches point targets from fresh uniform draws to a Zipf-ranked
    popular set of that many *workload* keys (exponent
    ``zipf_exponent``), the repeat-heavy access pattern the serving
    caches exist for; the popular set concentrates inside ``hotspot``
    when one is configured.
    """

    point_weight: float = 0.9
    range_weight: float = 0.1
    range_span: float = 0.02
    hotspot: Optional[Hotspot] = None
    batch_size: int = 1
    zipf_keys: int = 0
    zipf_exponent: float = 0.9
    #: Per-dimension box side lengths for multi-dimensional scenarios
    #: (skewed per-dimension selectivity); ``None`` = ``range_span`` on
    #: every side.  Requires the spec to carry a multi-dimensional
    #: codec; inert (and invalid) otherwise.
    box_spans: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        if self.box_spans is not None and not isinstance(self.box_spans, tuple):
            object.__setattr__(self, "box_spans", tuple(self.box_spans))

    def validate(self, codec: Optional[KeyCodec] = None) -> None:
        if not is_count(self.batch_size, 1):
            raise SimulationError(
                f"query batch size must be an integer >= 1, got {self.batch_size}"
            )
        if not is_count(self.zipf_keys, 0):
            raise SimulationError(
                f"zipf_keys must be an integer >= 0, got {self.zipf_keys}"
            )
        if not self.zipf_exponent > 0:
            raise SimulationError(
                f"zipf exponent must be positive, got {self.zipf_exponent}"
            )
        # The sampler is the single authority on mix validity (weights,
        # span, hotspot bounds, box spans); surface its verdict as a
        # spec error.
        try:
            self.to_sampler(codec=codec)
        except DomainError as exc:
            raise SimulationError(str(exc)) from None

    def to_sampler(
        self,
        universe: Optional[Sequence[int]] = None,
        codec: Optional[KeyCodec] = None,
    ) -> QuerySampler:
        """The :class:`~repro.workloads.queries.QuerySampler` this mix
        configures (raises :class:`~repro.exceptions.DomainError` on an
        invalid mix).  ``universe`` is the sorted workload key set Zipf
        popular keys are drawn from; without one, ``zipf_keys`` is
        inert and point draws stay uniform.  ``codec`` is the spec's
        keyspace codec; a multi-dimensional one switches range draws to
        box draws."""
        return QuerySampler(
            point_weight=self.point_weight,
            range_weight=self.range_weight,
            range_span=self.range_span,
            hotspot=self.hotspot.as_tuple() if self.hotspot is not None else None,
            universe=universe,
            zipf_keys=self.zipf_keys,
            zipf_exponent=self.zipf_exponent,
            codec=codec,
            box_spans=self.box_spans,
        )


@dataclass(frozen=True)
class WriteMix:
    """One phase's mutation workload (the write path of the index).

    ``write_rate`` mutations arrive per simulated second (a Poisson
    process like the query arrivals); each draws its operation from the
    three weights:

    * **insert** -- a fresh key sampled from the key space (optionally
      concentrated on ``hotspot``, the flash-crowd write pattern).
      Fresh 53-bit draws make colliding with a previously deleted key
      astronomically unlikely, so the workload never depends on
      re-insert-after-delete durability (which is delete-wins-bounded,
      see :func:`repro.pgrid.replication.reconcile`);
    * **delete** -- an existing key (nearest tracked key to the sampled
      target, so hotspots focus deletes too); the owner tombstones it
      and the delete propagates delete-wins through replica sync and
      anti-entropy;
    * **update** -- a re-insert of an existing key (the index has no
      separate values, so an update is an idempotent overwrite --
      exercising insert idempotence and refresh traffic).

    When no key is tracked as present yet, deletes and updates fall
    back to inserts (the pool then grows until the configured blend is
    reachable).
    """

    write_rate: float = 1.0
    insert_weight: float = 0.5
    delete_weight: float = 0.3
    update_weight: float = 0.2
    hotspot: Optional[Hotspot] = None

    def validate(self) -> None:
        # Finite too: an infinite rate schedules its arrivals at one
        # instant forever, and the run never ends.
        if not 0 < self.write_rate < math.inf:
            raise SimulationError(
                f"write rate must be positive and finite, got {self.write_rate}"
            )
        weights = (self.insert_weight, self.delete_weight, self.update_weight)
        if not all(w >= 0 for w in weights):
            raise SimulationError("write-mix weights must be non-negative")
        if not sum(weights) > 0:
            raise SimulationError("write mix needs a positive total weight")
        # Key sampling reuses the query sampler; surface its verdict.
        try:
            self.to_sampler()
        except DomainError as exc:
            raise SimulationError(str(exc)) from None

    def to_sampler(self, codec: Optional[KeyCodec] = None) -> QuerySampler:
        """The key sampler behind every mutation target (point draws,
        hotspot-aware; multi-dimensional codecs make every mutation
        target an encoded d-attribute point)."""
        return QuerySampler(
            point_weight=1.0,
            range_weight=0.0,
            hotspot=self.hotspot.as_tuple() if self.hotspot is not None else None,
            codec=codec,
        )


@dataclass(frozen=True)
class Phase:
    """One stage of a scenario timeline.

    At the phase boundary ``join_peers`` new peers arrive (sequential
    maintenance joins) and ``leave_peers`` online peers depart for good;
    during the phase queries arrive at ``query_rate`` per simulated
    second, mutations (if a ``writes`` mix is configured) arrive at its
    ``write_rate``, churn (if configured) toggles availability, a
    regional ``partitions`` cut (if configured) severs the population
    for the phase, and every ``maintenance_interval_s`` the overlay runs
    one repair + anti-entropy round.
    """

    name: str
    duration_s: float
    query_rate: float = 4.0
    mix: QueryMix = field(default_factory=QueryMix)
    churn: Optional[ChurnSpec] = None
    join_peers: int = 0
    leave_peers: int = 0
    maintenance_interval_s: Optional[float] = None
    partitions: Optional[PartitionSpec] = None
    #: Mutation workload for this phase (``None`` = read-only, the
    #: pre-write-path behavior, bit-for-bit).
    writes: Optional[WriteMix] = None
    #: Process-restart regime for this phase (``None`` = no restarts,
    #: the pre-persistence behavior, bit-for-bit).
    restarts: Optional[RestartSpec] = None
    #: Build the overlay from nothing during this phase (first phase
    #: only) instead of starting from the ideal one: on the wire every
    #: peer joins, replicates its keys and runs the Fig. 2 interactions
    #: until the phase ends (the paper's Sec. 5 timeline, see
    #: :mod:`repro.scenarios.message_runner`); the data plane starts
    #: from :func:`~repro.pgrid.network.build_overlay`.
    construct: bool = False

    def validate(self, codec: Optional[KeyCodec] = None) -> None:
        # Finite too: an infinite duration or rate never lets the run end
        # (an infinite maintenance interval or offline time does).
        if not 0 < self.duration_s < math.inf:
            raise SimulationError(f"phase {self.name!r} needs a positive, finite duration")
        if not 0 <= self.query_rate < math.inf:
            raise SimulationError(f"phase {self.name!r} needs a finite query rate >= 0")
        if not (is_count(self.join_peers, 0) and is_count(self.leave_peers, 0)):
            raise SimulationError(
                f"phase {self.name!r} needs integer membership deltas >= 0"
            )
        if self.maintenance_interval_s is not None and not self.maintenance_interval_s > 0:
            raise SimulationError(
                f"phase {self.name!r} needs a positive maintenance interval"
            )
        self.mix.validate(codec)
        if self.churn is not None:
            self.churn.validate()
        if self.partitions is not None:
            self.partitions.validate()
        if self.writes is not None:
            self.writes.validate()
        if self.restarts is not None:
            self.restarts.validate()


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, reproducible stress experiment as data."""

    name: str
    phases: Tuple[Phase, ...]
    n_peers: int = 256
    keys_per_peer: int = 8
    distribution: str = "U"
    d_max: float = 40.0
    n_min: int = 3
    max_refs: int = 4
    seed: int = 20050830
    report_bin_s: float = 60.0
    #: Extra routing attempts (fresh random start peer) after a failed
    #: query, mirroring the protocol's retry behavior under churn
    #: (:class:`repro.simnet.node.NodeConfig.query_retries`).
    query_retries: int = 2
    #: Death-certificate lifetime for the message backend; ``None``
    #: keeps ``NodeConfig.tombstone_ttl_s`` (600 s).  Scenarios whose
    #: reconciliation horizon outlives the default TTL (restart storms:
    #: a delete acked mid-storm must still be enforceable against a
    #: peer that restores a pre-delete snapshot and only reconciles via
    #: slow anti-entropy near the scenario end) provision a TTL that
    #: covers the delete-to-audit window, the classic Demers trade made
    #: explicit per experiment.  Dilated by :meth:`scaled` like every
    #: other duration.  The data plane has no tombstone clock.
    tombstone_ttl_s: Optional[float] = None
    #: Query-serving front end (:class:`repro.pgrid.serving.CachePolicy`).
    #: ``None`` = no serving layer and no ``serving`` report section
    #: (the pre-serving behavior, bit-for-bit);
    #: ``CachePolicy(enabled=False)`` = unmodified protocol but the
    #: report still carries the section, for cache on/off A/Bs.
    cache: Optional[CachePolicy] = None
    #: Keyspace codec (:class:`~repro.pgrid.keyspace.KeyCodec`).
    #: ``None`` = the classic one-dimensional keyspace, bit-for-bit
    #: (equivalent to :class:`~repro.pgrid.keyspace.ScalarCodec`).  A
    #: multi-dimensional codec (:class:`~repro.pgrid.mdim.ZOrderCodec`)
    #: switches workload keys to encoded d-attribute points, range
    #: draws to d-dimensional boxes showered over their z-spans, and
    #: adds the ``mdim`` report section.
    codec: Optional[KeyCodec] = None

    def __post_init__(self):
        # Accept any sequence of phases but store a hashable tuple.
        if not isinstance(self.phases, tuple):
            object.__setattr__(self, "phases", tuple(self.phases))

    # -- derived timeline --------------------------------------------------

    @property
    def duration_s(self) -> float:
        """Total simulated length of the scenario."""
        return sum(p.duration_s for p in self.phases)

    def boundaries(self) -> List[Tuple[float, float]]:
        """``(start_s, end_s)`` per phase, in order."""
        out: List[Tuple[float, float]] = []
        t = 0.0
        for phase in self.phases:
            out.append((t, t + phase.duration_s))
            t += phase.duration_s
        return out

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        if not self.phases:
            raise SimulationError(f"scenario {self.name!r} needs at least one phase")
        if not is_count(self.n_peers, 2):
            raise SimulationError(f"n_peers must be an integer >= 2, got {self.n_peers}")
        if not is_count(self.keys_per_peer, 1):
            raise SimulationError(
                f"keys_per_peer must be an integer >= 1, got {self.keys_per_peer}"
            )
        try:
            distribution(self.distribution)
        except DomainError:
            raise SimulationError(
                f"unknown key distribution {self.distribution!r}; "
                f"known: {sorted(DISTRIBUTIONS)}"
            ) from None
        if not (self.d_max > 0 and is_count(self.n_min, 1) and is_count(self.max_refs, 1)):
            raise SimulationError(
                "d_max must be positive, n_min and max_refs positive integers"
            )
        if not self.report_bin_s > 0:
            raise SimulationError("report bin width must be positive")
        if not is_count(self.query_retries, 0):
            raise SimulationError("query retries must be an integer >= 0")
        if self.tombstone_ttl_s is not None and not self.tombstone_ttl_s > 0:
            raise SimulationError("tombstone TTL must be positive when set")
        if self.cache is not None:
            try:
                self.cache.validate()
            except DomainError as exc:
                raise SimulationError(str(exc)) from None
        if self.codec is not None and self.codec.dims < 1:
            raise SimulationError("codec must index at least one dimension")
        for phase in self.phases:
            phase.validate(self.codec)
        if any(phase.construct for phase in self.phases[1:]):
            raise SimulationError("only the first phase may construct the overlay")

    # -- convenience -------------------------------------------------------

    def scaled(self, duration_scale: float) -> "ScenarioSpec":
        """A time-dilated copy: phase durations, maintenance cadence,
        churn periods and the report bin are all multiplied by
        ``duration_scale`` -- the standard way to shrink a library
        scenario into a CI-sized smoke run without changing its shape."""
        if not 0 < duration_scale < math.inf:
            raise SimulationError(
                f"duration scale must be positive and finite, got {duration_scale}"
            )
        phases = tuple(
            replace(
                p,
                duration_s=p.duration_s * duration_scale,
                maintenance_interval_s=(
                    None
                    if p.maintenance_interval_s is None
                    else p.maintenance_interval_s * duration_scale
                ),
                churn=(
                    None
                    if p.churn is None
                    else replace(
                        p.churn,
                        min_offline_s=p.churn.min_offline_s * duration_scale,
                        max_offline_s=p.churn.max_offline_s * duration_scale,
                        min_online_s=p.churn.min_online_s * duration_scale,
                        max_online_s=p.churn.max_online_s * duration_scale,
                    )
                ),
                restarts=(
                    None
                    if p.restarts is None
                    else replace(
                        p.restarts,
                        min_down_s=p.restarts.min_down_s * duration_scale,
                        max_down_s=p.restarts.max_down_s * duration_scale,
                        stagger_s=p.restarts.stagger_s * duration_scale,
                    )
                ),
            )
            for p in self.phases
        )
        return replace(
            self,
            phases=phases,
            report_bin_s=self.report_bin_s * duration_scale,
            tombstone_ttl_s=(
                None
                if self.tombstone_ttl_s is None
                else self.tombstone_ttl_s * duration_scale
            ),
            cache=(
                None if self.cache is None else self.cache.scaled(duration_scale)
            ),
        )
