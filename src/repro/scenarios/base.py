"""Shared scenario compilation: one spec, two execution backends.

A :class:`~repro.scenarios.spec.ScenarioSpec` can be executed by two
backends that share this module's phase compiler:

* the **data-plane backend** (:class:`repro.scenarios.runner.ScenarioRunner`)
  calls :class:`~repro.pgrid.network.PGridNetwork` synchronously -- queries
  are ~10us, so N=4096 scenarios run in seconds; the simulator only
  provides the timeline for churn/membership/maintenance interleaving;
* the **message-level backend**
  (:class:`repro.scenarios.message_runner.MessageScenarioRunner`) compiles
  the same phases onto :class:`~repro.simnet.node.PGridNode` protocol
  nodes communicating through :class:`~repro.simnet.transport.Network`,
  so every query pays latency, loss, timeouts and retries on the
  simulated wire (the paper's Sec. 5 PlanetLab conditions).

:class:`ScenarioRunnerBase` owns everything backend-independent: the
master-RNG stream derivation (**fixed order** -- the determinism
contract), workload generation, the per-phase event compilation
(membership waves, churn processes, maintenance cadence, query arrival
processes), per-bin sampling and report assembly.  A runner runs once.

Hook surface
------------
What a backend writes (pinned by ``tests/test_runner_surface.py``, so
the list grows only by a reviewed diff): ``_derive_extra_streams``,
``_setup``, ``_population``, ``_depart``, ``_churn_toggle``, ``_join``,
``_run_maintenance``, ``_set_partitions``, ``_heal_partitions``,
``_run_one_query``, ``_run_one_write``, ``_checkpoint_all``,
``_restart_shutdown``, ``_restart_return``, ``_durable_key_view``,
``_sample_state``, ``_finish``, ``_load_by_peer``, ``_message_section``,
``_serving_counters``, ``_serving_latency``.

Everything the report audits is decided here, once for both backends,
so their columns come from one procedure:

* **One population view.**  ``_population()`` hands over the backend's
  ``{pid: peer}`` mapping (``PGridNetwork.peers`` / the message
  backend's nodes; both peer types carry ``online``, ``path``, ``keys``
  and ``tombstones``); join ids, membership and partition draws, the
  divergence audit and the final availability / coverage figures are
  computed over it here.
* **Bytes go to one ledger.**  :meth:`ScenarioRunnerBase.run` creates
  the run's :class:`~repro.simnet.stats.StatsCollector`; the message
  backend's transport records every wire byte into it, the data-plane
  backend its nominal byte model through :class:`_Tally`'s ``record_*``
  methods; series, per-phase bytes (the bin-window rule of
  :mod:`repro.scenarios.report`), totals and the recovery bill are all
  read from that one object.
* **A range query is a box of one range.**  ``_draw_ranges`` draws the
  key ranges of a scalar range or a box, ``_tally_ranges`` records the
  finished query once.

Determinism
-----------
One master RNG seeds independent per-concern streams (workload, overlay
build, queries, churn, membership, maintenance) in a fixed order;
backends may append *extra* streams at the end only
(:meth:`_derive_extra_streams`).  The simulator breaks ties by sequence
number and no iteration order depends on hash randomization, so the
same spec + seed + backend reproduces a byte-identical report
(golden-trace tested per backend).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from itertools import count
from math import inf
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .._util import make_rng, mean, std
from ..exceptions import SimulationError
from ..pgrid.bits import Path
from ..pgrid.replication import divergence_stats
from ..pgrid.serving import RESULT_CAPACITY, ROUTE_CAPACITY, gini
from ..pgrid.state import SCHEMA as STATE_SCHEMA
from ..pgrid.state import SNAPSHOT_INTERVAL_S, DurabilityPolicy, StateStore
from ..simnet.churn import start_churn
from ..simnet.engine import Simulator
from ..simnet.protocol import MAINTENANCE, QUERY_TRAFFIC, UPDATE_TRAFFIC
from ..simnet.stats import StatsCollector
from ..workloads.datasets import workload_keys
from ..workloads.distributions import distribution
from ..workloads.queries import POINT, RANGE, QuerySampler
from .invariants import live_key_coverage
from .report import ScenarioReport
from .spec import Phase, ScenarioSpec, WriteMix

#: Absolute slack over the pre-restart divergence baseline within which
#: the overlay counts as re-converged (see the report's ``recovery``
#: section): replica divergence is a mean of fractions, so a couple of
#: percentage points absorbs sampling noise without hiding a cold
#: rejoin's missing-keys plateau.
CONVERGENCE_SLACK = 0.02

#: Recovery divergence sampling cadence, as samples per report bin:
#: fine enough that time-to-converged-divergence distinguishes a warm
#: rejoin (converged at the next sample) from a cold one (stale until
#: the next anti-entropy sweep), without touching the report's per-bin
#: series.
RECOVERY_SAMPLES_PER_BIN = 4

__all__ = ["ScenarioRunnerBase", "_Tally"]

#: Write operation tags (also the per-phase counter keys, pluralized).
WRITE_OPS = ("insert", "delete", "update")


class _Tally:
    """Per-bin and per-phase counts of a run; its bytes go to ``stats``,
    the run's one byte ledger (zero sizes never reach it -- see
    :class:`~repro.simnet.stats.StatsCollector`)."""

    def __init__(self, bin_s: float, n_phases: int, stats: StatsCollector):
        self.bin_s = bin_s
        self.stats = stats
        # bin -> [issued, succeeded, hops_on_point_success, point_successes]
        self.query_bins: Dict[int, List[float]] = defaultdict(lambda: [0, 0, 0, 0])
        # bin -> (online, partition_availability, mean_online_replicas)
        self.samples: Dict[int, tuple] = {}
        self.phase_counters: List[Dict[str, float]] = [
            {
                "queries": 0, "successes": 0, "points": 0, "ranges": 0,
                "writes": 0, "inserts": 0, "deletes": 0, "updates": 0,
                "write_successes": 0,
            }
            for _ in range(n_phases)
        ]
        self.load: Dict[int, int] = defaultdict(int)
        self.messages = 0
        self.repairs = 0
        self.keys_moved = 0
        self.range_incomplete = 0
        self.churn_transitions = 0
        self.joins = 0
        self.failed_joins = 0
        self.leaves = 0

    def _bin(self, t: float) -> int:
        return int(t // self.bin_s)

    def record_query(
        self,
        t: float,
        phase_idx: int,
        *,
        kind: str,
        success: bool,
        hops: int,
        messages: int,
        size: int = 0,
    ) -> None:
        row = self.query_bins[self._bin(t)]
        row[0] += 1
        counters = self.phase_counters[phase_idx]
        counters["queries"] += 1
        if kind == POINT:
            counters["points"] += 1
        else:
            counters["ranges"] += 1
        if success:
            row[1] += 1
            counters["successes"] += 1
            if kind == POINT:
                row[2] += hops
                row[3] += 1
        self.messages += messages
        if size:
            self.stats.record_bytes(t, QUERY_TRAFFIC, size)

    def record_maintenance(self, t: float, *, messages: int, size: int) -> None:
        self.messages += messages
        if size:
            self.stats.record_bytes(t, MAINTENANCE, size)

    def record_write(
        self,
        t: float,
        phase_idx: int,
        *,
        op: str,
        success: bool,
        messages: int,
        size: int = 0,
    ) -> None:
        counters = self.phase_counters[phase_idx]
        counters["writes"] += 1
        counters[op + "s"] += 1
        if success:
            counters["write_successes"] += 1
        self.messages += messages
        if size:
            self.stats.record_bytes(t, UPDATE_TRAFFIC, size)

    def record_sample(
        self, t: float, online: int, availability: float, mean_online_replicas: float
    ) -> None:
        self.samples[self._bin(t)] = (online, availability, mean_online_replicas)


class ScenarioRunnerBase:
    """Backend-independent scenario execution skeleton.

    Subclasses implement the hook surface documented on each ``_``-method;
    :meth:`run` drives the common lifecycle: derive RNG streams, build
    the workload, compile every phase onto simulator events, execute,
    assemble the :class:`~repro.scenarios.report.ScenarioReport`.
    """

    #: Safety bound on simulator events per run.
    MAX_EVENTS = 20_000_000

    #: Human-readable backend tag (set by subclasses).
    backend = "abstract"

    def __init__(
        self, spec: ScenarioSpec, *, durability: Optional[DurabilityPolicy] = None
    ):
        spec.validate()
        self.spec = spec
        #: Set by :meth:`run`, which refuses a second call on seeing it.
        self.simulator: Optional[Simulator] = None
        #: The run's byte ledger (both backends; created by :meth:`run`).
        self.stats: Optional[StatsCollector] = None
        self._tally: Optional[_Tally] = None
        #: True while a phase's regional cut is installed.
        self._partition_active = False
        #: True when any phase carries a :class:`WriteMix` -- gates every
        #: write-path branch so read-only runs stay bit-identical to the
        #: pre-write-path engine (golden-trace contract).
        self._writes_active = any(p.writes is not None for p in spec.phases)
        #: Sorted keys believed present in the index (delete/update
        #: targets); populated from the workload when writes are active.
        self._key_pool: List[int] = []
        #: True when any phase carries a :class:`RestartSpec` -- gates
        #: every persistence/recovery branch, so restart-free runs stay
        #: bit-identical to the pre-persistence engine.
        self._restarts_active = any(p.restarts is not None for p in spec.phases)
        #: The crash model's switch; ``enabled=False`` is the cold-join
        #: baseline (every restart rebuilds from a sponsored join).
        self._durability = durability if durability is not None else DurabilityPolicy()
        #: The simulated disk holding per-peer checkpoints.
        self._state_store = StateStore()
        #: Recovery bookkeeping (populated by :meth:`run` when restarts
        #: are active; ``None`` otherwise).
        self._recovery: Optional[dict] = None
        #: key -> [op, acked] for the last issued mutation per key (the
        #: lost-acked-write / tombstone-resurrection audit; only tracked
        #: when restarts are active).
        self._last_write: Dict[int, list] = {}
        #: The serving-layer cache policy (``None`` when the spec
        #: carries none -- the golden-pinned path: no serving section,
        #: no extra branches).  ``enabled=False`` still produces the
        #: report section (zero counters) so cache-off baselines are
        #: comparable A/B runs.
        self._cache = spec.cache
        #: Authoritative present-key view for the stale-read audit:
        #: seeded from the workload, updated at every acked write.  A
        #: cache hit whose remembered presence disagrees with this set
        #: at hit time is a stale read.
        self._serving_auth: Optional[Set[int]] = None
        self._audited_hits = 0
        self._stale_reads = 0
        #: The spec's multi-dimensional codec, or ``None`` for the
        #: classic one-dimensional keyspace (scalar codecs included) --
        #: gates every mdim branch so scalar runs stay bit-identical to
        #: the pre-codec engine (golden-trace contract).
        self._mdim = (
            spec.codec
            if spec.codec is not None and spec.codec.dims > 1
            else None
        )
        #: Box-query accumulators (see :meth:`_mdim_section`).
        self._mdim_stats: Optional[Dict[str, object]] = None
        if self._mdim is not None:
            self._mdim_stats = {
                "boxes": 0,
                "box_successes": 0,
                "ranges": 0,
                "max_ranges": 0,
                "oracle_expected": 0,
                "oracle_found": 0,
                "sel_sums": [0.0] * self._mdim.dims,
            }
        #: Sorted workload-key universe (oracle ground truth for the
        #: box recall audit; only kept when mdim is active).
        self._universe: Optional[List[int]] = None

    # -- public API --------------------------------------------------------

    def run(self) -> ScenarioReport:
        spec = self.spec
        if self.simulator is not None:
            # The accumulators set in __init__ (latencies, audits, the
            # state store) are the run's; a second run would fold them
            # into a different report without saying so.
            raise SimulationError(
                "a scenario runner runs once; build a new one to run again"
            )
        (
            keys_rng, build_rng, query_rng, churn_rng,
            member_rng, maint_rng, write_rng, restart_rng,
        ) = self._derive_streams()
        #: Backend restart hooks (cold-rejoin placement) draw from the
        #: restart stream too, so restart scheduling and rejoin
        #: randomness live in one stream.
        self._restart_rng = restart_rng
        if self._restarts_active:
            self._recovery = {
                "first_shutdown": None,
                "last_return": None,
                "restarts": 0,
                "clean": 0,
                "crashes": 0,
                "warm": 0,
                "cold": 0,
                "skipped": 0,
                "baseline": None,
                "div_samples": [],
            }

        peer_keys = workload_keys(
            spec.distribution,
            spec.n_peers,
            spec.keys_per_peer,
            seed=keys_rng,
            codec=spec.codec,
        )
        sim = Simulator()
        self.simulator = sim
        self.stats = StatsCollector(bin_seconds=spec.report_bin_s)
        #: Observer callbacks of an asynchronous backend tally into it.
        tally = self._tally = _Tally(spec.report_bin_s, len(spec.phases), self.stats)
        self._setup(peer_keys, build_rng)
        if self._writes_active:
            self._key_pool = sorted({k for keys in peer_keys for k in keys})
        # Zipf point draws, the stale-read audit and the box-recall
        # oracle all need the workload-key universe; only built when
        # something asks for it so plain runs allocate nothing new.
        universe: Optional[List[int]] = None
        if (
            self._cache is not None
            or self._mdim is not None
            or any(p.mix.zipf_keys > 0 for p in spec.phases)
        ):
            universe = sorted({k for keys in peer_keys for k in keys})
        if self._cache is not None:
            self._serving_auth = set(universe)
        if self._mdim is not None:
            self._universe = universe

        departed: Set[int] = set()
        dist = distribution(spec.distribution)
        boundaries = spec.boundaries()
        total_end = spec.duration_s

        # Join id allocation shared by all phase closures.
        self._alloc_id = count(max(self._population(), default=-1) + 1).__next__

        # -- per-phase compilation ----------------------------------------
        for idx, (phase, (start, end)) in enumerate(zip(spec.phases, boundaries)):
            sampler = phase.mix.to_sampler(universe=universe, codec=spec.codec)
            sim.schedule(
                start,
                self._make_phase_start(
                    sim, tally, phase, idx, start, end,
                    sampler=sampler,
                    dist=dist,
                    departed=departed,
                    query_rng=query_rng,
                    churn_rng=churn_rng,
                    member_rng=member_rng,
                    maint_rng=maint_rng,
                    write_rng=write_rng,
                    restart_rng=restart_rng,
                ),
            )

        # -- per-bin replication-health sampling ---------------------------
        def sample() -> None:
            online, availability, live_reps = self._sample_state()
            tally.record_sample(sim.now, online, availability, live_reps)
            if sim.now < total_end:
                sim.schedule(spec.report_bin_s, sample)

        sim.schedule(0.0, sample)

        if self._restarts_active:
            # Recovery tracking: divergence trajectory from the first
            # shutdown on (convergence detection happens at assembly,
            # against the pre-shutdown baseline).  Sampled finer than
            # the report bins so time-to-converged-divergence can
            # resolve a warm rejoin (back at the next sample) from a
            # cold one (waiting on the next anti-entropy sweep).
            rec_step = spec.report_bin_s / RECOVERY_SAMPLES_PER_BIN

            def recovery_sample() -> None:
                rec = self._recovery
                if rec["first_shutdown"] is not None:
                    rec["div_samples"].append(
                        (sim.now, self._divergence_state()["mean"])
                    )
                if sim.now < total_end:
                    sim.schedule(rec_step, recovery_sample)

            sim.schedule(rec_step, recovery_sample)

        sim.run_until(total_end, max_events=self.MAX_EVENTS)
        if self._partition_active:
            # A final-phase cut heals at scenario end, before the drain:
            # in-flight queries resolve against a reunited network.
            self._heal_partitions()
            self._partition_active = False
        self._finish(tally)
        return self._assemble(tally, boundaries)

    # -- RNG stream tree ----------------------------------------------------

    def _derive_streams(self):
        """Derive every RNG stream off the spec's master, in the fixed
        order -- append new streams at the end only, or every golden
        trace changes.

        Order: the six shared streams (keys, build, query, churn,
        member, maintenance), the backend extras
        (:meth:`_derive_extra_streams`), then write, restart and finally
        the shard stream root -- each appended after the streams the
        then-existing goldens depended on, so deriving it could not
        shift any of them.
        """
        master = make_rng(self.spec.seed)
        keys_rng = make_rng(master.randrange(2**31))
        build_rng = make_rng(master.randrange(2**31))
        query_rng = make_rng(master.randrange(2**31))
        churn_rng = make_rng(master.randrange(2**31))
        member_rng = make_rng(master.randrange(2**31))
        maint_rng = make_rng(master.randrange(2**31))
        self._derive_extra_streams(master)
        write_rng = make_rng(master.randrange(2**31))
        restart_rng = make_rng(master.randrange(2**31))
        #: Root of the shard stream tree: worker-mode sharding
        #: (``message_runner.derive_shard_streams``) seeds its
        #: per-shard sub-runs from this final draw.
        self._shard_stream_root = master.randrange(2**31)
        return (
            keys_rng, build_rng, query_rng, churn_rng,
            member_rng, maint_rng, write_rng, restart_rng,
        )

    def shard_stream_root(self) -> int:
        """Seed of this spec's shard stream tree (the master chain's
        final draw -- see :meth:`_derive_streams`), for deriving
        per-shard worker streams without shifting any existing stream."""
        self._derive_streams()
        return self._shard_stream_root

    # -- backend hook surface ----------------------------------------------

    def _derive_extra_streams(self, master) -> None:
        """Derive backend-specific RNG streams (after the six shared ones)."""

    def _setup(self, peer_keys: Sequence[Sequence[int]], build_rng) -> None:
        """Materialize the backend's overlay for the generated workload."""
        raise NotImplementedError

    def _population(self) -> Dict[int, object]:
        """``{pid: peer}`` over every peer the backend knows.  The peers
        (``PGridPeer`` / ``PGridNode``) share ``online``, ``path``,
        ``keys`` and ``tombstones``, which is all the membership,
        coverage and divergence code below reads."""
        raise NotImplementedError

    def _depart(self, pid: int) -> None:
        """Take a peer offline permanently (membership wave departure)."""
        raise NotImplementedError

    def _churn_toggle(self, pid: int, tally: _Tally) -> Callable[[bool], None]:
        """An availability-toggle callback for one churned peer."""
        raise NotImplementedError

    def _join(self, pid: int, keys: List[int], rng, tally: _Tally) -> bool:
        """Attempt one phase-boundary join; return True on success."""
        raise NotImplementedError

    def _run_maintenance(self, tally: _Tally, rng) -> None:
        """Execute one maintenance tick."""
        raise NotImplementedError

    def _set_partitions(self, groups: List[List[int]]) -> None:
        """Install one phase's regional cut (``groups[0]`` = majority)."""
        raise NotImplementedError

    def _heal_partitions(self) -> None:
        """Remove the installed regional cut."""
        raise NotImplementedError

    def _run_one_query(
        self, tally: _Tally, phase: Phase, idx: int, sampler: QuerySampler, rng
    ) -> None:
        """Issue (and for synchronous backends, complete) one query."""
        raise NotImplementedError

    def _run_one_write(
        self, tally: _Tally, phase: Phase, idx: int, op: str, key: int, rng
    ) -> None:
        """Issue one mutation (``op`` in :data:`WRITE_OPS`) for ``key``."""
        raise NotImplementedError

    def _checkpoint_all(self, tally: _Tally) -> None:
        """Checkpoint every online peer into the state store (periodic
        cadence of the crash model; only called when restarts are
        active and durability is enabled)."""
        raise NotImplementedError

    def _restart_shutdown(self, pid: int, crash: bool, tally: _Tally) -> bool:
        """Shut one peer down for a restart.  A *clean* shutdown
        (``crash=False``) checkpoints at this instant when durability is
        enabled; a crash keeps only the last periodic checkpoint.
        Returns False (no-op) when the peer is already offline."""
        raise NotImplementedError

    def _restart_return(self, pid: int, tally: _Tally) -> str:
        """Bring a restarted peer back: ``"warm"`` (snapshot restored,
        delta reconciled through the ordinary machinery) or ``"cold"``
        (sponsored join from nothing -- the durability-disabled
        baseline, or no checkpoint on disk)."""
        raise NotImplementedError

    def _durable_key_view(self) -> Tuple[Set[int], Set[int]]:
        """``(present_keys, live_tombstones)`` across *all* peers --
        keys counting outboxes, tombstones only unexpired ones.  The
        end-of-run audit for lost acked writes and tombstone
        resurrections reads this."""
        raise NotImplementedError

    def _sample_state(self) -> Tuple[int, float, float]:
        """``(online, partition_availability, mean_online_replicas)`` now,
        over the replica groups (peers sharing a path) of the population
        view.  Runs every sample tick; a backend may override it with a
        faster sweep of its own peer type."""
        peers = self._population().values()
        paths = {peer.path for peer in peers}
        if not paths:
            return 0, 0.0, 0.0
        alive = {peer.path for peer in peers if peer.online}
        online = sum(1 for peer in peers if peer.online)
        # The mean of per-group live counts is online / n_groups.
        return online, len(alive) / len(paths), online / len(paths)

    def _finish(self, tally: _Tally) -> None:
        """Post-run hook (e.g. drain in-flight messages)."""

    # -- assembly hooks ----------------------------------------------------

    def _load_by_peer(self, tally: _Tally) -> List[int]:
        """Per-peer load counts, in stable (sorted peer id) order."""
        raise NotImplementedError

    def _message_section(self) -> Optional[dict]:
        """The report's optional ``message_level`` section (message
        backend only)."""
        return None

    def _serving_counters(self) -> Dict[str, int]:
        """Serving-layer counters aggregated across the backend's cache
        sites (only called when the spec carries a cache policy).
        Missing keys read as zero."""
        return {}

    def _serving_latency(self) -> Dict[str, float]:
        """Point-query latency stats under the serving layer (the
        message backend reports wall-clock percentiles; the data-plane
        backend has no wire time)."""
        return {"count": 0}

    # -- the population view (one implementation for both backends) --------

    def _online_ids(self, departed: Set[int]) -> List[int]:
        """Sorted ids of online peers that have not departed for good."""
        return sorted(
            pid
            for pid, peer in self._population().items()
            if peer.online and pid not in departed
        )

    def _divergence_state(self) -> Dict[str, float]:
        """Replica staleness now (see
        :func:`repro.pgrid.replication.divergence_stats`) plus the
        surviving ``tombstones`` count."""
        peers = self._population()
        # Replica groups are the peers sharing a path; members in pid
        # order, groups in path order (the float mean depends on it).
        # Sorting items() keeps the per-pid dict lookup off this sweep;
        # pids are unique so the peer half of the pair is never compared.
        groups: Dict[Path, list] = {}
        for _, peer in sorted(peers.items()):
            groups.setdefault(peer.path, []).append(peer.keys)
        stats = divergence_stats(groups[path] for path in sorted(groups))
        stats["tombstones"] = sum(len(peer.tombstones) for peer in peers.values())
        return stats

    def _final_state(self) -> Dict[str, float]:
        """End-of-run structural aggregates: ``final_online``,
        ``final_partition_availability``, ``final_coverage``,
        ``n_peers_end``."""
        online, availability, _ = self._sample_state()
        covered, total_keys = live_key_coverage(self._population())
        return {
            "final_online": online,
            "final_partition_availability": availability,
            "final_coverage": (covered / total_keys) if total_keys else 1.0,
            "n_peers_end": len(self._population()),
        }

    # -- phase machinery ---------------------------------------------------

    def _make_phase_start(
        self,
        sim: Simulator,
        tally: _Tally,
        phase: Phase,
        idx: int,
        start: float,
        end: float,
        *,
        sampler: QuerySampler,
        dist,
        departed: Set[int],
        query_rng,
        churn_rng,
        member_rng,
        maint_rng,
        write_rng,
        restart_rng,
    ) -> Callable[[], None]:
        spec = self.spec

        def begin_phase() -> None:
            # -- heal the previous phase's regional cut --------------------
            # (phase-start events order before same-timestamp events
            # scheduled mid-run, so healing here keeps cut lifetimes
            # exactly one phase without floating-point boundary tricks)
            if self._partition_active:
                self._heal_partitions()
                self._partition_active = False

            # -- membership wave at the boundary ---------------------------
            if phase.leave_peers:
                online_ids = self._online_ids(departed)
                leaving = member_rng.sample(
                    online_ids, min(phase.leave_peers, len(online_ids))
                )
                for pid in leaving:
                    self._depart(pid)
                    departed.add(pid)
                tally.leaves += len(leaving)
            for _ in range(phase.join_peers):
                pid = self._alloc_id()
                if self._mdim is not None:
                    keys = self._mdim.encode_many(
                        dist.sample_floats(
                            spec.keys_per_peer * self._mdim.dims, member_rng
                        )
                    )
                else:
                    keys = dist.sample_keys(spec.keys_per_peer, member_rng)
                if self._join(pid, keys, member_rng, tally):
                    tally.joins += 1
                else:
                    tally.failed_joins += 1

            # -- regional cut for this phase -------------------------------
            if phase.partitions is not None:
                ids = sorted(self._population())
                shuffled = member_rng.sample(ids, len(ids))
                groups: List[List[int]] = []
                cursor = 0
                for frac in phase.partitions.fractions[:-1]:
                    size = int(round(frac * len(ids)))
                    groups.append(sorted(shuffled[cursor:cursor + size]))
                    cursor += size
                groups.append(sorted(shuffled[cursor:]))
                self._set_partitions(groups)
                self._partition_active = True

            # -- churn processes for this phase ----------------------------
            if phase.churn is not None:
                candidates = self._online_ids(departed)
                count = max(1, round(phase.churn.fraction * len(candidates)))
                if count < len(candidates):
                    chosen = churn_rng.sample(candidates, count)
                else:
                    chosen = candidates
                start_churn(
                    sim,
                    [self._churn_toggle(pid, tally) for pid in chosen],
                    config=phase.churn.to_config(),
                    until=end,
                    stagger=True,
                    rng=churn_rng,
                )

            # -- maintenance cadence ---------------------------------------
            if phase.maintenance_interval_s is not None:
                interval = phase.maintenance_interval_s

                def maintenance_tick() -> None:
                    if sim.now >= end:
                        return
                    self._run_maintenance(tally, maint_rng)
                    sim.schedule(interval, maintenance_tick)

                sim.schedule(interval, maintenance_tick)

            # -- query arrival process -------------------------------------
            if phase.query_rate > 0:
                # Batched issue: each arrival releases ``batch_size``
                # concurrent queries, with the inter-arrival gap widened
                # by the same factor so the long-run rate is unchanged.
                # batch_size == 1 divides by one and loops once -- the
                # golden-pinned path is bit-identical.
                batch = phase.mix.batch_size

                def query_tick() -> None:
                    if sim.now >= end:
                        return
                    for _ in range(batch):
                        self._run_one_query(tally, phase, idx, sampler, query_rng)
                    sim.schedule(
                        query_rng.expovariate(phase.query_rate / batch), query_tick
                    )

                sim.schedule(
                    query_rng.expovariate(phase.query_rate / batch), query_tick
                )

            # -- write arrival process -------------------------------------
            if phase.writes is not None:
                wmix = phase.writes
                wsampler = wmix.to_sampler(codec=spec.codec)

                def write_tick() -> None:
                    if sim.now >= end:
                        return
                    op, key = self._draw_write(wmix, wsampler, write_rng)
                    if self._recovery is not None:
                        # The durability audit tracks the last issued
                        # mutation per key; the backend flips ``acked``
                        # through _note_acked_write on success.
                        norm = "delete" if op == "delete" else "insert"
                        self._last_write[key] = [norm, False]
                    self._run_one_write(tally, phase, idx, op, key, write_rng)
                    sim.schedule(write_rng.expovariate(wmix.write_rate), write_tick)

                sim.schedule(write_rng.expovariate(wmix.write_rate), write_tick)

            # -- restart schedule for this phase ---------------------------
            if phase.restarts is not None:
                self._compile_restarts(sim, tally, phase, end, departed, restart_rng)

        return begin_phase

    def _compile_restarts(
        self,
        sim: Simulator,
        tally: _Tally,
        phase: Phase,
        end: float,
        departed: Set[int],
        rng,
    ) -> None:
        """Schedule one phase's process restarts (see
        :class:`~repro.scenarios.spec.RestartSpec`).

        With durability enabled, a baseline checkpoint of the whole
        online population is taken at the phase start and refreshed
        every :data:`SNAPSHOT_INTERVAL_S` -- the staleness bound a crash
        restore pays.  Clean shutdowns additionally checkpoint at their
        shutdown instant inside :meth:`_restart_shutdown`.
        """
        restarts = phase.restarts
        if self._durability.enabled:
            self._checkpoint_all(tally)
            interval = SNAPSHOT_INTERVAL_S

            def checkpoint_tick() -> None:
                if sim.now >= end:
                    return
                self._checkpoint_all(tally)
                sim.schedule(interval, checkpoint_tick)

            sim.schedule(interval, checkpoint_tick)

        candidates = self._online_ids(departed)
        count = max(1, round(restarts.fraction * len(candidates)))
        chosen = rng.sample(candidates, min(count, len(candidates)))
        for pid in chosen:
            delay = rng.uniform(0.0, restarts.stagger_s)
            down = rng.uniform(restarts.min_down_s, restarts.max_down_s)
            crash = rng.random() < restarts.crash_fraction
            sim.schedule(delay, self._make_restart(sim, tally, pid, down, crash))

    def _make_restart(
        self, sim: Simulator, tally: _Tally, pid: int, down: float, crash: bool
    ) -> Callable[[], None]:
        def shutdown() -> None:
            rec = self._recovery
            if rec["baseline"] is None:
                # Pre-shutdown divergence baseline, sampled lazily just
                # before the first peer goes down: the level recovery
                # must return the overlay to.
                rec["baseline"] = self._divergence_state()["mean"]
            if not self._restart_shutdown(pid, crash, tally):
                rec["skipped"] += 1
                return
            rec["restarts"] += 1
            rec["crashes" if crash else "clean"] += 1
            if rec["first_shutdown"] is None:
                rec["first_shutdown"] = sim.now

            def comeback() -> None:
                mode = self._restart_return(pid, tally)
                rec[mode] += 1
                rec["last_return"] = sim.now

            sim.schedule(down, comeback)

        return shutdown

    def _note_acked_write(self, op: str, key: int) -> None:
        """Backend callback: mutation ``op`` on ``key`` was acked to the
        issuer.  Updates the serving-layer stale-read authority (acked
        state is the strongest claim the system made to a client) and
        flips the durability audit's ``acked`` bit if the ack still
        matches the last issued operation for the key."""
        norm = "delete" if op == "delete" else "insert"
        if self._serving_auth is not None:
            if norm == "delete":
                self._serving_auth.discard(key)
            else:
                self._serving_auth.add(key)
        if self._recovery is None:
            return
        entry = self._last_write.get(key)
        if entry is not None and entry[0] == norm:
            entry[1] = True

    def _audit_cache_hit(self, node_id: int, key: int, present: bool) -> None:
        """Backend callback: a cached answer for ``key`` was served at
        ``node_id``.  Compares the remembered presence against the
        authoritative key view *at hit time*; a disagreement is a stale
        read (the answer a coherent cache would not have given)."""
        self._audited_hits += 1
        if self._serving_auth is not None and present != (key in self._serving_auth):
            self._stale_reads += 1

    # -- range and box queries ---------------------------------------------

    def _draw_ranges(
        self, sampler: QuerySampler, rng
    ) -> Tuple[List[Tuple[int, int]], Optional[Set[int]]]:
        """Draw one non-point query as ``(key ranges, oracle)``; it
        succeeds when every range completed.

        A scalar range is a box of one range with no oracle.  A box
        (multi-dimensional codecs) is decomposed into its z-order key
        ranges; its oracle is the brute-force ground truth the recall
        audit compares served results against: workload-universe keys
        inside the issued ranges that pass the cell-level membership
        predicate (see the recall-audit rules in :mod:`repro.pgrid.mdim`).
        Also accumulates ranges-per-box and per-dimension selectivity.
        """
        if sampler.codec is None:
            return [sampler.draw_range(rng)], None
        lo_cells, hi_cells = sampler.draw_box(rng)
        codec = self._mdim
        stats = self._mdim_stats
        ranges = codec.box_ranges(lo_cells, hi_cells)
        stats["boxes"] += 1
        stats["ranges"] += len(ranges)
        stats["max_ranges"] = max(stats["max_ranges"], len(ranges))
        span = codec.cells_per_dim
        for j in range(codec.dims):
            stats["sel_sums"][j] += (hi_cells[j] - lo_cells[j] + 1) / span
        universe = self._universe
        oracle = {
            key
            for lo, hi in ranges
            for key in universe[bisect_left(universe, lo) : bisect_left(universe, hi)]
            if codec.box_contains(key, lo_cells, hi_cells)
        }
        return ranges, oracle

    def _tally_ranges(
        self,
        t: float,
        idx: int,
        *,
        oracle: Optional[Set[int]],
        found_keys,
        success: bool,
        messages: int,
        size: int = 0,
    ) -> None:
        """Tally one finished :meth:`_draw_ranges` query as a single
        RANGE record, and fold a box into the recall audit."""
        if oracle is not None:
            stats = self._mdim_stats
            if success:
                stats["box_successes"] += 1
            if oracle:
                stats["oracle_expected"] += len(oracle)
                stats["oracle_found"] += len(oracle.intersection(found_keys))
        if not success:
            self._tally.range_incomplete += 1
        self._tally.record_query(
            t, idx, kind=RANGE, success=success,
            hops=messages, messages=messages, size=size,
        )

    def _mdim_section(self) -> dict:
        """The report's ``mdim`` section (multi-dimensional specs only)."""
        codec = self._mdim
        stats = self._mdim_stats
        boxes = stats["boxes"]
        expected = stats["oracle_expected"]
        return {
            "dims": codec.dims,
            "bits_per_dim": codec.bits_per_dim,
            "split_budget": codec.split_budget,
            "boxes": int(boxes),
            "box_successes": int(stats["box_successes"]),
            "box_success_rate": (
                (stats["box_successes"] / boxes) if boxes else None
            ),
            "ranges_total": int(stats["ranges"]),
            "ranges_per_box_mean": (stats["ranges"] / boxes) if boxes else None,
            "ranges_per_box_max": int(stats["max_ranges"]),
            "recall_expected": int(expected),
            "recall_found": int(stats["oracle_found"]),
            "box_recall": (
                (stats["oracle_found"] / expected) if expected else None
            ),
            "selectivity_per_dim": [
                (s / boxes) if boxes else None for s in stats["sel_sums"]
            ],
        }

    def _draw_write(
        self, mix: WriteMix, sampler: QuerySampler, rng
    ) -> Tuple[str, int]:
        """Draw one mutation ``(op, key)`` from a phase's write mix.

        Inserts mint a fresh key from the (possibly hotspot-focused)
        sampler and track it in the pool; deletes and updates target the
        tracked key *nearest* the sampled point, so a write hotspot
        concentrates all three operations on the same region.  Both
        backends draw from the same stream, so the logical mutation
        sequence is identical across them.
        """
        pool = self._key_pool
        total = mix.insert_weight + mix.delete_weight + mix.update_weight
        draw = rng.random() * total
        target = sampler.draw_point_key(rng)
        if draw < mix.insert_weight or not pool:
            i = bisect_left(pool, target)
            if i == len(pool) or pool[i] != target:
                pool.insert(i, target)
            return "insert", target
        # Truly nearest, not just the successor: a target at a hotspot's
        # upper edge must hit the in-window predecessor, not a key far
        # to the right.
        i = bisect_left(pool, target)
        if i == len(pool):
            i -= 1
        elif i > 0 and target - pool[i - 1] < pool[i] - target:
            i -= 1
        key = pool[i]
        if draw < mix.insert_weight + mix.delete_weight:
            del pool[i]
            return "delete", key
        return "update", key

    # -- report assembly ---------------------------------------------------

    def _assemble(self, tally: _Tally, boundaries) -> ScenarioReport:
        spec = self.spec
        bin_s = spec.report_bin_s

        writes_active = self._writes_active
        ledger = self.stats.bytes_by_category
        query_bytes = ledger.get(QUERY_TRAFFIC, {})
        maint_bytes = ledger.get(MAINTENANCE, {})
        update_bytes = ledger.get(UPDATE_TRAFFIC, {})
        bins = sorted(
            set(tally.samples)
            | set(tally.query_bins)
            | set(query_bytes)
            | set(maint_bytes)
            | set(update_bytes)
        )
        series: List[dict] = []
        for b in bins:
            issued, ok, hops, point_ok = tally.query_bins.get(b, (0, 0, 0, 0))
            online, availability, live_reps = tally.samples.get(b, (None, None, None))
            row = {
                "minute": b * bin_s / 60.0,
                "online": online,
                "queries": issued,
                "successes": ok,
                "success_rate": (ok / issued) if issued else None,
                "mean_hops": (hops / point_ok) if point_ok else None,
                "query_Bps": query_bytes.get(b, 0) / bin_s,
                "maint_Bps": maint_bytes.get(b, 0) / bin_s,
                "partition_availability": availability,
                "mean_online_replicas": live_reps,
            }
            if writes_active:
                # Only write-carrying scenarios grow the extra series
                # column: read-only reports stay byte-identical.
                row["update_Bps"] = update_bytes.get(b, 0) / bin_s
            series.append(row)

        phases = []
        for phase, (start, end), counters in zip(
            spec.phases, boundaries, tally.phase_counters
        ):
            issued = counters["queries"]
            row = {
                "name": phase.name,
                "start_min": start / 60.0,
                "end_min": end / 60.0,
                "queries": int(issued),
                "point_queries": int(counters["points"]),
                "range_queries": int(counters["ranges"]),
                "success_rate": (counters["successes"] / issued) if issued else None,
                "query_bytes": self._phase_bytes(QUERY_TRAFFIC, start, end),
            }
            if writes_active:
                writes = counters["writes"]
                row["writes"] = int(writes)
                row["write_success_rate"] = (
                    (counters["write_successes"] / writes) if writes else None
                )
                row["update_bytes"] = self._phase_bytes(UPDATE_TRAFFIC, start, end)
            phases.append(row)

        total_issued = sum(c["queries"] for c in tally.phase_counters)
        total_ok = sum(c["successes"] for c in tally.phase_counters)
        all_hops = sum(row[2] for row in tally.query_bins.values())
        point_ok = sum(row[3] for row in tally.query_bins.values())
        bytes_query = sum(query_bytes.values())
        bytes_maint = sum(maint_bytes.values())
        bytes_update = sum(update_bytes.values())
        final = self._final_state()

        loads = self._load_by_peer(tally)
        load_mean = mean(loads) if loads else 0.0
        load_max = max(loads) if loads else 0
        load_cv = std(loads) / load_mean if load_mean > 0 else 0.0

        totals = {
            "queries": int(total_issued),
            "successes": int(total_ok),
            "success_rate": (total_ok / total_issued) if total_issued else None,
            "point_queries": int(sum(c["points"] for c in tally.phase_counters)),
            "range_queries": int(sum(c["ranges"] for c in tally.phase_counters)),
            "range_incomplete": tally.range_incomplete,
            # Hop means only aggregate successful point lookups: range
            # messages measure fan-out, not path length.
            "mean_hops": (all_hops / point_ok) if point_ok else None,
            "messages": tally.messages,
            "bytes_query": bytes_query,
            "bytes_maintenance": bytes_maint,
            "bytes_total": bytes_query + bytes_maint + bytes_update,
            "repairs": tally.repairs,
            "keys_moved": tally.keys_moved,
            "joins": tally.joins,
            "failed_joins": tally.failed_joins,
            "leaves": tally.leaves,
            "churn_transitions": tally.churn_transitions,
            "final_online": final["final_online"],
            "final_partition_availability": final["final_partition_availability"],
            "final_coverage": final["final_coverage"],
        }

        writes_section = None
        if writes_active:
            total_writes = sum(c["writes"] for c in tally.phase_counters)
            write_ok = sum(c["write_successes"] for c in tally.phase_counters)
            totals["writes"] = int(total_writes)
            totals["write_successes"] = int(write_ok)
            totals["write_success_rate"] = (
                (write_ok / total_writes) if total_writes else None
            )
            totals["bytes_update"] = bytes_update
            divergence = self._divergence_state()
            writes_section = {
                "writes": int(total_writes),
                "inserts": int(sum(c["inserts"] for c in tally.phase_counters)),
                "deletes": int(sum(c["deletes"] for c in tally.phase_counters)),
                "updates": int(sum(c["updates"] for c in tally.phase_counters)),
                "successes": int(write_ok),
                "success_rate": (write_ok / total_writes) if total_writes else None,
                "bytes_update": bytes_update,
                # Replica staleness at scenario end: how far the write
                # stream outran replica sync + anti-entropy (the paper's
                # replica-consistency story made measurable).
                "divergence": divergence,
            }

        recovery_section = None
        if self._recovery is not None:
            recovery_section = self._recovery_section()

        serving_section = None
        if self._cache is not None:
            serving_section = self._serving_section(loads)

        mdim_section = None
        if self._mdim is not None:
            mdim_section = self._mdim_section()

        return ScenarioReport(
            scenario=spec.name,
            seed=spec.seed,
            n_peers_start=spec.n_peers,
            n_peers_end=int(final["n_peers_end"]),
            duration_s=spec.duration_s,
            bin_s=bin_s,
            phases=phases,
            series=series,
            totals=totals,
            load={
                "mean": load_mean,
                "max": load_max,
                "cv": load_cv,
                "max_over_mean": (load_max / load_mean) if load_mean else 0.0,
            },
            message_level=self._message_section(),
            writes=writes_section,
            recovery=recovery_section,
            serving=serving_section,
            mdim=mdim_section,
        )

    def _phase_bytes(self, category: str, start: float, end: float) -> int:
        """Ledger bytes of one category inside a phase window, by the
        bin-window rule of :mod:`repro.scenarios.report`: a bin
        straddling a phase boundary counts toward the later phase, and
        the final phase also absorbs the tail (on the wire, replies
        still in flight at duration end), so the per-phase sums add up
        to the totals."""
        per_bin = self.stats.bytes_by_category.get(category, {})
        bin_s = self.spec.report_bin_s
        # Divide and nudge, not ``//``: a boundary that is a whole number
        # of bins can floor one short in floats (133.2 // 22.2 == 5.0, a
        # library scenario at duration_scale=0.37), which would hand a
        # whole bin to the wrong phase; the nudge is far below the
        # offset of any boundary that really falls inside a bin.
        lo = int(start / bin_s + 1e-9)
        hi = inf if end >= self.spec.duration_s else int(end / bin_s + 1e-9)
        return sum(size for b, size in per_bin.items() if lo <= b < hi)

    def _serving_section(self, loads: List[int]) -> dict:
        """The report's ``serving`` section (cache-carrying specs only).

        Emitted for ``enabled=False`` policies too: the counters are
        all zero then, but ``load_gini`` and ``latency_s`` measure the
        *same* quantities as the cache-on run, which is what makes the
        on/off pair an A/B comparison instead of two incomparable
        reports.  ``stale_read_rate`` is stale reads over *audited*
        hits -- every hit is audited synchronously at serve time, so
        the denominator equals ``cache_hits``.
        """
        policy = self._cache
        counters = self._serving_counters()
        hits = int(counters.get("result_hits", 0))
        misses = int(counters.get("result_misses", 0))
        lookups = hits + misses
        return {
            "enabled": policy.enabled,
            "policy": {
                "result_ttl_s": policy.result_ttl_s,
                "route_ttl_s": policy.route_ttl_s,
                # Constants, not policy fields; the keys stay so
                # reports and goldens keep their shape.
                "result_capacity": RESULT_CAPACITY,
                "route_capacity": ROUTE_CAPACITY,
                "adaptive_replication": True,
                "hot_threshold": policy.hot_threshold,
                "replica_boost": policy.replica_boost,
                "decay_interval_s": policy.decay_interval_s,
                "grant_ttl_s": policy.grant_ttl_s,
                "front_ends": policy.front_ends,
            },
            "cache_hits": hits,
            "cache_misses": misses,
            "cache_hit_rate": (hits / lookups) if lookups else 0.0,
            "audited_hits": self._audited_hits,
            "stale_reads": self._stale_reads,
            "stale_read_rate": (
                (self._stale_reads / self._audited_hits) if self._audited_hits else 0.0
            ),
            "dedup_joined": int(counters.get("dedup_joined", 0)),
            "invalidations": int(counters.get("invalidations", 0)),
            "route_uses": int(counters.get("route_uses", 0)),
            "route_invalidations": int(counters.get("route_invalidations", 0)),
            "grants": int(counters.get("grants", 0)),
            "revokes": int(counters.get("revokes", 0)),
            "grant_hits": int(counters.get("grant_hits", 0)),
            "helpers_final": int(counters.get("helpers_final", 0)),
            "load_gini": gini(loads),
            "latency_s": self._serving_latency(),
        }

    def _recovery_section(self) -> dict:
        """The report's ``recovery`` section (restart scenarios only).

        ``time_to_converged_divergence_s`` measures from the *last*
        restart return to the first per-bin divergence sample back
        within :data:`CONVERGENCE_SLACK` of the pre-shutdown baseline;
        a run that never re-converges reports the remaining scenario
        time as a penalty with ``converged: false``.
        ``recovery_maint_bytes`` is the maintenance-category traffic
        spent between the first shutdown and that convergence instant --
        the repair bill warm rejoin is supposed to shrink.
        """
        spec = self.spec
        rec = self._recovery
        out = {
            "schema": STATE_SCHEMA,
            "durability_enabled": self._durability.enabled,
            "snapshot_interval_s": SNAPSHOT_INTERVAL_S,
            "restarts": rec["restarts"],
            "clean_shutdowns": rec["clean"],
            "crashes": rec["crashes"],
            "warm_rejoins": rec["warm"],
            "cold_rejoins": rec["cold"],
            "skipped": rec["skipped"],
            "checkpoints": self._state_store.checkpoints,
        }
        first = rec["first_shutdown"]
        last = rec["last_return"]
        out["first_shutdown_min"] = None if first is None else first / 60.0
        out["last_return_min"] = None if last is None else last / 60.0
        baseline = rec["baseline"] if rec["baseline"] is not None else 0.0
        samples = rec["div_samples"]
        out["divergence_baseline"] = baseline
        out["divergence_final"] = samples[-1][1] if samples else None
        converged_t = None
        if last is not None:
            for t, div in samples:
                if t >= last and div <= baseline + CONVERGENCE_SLACK:
                    converged_t = t
                    break
        out["converged"] = converged_t is not None
        if last is None:
            out["time_to_converged_divergence_s"] = None
            out["recovery_maint_bytes"] = 0
        else:
            end_t = converged_t if converged_t is not None else spec.duration_s
            out["time_to_converged_divergence_s"] = end_t - last
            b0, b1 = int(first // spec.report_bin_s), int(end_t // spec.report_bin_s)
            maint_bytes = self.stats.bytes_by_category.get(MAINTENANCE, {})
            out["recovery_maint_bytes"] = sum(
                maint_bytes.get(b, 0) for b in range(b0, b1 + 1)
            )
        lost, resurrected, tracked = self._write_fate()
        out["acked_writes_tracked"] = tracked
        out["lost_acked_writes"] = lost
        out["tombstone_resurrections"] = resurrected
        return out

    def _write_fate(self) -> Tuple[int, int, int]:
        """``(lost_acked_writes, tombstone_resurrections, tracked)``.

        A *lost acked write* is a key whose last issued mutation was an
        acknowledged insert/update yet the key exists on no peer (keys
        and outboxes included); a *tombstone resurrection* is a key
        whose last issued mutation was an acknowledged delete yet the
        key is present somewhere with no live death certificate left
        anywhere to kill it.  Keys whose last mutation was never acked
        are in limbo by definition and not audited.
        """
        if not self._last_write:
            return 0, 0, 0
        present, live_tombstones = self._durable_key_view()
        lost = resurrected = tracked = 0
        for key, (op, acked) in self._last_write.items():
            if not acked:
                continue
            tracked += 1
            if op == "insert":
                if key not in present:
                    lost += 1
            elif key in present and key not in live_tombstones:
                resurrected += 1
        return lost, resurrected, tracked
