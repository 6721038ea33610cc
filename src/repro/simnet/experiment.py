"""The full Sec. 5 experiment: join, replicate, construct, query, churn.

Reproduces the paper's PlanetLab timeline on the simulated network:

===============  ==========================  ==========================
phase            paper schedule              driver default (minutes)
===============  ==========================  ==========================
join             t .. t+100 min              0 .. 100
replicate        t+75 .. t+100 min           75 .. 100
construct        t+100 .. t+300 min          100 .. 300
query            t+300 .. t+475 min          300 .. 475
churn (+query)   t+475 .. t+525 min          475 .. 525
===============  ==========================  ==========================

The driver collects exactly the series of Figs. 7/8/9 plus the Sec. 5.2
summary statistics (load-balance deviation vs. the Algorithm-1 reference,
mean path length, query hops, replication factor, success rates).

This module is the *message-level* stress driver: every byte crosses the
simulated wire.  For declarative, data-plane-level stress experiments
(churn regimes, flash crowds, mass joins/leaves, query mixes at
N=4096), use the scenario engine instead --
:mod:`repro.scenarios` compiles :class:`~repro.scenarios.spec.ScenarioSpec`
phases onto the same :class:`~repro.simnet.engine.Simulator` and shares
this module's churn orchestration (:func:`repro.simnet.churn.start_churn`).

**Frozen.**  This driver is the reproduction of the paper's Figs. 7-9 and
nothing else: it is outside the perf and coverage budget, new workloads
go to the scenario engine, and it is configured by what the paper varies
-- population, timeline, ``n_min`` / ``d_max`` and the seed.  The
workload (ten ``"A"``-distributed keys per peer, a query every one to two
minutes) and the wire (1% loss, 120 ms median latency) are the module
constants below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .._util import SEED, ensure_monotonic, is_count, make_rng, mean
from ..core.constants import DEFAULT_KEYS_PER_PEER
from ..core.deviation import load_balance_deviation
from ..core.reference import reference_partition
from ..exceptions import SimulationError
from ..workloads.datasets import workload_keys
from . import protocol as P
from .churn import ChurnConfig, ChurnProcess, start_churn
from .engine import Simulator
from .node import NodeConfig, PGridNode
from .stats import StatsCollector
from .topology import UnstructuredOverlay
from .transport import LogNormalLatency, Network

__all__ = ["ExperimentConfig", "ExperimentReport", "run_experiment"]

_MIN = 60.0  # seconds per simulated minute
#: Key distribution of the Sec. 5 workload.
DISTRIBUTION = "A"
#: Minutes between one peer's queries (uniform in the interval).
QUERY_INTERVAL = (1.0, 2.0)
#: Uniform message loss and PlanetLab-ish median latency (seconds).
LOSS_RATE = 0.01
LATENCY_MEDIAN = 0.12


@dataclass
class ExperimentConfig:
    """Knobs of the full-system experiment (times in minutes)."""

    peers: int = 296
    n_min: int = 5
    d_max: Optional[float] = None  # default: 10 * n_min (figure captions)
    join_end: float = 75.0
    replicate_start: float = 75.0
    construct_start: float = 100.0
    query_start: float = 300.0
    churn_start: float = 475.0
    end: float = 525.0
    seed: int = SEED

    def resolved_d_max(self) -> float:
        return self.d_max if self.d_max is not None else 10.0 * self.n_min

    @classmethod
    def compressed(cls, peers: int = 80, seed: int = 23, **overrides) -> "ExperimentConfig":
        """The CI-scale five-phase timeline (~5x compressed minutes).

        The canonical smoke configuration shared by the quick sizes of
        the Figs. 7-9 claims (``benchmarks/paper_claims.py``) and the
        example tests: same phase structure, 110 simulated minutes
        instead of 525.
        """
        params = dict(
            peers=peers,
            join_end=10.0,
            replicate_start=10.0,
            construct_start=20.0,
            query_start=60.0,
            churn_start=90.0,
            end=110.0,
            seed=seed,
        )
        params.update(overrides)
        return cls(**params)

    def validate(self) -> None:
        if not is_count(self.peers, 10):
            raise SimulationError(f"experiment needs an int >= 10 peers, got {self.peers!r}")
        if not is_count(self.n_min, 1):
            raise SimulationError(f"n_min must be an int >= 1, got {self.n_min!r}")
        if not 0.0 < self.resolved_d_max() < math.inf:
            raise SimulationError(f"d_max must be finite and positive, got {self.d_max!r}")
        if not self.end < math.inf:
            raise SimulationError(f"the timeline must end, got end={self.end!r}")
        ensure_monotonic(
            [
                0.0,
                self.join_end,
                self.replicate_start,
                self.construct_start,
                self.query_start,
                self.churn_start,
                self.end,
            ],
            what="phases",
        )


@dataclass
class ExperimentReport:
    """Everything the Sec. 5 evaluation reports."""

    config: ExperimentConfig
    population: List[Tuple[float, int]]  # Fig. 7
    maintenance_bandwidth: List[Tuple[float, float]]  # Fig. 8 (Bps)
    query_bandwidth: List[Tuple[float, float]]  # Fig. 8 (Bps)
    latency: List[Tuple[float, float, float]]  # Fig. 9 (min, avg, std)
    deviation: float  # Sec. 5.2: 0.39 on PlanetLab
    mean_path_length: float  # ~6
    mean_query_hops: float  # ~3
    replication_factor: float  # ~5
    success_rate_static: float  # before churn
    success_rate_churn: float  # 95-100% during churn
    messages_sent: int
    messages_dropped: int
    peak_construction_bandwidth_per_peer: float  # ~250 Bps in the paper

    def summary_rows(self) -> List[Tuple[str, float]]:
        """The in-text statistics as printable rows."""
        return [
            ("load-balance deviation", self.deviation),
            ("mean path length", self.mean_path_length),
            ("mean query hops", self.mean_query_hops),
            ("replication factor", self.replication_factor),
            ("query success (static)", self.success_rate_static),
            ("query success (churn)", self.success_rate_churn),
            ("peak construction Bps/peer", self.peak_construction_bandwidth_per_peer),
        ]


def run_experiment(config: Optional[ExperimentConfig] = None) -> ExperimentReport:
    """Run the five-phase experiment and return the report."""
    config = config or ExperimentConfig()
    config.validate()
    rand = make_rng(config.seed)
    sim = Simulator()
    stats = StatsCollector(bin_seconds=_MIN)
    network = Network(
        sim,
        latency=LogNormalLatency(median=LATENCY_MEDIAN),
        loss_rate=LOSS_RATE,
        rng=rand,
        stats=stats,
    )
    overlay = UnstructuredOverlay()
    node_config = NodeConfig(n_min=config.n_min, d_max=config.resolved_d_max())

    peer_keys = workload_keys(
        DISTRIBUTION, config.peers, DEFAULT_KEYS_PER_PEER, seed=rand
    )
    nodes: Dict[int, PGridNode] = {}
    for i in range(config.peers):
        node = PGridNode(
            i, sim, network, config=node_config, rng=make_rng(rand.randrange(2**31))
        )
        node.original_keys = set(peer_keys[i])
        node.keys = set(peer_keys[i])
        nodes[i] = node

    # -- phase 1: staggered joins via the bootstrap node -------------------
    overlay.join(0, rng=rand)
    nodes[0].overlay = overlay
    nodes[0].joined = True
    def make_join(node):
        def do_join():
            if node.joined:
                return
            node.send(0, P.JOIN, {"overlay": overlay})
            sim.schedule(45.0, do_join)  # retry until the join sticks

        return do_join

    for i in range(1, config.peers):
        join_at = rand.uniform(0.0, config.join_end * _MIN)
        sim.schedule(join_at, make_join(nodes[i]))

    # -- phase 2: replication (after every peer has joined) -----------------
    copies = max(config.n_min - 1, 0)
    rep_lo = max(config.replicate_start, config.join_end) * _MIN + 30.0
    rep_hi = max(config.construct_start * _MIN - 30.0, rep_lo + 1.0)
    for node in nodes.values():
        at = rand.uniform(rep_lo, rep_hi)

        def do_replicate(node=node):
            node.replicate_keys(copies)

        sim.schedule(at, do_replicate)

    # -- phase 3: construction ---------------------------------------------------
    for node in nodes.values():
        at = config.construct_start * _MIN + rand.uniform(0.0, 60.0)
        sim.schedule(at, node.start_constructing)

    def stop_constructing():
        for node in nodes.values():
            node.constructing = False

    sim.schedule(config.query_start * _MIN, stop_constructing)

    # -- phase 4: queries -----------------------------------------------------------
    lo_q, hi_q = QUERY_INTERVAL

    def schedule_query(node: PGridNode):
        delay = rand.uniform(lo_q * _MIN, hi_q * _MIN)

        def fire():
            if sim.now >= config.end * _MIN:
                return
            if node.online and node.original_keys:
                keys = list(node.original_keys)
                node.issue_query(keys[rand.randrange(len(keys))])
            schedule_query(node)

        sim.schedule(delay, fire)

    def start_queries():
        for node in nodes.values():
            schedule_query(node)

    sim.schedule(config.query_start * _MIN, start_queries)

    # -- phase 5: churn (shared orchestration with the scenario engine) ----
    churners: List[ChurnProcess] = []

    def begin_churn():
        churners.extend(
            start_churn(
                sim,
                [node.set_online for node in nodes.values()],
                config=ChurnConfig(),
                until=config.end * _MIN,
                rng=rand,
            )
        )

    sim.schedule(config.churn_start * _MIN, begin_churn)

    # -- population sampling -----------------------------------------------------------

    def sample_population():
        # A peer "participates" once it has joined the overlay and is online.
        count = sum(1 for node in nodes.values() if node.joined and node.online)
        stats.record_population(sim.now, count)
        if sim.now < config.end * _MIN:
            sim.schedule(_MIN, sample_population)

    sim.schedule(0.0, sample_population)

    # -- run --------------------------------------------------------------------------------
    sim.run_until(config.end * _MIN, max_events=50_000_000)

    # -- harvest query stats into the collector -----------------------------------------------
    for node in nodes.values():
        for out in node.query_results:
            stats.record_query(out.issued_at, out.latency, out.hops, out.success)

    # -- final structural measurements ----------------------------------------------------------
    all_keys = sorted({k for keys in peer_keys for k in keys})
    reference = reference_partition(
        all_keys, config.peers, d_max=config.resolved_d_max(), n_min=config.n_min
    )
    paths = [node.path for node in nodes.values()]
    deviation = load_balance_deviation(paths, reference)
    by_path: Dict[str, int] = {}
    for node in nodes.values():
        by_path[str(node.path)] = by_path.get(str(node.path), 0) + 1
    replication = len(nodes) / max(len(by_path), 1)

    churn_start_s = config.churn_start * _MIN
    peak_bps = stats.peak_bandwidth(P.MAINTENANCE)

    return ExperimentReport(
        config=config,
        population=stats.population_series(),
        maintenance_bandwidth=stats.bandwidth_series(P.MAINTENANCE),
        query_bandwidth=stats.bandwidth_series(P.QUERY_TRAFFIC),
        latency=stats.latency_series(),
        deviation=deviation,
        mean_path_length=mean([p.length for p in paths]),
        mean_query_hops=stats.mean_hops(),
        replication_factor=replication,
        success_rate_static=stats.success_rate(0.0, churn_start_s),
        success_rate_churn=stats.success_rate(churn_start_s, config.end * _MIN),
        messages_sent=network.messages_sent,
        messages_dropped=network.messages_dropped,
        peak_construction_bandwidth_per_peer=peak_bps / config.peers,
    )
