"""repro -- reproduction of *Indexing Data-oriented Overlay Networks*
(Aberer, Datta, Hauswirth, Schmidt; VLDB 2005).

The package implements, from scratch:

* the paper's contribution -- decentralized, parallel, load-balanced
  construction of trie-structured (P-Grid) overlay networks
  (:mod:`repro.core`);
* the P-Grid overlay substrate with prefix routing, exact and range
  queries, replication and sequential maintenance (:mod:`repro.pgrid`);
* a discrete-event message-level network simulator standing in for the
  paper's PlanetLab deployment (:mod:`repro.simnet`);
* the evaluation workloads, baselines and per-figure experiment
  harnesses (:mod:`repro.workloads`, :mod:`repro.baselines`,
  :mod:`repro.experiments`);
* a declarative scenario engine for churn/skew stress experiments
  (:mod:`repro.scenarios`).

Quickstart::

    from repro import build_overlay, uniform_keys
    net = build_overlay(uniform_keys(peers=64, keys_per_peer=10, seed=7))
    hits = net.range_query(0.25, 0.5)

Stress scenarios::

    from repro import ScenarioRunner, scenario
    report = ScenarioRunner(scenario("paper-sec51-churn", n_peers=256)).run()
"""

from __future__ import annotations

from .core.bisection import BisectionOutcome, simulate_aep, simulate_aut
from .core.construction import (
    ConstructionConfig,
    ConstructionResult,
    construct_overlay,
)
from .core.deviation import load_balance_deviation
from .core.mva import run_mva, run_sam
from .core.probabilities import (
    P_STAR,
    alpha_corrected,
    alpha_of_p,
    beta_corrected,
    beta_of_p,
    decision_probabilities,
    t_star,
    t_star_interactions,
)
from .core.reference import ReferencePartition, reference_partition
from .pgrid.bits import Path
from .pgrid.network import PGridNetwork, build_overlay
from .scenarios import ScenarioRunner, ScenarioSpec, scenario
from .workloads.datasets import uniform_keys, workload_keys

__version__ = "1.0.0"

__all__ = [
    "P_STAR",
    "alpha_of_p",
    "beta_of_p",
    "alpha_corrected",
    "beta_corrected",
    "decision_probabilities",
    "t_star",
    "t_star_interactions",
    "run_mva",
    "run_sam",
    "simulate_aep",
    "simulate_aut",
    "BisectionOutcome",
    "reference_partition",
    "ReferencePartition",
    "load_balance_deviation",
    "ConstructionConfig",
    "ConstructionResult",
    "construct_overlay",
    "Path",
    "PGridNetwork",
    "build_overlay",
    "ScenarioSpec",
    "ScenarioRunner",
    "scenario",
    "uniform_keys",
    "workload_keys",
    "__version__",
]
