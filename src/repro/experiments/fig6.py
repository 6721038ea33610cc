"""Figure 6: load balancing and cost of the full construction (Sec. 4.4).

Six panels over the six key distributions (U, P0.5, P1.0, P1.5, N, A):

(a) deviation vs population size ``n in {256, 512, 1024}``;
(b) deviation vs replication target ``n_min in {5, 10, 15, 20, 25}``;
(c) deviation vs storage bound ("sample size") ``d_max in {10,20,30} n_min``;
(d) theoretically derived probability functions vs the straw-man
    heuristics;
(e) bilateral interactions per peer (same runs as panel a);
(f) data keys moved per peer (same runs as panel a).

Paper defaults: ``n_min = 5``, ``d_max = 10 n_min``, 10 keys/peer and 10
repetitions; ``benchmarks/paper_claims.py`` runs 2 to keep the sweep
near a minute -- the variance across repetitions is small (the paper's
own Fig. 6(a) error discussion).  :func:`figure6` runs every panel in
one call, each distinct configuration once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .._util import mean
from ..core.construction import ConstructionConfig, construct_overlay
from ..core.deviation import load_balance_deviation
from ..core.reference import reference_partition
from ..workloads.datasets import flatten, workload_keys

__all__ = [
    "DISTRIBUTION_LABELS",
    "Figure6",
    "SweepPoint",
    "construction_point",
    "figure6",
]

#: Paper order of the evaluated distributions.
DISTRIBUTION_LABELS = ["U", "P0.5", "P1.0", "P1.5", "N", "A"]


@dataclass(frozen=True)
class SweepPoint:
    """Measurements of one configuration, averaged over the repetitions."""

    deviation: float
    interactions_per_peer: float
    bandwidth_per_peer: float


def construction_point(
    label: str,
    n: int,
    n_min: int,
    d_max_factor: float,
    strategy: str,
    *,
    reps: int,
    seed: int,
) -> SweepPoint:
    """Run ``reps`` constructions for one configuration."""
    d_max = d_max_factor * n_min
    devs: List[float] = []
    inter: List[float] = []
    bw: List[float] = []
    for r in range(reps):
        peer_keys = workload_keys(label, n, 10, seed=seed + 17 * r)
        reference = reference_partition(
            sorted(set(flatten(peer_keys))), n, d_max=d_max, n_min=n_min
        )
        result = construct_overlay(
            peer_keys,
            ConstructionConfig(n_min=n_min, d_max=d_max, strategy=strategy),
            rng=seed + 1000 + r,
        )
        devs.append(load_balance_deviation(result.paths, reference))
        inter.append(result.bilateral_interactions_per_peer)
        bw.append(result.bandwidth_keys_per_peer)
    return SweepPoint(
        deviation=mean(devs),
        interactions_per_peer=mean(inter),
        bandwidth_per_peer=mean(bw),
    )


@dataclass
class Figure6:
    """The six panels; each series is per distribution label."""

    by_population: Dict[str, List[SweepPoint]]  # (a), (e), (f)
    by_n_min: Dict[str, List[SweepPoint]]  # (b), at population n
    by_d_max: Dict[str, List[SweepPoint]]  # (c), at population n
    theory_vs_heuristic: List[Tuple[str, float, float]]  # (d): label-n_min rows


def figure6(
    *,
    populations: Tuple[int, ...],
    n: int,
    n_mins: Tuple[int, ...],
    factors: Tuple[float, ...],
    reps: int,
    seed: int,
) -> Figure6:
    """All six panels: (a)/(e)/(f) over ``populations``, (b)-(d) at ``n``.

    A configuration two panels share (``n_min = 5``, ``d_max = 10 n_min``
    at population ``n`` is in (a)-(d)) runs once.
    """
    points: Dict[tuple, SweepPoint] = {}

    def point(label, size, n_min=5, d_max_factor=10.0, strategy="theory"):
        key = (label, size, n_min, d_max_factor, strategy)
        if key not in points:
            points[key] = construction_point(*key, reps=reps, seed=seed)
        return points[key]

    labels = DISTRIBUTION_LABELS
    return Figure6(
        by_population={lb: [point(lb, size) for size in populations] for lb in labels},
        by_n_min={lb: [point(lb, n, n_min=m) for m in n_mins] for lb in labels},
        by_d_max={lb: [point(lb, n, d_max_factor=f) for f in factors] for lb in labels},
        theory_vs_heuristic=[
            (
                f"{lb}-{m}",
                point(lb, n, n_min=m).deviation,
                point(lb, n, n_min=m, strategy="heuristic").deviation,
            )
            for lb in labels
            for m in (5, 10)
        ],
    )
