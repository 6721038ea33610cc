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
repetitions; our default is ``REPRO_REPS`` (2) repetitions to keep bench
time in minutes -- the variance across repetitions is small (the paper's
own Fig. 6(a) error discussion).  Runs are cached per configuration so
panels (a)/(e)/(f) share work.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

from .._util import env_reps, env_seed, mean, scaled, std
from ..core.construction import ConstructionConfig, construct_overlay
from ..core.deviation import load_balance_deviation
from ..core.reference import reference_partition
from ..workloads.datasets import flatten, workload_keys

__all__ = [
    "DISTRIBUTION_LABELS",
    "SweepPoint",
    "construction_point",
    "panel_a",
    "panel_b",
    "panel_c",
    "panel_d",
    "panel_e",
    "panel_f",
]

#: Paper order of the evaluated distributions.
DISTRIBUTION_LABELS = ["U", "P0.5", "P1.0", "P1.5", "N", "A"]

#: Default populations of panel (a).
POPULATIONS = [256, 512, 1024]


@dataclass(frozen=True)
class SweepPoint:
    """Averaged measurements for one configuration."""

    label: str
    n: int
    n_min: int
    d_max_factor: float
    strategy: str
    deviation: float
    deviation_std: float
    interactions_per_peer: float
    bandwidth_per_peer: float
    mean_path: float
    replication: float


@lru_cache(maxsize=None)
def construction_point(
    label: str,
    n: int,
    n_min: int = 5,
    d_max_factor: float = 10.0,
    strategy: str = "theory",
    reps: int | None = None,
) -> SweepPoint:
    """Run (and cache) ``reps`` constructions for one configuration."""
    reps = reps if reps is not None else env_reps(2)
    seed = env_seed()
    n = scaled(n, minimum=8 * n_min)
    d_max = d_max_factor * n_min
    devs: List[float] = []
    inter: List[float] = []
    bw: List[float] = []
    paths: List[float] = []
    repl: List[float] = []
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
        paths.append(result.mean_path_length())
        repl.append(result.replication_factor())
    return SweepPoint(
        label=label,
        n=n,
        n_min=n_min,
        d_max_factor=d_max_factor,
        strategy=strategy,
        deviation=mean(devs),
        deviation_std=std(devs),
        interactions_per_peer=mean(inter),
        bandwidth_per_peer=mean(bw),
        mean_path=mean(paths),
        replication=mean(repl),
    )


def panel_a(populations: Tuple[int, ...] = (256, 512, 1024)):
    """Fig. 6(a): rows (distribution, dev@n1, dev@n2, dev@n3)."""
    rows = []
    for label in DISTRIBUTION_LABELS:
        rows.append(
            (label, *(construction_point(label, n).deviation for n in populations))
        )
    return rows


def panel_b(n: int = 256, n_mins: Tuple[int, ...] = (5, 10, 15, 20, 25)):
    """Fig. 6(b): rows (distribution, dev@n_min...)."""
    rows = []
    for label in DISTRIBUTION_LABELS:
        rows.append(
            (
                label,
                *(
                    construction_point(label, n, n_min=n_min).deviation
                    for n_min in n_mins
                ),
            )
        )
    return rows


def panel_c(n: int = 256, factors: Tuple[float, ...] = (10.0, 20.0, 30.0)):
    """Fig. 6(c): rows (distribution, dev@d_max-factor...)."""
    rows = []
    for label in DISTRIBUTION_LABELS:
        rows.append(
            (
                label,
                *(
                    construction_point(label, n, d_max_factor=f).deviation
                    for f in factors
                ),
            )
        )
    return rows


def panel_d(n: int = 256, n_mins: Tuple[int, ...] = (5, 10)):
    """Fig. 6(d): rows (distribution-n_min, theory, heuristic)."""
    rows = []
    for label in DISTRIBUTION_LABELS:
        for n_min in n_mins:
            theory = construction_point(label, n, n_min=n_min).deviation
            heur = construction_point(
                label, n, n_min=n_min, strategy="heuristic"
            ).deviation
            rows.append((f"{label}-{n_min}", theory, heur))
    return rows


def panel_e(populations: Tuple[int, ...] = (256, 512, 1024)):
    """Fig. 6(e): rows (distribution, interactions/peer at each n)."""
    rows = []
    for label in DISTRIBUTION_LABELS:
        rows.append(
            (
                label,
                *(
                    construction_point(label, n).interactions_per_peer
                    for n in populations
                ),
            )
        )
    return rows


def panel_f(populations: Tuple[int, ...] = (256, 512, 1024)):
    """Fig. 6(f): rows (distribution, keys moved/peer at each n)."""
    rows = []
    for label in DISTRIBUTION_LABELS:
        rows.append(
            (
                label,
                *(
                    construction_point(label, n).bandwidth_per_peer
                    for n in populations
                ),
            )
        )
    return rows
