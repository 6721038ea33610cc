"""Design-choice ablations beyond the paper's own figures.

* ``correction_ablation`` -- how the Eq. (9)/(10) bias corrections and
  the sample size ``m`` interact (extends Fig. 4's m = 10 snapshot; the
  paper notes "even very small samples lead to the same results" for
  load balance, while the *systematic shift* does depend on m);
* ``replication_floor_ablation`` -- the ``n_min`` floor of Algorithm 1
  inside the decentralized split policy (the "decentralized analogue of
  lines 6-10" in :func:`repro.core.fig2.split_probabilities`): with the
  floor disabled, highly skewed splits starve one side of replicas.
"""

from __future__ import annotations

from typing import List, Tuple

from .._util import mean, std
from ..core.bisection import simulate_aep
from ..core.construction import ConstructionConfig, construct_overlay
from ..core.deviation import load_balance_deviation
from ..core.reference import reference_partition
from ..workloads.datasets import flatten, workload_keys

__all__ = ["correction_ablation", "replication_floor_ablation"]


def correction_ablation(
    *,
    n: int,
    reps: int,
    seed: int,
    p: float = 0.4,
    sample_sizes: Tuple[int, ...] = (1, 2, 5, 10, 25, 50),
) -> List[Tuple[int, float, float, float, float]]:
    """Rows: (m, AEP bias, AEP std, COR bias, COR std)."""
    rows = []
    for m in sample_sizes:
        plain = [
            simulate_aep(n, p, m=m, rng=seed + 10 * m + r).deviation
            for r in range(reps)
        ]
        corr = [
            simulate_aep(n, p, m=m, corrected=True, rng=seed + 10 * m + r).deviation
            for r in range(reps)
        ]
        rows.append((m, mean(plain), std(plain), mean(corr), std(corr)))
    return rows


def replication_floor_ablation(
    *, n: int, reps: int, seed: int, label: str = "P1.0"
) -> List[Tuple[str, float, float]]:
    """Rows: (variant, deviation, min replicas across populated leaves).

    Variants: the full split policy vs. one with very aggressive target
    fractions (tiny sample floor), approximating "no n_min floor".
    """
    rows = []
    for name, strategy in (("theory", "theory"), ("uncorrected", "uncorrected")):
        devs = []
        min_repl = []
        for r in range(reps):
            peer_keys = workload_keys(label, n, 10, seed=seed + r)
            reference = reference_partition(
                sorted(set(flatten(peer_keys))), n, d_max=50, n_min=5
            )
            result = construct_overlay(
                peer_keys,
                ConstructionConfig(n_min=5, d_max=50, strategy=strategy),
                rng=seed + 100 + r,
            )
            devs.append(load_balance_deviation(result.paths, reference))
            by_path = {}
            for peer in result.peers:
                by_path[peer.path] = by_path.get(peer.path, 0) + 1
            min_repl.append(min(by_path.values()))
        rows.append((name, mean(devs), mean(min_repl)))
    return rows
