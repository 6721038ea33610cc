"""Figures 4 and 5: accuracy and cost of the five partitioning models.

Reproduces Sec. 3.3's numerical simulation: ``N = 1000`` peers, sample
size ``m = 10``, the load fraction swept over ``p in {0.05 .. 0.5}``, and
(by default a reduced number of) repetitions of each of

* MVA -- mean-value model, exact ``p``;
* SAM -- mean-value model, sampled ``p``;
* AEP -- discrete simulation, sampled ``p``;
* COR -- discrete simulation, corrected probabilities;
* AUT -- discrete autonomous partitioning.

Figure 4 reports the mean of ``n0(t*) - N p`` (the systematic deviation
sampling introduces, which COR removes); Figure 5 the mean total number
of interactions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List

from .._util import env_reps, env_seed, mean, scaled
from ..core.bisection import simulate_aep, simulate_aut
from ..core.mva import run_mva, run_sam

__all__ = ["ModelSweep", "run_sweep", "P_GRID", "MODELS"]

#: The p values swept in Figs. 4/5.
P_GRID = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5]

#: Model names in paper order.
MODELS = ["MVA", "SAM", "AEP", "COR", "AUT"]


@dataclass
class ModelSweep:
    """Results of the five-model sweep."""

    n: int
    m: int
    reps: int
    deviation: Dict[str, List[float]]  # Fig. 4 series, per model
    interactions: Dict[str, List[float]]  # Fig. 5 series, per model

    def fig4_rows(self):
        """Rows (p, MVA, SAM, AEP, COR, AUT) of mean deviation."""
        for i, p in enumerate(P_GRID):
            yield (p, *(self.deviation[m][i] for m in MODELS))

    def fig5_rows(self):
        """Rows (p, MVA, SAM, AEP, COR, AUT) of mean interactions."""
        for i, p in enumerate(P_GRID):
            yield (p, *(self.interactions[m][i] for m in MODELS))


@lru_cache(maxsize=4)
def run_sweep(
    *, n: int = 1000, m: int = 10, reps: int | None = None, seed: int | None = None
) -> ModelSweep:
    """Run the Sec. 3.3 numerical simulation.

    ``reps`` defaults to 30 (paper: 100); override with ``REPRO_REPS``.
    """
    n = scaled(n, minimum=100)
    reps = reps if reps is not None else env_reps(30)
    seed = seed if seed is not None else env_seed()
    deviation: Dict[str, List[float]] = {name: [] for name in MODELS}
    interactions: Dict[str, List[float]] = {name: [] for name in MODELS}

    for p in P_GRID:
        mva_traj = run_mva(n, p)
        deviation["MVA"].append(mva_traj.deviation)
        interactions["MVA"].append(mva_traj.interactions)

        sam_runs = [run_sam(n, p, m=m, rng=seed + 1000 + r) for r in range(reps)]
        deviation["SAM"].append(mean(t.deviation for t in sam_runs))
        interactions["SAM"].append(mean(t.interactions for t in sam_runs))

        aep_runs = [simulate_aep(n, p, m=m, rng=seed + 2000 + r) for r in range(reps)]
        deviation["AEP"].append(mean(o.deviation for o in aep_runs))
        interactions["AEP"].append(mean(o.interactions for o in aep_runs))

        cor_runs = [
            simulate_aep(n, p, m=m, corrected=True, rng=seed + 3000 + r)
            for r in range(reps)
        ]
        deviation["COR"].append(mean(o.deviation for o in cor_runs))
        interactions["COR"].append(mean(o.interactions for o in cor_runs))

        aut_runs = [simulate_aut(n, p, m=m, rng=seed + 4000 + r) for r in range(reps)]
        deviation["AUT"].append(mean(o.deviation for o in aut_runs))
        interactions["AUT"].append(mean(o.interactions for o in aut_runs))

    return ModelSweep(
        n=n, m=m, reps=reps, deviation=deviation, interactions=interactions
    )
