"""Mean-value analysis of the AEP interaction process (Secs. 3.1, 3.3).

The partitioning of ``N`` peers is modeled as a sequential Markov chain:
in each step one undecided peer contacts a uniformly random peer and the
AEP rules fire.  Taking expectations step-wise gives the *mean-value
model* whose state is ``(x, y, u)`` -- the expected numbers of peers
decided for ``0``, decided for ``1`` and undecided:

```
dx = alpha u / N + beta y / N
dy = alpha u / N + x / N + (1 - beta) y / N
du = -(2 alpha u + x + y) / N
```

Two variants are exposed, matching the paper's simulation models:

* :func:`run_mva` -- the deterministic recursion with the exact ``p``
  (model **MVA**);
* :func:`run_sam` -- the same recursion but each step uses decision
  probabilities derived from a *sampled* estimate of ``p`` (``m``
  Bernoulli samples), reproducing the systematic sampling bias that the
  corrected probabilities (model **COR**) remove (model **SAM**).

Both run until no undecided mass remains, allowing a fractional final
step exactly as the paper's analysis does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from .._util import RngLike, check_probability, make_rng
from ..exceptions import DomainError
from .probabilities import (
    DecisionProbabilities,
    decision_probabilities,
    heuristic_probabilities,
)

__all__ = ["MeanValueTrajectory", "run_mva", "run_sam", "closed_form_undecided"]

#: Hard cap on steps, as a multiple of N, to guarantee termination even for
#: pathological probability choices (alpha ~ 0 with no decided peers).
_MAX_STEPS_FACTOR = 200.0


@dataclass
class MeanValueTrajectory:
    """Result of integrating the mean-value recursion.

    ``x``/``y`` are the final expected peer counts for partitions 0 / 1,
    ``interactions`` the (fractional) termination step ``t*``, and the
    optional per-step histories support plotting and tests.
    """

    n: int
    p: float
    x: float
    y: float
    interactions: float
    history_x: List[float] = field(default_factory=list)
    history_y: List[float] = field(default_factory=list)
    history_u: List[float] = field(default_factory=list)

    @property
    def achieved_fraction(self) -> float:
        """Fraction of peers that decided for partition 0."""
        return self.x / self.n

    @property
    def deviation(self) -> float:
        """Signed deviation of the partition-0 count from the target ``N p``."""
        return self.x - self.n * self.p


def _step(
    x: float,
    y: float,
    u: float,
    n: int,
    probs: DecisionProbabilities,
    fraction: float = 1.0,
    mirrored: bool = False,
) -> tuple[float, float, float]:
    """One (possibly fractional) mean-value step of the AEP chain.

    ``mirrored`` models an initiator whose estimate names side 1 as the
    minority (estimates above 1/2): rules 3/4 swap the roles of the two
    sides while the balanced-split term stays symmetric.
    """
    alpha, beta = probs.alpha, probs.beta
    if not mirrored:
        dx = (alpha * u + beta * y) / n
        dy = (alpha * u + x + (1.0 - beta) * y) / n
    else:
        dx = (alpha * u + (1.0 - beta) * x + y) / n
        dy = (alpha * u + beta * x) / n
    du = -(2.0 * alpha * u + x + y) / n
    return x + fraction * dx, y + fraction * dy, u + fraction * du


def _integrate(
    n: int,
    p: float,
    probs_for_step,
    keep_history: bool,
) -> MeanValueTrajectory:
    x, y, u = 0.0, 0.0, float(n)
    t = 0.0
    hx: List[float] = []
    hy: List[float] = []
    hu: List[float] = []
    max_steps = _MAX_STEPS_FACTOR * n
    while u > 1e-12:
        if t > max_steps:
            raise DomainError(
                f"mean-value model failed to terminate within {max_steps:.0f} steps "
                f"(p={p}, n={n}); decision probabilities too small?"
            )
        probs, mirrored = probs_for_step()
        x1, y1, u1 = _step(x, y, u, n, probs, mirrored=mirrored)
        if u1 < 0.0:
            # Fractional final step: scale so u lands exactly on zero,
            # mirroring the paper's "we allow fractional steps".
            fraction = u / (u - u1)
            x, y, u = _step(x, y, u, n, probs, fraction, mirrored=mirrored)
            t += fraction
            u = 0.0
        else:
            x, y, u = x1, y1, u1
            t += 1.0
        if keep_history:
            hx.append(x)
            hy.append(y)
            hu.append(u)
    return MeanValueTrajectory(
        n=n, p=p, x=x, y=y, interactions=t, history_x=hx, history_y=hy, history_u=hu
    )


def run_mva(
    n: int,
    p: float,
    *,
    heuristic: bool = False,
    keep_history: bool = False,
) -> MeanValueTrajectory:
    """Deterministic mean-value model with exact knowledge of ``p`` (MVA).

    With ``heuristic=True`` the Fig. 6(d) straw-man probabilities are used
    instead of the theoretically derived ones.
    """
    check_probability(p, "p")
    if not 0.0 < p <= 0.5:
        raise DomainError(f"run_mva expects the minority fraction p in (0, 1/2], got {p}")
    probs = heuristic_probabilities(p) if heuristic else decision_probabilities(p)
    return _integrate(n, p, lambda: (probs, False), keep_history)


def run_sam(
    n: int,
    p: float,
    *,
    m: int = 10,
    corrected: bool = False,
    rng: RngLike = None,
    keep_history: bool = False,
) -> MeanValueTrajectory:
    """Mean-value model with per-step sampled estimates of ``p`` (SAM).

    Each step draws ``p_hat ~ Binomial(m, p)/m`` -- the estimate the
    initiating peer would form from ``m`` local data-key samples -- and
    derives the decision probabilities from it.  With ``corrected=True``
    the bias-corrected probabilities of Eqs. (9)/(10) are used (the
    mean-value analogue of the COR model).

    An estimate above 1/2 mirrors the initiator's view of which side is
    the minority (rules 3/4 swap); an estimate of exactly 0 is nudged
    inside the domain, matching what a real peer (which cannot split at
    ratio 0) must do.
    """
    check_probability(p, "p")
    if not 0.0 < p <= 0.5:
        raise DomainError(f"run_sam expects the minority fraction p in (0, 1/2], got {p}")
    if m < 1:
        raise DomainError(f"sample size m must be >= 1, got {m}")
    rand = make_rng(rng)

    def sample_probs() -> tuple[DecisionProbabilities, bool]:
        hits = sum(1 for _ in range(m) if rand.random() < p)
        p_hat = hits / m
        mirrored = p_hat > 0.5
        q = min(p_hat, 1.0 - p_hat)
        q = min(max(q, 1.0 / (4.0 * m)), 0.5)
        return decision_probabilities(q, m=m if corrected else None), mirrored

    return _integrate(n, p, sample_probs, keep_history)


def closed_form_undecided(n: int, step: float) -> float:
    """Closed-form undecided count in the beta-regime, ``U_i = 2N(1-1/N)^i - N``.

    Exposed for cross-validation: the recursion integrated by
    :func:`run_mva` must follow this curve whenever ``alpha = 1``.
    """
    return 2.0 * n * (1.0 - 1.0 / n) ** step - n
