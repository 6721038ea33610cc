"""Figure 3: numerical solution for ``alpha''(p)``.

The paper plots the second derivative of the balanced-split probability
over the alpha-regime ``p in (0, 1 - ln 2)`` to show where sampling-error
corrections matter most.  Our exact reconstruction shows the curvature
spanning roughly an order of magnitude across the regime and exploding
toward the regime boundary ``p* = 1 - ln 2`` (where ``p'(alpha) -> 0.079``
as ``alpha -> 1``); REPRODUCTION.md records the measured curve's bands.
"""

from __future__ import annotations

from typing import List, Tuple

from ..core.probabilities import P_STAR, alpha_of_p, alpha_second_derivative

__all__ = ["alpha_curvature_curve"]


def alpha_curvature_curve(
    *, points: int = 26, lo: float = 0.02, hi: float = P_STAR - 0.005
) -> List[Tuple[float, float, float]]:
    """Sample ``(p, alpha(p), alpha''(p))`` over the alpha-regime."""
    out = []
    for i in range(points):
        p = lo + (hi - lo) * i / (points - 1)
        out.append((p, alpha_of_p(p), alpha_second_derivative(p)))
    return out
