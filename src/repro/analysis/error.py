"""Sampling-error propagation through the AEP Markov chain (Sec. 3.2).

The paper derives, for the beta-regime, a closed-form expression for the
error ``e^1_t`` that per-step sampling noise injects into the final
partition counts (Eq. 5), then its expectation (Eq. 7) and standard
deviation (Eq. 8):

* ``E[e^1_t] = 1/2 beta''(p) * p(1-p)/m * Phi(beta, N, t)`` with a
  bounded shape factor ``Phi`` -- a *systematic* shift that motivates the
  corrected probabilities of Eqs. (9)/(10);
* ``SD[e^1_t] = beta'(p) sqrt(t/m p(1-p)) * Psi(beta, N, t)`` with a
  bounded shape factor ``Psi``.

We compute the propagation factors exactly by iterating the linearized
error recursion (the model behind Eq. 5), avoiding the paper's algebraic
shortcuts while matching its structure: first-order terms drive the
variance, the second-order Taylor term drives the bias.
"""

from __future__ import annotations

import math

from ..core.probabilities import (
    P_STAR,
    beta_of_p,
    beta_second_derivative,
)
from ..analysis.numerics import derivative
from ..exceptions import DomainError

__all__ = [
    "predict_bias",
    "predict_error_std",
    "phi_factor",
    "psi_factor",
]


def _beta_regime_guard(p: float) -> None:
    if not P_STAR <= p <= 0.5:
        raise DomainError(
            f"the closed-form error analysis covers the beta-regime "
            f"[1 - ln2, 1/2]; got p={p}"
        )


def phi_factor(p: float, n: int) -> float:
    """The bounded propagation factor multiplying the bias term.

    Computed by iterating the mean-value recursion with a unit
    second-order perturbation of ``beta`` at every step: with
    ``y`` the side-1 count, each step's perturbation ``d_beta``
    contributes ``-y_i / n * d_beta`` to the final count, attenuated by
    the remaining ``(1 - beta/n)`` factors of the linear recursion.
    """
    _beta_regime_guard(p)
    beta = beta_of_p(p)
    t_star = int(round(n * math.log(2.0)))
    y = 0.0
    decay = 1.0 - beta / n
    # Contribution of a perturbation at step i is -(y_i/n) * decay^(t-i).
    # Accumulate exactly by iterating forward.
    contributions = []
    for _ in range(t_star):
        contributions.append(-y / n)
        y = y * decay + 1.0
    total = 0.0
    for i, c in enumerate(contributions):
        total += c * decay ** (t_star - 1 - i)
    return total / t_star if t_star else 0.0


def predict_bias(p: float, n: int, m: int) -> float:
    """Expected systematic error ``E[e^1_t]`` of the side-1 count (Eq. 7).

    Positive sampling curvature (``beta'' > 0``) biases plug-in
    estimates of ``beta`` upward, which *oversteers* peers toward the
    minority, shifting the side-1 count down (and side-0 up) -- the drift
    visible in the SAM/AEP curves of Fig. 4.
    """
    _beta_regime_guard(p)
    if m < 1:
        raise DomainError(f"sample size m must be >= 1, got {m}")
    curvature = beta_second_derivative(p)
    unit_bias = 0.5 * curvature * p * (1.0 - p) / m
    t_star = n * math.log(2.0)
    return unit_bias * phi_factor(p, n) * t_star


def psi_factor(p: float, n: int) -> float:
    """Root-mean-square propagation factor for per-step noise (Eq. 8)."""
    _beta_regime_guard(p)
    beta = beta_of_p(p)
    t_star = int(round(n * math.log(2.0)))
    y = 0.0
    decay = 1.0 - beta / n
    weights = []
    for _ in range(t_star):
        weights.append(y / n)
        y = y * decay + 1.0
    total = 0.0
    for i, w in enumerate(weights):
        total += (w * decay ** (t_star - 1 - i)) ** 2
    return math.sqrt(total / t_star) if t_star else 0.0


def predict_error_std(p: float, n: int, m: int) -> float:
    """Standard deviation of the final side-1 count error (Eq. 8)."""
    _beta_regime_guard(p)
    if m < 1:
        raise DomainError(f"sample size m must be >= 1, got {m}")
    slope = derivative(beta_of_p, p, h=1e-5, lo=P_STAR, hi=0.5)
    per_step_sd = abs(slope) * math.sqrt(p * (1.0 - p) / m)
    t_star = n * math.log(2.0)
    return per_step_sd * psi_factor(p, n) * math.sqrt(t_star)
