"""Decision probabilities for Adaptive Eager Partitioning (Sec. 3.1/3.2).

The AEP algorithm is parameterized by two probabilities derived from the
target load split ``p`` (the fraction of the partition's data load that
falls into sub-partition ``0``, w.l.o.g. ``0 < p <= 1/2``):

``alpha(p)``
    probability that two *undecided* peers perform a balanced split;
``beta(p)``
    probability that an undecided peer joins the *minority* side upon
    contacting a peer already decided for the *majority* side.

Mean-value analysis of the interaction Markov chain (see DESIGN.md for the
full derivation, cross-checked against every legible equation of the
paper) yields two regimes joined continuously at ``p* = 1 - ln 2``:

* **beta-regime** (``p >= p*``): ``alpha = 1`` and ``beta`` solves
  Eq. (2), ``p = 1 - (1 - 2^-beta) / beta``;
* **alpha-regime** (``p < p*``): ``beta = 0`` and ``alpha`` solves
  Eq. (4), ``p = alpha (2 alpha - 1 - ln 2 alpha) / (2 alpha - 1)^2``.

The expected number of interactions to completion is Eq. (1)/(3):
``t* = N ln 2`` in the beta-regime (independent of ``p``!) and
``t*(alpha) = N ln(2 alpha) / (2 alpha - 1)`` in the alpha-regime.

Peers estimate ``p`` from ``m`` local samples; the induced second-order
sampling bias is removed by the corrected probabilities of Eqs. (9)/(10),
implemented by :func:`alpha_corrected` / :func:`beta_corrected`.

Performance
-----------
Every construction interaction inverts Eq. (2) or (4); a profile of
``build_overlay`` shows >85% of construction time inside the generic
bisection when each inversion restarts from the full ``[0, 1]`` bracket.
The operational inverters (:func:`alpha_of_p` / :func:`beta_of_p`)
therefore seed a damped regula-falsi refinement from a precomputed
forward-map table (bracket width ~1e-3, converging in 3-6 forward
evaluations to a ``1e-13`` residual) and memoize results -- the estimate
lattice ``k/m`` repeats heavily across interactions.  The untouched
full-bracket bisections remain available as :func:`alpha_of_p_exact` /
:func:`beta_of_p_exact`; a tolerance test ties the two within ``1e-9``
(``tests/test_probabilities.py``).
"""

from __future__ import annotations

import math
from bisect import bisect_left as _bisect_left
from dataclasses import dataclass
from functools import lru_cache

from .._util import check_probability
from ..analysis.numerics import bisect, clamp, second_derivative
from ..exceptions import DomainError
from .constants import P_STAR

__all__ = [
    "P_STAR",
    "p_of_beta",
    "p_of_alpha",
    "beta_of_p",
    "alpha_of_p",
    "beta_of_p_exact",
    "alpha_of_p_exact",
    "alpha_second_derivative",
    "beta_second_derivative",
    "alpha_corrected",
    "beta_corrected",
    "decision_probabilities",
    "heuristic_probabilities",
    "t_star",
    "t_star_interactions",
    "DecisionProbabilities",
]

#: Guard band below which ``alpha_of_p`` refuses to invert: ``alpha''(p)``
#: diverges as ``p -> 0`` (Fig. 3) and the partition is better served by
#: the ``n_min`` floor of Algorithm 1 than by an extreme split.
_P_FLOOR = 1e-9

# -- forward maps -----------------------------------------------------------


def p_of_beta(beta: float) -> float:
    """Load fraction achieved by AEP with ``alpha = 1`` and given ``beta``.

    Implements Eq. (2): ``p = 1 - (1 - 2^-beta) / beta`` with the
    continuous limit ``p -> 1 - ln 2`` as ``beta -> 0``.  Monotonically
    increasing from ``1 - ln 2`` at ``beta = 0`` to ``1/2`` at ``beta = 1``.
    """
    check_probability(beta, "beta")
    if beta < 1e-9:
        # Second-order Taylor expansion around beta = 0:
        # (1 - 2^-b)/b = ln2 - b ln^2(2)/2 + b^2 ln^3(2)/6 - ...
        ln2 = math.log(2.0)
        return 1.0 - (ln2 - beta * ln2 * ln2 / 2.0 + beta * beta * ln2**3 / 6.0)
    return 1.0 - (1.0 - 2.0 ** (-beta)) / beta


def p_of_alpha(alpha: float) -> float:
    """Load fraction achieved by AEP with ``beta = 0`` and given ``alpha``.

    Implements Eq. (4): ``p = alpha (2a - 1 - ln 2a) / (2a - 1)^2``.
    Monotonically increasing from ``0`` as ``alpha -> 0`` to ``1 - ln 2``
    at ``alpha = 1``; the removable singularity at ``alpha = 1/2`` is
    handled by its Taylor expansion (value ``1/4``).
    """
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha!r}")
    h = alpha - 0.5
    if abs(h) < 1e-5:
        # p(1/2 + h) = 1/4 + h/6 - h^2/6 + O(h^3)  (expansion of Eq. 4)
        return 0.25 + h / 6.0 - h * h / 6.0
    two_a = 2.0 * alpha
    return alpha * (two_a - 1.0 - math.log(two_a)) / (two_a - 1.0) ** 2


# -- inverse maps ------------------------------------------------------------

#: Residual tolerance of the table-seeded inversions (in ``p`` units);
#: far below the 1e-9 round-trip tolerance the reference tests demand.
_INVERT_TOL = 1e-13

#: Lower end of the alpha search bracket (matches the exact bisection).
_ALPHA_MIN = 1e-12


def beta_of_p_exact(p: float) -> float:
    """Reference inversion of Eq. (2) by full-bracket bisection.

    Semantics identical to :func:`beta_of_p`; kept as the ground truth
    the table-driven fast path is tested against.
    """
    check_probability(p, "p")
    if p > 0.5:
        raise DomainError(f"beta_of_p expects p <= 1/2 (mirror the sides first), got {p}")
    if p < P_STAR - 1e-12:
        raise DomainError(
            f"no positive beta exists for p={p} < 1 - ln2; use alpha_of_p instead"
        )
    if p >= 0.5:
        return 1.0
    p = max(p, P_STAR)
    return bisect(lambda b: p_of_beta(b) - p, 0.0, 1.0)


def alpha_of_p_exact(p: float) -> float:
    """Reference inversion of Eq. (4) by full-bracket bisection.

    Semantics identical to :func:`alpha_of_p`; kept as the ground truth
    the table-driven fast path is tested against.
    """
    check_probability(p, "p")
    if p > P_STAR + 1e-12:
        raise DomainError(f"alpha_of_p expects p <= 1 - ln2, got {p}; use beta_of_p")
    if p <= _P_FLOOR:
        raise DomainError(f"p={p} too close to 0 for a meaningful split")
    if p >= P_STAR:
        return 1.0
    return bisect(lambda a: p_of_alpha(a) - p, _ALPHA_MIN, 1.0)


@lru_cache(maxsize=1)
def _beta_table() -> tuple:
    """Forward-map samples ``(betas, ps)`` of Eq. (2) on a uniform grid."""
    n = 1024
    betas = [i / (n - 1) for i in range(n)]
    return betas, [p_of_beta(b) for b in betas]


@lru_cache(maxsize=1)
def _alpha_table() -> tuple:
    """Forward-map samples ``(alphas, ps)`` of Eq. (4).

    Geometric spacing in ``alpha``: ``p(alpha) ~ alpha ln(1/alpha)`` as
    ``alpha -> 0``, so a uniform grid could not bracket the heavy-skew
    tail down to ``p = 1e-9`` that the guard band admits.
    """
    n = 2048
    step = math.log(1.0 / _ALPHA_MIN) / (n - 1)
    alphas = [_ALPHA_MIN * math.exp(i * step) for i in range(n)]
    alphas[-1] = 1.0
    return alphas, [p_of_alpha(a) for a in alphas]


def _invert_monotone(p: float, xs: list, ps: list, forward) -> float:
    """Solve ``forward(x) = p`` for a strictly increasing ``forward``.

    Looks up the bracketing table cell, then refines by regula falsi with
    Illinois damping -- guaranteed convergence on the bracket, typically
    3-6 ``forward`` evaluations to a ``1e-13`` residual versus ~40 for
    bisection from the full domain.
    """
    i = _bisect_left(ps, p)
    if i <= 0:
        return xs[0]
    if i >= len(ps):
        return xs[-1]
    lo, hi = xs[i - 1], xs[i]
    f_lo, f_hi = ps[i - 1] - p, ps[i] - p
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    for _ in range(100):
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < x < hi:  # numerical corner: fall back to the midpoint
            x = 0.5 * (lo + hi)
        fx = forward(x) - p
        if abs(fx) < _INVERT_TOL or hi - lo < 1e-15:
            return x
        if (fx < 0.0) == (f_lo < 0.0):
            lo, f_lo = x, fx
            f_hi *= 0.5
        else:
            hi, f_hi = x, fx
            f_lo *= 0.5
    return 0.5 * (lo + hi)


@lru_cache(maxsize=65536)
def _beta_of_p_fast(p: float) -> float:
    betas, ps = _beta_table()
    return _invert_monotone(p, betas, ps, p_of_beta)


@lru_cache(maxsize=65536)
def _alpha_of_p_fast(p: float) -> float:
    alphas, ps = _alpha_table()
    return _invert_monotone(p, alphas, ps, p_of_alpha)


def beta_of_p(p: float) -> float:
    """Invert Eq. (2): the ``beta`` achieving load fraction ``p``.

    Valid for ``p`` in ``[1 - ln 2, 1/2]``; raises :class:`DomainError`
    outside (use :func:`decision_probabilities` for the full range).
    Memoized table-seeded inversion; :func:`beta_of_p_exact` is the
    bisection reference it is tested against.
    """
    check_probability(p, "p")
    if p > 0.5:
        raise DomainError(f"beta_of_p expects p <= 1/2 (mirror the sides first), got {p}")
    if p < P_STAR - 1e-12:
        raise DomainError(
            f"no positive beta exists for p={p} < 1 - ln2; use alpha_of_p instead"
        )
    if p >= 0.5:
        return 1.0
    return _beta_of_p_fast(max(p, P_STAR))


def alpha_of_p(p: float) -> float:
    """Invert Eq. (4): the ``alpha`` achieving load fraction ``p``.

    Valid for ``p`` in ``(0, 1 - ln 2]``; raises :class:`DomainError`
    outside.  Memoized table-seeded inversion; :func:`alpha_of_p_exact`
    is the bisection reference it is tested against.
    """
    check_probability(p, "p")
    if p > P_STAR + 1e-12:
        raise DomainError(f"alpha_of_p expects p <= 1 - ln2, got {p}; use beta_of_p")
    if p <= _P_FLOOR:
        raise DomainError(f"p={p} too close to 0 for a meaningful split")
    if p >= P_STAR:
        return 1.0
    return _alpha_of_p_fast(p)


# -- derivatives and sampling-error corrections ------------------------------


def alpha_second_derivative(p: float, *, h: float = 1e-4) -> float:
    """Numerical ``alpha''(p)`` on the alpha-regime branch (Fig. 3).

    The curvature grows rapidly as ``p -> 0``, which is exactly the
    observation of Fig. 3 motivating larger corrections (and larger
    residual error) for highly skewed splits.
    """
    if not _P_FLOOR < p <= P_STAR:
        raise DomainError(f"alpha''(p) is defined on (0, 1 - ln2], got {p}")
    step = min(h, max(p / 4.0, 1e-7), (P_STAR - _P_FLOOR) / 4.0)
    return second_derivative(alpha_of_p, p, h=step, lo=_P_FLOOR * 2, hi=P_STAR)


def beta_second_derivative(p: float, *, h: float = 1e-4) -> float:
    """Numerical ``beta''(p)`` on the beta-regime branch."""
    if not P_STAR <= p <= 0.5:
        raise DomainError(f"beta''(p) is defined on [1 - ln2, 1/2], got {p}")
    return second_derivative(beta_of_p, p, h=h, lo=P_STAR, hi=0.5)


def _bias_term(curvature: float, p: float, m: int) -> float:
    """Second-order Taylor bias ``1/2 f''(p) Var[p_hat]`` (Eqs. 9/10)."""
    if m <= 0:
        raise DomainError(f"sample size m must be positive, got {m}")
    return 0.5 * curvature * p * (1.0 - p) / m


def alpha_corrected(p: float, m: int) -> float:
    """Bias-corrected ``alpha`` of Eq. (9), clamped to ``[0, 1]``.

    ``m`` is the number of Bernoulli samples each peer uses to estimate
    ``p``; the correction removes the systematic shift that plain
    plug-in estimation introduces (Sec. 3.2, verified by the COR model).
    """
    if p >= P_STAR:
        return 1.0
    return clamp(alpha_of_p(p) - _bias_term(alpha_second_derivative(p), p, m), 0.0, 1.0)


def beta_corrected(p: float, m: int) -> float:
    """Bias-corrected ``beta`` of Eq. (10), clamped to ``[0, 1]``."""
    if p < P_STAR:
        return 0.0
    return clamp(beta_of_p(p) - _bias_term(beta_second_derivative(p), p, m), 0.0, 1.0)


# -- packaged policies --------------------------------------------------------


@dataclass(frozen=True)
class DecisionProbabilities:
    """The ``(alpha, beta)`` pair driving one AEP bisection.

    ``alpha`` is the balanced-split probability for two undecided peers;
    ``beta`` the probability of joining the minority side upon meeting a
    majority-decided peer.  ``p`` records the (estimated) minority load
    fraction the pair was derived from, for diagnostics.
    """

    alpha: float
    beta: float
    p: float


@lru_cache(maxsize=65536)
def _raw_pair(p: float) -> tuple[float, float]:
    """Uncorrected ``(alpha, beta)`` for a minority fraction in ``(0, 1/2]``.

    Memoized: the binomial expectation of
    :func:`corrected_probabilities_exact` evaluates the pair on the
    estimate lattice ``k/m``, which repeats across every interaction of a
    construction run.
    """
    p = min(max(p, _P_FLOOR * 10), 0.5)
    if p >= P_STAR:
        return 1.0, beta_of_p(p)
    return alpha_of_p(p), 0.0


def _binomial_pmf(m: int, k: int, q: float) -> float:
    """Numerically stable ``P[Binomial(m, q) = k]`` (log-gamma form)."""
    if q <= 0.0:
        return 1.0 if k == 0 else 0.0
    if q >= 1.0:
        return 1.0 if k == m else 0.0
    log_p = (
        math.lgamma(m + 1)
        - math.lgamma(k + 1)
        - math.lgamma(m - k + 1)
        + k * math.log(q)
        + (m - k) * math.log(1.0 - q)
    )
    return math.exp(log_p)


@lru_cache(maxsize=65536)
def _expected_raw_pair(q: float, m: int) -> tuple[float, float]:
    """Expected plug-in ``(alpha, beta)`` over ``p_hat ~ Binomial(m, q)/m``.

    Follows the estimate-processing pipeline of the simulators: the
    estimate is mapped to its minority side and floored at ``1/(4m)``.
    Only the ~±8 sigma window of the binomial contributes, and the pmf is
    advanced across the window by the multiplicative recurrence
    ``P[k+1] = P[k] (m-k)/(k+1) q/(1-q)`` from a single log-gamma anchor
    -- one transcendental call per expectation instead of five per term.
    """
    e_alpha = 0.0
    e_beta = 0.0
    sigma = math.sqrt(max(m * q * (1.0 - q), 1.0))
    k_lo = max(0, int(m * q - 8 * sigma))
    k_hi = min(m, int(m * q + 8 * sigma) + 1)
    total = 0.0
    weight = _binomial_pmf(m, k_lo, q)
    ratio = q / (1.0 - q)
    quarter = 1.0 / (4.0 * m)
    for k in range(k_lo, k_hi + 1):
        side = k / m
        if side < quarter:
            side = quarter
        elif side > 0.5:
            side = 0.5
        alpha, beta = _raw_pair(side)
        e_alpha += weight * alpha
        e_beta += weight * beta
        total += weight
        weight *= (m - k) / (k + 1.0) * ratio
    if total > 0.0:
        e_alpha /= total
        e_beta /= total
    return e_alpha, e_beta


def corrected_probabilities_exact(p: float, m: int) -> DecisionProbabilities:
    """Lattice-exact sampling-bias correction (the operational COR policy).

    Eqs. (9)/(10) remove the *second-order Taylor* bias, which is the
    right object for large ``m``; at the paper's operating point
    (``m = 10``, estimates on a lattice of width 0.1, and ``alpha''``
    spanning an order of magnitude) the Taylor term overshoots.  This
    variant cancels the bias exactly: it subtracts the full binomial
    expectation gap ``E[f(p_hat)] - f(p)`` evaluated at the peer's own
    estimate, which is what the Taylor term approximates.
    """
    if m < 1:
        raise DomainError(f"sample size m must be >= 1, got {m}")
    alpha_t, beta_t = _raw_pair(p)
    if m > 400:
        # The sampling bias scales as 1/m; beyond a few hundred samples
        # the correction is far below the process noise.
        return DecisionProbabilities(alpha=alpha_t, beta=beta_t, p=p)
    e_alpha, e_beta = _expected_raw_pair(round(p, 6), m)
    alpha = clamp(alpha_t - (e_alpha - alpha_t), 0.0, 1.0)
    beta = clamp(beta_t - (e_beta - beta_t), 0.0, 1.0)
    return DecisionProbabilities(alpha=alpha, beta=beta, p=p)


def decision_probabilities(p: float, *, m: int | None = None) -> DecisionProbabilities:
    """AEP probabilities for a minority load fraction ``p`` in ``(0, 1/2]``.

    With ``m`` given, applies the lattice-exact sampling-bias correction
    (see :func:`corrected_probabilities_exact`; Eqs. (9)/(10) are its
    large-``m`` Taylor approximation, exposed as
    :func:`alpha_corrected`/:func:`beta_corrected`); with ``m = None``
    returns the exact theoretical values.
    """
    check_probability(p, "p")
    if p > 0.5:
        raise DomainError(
            f"decision_probabilities expects the minority fraction (p <= 1/2), got {p}"
        )
    p = max(p, _P_FLOOR * 10)
    if m is not None:
        return corrected_probabilities_exact(p, m)
    alpha, beta = _raw_pair(p)
    return DecisionProbabilities(alpha=alpha, beta=beta, p=p)


def heuristic_probabilities(p: float) -> DecisionProbabilities:
    """The "no-theory" straw-man functions used in the Fig. 6(d) ablation.

    Linear ramps that qualitatively mimic the exact curves (``alpha``
    rising to 1, ``beta`` rising to 1 at ``p = 1/2``; both vanish as
    ``p -> 0``) but are quantitatively wrong away from ``p = 1/2``.  The
    paper shows -- and our reproduction confirms -- that even such a
    minor deviation from the theoretically derived functions degrades
    load balancing substantially.
    """
    check_probability(p, "p")
    if p > 0.5:
        raise DomainError(f"heuristic_probabilities expects p <= 1/2, got {p}")
    return DecisionProbabilities(alpha=min(1.0, 2.0 * p), beta=min(1.0, 2.0 * p), p=p)


# -- interaction-count predictions -------------------------------------------


def t_star(p: float) -> float:
    """Asymptotic interactions *per peer* for AEP at load fraction ``p``.

    Eq. (1) gives ``t*/N = ln 2`` throughout the beta-regime; Eq. (3)
    gives ``t*(alpha)/N = ln(2 alpha) / (2 alpha - 1)`` in the
    alpha-regime, diverging as ``p -> 0``.
    """
    check_probability(p, "p")
    if p > 0.5:
        raise DomainError(f"t_star expects the minority fraction p <= 1/2, got {p}")
    if p >= P_STAR:
        return math.log(2.0)
    alpha = alpha_of_p(p)
    two_a = 2.0 * alpha
    if abs(two_a - 1.0) < 1e-9:
        return 1.0  # removable singularity: lim ln(2a)/(2a-1) = 1 at alpha = 1/2
    return math.log(two_a) / (two_a - 1.0)


def t_star_interactions(p: float, n: int) -> float:
    """Expected total interactions for a population of ``n`` peers.

    Uses the exact discrete termination step for the beta-regime,
    ``t* = ln 2 / ln(n/(n-1))`` (Eq. 1), which converges to ``n ln 2``
    for large ``n``, and the analogous discrete form in the
    alpha-regime.
    """
    if n < 2:
        raise DomainError(f"need at least 2 peers, got {n}")
    check_probability(p, "p")
    if p > 0.5:
        raise DomainError(f"t_star_interactions expects p <= 1/2, got {p}")
    if p >= P_STAR:
        return math.log(2.0) / math.log(n / (n - 1.0))
    alpha = alpha_of_p(p)
    r = (1.0 - 2.0 * alpha) / n
    if abs(r) < 1e-15:
        # alpha = 1/2 exactly: U_i = n - i, so termination takes n steps
        # (the limit of ln(2a)/(2a-1) is 1).
        return float(n)
    # U_i = (n - n/(1-2a))(1+r)^i + n/(1-2a) = 0  =>  (1+r)^t = 1/(2a)
    return -math.log(2.0 * alpha) / math.log1p(r)
