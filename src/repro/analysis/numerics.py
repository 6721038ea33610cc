"""Small numerical toolbox: root bracketing, bisection and second derivatives.

The paper determines the decision probabilities ``alpha(p)`` and
``beta(p)`` by inverting transcendental relations (Eqs. 2 and 4) and
computes their derivatives "using numerical differentiation".  This module
provides exactly those primitives, self-contained so the core library does
not depend on scipy (scipy remains available for tests to cross-check).
"""

from __future__ import annotations

from typing import Callable

from ..exceptions import ConvergenceError

#: Default absolute tolerance for root finding.
ROOT_TOL = 1e-12

#: Default maximum number of bisection iterations (2^-200 << ROOT_TOL).
MAX_ITER = 200


def bisect(
    func: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    tol: float = ROOT_TOL,
    max_iter: int = MAX_ITER,
) -> float:
    """Find a root of ``func`` on ``[lo, hi]`` by bisection.

    ``func(lo)`` and ``func(hi)`` must have opposite (or zero) signs.  The
    method is guaranteed to converge for continuous functions, which is all
    we need: both ``p(alpha)`` and ``p(beta)`` are continuous and strictly
    monotone on their domains.

    Raises
    ------
    ConvergenceError
        If the root is not bracketed or ``max_iter`` is exhausted before
        the bracket shrinks below ``tol``.
    """
    f_lo = func(lo)
    f_hi = func(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise ConvergenceError(
            f"root not bracketed on [{lo}, {hi}]: f(lo)={f_lo:.3g}, f(hi)={f_hi:.3g}"
        )
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        f_mid = func(mid)
        if f_mid == 0.0 or (hi - lo) < tol:
            return mid
        if f_lo * f_mid < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    raise ConvergenceError(f"bisection did not converge within {max_iter} iterations")


def second_derivative(
    func: Callable[[float], float],
    x: float,
    *,
    h: float = 1e-4,
    lo: float = float("-inf"),
    hi: float = float("inf"),
) -> float:
    """Second derivative by central differences, domain-clamped.

    Near a boundary the three evaluation points are shifted inside the
    domain (keeping equal spacing), which turns the central stencil into a
    one-sided second-difference stencil of the same order of magnitude of
    accuracy -- sufficient for the bias-correction terms of Eqs. (9)/(10),
    which are themselves first-order corrections.
    """
    left = x - h
    right = x + h
    if left < lo:
        shift = lo - left
        left += shift
        right += shift
        x = x + shift
    if right > hi:
        shift = right - hi
        left -= shift
        right -= shift
        x = x - shift
    if left < lo:
        raise ValueError("domain narrower than the 2h stencil")
    return (func(right) - 2.0 * func(x) + func(left)) / (h * h)


def clamp(value: float, lo: float, hi: float) -> float:
    """Clamp ``value`` into the closed interval ``[lo, hi]``."""
    return lo if value < lo else hi if value > hi else value
