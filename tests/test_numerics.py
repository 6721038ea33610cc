"""Tests for the root finding and differencing behind Eqs. (2)/(4) and (9)/(10)."""

import math

import pytest

from repro.analysis.numerics import bisect, clamp, second_derivative
from repro.exceptions import ConvergenceError


class TestBisect:
    def test_finds_an_interior_root(self):
        assert bisect(lambda x: x * x - 2.0, 0.0, 2.0) == pytest.approx(
            math.sqrt(2.0), abs=1e-10
        )

    def test_finds_the_root_of_a_decreasing_function(self):
        assert bisect(lambda x: math.exp(-x) - 0.5, 0.0, 5.0) == pytest.approx(
            math.log(2.0), abs=1e-10
        )

    def test_returns_an_endpoint_that_is_a_root(self):
        assert bisect(lambda x: x - 1.0, 1.0, 3.0) == 1.0
        assert bisect(lambda x: x - 3.0, 1.0, 3.0) == 3.0

    def test_rejects_an_unbracketed_interval(self):
        with pytest.raises(ConvergenceError):
            bisect(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_gives_up_after_max_iter(self):
        # A tolerance of 0 is never met, so the iteration cap decides.
        with pytest.raises(ConvergenceError):
            bisect(lambda x: x - 1.0 / 3.0, 0.0, 1.0, tol=0.0, max_iter=5)

    def test_stops_once_the_bracket_is_below_tol(self):
        calls = []

        def func(x):
            calls.append(x)
            return x - 1.0 / 3.0

        root = bisect(func, 0.0, 1.0, tol=1e-3)
        assert root == pytest.approx(1.0 / 3.0, abs=1e-3)
        # Two endpoint evaluations plus about log2(1/tol) = 10 halvings.
        assert len(calls) <= 14


class TestSecondDerivative:
    def test_exact_on_a_quadratic(self):
        assert second_derivative(lambda x: 3.0 * x * x, 0.7) == pytest.approx(
            6.0, rel=1e-5
        )

    def test_matches_the_analytic_value_of_a_transcendental(self):
        assert second_derivative(math.sin, 1.0) == pytest.approx(
            -math.sin(1.0), rel=1e-4
        )

    def test_shifts_the_stencil_inside_the_lower_bound(self):
        h = 1e-4

        def cube(x):
            if x < 0.0:
                raise AssertionError(f"evaluated outside the domain at {x}")
            return x ** 3

        # The stencil moves to (0, h, 2h): the second difference of x^3
        # there is 6h, the value of f'' at the shifted centre.
        assert second_derivative(cube, 0.0, h=h, lo=0.0) == pytest.approx(
            6.0 * h, rel=1e-5
        )

    def test_shifts_the_stencil_inside_the_upper_bound(self):
        h = 1e-4

        def cube(x):
            if x > 1.0:
                raise AssertionError(f"evaluated outside the domain at {x}")
            return x ** 3

        assert second_derivative(cube, 1.0, h=h, hi=1.0) == pytest.approx(
            6.0 * (1.0 - h), rel=1e-5
        )

    def test_rejects_a_domain_narrower_than_the_stencil(self):
        with pytest.raises(ValueError):
            second_derivative(lambda x: x * x, 0.0, h=1e-4, lo=0.0, hi=1e-4)


class TestClamp:
    @pytest.mark.parametrize(
        "value, expected",
        [(-0.5, 0.0), (0.0, 0.0), (0.25, 0.25), (1.0, 1.0), (1.5, 1.0)],
    )
    def test_clamps_into_the_closed_interval(self, value, expected):
        assert clamp(value, 0.0, 1.0) == expected
