"""Tests for the Sec. 3.2 error-propagation analysis."""

import statistics

import pytest

from repro.analysis.error import (
    phi_factor,
    predict_bias,
    predict_error_std,
    psi_factor,
)
from repro.core import mva
from repro.exceptions import DomainError


class TestFactors:
    def test_phi_is_negative_and_bounded(self):
        # Paper bound: -1/2 < Phi < -1/(2e) (a systematic *negative*
        # shift of the side-1 count).
        for p in (0.32, 0.4, 0.5):
            phi = phi_factor(p, 1000)
            assert -0.75 < phi < 0.0

    def test_psi_is_positive_and_bounded(self):
        for p in (0.32, 0.4, 0.5):
            psi = psi_factor(p, 1000)
            assert 0.0 < psi <= 1.0

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            phi_factor(0.1, 1000)
        with pytest.raises(DomainError):
            predict_bias(0.2, 1000, 10)


class TestPredictions:
    def test_bias_sign_matches_simulation(self):
        # Plug-in estimation shifts side-1 down (side-0 up): both the
        # prediction and the SAM measurement must agree on the sign.
        p, n, m = 0.35, 1000, 10
        pred = predict_bias(p, n, m)
        runs = [mva.run_sam(n, p, m=m, rng=s) for s in range(25)]
        measured = statistics.mean(r.y - n * (1 - p) for r in runs)
        assert pred < 0
        assert measured < 0

    def test_bias_order_of_magnitude(self):
        p, n, m = 0.35, 1000, 10
        pred = abs(predict_bias(p, n, m))
        runs = [mva.run_sam(n, p, m=m, rng=s) for s in range(25)]
        measured = abs(statistics.mean(r.y - n * (1 - p) for r in runs))
        assert measured / 4 < pred < measured * 4

    def test_bias_shrinks_with_sample_size(self):
        assert abs(predict_bias(0.35, 1000, 100)) < abs(predict_bias(0.35, 1000, 5))

    def test_std_positive_and_scales_with_n(self):
        small = predict_error_std(0.4, 500, 10)
        large = predict_error_std(0.4, 2000, 10)
        assert 0 < small < large

    def test_std_order_of_magnitude(self):
        p, n, m = 0.4, 1000, 10
        pred = predict_error_std(p, n, m)
        runs = [mva.run_sam(n, p, m=m, rng=s) for s in range(30)]
        measured = statistics.pstdev([r.y - n * (1 - p) for r in runs])
        assert measured / 5 < pred < measured * 5

    def test_validation(self):
        with pytest.raises(DomainError):
            predict_bias(0.4, 1000, 0)
        with pytest.raises(DomainError):
            predict_error_std(0.4, 1000, -1)
