"""Tests for the AEP decision probabilities (Eqs. 1-4, 9, 10)."""

import math
import random
import tracemalloc

import pytest

from repro.analysis.numerics import clamp
from repro.core import probabilities as pr
from repro.exceptions import DomainError
from repro.pgrid.network import build_overlay
from repro.workloads import datasets

LN2 = math.log(2.0)


class TestForwardMaps:
    def test_p_of_beta_endpoints(self):
        assert pr.p_of_beta(1.0) == pytest.approx(0.5)
        assert pr.p_of_beta(0.0) == pytest.approx(1.0 - LN2, abs=1e-9)

    def test_p_of_beta_is_monotone(self):
        grid = [i / 100 for i in range(101)]
        values = [pr.p_of_beta(b) for b in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("beta", [0.5e-9, 2e-9])
    def test_p_of_beta_taylor_matches_exact_near_zero(self, beta):
        # Both sides of the 1e-9 series switch against the expm1 form,
        # which keeps every digit of 1 - 2^-beta for small beta.
        reference = 1.0 + math.expm1(-beta * LN2) / beta
        assert pr.p_of_beta(beta) == pytest.approx(reference, abs=1e-15)

    def test_p_of_alpha_endpoints(self):
        assert pr.p_of_alpha(1.0) == pytest.approx(1.0 - LN2)
        assert pr.p_of_alpha(1e-9) == pytest.approx(0.0, abs=1e-6)

    def test_p_of_alpha_half_is_quarter(self):
        # Removable singularity at alpha = 1/2.
        assert pr.p_of_alpha(0.5) == pytest.approx(0.25, abs=1e-9)
        assert pr.p_of_alpha(0.5 + 1e-6) == pytest.approx(0.25, abs=1e-5)
        assert pr.p_of_alpha(0.5 - 1e-6) == pytest.approx(0.25, abs=1e-5)

    def test_p_of_alpha_is_monotone(self):
        grid = [i / 200 for i in range(1, 201)]
        values = [pr.p_of_alpha(a) for a in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_p_of_alpha_rejects_out_of_domain(self):
        with pytest.raises(DomainError):
            pr.p_of_alpha(0.0)
        with pytest.raises(DomainError):
            pr.p_of_alpha(1.5)


class TestInverseMaps:
    @pytest.mark.parametrize("p", [0.31, 0.35, 0.4, 0.45, 0.49, 0.5])
    def test_beta_round_trip(self, p):
        assert pr.p_of_beta(pr.beta_of_p(p)) == pytest.approx(p, abs=1e-9)

    @pytest.mark.parametrize("p", [0.01, 0.05, 0.1, 0.2, 0.25, 0.30, 1.0 - LN2])
    def test_alpha_round_trip(self, p):
        assert pr.p_of_alpha(pr.alpha_of_p(p)) == pytest.approx(p, abs=1e-9)

    def test_regime_boundary_is_continuous(self):
        # alpha(p*) = 1 and beta(p*) = 0: the two regimes join.
        assert pr.alpha_of_p(pr.P_STAR) == pytest.approx(1.0)
        assert pr.beta_of_p(pr.P_STAR) == pytest.approx(0.0, abs=1e-6)

    def test_beta_of_p_rejects_alpha_regime(self):
        with pytest.raises(DomainError):
            pr.beta_of_p(0.2)

    def test_alpha_of_p_rejects_beta_regime(self):
        with pytest.raises(DomainError):
            pr.alpha_of_p(0.4)

    def test_rejects_majority_fraction(self):
        with pytest.raises(DomainError):
            pr.beta_of_p(0.7)
        with pytest.raises(DomainError):
            pr.decision_probabilities(0.7)


class TestTableDrivenInversions:
    """The table-seeded inverters must agree with the exact
    full-bracket bisections they replaced on the hot path."""

    def test_beta_table_matches_bisection(self):
        lo = pr.P_STAR
        grid = [lo + i * (0.5 - lo) / 400 for i in range(401)]
        for p in grid:
            assert pr.beta_of_p(p) == pytest.approx(
                pr.beta_of_p_exact(p), abs=1e-9
            ), f"beta mismatch at p={p}"

    def test_alpha_table_matches_bisection(self):
        grid = [1e-6 * 10**k for k in range(4)]  # heavy-skew tail
        grid += [0.001 + i * (pr.P_STAR - 0.001) / 400 for i in range(401)]
        for p in grid:
            assert pr.alpha_of_p(p) == pytest.approx(
                pr.alpha_of_p_exact(p), abs=1e-9
            ), f"alpha mismatch at p={p}"

    def test_randomized_round_trips(self):
        import random

        rand = random.Random(0)
        for _ in range(200):
            p = rand.uniform(1e-6, 0.5)
            if p >= pr.P_STAR:
                assert pr.p_of_beta(pr.beta_of_p(p)) == pytest.approx(p, abs=1e-9)
            else:
                assert pr.p_of_alpha(pr.alpha_of_p(p)) == pytest.approx(p, abs=1e-9)

    @pytest.mark.parametrize("regime", ["alpha", "beta"])
    def test_inversion_converges_in_few_forward_evaluations(self, regime):
        # Illinois damping halves the retained endpoint only when it is
        # kept twice in a row; halving it on every step converges linearly
        # (~24 evaluations per alpha inversion, ~18 per beta).
        if regime == "alpha":
            (xs, ps), forward, lo, hi = pr._alpha_table(), pr.p_of_alpha, 1e-6, pr.P_STAR
        else:
            (xs, ps), forward, lo, hi = pr._beta_table(), pr.p_of_beta, pr.P_STAR, 0.5
        calls = []

        def counted(x):
            calls.append(x)
            return forward(x)

        for i in range(1, 400):
            p = lo + (hi - lo) * i / 400
            calls.clear()
            x = pr._invert_monotone(p, xs, ps, counted)
            assert forward(x) == pytest.approx(p, abs=1e-12)
            assert len(calls) <= 6, f"{len(calls)} evaluations at p={p}"
        if regime == "beta":
            # Within 2e-4 of p* the residual is near the rounding of
            # Eq. (2) itself: a direct 1 - 2^-beta cancelled four digits
            # there and took up to 9 evaluations (at p - p* ~ 1e-5).
            for i in range(1, 21):
                p = lo + (hi - lo) * i / 20000
                calls.clear()
                pr._invert_monotone(p, xs, ps, counted)
                assert len(calls) <= 4, f"{len(calls)} evaluations at p - p* = {p - lo}"

    def test_exact_variants_share_domain_errors(self):
        for bad in (0.7, -0.1):
            with pytest.raises(DomainError):
                pr.beta_of_p_exact(bad)
            with pytest.raises(DomainError):
                pr.alpha_of_p_exact(bad)
        with pytest.raises(DomainError):
            pr.alpha_of_p_exact(0.4)
        with pytest.raises(DomainError):
            pr.beta_of_p_exact(0.2)


class TestDerivativesAndCorrections:
    def test_alpha_curvature_grows_across_regime(self):
        # Fig. 3: alpha''(p) spans roughly one order of magnitude over the
        # alpha-regime, growing steeply toward the regime boundary p*
        # (p'(alpha) -> 0.079 as alpha -> 1, so the inverse's curvature
        # explodes there).
        low = pr.alpha_second_derivative(0.05)
        mid = pr.alpha_second_derivative(0.15)
        high = pr.alpha_second_derivative(0.28)
        assert 0.0 < low < mid < high
        assert high / low > 3.0

    def test_alpha_curvature_positive_in_range(self):
        for p in [0.05, 0.1, 0.15, 0.2, 0.25, 0.3]:
            assert pr.alpha_second_derivative(p) > 0.0

    def test_corrections_shrink_probabilities(self):
        # Positive curvature means plug-in estimates are biased upward,
        # so the corrected values must be smaller.
        assert pr.alpha_corrected(0.2, m=10) < pr.alpha_of_p(0.2)
        assert pr.beta_corrected(0.45, m=10) <= pr.beta_of_p(0.45) + 1e-12

    def test_correction_vanishes_with_large_samples(self):
        assert pr.alpha_corrected(0.2, m=10**9) == pytest.approx(
            pr.alpha_of_p(0.2), abs=1e-6
        )

    def test_corrections_clamped_to_unit_interval(self):
        assert 0.0 <= pr.alpha_corrected(0.02, m=1) <= 1.0
        assert 0.0 <= pr.beta_corrected(0.49, m=1) <= 1.0

    def test_correction_rejects_bad_sample_size(self):
        with pytest.raises(DomainError):
            pr.alpha_corrected(0.2, m=0)


class TestDecisionProbabilities:
    def test_beta_regime_has_alpha_one(self):
        probs = pr.decision_probabilities(0.4)
        assert probs.alpha == 1.0
        assert 0.0 < probs.beta < 1.0

    def test_alpha_regime_has_beta_zero(self):
        probs = pr.decision_probabilities(0.2)
        assert probs.beta == 0.0
        assert 0.0 < probs.alpha < 1.0

    def test_balanced_case(self):
        probs = pr.decision_probabilities(0.5)
        assert probs.alpha == 1.0
        assert probs.beta == pytest.approx(1.0)

    def test_heuristic_matches_theory_at_half(self):
        h = pr.heuristic_probabilities(0.5)
        assert h.alpha == pytest.approx(1.0)
        assert h.beta == pytest.approx(1.0)

    def test_heuristic_diverges_from_theory_away_from_half(self):
        h = pr.heuristic_probabilities(0.35)
        t = pr.decision_probabilities(0.35)
        assert abs(h.beta - t.beta) > 0.05


def _clear_memo():
    pr._PAIRS.clear()
    pr._LATTICE_ROWS.clear()


def _reference_corrected(p, m):
    """``corrected_probabilities_exact`` without memo: the binomial window
    summed directly over :func:`pr._raw_pair` at each estimate ``k/m``."""
    alpha_t, beta_t = pr._raw_pair(p)
    if m > 400:
        return alpha_t, beta_t
    q = round(p, 6)
    sigma = math.sqrt(max(m * q * (1.0 - q), 1.0))
    k_lo = max(0, int(m * q - 8 * sigma))
    k_hi = min(m, int(m * q + 8 * sigma) + 1)
    e_alpha = e_beta = total = 0.0
    weight = pr._binomial_pmf(m, k_lo, q)
    for k in range(k_lo, k_hi + 1):
        side = min(max(k / m, 1.0 / (4.0 * m)), 0.5)
        alpha, beta = pr._raw_pair(side)
        e_alpha += weight * alpha
        e_beta += weight * beta
        total += weight
        weight *= (m - k) / (k + 1.0) * (q / (1.0 - q))
    e_alpha /= total
    e_beta /= total
    return (
        clamp(alpha_t - (e_alpha - alpha_t), 0.0, 1.0),
        clamp(beta_t - (e_beta - beta_t), 0.0, 1.0),
    )


def _overlay(peer_keys, build_seed):
    net = build_overlay(peer_keys, rng=build_seed)
    return sorted((p.peer_id, str(p.path), sorted(p.keys)) for p in net.peers.values())


class TestMemo:
    """The ``(p, m)`` memo and the per-``m`` lattice rows change no value."""

    def test_corrected_pairs_equal_unmemoized_reference(self):
        _clear_memo()
        cases = [(k / m, m) for m in range(1, 65) for k in range(1, m // 2 + 1)]
        cases += [(k / m, m) for m in (97, 250, 400) for k in range(1, m // 2 + 1, 7)]
        cases += [(1.0 / (4.0 * m), m) for m in (1, 2, 10, 64, 400)]  # k = 0 floor
        cases += [(0.5, m) for m in (1, 3, 10, 63, 400)]  # window past m/2
        cases += [(5 / 37.3, 10), (5 / 1234.5, 25), (0.3, 401), (0.1, 5000)]
        for p, m in cases:
            probs = pr.corrected_probabilities_exact(p, m)
            assert (probs.alpha, probs.beta) == _reference_corrected(p, m), (p, m)
            assert pr.decision_probabilities(p, m=m) == probs

    def test_uncorrected_pairs_equal_raw_pair(self):
        _clear_memo()
        for p in (1e-9, 0.01, 0.2, pr.P_STAR, 0.4, 0.5):
            probs = pr.decision_probabilities(p)
            assert (probs.alpha, probs.beta) == pr._raw_pair(p)
            assert pr.decision_probabilities(p) is probs

    def test_warm_memo_builds_the_same_overlay(self):
        a = datasets.workload_keys("P1.0", 64, 10, seed=1)
        b = datasets.workload_keys("P1.0", 64, 10, seed=2)
        _clear_memo()
        _overlay(a, 5)
        warm = _overlay(b, 6)
        _clear_memo()
        assert _overlay(b, 6) == warm

    def test_construction_footprint(self):
        # The ``construct`` benchmark unit: 256 peers x 25 Pareto keys.
        # Per-float LRU memos held 9.66 MiB here.
        rng = random.Random(20050830)
        key_seed, build_seed = rng.randrange(2**31), rng.randrange(2**31)
        peer_keys = datasets.workload_keys("P1.0", 256, 25, seed=key_seed)
        _clear_memo()
        tracemalloc.start()
        try:
            build_overlay(peer_keys, rng=build_seed)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        held = sum(
            stat.size for stat in snapshot.statistics("filename")
            if stat.traceback[0].filename.endswith("core/probabilities.py")
        )
        assert held <= 2 * 2**20, f"{held / 2**20:.2f} MiB"


class TestInteractionCounts:
    def test_t_star_constant_in_beta_regime(self):
        # Eq. (1): t* does not depend on p in the beta-regime.
        values = {pr.t_star(p) for p in [0.31, 0.4, 0.45, 0.5]}
        assert all(v == pytest.approx(LN2) for v in values)

    def test_t_star_grows_as_p_shrinks(self):
        assert pr.t_star(0.05) > pr.t_star(0.15) > pr.t_star(0.3) > 0

    def test_t_star_continuous_at_boundary(self):
        below = pr.t_star(pr.P_STAR - 1e-6)
        assert below == pytest.approx(LN2, rel=1e-3)

    def test_discrete_interactions_converge_to_n_ln2(self):
        assert pr.t_star_interactions(0.5, 10_000) == pytest.approx(
            10_000 * LN2, rel=1e-3
        )

    def test_discrete_interactions_alpha_regime(self):
        # Must agree with N * t_star(p) for large N.
        n = 100_000
        assert pr.t_star_interactions(0.1, n) == pytest.approx(
            n * pr.t_star(0.1), rel=1e-3
        )

    def test_rejects_tiny_population(self):
        with pytest.raises(DomainError):
            pr.t_star_interactions(0.5, 1)
