"""Drift and contraction integrals, brackets, rate fits."""

import math

import numpy as np
import pytest

from oscspec import (
    BracketKind,
    DerivativeMatrix,
    DomainError,
    EnergySequence,
    InsufficientData,
    IterationTrace,
    KernelParams,
    OperatorConfig,
    TailModel,
    contraction_closed,
    contraction_factor,
    contraction_integral,
    critical_exponent,
    critical_exponent_from_drift,
    drift_closed,
    drift_integral,
    empirical_rate,
    lower_bracket,
    spectral_rate_estimate,
    upper_bracket,
    verify_bracket,
)
from oscspec import asymptotics

THETA_GRID = (math.pi / 6, math.pi / 3, math.pi / 2, 2 * math.pi / 3, 5 * math.pi / 6)
ALPHA_GRID = (1.1, 1.5, 2.0, 3.0, 8.0)
EPS_GRID = (0.1, 0.5, 1.0, 1.5, 1.9)


class TestDrift:
    def test_unit_drift_at_critical_exponent(self):
        kp = KernelParams(math.pi / 3)
        assert drift_integral(4.0 / 3.0, kp) == pytest.approx(1.0, abs=1e-9)

    def test_square_exponent_value(self):
        kp = KernelParams(math.pi / 2)
        assert drift_integral(2.0, kp) == pytest.approx(math.sin(math.pi / 4), abs=1e-9)

    def test_large_exponent_limit(self):
        kp = KernelParams(math.pi / 3)
        limit = kp.theta / math.pi
        assert drift_integral(64.0, kp) == pytest.approx(limit, rel=0.02)

    def test_domain(self):
        kp = KernelParams(1.0)
        for alpha in (1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                drift_integral(alpha, kp)
        with pytest.raises(DomainError):
            drift_closed(0.7, kp)

    def test_closed_refuses_non_finite_exponents(self):
        # as drift_integral does
        kp = KernelParams(1.0)
        for alpha in (math.inf, math.nan):
            with pytest.raises(DomainError):
                drift_closed(alpha, kp)

    def test_closed_unit_at_critical(self):
        for theta in THETA_GRID:
            kp = KernelParams(theta)
            assert drift_closed(critical_exponent(kp), kp) == pytest.approx(1.0, abs=1e-14)

    def test_closed_square_exponent(self):
        assert drift_closed(2.0, KernelParams(math.pi / 2)) == pytest.approx(
            math.sqrt(2.0) / 2.0, abs=1e-15)

    def test_closed_strictly_decreasing(self):
        kp = KernelParams(2 * math.pi / 3)
        grid = np.linspace(1.05, 10.0, 40)
        vals = [drift_closed(a, kp) for a in grid]
        assert np.all(np.diff(vals) < 0)

    @pytest.mark.parametrize("theta, alpha, exact", [
        # 60-digit values of sin(theta/alpha) / sin(pi/alpha) at the float inputs
        (math.pi / 3, 1.000000000001, 275639943159.54168735),
        (math.pi / 3, 1.000000001, 275664425.01131700016),
        (math.pi / 3, 1.000001, 275664.55673165733737),
        (3.141592653489793, 1.000000001, 1.0318310276000941669),
        (3.141492653589793, 1.0001, 1.318309870185595261),
    ])
    def test_closed_exact_next_to_one_and_pi(self, theta, alpha, exact):
        # pi/alpha, and theta/alpha next to pi, round near pi, where the sine
        # has lost its digits unless it is read at the reflected argument
        assert abs(drift_closed(alpha, KernelParams(theta)) - exact) <= 4e-16 * exact

    def test_integral_matches_closed_on_grid(self):
        worst = 0.0
        for theta in THETA_GRID:
            kp = KernelParams(theta)
            for alpha in ALPHA_GRID:
                worst = max(worst, abs(drift_integral(alpha, kp) - drift_closed(alpha, kp)))
        assert worst <= 1e-9

    def test_integral_matches_closed_at_large_exponent(self):
        # the atan2 integrand turns over within O(1/alpha) of s = 1; read as
        # the contraction integral at eps = 1 - a/alpha it stays smooth, and
        # at 1e308, where 2 alpha overflows, eps rounds to 1 and gives theta/pi
        for theta in THETA_GRID:
            kp = KernelParams(theta)
            for alpha in (1e3, 1e4, 3e4, 1e5, 1e6, 1e308):
                closed = drift_closed(alpha, kp)
                assert abs(drift_integral(alpha, kp) - closed) <= 1e-13 * closed
        # small theta makes theta/alpha subnormal, or zero, in the closed form
        for theta in (1e-9, 1e-6):
            kp = KernelParams(theta)
            closed = drift_closed(1e308, kp)
            assert abs(drift_integral(1e308, kp) - closed) <= 1e-13 * closed
        tiny = 1e-300
        assert drift_closed(1e30, KernelParams(tiny)) == pytest.approx(tiny / math.pi, rel=1e-15)

    def test_integral_matches_closed_next_to_one(self):
        # the drift grows like 1/(alpha - 1); its distance to the strip edge,
        # a (alpha - 1)/alpha, has to reach the series exact, since the
        # contraction integral's eps = 1 - a/alpha rounds there
        for theta in THETA_GRID:
            kp = KernelParams(theta)
            for excess in (1e-15, 1e-12, 1e-9, 1e-6):
                closed = drift_closed(1.0 + excess, kp)
                assert abs(drift_integral(1.0 + excess, kp) - closed) <= 2e-15 * closed

    def test_integral_matches_closed_next_to_pi(self):
        # the pair kernel peaks at t = 1 with width cos(theta/2) as theta -> pi
        for gap in (1e-6, 1e-8, 1e-10):
            kp = KernelParams(math.pi - gap)
            for alpha in ALPHA_GRID:
                closed = drift_closed(alpha, kp)
                assert abs(drift_integral(alpha, kp) - closed) <= 1e-13 * closed


class TestCriticalExponent:
    def test_closed_values(self):
        assert critical_exponent(KernelParams(math.pi / 3)) == pytest.approx(4.0 / 3.0, abs=1e-15)
        assert critical_exponent(KernelParams(math.pi / 2)) == pytest.approx(1.5, abs=1e-15)

    def test_bisection_agrees(self):
        for theta in (math.pi / 3, 2 * math.pi / 3):
            kp = KernelParams(theta)
            root = critical_exponent_from_drift(kp)
            assert abs(root - critical_exponent(kp)) <= 1e-10

    def test_root_outside_the_bracket_is_a_domain_error(self):
        # at theta = 1e-7 the drift stays below 1 even at alpha = 1 + 1e-6
        with pytest.raises(DomainError):
            critical_exponent_from_drift(KernelParams(1e-7))


class TestContraction:
    def test_symmetry_of_integral(self):
        kp = KernelParams(math.pi / 3)
        for eps in (0.3, 0.7):
            assert contraction_integral(eps, kp) == pytest.approx(
                contraction_integral(2.0 - eps, kp), abs=1e-10)

    def test_divergence_marker(self):
        kp = KernelParams(math.pi / 3)  # strip half-width 4/3
        assert math.isinf(contraction_integral(2.5, kp))
        assert math.isinf(contraction_integral(-0.5, kp))
        assert math.isinf(contraction_closed(2.5, kp))

    def test_limit_value_at_one(self):
        kp = KernelParams(math.pi / 3)
        expected = kp.theta / (critical_exponent(kp) * kp.sin)  # = pi / (2 sqrt 3)
        assert contraction_integral(1.0, kp) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(math.pi / (2.0 * math.sqrt(3.0)), abs=1e-15)

    def test_closed_matches_integral_on_grid(self):
        worst = 0.0
        for theta in THETA_GRID:
            kp = KernelParams(theta)
            for eps in EPS_GRID:
                if abs(eps - 1.0) >= critical_exponent(kp):
                    continue
                worst = max(worst, abs(contraction_integral(eps, kp) - contraction_closed(eps, kp)))
        assert worst <= 1e-9

    def test_integral_matches_closed_next_to_the_strip_edge(self):
        # the tail's first series term 2**(b - a) / (a - b), b = 1 - eps, holds
        # the divergence in closed form as |eps - 1| approaches the half-width a
        for theta in THETA_GRID:
            kp = KernelParams(theta)
            a = critical_exponent(kp)
            for eps in (1.0 + 0.99 * a, 1.0 - 0.99 * a, 1.0 + 0.999 * a, 1.0 - 0.999 * a):
                closed = contraction_closed(eps, kp)
                assert abs(contraction_integral(eps, kp) - closed) <= 1e-11 * closed

    def test_integral_matches_closed_at_small_angle(self):
        # as theta -> 0 the tail series alternates with U_{n-1}(-cos theta)
        # -> (-1)**(n-1) n; with U as sin(n (pi - theta)) / sin(theta) the
        # integral is 2.4e-10 off at theta = 1e-6
        for theta in (1e-6, 1e-4, 1e-2):
            kp = KernelParams(theta)
            a = critical_exponent(kp)
            for eps in (*EPS_GRID, 1.0 + 0.99 * a, 1.0 - 0.99 * a, 1.0 + 0.999 * a,
                        1.0 - 0.999 * a):
                closed = contraction_closed(eps, kp)
                assert abs(contraction_integral(eps, kp) - closed) <= 1e-12 * closed
            for alpha in ALPHA_GRID:
                closed = drift_closed(alpha, kp)
                assert abs(drift_integral(alpha, kp) - closed) <= 1e-12 * closed

    def test_closed_is_exact_next_to_the_strip_edge(self):
        # sin(gap pi / a) of a rounded argument next to +-pi put the closed
        # form 4e-8 off at theta = 1e-9, eps = 0, and 1e-13 off at 0.999 of
        # the edge, as sin(gap theta / a) did 7.5e-14 off next to theta = pi;
        # the integral is accurate to rounding in all these places
        for theta in (1e-9, 1e-6, 1e-4):
            kp = KernelParams(theta)
            closed = contraction_closed(0.0, kp)
            assert abs(contraction_integral(0.0, kp) - closed) <= 2e-15 * closed
        for theta in (*THETA_GRID, 1e-2, *(math.pi - d for d in (1e-2, 1e-4, 1e-6, 1e-10))):
            kp = KernelParams(theta)
            a = critical_exponent(kp)
            for eps in (1.0 + 0.99 * a, 1.0 - 0.99 * a, 1.0 + 0.999 * a, 1.0 - 0.999 * a):
                closed = contraction_closed(eps, kp)
                assert abs(contraction_integral(eps, kp) - closed) <= 2e-15 * closed

    def test_integral_matches_closed_next_to_pi(self):
        # the head's peak at s = 1 narrows like cos(theta/2) as theta -> pi
        for gap in (3e-4, 1e-6):
            kp = KernelParams(math.pi - gap)
            for eps in (0.1, 0.5, 1.0, 1.5, 1.9):
                closed = contraction_closed(eps, kp)
                assert abs(contraction_integral(eps, kp) - closed) <= 1e-10 * closed

    def test_closed_symmetry_exact(self):
        kp = KernelParams(2 * math.pi / 3)
        for eps in (0.2, 0.45, 0.8, 1.3):
            assert contraction_closed(eps, kp) == pytest.approx(
                contraction_closed(2.0 - eps, kp), abs=1e-12)

    def test_zero_weight_value(self):
        # at eps = 0 the integral reduces to the unit drift times pi/(a sin theta)
        kp = KernelParams(math.pi / 3)
        a = critical_exponent(kp)
        assert contraction_closed(0.0, kp) == pytest.approx(math.pi / (a * kp.sin), rel=1e-13)

    def test_factor_equals_excess_exponent_at_one(self):
        report = contraction_factor(1.0, KernelParams(math.pi / 3))
        assert report.factor == pytest.approx(1.0 / 3.0, abs=1e-13)
        report = contraction_factor(1.0, KernelParams(math.pi / 2))
        assert report.factor == pytest.approx(0.5, abs=1e-13)

    def test_factor_below_one_inside_strip(self):
        for theta in (math.pi / 3, math.pi / 2):
            kp = KernelParams(theta)
            for eps in EPS_GRID:
                report = contraction_factor(eps, kp)
                assert report.factor < 1.0

    def test_factor_minimal_at_one(self):
        kp = KernelParams(math.pi / 3)
        factors = [contraction_factor(e, kp).factor for e in (0.2, 0.6, 1.0, 1.4, 1.8)]
        assert factors[2] == min(factors)
        assert factors[0] > factors[1] > factors[2] < factors[3] < factors[4]


class TestSpectralRateEstimate:
    def test_near_identity(self):
        n = 24
        entries = np.full((n, n), 1e-9)
        np.fill_diagonal(entries, 1.0 - (n - 1) * 1e-9)
        D = DerivativeMatrix(entries, np.zeros(n))
        assert spectral_rate_estimate(D, 1.0, 12) == pytest.approx(1.0, abs=5e-2)

    def test_needs_steps(self):
        D = DerivativeMatrix(np.array([[1.0]]), np.zeros(1))
        for steps in (1, 2):
            with pytest.raises(InsufficientData, match="three steps"):
                spectral_rate_estimate(D, 1.0, steps)

    def test_weight_dependence_minimal_at_one(self, m2_odd_300):
        # over short windows the weighted decay reflects the predicted
        # contraction integrals, which bottom out at unit weight; long windows
        # all converge to the single dominant eigenvalue of the truncation
        problem, cfg, fixed, _ = m2_odd_300
        from oscspec import apply_quantization, derivative_matrix

        image = apply_quantization(fixed, problem.offsets, problem.kernel, cfg)
        D = derivative_matrix(fixed, image, problem.kernel, cfg)
        grid = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75)
        rates = [spectral_rate_estimate(D, eps, 8) for eps in grid]
        tol = 1e-12
        assert all(a >= b - tol for a, b in zip(rates[:4], rates[1:4]))
        assert all(a <= b + tol for a, b in zip(rates[3:], rates[4:]))


class TestBrackets:
    KP = KernelParams(math.pi / 3)

    def test_upper_values(self):
        seq = upper_bracket(0.0, 5, self.KP)
        assert seq.values[0] == pytest.approx(1.0, abs=0)
        grown = upper_bracket(3.0, 5, self.KP)
        assert np.all(np.diff(seq.values) > 0)
        assert np.all(grown.values > seq.values)

    def test_upper_tail_continues_prefix(self):
        seq = upper_bracket(10.0, 50, self.KP)
        k = np.arange(51, 60, dtype=float)
        assert np.allclose(seq.tail.value(k), (k + 10.0) ** critical_exponent(self.KP), rtol=1e-14)

    def test_lower_staircase_corner(self):
        n_param = 3
        seq = lower_bracket(n_param, 60, self.KP)
        corner = n_param * n_param
        assert seq.values[corner - 1] == pytest.approx(
            float(n_param) ** critical_exponent(self.KP), rel=1e-14)
        assert np.all(seq.values > 0)
        assert np.all(np.diff(seq.values) >= 0)

    def test_lower_requires_room(self):
        with pytest.raises(DomainError):
            lower_bracket(6, 36, self.KP)
        with pytest.raises(DomainError):
            lower_bracket(1, 100, self.KP)

    def test_upper_certifies_super(self):
        from oscspec import build_problem, Parity

        problem = build_problem(2, Parity.EVEN)
        cfg = OperatorConfig(truncation=200)
        cert = verify_bracket(upper_bracket(100.0, 200, problem.kernel), problem.offsets,
                              problem.kernel, cfg, kind=BracketKind.SUPER)
        assert cert.verified
        assert cert.max_violation < 0

    def test_lower_certifies_sub(self):
        from oscspec import build_problem, Parity

        problem = build_problem(2, Parity.EVEN)
        cfg = OperatorConfig(truncation=200)
        cert = verify_bracket(lower_bracket(6, 200, problem.kernel), problem.offsets,
                              problem.kernel, cfg, kind=BracketKind.SUB)
        assert cert.verified

    def test_fixed_point_satisfies_both(self, m2_even_300):
        problem, cfg, fixed, _ = m2_even_300
        for kind in BracketKind:
            cert = verify_bracket(fixed, problem.offsets, problem.kernel, cfg, kind=kind)
            assert cert.verified, f"{kind}: violation {cert.max_violation}"

    def test_scaled_fixed_point_still_both(self, m2_even_300):
        # dilatation equivariance makes phi(1.5 P, 1.5 P_j) = phi(P, P_j): the
        # certificate is an order statement, not a uniqueness statement
        problem, cfg, fixed, _ = m2_even_300
        scaled = fixed.scaled(1.5)
        for kind in BracketKind:
            cert = verify_bracket(scaled, problem.offsets, problem.kernel, cfg, kind=kind)
            assert cert.verified

    def test_wrong_hypothesis_fails_certification(self):
        from oscspec import build_problem, Parity

        problem = build_problem(2, Parity.EVEN)
        cfg = OperatorConfig(truncation=200)
        cert = verify_bracket(upper_bracket(100.0, 200, problem.kernel), problem.offsets,
                              problem.kernel, cfg, kind=BracketKind.SUB)
        assert not cert.verified
        assert cert.max_violation > 1.0

    def test_super_threshold_is_finite(self):
        # every shift above the (problem-dependent) threshold certifies; for
        # the quartic even offsets the threshold turns out to be zero
        from oscspec import build_problem, Parity

        problem = build_problem(2, Parity.EVEN)
        cfg = OperatorConfig(truncation=200)
        for A in (0.0, 1.0, 10.0, 100.0, 1000.0):
            cert = verify_bracket(upper_bracket(A, 200, problem.kernel), problem.offsets,
                                  problem.kernel, cfg, kind=BracketKind.SUPER)
            assert cert.verified, f"A={A}"


class TestEmpiricalRate:
    @staticmethod
    def synthetic_trace(lam: float, steps: int,
                        size: float = 1.0) -> tuple[IterationTrace, EnergySequence]:
        tail = TailModel(1.0, 2.0)
        base = np.linspace(1.0, 3.0, 10)
        direction = np.linspace(size, 0.4 * size, 10)
        reference = EnergySequence(np.exp(base), tail)
        iterates = [
            EnergySequence(np.exp(base + lam**n * direction), tail) for n in range(steps)
        ]
        trace = IterationTrace(iterates=iterates, residual_sup=[0.0] * (steps - 1),
                               residual_weighted=[0.0] * (steps - 1))
        return trace, reference

    def test_exact_geometric(self):
        trace, reference = self.synthetic_trace(0.5, 14)
        assert empirical_rate(trace, reference, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_insufficient_iterates(self):
        trace, reference = self.synthetic_trace(0.5, 3)
        with pytest.raises(InsufficientData):
            empirical_rate(trace, reference, 0.0)

    def test_floor_strips_noise(self):
        # every error at or below the noise floor leaves nothing to fit; half
        # the floor keeps the first one below it despite rounding in exp/log
        trace, reference = self.synthetic_trace(0.5, 14, size=0.5 * asymptotics._RATE_FLOOR)
        with pytest.raises(InsufficientData):
            empirical_rate(trace, reference, 0.0)
