"""Problem construction, seeds, parity solves and the merged spectrum."""

import math
from fractions import Fraction

import numpy as np
import pytest

from oscspec import (
    EnergySequence,
    NoConvergence,
    OperatorConfig,
    Parity,
    StopRule,
    TailModel,
    apply_quantization,
    build_problem,
    compute_spectrum,
    growth_constant,
    iterate,
    merge_spectrum,
    seed_sequence,
    solve_parity,
)
from oscspec import oscillator, quantize
from oscspec.oscillator import sum_rule, sum_rule_err, sum_rule_start
from oscspec.quantize import ROOT_TOL, reciprocal_sum
from conftest import solved_parity


class TestGrowthConstant:
    def test_frozen_value_for_quartic(self):
        assert growth_constant(2) == pytest.approx(2.1850693003123776, abs=1e-12)

    def test_gamma_backend_sanity(self):
        # the log-gamma backend must reproduce the classic values the
        # formula leans on
        assert math.lgamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)
        for n in (2, 5, 9):
            assert math.lgamma(n) == pytest.approx(math.log(math.factorial(n - 1)), abs=1e-14)

    def test_positive_and_finite_for_large_m(self):
        for M in (2, 3, 5, 10, 30, 100):
            nu = growth_constant(M)
            assert math.isfinite(nu) and nu > 0

    def test_requires_m_at_least_two(self):
        with pytest.raises(ValueError, match="M must be at least 2"):
            growth_constant(1)


class TestBuildProblem:
    def test_quartic_even(self):
        problem = build_problem(2, Parity.EVEN)
        assert problem.kernel.theta == pytest.approx(math.pi / 3, abs=1e-15)
        assert problem.alpha == pytest.approx(4.0 / 3.0, abs=1e-15)
        assert problem.offsets.constant == pytest.approx(-2.0 / 3.0, abs=1e-15)

    def test_quartic_odd(self):
        problem = build_problem(2, Parity.ODD)
        assert problem.offsets.constant == pytest.approx(-1.0 / 3.0, abs=1e-15)

    def test_offset_constant_is_the_correctly_rounded_family_value(self):
        # c(l) = (2l - M) / (2(M + 1)), l = -1 even and l = 0 odd, to the last bit
        for M in range(2, 200):
            for parity, l in ((Parity.EVEN, -1), (Parity.ODD, 0)):
                exact = float(Fraction(2 * l - M, 2 * (M + 1)))
                assert build_problem(M, parity).offsets.constant == exact, (M, parity)

    def test_angle_and_exponent_formulas(self):
        for M in range(2, 13):
            problem = build_problem(M, Parity.EVEN)
            assert problem.kernel.theta == (M - 1) * math.pi / (M + 1)
            assert problem.alpha == 2.0 * M / (M + 1.0)
            assert problem.alpha == pytest.approx(1.0 + problem.kernel.theta / math.pi,
                                                  abs=4e-16)

    def test_admissibility_margin_first_level(self):
        problem = build_problem(2, Parity.EVEN)
        # Q_1 = 1/3 while the lower barrier is (1/2)(1/3) = 1/6
        q1 = problem.offsets.values(1)[0]
        assert q1 == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert q1 > 0.5 * problem.kernel.theta / math.pi

    def test_admissibility_explicit_scan(self):
        for M in (2, 3, 4, 5):
            for parity in Parity:
                problem = build_problem(M, parity)
                k = np.arange(1, 10_001, dtype=float)
                barrier = (k - 0.5) * problem.kernel.theta / math.pi
                assert np.all(problem.offsets.values(10_000) > barrier)

    def test_rejects_harmonic(self):
        # growth_constant owns the rule, before the kernel angle is formed
        for M in (1, 0, -3):
            with pytest.raises(ValueError, match="M must be at least 2"):
                build_problem(M, Parity.EVEN)


class TestSeed:
    def test_first_entry_and_tail(self):
        problem = build_problem(2, Parity.EVEN)
        seed = seed_sequence(problem, 16)
        amp = 2.0**problem.alpha * problem.nu
        assert seed.values[0] == pytest.approx(amp, rel=1e-15)
        assert seed.tail.amplitude == pytest.approx(amp, rel=1e-15)
        assert seed.tail.exponent == problem.alpha

    def test_doubling_ratio(self):
        problem = build_problem(3, Parity.ODD)
        seed = seed_sequence(problem, 64)
        ratio = seed.values[2 * np.arange(1, 33) - 1] / seed.values[np.arange(1, 33) - 1]
        assert np.allclose(ratio, 2.0**problem.alpha, rtol=1e-14)


class TestSolveParity:
    def test_converges_and_restarts_cleanly(self, m2_even_300):
        problem, cfg, fixed, trace = m2_even_300
        assert trace.residual_sup[-1] <= 1e-12
        again = apply_quantization(fixed, problem.offsets, problem.kernel, cfg)
        drift = np.max(np.abs(np.log(again.values) - np.log(fixed.values)))
        assert drift <= 10 * ROOT_TOL

    def test_scaled_seed_converges_to_same_fixed_point(self, m2_even_300):
        # values-only rescale keeps the tail normalization, so the offsets pin
        # the scale back to the same fixed point
        problem, cfg, fixed, _ = m2_even_300
        seed = seed_sequence(problem, cfg.truncation)
        start = seed.with_values(3.0 * seed.values)
        from oscspec import iterate

        trace = iterate(start, problem.offsets, problem.kernel, cfg,
                        StopRule(max_steps=300, target_residual=1e-12))
        gap = np.max(np.abs(np.log(trace.iterates[-1].values) - np.log(fixed.values)))
        assert gap <= 1e-8

    def test_normalization_approach(self, m2_even_500):
        problem, cfg, fixed, _ = m2_even_500
        amp = 2.0**problem.alpha * problem.nu
        k = np.arange(1, cfg.truncation + 1, dtype=float)
        deviation = np.abs(fixed.values * k**-problem.alpha - amp)
        n = cfg.truncation
        assert deviation[-1] <= 0.05 * amp
        assert deviation[n - 1] < deviation[n // 2 - 1] < deviation[n // 8 - 1]


class TestMergeSpectrum:
    TAIL = TailModel(5.0, 1.5)

    def test_interleaves(self):
        even = EnergySequence([1.0, 3.0], self.TAIL)
        odd = EnergySequence([2.0, 4.0], self.TAIL)
        result = merge_spectrum(even, odd)
        assert np.array_equal(result, [1.0, 2.0, 3.0, 4.0])

    def test_rejects_non_interlacing(self):
        even = EnergySequence([1.0, 1.5], self.TAIL)
        odd = EnergySequence([2.0, 4.0], self.TAIL)
        with pytest.raises(NoConvergence, match="merged levels not strictly increasing"):
            merge_spectrum(even, odd)

    def test_rejects_length_mismatch(self):
        even = EnergySequence([1.0], self.TAIL)
        odd = EnergySequence([2.0, 4.0], self.TAIL)
        with pytest.raises(NoConvergence, match="parity prefixes differ in length"):
            merge_spectrum(even, odd)

    def test_computed_spectrum_strictly_increasing(self, m2_even_300, m2_odd_300):
        _, _, even, _ = m2_even_300
        _, _, odd, _ = m2_odd_300
        result = merge_spectrum(even, odd)
        assert np.all(np.diff(result) > 0)


def test_compute_spectrum_collects_diagnostics():
    result = compute_spectrum(2, OperatorConfig(truncation=60),
                              StopRule(max_steps=200, target_residual=1e-10))
    assert set(result.residuals) == {"even", "odd"}
    assert set(result.iterations) == {"even", "odd"}
    assert len(result.energies) == 120
    assert np.all(np.diff(result.energies) > 0)


def test_parity_interlacing_of_fixed_points(m2_even_300, m2_odd_300):
    _, _, even, _ = m2_even_300
    _, _, odd, _ = m2_odd_300
    assert np.all(even.values < odd.values)
    assert np.all(odd.values[:-1] < even.values[1:])


def test_seed_iteration_rate_near_prediction(m2_odd_300):
    # sup residuals of the plain Picard run from the seed decay geometrically
    # at a ratio close to the predicted alpha - 1 = 1/3 (realized by the
    # odd-parity problem); solve_parity is accelerated, so its trace is not used
    problem, cfg, _, _ = m2_odd_300
    trace = iterate(seed_sequence(problem, 300), problem.offsets, problem.kernel, cfg,
                    StopRule(max_steps=400, target_residual=1e-12))
    ratios = np.array(trace.residual_sup[1:]) / np.array(trace.residual_sup[:-1])
    window = ratios[4:16]
    assert np.all(window > 0.27)
    assert np.all(window < 0.36)


class TestAcceleratedSolve:
    """solve_parity runs iterate with Newton steps; Picard is the reference."""

    N = 300
    STOP = StopRule(max_steps=400, target_residual=1e-11)

    @pytest.mark.parametrize("M", [2, 3])
    @pytest.mark.parametrize("parity", list(Parity))
    def test_same_fixed_point_in_half_the_steps(self, M, parity):
        problem = build_problem(M, parity)
        cfg = OperatorConfig(truncation=self.N)
        fixed, trace = solve_parity(problem, cfg, self.STOP)
        picard = iterate(seed_sequence(problem, self.N), problem.offsets, problem.kernel, cfg,
                         self.STOP)
        gap = np.max(np.abs(np.log(fixed.values) - np.log(picard.iterates[-1].values)))
        assert gap <= 5e-11
        assert 2 * trace.steps <= picard.steps
        assert len(trace.iterates) == trace.steps + 1
        assert trace.residual_sup[-1] <= self.STOP.target_residual
        assert fixed is trace.iterates[-1]
        image = apply_quantization(trace.iterates[-2], problem.offsets, problem.kernel, cfg)
        assert np.array_equal(image.values, fixed.values)

    @pytest.mark.parametrize("M", [2, 3])
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_fixed_point_keeps_the_seed_tail(self, M, parity):
        # every Newton point and image carries the seed's tail model unchanged
        problem, _, fixed, _ = solved_parity(M, parity, 1500)
        assert fixed.tail == seed_sequence(problem, 1500).tail

    def test_scaled_seed_converges_to_same_fixed_point(self, m2_even_300):
        problem, cfg, fixed, _ = m2_even_300
        seed = seed_sequence(problem, cfg.truncation)
        trace = iterate(seed.with_values(3.0 * seed.values), problem.offsets, problem.kernel,
                        cfg, StopRule(max_steps=300, target_residual=1e-12), newton=True)
        gap = np.max(np.abs(np.log(trace.iterates[-1].values) - np.log(fixed.values)))
        assert gap <= 1e-8


def _sup_log_gap(a, b):
    return float(np.max(np.abs(np.log(a) - np.log(b))))


class TestSumRule:
    """Z(1) = sum_k 1/E_k per parity, in closed form."""

    # the values of the closed form, even / odd, for M = 2 to 5
    VALUES = {2: (1.5266058695469449, 0.7633029347734724),
              3: (1.2171755670194815, 0.5041706276486315),
              4: (1.0810656401562562, 0.41293033047002686),
              5: (0.996252395529806, 0.364653685345011)}

    def test_reproduces_the_closed_form_values(self):
        for M, (even, odd) in self.VALUES.items():
            assert sum_rule(M, Parity.EVEN) == pytest.approx(even, rel=1e-14, abs=0)
            assert sum_rule(M, Parity.ODD) == pytest.approx(odd, rel=1e-14, abs=0)

    def test_parity_ratio(self):
        for M in range(2, 101):
            ratio = sum_rule(M, Parity.EVEN) / sum_rule(M, Parity.ODD)
            assert ratio == pytest.approx(1 + 2 * math.cos(math.pi / (M + 1)), rel=1e-15, abs=0)

    def test_finite_at_huge_m(self):
        # Gamma(1/beta) and the sines take arguments near 0 there; the square
        # well's sums are 1/2 (even) and 1/6 (odd)
        for M in (10**4, 10**7):
            even, odd = sum_rule(M, Parity.EVEN), sum_rule(M, Parity.ODD)
            assert math.isfinite(even) and math.isfinite(odd)
            assert even == pytest.approx(0.5, rel=5e-3) and odd == pytest.approx(1 / 6, rel=5e-3)
            assert even / odd == pytest.approx(1 + 2 * math.cos(math.pi / (M + 1)), rel=1e-15)

    @pytest.mark.parametrize("M", [2, 3])
    def test_matches_the_bessel_integral(self, M):
        # Z(1) = (1/beta) int_0^inf q I_(-+nu)(z) K_nu(z) dq, z = q**beta / beta,
        # nu = 1/(2 beta), integrated in z: z = t**4 on [0, 1], then [1, inf)
        from scipy import integrate, special

        beta = M + 1.0
        nu = 0.5 / beta
        for parity, order in ((Parity.EVEN, -nu), (Parity.ODD, nu)):
            def integrand(z):
                return ((beta * z) ** (2.0 / beta - 1.0) / beta
                        * special.ive(order, z) * special.kve(nu, z))

            rule = dict(epsabs=0.0, epsrel=1e-13, limit=200)
            near = integrate.quad(lambda t: integrand(t**4) * 4.0 * t**3, 0.0, 1.0, **rule)[0]
            far = integrate.quad(integrand, 1.0, np.inf, **rule)[0]
            assert sum_rule(M, parity) == pytest.approx(near + far, rel=1e-13, abs=0)

    def test_rejects_harmonic(self):
        with pytest.raises(ValueError, match="M must be at least 2"):
            sum_rule(1, Parity.ODD)

    @pytest.mark.parametrize("M", [2, 3])
    def test_error_falls_as_one_over_n(self, M):
        stop = StopRule(max_steps=400, target_residual=1e-11)
        errors = [compute_spectrum(M, OperatorConfig(truncation=n), stop).sum_rule_err
                  for n in (250, 1000)]
        for parity in ("even", "odd"):
            assert errors[0][parity] < 0 and errors[1][parity] < 0
            assert abs(errors[0][parity]) >= 3.5 * abs(errors[1][parity]), parity

    def test_error_is_the_reciprocal_sum_against_the_closed_form(self, m2_odd_300):
        problem, _, fixed, _ = m2_odd_300
        z = sum_rule(2, Parity.ODD)
        assert sum_rule_err(problem, fixed) == reciprocal_sum(fixed) / z - 1.0
        tail_values, tail_weights = quantize._tail_rule(len(fixed), fixed.tail)
        assert reciprocal_sum(fixed) == pytest.approx(
            np.sum(1.0 / fixed.values) + np.sum(tail_weights / tail_values), rel=1e-14)


class TestSumRuleStart:
    """Starts fitted to the sum rule: same fixed points, fewer Newton steps."""

    STOP = StopRule(max_steps=400, target_residual=1e-11)
    # total Newton steps (even + odd) of compute_spectrum from seed_sequence
    SEED_STEPS = {(2, 1500): 9, (3, 1500): 10, (4, 1500): 10, (5, 1500): 11, (8, 500): 11,
                  (30, 250): 10, (100, 250): 10, (300, 250): 9, (1000, 250): 10,
                  (2, 20000): 9, (2, 100000): 9}

    @pytest.mark.parametrize("M, n", [(2, 1500), (3, 1500)])
    def test_three_steps_per_parity(self, M, n):
        result = compute_spectrum(M, OperatorConfig(truncation=n), self.STOP)
        assert result.iterations == {"even": 3, "odd": 3}

    @pytest.mark.parametrize("M, n", list(SEED_STEPS))
    def test_no_more_steps_than_the_seed(self, M, n):
        result = compute_spectrum(M, OperatorConfig(truncation=n), self.STOP)
        assert sum(result.iterations.values()) <= self.SEED_STEPS[M, n]
        assert max(result.residuals.values()) <= self.STOP.target_residual

    @pytest.mark.parametrize("M", [2, 3, 4, 5])
    def test_same_spectrum_as_from_the_seed(self, M):
        # against a seed-started reference to 1e-14: the stopping error of 1e-11
        n = 300
        cfg = OperatorConfig(truncation=n)
        result = compute_spectrum(M, cfg, self.STOP)
        reference = {}
        for parity in Parity:
            problem = build_problem(M, parity)
            reference[parity] = solve_parity(problem, cfg,
                                             StopRule(max_steps=400, target_residual=1e-14),
                                             start=seed_sequence(problem, n))[0]
        gap = _sup_log_gap(result.energies,
                           merge_spectrum(reference[Parity.EVEN], reference[Parity.ODD]))
        assert gap <= (2.5e-12 if M <= 3 else 3e-11)

    @pytest.mark.parametrize("M", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_smallest_truncations(self, M, n):
        cfg = OperatorConfig(truncation=n)
        result = compute_spectrum(M, cfg, self.STOP)
        assert len(result.energies) == 2 * n
        assert max(result.residuals.values()) <= self.STOP.target_residual
        for parity in Parity:
            problem = build_problem(M, parity)
            fixed = solve_parity(problem, cfg, self.STOP, start=seed_sequence(problem, n))[0]
            start = 0 if parity is Parity.EVEN else 1
            assert _sup_log_gap(result.energies[start::2], fixed.values) <= 1e-10

    @pytest.mark.parametrize("M", [2, 3, 30])
    @pytest.mark.parametrize("parity", list(Parity))
    def test_seed_start_reproduces_the_plain_newton_trace(self, M, parity):
        problem = build_problem(M, parity)
        cfg = OperatorConfig(truncation=250)
        seed = seed_sequence(problem, 250)
        fixed, trace = solve_parity(problem, cfg, self.STOP, start=seed)
        plain = iterate(seed, problem.offsets, problem.kernel, cfg, self.STOP, newton=True)
        assert trace.residual_sup == plain.residual_sup
        assert len(trace.iterates) == len(plain.iterates)
        assert all(np.array_equal(a.values, b.values)
                   for a, b in zip(trace.iterates, plain.iterates))
        assert fixed is trace.iterates[-1]

    @pytest.mark.parametrize("M", [2, 3, 1000])
    def test_fitted_start_meets_the_sum_rule(self, M):
        for parity in Parity:
            problem = build_problem(M, parity)
            start = sum_rule_start(problem, 500)
            seed = seed_sequence(problem, 500)
            assert start.tail == seed.tail
            assert abs(sum_rule_err(problem, start)) <= 1e-13
            # the WKB shifts -3/4 and -1/4 at small M, the square well's -1/2
            # and 0 at large M
            shift = (start.values[0] / seed.values[0]) ** (1.0 / problem.alpha) - 1.0
            expected = {2: (-0.711, -0.244), 3: (-0.68, -0.24), 1000: (-0.504, -0.008)}[M]
            assert shift == pytest.approx(expected[parity is Parity.ODD], abs=0.02)

    def test_nonpositive_ground_state_falls_back_to_extrapolation(self, monkeypatch):
        cfg = OperatorConfig(truncation=300)
        expected = compute_spectrum(2, cfg, self.STOP)
        odd = solve_parity(build_problem(2, Parity.ODD), cfg, self.STOP)[0]
        problem = build_problem(2, Parity.EVEN)
        # the true Z_even places the ground state inside (0, X_2)
        assert abs(sum_rule_err(problem, oscillator._interlaced_start(problem, odd))) <= 1e-13
        real = oscillator.sum_rule

        # a tenth of Z_even leaves nothing for the ground state: Z - rest < 0
        def shrunk(M, parity):
            return real(M, parity) * (0.1 if parity is Parity.EVEN else 1.0)

        monkeypatch.setattr(oscillator, "sum_rule", shrunk)
        start = oscillator._interlaced_start(problem, odd)
        t = (odd.values[:2] / problem.nu) ** (1.0 / problem.alpha)
        extrapolated = problem.nu * (1.5 * t[0] - 0.5 * t[1]) ** problem.alpha
        assert start.values[0] == pytest.approx(extrapolated, rel=1e-14)
        result = compute_spectrum(2, cfg, self.STOP)
        assert _sup_log_gap(result.energies, expected.energies) <= 1e-11
