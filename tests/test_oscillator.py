"""Problem construction, seeds, parity solves and the merged spectrum."""

import math

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
from oscspec.oscillator import ANDERSON_HISTORY
from oscspec.quantize import ROOT_TOL
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
        with pytest.raises(ValueError):
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
        with pytest.raises(ValueError):
            build_problem(1, Parity.EVEN)


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
                    StopRule(max_steps=400, target_residual=1e-12), history=0)
    ratios = np.array(trace.residual_sup[1:]) / np.array(trace.residual_sup[:-1])
    window = ratios[4:16]
    assert np.all(window > 0.27)
    assert np.all(window < 0.36)


class TestAcceleratedSolve:
    """solve_parity runs Anderson-accelerated iterate; Picard is the reference."""

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
        # every mixed point and image carries the seed's tail model unchanged
        problem, _, fixed, _ = solved_parity(M, parity, 1500)
        assert fixed.tail == seed_sequence(problem, 1500).tail

    def test_scaled_seed_converges_to_same_fixed_point(self, m2_even_300):
        problem, cfg, fixed, _ = m2_even_300
        seed = seed_sequence(problem, cfg.truncation)
        trace = iterate(seed.with_values(3.0 * seed.values), problem.offsets, problem.kernel,
                        cfg, StopRule(max_steps=300, target_residual=1e-12),
                        history=ANDERSON_HISTORY)
        gap = np.max(np.abs(np.log(trace.iterates[-1].values) - np.log(fixed.values)))
        assert gap <= 1e-8
