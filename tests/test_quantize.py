"""Kernels, counting functions, the implicit solve and its derivative matrix."""

import math
import tracemalloc
from collections import deque

import numpy as np
import pytest

from oscspec import (
    BracketFailure,
    ConditionViolation,
    EnergySequence,
    KernelParams,
    LogSequence,
    NoConvergence,
    OffsetSequence,
    OperatorConfig,
    StopRule,
    TailModel,
    WeightedNorm,
    angle_kernel,
    apply_quantization,
    build_problem,
    counting_component,
    counting_derivative,
    derivative_kernel,
    derivative_matrix,
    hamiltonian_eigenvalues,
    iterate,
    parity_split,
    weighted_norm,
    Parity,
    OracleConfig,
    seed_sequence,
)
from oscspec.quantize import _LOG8, _anderson_point, _CountingPanels, _kernel_sums
from conftest import random_growth_sequence
from test_acceptance import THETA_GRID

# tail with a huge exponent pushes every extrapolated entry so high that the
# tail contribution to any kernel sum is numerically zero
FAR_TAIL = TailModel(1.0, 60.0)


def sup_log_distance(a: EnergySequence, b: EnergySequence) -> float:
    return float(np.max(np.abs(np.log(a.values) - np.log(b.values))))


class TestAngleKernel:
    def test_equal_energies_half_angle(self):
        kp = KernelParams(math.pi / 3)
        assert float(angle_kernel(kp, 5.0, 5.0)) == pytest.approx(math.pi / 6, abs=1e-15)

    def test_small_ratio_tends_to_theta(self):
        kp = KernelParams(2 * math.pi / 3)
        assert float(angle_kernel(kp, 1e-12, 1.0)) == pytest.approx(2 * math.pi / 3, abs=1e-10)

    def test_continuous_branch_negative_denominator(self):
        # ratio + cos(theta) = 0.25 - 0.5 < 0 exercises the upper branch
        kp = KernelParams(2 * math.pi / 3)
        got = float(angle_kernel(kp, 0.25, 1.0))
        expected = math.pi - math.atan(math.sin(2 * math.pi / 3) / 0.25)
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(1.85183, abs=1e-5)

    def test_decreasing_in_ratio_and_in_range(self, rng):
        kp = KernelParams(2.5)
        ratios = np.sort(np.exp(rng.uniform(-8, 8, size=60)))
        vals = np.asarray(angle_kernel(kp, ratios, 1.0))
        assert np.all(np.diff(vals) < 0)
        assert np.all((vals > 0) & (vals < math.pi))

    def test_large_ratio_tends_to_zero(self):
        kp = KernelParams(math.pi / 2)
        assert float(angle_kernel(kp, 1e14, 1.0)) == pytest.approx(0.0, abs=1e-13)


class TestDerivativeKernel:
    def test_equal_energies_right_angle(self):
        kp = KernelParams(math.pi / 2)
        assert float(derivative_kernel(kp, 3.0, 3.0)) == pytest.approx(0.5, abs=1e-15)

    def test_direct_substitution(self):
        kp = KernelParams(math.pi / 3)
        assert float(derivative_kernel(kp, 1.0, 2.0)) == pytest.approx(2.0 / 7.0, abs=1e-15)

    def test_vanishes_for_extreme_ratio(self):
        kp = KernelParams(1.0)
        assert float(derivative_kernel(kp, 1e120, 1.0)) == pytest.approx(0.0, abs=1e-100)

    def test_symmetry_and_scale_invariance(self, rng):
        kp = KernelParams(2.2)
        for _ in range(40):
            a, b = np.exp(rng.uniform(-10, 10, size=2))
            lam = math.exp(rng.uniform(-3, 3))
            assert float(derivative_kernel(kp, a, b)) == pytest.approx(
                float(derivative_kernel(kp, b, a)), rel=1e-14)
            assert float(derivative_kernel(kp, lam * a, lam * b)) == pytest.approx(
                float(derivative_kernel(kp, a, b)), rel=1e-13)


class TestCountingFunction:
    def test_constant_summand(self):
        kp = KernelParams(math.pi / 3)
        t, probe = 0.7, 3.0
        seq = EnergySequence(np.full(8, t * probe), FAR_TAIL)
        got = counting_component(seq, probe, kp, OperatorConfig(truncation=8))
        expected = 8.0 / math.pi * float(angle_kernel(kp, t * probe, probe))
        assert got == pytest.approx(expected, rel=1e-14)

    def test_strictly_increasing_in_probe(self, rng):
        kp = KernelParams(1.9)
        seq = random_growth_sequence(rng, 40)
        cfg = OperatorConfig(truncation=40)
        probes = np.sort(np.exp(rng.uniform(-1, 6, size=25)))
        vals = [counting_component(seq, p, kp, cfg) for p in probes]
        assert np.all(np.diff(vals) > 0)

    def test_matches_offsets_at_oracle_spectrum(self):
        # the true even spectrum satisfies the counting equations; residuals
        # here are dominated by the power-tail model standing in for the
        # untabulated levels, shrinking as the prefix grows
        problem = build_problem(2, Parity.EVEN)
        merged = hamiltonian_eigenvalues(2, 48, OracleConfig(grid_points=4096))
        even, _ = parity_split(merged)
        amp = 2.0**problem.alpha * problem.nu
        seq = EnergySequence(even, TailModel(amp, problem.alpha))
        cfg = OperatorConfig(truncation=len(even))
        residuals = [
            abs(counting_component(seq, seq.values[j], problem.kernel, cfg)
                - problem.offsets.value(j + 1))
            for j in range(5)
        ]
        assert residuals[0] <= 1e-3
        assert max(residuals) <= 0.02


class TestCountingDerivative:
    def test_single_entry(self):
        kp = KernelParams(math.pi / 2)
        seq = EnergySequence([5.0], FAR_TAIL)
        got = counting_derivative(seq, 5.0, kp, OperatorConfig(truncation=1))
        assert got == pytest.approx(0.5 / math.pi, abs=1e-8)

    def test_finite_difference(self, rng):
        kp = KernelParams(2.6)
        seq = random_growth_sequence(rng, 60)
        cfg = OperatorConfig(truncation=60)
        probe = 40.0
        h = 1e-5
        exact = counting_derivative(seq, probe, kp, cfg)
        fd = (counting_component(seq, probe * math.exp(h), kp, cfg)
              - counting_component(seq, probe * math.exp(-h), kp, cfg)) / (2 * h)
        assert fd == pytest.approx(exact, abs=5e-9)

    def test_positive(self, rng):
        kp = KernelParams(0.4)
        for _ in range(10):
            seq = random_growth_sequence(rng, 20)
            probe = math.exp(rng.uniform(-2, 6))
            assert counting_derivative(seq, probe, kp, OperatorConfig(truncation=20)) > 0


class TestOffsetSequence:
    def test_values_and_overrides(self):
        q = OffsetSequence(constant=-0.5, overrides=((1, 0.9), (3, 2.0)))
        assert q.value(1) == 0.9
        assert q.value(2) == 1.5
        assert q.value(3) == 2.0
        assert np.array_equal(q.values(4), [0.9, 1.5, 2.0, 3.5])
        assert q.o1_bound() == 1.0

    def test_validate_passes_admissible(self):
        OffsetSequence(constant=-2.0 / 3.0).validate(KernelParams(math.pi / 3))

    def test_validate_rejects_closed_form(self):
        # Q_k = k - 0.9 dips below (k - 1/2) theta/pi at k = 1 for theta near pi
        with pytest.raises(ConditionViolation) as err:
            OffsetSequence(constant=-0.9).validate(KernelParams(3.0))
        assert err.value.k == 1

    def test_validate_rejects_override(self):
        q = OffsetSequence(constant=0.0, overrides=((2, 0.01),))
        with pytest.raises(ConditionViolation) as err:
            q.validate(KernelParams(2.0))
        assert err.value.k == 2

    def test_duplicate_override_rejected(self):
        with pytest.raises(ValueError):
            OffsetSequence(constant=0.0, overrides=((2, 1.0), (2, 2.0)))


class TestApplyQuantization:
    CFG = OperatorConfig(truncation=48)

    def problem(self):
        return build_problem(2, Parity.EVEN)

    def test_roots_meet_tolerance(self, rng):
        problem = self.problem()
        seq = random_growth_sequence(rng, 48)
        # the shifted offsets put roots outside [min X / 8, 8 max X], above and
        # below, so the shared panel range widens at the top and at the bottom
        for offsets in (problem.offsets, OffsetSequence(constant=300.0),
                        OffsetSequence(constant=-0.3, overrides=((1, 0.05),))):
            out = apply_quantization(seq, offsets, problem.kernel, self.CFG)
            for j in (0, 5, 23, 47):
                phi = counting_component(seq, out.values[j], problem.kernel, self.CFG)
                assert abs(phi - offsets.value(j + 1)) <= 2 * self.CFG.root_tol

    def test_roots_on_panel_edges(self, rng):
        # a root exactly on a panel edge sits at the end of its bracket; a wrong
        # panel lookup would leave it outside, where the ulp-floor rule accepts
        # a wrong level without raising
        problem = self.problem()
        seq = random_growth_sequence(rng, 48)
        x_log = np.log(seq.values)
        panels = _CountingPanels(seq, problem.kernel, self.CFG,
                                 x_log.min() - _LOG8, x_log.max() + _LOG8)
        phi_edges = panels(panels.edges)[0]
        q = problem.offsets.values(48)
        # the operator builds these same panels: they already bracket every level
        assert phi_edges[0] < q.min() and phi_edges[-1] > q.max()
        assert panels.centers.size >= 3
        for j, value in enumerate(phi_edges[1:-1]):
            offsets = OffsetSequence(problem.offsets.constant, overrides=((j + 1, value),))
            out = apply_quantization(seq, offsets, problem.kernel, self.CFG)
            phi = counting_component(seq, out.values[j], problem.kernel, self.CFG)
            assert abs(phi - value) <= 2 * self.CFG.root_tol, j

    def test_dilatation_equivariance(self, rng):
        problem = self.problem()
        for lam in (0.13, 0.5, 2.0, 9.7):
            seq = random_growth_sequence(rng, 48)
            base = apply_quantization(seq, problem.offsets, problem.kernel, self.CFG)
            scaled = apply_quantization(seq.scaled(lam), problem.offsets,
                                        problem.kernel, self.CFG)
            shift = np.log(scaled.values) - np.log(base.values)
            assert np.max(np.abs(shift - math.log(lam))) <= 10 * self.CFG.root_tol

    def test_order_preservation(self, rng):
        problem = self.problem()
        seq = random_growth_sequence(rng, 48)
        bigger = seq.with_values(seq.values * np.exp(rng.uniform(0.0, 0.4, size=48)))
        lo = apply_quantization(seq, problem.offsets, problem.kernel, self.CFG)
        hi = apply_quantization(bigger, problem.offsets, problem.kernel, self.CFG)
        assert np.all(np.log(hi.values) >= np.log(lo.values) - 10 * self.CFG.root_tol)

    def test_one_lipschitz(self, rng):
        problem = self.problem()
        seq = random_growth_sequence(rng, 48)
        other = seq.with_values(seq.values * np.exp(rng.uniform(-0.5, 0.5, size=48)))
        out_a = apply_quantization(seq, problem.offsets, problem.kernel, self.CFG)
        out_b = apply_quantization(other, problem.offsets, problem.kernel, self.CFG)
        assert sup_log_distance(out_a, out_b) <= sup_log_distance(seq, other) + 10 * self.CFG.root_tol

    def test_output_tail_pinned_at_critical_exponent(self, rng):
        problem = self.problem()
        seq = random_growth_sequence(rng, 48)
        out = apply_quantization(seq, problem.offsets, problem.kernel, self.CFG)
        assert out.tail.exponent == seq.tail.exponent
        assert out.tail.amplitude == pytest.approx(seq.tail.amplitude, rel=1e-12)

    def test_bracket_failure_for_unreachable_offsets(self):
        problem = self.problem()
        seq = random_growth_sequence(np.random.default_rng(7), 8)
        q = OffsetSequence(constant=1e30)
        with pytest.raises(BracketFailure):
            apply_quantization(seq, q, problem.kernel, OperatorConfig(truncation=8))

    def test_no_convergence_when_budget_exhausted(self, rng):
        problem = self.problem()
        seq = random_growth_sequence(rng, 8)
        tight = OperatorConfig(truncation=8, max_root_iters=1)
        shifted = OffsetSequence(constant=5.0)
        with pytest.raises(NoConvergence):
            apply_quantization(seq, shifted, problem.kernel, tight)


class TestCountingPanels:
    def test_matches_dense_sum(self, rng):
        # every acceptance angle plus the oscillator angles of M = 2, 3, 4, 8
        thetas = sorted(set(THETA_GRID) | {(M - 1) * math.pi / (M + 1) for M in (2, 3, 4, 8)})
        for theta in thetas:
            kp = KernelParams(theta)
            seq = random_growth_sequence(rng, 1000, alpha=1.0 + theta / math.pi)
            cfg = OperatorConfig(truncation=1000)
            x_log = np.log(seq.values)
            panels = _CountingPanels(seq, kp, cfg, x_log.min() - _LOG8, x_log.max() + _LOG8)
            s = np.concatenate([[panels.lo, panels.hi], rng.uniform(panels.lo, panels.hi, 400)])
            phi, slope = panels(s)
            dense = _kernel_sums(seq, np.exp(s), kp, cfg)
            dense_slope = _kernel_sums(seq, np.exp(s), kp, cfg, slope=True)
            assert np.max(np.abs(phi - dense)) <= 1e-14 * np.max(np.abs(dense)), theta
            assert np.max(np.abs(slope - dense_slope)) <= 1e-10 * np.max(dense_slope), theta

    def test_roots_meet_dense_equation(self):
        cfg = OperatorConfig(truncation=2000)
        for M in (2, 3):
            for parity in Parity:
                problem = build_problem(M, parity)
                seq = seed_sequence(problem, 2000)
                out = apply_quantization(seq, problem.offsets, problem.kernel, cfg)
                phi = _kernel_sums(seq, out.values, problem.kernel, cfg)
                slope = _kernel_sums(seq, out.values, problem.kernel, cfg, slope=True)
                log_error = np.abs(phi - problem.offsets.values(2000)) / slope
                assert np.max(log_error) <= 1e-11, (M, parity)

    def test_memory_bounded_at_large_truncation(self):
        problem = build_problem(2, Parity.EVEN)
        seq = seed_sequence(problem, 8000)
        tracemalloc.start()
        try:
            apply_quantization(seq, problem.offsets, problem.kernel, OperatorConfig(truncation=8000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20


class TestDerivativeMatrix:
    CFG = OperatorConfig(truncation=40)

    def matrix_at(self, rng, n=40):
        problem = build_problem(2, Parity.EVEN)
        seq = random_growth_sequence(rng, n)
        out = apply_quantization(seq, problem.offsets, problem.kernel, self.CFG)
        return derivative_matrix(seq, out, problem.kernel, self.CFG), seq, out, problem

    def test_rows_stochastic_and_positive(self, rng):
        D, *_ = self.matrix_at(rng)
        total = D.entries.sum(axis=1) + D.row_defect
        assert np.max(np.abs(total - 1.0)) <= 1e-12
        assert np.all(D.entries > 0)

    def test_four_lipschitz_entry_ratios(self, rng):
        problem = build_problem(2, Parity.EVEN)
        for _ in range(10):
            seq = random_growth_sequence(rng, 40)
            bump = rng.uniform(-0.05, 0.05, size=40)
            other = seq.with_values(seq.values * np.exp(bump))
            c = np.max(np.abs(bump))
            out_a = apply_quantization(seq, problem.offsets, problem.kernel, self.CFG)
            out_b = apply_quantization(other, problem.offsets, problem.kernel, self.CFG)
            da = derivative_matrix(seq, out_a, problem.kernel, self.CFG)
            db = derivative_matrix(other, out_b, problem.kernel, self.CFG)
            ratio = da.entries / db.entries
            slack = 1e-9
            assert ratio.max() <= math.exp(4 * c) + slack
            assert ratio.min() >= math.exp(-4 * c) - slack

    def test_weak_contraction_on_decaying_profile(self, rng):
        D, *_ = self.matrix_at(rng)
        k = np.arange(1, 41, dtype=float)
        v = 1.0 / k
        image = D.entries @ v
        assert np.max(np.abs(image)) < np.max(np.abs(v))

    def test_first_order_accuracy(self, rng):
        problem = build_problem(2, Parity.EVEN)
        for size in (1e-2, 1e-3):
            seq = random_growth_sequence(rng, 40)
            v = size * rng.uniform(-1, 1, size=40)
            out = apply_quantization(seq, problem.offsets, problem.kernel, self.CFG)
            moved = apply_quantization(seq.with_values(seq.values * np.exp(v)),
                                       problem.offsets, problem.kernel, self.CFG)
            predicted = derivative_matrix(seq, out, problem.kernel, self.CFG).entries @ v
            gap = np.max(np.abs(np.log(moved.values) - np.log(out.values) - predicted))
            assert gap <= 4 * np.max(np.abs(v)) ** 2 + 100 * self.CFG.root_tol


class TestIterate:
    def test_fixed_point_start_stops_immediately(self, m2_even_300):
        problem, cfg, fixed, _ = m2_even_300
        trace = iterate(fixed, problem.offsets, problem.kernel, cfg,
                        StopRule(max_steps=10, target_residual=1e-10))
        assert trace.steps == 1
        assert trace.residual_sup[0] <= 1e-11

    def test_distinct_starts_contract(self, rng):
        problem = build_problem(2, Parity.EVEN)
        cfg = OperatorConfig(truncation=40)
        stop = StopRule(max_steps=8, target_residual=0.0)
        a = random_growth_sequence(rng, 40)
        b = a.with_values(a.values * np.exp(rng.uniform(-0.3, 0.3, size=40)))
        ta = iterate(a, problem.offsets, problem.kernel, cfg, stop)
        tb = iterate(b, problem.offsets, problem.kernel, cfg, stop)
        gaps = [sup_log_distance(x, y) for x, y in zip(ta.iterates, tb.iterates)]
        assert all(later <= earlier + 1e-10 for earlier, later in zip(gaps, gaps[1:]))

    def test_error_carries_step_index(self, rng):
        problem = build_problem(2, Parity.EVEN)
        seq = random_growth_sequence(rng, 8)
        cfg = OperatorConfig(truncation=8, max_root_iters=1)
        with pytest.raises(NoConvergence, match="step 1"):
            iterate(seq, OffsetSequence(constant=5.0), problem.kernel, cfg,
                    StopRule(max_steps=3, target_residual=1e-10))

    def test_residual_bookkeeping(self, rng):
        problem = build_problem(2, Parity.EVEN)
        seq = random_growth_sequence(rng, 30)
        stop = StopRule(max_steps=5, target_residual=0.0, rate_epsilon=1.5)
        trace = iterate(seq, problem.offsets, problem.kernel,
                        OperatorConfig(truncation=30), stop)
        assert len(trace.iterates) == trace.steps + 1
        assert len(trace.residual_weighted) == trace.steps
        k = np.arange(1, 31, dtype=float)
        delta = np.abs(np.log(trace.iterates[1].values) - np.log(trace.iterates[0].values))
        assert trace.residual_weighted[0] == pytest.approx(np.max(k**1.5 * delta), rel=1e-12)
        assert trace.residual_sup[0] == pytest.approx(np.max(delta), rel=1e-12)

    def test_accelerated_residuals_are_those_of_the_operator(self, rng):
        problem = build_problem(2, Parity.EVEN)
        cfg = OperatorConfig(truncation=30)
        seq = random_growth_sequence(rng, 30)
        stop = StopRule(max_steps=6, target_residual=0.0)
        trace = iterate(seq, problem.offsets, problem.kernel, cfg, stop, history=3)
        assert trace.steps == 6 and len(trace.iterates) == 7
        for n, X in enumerate(trace.iterates[:-1]):
            image = apply_quantization(X, problem.offsets, problem.kernel, cfg)
            delta = np.abs(np.log(image.values) - np.log(X.values))
            assert trace.residual_sup[n] == np.max(delta)
        assert np.array_equal(image.values, trace.iterates[-1].values)

    def test_rejects_negative_history(self, rng):
        problem = build_problem(2, Parity.EVEN)
        with pytest.raises(ValueError, match="history"):
            iterate(random_growth_sequence(rng, 8), problem.offsets, problem.kernel,
                    OperatorConfig(truncation=8), StopRule(max_steps=2), history=-1)


def test_anderson_safeguard_takes_picard_step_and_restarts():
    # one stored pair and a current one whose mix is [5, 1, 2]: not increasing
    tail = TailModel(1.0, 1.5)
    f, g = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 2.0])
    image = EnergySequence(np.exp(g), tail)
    pairs = deque([(np.zeros(3), np.array([5.0, 1.0, 2.0]))], maxlen=3)
    assert _anderson_point(pairs, f, g, image) is image
    assert len(pairs) == 1 and pairs[0][0] is f and pairs[0][1] is g
    # without the bad pair the same residual mixes into an increasing point
    pairs = deque([(np.zeros(3), np.array([-1.0, 1.0, 2.0]))], maxlen=3)
    mixed = _anderson_point(pairs, f, g, image)
    assert np.allclose(np.log(mixed.values), [-1.0, 1.0, 2.0], atol=1e-14)
    assert mixed.tail == tail and len(pairs) == 2


def test_weighted_norm_of_step_matches_manual(rng):
    # glue check between iterate bookkeeping and the public norm helper
    values = np.exp(rng.normal(size=12))
    seq = LogSequence(np.log(values))
    norm = weighted_norm(seq, WeightedNorm(0.0))
    assert norm == pytest.approx(np.max(np.abs(np.log(values))), rel=1e-15)


def test_operator_config_validation():
    with pytest.raises(ValueError):
        OperatorConfig(truncation=0)
    with pytest.raises(ValueError):
        OperatorConfig(root_tol=0.0)
    with pytest.raises(ValueError):
        OperatorConfig(max_root_iters=0)
    with pytest.raises(ValueError):
        OperatorConfig(tail_quadrature_points=1)


def test_kernel_params_validation():
    with pytest.raises(ValueError):
        KernelParams(0.0)
    with pytest.raises(ValueError):
        KernelParams(math.pi)
