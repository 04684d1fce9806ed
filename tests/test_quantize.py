"""Kernels, counting functions, the implicit solve and its derivative matrix."""

import math
import tracemalloc
from collections import deque

import numpy as np
import pytest

from oscspec import (
    BracketKind,
    DomainError,
    EnergySequence,
    KernelParams,
    NoConvergence,
    OffsetSequence,
    OperatorConfig,
    StopRule,
    TailModel,
    apply_quantization,
    build_problem,
    counting_function,
    derivative_matrix,
    hamiltonian_eigenvalues,
    iterate,
    lower_bracket,
    parity_split,
    upper_bracket,
    verify_bracket,
    weighted_norm,
    Parity,
    OracleConfig,
    seed_sequence,
    spectral_rate_estimate,
)
from oscspec import quantize
from oscspec.quantize import (ROOT_TOL, _anderson_point, _CompressedSources, _CountingPanels,
                              angle_kernel, derivative_kernel)
from conftest import dense_counting, dense_derivative, random_growth_sequence, solved_parity
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
        assert float(angle_kernel(kp, 1e300, 1e-300)) == 0.0


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

    def test_ratio_beyond_the_float_range(self):
        kp = KernelParams(1.0)
        assert float(derivative_kernel(kp, 1e-300, 1e300)) == 0.0
        assert float(derivative_kernel(kp, 1e300, 1e-300)) == 0.0

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
        got = counting_function(seq, [probe], kp)[0]
        expected = 8.0 / math.pi * float(angle_kernel(kp, t * probe, probe))
        assert got == pytest.approx(expected, rel=1e-14)

    def test_strictly_increasing_in_probe(self, rng):
        kp = KernelParams(1.9)
        seq = random_growth_sequence(rng, 40)
        probes = np.sort(np.exp(rng.uniform(-1, 6, size=25)))
        vals = counting_function(seq, probes, kp)
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
        residuals = np.abs(counting_function(seq, seq.values[:5], problem.kernel)
                           - problem.offsets.values(5))
        assert residuals[0] <= 1e-3
        assert max(residuals) <= 0.02


class TestKernelSum:
    # 1000 entries make blocks of 7 probes and a ragged last block
    @pytest.mark.parametrize("entries", [1000, quantize._BLOCK_ENTRIES])
    def test_bit_identical_to_blocked_angle_kernel(self, rng, monkeypatch, entries):
        monkeypatch.setattr(quantize, "_BLOCK_ENTRIES", entries)
        kp = KernelParams(2.2)
        # ratios from 1e-300 to beyond the float range, where the kernel is 0
        sources = np.exp(rng.uniform(-5.0, 700.0, size=140))
        weights = rng.uniform(0.5, 2.0, size=140)
        probes = np.exp(rng.uniform(-700.0, 5.0, size=45))
        step = max(1, entries // sources.size)
        expected = np.concatenate([angle_kernel(kp, sources, probes[start:start + step, None])
                                   @ weights for start in range(0, probes.size, step)])
        with np.errstate(over="raise"):
            got = quantize._kernel_sum(sources, weights, probes, kp)
        assert np.array_equal(got, expected * (1.0 / math.pi))

    def test_holds_one_block(self, rng):
        # each block is evaluated in place in one buffer, not in a fresh
        # temporary per operation of angle_kernel
        sources = np.exp(rng.uniform(0.0, 20.0, size=1000))
        probes = np.exp(rng.uniform(0.0, 20.0, size=3000))
        tracemalloc.start()
        try:
            quantize._kernel_sum(sources, np.ones(sources.size), probes, KernelParams(1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * quantize._BLOCK_ENTRIES + 2**20


class TestCountingDerivative:
    def test_single_entry(self):
        kp = KernelParams(math.pi / 2)
        seq = EnergySequence([5.0], FAR_TAIL)
        got = dense_counting(seq, [5.0], kp, slope=True)[0]
        assert got == pytest.approx(0.5 / math.pi, abs=1e-8)

    def test_finite_difference(self, rng):
        kp = KernelParams(2.6)
        seq = random_growth_sequence(rng, 60)
        probe = 40.0
        h = 1e-5
        exact = dense_counting(seq, [probe], kp, slope=True)[0]
        up, down = counting_function(seq, [probe * math.exp(h), probe * math.exp(-h)], kp)
        fd = (up - down) / (2 * h)
        assert fd == pytest.approx(exact, abs=5e-9)

    def test_positive(self, rng):
        kp = KernelParams(0.4)
        for _ in range(10):
            seq = random_growth_sequence(rng, 20)
            probe = math.exp(rng.uniform(-2, 6))
            assert dense_counting(seq, [probe], kp, slope=True)[0] > 0


class TestTailRule:
    def test_power_tail_sum_is_exact(self):
        # for a pure power tail the substitution makes 1/X times the Jacobian
        # constant, so the rule sums 1/X exactly up to rounding
        for a in (1.05, 4.0 / 3.0, 1.5, 1.6, 1.99, 2.0):
            for n in (1, 250, 2000, 10**5):
                for amp in (1.0, 7.3):
                    values, weights = quantize._tail_rule(n, TailModel(amp, a))
                    assert values.size == weights.size == OperatorConfig.tail_quadrature_points
                    expected = (n + 0.5) ** (1.0 - a) / (amp * (a - 1.0))
                    got = np.sum(weights / values)
                    assert abs(got - expected) <= 1e-14 * expected, (a, n, amp)

    def test_shifted_tail_sum_matches_integral(self):
        # the bracket candidates shift their tails; the rule then integrates
        # (1 + (shift / (n + 1/2)) u**(1/(a-1)))**(-a) over u in (0, 1], which
        # is analytic only when 1/(a - 1) is an integer, so elsewhere it
        # converges algebraically (measured worst 6.1e-11 on this grid)
        for a in (4.0 / 3.0, 1.5, 1.6, 5.0 / 3.0, 2.0):
            for shift in (100.0, 0.0, -30.0, -210.0):
                for n in (250, 2000, 10**5):
                    amp = 2.5
                    values, weights = quantize._tail_rule(n, TailModel(amp, a, shift))
                    expected = (n + 0.5 + shift) ** (1.0 - a) / (amp * (a - 1.0))
                    got = np.sum(weights / values)
                    assert abs(got - expected) <= 2e-10 * expected, (a, shift, n)


class _ReplacedOffsets:
    """Offsets k + constant with the entries of `replaced` ({k: Q_k}) put in;
    apply_quantization reads nothing of Q but values(n)."""

    def __init__(self, constant, replaced):
        self.constant, self.replaced = constant, replaced

    def values(self, n):
        out = OffsetSequence(self.constant).values(n)
        for k, value in self.replaced.items():
            out[k - 1] = value
        return out


class TestOffsetSequence:
    def test_values_and_overrides(self):
        q = OffsetSequence(constant=-0.5)
        assert np.array_equal(q.values(4), [0.5, 1.5, 2.5, 3.5])

    def test_validate_passes_admissible(self):
        OffsetSequence(constant=-2.0 / 3.0).validate(KernelParams(math.pi / 3))

    def test_validate_rejects_closed_form(self):
        # Q_k = k - 0.9 dips below (k - 1/2) theta/pi at k = 1 for theta near pi
        with pytest.raises(DomainError, match="closed-form offsets fail at k=1"):
            OffsetSequence(constant=-0.9).validate(KernelParams(3.0))


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
                        _ReplacedOffsets(-0.3, {1: 0.05})):
            out = apply_quantization(seq, offsets, problem.kernel, self.CFG)
            levels = [0, 5, 23, 47]
            phi = dense_counting(seq, out.values[levels], problem.kernel)
            assert np.max(np.abs(phi - offsets.values(48)[levels])) <= 2 * ROOT_TOL

    @pytest.mark.parametrize("M", [2, 3])
    def test_widened_range_with_compressed_sources(self, M):
        # at N = 2000 the top panels compress; a widened build still sums over
        # the sources compressed on [min X / 8, 8 max X] and probes beyond it
        # directly: the first offsets widen the top, the last the bottom three times
        problem = build_problem(M, Parity.EVEN)
        seq = seed_sequence(problem, 2000)
        cfg = OperatorConfig(truncation=2000)
        constant = problem.offsets.constant
        for offsets in (OffsetSequence(constant=1e4), _ReplacedOffsets(constant, {1: 0.05}),
                        _ReplacedOffsets(constant, {1: 1e-3})):
            out = apply_quantization(seq, offsets, problem.kernel, cfg)
            levels = [0, 5, 500, 1999]
            q = offsets.values(2000)
            phi = dense_counting(seq, out.values[levels], problem.kernel)
            assert np.max(np.abs(phi - q[levels])) <= 2 * ROOT_TOL + 4e-15 * np.max(np.abs(q))

    def test_roots_on_panel_edges(self, rng):
        # a root exactly on a panel edge sits at the end of its bracket; a wrong
        # panel lookup would leave it outside, where the bracket guard closes
        # a wrong level without raising
        problem = self.problem()
        seq = random_growth_sequence(rng, 48)
        panels = _CompressedSources(seq, problem.kernel).panels
        nodes = panels.nodes(np.arange(panels.count))
        coef = panels.fit(counting_function(seq, nodes, problem.kernel), slope=True)
        phi_edges = panels(coef, *panels.locate(panels.edges))[0]
        q = problem.offsets.values(48)
        # the operator's first build has the panels of the compression of X:
        # they already bracket every level
        assert phi_edges[0] < q.min() and phi_edges[-1] > q.max()
        assert panels.count >= 3
        for j, value in enumerate(phi_edges[1:-1]):
            offsets = _ReplacedOffsets(problem.offsets.constant, {j + 1: value})
            out = apply_quantization(seq, offsets, problem.kernel, self.CFG)
            phi = dense_counting(seq, out.values[j:j + 1], problem.kernel)[0]
            assert abs(phi - value) <= 2 * ROOT_TOL, j

    def test_dilatation_equivariance(self, rng):
        problem = self.problem()
        for lam in (0.13, 0.5, 2.0, 9.7):
            seq = random_growth_sequence(rng, 48)
            base = apply_quantization(seq, problem.offsets, problem.kernel, self.CFG)
            scaled = apply_quantization(seq.scaled(lam), problem.offsets,
                                        problem.kernel, self.CFG)
            shift = np.log(scaled.values) - np.log(base.values)
            assert np.max(np.abs(shift - math.log(lam))) <= 10 * ROOT_TOL

    def test_order_preservation(self, rng):
        problem = self.problem()
        seq = random_growth_sequence(rng, 48)
        bigger = seq.with_values(seq.values * np.exp(rng.uniform(0.0, 0.4, size=48)))
        lo = apply_quantization(seq, problem.offsets, problem.kernel, self.CFG)
        hi = apply_quantization(bigger, problem.offsets, problem.kernel, self.CFG)
        assert np.all(np.log(hi.values) >= np.log(lo.values) - 10 * ROOT_TOL)

    def test_one_lipschitz(self, rng):
        problem = self.problem()
        seq = random_growth_sequence(rng, 48)
        other = seq.with_values(seq.values * np.exp(rng.uniform(-0.5, 0.5, size=48)))
        out_a = apply_quantization(seq, problem.offsets, problem.kernel, self.CFG)
        out_b = apply_quantization(other, problem.offsets, problem.kernel, self.CFG)
        assert sup_log_distance(out_a, out_b) <= sup_log_distance(seq, other) + 10 * ROOT_TOL

    def test_output_tail_pinned_at_critical_exponent(self, rng):
        problem = self.problem()
        seq = random_growth_sequence(rng, 48)
        out = apply_quantization(seq, problem.offsets, problem.kernel, self.CFG)
        assert out.tail.exponent == seq.tail.exponent
        assert out.tail.amplitude == seq.tail.amplitude

    @pytest.mark.parametrize("M", [2, 3])
    def test_output_keeps_input_tail(self, M):
        # the tail normalization is a boundary condition of the operator, also
        # off the critical exponent, where only the stored levels rescale
        problem = build_problem(M, Parity.EVEN)
        n = 400
        k = np.arange(1, n + 1, dtype=float)
        amp = 2.0**problem.alpha * problem.nu
        for delta in (0.0, 0.1, -0.1):
            exponent = problem.alpha + delta
            X = EnergySequence(amp * k**exponent, TailModel(amp, exponent))
            out = apply_quantization(X, problem.offsets, problem.kernel,
                                     OperatorConfig(truncation=n))
            assert out.tail == X.tail, delta

    def test_bracket_failure_for_unreachable_offsets(self):
        problem = self.problem()
        seq = random_growth_sequence(np.random.default_rng(7), 8)
        q = OffsetSequence(constant=1e30)
        with pytest.raises(NoConvergence, match="no sign change bracketing level"):
            apply_quantization(seq, q, problem.kernel, OperatorConfig(truncation=8))

    def test_no_convergence_when_budget_exhausted(self, rng, monkeypatch):
        problem = self.problem()
        seq = random_growth_sequence(rng, 8)
        monkeypatch.setattr(quantize, "MAX_ROOT_ITERS", 1)
        shifted = OffsetSequence(constant=5.0)
        with pytest.raises(NoConvergence):
            apply_quantization(seq, shifted, problem.kernel, OperatorConfig(truncation=8))


    def test_seed_scaled_beyond_the_float_range_fails_cleanly(self):
        # probes near 1e-300 against tail nodes near 1 overflow the kernels'
        # ratio; the limits are exact and the failure is NoConvergence, not a
        # warning (the suite turns warnings into errors)
        problem = self.problem()
        seed = seed_sequence(problem, 50)
        with pytest.raises(NoConvergence, match="no sign change bracketing level"):
            apply_quantization(seed.with_values(seed.values * 1e-300), problem.offsets,
                               problem.kernel, OperatorConfig(truncation=50))


class TestCountingPanels:
    def test_matches_dense_sum(self, rng):
        # every acceptance angle plus the oscillator angles of M = 2, 3, 4, 8
        thetas = sorted(set(THETA_GRID) | {(M - 1) * math.pi / (M + 1) for M in (2, 3, 4, 8)})
        for theta in thetas:
            kp = KernelParams(theta)
            seq = random_growth_sequence(rng, 1000, alpha=1.0 + theta / math.pi)
            panels = _CompressedSources(seq, kp).panels
            coef = panels.fit(counting_function(seq, panels.nodes(np.arange(panels.count)), kp),
                              slope=True)
            lo, hi = panels.edges[0], panels.edges[-1]
            s = np.concatenate([[lo, hi], rng.uniform(lo, hi, 400)])
            phi, slope = panels(coef, *panels.locate(s))
            dense = dense_counting(seq, np.exp(s), kp)
            dense_slope = dense_counting(seq, np.exp(s), kp, slope=True)
            assert np.max(np.abs(phi - dense)) <= 1e-14 * np.max(np.abs(dense)), theta
            assert np.max(np.abs(slope - dense_slope)) <= 1e-10 * np.max(dense_slope), theta

    def test_roots_meet_dense_equation(self):
        cfg = OperatorConfig(truncation=2000)
        for M in (2, 3):
            for parity in Parity:
                problem = build_problem(M, parity)
                seq = seed_sequence(problem, 2000)
                out = apply_quantization(seq, problem.offsets, problem.kernel, cfg)
                phi = dense_counting(seq, out.values, problem.kernel)
                slope = dense_counting(seq, out.values, problem.kernel, slope=True)
                log_error = np.abs(phi - problem.offsets.values(2000)) / slope
                assert np.max(log_error) <= 1e-11, (M, parity)

    def test_few_sweeps_from_the_seed(self, monkeypatch):
        # the interpolant runs once per panel build and once per Newton sweep;
        # a level whose Newton step is within the resolution of y_j closes
        # instead of bisecting its panel-wide bracket down to a few ulps
        calls = []
        call = _CountingPanels.__call__

        def counted(panels, coef, panel, x):
            calls.append(x.size)
            return call(panels, coef, panel, x)

        monkeypatch.setattr(_CountingPanels, "__call__", counted)
        cfg = OperatorConfig(truncation=2000)
        for M in (2, 3):
            problem = build_problem(M, Parity.EVEN)
            calls.clear()
            apply_quantization(seed_sequence(problem, 2000), problem.offsets, problem.kernel, cfg)
            assert len(calls) <= 10, (M, len(calls))

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


class TestCompressedSources:
    """The panel build sums over per-panel Chebyshev moments: a panel holding
    more than 25 stored levels hands the kernel sum its 25 Chebyshev points."""

    THETAS = sorted(set(THETA_GRID) | {(M - 1) * math.pi / (M + 1) for M in (2, 3, 4, 8)})

    @staticmethod
    def build(rng, n, theta):
        kp = KernelParams(theta)
        seq = random_growth_sequence(rng, n, alpha=1.0 + theta / math.pi)
        compressed = _CompressedSources(seq, kp)
        return seq, kp, compressed.panels, compressed.points, compressed.weights

    # 48 levels: every panel stays direct; 250: mixed; 2000: the top panels compress
    @pytest.mark.parametrize("n", [48, 250, 2000])
    def test_panel_values_match_dense_sum(self, rng, n):
        for theta in self.THETAS:
            seq, kp, panels, sources, weights = self.build(rng, n, theta)
            stored = sources[:-quantize.TAIL_NODES.size]
            if n == 48:
                assert np.array_equal(stored, seq.values), theta
            elif n == 250:
                assert stored.size < n and np.isin(seq.values, stored).any(), theta
            else:
                assert not np.isin(seq.values.max(), stored), theta
            probes = panels.nodes(np.arange(panels.count))
            compressed = quantize._kernel_sum(sources, weights, probes, kp)
            dense = dense_counting(seq, probes, kp)
            assert np.max(np.abs(compressed - dense)) <= 1e-14 * np.max(np.abs(dense)), theta

    @pytest.mark.parametrize("n", [48, 250, 2000])
    def test_stored_weights_sum_to_level_count(self, rng, n):
        # the Lagrange basis is a partition of unity, so the moments of a
        # panel add up to the number of levels they replace
        for theta in self.THETAS:
            *_, sources, weights = self.build(rng, n, theta)
            stored = weights[:-quantize.TAIL_NODES.size]
            assert stored.size <= n, theta
            assert abs(stored.sum() - n) <= 64 * np.finfo(float).eps * n, theta

    def test_each_sequence_compressed_once(self, monkeypatch):
        # an application that rebuilds its panels over a widened range, and a
        # derivative matrix with the 40 products of a rate estimate, each
        # compress X once; only the compression calls the tail rule
        calls = []
        tail_rule = quantize._tail_rule

        def counted(n, tail):
            calls.append(n)
            return tail_rule(n, tail)

        monkeypatch.setattr(quantize, "_tail_rule", counted)
        problem = build_problem(2, Parity.EVEN)
        seq = seed_sequence(problem, 2000)
        cfg = OperatorConfig(truncation=2000)
        offsets = _ReplacedOffsets(problem.offsets.constant, {1: 1e-3})
        out = apply_quantization(seq, offsets, problem.kernel, cfg)
        # the range starts at [min X / 8, 8 max X]: a root below min X / 8**3
        # means the panels were rebuilt on at least two widened ranges
        assert out.values[0] < seq.values.min() / 8**3
        assert len(calls) == 1
        D = derivative_matrix(seq, out, problem.kernel, cfg)
        for _ in range(40):
            D @ np.ones(2000)
        assert len(calls) == 2

    def test_memory_of_one_application(self):
        # summing every panel node against all N + 64 sources peaked at
        # 32.2 MiB here; the moments keep the sum to a few hundred sources
        problem = build_problem(2, Parity.EVEN)
        seq = seed_sequence(problem, 8000)
        tracemalloc.start()
        try:
            apply_quantization(seq, problem.offsets, problem.kernel, OperatorConfig(truncation=8000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20


class TestCompressedCounting:
    """counting_function sums over the sources of _CompressedSources; the
    dense sum over all N + 64 sources is the exact reference."""

    # stored levels, then probes above max X, where the tail nodes dominate
    TAIL_FACTORS = np.array([1.0001, 1.5, 3.0, 10.0, 100.0, 1e4])

    @staticmethod
    def cases(M):
        problem = build_problem(M, Parity.EVEN)
        kernel = problem.kernel
        return kernel, [
            ("upper 100", upper_bracket(100.0, 2000, kernel)),
            ("lower 6", lower_bracket(6, 2000, kernel)),
            ("lower 15", lower_bracket(15, 500, kernel)),
            ("seed", seed_sequence(problem, 2000)),
            ("fixed point", solved_parity(M, "even", 2000)[2]),
        ]

    @pytest.mark.parametrize("M", [2, 3, 5])
    def test_matches_dense_sum(self, M, monkeypatch):
        sizes = []
        kernel_sum = quantize._kernel_sum

        def counted(sources, *args):
            sizes.append(sources.size)
            return kernel_sum(sources, *args)

        monkeypatch.setattr(quantize, "_kernel_sum", counted)
        kernel, cases = self.cases(M)
        for name, X in cases:
            for probes in (X.values, X.values.max() * self.TAIL_FACTORS):
                sizes.clear()
                got = counting_function(X, probes, kernel)
                # one sum, over at most N + 64 sources; at N = 2000 a fifth of them
                assert len(sizes) == 1 and sizes[0] <= len(X) + 64, (name, sizes)
                assert len(X) < 2000 or 5 * sizes[0] <= len(X) + 64, (name, sizes)
                exact = dense_counting(X, probes, kernel)
                error = np.max(np.abs(got - exact))
                assert error <= 2e-15 * np.max(np.abs(exact)), (name, error)

    @pytest.mark.parametrize("M", [2, 3, 5])
    def test_certificates_keep_their_verdicts(self, M):
        kernel, cases = self.cases(M)
        for name, X in cases:
            cfg = OperatorConfig(truncation=len(X))
            phi = dense_counting(X, X.values, kernel)
            for parity in Parity:
                offsets = build_problem(M, parity).offsets
                diffs = phi - offsets.values(len(X))
                for kind, violation in ((BracketKind.SUPER, -diffs.min()),
                                        (BracketKind.SUB, diffs.max())):
                    cert = verify_bracket(X, offsets, kernel, cfg, kind=kind)
                    assert cert.verified == (violation <= 1e-8), (name, parity, kind)
                    assert abs(cert.max_violation - violation) <= 2e-15 * np.max(phi)

    def test_large_M_in_bounded_memory(self):
        # panels number ~(M + 1) times the log-range of X, 2.4e7 here; only the
        # occupied ones are indexed, so memory follows N, not M: the blocked
        # sum holds one array of _BLOCK_ENTRIES values, the moments O(N * 25)
        problem = build_problem(10**7, Parity.EVEN)
        kernel, cfg = problem.kernel, OperatorConfig(truncation=2000)
        for X, kind in ((upper_bracket(100.0, 2000, kernel), BracketKind.SUPER),
                        (lower_bracket(6, 2000, kernel), BracketKind.SUB)):
            tracemalloc.start()
            try:
                cert = verify_bracket(X, problem.offsets, kernel, cfg, kind=kind)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8 * quantize._BLOCK_ENTRIES + 2**20, kind
            phi = dense_counting(X, X.values, kernel)
            diffs = phi - problem.offsets.values(len(X))
            violation = -diffs.min() if kind is BracketKind.SUPER else diffs.max()
            assert cert.verified and violation <= 1e-8, kind
            assert abs(cert.max_violation - violation) <= 2e-15 * np.max(phi), kind


class TestDerivativeMatrix:
    CFG = OperatorConfig(truncation=40)

    def matrix_at(self, rng, n=40):
        problem = build_problem(2, Parity.EVEN)
        seq = random_growth_sequence(rng, n)
        out = apply_quantization(seq, problem.offsets, problem.kernel, self.CFG)
        return derivative_matrix(seq, out, problem.kernel, self.CFG), seq, out, problem

    @staticmethod
    def columns(D):
        """The product's own matrix, column j being D @ e_j."""
        return np.column_stack([D @ e for e in np.eye(len(D))])

    def test_rows_stochastic_and_positive(self, rng):
        D, seq, out, problem = self.matrix_at(rng)
        matrix = self.columns(D)
        total = matrix.sum(axis=1) + dense_derivative(seq, out, problem.kernel)[1]
        assert np.max(np.abs(total - 1.0)) <= 1e-12
        assert np.all(matrix > 0)

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
            ratio = self.columns(da) / self.columns(db)
            slack = 1e-9
            assert ratio.max() <= math.exp(4 * c) + slack
            assert ratio.min() >= math.exp(-4 * c) - slack

    def test_weak_contraction_on_decaying_profile(self, rng):
        D, *_ = self.matrix_at(rng)
        k = np.arange(1, 41, dtype=float)
        v = 1.0 / k
        image = D @ v
        assert np.max(np.abs(image)) < np.max(np.abs(v))

    def test_first_order_accuracy(self, rng):
        problem = build_problem(2, Parity.EVEN)
        for size in (1e-2, 1e-3):
            seq = random_growth_sequence(rng, 40)
            v = size * rng.uniform(-1, 1, size=40)
            out = apply_quantization(seq, problem.offsets, problem.kernel, self.CFG)
            moved = apply_quantization(seq.with_values(seq.values * np.exp(v)),
                                       problem.offsets, problem.kernel, self.CFG)
            predicted = derivative_matrix(seq, out, problem.kernel, self.CFG) @ v
            gap = np.max(np.abs(np.log(moved.values) - np.log(out.values) - predicted))
            assert gap <= 4 * np.max(np.abs(v)) ** 2 + 100 * ROOT_TOL

    # X and Y of unequal lengths cannot make a square matrix, either way round
    @pytest.mark.parametrize("short_x", [False, True], ids=["not-square", "not-square-short-x"])
    def test_refuses_malformed_input(self, rng, short_x):
        _, seq, out, problem = self.matrix_at(rng)
        if short_x:
            seq = seq.with_values(seq.values[:-1])
        else:
            out = out.with_values(out.values[:-1])
        with pytest.raises(ValueError, match="square"):
            derivative_matrix(seq, out, problem.kernel, self.CFG)

    # the seed and the fixed point of each problem; at N = 40 every panel of X
    # stays direct, at 300 some compress, at 2000 the top panels do
    @pytest.mark.parametrize("n", [40, 300, 2000])
    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("M", [2, 3, 5])
    def test_product_matches_dense_matrix(self, rng, M, parity, n):
        problem, cfg, fixed, _ = solved_parity(M, parity, n)
        k = np.arange(1, n + 1, dtype=float)
        for X in (seed_sequence(problem, n), fixed):
            Y = apply_quantization(X, problem.offsets, problem.kernel, cfg)
            D = derivative_matrix(X, Y, problem.kernel, cfg)
            entries, defect = dense_derivative(X, Y, problem.kernel)
            # the dense product summed in extended precision, so that the
            # reference carries only the rounding of the entries
            dense = entries.astype(np.longdouble)
            for v in (np.ones(n), 1.0 / k, rng.uniform(-1.0, 1.0, n)):
                exact = (dense @ v.astype(np.longdouble)).astype(float)
                assert np.max(np.abs(D @ v - exact)) <= 2e-15 * np.max(np.abs(v)), (X is fixed)
            assert np.max(np.abs(D @ np.ones(n) + defect - 1.0)) <= 2e-15

    def test_product_in_bounded_memory(self):
        # the product holds the compression of X, the panel coordinates of
        # ln Y, the normalizer and the kernel matrix between the compressed
        # sources and the panel nodes; at N = 20000 the dense matrix would
        # take 3 GiB
        problem = build_problem(2, Parity.ODD)
        for n, bound in ((2000, 2 * 2**20), (20000, 4 * 2**20)):
            cfg = OperatorConfig(truncation=n)
            seq = seed_sequence(problem, n)
            out = apply_quantization(seq, problem.offsets, problem.kernel, cfg)
            tracemalloc.start()
            try:
                rate = spectral_rate_estimate(derivative_matrix(seq, out, problem.kernel, cfg),
                                              1.0, 40)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound, n
            assert 0.0 < rate < 1.0, n

    @staticmethod
    def extreme_pair(rng, n=139):
        """X of moderate levels and a Y spanning 1e-300 to 1e300, whose tail
        ratios lie beyond the float range and below it, where the kernel is 0."""
        seq = EnergySequence(np.exp(rng.uniform(-5.0, 5.0, size=n)), TailModel(1e-27, 1.1))
        out = seq.with_values(rng.permutation(np.geomspace(1e-300, 1e300, n)))
        tail = quantize._tail_rule(n, seq.tail)[0]
        with np.errstate(over="ignore", divide="ignore", under="ignore"):
            ratios = tail / out.values[:, None]
        assert np.isinf(ratios).any() and (ratios == 0).any()
        return KernelParams(2.2), seq, out

    # the dense reference the product is measured against, in row blocks of
    # derivative_kernel; 1000 entries make blocks of 4 rows and a ragged last block
    @pytest.mark.parametrize("entries", [1000, quantize._BLOCK_ENTRIES])
    def test_bit_identical_to_blocked_derivative_kernel(self, rng, monkeypatch, entries):
        monkeypatch.setattr(quantize, "_BLOCK_ENTRIES", entries)
        kp, seq, out = self.extreme_pair(rng)
        n = len(seq)
        tail_values, tail_weights = quantize._tail_rule(n, seq.tail)
        xe = np.concatenate([seq.values, tail_values])
        we = np.concatenate([np.ones(n), tail_weights])
        rows, defect = [], []
        step = max(1, entries // xe.size)
        for start in range(0, n, step):
            p = derivative_kernel(kp, xe, out.values[start:start + step, None])
            z = p @ we
            rows.append(p[:, :n] / z[:, None])
            defect.append((p[:, n:] @ we[n:]) / z)
        with np.errstate(over="raise", divide="raise"):
            matrix, row_defect = dense_derivative(seq, out, kp)
        assert np.array_equal(matrix, np.concatenate(rows))
        assert np.array_equal(row_defect, np.concatenate(defect))
        assert np.all(np.isfinite(matrix)) and np.all(matrix >= 0)

    def test_product_finite_at_extreme_ratios(self, rng):
        kp, seq, out = self.extreme_pair(rng)
        n = len(seq)
        # Y's log-range makes the product's kernel matrix 55200 x 203 (about 86 MiB)
        entries, defect = dense_derivative(seq, out, kp)
        k = np.arange(1, n + 1, dtype=float)
        dense = entries.astype(np.longdouble)
        with np.errstate(over="raise", divide="raise"):
            D = derivative_matrix(seq, out, kp, OperatorConfig(truncation=n))
            for v in (np.ones(n), 1.0 / k, rng.uniform(-1.0, 1.0, n)):
                product = D @ v
                exact = (dense @ v.astype(np.longdouble)).astype(float)
                assert np.all(np.isfinite(product))
                assert np.max(np.abs(product - exact)) <= 2e-15 * np.max(np.abs(v))
            assert np.max(np.abs(D @ np.ones(n) + defect - 1.0)) <= 2e-15


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

    def test_error_carries_step_index(self, rng, monkeypatch):
        problem = build_problem(2, Parity.EVEN)
        seq = random_growth_sequence(rng, 8)
        monkeypatch.setattr(quantize, "MAX_ROOT_ITERS", 1)
        cfg = OperatorConfig(truncation=8)
        with pytest.raises(NoConvergence, match="step 1"):
            iterate(seq, OffsetSequence(constant=5.0), problem.kernel, cfg,
                    StopRule(max_steps=3, target_residual=1e-10))

    def test_bracket_failure_carries_step_index(self):
        problem = build_problem(2, Parity.EVEN)
        seq = random_growth_sequence(np.random.default_rng(7), 8)
        with pytest.raises(NoConvergence, match="step 1: no sign change"):
            iterate(seq, OffsetSequence(constant=1e30), problem.kernel,
                    OperatorConfig(truncation=8), StopRule(max_steps=3))

    def test_residual_bookkeeping(self, rng):
        problem = build_problem(2, Parity.EVEN)
        seq = random_growth_sequence(rng, 30)
        stop = StopRule(max_steps=5, target_residual=0.0, rate_epsilon=1.5)
        trace = iterate(seq, problem.offsets, problem.kernel,
                        OperatorConfig(truncation=30), stop)
        assert len(trace.iterates) == trace.steps + 1
        assert len(trace.residual_weighted) == trace.steps
        # under Picard iteration the residual at X_0 is the step ln X_1 - ln X_0,
        # and the sup norm is the weighted norm at epsilon = 0
        step = np.log(trace.iterates[1].values) - np.log(trace.iterates[0].values)
        assert trace.residual_weighted[0] == weighted_norm(step, 1.5)
        assert trace.residual_sup[0] == weighted_norm(step, 0.0) == np.max(np.abs(step))

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


def test_weighted_norm_of_step_matches_manual(rng):
    # glue check between iterate bookkeeping and the public norm helper
    values = np.exp(rng.normal(size=12))
    norm = weighted_norm(np.log(values), 0.0)
    assert norm == pytest.approx(np.max(np.abs(np.log(values))), rel=1e-15)


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


def test_operator_config_validation():
    with pytest.raises(ValueError):
        OperatorConfig(truncation=0)


def test_stop_rule_validation():
    for bad in ({"max_steps": 0}, {"target_residual": -1.0},
                {"target_residual": float("nan")}, {"rate_epsilon": -0.5}):
        with pytest.raises(ValueError):
            StopRule(**bad)
    StopRule(max_steps=1, target_residual=0.0, rate_epsilon=0.0)


def test_kernel_params_validation():
    with pytest.raises(ValueError):
        KernelParams(0.0)
    with pytest.raises(ValueError):
        KernelParams(math.pi)
