"""Finite-difference eigensolver: harmonic sanity check, refinement, determinism."""

import numpy as np
import pytest

from oscspec import (
    DomainError,
    OracleConfig,
    ResolutionError,
    growth_constant,
    hamiltonian_eigenvalues,
    parity_split,
)
from oscspec import oracle
from oscspec.oracle import suggest_halfwidth


class TestHarmonicSanity:
    def test_levels_are_odd_integers(self):
        # potential q**2 on [-L, L], L = sqrt(4 (2 count + 1)): exact levels 2k + 1
        got = oracle._richardson_eigenvalues(2, 6, OracleConfig(), np.sqrt(4.0 * 13.0))
        exact = 2.0 * np.arange(6) + 1.0
        assert np.max(np.abs(got - exact)) <= 1e-8

    def test_parity_split_of_harmonic(self):
        even, odd = parity_split([1.0, 3.0, 5.0, 7.0])
        assert np.array_equal(even, [1.0, 5.0])
        assert np.array_equal(odd, [3.0, 7.0])


class TestQuarticOracle:
    def test_ground_state_regression(self):
        # frozen from a deeper refinement study (4096 base points, 4 levels)
        got = hamiltonian_eigenvalues(2, 3, OracleConfig())
        assert got[0] == pytest.approx(1.060362097479, abs=1e-7)

    def test_refinement_tightens(self):
        coarse = hamiltonian_eigenvalues(2, 8, OracleConfig(grid_points=512, tolerance=1e-2))
        fine = hamiltonian_eigenvalues(2, 8, OracleConfig(grid_points=2048))
        deep = hamiltonian_eigenvalues(2, 8, OracleConfig(grid_points=4096,
                                                          refinement_levels=4))
        assert np.max(np.abs(fine - deep)) < np.max(np.abs(coarse - deep))

    def test_counting_growth_exponent(self):
        # the number of levels below E grows like E**(1/alpha)
        levels = hamiltonian_eigenvalues(2, 40, OracleConfig(grid_points=4096))
        k = np.arange(1, 41, dtype=float)
        slope = np.polyfit(np.log(levels[19:]), np.log(k[19:]), 1)[0]
        alpha = 4.0 / 3.0
        assert slope == pytest.approx(1.0 / alpha, rel=0.05)

    def test_growth_coefficient_matches(self):
        levels = hamiltonian_eigenvalues(2, 40, OracleConfig(grid_points=4096))
        k = np.arange(1, 41, dtype=float)
        ratio = levels / (growth_constant(2) * k ** (4.0 / 3.0))
        # approach to 1 is first order in 1/k
        assert abs(ratio[-1] - 1.0) < 0.02
        assert abs(ratio[-1] - 1.0) < abs(ratio[9] - 1.0)

    def test_deterministic(self):
        cfg = OracleConfig(grid_points=1024)
        a = hamiltonian_eigenvalues(3, 6, cfg)
        b = hamiltonian_eigenvalues(3, 6, cfg)
        assert np.array_equal(a, b)

    def test_resolution_error(self):
        with pytest.raises(ResolutionError):
            hamiltonian_eigenvalues(2, 6, OracleConfig(grid_points=128,
                                                       refinement_levels=2,
                                                       tolerance=1e-15))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            hamiltonian_eigenvalues(1, 4, OracleConfig())
        with pytest.raises(ValueError):
            hamiltonian_eigenvalues(2, 0, OracleConfig())
        with pytest.raises(ValueError):
            hamiltonian_eigenvalues(2, 1000, OracleConfig(grid_points=1024))


class TestParityBlocks:
    @staticmethod
    def _dense_eigenvalues(power, points, halfwidth):
        h = 2.0 * halfwidth / (points + 1)
        q = -halfwidth + h * np.arange(1, points + 1)
        off = np.full(points - 1, -1.0 / h**2)
        return np.linalg.eigvalsh(np.diag(2.0 / h**2 + q**power) + np.diag(off, 1) + np.diag(off, -1))

    @pytest.mark.parametrize("M", [2, 3])
    @pytest.mark.parametrize("points", [256, 257])
    def test_matches_full_dense_matrix(self, M, points):
        halfwidth = suggest_halfwidth(M, 10)
        full = self._dense_eigenvalues(2 * M, points, halfwidth)
        # count 1 needs no odd block; count 2 solves a one-level block per parity
        for count in (1, 2, 10):
            got = oracle._grid_eigenvalues(2 * M, count, points, halfwidth)
            assert got.shape == (count,)
            assert np.max(np.abs(got - full[:count]) / full[:count]) <= 1e-10


def test_richardson_recurrence_matches_the_table_entry_by_entry():
    # the array recurrence does the arithmetic of the classic list-of-lists
    # table, so the extrapolants agree bit for bit
    cfg = OracleConfig(grid_points=256, refinement_levels=4, tolerance=1.0)
    halfwidth = suggest_halfwidth(2, 6)
    table = [[oracle._grid_eigenvalues(4, 6, cfg.grid_points * 2**lvl, halfwidth)
              for lvl in range(cfg.refinement_levels)]]
    for order in range(1, cfg.refinement_levels):
        weight = 4.0**order
        previous = table[-1]
        table.append([(weight * previous[i + 1] - previous[i]) / (weight - 1.0)
                      for i in range(len(previous) - 1)])
    got = oracle._richardson_eigenvalues(4, 6, cfg, halfwidth)
    assert np.array_equal(got, table[-1][0])


class TestParitySplit:
    def test_basic(self):
        even, odd = parity_split([1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(even, [1.0, 3.0])
        assert np.array_equal(odd, [2.0, 4.0])

    def test_single(self):
        even, odd = parity_split([5.0])
        assert np.array_equal(even, [5.0])
        assert odd.size == 0

    def test_not_sorted(self):
        with pytest.raises(DomainError, match="energies must be strictly increasing"):
            parity_split([1.0, 1.0, 2.0])
        with pytest.raises(DomainError, match="energies must be strictly increasing"):
            parity_split([2.0, 1.0])


def test_suggest_halfwidth_padding():
    for M in (2, 3, 4):
        count = 12
        L = suggest_halfwidth(M, count)
        alpha = 2.0 * M / (M + 1.0)
        top_estimate = growth_constant(M) * (count + 2.0) ** alpha
        assert L ** (2 * M) >= 4.0 * top_estimate * (1 - 1e-12)


def test_oracle_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(grid_points=32)
    with pytest.raises(ValueError):
        OracleConfig(refinement_levels=1)
    with pytest.raises(ValueError):
        OracleConfig(tolerance=0.0)
    # the finest grid, grid_points * 2**(refinement_levels - 1), holds at most
    # MAX_GRID_POINTS = 2**22 points, and a huge level count is refused at once
    OracleConfig(grid_points=2**21, refinement_levels=2)
    OracleConfig(grid_points=64, refinement_levels=17)
    for grid_points, levels in ((2**21 + 1, 2), (64, 18), (2048, 40), (64, 2**63 - 1)):
        with pytest.raises(ValueError, match="finest grid"):
            OracleConfig(grid_points=grid_points, refinement_levels=levels)
