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
from oscspec.cli import EXIT_ORACLE, main
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
    # table, so the extrapolants agree bit for bit; each grid is shifted by
    # the levels of the one before, as in _richardson_eigenvalues
    cfg = OracleConfig(grid_points=256, refinement_levels=4, tolerance=1.0)
    halfwidth = suggest_halfwidth(2, 6)
    column, shifts = [], None
    for lvl in range(cfg.refinement_levels):
        shifts = oracle._grid_eigenvalues(4, 6, cfg.grid_points * 2**lvl, halfwidth, shifts)
        column.append(shifts)
    table = [column]
    for order in range(1, cfg.refinement_levels):
        weight = 4.0**order
        previous = table[-1]
        table.append([(weight * previous[i + 1] - previous[i]) / (weight - 1.0)
                      for i in range(len(previous) - 1)])
    got = oracle._richardson_eigenvalues(4, 6, cfg, halfwidth)
    assert np.array_equal(got, table[-1][0])


def _longdouble_levels(diagonal, off, count):
    """Lowest levels of a Jacobi matrix by Sturm-count bisection in long double."""
    d = diagonal.astype(np.longdouble)
    e2 = off.astype(np.longdouble) ** 2
    rank = np.arange(count)
    lo = np.zeros(count, dtype=np.longdouble)
    hi = np.full(count, np.abs(d).max() + 2 * np.sqrt(e2.max()), dtype=np.longdouble)
    tiny = np.finfo(np.longdouble).tiny
    while True:
        mid = (lo + hi) / 2
        if np.all((mid == lo) | (mid == hi)):
            return mid
        pivot = d[0] - mid
        below = (pivot < 0).astype(int)
        for i in range(1, d.size):
            pivot = d[i] - mid - e2[i - 1] / np.where(pivot == 0, -tiny, pivot)
            below += pivot < 0
        # level k lies below mid when more than k eigenvalues do
        lo, hi = np.where(below > rank, lo, mid), np.where(below > rank, mid, hi)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("M", [2, 3])
@pytest.mark.parametrize("points", [256, 257])
def test_grid_levels_match_a_long_double_bisection_of_the_stored_matrix(M, points):
    # the Rayleigh quotient has no cancellation, so each grid's levels are
    # the stored matrix's eigenvalues to about 1e-15 relative (1.2e-14 next
    # to the odd grid's centre node); LAPACK's bisection to eps * ||T||_1
    # was up to 5.1e-13 off here
    halfwidth = suggest_halfwidth(M, 10)
    got = oracle._grid_eigenvalues(2 * M, 10, points, halfwidth)
    for parity, (diagonal, off) in enumerate(oracle._parity_blocks(2 * M, points, halfwidth)):
        exact = _longdouble_levels(diagonal, off, 5)
        assert np.max(np.abs(got[parity::2] - exact) / exact) <= 1e-13


@pytest.mark.parametrize("M", [2, 3, 4, 5])
def test_oracle_is_reproducible_under_a_one_ulp_change_of_the_halfwidth(M):
    # A4's configuration: the levels move by rounding alone, where the
    # bisection's tolerance moved them by 3.5e-10 (M = 2) to 1.4e-8 (M = 5)
    cfg = OracleConfig(grid_points=4096, refinement_levels=3, tolerance=1e-6)
    halfwidth = suggest_halfwidth(M, 10)
    base = oracle._richardson_eigenvalues(2 * M, 10, cfg, halfwidth)
    nudged = oracle._richardson_eigenvalues(2 * M, 10, cfg, np.nextafter(halfwidth, np.inf))
    assert np.max(np.abs(nudged - base) / base) <= 1e-13


class TestCertificate:
    halfwidth = suggest_halfwidth(2, 10)

    def test_shifts_one_level_up_are_refused(self):
        # each block converges to its levels 1 to 3, and the Sturm count at
        # the top finds four levels below, not three
        coarse = oracle._grid_eigenvalues(4, 8, 256, self.halfwidth)
        with pytest.raises(ResolutionError, match="4 eigenvalues lie below"):
            oracle._grid_eigenvalues(4, 6, 512, self.halfwidth, coarse[2:])

    def test_a_repeated_shift_is_refused(self):
        # two shifts at the even block's lowest level converge to it twice
        shifts = oracle._grid_eigenvalues(4, 6, 256, self.halfwidth)
        shifts[2] = shifts[0]
        with pytest.raises(ResolutionError, match="overlap"):
            oracle._grid_eigenvalues(4, 6, 512, self.halfwidth, shifts)

    @pytest.mark.parametrize("points", [256, 257])
    def test_shifts_at_the_stored_eigenvalues(self, points):
        levels = oracle._grid_eigenvalues(4, 10, points, self.halfwidth)
        again = oracle._grid_eigenvalues(4, 10, points, self.halfwidth, levels)
        assert np.max(np.abs(again - levels) / levels) <= 1e-13

    def test_a_level_stalled_above_the_floor_is_refused(self, monkeypatch):
        # two solves from a fifth of the way up to the next level leave the
        # residual far above the floor: the interval is apart and the count
        # right, but the value is not certified to the floor
        (diagonal, off), _ = oracle._parity_blocks(4, 256, self.halfwidth)
        low, high = oracle._lowest(diagonal, off, 2)
        monkeypatch.setattr(oracle, "MAX_SOLVES", 2)
        with pytest.raises(ResolutionError, match="stalled"):
            oracle._lowest(diagonal, off, 1, np.array([low + (high - low) / 5]))

    def test_a_coarsest_grid_that_fails_its_certificate_is_refused(self, monkeypatch, capsys):
        # one solve, at the shift, measures no residual: the coarsest grid has
        # no coarser one to fall back from, so its failure reaches the caller
        monkeypatch.setattr(oracle, "MAX_SOLVES", 1)
        with pytest.raises(ResolutionError, match="residual intervals overlap"):
            hamiltonian_eigenvalues(2, 10, OracleConfig(512, 2))
        code = main(["verify", "--M", "2", "--N", "100", "--levels", "10",
                     "--oracle-grid", "512", "--oracle-levels", "2"])
        assert code == EXIT_ORACLE
        assert "oracle failure:" in capsys.readouterr().err

    def test_a_grid_too_coarse_to_steer_the_next_seeds_its_own(self):
        # 64 levels on 512 points: the top levels move by more than half their
        # spacing from one grid to the next, so the second grid's inherited
        # shifts fail its certificate, and it bisects for its own
        halfwidth = suggest_halfwidth(2, 64)
        coarse = oracle._grid_eigenvalues(4, 64, 512, halfwidth)
        with pytest.raises(ResolutionError):
            oracle._grid_eigenvalues(4, 64, 1024, halfwidth, coarse)
        fine = oracle._grid_eigenvalues(4, 64, 1024, halfwidth)
        cfg = OracleConfig(grid_points=512, refinement_levels=2, tolerance=10.0)
        got = oracle._richardson_eigenvalues(4, 64, cfg, halfwidth)
        assert np.array_equal(got, (4.0 * fine - coarse) / 3.0)

    def test_a_shift_with_an_exactly_zero_pivot(self):
        # [[2, -1], [-1, 2]] less 1 or 3 factors with a zero second pivot;
        # dgtsv reports it, and the shift is moved off by the rounding floor
        diagonal, off = np.array([2.0, 2.0]), np.array([-1.0])
        got = oracle._lowest(diagonal, off, 2, np.array([1.0, 3.0]))
        np.testing.assert_allclose(got, [1.0, 3.0], rtol=1e-15)


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
