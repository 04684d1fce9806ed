"""Independent finite-difference eigensolver for H = -d^2/dq^2 + q**(2M).

Ground-truth reference for the fixed-point solver, sharing none of its
numerics: plain second-order central differences with Dirichlet ends on a
symmetric interval, split into its two parity blocks, and Richardson
extrapolation across grid doublings.  Each grid's levels come from shifted
inverse iteration, shifted by the coarser grid's levels (the coarsest grid
by one loose bisection), and are certified before they enter the Richardson
table.  Only the width of the interval comes from the solver side, from the
semiclassical growth constant of oscillator.growth_constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResolutionError
from .oscillator import growth_constant

# largest finest grid, 128 times the 32768 points of the benchmark's verify
# runs (4096 points, 4 levels); one grid at it takes seconds, and each
# further level doubles that
MAX_GRID_POINTS = 2**22
# absolute tolerance of the one bisection that seeds the coarsest grid's
# shifts: it only has to land each shift far nearer its own level than any
# other, since inverse iteration then converges to the level
SEED_TOLERANCE = 1e-2
# dgtsv solves per level at most; two or three reach the rounding floor, more
# only where a grid too coarse for its levels passes on far-off shifts
MAX_SOLVES = 8


@dataclass(frozen=True)
class OracleConfig:
    """Discretization parameters.

    grid_points is the interior point count of the coarsest level; each of
    the at least two refinement levels doubles it, up to a finest grid of at
    most MAX_GRID_POINTS; the domain half-width comes from suggest_halfwidth.
    The tolerance bounds the disagreement between the two finest Richardson
    extrapolants, per eigenvalue.
    """

    grid_points: int = 2048
    refinement_levels: int = 3
    tolerance: float = 1e-6

    def __post_init__(self):
        if self.grid_points < 64:
            raise ValueError("grid_points must be at least 64")
        if self.refinement_levels < 2:
            raise ValueError("refinement_levels must be at least 2")
        # exact in integers, and no power of two is formed for a huge level count
        if self.grid_points > MAX_GRID_POINTS >> (self.refinement_levels - 1):
            raise ValueError(f"the finest grid, grid_points * 2**(refinement_levels - 1), "
                             f"must not exceed {MAX_GRID_POINTS} points")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")


def suggest_halfwidth(M: int, count: int) -> float:
    """Half-width L with L**(2M) at least four times the top requested level.

    The growth estimate nu (count + 2)**alpha comes from the semiclassical
    coefficient; the factor four keeps a classically forbidden pad between
    the turning point and the boundary so the Dirichlet error stays
    negligible against the discretization error.  The count is floored at
    ten: for very low levels the pad must be generous in absolute terms or
    the boundary error alone exceeds the accuracy of the extrapolation.
    """
    alpha = 2.0 * M / (M + 1.0)
    top = growth_constant(M) * (max(count, 10) + 2.0) ** alpha
    return float((4.0 * top) ** (1.0 / (2 * M)))


def _parity_blocks(power: int, points: int,
                   halfwidth: float) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(diagonal, off-diagonal) of the even and of the odd parity block.

    The potential is even, so the Dirichlet matrix of -u'' + q**power u on
    `points` interior nodes is a persymmetric Jacobi matrix: its eigenvalues
    are simple and its eigenvectors alternate between symmetric and
    antisymmetric, lowest first.  Each parity class is the half-size
    tridiagonal problem on the left half of the grid.  An even point count
    closes both blocks with u_mirror = +-u; an odd one gives the even block
    the centre node, its off-diagonal symmetrized to -sqrt(2)/h**2, and the
    odd block u_centre = 0.
    """
    h = 2.0 * halfwidth / (points + 1)
    half = points // 2
    q = -halfwidth + h * np.arange(1, half + 1)
    # q < 0 on the left half, where numpy's pow is about 30 times slower than on |q|
    inner = 2.0 / h**2 + np.abs(q) ** power
    off = np.full(half - 1, -1.0 / h**2)
    if points % 2:
        even_diagonal = np.append(inner, 2.0 / h**2)
        even_off = np.append(off, -np.sqrt(2.0) / h**2)
        odd_diagonal = inner
    else:
        even_diagonal, odd_diagonal = inner.copy(), inner
        even_diagonal[-1] -= 1.0 / h**2
        odd_diagonal[-1] += 1.0 / h**2
        even_off = off
    return (even_diagonal, even_off), (odd_diagonal, off)


def _lowest(diagonal: np.ndarray, off: np.ndarray, count: int,
            shifts: np.ndarray | None = None) -> np.ndarray:
    """Lowest `count` eigenvalues of a Jacobi matrix, certified.

    Level j is found by _inverse_iteration from shifts[j]; without shifts,
    one bisection to SEED_TOLERANCE supplies them.  The values are returned
    only if they are certified to be the lowest levels in order, each to
    within the rounding floor: each interval value +- (residual + floor)
    holds an eigenvalue, the intervals are disjoint and ascending, one Sturm
    count finds exactly `count` eigenvalues below a point past the last
    interval, and each residual is small enough against the gaps.  Anything
    else is a ResolutionError.
    """
    # imported on first use: importing scipy.linalg costs every process ~0.3 s
    from scipy.linalg.lapack import dstebz

    norm1 = float(np.abs(diagonal).max() + 2.0 * np.abs(off).max(initial=0.0))
    if shifts is None:
        # LAPACK numbers range 0/1/2 = all/value interval/index interval
        shifts = dstebz(diagonal, off, 2, 0.0, 0.0, 1, count, SEED_TOLERANCE, b"E")[1][:count]
    # the rounding error of a computed residual, eps * ||T||_1 with room to spare
    floor = 8.0 * np.finfo(float).eps * norm1
    values, residuals = _inverse_iteration(diagonal, off, shifts, floor)
    radii = residuals + floor
    failure = f"inverse iteration on {diagonal.size} rows did not certify the lowest {count} levels"
    # the potential is nonnegative, so every level is positive and the first
    # level's step up is measured from 0
    top = values[-1] + (values[-1] - (values[-2] if count > 1 else 0.0)) / 2
    above = np.append(values[1:] - radii[1:], top)
    if not np.all(values + radii < above):
        raise ResolutionError(f"{failure}: their residual intervals overlap or are out of order")
    # an absolute tolerance above the whole range ends dstebz's bisection at
    # once, so its eigenvalue count is two Sturm passes
    below = dstebz(diagonal, off, 1, -norm1, top, 0, 0, 4.0 * norm1, b"E")[0]
    if below != count:
        raise ResolutionError(f"{failure}: {below} eigenvalues lie below {top:.6g}")
    # each value lies within radius**2 / gap of its level (Kato's bound, gap
    # to the other eigenvalues); a level whose iteration stalled short of
    # the rounding floor is refused, even with its interval apart
    gap = np.minimum(above - values, values - np.append(-np.inf, values[:-1] + radii[:-1]))
    if not np.all(radii**2 <= floor * gap):
        raise ResolutionError(f"{failure}: a residual stalled above the rounding floor")
    return values


def _inverse_iteration(diagonal: np.ndarray, off: np.ndarray, shifts: np.ndarray,
                       floor: float) -> tuple[np.ndarray, np.ndarray]:
    """Rayleigh quotients and residual norms of inverse iteration from each shift.

    One dgtsv solve at the shift, then solves at the Rayleigh quotient of the
    first iterate, held fixed, until the residual reaches `floor` or stops
    falling.  The value is the Rayleigh quotient of the last iterate, written
    as sum (d_i + e_{i-1} + e_i) x_i**2 - sum e_i (x_{i+1} - x_i)**2 over x.x:
    on interior rows d_i - 2/h**2 is exact, so nothing cancels.
    """
    from scipy.linalg.lapack import dgtsv

    size = diagonal.size
    # d_i + e_{i-1} + e_i, the two off-diagonals summed first: -2/h**2 exactly
    row_sums = np.zeros(size)
    row_sums[:-1] = off
    row_sums[1:] += off
    row_sums += diagonal
    # dgtsv overwrites its matrix and right-hand side; these copies are
    # refilled for every solve, and the matrix's serve as scratch for the
    # Rayleigh quotient and the residual
    shifted, lower, upper = np.empty(size), np.empty(size - 1), np.empty(size - 1)
    iterate, solution = np.empty(size), np.empty(size)
    values, residuals = np.empty(len(shifts)), np.empty(len(shifts))
    for level, shift in enumerate(shifts):
        # the unit vector at the row next to the centre: no eigenvector of a
        # Jacobi matrix vanishes in its last component (the recurrence run
        # back from a zero there gives zero), so it reaches every level
        iterate.fill(0.0)
        iterate[-1] = 1.0
        residual = math.inf
        for solve in range(MAX_SOLVES):
            # an exactly zero pivot means the shift is a stored eigenvalue to
            # working precision; moving it by the floor surely changes the
            # shifted diagonal
            for nudge in (0.0, floor):
                np.subtract(diagonal, shift + nudge, out=shifted)
                lower[:] = off
                upper[:] = off
                solution[:] = iterate
                *_, result, info = dgtsv(lower, shifted, upper, solution, True, True, True, True)
                if info == 0:
                    break
            else:
                raise ResolutionError(f"tridiagonal solve failed at shift {shift!r} (info {info})")
            iterate, solution = result, iterate
            iterate *= 1.0 / math.sqrt(iterate @ iterate)
            np.multiply(iterate, iterate, out=shifted)
            np.subtract(iterate[1:], iterate[:-1], out=lower)
            np.square(lower, out=lower)
            value = (row_sums @ shifted - off @ lower) / shifted.sum()
            if solve == 0:
                shift = value
                continue
            np.subtract(diagonal, value, out=shifted)
            shifted *= iterate
            np.multiply(off, iterate[1:], out=lower)
            shifted[:-1] += lower
            np.multiply(off, iterate[:-1], out=upper)
            shifted[1:] += upper
            previous, residual = residual, math.sqrt(shifted @ shifted)
            if residual <= floor or residual > previous / 2:
                break
        values[level], residuals[level] = value, residual
    return values, residuals


def _grid_eigenvalues(power: int, count: int, points: int, halfwidth: float,
                      shifts: np.ndarray | None = None) -> np.ndarray:
    """Lowest eigenvalues of the Dirichlet discretization of -u'' + q**power u.

    Both parity blocks of _parity_blocks are solved by _lowest and their
    levels interleaved, even block first.  `shifts` are the levels of a
    coarser grid, the nearest guesses at the same levels; without them the
    grid seeds its own by one loose bisection.  Every value is the Rayleigh
    quotient of a converged iterate, within about 1e-15 relative of the
    stored matrix's eigenvalue, so a one-ulp change of the half-width moves
    the levels by about as little.
    """
    (even_diagonal, even_off), (odd_diagonal, odd_off) = _parity_blocks(power, points, halfwidth)
    out = np.empty(count)
    out[0::2] = _lowest(even_diagonal, even_off, (count + 1) // 2,
                        None if shifts is None else shifts[0::2])
    if count > 1:
        out[1::2] = _lowest(odd_diagonal, odd_off, count // 2,
                            None if shifts is None else shifts[1::2])
    return out


def _richardson_eigenvalues(power: int, count: int, cfg: OracleConfig,
                            halfwidth: float) -> np.ndarray:
    """Eigenvalues extrapolated across refinement levels.

    Each grid is shifted by the levels of the one before, or seeds its own
    shifts where those fail its certificate.  Central differences carry an
    even error expansion in h, so the classic Richardson table with orders
    h**2, h**4, ... applies; the two deepest diagonal entries must agree to
    cfg.tolerance per eigenvalue.
    """
    rows = []
    for lvl in range(cfg.refinement_levels):
        points = cfg.grid_points * 2**lvl
        try:
            rows.append(_grid_eigenvalues(power, count, points, halfwidth,
                                          rows[-1] if rows else None))
        except ResolutionError:
            if not rows:
                raise
            # the coarser grid's levels lie too far off to steer this grid's
            # (many levels on a coarse grid); it seeds its own
            rows.append(_grid_eigenvalues(power, count, points, halfwidth))
    table = np.array(rows)
    for order in range(1, cfg.refinement_levels):
        weight = 4.0**order
        runner_up = table[-1]
        table = (weight * table[1:] - table[:-1]) / (weight - 1.0)
    best = table[0]
    disagreement = np.abs(best - runner_up)
    if disagreement.max() > cfg.tolerance:
        worst = int(disagreement.argmax())
        raise ResolutionError(
            f"finest refinement levels disagree by {disagreement[worst]:.3e} "
            f"at eigenvalue {worst} (tolerance {cfg.tolerance:.3e})"
        )
    return best


def hamiltonian_eigenvalues(M: int, count: int, cfg: OracleConfig) -> np.ndarray:
    """Lowest `count` eigenvalues of -d^2/dq^2 + q**(2M), sorted ascending."""
    if count < 1:
        raise ValueError("count must be at least 1")
    if count * 8 > cfg.grid_points:
        raise ValueError("count must be far below grid_points for discretization accuracy")
    return _richardson_eigenvalues(2 * M, count, cfg, suggest_halfwidth(M, count))


def parity_split(energies) -> tuple[np.ndarray, np.ndarray]:
    """Even-index and odd-index levels of a strictly increasing spectrum."""
    arr = np.asarray(energies, dtype=float)
    if arr.size >= 2 and not np.all(np.diff(arr) > 0):
        raise DomainError("energies must be strictly increasing")
    return arr[0::2].copy(), arr[1::2].copy()
