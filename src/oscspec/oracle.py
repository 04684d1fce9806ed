"""Independent finite-difference eigensolver for H = -d^2/dq^2 + q**(2M).

Ground-truth reference for the fixed-point solver, sharing none of its
numerics: plain second-order central differences with Dirichlet ends on a
symmetric interval, a tridiagonal eigensolver, and Richardson extrapolation
across grid doublings.  Only the width of the interval comes from the solver
side, from the semiclassical growth constant of oscillator.growth_constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResolutionError
from .oscillator import growth_constant

# largest finest grid, 128 times the 32768 points of the benchmark's verify
# runs (4096 points, 4 levels); one solve at it takes seconds, and each
# further level doubles that
MAX_GRID_POINTS = 2**22


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


def _lowest(diagonal: np.ndarray, off: np.ndarray, count: int) -> np.ndarray:
    # imported on first use: importing scipy.linalg costs every process ~0.3 s
    from scipy.linalg import eigh_tridiagonal

    return eigh_tridiagonal(diagonal, off, eigvals_only=True, select="i",
                            select_range=(0, count - 1))


def _grid_eigenvalues(power: int, count: int, points: int, halfwidth: float) -> np.ndarray:
    """Lowest eigenvalues of the Dirichlet discretization of -u'' + q**power u.

    The potential is even, so the matrix is a persymmetric Jacobi matrix: its
    eigenvalues are simple and its eigenvectors alternate between symmetric
    and antisymmetric, lowest first.  Each parity class is therefore solved
    exactly as its own half-size tridiagonal problem on the left half of the
    grid, and the two are interleaved.  An even point count closes both blocks
    with u_mirror = +-u; an odd one gives the even block the centre node, its
    off-diagonal symmetrized to -sqrt(2)/h**2, and the odd block u_centre = 0.

    LAPACK's default bisection tolerance eps * ||T||_1 (about 1e-8 absolute
    at 32768 points) is kept: it sets the oracle's reproducibility floor of
    3e-9 to 1e-8 relative for M = 2 to 5, against which acceptance A4 checks
    that per-level deviations fall monotonically in N.  A tight tolerance
    lowers the floor to about 1e-16 at about 1.6x the time; it is not taken.
    """
    h = 2.0 * halfwidth / (points + 1)
    half = points // 2
    q = -halfwidth + h * np.arange(1, half + 1)
    inner = 2.0 / h**2 + q**power
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
    out = np.empty(count)
    out[0::2] = _lowest(even_diagonal, even_off, (count + 1) // 2)
    if count > 1:
        out[1::2] = _lowest(odd_diagonal, off, count // 2)
    return out


def _richardson_eigenvalues(power: int, count: int, cfg: OracleConfig,
                            halfwidth: float) -> np.ndarray:
    """Eigenvalues extrapolated across refinement levels.

    Central differences carry an even error expansion in h, so the classic
    Richardson table with orders h**2, h**4, ... applies; the two deepest
    diagonal entries must agree to cfg.tolerance per eigenvalue.
    """
    table = np.array([
        _grid_eigenvalues(power, count, cfg.grid_points * 2**lvl, halfwidth)
        for lvl in range(cfg.refinement_levels)
    ])
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
