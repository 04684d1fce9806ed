"""Quantization problems for the potential q**(2M) and the merged spectrum.

Each parity class of the oscillator spectrum solves its own fixed-point
equation: the kernel angle is theta = (M-1) pi / (M+1), the critical growth
exponent is 2M/(M+1), and the parity offsets differ by a constant.  Seeds are
normalized by the semiclassical growth coefficient, the tail normalization
every iterate keeps, and the two converged parities interlace into the full
spectrum.  The closed-form sum rule Z(1) = sum_k 1/E_k of each parity both
checks a fixed point (sum_rule_err) and places its start: a solve starts
from the seed's power law shifted in k to meet the sum rule, and
compute_spectrum starts the even parity between the odd levels, with its
ground state set by the sum rule, since the fixed point attracts every
properly normalized start and the start decides only the number of steps.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence
from .quantize import (
    IterationTrace,
    KernelParams,
    OffsetSequence,
    OperatorConfig,
    StopRule,
    iterate,
    reciprocal_sum,
)
from .sequences import EnergySequence, TailModel

# sum_rule_start's Newton iteration on the shift s: at most this many steps,
# closing once a step moves s by at most _SHIFT_TOL
_MAX_SHIFT_STEPS = 50
_SHIFT_TOL = 1e-14


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"


@dataclass(frozen=True)
class OscillatorProblem:
    """One parity class of the oscillator quantization problem."""

    M: int
    parity: Parity
    kernel: KernelParams
    alpha: float
    nu: float
    offsets: OffsetSequence


@dataclass(frozen=True)
class SpectrumResult:
    """Spectrum of one parity, or of both merged, with per-parity diagnostics."""

    energies: np.ndarray
    residuals: dict
    iterations: dict
    sum_rule_err: dict


def _require_anharmonic(M: int) -> None:
    """The one rule on M: the sums over levels converge only from M = 2 on."""
    if M < 2:
        raise ValueError("M must be at least 2")


def growth_constant(M: int) -> float:
    """Semiclassical growth coefficient nu of the spectrum E_k ~ nu k**alpha.

    nu = (2 sqrt(pi) M Gamma(3/2 + 1/(2M)) / Gamma(1/(2M)))**alpha, evaluated
    through log-gamma so the relative accuracy stays at machine level.
    """
    _require_anharmonic(M)
    alpha = 2.0 * M / (M + 1.0)
    log_base = (
        math.log(2.0)
        + 0.5 * math.log(math.pi)
        + math.log(M)
        + math.lgamma(1.5 + 0.5 / M)
        - math.lgamma(0.5 / M)
    )
    return math.exp(alpha * log_base)


def sum_rule(M: int, parity: Parity) -> float:
    """Closed-form sum rule Z(1) = sum_k 1/E_k over one parity class.

    Z(1) is the trace of the inverse half-line Hamiltonian, Neumann at 0
    for even and Dirichlet for odd, a Mellin transform of I K (Gradshteyn &
    Ryzhik 6.576.5).  With beta = M + 1 and
    C = beta**(2/beta - 2) Gamma(1 - 2/beta) Gamma(1/beta)
        / (2**(2 - 2/beta) Gamma(1 - 1/beta)),
    Z_even = C Gamma(1/(2 beta)) / Gamma(1 - 3/(2 beta)) and
    Z_odd = C Gamma(3/(2 beta)) / Gamma(1 - 1/(2 beta)).  By the reflection
    formula both equal pi C / (Gamma(1 - 1/(2 beta)) Gamma(1 - 3/(2 beta)))
    over sin(pi/(2 beta)) (even) or sin(3 pi/(2 beta)) (odd), which is how
    they are evaluated: through log-gamma of arguments in (0, 1), finite for
    any M, with the parity ratio sin(3x)/sin(x) = 1 + 2 cos(pi/beta) kept to
    rounding.
    """
    _require_anharmonic(M)
    beta = M + 1.0
    log_scale = ((2.0 / beta - 2.0) * math.log(beta) - (2.0 - 2.0 / beta) * math.log(2.0)
                 + math.log(math.pi) + math.lgamma(1.0 - 2.0 / beta) + math.lgamma(1.0 / beta)
                 - math.lgamma(1.0 - 1.0 / beta) - math.lgamma(1.0 - 0.5 / beta)
                 - math.lgamma(1.0 - 1.5 / beta))
    angle = (0.5 if parity is Parity.EVEN else 1.5) * math.pi / beta
    return math.exp(log_scale) / math.sin(angle)


def sum_rule_err(problem: OscillatorProblem, X: EnergySequence) -> float:
    """Signed relative error of the sum of 1/X, tail rule included, against
    the closed form: (sum_k 1/X_k + sum_tail w/X) / Z(1) - 1.  O(N)."""
    return reciprocal_sum(X) / sum_rule(problem.M, problem.parity) - 1.0


def build_problem(M: int, parity: Parity) -> OscillatorProblem:
    """Assemble kernel angle, growth data and parity offsets; validates the
    offset admissibility conditions and fails construction on violation.
    The offset constant is (2l - M)/(2(M + 1)), l = -1 even and l = 0 odd."""
    nu = growth_constant(M)  # refuses M < 2 before the kernel angle is formed
    kernel = KernelParams((M - 1) * math.pi / (M + 1))
    l = -1 if parity is Parity.EVEN else 0
    offsets = OffsetSequence(constant=(2 * l - M) / (2.0 * (M + 1)))
    offsets.validate(kernel)
    return OscillatorProblem(M=M, parity=parity, kernel=kernel, alpha=2.0 * M / (M + 1.0),
                             nu=nu, offsets=offsets)


def seed_sequence(problem: OscillatorProblem, n: int) -> EnergySequence:
    """Critically normalized seed 2**alpha nu k**alpha with matching tail.

    Both parity classes grow like 2**alpha nu k**alpha because they pick
    every other level of the full spectrum.
    """
    amplitude = 2.0 ** problem.alpha * problem.nu
    k = np.arange(1, n + 1, dtype=float)
    return EnergySequence(amplitude * k ** problem.alpha,
                          TailModel(amplitude, problem.alpha))


def sum_rule_start(problem: OscillatorProblem, n: int) -> EnergySequence:
    """The seed shifted in k to meet the sum rule: nu (2(k + s))**alpha with
    seed_sequence's tail, s fitted so that the sum of 1/X over the stored
    levels and the tail rule equals Z(1).

    The sum over the stored levels falls from infinity to zero as s runs
    over (-1, inf) and is convex in s, so a safeguarded Newton iteration on
    s converges in a few O(N) passes.  The stored levels' share of Z(1) that
    s must meet is positive: the tail's share is largest at N = 1, where it
    is at most 0.62 of Z(1) (M = 2 odd).  The fitted s tends to the WKB
    shifts -3/4 (even) and -1/4 (odd) at small M and to the square well's
    -1/2 and 0 at large M; at M = 2 it is -0.711 / -0.244.
    """
    seed = seed_sequence(problem, n)
    target = sum_rule(problem.M, problem.parity) - reciprocal_sum(seed) + np.sum(1.0 / seed.values)
    k = np.arange(1.0, n + 1.0)
    lo, hi, s = -1.0, math.inf, 0.0
    for _ in range(_MAX_SHIFT_STEPS):
        shifted = k + s
        inverse = 1.0 / (seed.tail.amplitude * shifted ** problem.alpha)
        excess = inverse.sum() - target
        lo, hi = (s, hi) if excess > 0 else (lo, s)
        proposal = s - excess / (-problem.alpha * (inverse / shifted).sum())
        if not lo < proposal < hi:
            proposal = 0.5 * (lo + hi)
        if abs(proposal - s) <= _SHIFT_TOL:
            break
        s = proposal
    return seed.with_values(1.0 / inverse)


def _interlaced_start(problem: OscillatorProblem, odd: EnergySequence) -> EnergySequence:
    """Even start between the odd levels of a solved odd parity.

    In t = (E/nu)**(1/alpha), where levels are near evenly spaced, even
    level j + 1 starts at the midpoint of odd levels j and j + 1.  Even
    level 1 is 1/(Z_even(1) - rest), rest the sum of 1/X over the other
    stored levels and the tail rule, when that lies in (0, X_2); otherwise
    it keeps the extrapolated 1.5 t_1 - 0.5 t_2.  Needs two odd levels at
    least; the tail is seed_sequence's.
    """
    seed = seed_sequence(problem, len(odd))
    t = (odd.values / problem.nu) ** (1.0 / problem.alpha)
    t = np.concatenate([[1.5 * t[0] - 0.5 * t[1]], 0.5 * (t[:-1] + t[1:])])
    start = seed.with_values(problem.nu * t ** problem.alpha)
    gap = sum_rule(problem.M, problem.parity) - (reciprocal_sum(start) - 1.0 / start.values[0])
    if gap * start.values[1] > 1.0:
        values = start.values.copy()
        values[0] = 1.0 / gap
        start = start.with_values(values)
    return start


def solve_parity(problem: OscillatorProblem, cfg: OperatorConfig, stop: StopRule,
                 start: EnergySequence | None = None) -> tuple[EnergySequence, IterationTrace]:
    """Iterate from start, by default sum_rule_start, to the parity fixed point.

    Each step is a Newton step on the derivative product (quantize.iterate
    with newton), so the solve takes a few steps (3 to 5 for M = 2 to 1000
    from sum_rule_start or compute_spectrum's even start) however slowly
    Picard iteration contracts at large M: trace.steps counts applications
    of the operator, the residuals are those of the operator at each
    iterate, and the returned fixed point is the image T(X) whose residual
    met the target.  Every iterate keeps the tail model of start, which
    fixes the truncated fixed point; pass start=seed_sequence(...) for the
    plain power-law start.  Use iterate directly for the plain Picard
    iteration whose rate the paper predicts.  Raises NoConvergence when the
    sup residual has not reached the stopping target within stop.max_steps.
    """
    if start is None:
        start = sum_rule_start(problem, cfg.truncation)
    trace = iterate(start, problem.offsets, problem.kernel, cfg, stop, newton=True)
    last = trace.residual_sup[-1]  # stop.max_steps >= 1 leaves one at least
    if last > stop.target_residual:
        raise NoConvergence(
            f"{problem.parity.value} parity residual {last:.3e} above target "
            f"{stop.target_residual:.3e} after {trace.steps} steps"
        )
    return trace.iterates[-1], trace


def merge_spectrum(even: EnergySequence, odd: EnergySequence) -> np.ndarray:
    """Interleave parity fixed points into the energies of the full spectrum.

    Level 2i-2 comes from even entry i and level 2i-1 from odd entry i.  The
    merged array must be strictly increasing; a violation signals truncation
    or convergence failure and is raised rather than warned about.
    """
    if len(even) != len(odd):
        raise NoConvergence(
            f"parity prefixes differ in length: {len(even)} vs {len(odd)}"
        )
    merged = np.empty(2 * len(even))
    merged[0::2] = even.values
    merged[1::2] = odd.values
    gaps = np.diff(merged)
    if not np.all(gaps > 0):
        where = int(np.argmin(gaps))
        raise NoConvergence(
            f"merged levels not strictly increasing at position {where} "
            f"(values {merged[where]:.12g} and {merged[where + 1]:.12g})"
        )
    return merged


def compute_spectrum(M: int, cfg: OperatorConfig, stop: StopRule) -> SpectrumResult:
    """Solve both parities and merge: odd first from sum_rule_start, then
    even from between the odd levels (sum_rule_start at N = 1)."""
    problems = {p: build_problem(M, p) for p in Parity}
    solved = {Parity.ODD: solve_parity(problems[Parity.ODD], cfg, stop)}
    odd = solved[Parity.ODD][0]
    even_start = _interlaced_start(problems[Parity.EVEN], odd) if len(odd) > 1 else None
    solved[Parity.EVEN] = solve_parity(problems[Parity.EVEN], cfg, stop, even_start)
    return SpectrumResult(
        energies=merge_spectrum(solved[Parity.EVEN][0], odd),
        residuals={p.value: solved[p][1].residual_sup[-1] for p in Parity},
        iterations={p.value: solved[p][1].steps for p in Parity},
        sum_rule_err={p.value: sum_rule_err(problems[p], solved[p][0]) for p in Parity},
    )
