"""Quantization problems for the potential q**(2M) and the merged spectrum.

Each parity class of the oscillator spectrum solves its own fixed-point
equation: the kernel angle is theta = (M-1) pi / (M+1), the critical growth
exponent is 2M/(M+1), and the parity offsets differ by a constant.  Seeds are
normalized by the semiclassical growth coefficient so the iteration starts
inside the attraction basin, and the two converged parities interlace into
the full spectrum.
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
)
from .sequences import EnergySequence, TailModel


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


def growth_constant(M: int) -> float:
    """Semiclassical growth coefficient nu of the spectrum E_k ~ nu k**alpha.

    nu = (2 sqrt(pi) M Gamma(3/2 + 1/(2M)) / Gamma(1/(2M)))**alpha, evaluated
    through log-gamma so the relative accuracy stays at machine level.
    """
    if M < 2:
        raise ValueError("M must be at least 2")
    alpha = 2.0 * M / (M + 1.0)
    log_base = (
        math.log(2.0)
        + 0.5 * math.log(math.pi)
        + math.log(M)
        + math.lgamma(1.5 + 0.5 / M)
        - math.lgamma(0.5 / M)
    )
    return math.exp(alpha * log_base)


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


def solve_parity(problem: OscillatorProblem, cfg: OperatorConfig,
                 stop: StopRule) -> tuple[EnergySequence, IterationTrace]:
    """Iterate from the seed to the parity fixed point.

    Each step is a Newton step on the derivative product (quantize.iterate
    with newton), so the solve takes a few steps (3 to 6 for M = 2 to 300)
    however slowly Picard iteration contracts at large M: trace.steps counts
    applications of the operator, the residuals are those of the operator at
    each iterate, and the returned fixed point is the image T(X) whose
    residual met the target.  Use iterate directly for the plain Picard
    iteration whose rate the paper predicts.  Raises NoConvergence when the
    sup residual has not reached the stopping target within stop.max_steps.
    """
    trace = iterate(seed_sequence(problem, cfg.truncation), problem.offsets,
                    problem.kernel, cfg, stop, newton=True)
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
    """Solve both parities and merge."""
    problems = {p: build_problem(M, p) for p in Parity}
    solved = {p: solve_parity(prob, cfg, stop) for p, prob in problems.items()}
    return SpectrumResult(
        energies=merge_spectrum(solved[Parity.EVEN][0], solved[Parity.ODD][0]),
        residuals={p.value: solved[p][1].residual_sup[-1] for p in Parity},
        iterations={p.value: solved[p][1].steps for p in Parity},
    )
