"""Asymptotic diagnostics of the quantization operator.

The drift of power sequences and its closed form, the critical growth
exponent, the contraction integrals governing weighted perturbations,
sub/super-solution brackets, and empirical rate measurement on iteration
traces.  Drift and contraction are one Mellin transform of the pair kernel,
int_0^inf t**p dt / (t**2 + 2t cos theta + 1), read at p = 1/alpha and at
p = (1 - eps)/a, so both integrals call one _mellin: a fixed
Gauss-Legendre sum over s in [1, 2] and the exact Chebyshev-U series beyond.
Both closed forms read their sines through one reflection, _sin_fraction.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientData
from .quantize import (
    ROOT_TOL,
    TAIL_NODES,
    TAIL_WEIGHTS,
    IterationTrace,
    KernelParams,
    OffsetSequence,
    OperatorConfig,
    counting_function,
)
from .sequences import EnergySequence, TailModel, weighted_norm

# empirical_rate drops errors at or below this floor as noise
_RATE_FLOOR = 100 * ROOT_TOL
# absolute tolerance of critical_exponent_from_drift's root
_DRIFT_XTOL = 1e-12
# terms of contraction_integral's tail series beyond s = 2
_TAIL_TERMS = 80
_PI_LOW = 1.2246467991473532e-16  # pi - math.pi, rounded


@dataclass(frozen=True)
class ContractionReport:
    s_eps: float
    factor: float


class BracketKind(enum.Enum):
    SUPER = "SUPER"
    SUB = "SUB"


@dataclass(frozen=True)
class BracketCertificate:
    """Numerical sub/super-solution certificate over the stored levels.

    A SUPER certificate checks that the counting function at the sequence
    itself is at least the offsets (so one application can only move the
    sequence down); SUB is the mirror statement.  max_violation is the worst
    signed excess against the tested inequality, and the certificate is
    verified when it stays within the slack.
    """

    verified: bool
    max_violation: float


def drift_integral(alpha: float, kernel: KernelParams) -> float:
    """Per-application rescaling exponent integral for power growth alpha.

    (1/pi) times the integral over s in (0, inf) of the angle kernel branch
    atan2(sin theta, s**alpha + cos theta), for finite alpha > 1.  With
    atan2(sin theta, r + cos theta) = int_r^inf sin theta dt / (t**2 +
    2t cos theta + 1) and the order of integration swapped, it is
    (sin theta / pi) int_0^inf t**(1/alpha) dt / (t**2 + 2t cos theta + 1):
    the same Mellin transform of the pair kernel as the contraction integral,
    which t = s**a turns into (1/a) int_0^inf t**((1 - eps)/a) dt / (...).
    So, with a the critical exponent, the drift is a sin(theta)/pi times the
    contraction integral at b = 1 - eps = a/alpha, whose distance a - b to the
    strip edge is passed as a ((alpha - 1)/alpha): exact next to alpha = 1,
    where eps rounds, and finite up to alpha = 1e308.
    """
    if not 1.0 < alpha < math.inf:
        raise DomainError(f"drift integral needs a finite alpha > 1, got {alpha}")
    a = critical_exponent(kernel)
    return a * kernel.sin / math.pi * _mellin(a / alpha, a * ((alpha - 1.0) / alpha), kernel)


def drift_closed(alpha: float, kernel: KernelParams) -> float:
    """Closed form sin(theta/alpha) / sin(pi/alpha) of the drift, exact to
    rounding for finite alpha > 1: one application rescales a power sequence
    of exponent alpha by its -alpha-th power; one at alpha = 1 + theta/pi."""
    if not 1.0 < alpha < math.inf:
        raise DomainError(f"drift is defined for a finite alpha > 1, got {alpha}")
    if kernel.theta / alpha < sys.float_info.min:  # underflow, but sin(t) = t there
        return kernel.theta / math.pi * (math.pi / alpha / math.sin(math.pi / alpha))
    return _sin_fraction(1.0, alpha, kernel) / _sin_fraction(1.0, alpha)


def critical_exponent(kernel: KernelParams) -> float:
    """The growth exponent with unit drift: 1 + theta/pi."""
    return 1.0 + kernel.theta / math.pi


def critical_exponent_from_drift(kernel: KernelParams) -> float:
    """Brent root of drift_integral(alpha) = 1 over [1 + 1e-6, 64].

    Verification mode for the closed form: the drift decreases strictly in
    alpha from +inf to theta/pi, so the root is unique.
    """
    # imported on first use: importing scipy.optimize costs every process ~0.3 s
    from scipy.optimize import brentq

    try:
        return brentq(lambda alpha: drift_integral(alpha, kernel) - 1.0, 1.0 + 1e-6, 64.0,
                      xtol=_DRIFT_XTOL)
    except ValueError:  # brentq's refusal of a bracket without a sign change
        raise DomainError("drift does not cross 1 inside [1 + 1e-6, 64]") from None


def contraction_integral(epsilon: float, kernel: KernelParams) -> float:
    """Weighted contraction integral at the critical exponent.

    Integral over s in (0, inf) of s**(-epsilon) / (s**a + 2 cos theta +
    s**(-a)) with a the critical exponent.  Symmetrized onto [1, inf) and read
    in u = ln s, it is the integral of cosh(b u) / (cosh(a u) + cos theta)
    over u > 0, with b = 1 - eps.  The head u < ln 2 is a fixed Gauss-Legendre
    sum over cuts that resolve its peak; the tail is the exact series of the
    Chebyshev-U expansion
    1 / (cosh(a u) + cos theta) = 2 sum_{n>=1} U_{n-1}(-cos theta) e**(-n a u),
    integrated term by term.  Returns math.inf when |epsilon - 1| >= a, where
    the integral diverges.
    """
    return _mellin(1.0 - epsilon, critical_exponent(kernel) - abs(1.0 - epsilon), kernel)


def _mellin(b: float, edge: float, kernel: KernelParams) -> float:
    """contraction_integral at b = 1 - eps, given edge = a - |b| exact; the
    series is even in b, its near-edge denominators n a - |b| = (n - 1) a + edge."""
    if edge <= 0.0:
        return math.inf
    a = critical_exponent(kernel)
    half_cos = math.cos(0.5 * kernel.theta)

    # the head peaks at u = 0 with width 2 cos(theta/2) / a, which closes as
    # theta -> pi; cuts at that width times powers of four resolve the peak
    # (4**32 times the width reaches ln 2 for every float theta below pi)
    top = math.log(2.0)
    widths = 2.0 * half_cos / a * 4.0 ** np.arange(32)
    cuts = np.concatenate([[0.0], widths[widths < top], [top]])
    # the tail rule of quantize on every cut: the integrand is analytic
    # around each cut, so a fixed rule converges geometrically
    lengths = np.diff(cuts)[:, None]
    u, w = cuts[:-1, None] + lengths * TAIL_NODES, lengths * TAIL_WEIGHTS
    # its denominator as 2 (sinh(a u/2)**2 + cos(theta/2)**2), free of
    # cancellation near pi
    head = np.sum(w * np.cosh(b * u) / (2.0 * (np.sinh(0.5 * a * u) ** 2 + half_cos**2)))

    # U_{n-1}(x) by its three-term recurrence, accurate to rounding at small
    # theta where sin(n (pi - theta)) / sin(theta) is not; with a > 1 the
    # terms fall like n 2**(-(n - 1) a), below rounding by n = _TAIL_TERMS
    x = -kernel.cos
    cheb_u = np.empty(_TAIL_TERMS)
    cheb_u[0], cheb_u[1] = 1.0, 2.0 * x
    for k in range(2, _TAIL_TERMS):
        cheb_u[k] = 2.0 * x * cheb_u[k - 1] - cheb_u[k - 2]
    na, b = a * np.arange(1, _TAIL_TERMS + 1), abs(b)
    tail = cheb_u @ (2.0 ** (b - na) / (na - a + edge) + 2.0 ** (-b - na) / (na + b))
    return float(head + tail)


def contraction_closed(epsilon: float, kernel: KernelParams) -> float:
    """Closed form of the contraction integral.

    (pi / (a sin theta)) * sin((1-eps) theta / a) / sin((1-eps) pi / a) for
    0 < |eps - 1| < a, with limit theta / (a sin theta) at eps = 1 and
    math.inf beyond the convergence strip, exact to rounding up to its edges.
    """
    a = critical_exponent(kernel)
    gap = 1.0 - epsilon
    if abs(gap) >= a:
        return math.inf
    if gap == 0.0:
        return kernel.theta / (a * kernel.sin)
    if kernel.theta < sys.float_info.min:  # pi / sin overflows, but sin(t) = t there
        return math.pi / a * (gap / a) / _sin_fraction(gap, a)
    return (math.pi / (a * kernel.sin)) * _sin_fraction(gap, a, kernel) / _sin_fraction(gap, a)


def _sin_fraction(x: float, y: float, kernel: KernelParams | None = None) -> float:
    """sin(x angle / y) for 0 < |x| < y, angle theta or, with no kernel, pi.
    Past pi/2, where the argument rounds near pi, it is read as the reflected
    ((y - |x|) pi + |x| (pi - angle)) / y, in which y - |x| and pi - theta
    are exact by Sterbenz's lemma and pi - theta carries pi's low part."""
    angle, deficit = (math.pi, 0.0) if kernel is None else (
        kernel.theta, math.pi - kernel.theta + _PI_LOW)
    if 2.0 * abs(x) * angle <= y * math.pi:
        return math.sin(x * angle / y)
    return math.copysign(math.sin(((y - abs(x)) * math.pi + abs(x) * deficit) / y), x)


def contraction_factor(epsilon: float, kernel: KernelParams) -> ContractionReport:
    """Predicted geometric rate S_eps / S_0 for eps-weighted perturbations."""
    s_eps = contraction_closed(epsilon, kernel)
    s_zero = contraction_closed(0.0, kernel)
    return ContractionReport(s_eps=s_eps, factor=s_eps / s_zero)


def spectral_rate_estimate(D, epsilon: float, steps: int) -> float:
    """Geometric decay rate of the truncated derivative matrix acting on
    the profile v_k = k**(-epsilon).

    D is anything with a length and a product `D @ v`: a DerivativeMatrix,
    whose product runs in O(N) memory, or a plain square array.  Applies it
    `steps` times and fits the slope of the log of the epsilon-weighted sup
    norms over the last half of the steps.
    """
    if steps < 3:
        # the fit window, the last half of the steps, needs two points
        raise InsufficientData("at least three steps are needed to fit a rate")
    v = np.arange(1, len(D) + 1, dtype=float) ** (-epsilon)
    norms = np.empty(steps)
    for i in range(steps):
        v = D @ v
        norms[i] = weighted_norm(v, epsilon)
    window = np.arange(steps // 2, steps)
    slope = np.polyfit(window, np.log(norms[window]), 1)[0]
    return float(np.exp(slope))


def upper_bracket(A: float, n: int, kernel: KernelParams) -> EnergySequence:
    """Super-solution candidate (k + A)**a at the critical exponent a.

    The tail model carries the shift, so the sequence is represented exactly
    at every index.  For A large enough one application moves it down; A = 0
    degenerates to the plain critical power.
    """
    if A < 0:
        raise DomainError("A must be nonnegative")
    a = critical_exponent(kernel)
    k = np.arange(1, n + 1, dtype=float)
    return EnergySequence((k + A) ** a, TailModel(1.0, a, shift=A))


def lower_bracket(n_param: int, n: int, kernel: KernelParams) -> EnergySequence:
    """Sub-solution candidate: geometric staircase then shifted power.

    Entries n_param**(k - n_param**2) for k below n_param**2 and
    (k - n_param**2 + n_param)**a from there on, at the critical exponent a.
    The truncation must reach past the staircase.
    """
    if n_param < 2:
        raise DomainError("n_param must be at least 2")
    square = n_param * n_param
    if n <= square:
        raise DomainError(f"truncation {n} must exceed n_param**2 = {square}")
    a = critical_exponent(kernel)
    k = np.arange(1, n + 1, dtype=float)
    values = np.empty(n)
    stair = k < square
    values[stair] = float(n_param) ** (k[stair] - square)
    values[~stair] = (k[~stair] - square + n_param) ** a
    return EnergySequence(values, TailModel(1.0, a, shift=float(n_param - square)))


def verify_bracket(X: EnergySequence, Q: OffsetSequence, kernel: KernelParams,
                   cfg: OperatorConfig, slack: float = 1e-8, *,
                   kind: BracketKind) -> BracketCertificate:
    """Certify X as a sub- or super-solution over the stored levels.

    Evaluates d_j = phi_j(X, X_j) - Q_j for every stored j.  All d_j >= -slack
    certifies SUPER (one application moves X down), all d_j <= slack certifies
    SUB; a fixed point satisfies both within solver noise.  phi comes from
    counting_function, which sums over the per-panel Chebyshev moments of X:
    it is within 2.3e-12 of the dense sum (measured on the candidates of
    upper_bracket and lower_bracket at N = 500 and 2000, M = 2, 3, 5), far
    inside the default slack of 1e-8.  cfg is not read.
    """
    diffs = counting_function(X, X.values, kernel) - Q.values(len(X))
    violation = float(-diffs.min()) if kind is BracketKind.SUPER else float(diffs.max())
    return BracketCertificate(verified=violation <= slack, max_violation=violation)


def empirical_rate(trace: IterationTrace, reference: EnergySequence, epsilon: float) -> float:
    """Fitted geometric rate of epsilon-weighted errors against a reference.

    Least-squares slope of the log error over the geometric regime: the first
    quarter of the steps is dropped as transient and steps with error at or
    below _RATE_FLOOR are dropped as noise.  Returns lambda = exp(slope).
    """
    if len(trace.iterates) < 4:
        raise InsufficientData("need at least 4 iterates to fit a rate")
    ref_log = np.log(reference.values)
    errors = np.array([weighted_norm(np.log(it.values) - ref_log, epsilon)
                       for it in trace.iterates])
    steps = np.arange(len(errors))
    usable = (steps >= len(errors) // 4) & (errors > _RATE_FLOOR)
    if usable.sum() < 2:
        raise InsufficientData("fewer than 2 points remain in the geometric regime")
    slope = np.polyfit(steps[usable], np.log(errors[usable]), 1)[0]
    return float(np.exp(slope))
