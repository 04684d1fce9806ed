"""The exact quantization operator.

The operator maps a positive sequence X to the sequence Y solving, level by
level, the counting equation

    (1/pi) * sum_k angle_kernel(X_k, Y_j) = Q_j,

where the sum runs over the full sequence (stored prefix plus tail model) and
Q is an admissible offset sequence.  Because the left side depends on Y only
through Y_j and is strictly increasing in it, each component has a unique root
and the components solve independently.

This module provides the two pair kernels, the compression of a sequence
into per-panel Chebyshev moments, built once per sequence by each of its
three readers: the counting function, the implicit solve on panels, and the
row-stochastic derivative matrix of the operator in log coordinates, which
reads Y through its own compression and exists only as a product in O(N)
memory, never as an N x N array; and the iteration driver, plain Picard or
Newton steps on that product.  The
truncated operator keeps its input's tail model: the tail normalization is
a boundary condition, as in the paper's spaces of properly normalized
sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np
from numpy.polynomial.chebyshev import chebder, chebpts1, chebvander

from .errors import DomainError, NoConvergence
from .sequences import EnergySequence, TailModel, weighted_norm

_LOG8 = math.log(8.0)
# widest admissible panel range: total widening factor 2**64 on either side
_MAX_HALFWIDTH = 64.0 * math.log(2.0)
# probes per block of _kernel_sum, the one kernel block loop, hold at most this
# many kernel values (1 MiB, inside a 2 MiB L2 cache)
_BLOCK_ENTRIES = 1 << 17
# apply_quantization solves level j to |phi_j - Q_j| <= ROOT_TOL within MAX_ROOT_ITERS
# safeguarded Newton iterations
ROOT_TOL = 1e-12
MAX_ROOT_ITERS = 100
# largest truncation: numpy refuses 2**60 float64 entries with a ValueError, not
# a MemoryError, and np.arange(1, N + 1, dtype=float) rounds its length up to
# 2**60 from N = 2**60 - 64 on; up to 2**59 a solve's seed fails as a MemoryError
MAX_TRUNCATION = 2**59
# degree of the Chebyshev panels of apply_quantization, their points on [-1, 1],
# and the maps from values at the points to the coefficients of the interpolant
# (discrete orthogonality) and of its derivative on [-1, 1]
_CHEB_DEGREE = 24
_CHEB_NODES = chebpts1(_CHEB_DEGREE + 1)
_CHEB_FROM_VALUES = chebvander(_CHEB_NODES, _CHEB_DEGREE).T * (2.0 / (_CHEB_DEGREE + 1))
_CHEB_FROM_VALUES[0] *= 0.5
_CHEB_SLOPE_FROM_VALUES = np.vstack([chebder(_CHEB_FROM_VALUES), np.zeros(_CHEB_DEGREE + 1)])


@dataclass(frozen=True)
class KernelParams:
    """Angle parameter of the pair kernels, in radians, strictly inside (0, pi)."""

    theta: float

    def __post_init__(self):
        if not 0.0 < self.theta < math.pi:
            raise ValueError(f"theta must lie strictly between 0 and pi, got {self.theta}")

    @property
    def sin(self) -> float:
        return math.sin(self.theta)

    @property
    def cos(self) -> float:
        return math.cos(self.theta)


@dataclass(frozen=True)
class OffsetSequence:
    """Right-hand side Q of the counting equations.

    Stored in closed form Q_k = k + constant.  Admissibility asks for
    Q_k = k + O(1) (automatic here) and the strict lower bound
    Q_k > (k - 1/2) theta / pi for every k, without which the operator has no
    fixed point at all.  ``validate`` checks the bound by a single inequality
    at k = 1, which suffices because the margin grows linearly in k.
    """

    constant: float

    def values(self, n: int) -> np.ndarray:
        """Q_1 .. Q_n as an array."""
        return np.arange(1, n + 1, dtype=float) + self.constant

    def validate(self, kernel: KernelParams) -> None:
        """Raise DomainError unless Q_k > (k - 1/2) theta/pi for all k."""
        rate = kernel.theta / math.pi
        # margin k(1 - theta/pi) + constant + theta/(2 pi) increases in k,
        # so the bound at k = 1 proves all larger ones
        if not 1 + self.constant > 0.5 * rate:
            raise DomainError(
                f"closed-form offsets fail at k=1: {1 + self.constant} <= {0.5 * rate}"
            )


@dataclass(frozen=True)
class OperatorConfig:
    """Numerical parameters of the truncated operator."""

    truncation: int = 500
    # Gauss-Legendre nodes of the tail quadrature, fixed for every solve
    tail_quadrature_points: ClassVar[int] = 64

    def __post_init__(self):
        if self.truncation < 1:
            raise ValueError("truncation must be at least 1")
        if self.truncation > MAX_TRUNCATION:
            raise ValueError(f"truncation must be at most {MAX_TRUNCATION}")


# the tail quadrature, OperatorConfig's Gauss-Legendre rule mapped onto [0, 1]
TAIL_NODES, TAIL_WEIGHTS = np.polynomial.legendre.leggauss(OperatorConfig.tail_quadrature_points)
TAIL_NODES, TAIL_WEIGHTS = 0.5 * (TAIL_NODES + 1.0), 0.5 * TAIL_WEIGHTS


@dataclass(frozen=True)
class StopRule:
    """Stopping policy for the iteration driver."""

    max_steps: int = 200
    target_residual: float = 1e-10
    rate_epsilon: float = 1.0

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if not self.target_residual >= 0:
            raise ValueError("target_residual must be non-negative")
        if not self.rate_epsilon >= 0:
            raise ValueError("rate_epsilon must be non-negative")


@dataclass
class IterationTrace:
    """Iterates with per-step residuals in logarithmic coordinates.

    residual_sup[n] and residual_weighted[n] measure the residual of the
    operator at iterates[n], ln T(iterates[n]) - ln iterates[n]; the weighted
    residual uses the stop rule's rate_epsilon.  Under plain Picard iteration
    iterates[n+1] is T(iterates[n]), so they measure the step between
    consecutive iterates.  Under Newton iteration the intermediate iterates
    are Newton points, and the last iterate is always the image
    T(iterates[-2]).  steps counts applications of the operator.
    """

    iterates: list[EnergySequence] = field(default_factory=list)
    residual_sup: list[float] = field(default_factory=list)
    residual_weighted: list[float] = field(default_factory=list)

    @property
    def steps(self) -> int:
        return len(self.residual_sup)


def angle_kernel(kernel: KernelParams, e_source, e_probe):
    """Phase contributed by a level e_source to the count at energy e_probe.

    Continuous (0, pi)-valued branch: the two-argument arctangent of
    (sin theta, e_source/e_probe + cos theta).  Decreasing in the ratio
    e_source/e_probe, tending to theta as the ratio vanishes and to 0 as it
    grows; a single-argument arctangent would jump when the second argument
    changes sign for theta beyond pi/2.  An overflowed ratio gives the limit 0.
    """
    with np.errstate(over="ignore"):
        ratio = np.asarray(e_source, dtype=float) / np.asarray(e_probe, dtype=float)
    return np.arctan2(kernel.sin, ratio + kernel.cos)


def derivative_kernel(kernel: KernelParams, e_a, e_b):
    """Symmetric pair kernel E E' / (E^2 + 2 cos theta E E' + E'^2).

    Evaluated as 1 / (r + 2 cos theta + 1/r) with r = e_a/e_b, which is
    scale invariant; a ratio that overflows or underflows gives the limit 0.
    The sum is formed in place in r, so an array result peaks at twice its
    size: r and 1/r, then r and the result.
    """
    with np.errstate(over="ignore", divide="ignore"):
        ratio = np.asarray(e_a, dtype=float) / np.asarray(e_b, dtype=float)
        inverse = 1.0 / ratio
        ratio += 2.0 * kernel.cos
        ratio += inverse
        del inverse
        return 1.0 / ratio


def _tail_rule(n: int, tail: TailModel) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature surrogate for sums over tail indices k > n.

    The sum is approximated by the integral of the tail integrand over
    [n + 1/2, inf), mapped onto (0, 1] by s = (n + 1/2) u**(-1/(a-1)).  The
    substitution absorbs the power decay, so the transformed integrand is
    bounded and smooth and the fixed rule TAIL_NODES, TAIL_WEIGHTS suffices.

    Returns extrapolated sequence values at the nodes and the combined
    quadrature-times-Jacobian weights.  TailModel refuses exponents <= 1.
    """
    a = tail.exponent
    s0 = n + 0.5
    s = s0 * TAIL_NODES ** (-1.0 / (a - 1.0))
    jac = s0 / (a - 1.0) * TAIL_NODES ** (-a / (a - 1.0))
    return tail.value(s), TAIL_WEIGHTS * jac


def reciprocal_sum(X: EnergySequence) -> float:
    """sum_{k<=N} 1/X_k plus the tail rule's sum of w/X over its nodes: the
    sum of 1/X_k over the full sequence, the tail summed as the operator's
    kernel sums sum it.  O(N)."""
    tail_values, tail_weights = _tail_rule(len(X), X.tail)
    return float(np.sum(1.0 / X.values) + tail_weights @ (1.0 / tail_values))


def _kernel_sum(sources: np.ndarray, weights: np.ndarray, probes: np.ndarray,
                kernel: KernelParams) -> np.ndarray:
    """(1/pi) sum_k w_k angle_kernel(s_k, y) over sources s_k with weights w_k
    at every probe y, in probe blocks of at most _BLOCK_ENTRIES kernel values
    (one probe at least), each evaluated in place by angle_kernel's operations
    in a view of one buffer allocated once per call: freed temporaries go back
    to the OS and fault in afresh on the next call (~330 pages a call at
    N = 1500)."""
    out = np.empty(probes.size)
    step = max(1, _BLOCK_ENTRIES // sources.size)
    buffer = np.empty((min(step, probes.size), sources.size))
    for start in range(0, probes.size, step):
        block = slice(start, start + step)
        values = buffer[:min(step, probes.size - start)]
        with np.errstate(over="ignore"):
            np.divide(sources, probes[block, None], out=values)
        np.arctan2(kernel.sin, np.add(values, kernel.cos, out=values), out=values)
        out[block] = values @ weights
    return out * (1.0 / math.pi)


class _CountingPanels:
    """The equal panels of width at most 2 (pi - theta) / 3 on [lo, hi] in
    s = ln y, the one owner of their geometry, and piecewise Chebyshev
    interpolants on them of functions sampled at their Chebyshev points,
    panel by panel.

    Each term of the counting sum, arg(e**(ln X_k - s) + e**(i theta)), and
    of the derivative-kernel sum is analytic in |Im s| < pi - theta and,
    whatever s is, in the same strip as a function of ln X_k; each panel
    therefore sits in a Bernstein ellipse of parameter 3 + sqrt(10), in which
    degree _CHEB_DEGREE reaches the rounding floor of the dense sum.  The
    number of panels grows like the log-range over pi - theta (so like M + 1
    for the oscillator) and is not bounded by N.  Every range spans at least
    the compression's 2 ln 8, so hi > lo.

    Nothing is kept per panel, so the compression of X touches only its
    occupied panels, also among the 2.4e7 of the bracket certificates at
    M = 1e7, where every panel's points would take gigabytes.
    """

    def __init__(self, kernel: KernelParams, lo: float, hi: float):
        self.count = math.ceil((hi - lo) / (2.0 * (math.pi - kernel.theta) / 3.0))
        self.lo, self.hi, self.width = lo, hi, (hi - lo) / self.count

    def locate(self, s: np.ndarray) -> np.ndarray:
        """The panel of every s, by floor: below 0 or from count on outside [lo, hi)."""
        return np.floor((s - self.lo) / self.width).astype(int)

    def local(self, panel: np.ndarray, s: np.ndarray) -> np.ndarray:
        """The local coordinate of every s on its panel, in [-1, 1] on the panel."""
        return (s - (self.lo + self.width * (panel + 0.5))) * (2.0 / self.width)

    def nodes(self, panels: np.ndarray) -> np.ndarray:
        """Energies of the Chebyshev points of the given panels, panel by panel."""
        centers = self.lo + self.width * (panels[:, None] + 0.5)
        return np.exp(centers + 0.5 * self.width * _CHEB_NODES).ravel()

    def fit(self, values: np.ndarray, slope: bool = False) -> np.ndarray:
        """Coefficients (degree + 1, row, panel) of the interpolant of the
        values at the nodes of any number of panels, panel by panel, and,
        with slope, of its derivative in s."""
        phi = values.reshape(-1, _CHEB_DEGREE + 1)
        rows = [_CHEB_FROM_VALUES @ phi.T]
        if slope:
            rows.append((2.0 / self.width) * (_CHEB_SLOPE_FROM_VALUES @ phi.T))
        return np.stack(rows, axis=1)

    def __call__(self, coef: np.ndarray, panel: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The rows of coef at local coordinates x of the given panels (their
        indices into coef), from one Clenshaw sweep."""
        x2 = 2.0 * x
        b1, b2 = coef[-1].take(panel, axis=1), 0.0
        for c in coef[-2:0:-1]:
            b1, b2 = c.take(panel, axis=1) + x2 * b1 - b2, b1
        return coef[0].take(panel, axis=1) + x * b1 - b2


class _CompressedSources:
    """A sequence X compressed once: the one panel rule for the sources of
    kernel sums over X and for sums probed at its levels.

    The stored levels are interpolated on `panels`, the _CountingPanels over
    [min ln X - ln 8, max ln X + ln 8] (the far-field step of the black-box
    FMM, Fong & Darve, J. Comput. Phys. 228, 2009, with no near field).  A
    panel holding more than _CHEB_DEGREE + 1 stored levels is packed: its
    Chebyshev points stand for its levels, through the Lagrange basis l_a at
    their local coordinates t_k; any other panel keeps its levels, direct.
    `points` are the direct levels, the packed panels' Chebyshev points, then
    the tail rule's nodes: at most N + 64 points with its 64 nodes.
    `moments(v)`, the one step per weight vector, weights the points but the
    tail nodes for level weights v (v_k at a direct level, the moments
    m_a = sum_k v_k l_a(t_k) at packed points); `weights`, built on first
    read, are the counting sum's, moments(1) then `tail_weights`.  The
    transpose of `moments`, `interpolate`, reads values at those points back
    at the levels, a packed level from its panel's interpolant.  Both run
    over the packed levels only, ordered panel by panel at build, one run per
    panel (none at M = 30, N = 250 or M = 100, N = 1000): O(N * 25) time,
    O(N) memory.  The build costs O(N log N), since only occupied panels are
    indexed.
    """

    def __init__(self, X: EnergySequence, kernel: KernelParams):
        x_log = np.log(X.values)
        self.panels = _CountingPanels(kernel, x_log.min() - _LOG8, x_log.max() + _LOG8)
        panel = self.panels.locate(x_log)
        occupied, slot, size = np.unique(panel, return_inverse=True, return_counts=True)
        packed = size > _CHEB_DEGREE + 1
        self._direct = ~packed[slot]
        # the levels of the packed panels, panel by panel (the identity for
        # sorted X), each panel's run starting at its entry of _starts
        spread = np.flatnonzero(~self._direct)
        self._spread = spread[np.argsort(slot[spread], kind="stable")]
        self._starts = np.cumsum(size[packed]) - size[packed]
        self._t = self.panels.local(panel[self._spread], x_log[self._spread])
        tail_values, self.tail_weights = _tail_rule(len(X), X.tail)
        self.points = np.concatenate([X.values[self._direct],
                                      self.panels.nodes(occupied[packed]), tail_values])

    @cached_property
    def weights(self) -> np.ndarray:
        """The counting sum's weights: the levels at one, the tail nodes at the rule's."""
        return np.concatenate([self.moments(np.ones(self._direct.size)), self.tail_weights])

    def moments(self, v: np.ndarray) -> np.ndarray:
        """Weights of the points but the tail nodes for the level weights v."""
        # column m: the sum of v_k T_m(t_k) over each packed panel's run,
        # v_k T_m(t_k) running the three-term recurrence of T_m from v_k, v_k t_k
        sums = np.empty((self._starts.size, _CHEB_DEGREE + 1))
        t_prev = v[self._spread]
        t_cur, two_t = self._t * t_prev, 2.0 * self._t
        for column in sums.T:
            column[:] = np.add.reduceat(t_prev, self._starts)
            t_prev, t_cur = t_cur, two_t * t_cur - t_prev
        return np.concatenate([v[self._direct], (sums @ _CHEB_FROM_VALUES).ravel()])

    def interpolate(self, values: np.ndarray) -> np.ndarray:
        """The transpose of moments: values at the points but the tail nodes
        read back at the levels."""
        out = np.empty(self._direct.size)
        out[self._direct], packed = np.split(values, [np.count_nonzero(self._direct)])
        run = np.searchsorted(self._starts, np.arange(self._spread.size), "right") - 1
        out[self._spread] = self.panels(self.panels.fit(packed), run, self._t)[0]
        return out


def counting_function(X: EnergySequence, probes, kernel: KernelParams) -> np.ndarray:
    """Counting function of the full sequence X at every probe energy.

    Returns (1/pi) sum_k w_k angle_kernel(X_k, y) for each probe y.  The
    weights w_k are one on the stored entries and the tail quadrature weights
    on the tail nodes.  The stored levels enter through the points of
    _CompressedSources, and every probe is evaluated directly against them,
    with no interpolation on the probe side: a probe costs O(S) with
    S <= N + 64 sources (164 to 378 for the bracket candidates at N = 2000,
    M = 2, 3, 5), on top of O(N log N + N * 25) for the compression, whatever
    the number of panels.  The panels of apply_quantization sample the same
    sum, over the sources compressed once per application, at their
    Chebyshev points.
    Against the dense sum over all N + 64 sources it is off by at most
    1.2e-15 * max phi, at the stored levels and above them, so a certificate
    moves by ~2e-12 against its 1e-8 slack.
    The sum is blocked over the probes, so besides its output it holds
    O(S * block) memory, a block being max(1, _BLOCK_ENTRIES // S) probes.
    """
    sources = _CompressedSources(X, kernel)
    return _kernel_sum(sources.points, sources.weights, np.asarray(probes, dtype=float), kernel)


def apply_quantization(X: EnergySequence, Q: OffsetSequence, kernel: KernelParams,
                       cfg: OperatorConfig) -> EnergySequence:
    """Apply the operator: solve the counting equation at every stored level.

    Every component inverts one increasing function, the counting function
    s -> phi(X, e**s).  Its sum is evaluated once per panel build, at the
    Chebyshev points of panels covering one range of y = ln Y shared by all
    levels; the panel width is 2 (pi - theta) / 3, set by the strip of
    analyticity of the kernel, at degree 24.  X is compressed once per
    application, and each panel of it holding more than 25 stored levels
    enters every build's sum through its 25 Chebyshev moments instead of its
    levels (see _CompressedSources), so the kernel sum costs
    O(N * 25 + (panels * 25) * (panels * 25 + 64)) per application instead
    of several O(N**2) passes, with O(N) memory besides the blocked sum.  All
    root finding then runs on that piecewise interpolant and its Chebyshev
    derivative, which agree with the dense sum to its rounding floor
    (measured ~1e-15 * max phi).  No N x N kernel matrix is ever formed.

    The first build samples on the panels of the compression itself, over
    [min X / 8, 8 max X]; the range widens by a factor 8 at an end, each time
    building new panels on the same compressed sources, until the
    interpolant there lies below min Q and above max Q (up to a total factor
    of 2**64 per side).  Each panel's edge values are read from its
    coefficients, since T_m(+-1) = (+-1)**m, and level j is bracketed by the
    panel whose edge values straddle Q_j.  It is solved on the interpolant
    of that panel alone, with no lookup per sweep, by a safeguarded Newton
    iteration in y_j = ln Y_j from ln X_j clipped into the panel, falling
    back to bisection.  Level j closes, keeping y_j, when
    |phi_j - Q_j| <= max(ROOT_TOL, phi'_j r_j), r_j = 8 eps max(1, |y_j|):
    the residual is at the tolerance, or the Newton step is within the
    resolution of y_j, since at large truncations one ulp of y_j moves phi_j
    by more than any fixed tolerance.  A bracket that bisection collapses to
    r_j also closes its level, so every loop ends.

    The output keeps the input's tail model bit for bit: the normalization
    of the tail is a boundary condition of the truncated operator.  At the
    critical exponent the full operator maps a power tail to itself, so this
    is its own tail on critically normalized sequences; off it, only the
    stored levels carry the per-application rescaling.

    Raises NoConvergence if widening runs out or MAX_ROOT_ITERS is exhausted.
    cfg is not read: the tail rule, TAIL_NODES and TAIL_WEIGHTS, is fixed.
    """
    n = len(X)
    q = Q.values(n)

    sources = _CompressedSources(X, kernel)
    panels = sources.panels
    x_log = np.log(X.values)
    # widen until the range brackets every level: phi is increasing in y, so
    # phi(lo) < min Q and phi(hi) > max Q put each root between two panel edges
    while True:
        nodes = panels.nodes(np.arange(panels.count))
        coef = panels.fit(_kernel_sum(sources.points, sources.weights, nodes, kernel), slope=True)
        # T_m(-1) = (-1)**m and T_m(1) = 1: the interpolant at each panel's left
        # edge, then at the last panel's right edge
        phi_edges = np.append(coef[::2, 0].sum(0) - coef[1::2, 0].sum(0), coef[:, 0, -1].sum())
        widen_lo, widen_hi = phi_edges[0] >= q.min(), phi_edges[-1] <= q.max()
        if not widen_lo and not widen_hi:
            break
        if x_log.min() - panels.lo > _MAX_HALFWIDTH or panels.hi - x_log.max() > _MAX_HALFWIDTH:
            worst = int(np.argmax(q) if widen_hi else np.argmin(q))
            raise NoConvergence(
                f"no sign change bracketing level {worst + 1} within a 2**64 expansion"
            )
        panels = _CountingPanels(kernel, panels.lo - _LOG8 * widen_lo,
                                 panels.hi + _LOG8 * widen_hi)

    # level j's bracket is the panel whose edge values straddle Q_j; its
    # Newton iteration runs on that panel's interpolant
    panel = np.searchsorted(phi_edges, q) - 1
    lo, hi = panels.lo + panels.width * panel, panels.lo + panels.width * (panel + 1)
    y = np.clip(x_log, lo, hi)

    # the open set: a level leaves it when it closes, its root written to roots
    roots = np.empty(n)
    level = np.arange(n)
    for _ in range(MAX_ROOT_ITERS):
        f, slope = panels(coef, panel, panels.local(panel, y))
        f -= q
        positive = f > 0
        lo, hi = np.where(positive, lo, y), np.where(positive, y, hi)
        # r: the resolution of y; a bracket collapsed to r cannot move y again
        r = 8.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(y))
        closed = (np.abs(f) <= np.maximum(ROOT_TOL, slope * r)) | (hi - lo <= r)
        roots[level[closed]] = y[closed]
        open_ = ~closed
        level, panel, y, lo, hi, q, f, slope = (
            v[open_] for v in (level, panel, y, lo, hi, q, f, slope))
        if level.size == 0:
            break
        proposal = y - f / slope
        outside = ~np.isfinite(proposal) | (proposal <= lo) | (proposal >= hi)
        y = np.where(outside, 0.5 * (lo + hi), proposal)
    if level.size:
        raise NoConvergence(
            f"{level.size} level(s) unresolved after {MAX_ROOT_ITERS} iterations, "
            f"first at level {int(level[0]) + 1}"
        )
    return X.with_values(np.exp(roots))


class DerivativeMatrix:
    """Derivative of the operator at X in logarithmic coordinates, truncated,
    as a product in O(N) memory.

    Row i is K(X_j, Y_i) / Z_i over the stored levels j, with K the derivative
    kernel and Z_i = sum_k w_k K(X_k, Y_i) over the full sequence, tail
    included; the tail's share of Z_i is the row defect, so every entry is
    positive and each row plus its defect sums to one.  Construction
    compresses X and Y once each, x and y, by the one rule of
    _CompressedSources, and keeps the derivative-kernel matrix between x's
    points and y's points but the tail nodes, and
    Z = y.interpolate(matrix @ x.weights); `D @ v` is
    y.interpolate(matrix @ x.moments(v)) / Z, the tail columns unweighted, so
    D @ 1 and the defect add up to one to rounding.  At large M every panel
    is sparse and this is the direct N x S evaluation (S sources); at M <= 5
    it interpolates on panels.  Against the dense matrix, its normalizers
    summed and its entries and products with v formed in extended precision,
    it is off by at most 1.6e-15 * max |v| (seeds and fixed points of
    M = 2, 3, 5, N <= 2000 and M = 30 to 1000, N = 250; seeds of M = 100,
    N = 1000).  The matrix has at most N rows, y's direct levels and 25 per
    packed panel, by at most N + 64 columns: 143 x 216 at M = 2, N = 2000,
    1000 x 1064 (8.1 MiB) at M = 100, N = 1000, built with one temporary.
    """

    def __init__(self, X: EnergySequence, Y: EnergySequence, kernel: KernelParams):
        if len(Y) != len(X):
            raise ValueError(f"Y has {len(Y)} levels, X {len(X)}: the matrix must be square")
        x = self._sources = _CompressedSources(X, kernel)
        y = self._probes = _CompressedSources(Y, kernel)
        self._matrix = derivative_kernel(kernel, x.points, y.points[:-y.tail_weights.size, None])
        self._norm = y.interpolate(self._matrix @ x.weights)

    def __len__(self) -> int:
        return self._norm.size

    def __matmul__(self, v) -> np.ndarray:
        moments = self._sources.moments(np.asarray(v, dtype=float))
        return self._probes.interpolate(self._matrix[:, :moments.size] @ moments) / self._norm


def derivative_matrix(X: EnergySequence, Y: EnergySequence, kernel: KernelParams,
                      cfg: OperatorConfig) -> DerivativeMatrix:
    """Derivative of the operator at X in log coordinates, rows normalized: a
    DerivativeMatrix.  The caller is responsible for Y = apply_quantization(X);
    this is not re-verified.  cfg is not read."""
    return DerivativeMatrix(X, Y, kernel)


def iterate(X0: EnergySequence, Q: OffsetSequence, kernel: KernelParams,
            cfg: OperatorConfig, stop: StopRule, newton: bool = False) -> IterationTrace:
    """Apply the operator repeatedly, recording residuals per step.

    Stops when the sup-log residual drops to stop.target_residual or after
    stop.max_steps applications.  The residual at X is ln T(X) - ln X over
    the stored entries, plain sup and k**rate_epsilon weighted.  Solver
    errors are re-raised with the step index attached.

    By default each step moves to the image: plain Picard iteration,
    X <- T(X), whose residuals decay at the paper's contraction rate.  With
    newton, each step but the last moves to the Newton point in x = ln X,
    x + (I - D)**-1 (ln T(X) - x), with D the derivative_matrix at X, its
    linear system solved by _gmres to the forcing term
    min(1e-2, 0.1 * sup residual) (Eisenstat & Walker, SIAM J. Sci. Comput.
    17, 1996).  Only the stored entries move; the operator keeps the tail
    model of X0, so every iterate carries it.  A Newton point that is not
    finite or not strictly increasing is replaced by the image T(X).  Either
    way the final iterate is the image T(X_K) whose residual ended the run.
    """
    trace = IterationTrace(iterates=[X0])
    current = X0
    for step in range(stop.max_steps):
        try:
            image = apply_quantization(current, Q, kernel, cfg)
        except NoConvergence as exc:
            raise NoConvergence(f"step {step + 1}: {exc}") from exc
        f = np.log(image.values) - np.log(current.values)
        trace.residual_sup.append(float(np.abs(f).max()))
        trace.residual_weighted.append(weighted_norm(f, stop.rate_epsilon))
        done = trace.residual_sup[-1] <= stop.target_residual
        previous, current = current, image
        if newton and not done and step + 1 < stop.max_steps:
            correction = _gmres(derivative_matrix(previous, image, kernel, cfg), f,
                                min(1e-2, 0.1 * trace.residual_sup[-1]))
            with np.errstate(over="ignore"):
                values = np.exp(np.log(previous.values) + correction)
            if np.all(np.isfinite(values)) and values[0] > 0 and np.all(np.diff(values) > 0):
                current = image.with_values(values)
        trace.iterates.append(current)
        if done:
            break
    return trace


def _gmres(D: DerivativeMatrix, b: np.ndarray, rtol: float) -> np.ndarray:
    """x with |b - (I - D) x| <= rtol |b| in the 2-norm, by GMRES from x = 0
    with no restart (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 1986), or
    the best x in the whole Krylov space after N products of D.

    The Arnoldi basis is orthogonalized by modified Gram-Schmidt.  The
    residual of the least-squares problem in the Hessenberg matrix H is
    |b| |z_0|, with z the unit left null vector of H, which grows by one
    entry per product; H is kept as its list of columns and assembled and
    solved once, at the end.  The basis holds one vector of N per product,
    so at most N**2 values.
    """
    norm = beta = np.linalg.norm(b)
    w, basis, columns, z = b, [], [], np.ones(1)
    while abs(z[0]) > rtol and len(basis) < b.size:
        basis.append(w / norm)
        w = basis[-1] - D @ basis[-1]
        column = np.empty(len(basis) + 1)
        for i, v in enumerate(basis):
            column[i] = v @ w
            w -= column[i] * v
        norm = column[-1] = np.linalg.norm(w)
        columns.append(column)
        # z stays orthogonal to every column of H: the new entry cancels the last
        z = np.append(norm * z, -(z @ column[:-1]))
        z /= np.linalg.norm(z)
    hessenberg = np.zeros((z.size, len(columns)))
    for j, column in enumerate(columns):
        hessenberg[:j + 2, j] = column
    y = np.linalg.lstsq(hessenberg, np.eye(1, z.size)[0], rcond=None)[0]
    return beta * (np.array(basis).T @ y)
