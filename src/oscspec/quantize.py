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
exists only as a product in O(N) memory, never as an N x N array; and the
iteration driver.  The truncated operator keeps its input's tail model: the
tail normalization is a boundary condition, as in the paper's spaces of
properly normalized sequences.
"""

from __future__ import annotations

import math
from collections import deque
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
_CHEB_SLOPE_FROM_VALUES = np.zeros_like(_CHEB_FROM_VALUES)
_CHEB_SLOPE_FROM_VALUES[:-1] = chebder(_CHEB_FROM_VALUES)


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
    consecutive iterates.  Under Anderson acceleration the intermediate
    iterates are mixed points, and the last iterate is always the image
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
    """
    with np.errstate(over="ignore", divide="ignore"):
        ratio = np.asarray(e_a, dtype=float) / np.asarray(e_b, dtype=float)
        return 1.0 / (ratio + 2.0 * kernel.cos + 1.0 / ratio)


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

    Each term of the counting sum, arg(e**(ln X_k - s) + e**(i theta)), is
    analytic in |Im s| < pi - theta and, whatever s is, in the same strip as
    a function of ln X_k; each panel therefore sits in a Bernstein ellipse of
    parameter 3 + sqrt(10), in which degree _CHEB_DEGREE reaches the rounding
    floor of the dense sum.  The number of panels grows like the log-range
    over pi - theta (so like M + 1 for the oscillator) and is not bounded by N.

    Nothing is kept per panel (`edges` is built when it is read), so the
    compression of X touches only its occupied panels, also among the 2.4e7
    of the bracket certificates at M = 1e7, where every panel's points would
    take gigabytes.
    """

    def __init__(self, kernel: KernelParams, lo: float, hi: float):
        self.count = max(1, math.ceil((hi - lo) / (2.0 * (math.pi - kernel.theta) / 3.0)))
        self.lo, self.width = lo, (hi - lo) / self.count

    @cached_property
    def edges(self) -> np.ndarray:
        return self.lo + self.width * np.arange(self.count + 1)

    def locate(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The panel of every s in [lo, hi] and its local coordinate in [-1, 1]."""
        panel = np.clip(((s - self.lo) / self.width).astype(int), 0, self.count - 1)
        return panel, (s - (self.lo + self.width * (panel + 0.5))) * (2.0 / self.width)

    def nodes(self, panels: np.ndarray) -> np.ndarray:
        """Energies of the Chebyshev points of the given panels, panel by panel."""
        centers = self.lo + self.width * (panels[:, None] + 0.5)
        return np.exp(centers + 0.5 * self.width * _CHEB_NODES).ravel()

    def fit(self, values: np.ndarray, slope: bool = False) -> np.ndarray:
        """Coefficients (degree + 1, row, panel) of the interpolant of the
        values at the nodes of every panel and, with slope, of its derivative
        in s."""
        phi = values.reshape(self.count, -1)
        rows = [_CHEB_FROM_VALUES @ phi.T]
        if slope:
            rows.append((2.0 / self.width) * (_CHEB_SLOPE_FROM_VALUES @ phi.T))
        return np.stack(rows, axis=1)

    def __call__(self, coef: np.ndarray, panel: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The rows of coef at the points `locate` put at local coordinates x
        of the given panels, from one Clenshaw sweep."""
        x2 = 2.0 * x
        b1, b2 = coef[-1].take(panel, axis=1), 0.0
        for c in coef[-2:0:-1]:
            b1, b2 = c.take(panel, axis=1) + x2 * b1 - b2, b1
        return coef[0].take(panel, axis=1) + x * b1 - b2


class _CompressedSources:
    """The sources of the kernel sums over X, compressed once.

    The stored levels are interpolated on `panels`, the _CountingPanels over
    [min ln X - ln 8, max ln X + ln 8] (the far-field step of the black-box
    FMM, Fong & Darve, J. Comput. Phys. 228, 2009, with no near field).  A
    panel holding more than _CHEB_DEGREE + 1 stored levels hands a sum its
    own Chebyshev points instead, weighted by the moments
    m_a = sum_k v_k l_a(t_k) of the Lagrange basis l_a at the levels' local
    coordinates t_k; any other panel keeps its levels at their weights v_k.
    `points` are the direct levels, the Chebyshev points of compressed
    panels, then the tail nodes: at most N + 64 sources.  `weights` are the
    counting sum's, the levels at one and the tail nodes at the tail rule's
    weights.  `moments(v)`, the one step per weight vector, weights the
    levels by v and the tail nodes by zero, so its sum runs over the stored
    levels alone; it costs O(N * 25) time and memory, and the build
    O(N log N) besides, since only occupied panels are indexed.
    """

    def __init__(self, X: EnergySequence, kernel: KernelParams):
        x_log = np.log(X.values)
        self.panels = _CountingPanels(kernel, x_log.min() - _LOG8, x_log.max() + _LOG8)
        panel, self._t = self.panels.locate(x_log)
        occupied, self._slot, size = np.unique(panel, return_inverse=True, return_counts=True)
        self._packed = size > _CHEB_DEGREE + 1
        self._direct = ~self._packed[self._slot]
        tail_values, tail_weights = _tail_rule(len(X), X.tail)
        self.points = np.concatenate([X.values[self._direct],
                                      self.panels.nodes(occupied[self._packed]), tail_values])
        self.weights = self.moments(np.ones(len(X)))
        self.weights[-tail_weights.size:] = tail_weights

    def moments(self, v: np.ndarray) -> np.ndarray:
        """Weights of the points for the level weights v, the tail nodes at zero."""
        # column m: the sum of v_k T_m(t_k) over the levels of each occupied panel,
        # v_k T_m(t_k) running the three-term recurrence of T_m from v_k, v_k t_k
        sums = np.empty((self._packed.size, _CHEB_DEGREE + 1))
        t_prev, t_cur = v, self._t * v
        for column in sums.T:
            column[:] = np.bincount(self._slot, weights=t_prev, minlength=self._packed.size)
            t_prev, t_cur = t_cur, 2.0 * self._t * t_cur - t_prev
        moments = sums[self._packed] @ _CHEB_FROM_VALUES
        return np.concatenate([v[self._direct], moments.ravel(), np.zeros(TAIL_NODES.size)])


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

    The range starts at [min X / 8, 8 max X] and widens by a factor 8 at an
    end, rebuilding the panels on the same compressed sources, until the
    interpolant there lies below min Q and above max Q (up to a total factor
    of 2**64 per side).  Level j is bracketed by the panel whose edge values straddle Q_j and solved by a
    safeguarded Newton iteration in y_j = ln Y_j from ln X_j clipped into that
    panel, falling back to bisection.  Level j closes, keeping y_j, when
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
    x_log = np.log(X.values)
    lo, hi = x_log.min() - _LOG8, x_log.max() + _LOG8
    # widen until the range brackets every level: phi is increasing in y, so
    # phi(lo) < min Q and phi(hi) > max Q put each root between two panel edges
    while True:
        panels = _CountingPanels(kernel, lo, hi)
        nodes = panels.nodes(np.arange(panels.count))
        coef = panels.fit(_kernel_sum(sources.points, sources.weights, nodes, kernel), slope=True)
        phi_edges = panels(coef, *panels.locate(panels.edges))[0]
        widen_lo, widen_hi = phi_edges[0] >= q.min(), phi_edges[-1] <= q.max()
        if not widen_lo and not widen_hi:
            break
        if x_log.min() - lo > _MAX_HALFWIDTH or hi - x_log.max() > _MAX_HALFWIDTH:
            worst = int(np.argmax(q) if widen_hi else np.argmin(q))
            raise NoConvergence(
                f"no sign change bracketing level {worst + 1} within a 2**64 expansion"
            )
        lo -= _LOG8 * widen_lo
        hi += _LOG8 * widen_hi

    # level j's bracket is the panel whose edge values straddle Q_j
    upper = np.searchsorted(phi_edges, q)
    lo, hi = panels.edges[upper - 1], panels.edges[upper]
    y = np.clip(x_log, lo, hi)

    # the open set: a level leaves it when it closes, its root written to roots
    roots = np.empty(n)
    level = np.arange(n)
    for _ in range(MAX_ROOT_ITERS):
        f, slope = panels(coef, *panels.locate(y))
        f -= q
        positive = f > 0
        lo, hi = np.where(positive, lo, y), np.where(positive, y, hi)
        # r: the resolution of y; a bracket collapsed to r cannot move y again
        r = 8.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(y))
        closed = (np.abs(f) <= np.maximum(ROOT_TOL, slope * r)) | (hi - lo <= r)
        roots[level[closed]] = y[closed]
        open_ = ~closed
        level, y, lo, hi, q, f, slope = (v[open_] for v in (level, y, lo, hi, q, f, slope))
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
    compresses X once (_CompressedSources) and locates ln Y once on the
    _CountingPanels over [min ln Y - ln 8, max ln Y + ln 8].  `D @ v` takes
    the moments of v, the tail weighted zero, sums them at the Chebyshev
    points of those panels by one matrix-vector product with the
    derivative-kernel matrix between the two, interpolates that sum to ln Y
    with one Clenshaw sweep and divides by Z, the unit-weight-plus-tail sum
    on the same panels; so D @ 1 and the defect add up to one to rounding.
    Against the dense matrix times v summed in extended precision it is off
    by at most 1.8e-15 * max |v| (measured at the seeds and fixed points of
    M = 2, 3, 5, N <= 2000).  Besides the compression and the panel
    coordinates of ln Y, O(N), it holds Z and that matrix for its whole
    life: 25 points per panel, the panels numbering about M + 1 times the
    log-range of Y, by at most N + 64 sources.  It grows slowly with N but
    fast with M: 275 x 216 (0.45 MiB) at M = 2, N = 2000 and 325 x 270 at
    N = 20000, but 10775 x 1064 (87.5 MiB) at M = 100, N = 1000.
    """

    def __init__(self, X: EnergySequence, Y: EnergySequence, kernel: KernelParams):
        if len(Y) != len(X):
            raise ValueError(f"Y has {len(Y)} levels, X {len(X)}: the matrix must be square")
        s = np.log(Y.values)
        self._panels = _CountingPanels(kernel, s.min() - _LOG8, s.max() + _LOG8)
        self._at = self._panels.locate(s)
        self._sources = _CompressedSources(X, kernel)
        nodes = self._panels.nodes(np.arange(self._panels.count))
        self._matrix = derivative_kernel(kernel, self._sources.points, nodes[:, None])
        self._norm = self._sum(self._sources.weights)

    def __len__(self) -> int:
        return self._norm.size

    def __matmul__(self, v) -> np.ndarray:
        return self._sum(self._sources.moments(np.asarray(v, dtype=float))) / self._norm

    def _sum(self, weights: np.ndarray) -> np.ndarray:
        """sum_k weights_k K(source_k, Y_i) at every level i, from the panels."""
        return self._panels(self._panels.fit(self._matrix @ weights), *self._at)[0]


def derivative_matrix(X: EnergySequence, Y: EnergySequence, kernel: KernelParams,
                      cfg: OperatorConfig) -> DerivativeMatrix:
    """Derivative of the operator at X in log coordinates, rows normalized: a
    DerivativeMatrix.  The caller is responsible for Y = apply_quantization(X);
    this is not re-verified.  cfg is not read."""
    return DerivativeMatrix(X, Y, kernel)


def iterate(X0: EnergySequence, Q: OffsetSequence, kernel: KernelParams,
            cfg: OperatorConfig, stop: StopRule, history: int = 0) -> IterationTrace:
    """Apply the operator repeatedly, recording residuals per step.

    Stops when the sup-log residual drops to stop.target_residual or after
    stop.max_steps applications.  The residual at X is ln T(X) - ln X over
    the stored entries, plain sup and k**rate_epsilon weighted.  Solver
    errors are re-raised with the step index attached.

    Each step but the last moves to the type-II Anderson point of history m
    in x = ln X (Walker & Ni, SIAM J. Numer. Anal. 49, 2011): with
    g_k = ln T(X_k) and f_k = g_k - x_k, it is x_{k+1} = g_k - dG gamma, where
    gamma solves dF gamma ~= f_k in least squares over the differences of the
    last m + 1 pairs (f, g).  With history=0 (the default) there are none and
    the point is the image: plain Picard iteration, X <- T(X), whose residuals
    decay at the paper's contraction rate, is the m = 0 case of the one loop.
    Only the stored entries are mixed; the operator keeps the tail model of
    X0, so every iterate and mixed point carries it.  A mixed point that is
    not finite or not strictly increasing is replaced by the Picard step
    T(X_k), and the history restarts from that pair.  Either way the final
    iterate is the image T(X_K) whose residual ended the run.
    """
    if history < 0:
        raise ValueError(f"history must be nonnegative, got {history}")
    trace = IterationTrace(iterates=[X0])
    current = X0
    pairs: deque[tuple[np.ndarray, np.ndarray]] = deque(maxlen=history + 1)
    for step in range(stop.max_steps):
        try:
            image = apply_quantization(current, Q, kernel, cfg)
        except NoConvergence as exc:
            raise NoConvergence(f"step {step + 1}: {exc}") from exc
        g = np.log(image.values)
        f = g - np.log(current.values)
        trace.residual_sup.append(float(np.abs(f).max()))
        trace.residual_weighted.append(weighted_norm(f, stop.rate_epsilon))
        done = trace.residual_sup[-1] <= stop.target_residual
        current = image
        if not done and step + 1 < stop.max_steps:
            current = _anderson_point(pairs, f, g, image)
        trace.iterates.append(current)
        if done:
            break
    return trace


def _anderson_point(pairs: deque, f: np.ndarray, g: np.ndarray,
                    image: EnergySequence) -> EnergySequence:
    """Next Anderson point after recording the pair (f, g) in the history;
    the Picard image while it holds one pair, always at m = 0, or, restarting
    it, when the mixed point is not finite or not strictly increasing."""
    pairs.append((f, g))
    if len(pairs) == 1:
        return image
    dF = np.diff([p[0] for p in pairs], axis=0).T
    dG = np.diff([p[1] for p in pairs], axis=0).T
    gamma = np.linalg.lstsq(dF, f, rcond=None)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.exp(g - dG @ gamma)
    if np.all(np.isfinite(values)) and values[0] > 0 and np.all(np.diff(values) > 0):
        return image.with_values(values)
    pairs.clear()
    pairs.append((f, g))
    return image
