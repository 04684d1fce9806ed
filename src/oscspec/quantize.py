"""The exact quantization operator.

The operator maps a positive sequence X to the sequence Y solving, level by
level, the counting equation

    (1/pi) * sum_k angle_kernel(X_k, Y_j) = Q_j,

where the sum runs over the full sequence (stored prefix plus tail model) and
Q is an admissible offset sequence.  Because the left side depends on Y only
through Y_j and is strictly increasing in it, each component has a unique root
and the components solve independently.

This module provides the two pair kernels, the counting function and its
logarithmic derivative, the implicit solve, the row-stochastic derivative
matrix of the operator in log coordinates, and the iteration driver.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.chebyshev import chebder, chebpts1, chebvander

from .errors import BracketFailure, ConditionViolation, NoConvergence, TailDivergence
from .sequences import EnergySequence, TailModel

_LOG8 = math.log(8.0)
# widest admissible panel range: total widening factor 2**64 on either side
_MAX_HALFWIDTH = 64.0 * math.log(2.0)
# probes per block of a dense kernel sum hold at most this many kernel values (8 MiB)
_BLOCK_ENTRIES = 1 << 20
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

    Stored in closed form Q_k = k + constant, with optional explicit
    overrides for small k given as (k, value) pairs.  Admissibility asks for
    Q_k = k + O(1) (automatic here) and the strict lower bound
    Q_k > (k - 1/2) theta / pi for every k, without which the operator has no
    fixed point at all.  ``validate`` checks the overrides individually and
    the closed-form rule by a single inequality at the smallest plain index,
    which suffices because the margin grows linearly in k.
    """

    constant: float
    overrides: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        seen = set()
        for k, v in self.overrides:
            if k < 1 or k != int(k):
                raise ValueError(f"override index must be a positive integer, got {k}")
            if k in seen:
                raise ValueError(f"duplicate override for k={k}")
            seen.add(k)

    def values(self, n: int) -> np.ndarray:
        """Q_1 .. Q_n as an array."""
        out = np.arange(1, n + 1, dtype=float) + self.constant
        for k, v in self.overrides:
            if k <= n:
                out[k - 1] = v
        return out

    def value(self, k: int) -> float:
        for kk, v in self.overrides:
            if kk == k:
                return v
        return k + self.constant

    def o1_bound(self) -> float:
        """Bound on |Q_k - k| over all k."""
        b = abs(self.constant)
        for k, v in self.overrides:
            b = max(b, abs(v - k))
        return b

    def validate(self, kernel: KernelParams) -> None:
        """Raise ConditionViolation unless Q_k > (k - 1/2) theta/pi for all k."""
        rate = kernel.theta / math.pi
        for k, v in self.overrides:
            if not v > (k - 0.5) * rate:
                raise ConditionViolation(
                    f"offset Q_{k}={v} does not exceed (k - 1/2) theta/pi = {(k - 0.5) * rate}", k=k
                )
        plain = 1
        covered = {k for k, _ in self.overrides}
        while plain in covered:
            plain += 1
        # margin k(1 - theta/pi) + constant + theta/(2 pi) increases in k,
        # so the bound at the smallest plain index proves all larger ones
        if not plain + self.constant > (plain - 0.5) * rate:
            raise ConditionViolation(
                f"closed-form offsets fail at k={plain}: "
                f"{plain + self.constant} <= {(plain - 0.5) * rate}",
                k=plain,
            )


@dataclass(frozen=True)
class OperatorConfig:
    """Numerical parameters of the truncated operator."""

    truncation: int = 500
    root_tol: float = 1e-12
    max_root_iters: int = 100
    tail_quadrature_points: int = 64

    def __post_init__(self):
        if self.truncation < 1:
            raise ValueError("truncation must be at least 1")
        if not self.root_tol > 0:
            raise ValueError("root_tol must be positive")
        if self.max_root_iters < 1:
            raise ValueError("max_root_iters must be at least 1")
        if self.tail_quadrature_points < 2:
            raise ValueError("tail_quadrature_points must be at least 2")


@dataclass(frozen=True)
class DerivativeMatrix:
    """Derivative of the operator in logarithmic coordinates, truncated.

    ``entries[i, j]`` is the sensitivity of output level i+1 to input level
    j+1; ``row_defect[i]`` is the derivative mass carried by tail indices
    beyond the truncation.  Every entry is positive and each row plus its
    defect sums to one: the matrix is stochastic once the tail is counted.
    """

    entries: np.ndarray
    row_defect: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        defect = np.asarray(self.row_defect, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("entries must be a square matrix")
        if defect.shape != (entries.shape[0],):
            raise ValueError("row_defect length must match the matrix size")
        if not np.all(entries > 0):
            raise ValueError("all derivative entries must be strictly positive")
        if np.any(defect < 0):
            raise ValueError("row defects must be nonnegative")
        gap = np.abs(entries.sum(axis=1) + defect - 1.0)
        if gap.max() > 1e-12:
            raise ValueError(f"rows plus defect must sum to 1 within 1e-12, worst gap {gap.max():.3e}")
        entries = entries.copy()
        entries.setflags(write=False)
        defect = defect.copy()
        defect.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "row_defect", defect)

    @property
    def size(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class StopRule:
    """Stopping policy for the iteration driver."""

    max_steps: int = 200
    target_residual: float = 1e-10
    rate_epsilon: float = 1.0


@dataclass
class IterationTrace:
    """Iterates with per-step residuals in logarithmic coordinates.

    residual_sup[n] and residual_weighted[n] measure the residual of the
    operator at iterates[n], ln T(iterates[n]) - ln iterates[n]; the weighted
    residual uses the configured rate_epsilon.  Under plain Picard iteration
    iterates[n+1] is T(iterates[n]), so they measure the step between
    consecutive iterates.  Under Anderson acceleration the intermediate
    iterates are mixed points, and the last iterate is always the image
    T(iterates[-2]).  steps counts applications of the operator.
    """

    iterates: list[EnergySequence] = field(default_factory=list)
    residual_sup: list[float] = field(default_factory=list)
    residual_weighted: list[float] = field(default_factory=list)
    rate_epsilon: float = 1.0

    @property
    def steps(self) -> int:
        return len(self.residual_sup)


def angle_kernel(kernel: KernelParams, e_source, e_probe):
    """Phase contributed by a level e_source to the count at energy e_probe.

    Continuous (0, pi)-valued branch: the two-argument arctangent of
    (sin theta, e_source/e_probe + cos theta).  Decreasing in the ratio
    e_source/e_probe, tending to theta as the ratio vanishes and to 0 as it
    grows; a single-argument arctangent would jump when the second argument
    changes sign for theta beyond pi/2.
    """
    ratio = np.asarray(e_source, dtype=float) / np.asarray(e_probe, dtype=float)
    return np.arctan2(kernel.sin, ratio + kernel.cos)


def derivative_kernel(kernel: KernelParams, e_a, e_b):
    """Symmetric pair kernel E E' / (E^2 + 2 cos theta E E' + E'^2).

    Evaluated as 1 / (r + 2 cos theta + 1/r) with r = e_a/e_b, which is
    scale invariant and stays finite for extreme magnitude mismatches.
    """
    ratio = np.asarray(e_a, dtype=float) / np.asarray(e_b, dtype=float)
    return 1.0 / (ratio + 2.0 * kernel.cos + 1.0 / ratio)


@functools.lru_cache(maxsize=8)
def _gauss_nodes(npts: int) -> tuple[np.ndarray, np.ndarray]:
    u, w = np.polynomial.legendre.leggauss(npts)
    return 0.5 * (u + 1.0), 0.5 * w


def _tail_rule(n: int, tail: TailModel, npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature surrogate for sums over tail indices k > n.

    The sum is approximated by the integral of the tail integrand over
    [n + 1/2, inf), mapped onto (0, 1] by s = (n + 1/2) u**(-1/(a-1)).  The
    substitution absorbs the power decay, so the transformed integrand is
    bounded and smooth and a fixed Gauss-Legendre rule suffices.

    Returns extrapolated sequence values at the nodes and the combined
    quadrature-times-Jacobian weights.
    """
    a = tail.exponent
    if a <= 1.0:
        raise TailDivergence(f"tail exponent must exceed 1, got {a}")
    u, w = _gauss_nodes(npts)
    s0 = n + 0.5
    s = s0 * u ** (-1.0 / (a - 1.0))
    jac = s0 / (a - 1.0) * u ** (-a / (a - 1.0))
    return tail.amplitude * (s + tail.shift) ** a, w * jac


def _extended(X: EnergySequence, cfg: OperatorConfig) -> tuple[np.ndarray, np.ndarray]:
    """Stored entries plus tail nodes, with unit weights on the prefix."""
    tail_values, tail_weights = _tail_rule(len(X), X.tail, cfg.tail_quadrature_points)
    return (
        np.concatenate([X.values, tail_values]),
        np.concatenate([np.ones(len(X)), tail_weights]),
    )


def _kernel_sums(X: EnergySequence, probes: np.ndarray, kernel: KernelParams,
                 cfg: OperatorConfig, slope: bool = False,
                 rows: np.ndarray | None = None) -> np.ndarray:
    """Dense kernel sums over the full sequence X at every probe energy.

    Returns the counting function (1/pi) sum_k w_k angle_kernel(X_k, y) or,
    with slope set, its derivative in ln y, (sin theta / pi) sum_k w_k
    derivative_kernel(X_k, y); the weights w_k are one on the stored entries
    and the tail quadrature weights on the tail nodes.  Probes are taken in
    blocks of at most _BLOCK_ENTRIES kernel values (one probe at least), so a
    temporary holds O(N * block) values whatever the number of probes.  With
    rows given, of shape (len(probes), len(X) + tail nodes), the unweighted
    kernel values against the stored entries and tail nodes are written into
    it.
    """
    xe, we = _extended(X, cfg)
    if slope:
        pair, scale = derivative_kernel, kernel.sin / math.pi
    else:
        pair, scale = angle_kernel, 1.0 / math.pi
    out = np.empty(probes.size)
    step = max(1, _BLOCK_ENTRIES // xe.size)
    for start in range(0, probes.size, step):
        block = slice(start, start + step)
        values = pair(kernel, xe, probes[block, None])
        out[block] = values @ we
        if rows is not None:
            rows[block] = values
    return out * scale


def counting_component(X: EnergySequence, y_level: float, kernel: KernelParams,
                       cfg: OperatorConfig) -> float:
    """One component of the counting function: (1/pi) sum_k angle_kernel(X_k, y).

    Strictly increasing in y_level; the tail of the sum is evaluated by the
    quadrature rule of the tail model.
    """
    return float(_kernel_sums(X, np.asarray([y_level], dtype=float), kernel, cfg)[0])


def counting_derivative(X: EnergySequence, y_level: float, kernel: KernelParams,
                        cfg: OperatorConfig) -> float:
    """Derivative of counting_component with respect to ln(y_level).

    Equals (sin theta / pi) times the sum of derivative_kernel(X_k, y) over
    the full sequence; strictly positive.
    """
    return float(_kernel_sums(X, np.asarray([y_level], dtype=float), kernel, cfg, slope=True)[0])


class _CountingPanels:
    """Piecewise Chebyshev interpolant of s -> phi(X, e**s) on [lo, hi].

    Each term of the counting sum, arg(e**(ln X_k - s) + e**(i theta)), is
    analytic in the strip |Im s| < pi - theta, so panels of width at most
    2 (pi - theta) / 3 sit in a Bernstein ellipse of parameter 3 + sqrt(10)
    and degree _CHEB_DEGREE reaches the rounding floor of the dense sum.  The
    dense layer is evaluated once, at the Chebyshev points of every panel.
    """

    def __init__(self, X: EnergySequence, kernel: KernelParams, cfg: OperatorConfig,
                 lo: float, hi: float):
        count = max(1, math.ceil((hi - lo) / (2.0 * (math.pi - kernel.theta) / 3.0)))
        self.lo, self.hi = lo, hi
        self.width = (hi - lo) / count
        self.centers = lo + self.width * (np.arange(count) + 0.5)
        self.edges = lo + self.width * np.arange(count + 1)
        nodes = self.centers[:, None] + 0.5 * self.width * _CHEB_NODES
        phi = _kernel_sums(X, np.exp(nodes).ravel(), kernel, cfg).reshape(nodes.shape)
        # (degree + 1, value/slope, panel)
        self.coef = np.stack([_CHEB_FROM_VALUES @ phi.T,
                              (2.0 / self.width) * (_CHEB_SLOPE_FROM_VALUES @ phi.T)], axis=1)

    def __call__(self, s: np.ndarray) -> np.ndarray:
        """Rows phi and d phi / d s at every s in [lo, hi], from one Clenshaw sweep."""
        panel = np.clip(((s - self.lo) / self.width).astype(int), 0, self.centers.size - 1)
        x = (s - self.centers[panel]) * (2.0 / self.width)
        x2 = 2.0 * x
        b1, b2 = self.coef[-1].take(panel, axis=1), 0.0
        for c in self.coef[-2:0:-1]:
            b1, b2 = c.take(panel, axis=1) + x2 * b1 - b2, b1
        return self.coef[0].take(panel, axis=1) + x * b1 - b2


def apply_quantization(X: EnergySequence, Q: OffsetSequence, kernel: KernelParams,
                       cfg: OperatorConfig) -> EnergySequence:
    """Apply the operator: solve the counting equation at every stored level.

    Every component inverts one increasing function, the counting function
    s -> phi(X, e**s).  It is evaluated densely once, by the blocked kernel
    sum, at the Chebyshev points of panels covering one range of y = ln Y
    shared by all levels; the panel width is 2 (pi - theta) / 3, set by the
    strip of analyticity of the kernel, at degree 24.  All root finding then
    runs on that piecewise interpolant and its Chebyshev derivative, which
    agree with the dense sum to its rounding floor (measured ~1e-15 * max phi),
    at a cost of O(panels * 25 * N) per application instead of several
    O(N**2) passes, and with memory bounded by O(N * block).  Certificates,
    counting_component and derivative_matrix use the dense sum directly.

    The range starts at [min X / 8, 8 max X] and widens by a factor 8 at an
    end, rebuilding the panels, until the interpolant there lies below min Q
    and above max Q (up to a total factor of 2**64 per side).  Level j is
    bracketed by the panel whose edge values straddle Q_j and solved by a
    safeguarded Newton iteration in y_j = ln Y_j from ln X_j clipped into that
    panel, falling back to bisection.  A component is accepted when
    |phi_j - Q_j| <= root_tol, or when its bracket collapses to a few ulps of
    y_j: at large truncations one ulp of y_j moves phi_j by more than any
    fixed tolerance, so an absolute tolerance alone is not reachable in
    double precision.

    The output keeps the input tail exponent and shift.  Its amplitude is the
    input amplitude times the closed-form drift factor D(a)**(-a), the
    asymptotic per-application rescaling of power sequences of exponent a;
    the factor is one at the critical exponent, so the tail of an iteration
    started on a critically normalized seed is pinned.

    Raises BracketFailure if widening runs out, NoConvergence if
    max_root_iters is exhausted.
    """
    values = X.values
    n = len(values)
    q = Q.values(n)

    x_log = np.log(values)
    lo, hi = x_log.min() - _LOG8, x_log.max() + _LOG8
    # widen until the range brackets every level: phi is increasing in y, so
    # phi(lo) < min Q and phi(hi) > max Q put each root between two panel edges
    while True:
        panels = _CountingPanels(X, kernel, cfg, lo, hi)
        phi_edges = panels(panels.edges)[0]
        widen_lo, widen_hi = phi_edges[0] >= q.min(), phi_edges[-1] <= q.max()
        if not widen_lo and not widen_hi:
            break
        if x_log.min() - lo > _MAX_HALFWIDTH or hi - x_log.max() > _MAX_HALFWIDTH:
            worst = int(np.argmax(q) if widen_hi else np.argmin(q))
            raise BracketFailure(
                f"no sign change bracketing level {worst + 1} within a 2**64 expansion"
            )
        lo -= _LOG8 * widen_lo
        hi += _LOG8 * widen_hi

    # level j's bracket is the panel whose edge values straddle Q_j
    upper = np.searchsorted(phi_edges, q)
    lo, hi = panels.edges[upper - 1], panels.edges[upper]
    y = np.clip(x_log, lo, hi)

    eps = np.finfo(float).eps
    active = np.arange(n)
    for _ in range(cfg.max_root_iters):
        f, slope = panels(y[active])
        f -= q[active]
        positive = f > 0
        hi[active[positive]] = y[active[positive]]
        lo[active[~positive]] = y[active[~positive]]
        keep = np.abs(f) > cfg.root_tol
        # bracket collapsed to machine resolution: accept the midpoint
        resolved = (hi[active] - lo[active]) <= 8.0 * eps * np.maximum(1.0, np.abs(y[active]))
        keep &= ~resolved
        active = active[keep]
        if active.size == 0:
            break
        f = f[keep]
        slope = slope[keep]
        proposal = y[active] - f / slope
        outside = ~np.isfinite(proposal) | (proposal <= lo[active]) | (proposal >= hi[active])
        proposal[outside] = 0.5 * (lo[active][outside] + hi[active][outside])
        y[active] = proposal
    if active.size:
        raise NoConvergence(
            f"{active.size} level(s) unresolved after {cfg.max_root_iters} iterations, "
            f"first at level {int(active[0]) + 1}"
        )

    out_values = np.exp(y)
    factor = _tail_drift_factor(kernel.theta, X.tail.exponent)
    return EnergySequence(out_values, TailModel(X.tail.amplitude * factor,
                                                X.tail.exponent, X.tail.shift))


def _tail_drift_factor(theta: float, exponent: float) -> float:
    """Asymptotic per-application rescaling D**(-a) of exponent-a power tails,
    with D = sin(theta/a) / sin(pi/a); equal to one at a = 1 + theta/pi."""
    drift = math.sin(theta / exponent) / math.sin(math.pi / exponent)
    return drift ** (-exponent)


def derivative_matrix(X: EnergySequence, Y: EnergySequence, kernel: KernelParams,
                      cfg: OperatorConfig) -> DerivativeMatrix:
    """Derivative of the operator at X in log coordinates, rows normalized.

    entries[i, j] = K(X_j, Y_i) / Z_i with K the derivative kernel and Z_i the
    full-sequence sum including the tail of X; row_defect[i] is the tail share
    of Z_i.  The caller is responsible for Y = apply_quantization(X); this is
    not re-verified.
    """
    n = len(X)
    tail_weights = _tail_rule(n, X.tail, cfg.tail_quadrature_points)[1]
    p = np.empty((len(Y), n + tail_weights.size))
    z = _kernel_sums(X, Y.values, kernel, cfg, slope=True, rows=p) * (math.pi / kernel.sin)
    entries = p[:, :n] / z[:, None]
    defect = (p[:, n:] @ tail_weights) / z
    return DerivativeMatrix(entries, defect)


def iterate(X0: EnergySequence, Q: OffsetSequence, kernel: KernelParams,
            cfg: OperatorConfig, stop: StopRule, history: int = 0) -> IterationTrace:
    """Apply the operator repeatedly, recording residuals per step.

    Stops when the sup-log residual drops to stop.target_residual or after
    stop.max_steps applications.  The residual at X is ln T(X) - ln X over
    the stored entries, plain sup and k**rate_epsilon weighted.  Solver
    errors are re-raised with the step index attached.

    With history=0 (the default) this is plain Picard iteration, X <- T(X),
    whose residuals decay at the paper's contraction rate.  With history=m > 0
    it is type-II Anderson acceleration in x = ln X (Walker & Ni, SIAM J.
    Numer. Anal. 49, 2011): with g_k = ln T(X_k) and f_k = g_k - x_k, the
    next point is x_{k+1} = g_k - dG gamma, where gamma solves
    dF gamma ~= f_k in least squares over the differences of the last m + 1
    pairs (f, g).  Only the stored entries are mixed; each mixed point takes
    the image's tail model, so the tail evolves as under Picard.  A mixed
    point that is not finite or not strictly increasing is replaced by the
    Picard step T(X_k), and the history restarts from that pair.  Either way
    the final iterate is the image T(X_K) whose residual ended the run.
    """
    if history < 0:
        raise ValueError(f"history must be nonnegative, got {history}")
    trace = IterationTrace(iterates=[X0], rate_epsilon=stop.rate_epsilon)
    current = X0
    k = np.arange(1, len(X0) + 1, dtype=float)
    weights = k ** stop.rate_epsilon
    pairs: deque[tuple[np.ndarray, np.ndarray]] = deque(maxlen=history + 1)
    for step in range(stop.max_steps):
        try:
            image = apply_quantization(current, Q, kernel, cfg)
        except (BracketFailure, NoConvergence) as exc:
            raise type(exc)(f"step {step + 1}: {exc}") from exc
        g = np.log(image.values)
        f = g - np.log(current.values)
        delta = np.abs(f)
        trace.residual_sup.append(float(delta.max()))
        trace.residual_weighted.append(float((weights * delta).max()))
        done = trace.residual_sup[-1] <= stop.target_residual
        current = image
        if history and not done and step + 1 < stop.max_steps:
            current = _anderson_point(pairs, f, g, image)
        trace.iterates.append(current)
        if done:
            break
    return trace


def _anderson_point(pairs: deque, f: np.ndarray, g: np.ndarray,
                    image: EnergySequence) -> EnergySequence:
    """Next Anderson point after recording the pair (f, g) in the history;
    the Picard image, with the history restarted, when the mixed point is
    not finite or not strictly increasing."""
    pairs.append((f, g))
    if len(pairs) == 1:
        return image
    dF = np.diff([p[0] for p in pairs], axis=0).T
    dG = np.diff([p[1] for p in pairs], axis=0).T
    gamma = np.linalg.lstsq(dF, f, rcond=None)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.exp(g - dG @ gamma)
    if np.all(np.isfinite(values)) and values[0] > 0 and np.all(np.diff(values) > 0):
        return EnergySequence(values, image.tail)
    pairs.clear()
    pairs.append((f, g))
    return image
