"""Fixed-point quantization solver and diagnostics for homogeneous anharmonic
oscillator spectra.

The package computes the spectrum of -d^2/dq^2 + q**(2M) as the fixed point
of the exact quantization operator, together with its asymptotic diagnostics
(drift, contraction constants, convergence rates) and an independent
finite-difference eigensolver used as ground truth.  The counting sum is
quantize.counting_function, over per-panel Chebyshev moments of the
sequence, and the panels of quantize.apply_quantization sample it; the
closed-form drift is asymptotics.drift_closed, beside its integral, and the
weighted sup-norm of the convergence diagnostics is sequences.weighted_norm.
"""

from .asymptotics import (
    BracketCertificate,
    BracketKind,
    ContractionReport,
    contraction_closed,
    contraction_factor,
    contraction_integral,
    critical_exponent,
    critical_exponent_from_drift,
    drift_closed,
    drift_integral,
    empirical_rate,
    lower_bracket,
    spectral_rate_estimate,
    upper_bracket,
    verify_bracket,
)
from .errors import (
    DomainError,
    InsufficientData,
    NoConvergence,
    OscspecError,
    ResolutionError,
)
from .oracle import (
    OracleConfig,
    hamiltonian_eigenvalues,
    parity_split,
)
from .oscillator import (
    OscillatorProblem,
    Parity,
    SpectrumResult,
    build_problem,
    compute_spectrum,
    growth_constant,
    merge_spectrum,
    seed_sequence,
    solve_parity,
)
from .quantize import (
    DerivativeMatrix,
    IterationTrace,
    KernelParams,
    OffsetSequence,
    OperatorConfig,
    StopRule,
    apply_quantization,
    counting_function,
    derivative_matrix,
    iterate,
)
from .sequences import (
    EnergySequence,
    TailModel,
    weighted_norm,
)

__version__ = "0.1.0"
