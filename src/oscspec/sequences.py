"""Sequence containers and the weighted sup-norm shared by all numerical
modules.

Sequences are stored as a finite positive prefix plus an analytic tail model
standing in for every index beyond the truncation.  All containers are
immutable values and all operations are pure functions.  Differences of
sequences in logarithmic coordinates are plain arrays, ln X - ln X'.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class TailModel:
    """Power-law extrapolation of a sequence beyond its stored prefix.

    Entry k > N is modelled as ``amplitude * (k + shift)**exponent``.  The
    shift is zero for plain power tails; the bracket constructions use it to
    represent shifted powers exactly.  An exponent of 1 or less, for which
    kernel sums over the tail diverge, is a DomainError.
    """

    amplitude: float
    exponent: float
    shift: float = 0.0

    def __post_init__(self):
        if not self.amplitude > 0:
            raise ValueError(f"tail amplitude must be positive, got {self.amplitude}")
        if not self.exponent > 1:
            raise DomainError(f"tail exponent must exceed 1 for summable kernel tails, "
                              f"got {self.exponent}")

    def value(self, k):
        """Extrapolated entry at (array of) index k."""
        return self.amplitude * (np.asarray(k, dtype=float) + self.shift) ** self.exponent


@dataclass(frozen=True)
class EnergySequence:
    """Finite prefix of a positive sequence plus its tail model.

    ``values[i]`` holds entry k = i + 1 in dimensionless energy units.  Kernel
    sums over the full sequence use the tail model for k > N, whose exponent
    above one makes them converge.
    """

    values: np.ndarray
    tail: TailModel

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if arr.size < 1:
            raise ValueError("at least one stored entry is required")
        if not np.all(np.isfinite(arr)) or not np.all(arr > 0):
            raise ValueError("all entries must be finite and strictly positive")
        if not arr.size + 0.5 + self.tail.shift > 0:
            raise ValueError("tail shift would make extrapolated entries nonpositive")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.size

    def with_values(self, values) -> "EnergySequence":
        """Same tail model, new stored entries."""
        return EnergySequence(values, self.tail)

    def scaled(self, lam: float) -> "EnergySequence":
        """Dilated copy: entries and tail amplitude multiplied by lam."""
        if not lam > 0:
            raise ValueError("scale factor must be positive")
        tail = replace(self.tail, amplitude=lam * self.tail.amplitude)
        return EnergySequence(lam * self.values, tail)


def weighted_norm(v, epsilon: float) -> float:
    """sup_k k**epsilon |v_k| over the entries of v, with v_1 at k = 1.

    Applied to differences of stored prefixes only (the tail is not scanned:
    compared sequences share tail models by construction).
    """
    if not epsilon >= 0:
        raise ValueError(f"weight exponent must be nonnegative, got {epsilon}")
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        return 0.0
    k = np.arange(1, v.size + 1, dtype=float)
    return float(np.max(k ** epsilon * np.abs(v)))
