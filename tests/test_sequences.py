"""Containers and the weighted norm."""

import numpy as np
import pytest

from oscspec import (
    DomainError,
    EnergySequence,
    TailModel,
    weighted_norm,
)

TAIL = TailModel(1.0, 2.0)


def test_weighted_norm_inverse_profile():
    k = np.arange(1, 51, dtype=float)
    assert weighted_norm(1.0 / k, 1.0) == pytest.approx(1.0, abs=0)


def test_weighted_norm_zero():
    assert weighted_norm(np.zeros(10), 2.0) == 0.0
    assert weighted_norm([], 2.0) == 0.0


def test_weighted_norm_cubic_decay():
    k = np.arange(1, 101, dtype=float)
    # k**2 * k**-3 = 1/k peaks at k = 1
    assert weighted_norm(k**-3.0, 2.0) == pytest.approx(1.0, abs=0)


def test_weighted_norm_homogeneous(rng):
    for _ in range(50):
        v = rng.normal(size=rng.integers(1, 40))
        lam = rng.uniform(-5, 5)
        eps = rng.uniform(0, 3)
        lhs = weighted_norm(lam * v, eps)
        rhs = abs(lam) * weighted_norm(v, eps)
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-300)


def test_weighted_norm_triangle(rng):
    for _ in range(50):
        n = rng.integers(1, 40)
        u = rng.normal(size=n)
        v = rng.normal(size=n)
        eps = rng.uniform(0, 3)
        lhs = weighted_norm(u + v, eps)
        rhs = weighted_norm(u, eps) + weighted_norm(v, eps)
        assert lhs <= rhs * (1 + 1e-13)


def test_positivity_required():
    with pytest.raises(ValueError):
        EnergySequence([1.0, 0.0], TAIL)
    with pytest.raises(ValueError):
        EnergySequence([1.0, -2.0], TAIL)
    with pytest.raises(ValueError, match="one-dimensional"):
        EnergySequence([[1.0, 2.0]], TailModel(1.0, 1.5))
    with pytest.raises(ValueError):
        EnergySequence([], TAIL)


def test_tail_exponent_must_exceed_one():
    with pytest.raises(DomainError, match="tail exponent must exceed 1"):
        EnergySequence([1.0], TailModel(1.0, 1.0))
    with pytest.raises(DomainError, match="tail exponent must exceed 1"):
        EnergySequence([1.0], TailModel(1.0, 0.5))


def test_tail_model_validation():
    with pytest.raises(ValueError):
        TailModel(0.0, 2.0)
    with pytest.raises(ValueError):
        TailModel(-1.0, 2.0)
    with pytest.raises(ValueError):
        TailModel(1.0, 0.0)
    with pytest.raises(DomainError, match="tail exponent must exceed 1"):
        TailModel(1.0, 1.0)
    with pytest.raises(DomainError, match="tail exponent must exceed 1"):
        TailModel(1.0, 0.5)


def test_tail_shift_bounds():
    with pytest.raises(ValueError):
        EnergySequence([1.0, 2.0], TailModel(1.0, 2.0, shift=-3.0))
    seq = EnergySequence([1.0, 2.0], TailModel(1.0, 2.0, shift=-2.0))
    assert seq.tail.value(3) == 1.0


def test_values_immutable():
    seq = EnergySequence([1.0, 2.0], TAIL)
    with pytest.raises(ValueError):
        seq.values[0] = 5.0


def test_scaled():
    seq = EnergySequence([1.0, 2.0], TAIL)
    doubled = seq.scaled(2.0)
    assert np.array_equal(doubled.values, [2.0, 4.0])
    assert doubled.tail.amplitude == 2.0
    with pytest.raises(ValueError):
        seq.scaled(-1.0)


def test_weighted_norm_epsilon_nonnegative():
    for bad in (-0.5, float("nan")):
        with pytest.raises(ValueError):
            weighted_norm(np.ones(3), bad)
    assert weighted_norm(np.full(3, -2.0), 0.0) == 2.0
