"""Shared fixtures: cached parity solves reused across test modules, the
exact dense counting sum and derivative matrix, and the parser of the CLI's
CSV output."""

import csv
import functools
import io
import math

import numpy as np
import pytest

from oscspec import OperatorConfig, Parity, StopRule, build_problem, quantize, solve_parity


@functools.lru_cache(maxsize=32)
def solved_parity(M: int, parity_name: str, n: int, target: float = 1e-11,
                  max_steps: int = 400):
    """Converged fixed point and trace for one parity problem, cached."""
    problem = build_problem(M, Parity(parity_name))
    cfg = OperatorConfig(truncation=n)
    stop = StopRule(max_steps=max_steps, target_residual=target)
    fixed, trace = solve_parity(problem, cfg, stop)
    return problem, cfg, fixed, trace


@pytest.fixture(scope="session")
def m2_even_300():
    return solved_parity(2, "even", 300, target=1e-12)


@pytest.fixture(scope="session")
def m2_odd_300():
    return solved_parity(2, "odd", 300, target=1e-12)


@pytest.fixture(scope="session")
def m2_even_500():
    return solved_parity(2, "even", 500)


def dense_sources(X):
    """All N stored levels of X and the 64 nodes of its tail rule, with unit
    weights on the levels and the rule's weights on the nodes."""
    tail_values, tail_weights = quantize._tail_rule(len(X), X.tail)
    return (np.concatenate([X.values, tail_values]),
            np.concatenate([np.ones(len(X)), tail_weights]))


def row_blocks(sources, probes):
    """Slices of the probes in blocks of at most _BLOCK_ENTRIES kernel values
    against the sources, one probe at least."""
    step = max(1, quantize._BLOCK_ENTRIES // sources.size)
    return [slice(start, start + step) for start in range(0, probes.size, step)]


def dense_counting(X, probes, kernel, slope=False):
    """Counting function (or, with slope set, its log-derivative
    (sin theta / pi) sum_k w_k derivative_kernel(X_k, y)) summed over all N
    stored levels and the 64 tail nodes: the exact reference against which
    the compressed sums of counting_function and the panels are measured."""
    sources, weights = dense_sources(X)
    probes = np.asarray(probes, dtype=float)
    if not slope:
        return quantize._kernel_sum(sources, weights, probes, kernel)
    out = np.empty(probes.size)
    for block in row_blocks(sources, probes):
        out[block] = quantize.derivative_kernel(kernel, sources, probes[block, None]) @ weights
    return out * (kernel.sin / math.pi)


def dense_derivative(X, Y, kernel):
    """The N x N derivative matrix of the operator at X, with Y its image, and
    the row defects: row i is derivative_kernel(X_j, Y_i) / Z_i over the stored
    levels, Z_i the same kernel summed over all N levels and the 64 tail
    nodes, and the defect the tail nodes' share of Z_i.  Z_i, the defect and
    the quotients are formed in extended precision and rounded once, so each
    entry carries only its own rounding.  The exact reference against which
    the product of DerivativeMatrix is measured."""
    n = len(X)
    sources, weights = dense_sources(X)
    weights = weights.astype(np.longdouble)
    entries, defect = np.empty((len(Y), n)), np.empty(len(Y))
    for rows in row_blocks(sources, Y.values):
        kernel_values = quantize.derivative_kernel(kernel, sources, Y.values[rows, None])
        kernel_values = kernel_values.astype(np.longdouble)
        z = kernel_values @ weights
        entries[rows] = (kernel_values[:, :n] / z[:, None]).astype(float)
        defect[rows] = ((kernel_values[:, n:] @ weights[n:]) / z).astype(float)
    return entries, defect


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_growth_sequence(rng, n: int, alpha: float = 4.0 / 3.0,
                           amplitude: float = 5.5, wobble: float = 0.3):
    """Random positive sequence in the growth class amplitude * k**alpha."""
    from oscspec import EnergySequence, TailModel

    k = np.arange(1, n + 1, dtype=float)
    noise = rng.uniform(-wobble, wobble, size=n)
    return EnergySequence(amplitude * k ** alpha * np.exp(noise),
                          TailModel(amplitude, alpha))


def parse_cell(text: str):
    """A CSV cell as the CLI wrote it: empty is None, then bool, int, float, str."""
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_csv(text: str) -> tuple[list[str], list[dict]]:
    """Header and typed rows of the CLI's CSV output."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    return header, [dict(zip(header, map(parse_cell, row))) for row in reader]
