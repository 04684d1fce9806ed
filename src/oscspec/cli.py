"""Command-line front end.

Subcommands: spectrum, iterate, analyze, verify, bracket.  Commands are
deterministic given their flags, emit CSV or JSON artifacts, and map failures
to a stable exit-code enumeration:

    0  success
    1  convergence or certification failure
    2  usage error
    3  oracle failure
    4  tolerance failure (verify bound exceeded)

Flag values take precedence over the optional key=value config file, which
takes precedence over built-in defaults.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import asymptotics, oracle, oscillator, tables
from .errors import (
    BracketFailure,
    ConditionViolation,
    DomainError,
    InsufficientData,
    InterlacingViolation,
    NoConvergence,
    NotSorted,
    OscspecError,
    ResolutionError,
)
from .quantize import KernelParams, OperatorConfig, StopRule, iterate as run_iteration

EXIT_OK = 0
EXIT_CONVERGENCE = 1
EXIT_USAGE = 2
EXIT_ORACLE = 3
EXIT_TOLERANCE = 4

_DEFAULT_EPS_GRID = (0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 1.9)
_DEFAULT_ALPHA_GRID = (1.1, 1.5, 2.0, 3.0, 8.0)

DEFAULTS = {
    "spectrum": {"levels": 10, "N": 500, "tol": 1e-10, "parity": "both",
                 "format": "csv", "max_steps": 400},
    "iterate": {"parity": "odd", "N": 1000, "steps": 40, "tol": 1e-10, "eps": 1.0,
                "perturb_eps": None, "perturb_size": 0.1, "seed_scale": 1.0,
                "format": "csv"},
    "analyze": {"eps": None, "alpha": None, "format": "csv"},
    "verify": {"levels": 10, "N": 1000, "tol": 1e-10, "bound": 1e-3,
               "oracle_grid": 2048, "oracle_levels": 3, "oracle_tol": 1e-6,
               "format": "json", "max_steps": 400, "refine": False},
    "bracket": {"parity": "even", "N": 2000, "A": 100.0, "Nparam": 6,
                "slack": 1e-8, "format": "csv"},
}


# config keys that the command's parser collects as repeatable (append) flags
_REPEATABLE = {"analyze": ("eps", "alpha")}


class _UsageError(Exception):
    pass


def _read_config(path: str) -> dict:
    """Flat key = value file; '#' starts a comment; keys match long flags."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise _UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = tables.parse_cell(val.strip())
    return values


def _effective(args: argparse.Namespace, command: str) -> dict:
    options = dict(DEFAULTS[command])
    if getattr(args, "config", None):
        file_values = _read_config(args.config)
        unknown = set(file_values) - set(options) - {"M", "theta", "upper", "lower"}
        if unknown:
            raise _UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
        for key in _REPEATABLE.get(command, ()):
            if key in file_values:
                file_values[key] = [file_values[key]]
        options.update(file_values)
    for key, value in vars(args).items():
        if key in ("command", "config", "out"):
            continue
        if value is not None and value is not False:
            options[key] = value
    return options


def _write_output(text: str, out: str | None) -> None:
    if out and out != "-":
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _problem_meta(problem: oscillator.OscillatorProblem, n: int) -> dict:
    return {
        "M": problem.M,
        "parity": problem.parity.value,
        "theta": problem.kernel.theta,
        "alpha": problem.alpha,
        "nu": problem.nu,
        "offset_constant": problem.offsets.constant,
        "N": n,
    }


def cmd_spectrum(opts: dict, out: str | None) -> int:
    M = int(opts["M"])
    levels = int(opts["levels"])
    n = int(opts["N"])
    if levels < 1:
        raise _UsageError("--levels must be at least 1")
    cfg = OperatorConfig(truncation=n)
    stop = StopRule(max_steps=int(opts["max_steps"]), target_residual=float(opts["tol"]))
    parity = str(opts["parity"])

    if parity == "both":
        if levels > 2 * n:
            raise _UsageError(f"--levels {levels} exceeds the {2 * n} merged levels at --N {n}")
        result = oscillator.compute_spectrum(M, cfg, stop)
        energies = result.energies[:levels]
        rows = [
            {"level": i, "energy": float(energies[i]),
             "parity": "even" if i % 2 == 0 else "odd", "parity_index": i // 2 + 1}
            for i in range(levels)
        ]
        residuals = result.residuals
        iterations = result.iterations
        meta = {"M": M, "parity": "both", "N": n}
    else:
        if levels > n:
            raise _UsageError(f"--levels {levels} exceeds --N {n}")
        problem = oscillator.build_problem(M, oscillator.Parity(parity))
        fixed, trace = oscillator.solve_parity(problem, cfg, stop)
        offset = 0 if parity == "even" else 1
        rows = [
            {"level": 2 * i + offset, "energy": float(fixed.values[i]),
             "parity": parity, "parity_index": i + 1}
            for i in range(levels)
        ]
        residuals = {parity: trace.residual_sup[-1]}
        iterations = {parity: trace.steps}
        meta = {"M": M, "parity": parity, "N": n}

    if opts["format"] == "json":
        document = {
            "problem": meta,
            "energies": [row["energy"] for row in rows],
            "levels": rows,
            "residuals": residuals,
            "iterations": iterations,
        }
        _write_output(tables.dump_json(document), out)
    else:
        _write_output(tables.emit_csv(["level", "energy", "parity", "parity_index"], rows), out)
    return EXIT_OK


def cmd_iterate(opts: dict, out: str | None) -> int:
    M = int(opts["M"])
    n = int(opts["N"])
    cfg = OperatorConfig(truncation=n)
    stop = StopRule(max_steps=int(opts["steps"]), target_residual=float(opts["tol"]),
                    rate_epsilon=float(opts["eps"]))
    problem = oscillator.build_problem(M, oscillator.Parity(str(opts["parity"])))
    start = oscillator.seed_sequence(problem, n)

    scale = float(opts["seed_scale"])
    if scale != 1.0:
        # values-only rescale: a compactly supported perturbation that leaves
        # the asymptotic normalization (the tail) pinned
        start = start.with_values(scale * start.values)
    if opts["perturb_eps"] is not None:
        k = np.arange(1, n + 1, dtype=float)
        bump = float(opts["perturb_size"]) * k ** (-float(opts["perturb_eps"]))
        start = start.with_values(start.values * np.exp(bump))

    trace = run_iteration(start, problem.offsets, problem.kernel, cfg, stop)
    try:
        fitted = asymptotics.empirical_rate(trace, trace.iterates[-1], float(opts["eps"]))
    except InsufficientData:
        fitted = None

    rows = [
        {"step": i + 1, "residual_sup": trace.residual_sup[i],
         "residual_weighted": trace.residual_weighted[i]}
        for i in range(trace.steps)
    ]
    if opts["format"] == "json":
        document = {
            "problem": _problem_meta(problem, n),
            "eps": float(opts["eps"]),
            "steps": trace.steps,
            "fitted_lambda": fitted,
            "residual_sup": trace.residual_sup,
            "residual_weighted": trace.residual_weighted,
        }
        _write_output(tables.dump_json(document), out)
    else:
        _write_output(tables.emit_csv(["step", "residual_sup", "residual_weighted"], rows), out)
        if fitted is not None:
            sys.stderr.write(f"fitted_lambda {fitted:.6f}\n")
    return EXIT_OK


def cmd_analyze(opts: dict, out: str | None) -> int:
    if opts.get("M") is not None:
        M = int(opts["M"])
        theta = (M - 1) * math.pi / (M + 1)
    elif opts.get("theta") is not None:
        theta = float(opts["theta"])
        if not 0.0 < theta < math.pi:
            raise _UsageError("--theta must lie strictly between 0 and pi")
    else:
        raise _UsageError("analyze requires --M or --theta")
    kernel = KernelParams(theta)
    alpha_star = asymptotics.critical_exponent(kernel)

    eps_grid = opts["eps"] if opts["eps"] else list(_DEFAULT_EPS_GRID)
    alpha_grid = opts["alpha"] if opts["alpha"] else list(_DEFAULT_ALPHA_GRID)

    drift_rows = []
    for alpha in alpha_grid:
        report = asymptotics.drift_report(float(alpha), kernel)
        drift_rows.append({
            "kind": "drift", "alpha": report.alpha, "integral": report.integral_value,
            "closed": report.closed_value, "gap": report.abs_gap,
        })
    contraction_rows = []
    for eps in eps_grid:
        integral = asymptotics.contraction_integral(float(eps), kernel)
        report = asymptotics.contraction_factor(float(eps), kernel)
        gap = abs(integral - report.s_eps) if math.isfinite(integral) and math.isfinite(report.s_eps) else (
            0.0 if math.isinf(integral) and math.isinf(report.s_eps) else math.inf)
        contraction_rows.append({
            "kind": "contraction", "epsilon": report.epsilon, "s_integral": integral,
            "s_closed": report.s_eps, "gap": gap, "factor": report.factor,
        })

    if opts["format"] == "json":
        document = {
            "theta": theta,
            "alpha_star": alpha_star,
            "predicted_rate_at_1": alpha_star - 1.0,
            "drift": [{k: v for k, v in row.items() if k != "kind"} for row in drift_rows],
            "contraction": [{k: v for k, v in row.items() if k != "kind"} for row in contraction_rows],
        }
        _write_output(tables.dump_json(document), out)
    else:
        columns = ["kind", "alpha", "integral", "closed", "gap",
                   "epsilon", "s_integral", "s_closed", "factor"]
        _write_output(tables.emit_csv(columns, drift_rows + contraction_rows), out)
    return EXIT_OK


def cmd_verify(opts: dict, out: str | None) -> int:
    M = int(opts["M"])
    levels = int(opts["levels"])
    n = int(opts["N"])
    if levels < 1:
        raise _UsageError("--levels must be at least 1")
    if levels > 2 * n:
        raise _UsageError(f"--levels {levels} exceeds the {2 * n} merged levels at --N {n}")
    bound = float(opts["bound"])
    refine = bool(opts.get("refine"))

    stop = StopRule(max_steps=int(opts["max_steps"]), target_residual=float(opts["tol"]))
    oracle_cfg = oracle.OracleConfig(
        grid_points=int(opts["oracle_grid"]),
        refinement_levels=int(opts["oracle_levels"]),
        tolerance=float(opts["oracle_tol"]),
    )
    reference = oracle.hamiltonian_eigenvalues(M, levels, oracle_cfg)

    def deviations(truncation: int):
        result = oscillator.compute_spectrum(M, OperatorConfig(truncation=truncation), stop)
        computed = result.energies[:levels]
        abs_dev = np.abs(computed - reference)
        return result, computed, abs_dev, abs_dev / np.abs(reference)

    result, computed, abs_dev, rel_dev = deviations(n)
    rows = [
        {"level": i, "computed": float(computed[i]), "oracle": float(reference[i]),
         "abs_dev": float(abs_dev[i]), "rel_dev": float(rel_dev[i])}
        for i in range(levels)
    ]
    passed = bool(rel_dev.max() <= bound)
    document = {
        "problem": {"M": M, "N": n, "levels": levels},
        "oracle": {"grid_points": oracle_cfg.grid_points,
                   "refinement_levels": oracle_cfg.refinement_levels},
        "levels": rows,
        "residuals": result.residuals,
        "iterations": result.iterations,
        "max_rel_dev": float(rel_dev.max()),
        "bound": bound,
        "pass": passed,
    }
    if refine:
        # doubled truncation: per-level deviations must not increase
        _, _, _, rel_refined = deviations(2 * n)
        monotone = bool(np.all(rel_refined <= rel_dev))
        for i, row in enumerate(rows):
            row["rel_dev_refined"] = float(rel_refined[i])
        document["refined_N"] = 2 * n
        document["max_rel_dev_refined"] = float(rel_refined.max())
        document["refinement_monotone"] = monotone
        passed = passed and monotone
        document["pass"] = passed

    if opts["format"] == "json":
        _write_output(tables.dump_json(document), out)
    else:
        columns = ["level", "computed", "oracle", "abs_dev", "rel_dev"]
        if refine:
            columns.append("rel_dev_refined")
        _write_output(tables.emit_csv(columns, rows), out)
    return EXIT_OK if passed else EXIT_TOLERANCE


def cmd_bracket(opts: dict, out: str | None) -> int:
    M = int(opts["M"])
    upper = bool(opts.get("upper"))
    lower = bool(opts.get("lower"))
    if upper == lower:
        raise _UsageError("bracket requires exactly one of --upper / --lower")
    n = int(opts["N"])
    problem = oscillator.build_problem(M, oscillator.Parity(str(opts["parity"])))
    cfg = OperatorConfig(truncation=n)
    slack = float(opts["slack"])

    if upper:
        candidate = asymptotics.upper_bracket(float(opts["A"]), n, problem.kernel)
        kind = asymptotics.BracketKind.SUPER
        params = {"A": float(opts["A"])}
    else:
        candidate = asymptotics.lower_bracket(int(opts["Nparam"]), n, problem.kernel)
        kind = asymptotics.BracketKind.SUB
        params = {"Nparam": int(opts["Nparam"])}

    certificate = asymptotics.verify_bracket(candidate, problem.offsets, problem.kernel,
                                             cfg, slack=slack, kind=kind)
    row = {
        "kind": certificate.kind.value,
        "verified": certificate.verified,
        "max_violation": certificate.max_violation,
        "slack": slack,
        "M": M,
        "parity": problem.parity.value,
        "N": n,
        **params,
    }
    if opts["format"] == "json":
        _write_output(tables.dump_json(row), out)
    else:
        _write_output(tables.emit_csv(list(row.keys()), [row]), out)
    return EXIT_OK if certificate.verified else EXIT_CONVERGENCE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscspec",
        description="Fixed-point quantization solver and diagnostics for the "
                    "anharmonic oscillator spectrum (potential q^(2M)).",
    )
    sub = parser.add_subparsers(dest="command")

    def common(p: argparse.ArgumentParser, parity_choices=("even", "odd", "both")) -> None:
        p.add_argument("--M", type=int, help="potential power parameter, at least 2")
        p.add_argument("--N", type=int, help="truncation length of stored sequences")
        p.add_argument("--tol", type=float, help="stopping sup-log residual")
        p.add_argument("--parity", choices=parity_choices, help="parity class")
        p.add_argument("--format", choices=("csv", "json"), help="artifact format")
        p.add_argument("--out", help="output path ('-' for stdout)")
        p.add_argument("--config", help="flat key=value config file")

    p = sub.add_parser("spectrum", help="compute merged oscillator levels")
    common(p)
    p.add_argument("--levels", type=int, help="number of levels to emit")
    p.add_argument("--max-steps", dest="max_steps", type=int, help="iteration cap")

    p = sub.add_parser("iterate", help="run the fixed-point iteration and fit its rate")
    common(p, parity_choices=("even", "odd"))
    p.add_argument("--steps", type=int, help="maximum iteration steps")
    p.add_argument("--eps", type=float, help="weight exponent for residuals and the rate fit")
    p.add_argument("--perturb-eps", dest="perturb_eps", type=float,
                   help="perturb the seed by perturb-size * k**(-perturb-eps) in log space")
    p.add_argument("--perturb-size", dest="perturb_size", type=float,
                   help="amplitude of the seed perturbation")
    p.add_argument("--seed-scale", dest="seed_scale", type=float,
                   help="rescale stored seed values only (tail normalization stays pinned)")

    p = sub.add_parser("analyze", help="drift and contraction diagnostics")
    p.add_argument("--M", type=int)
    p.add_argument("--theta", type=float, help="kernel angle in (0, pi), alternative to --M")
    p.add_argument("--eps", type=float, action="append", help="epsilon grid point (repeatable)")
    p.add_argument("--alpha", type=float, action="append", help="alpha grid point (repeatable)")
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--out")
    p.add_argument("--config")

    p = sub.add_parser("verify", help="compare the solved spectrum against the eigensolver oracle")
    common(p, parity_choices=("both",))
    p.add_argument("--levels", type=int)
    p.add_argument("--bound", type=float, help="relative deviation bound per level")
    p.add_argument("--refine", action="store_true",
                   help="also solve at doubled N and require per-level deviations not to grow")
    p.add_argument("--max-steps", dest="max_steps", type=int)
    p.add_argument("--oracle-grid", dest="oracle_grid", type=int)
    p.add_argument("--oracle-levels", dest="oracle_levels", type=int)
    p.add_argument("--oracle-tol", dest="oracle_tol", type=float)

    p = sub.add_parser("bracket", help="certify a sub- or super-solution")
    common(p, parity_choices=("even", "odd"))
    p.add_argument("--upper", action="store_true", help="shifted-power super-solution")
    p.add_argument("--lower", action="store_true", help="staircase sub-solution")
    p.add_argument("--A", type=float, help="shift of the super-solution")
    p.add_argument("--Nparam", type=int, help="staircase parameter of the sub-solution")
    p.add_argument("--slack", type=float, help="certification slack in counting units")

    return parser


_HANDLERS = {
    "spectrum": cmd_spectrum,
    "iterate": cmd_iterate,
    "analyze": cmd_analyze,
    "verify": cmd_verify,
    "bracket": cmd_bracket,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return EXIT_USAGE
    try:
        opts = _effective(args, args.command)
        if opts.get("M") is None and args.command != "analyze":
            raise _UsageError("--M is required")
        if opts.get("M") is not None and int(opts["M"]) < 2:
            raise _UsageError("--M must be at least 2")
        if opts["format"] not in ("csv", "json"):
            raise _UsageError(f"format must be csv or json, got {opts['format']!r}")
        return _HANDLERS[args.command](opts, getattr(args, "out", None))
    except (_UsageError, OSError) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except MemoryError as exc:
        sys.stderr.write(f"usage error: the problem does not fit in memory, "
                         f"reduce --N or --oracle-grid ({exc})\n")
        return EXIT_USAGE
    except (ConditionViolation, DomainError, NotSorted, ValueError) as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return EXIT_USAGE
    except ResolutionError as exc:
        sys.stderr.write(f"oracle failure: {exc}\n")
        return EXIT_ORACLE
    except (NoConvergence, BracketFailure, InterlacingViolation) as exc:
        sys.stderr.write(f"convergence failure: {exc}\n")
        return EXIT_CONVERGENCE
    except OscspecError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONVERGENCE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
