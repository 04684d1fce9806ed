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
takes precedence over built-in defaults.  The argparse parser declares every
option once: it parses config-file lines as flag tokens too, and rejects bad
values from either source as usage errors.  Only main writes the artifact,
floats in 17 significant digits (CSV) or shortest repr (JSON) so each
round-trips exactly, and JSON holds only finite numbers; iterate also reports
fitted_lambda on stderr under CSV.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import sys

import numpy as np

from . import asymptotics, oracle, oscillator
from .errors import InsufficientData, NoConvergence, OscspecError, ResolutionError
from .quantize import KernelParams, OperatorConfig, StopRule, iterate as run_iteration

EXIT_OK = 0
EXIT_CONVERGENCE = 1
EXIT_USAGE = 2
EXIT_ORACLE = 3
EXIT_TOLERANCE = 4

DEFAULTS = {
    "spectrum": {"levels": 10, "N": 500, "tol": 1e-10, "parity": "both",
                 "format": "csv", "max_steps": 400},
    "iterate": {"parity": "odd", "N": 1000, "max_steps": 40, "tol": 1e-10, "eps": 1.0,
                "perturb_eps": None, "perturb_size": None, "format": "csv"},
    "analyze": {"M": None, "theta": None, "format": "csv",
                "eps": (0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 1.9),
                "alpha": (1.1, 1.5, 2.0, 3.0, 8.0)},
    "verify": {"levels": 10, "N": 1000, "tol": 1e-10, "bound": 1e-3,
               "oracle_grid": 2048, "oracle_levels": 3, "oracle_tol": 1e-6,
               "format": "json", "max_steps": 400, "refine": False},
    "bracket": {"parity": "even", "N": 2000, "slack": 1e-8, "format": "csv",
                "upper": None, "lower": None},
}

# a handler's exit code, JSON document and CSV rows
_Result = tuple[int, dict, list[dict]]


class _UsageError(Exception):
    pass


class _InvalidInput(Exception):
    pass


@contextlib.contextmanager
def _building_input():
    """Report a ValueError raised while a command builds its inputs (configs,
    stop rule, problem, start sequence) as invalid input, exit 2.  A
    ValueError from the solve itself is a fault of the program and is not
    caught.  Overflow stays silent here: the inf or nan it makes reaches the
    finite-and-positive check of the sequence built from it."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except ValueError as exc:
        raise _InvalidInput(str(exc)) from exc


class _Parser(argparse.ArgumentParser):
    """Raises _UsageError instead of exiting.  Long flags are spelled out in
    full, so a config key is either a flag of its subcommand or an error.  A
    negative number in exponent notation (--tol -1e-3) is read as a value;
    argparse's own pattern takes only -1 and -0.5 forms."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise _UsageError(message)


def _finite(text: str) -> float:
    """Argparse type of every float option: a finite float, nan and inf refused."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _given(args: argparse.Namespace) -> dict:
    return {key: value for key, value in vars(args).items() if value is not None}


def _file_options(parser: argparse.ArgumentParser, command: str, path: str) -> dict:
    """Options set by a flat key = value file, checked by the command's parser.

    '#' starts a comment.  ``key = value`` is parsed as ``--key=value`` and
    ``key = true`` as the bare flag ``--key``; a switch set ``false`` stays off.
    """
    tokens, switched_off = [command], [command]
    try:
        with open(path, encoding="utf-8") as fh:
            lines = list(fh)
    except UnicodeDecodeError as exc:
        raise _UsageError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().replace("_", "-")
        value = value.strip()
        # the output path, the file itself and --help belong on the command line
        if key in ("out", "config", "help"):
            raise _UsageError(f"{path}:{lineno}: {key} cannot be set in a config file")
        if value == "true":
            tokens.append(f"--{key}")
        elif value == "false":
            switched_off.append(f"--{key}")
        else:
            tokens.append(f"--{key}={value}")
    try:
        parser.parse_args(switched_off)  # each must name a switch
        return _given(parser.parse_args(tokens))
    except _UsageError as exc:
        raise _UsageError(f"{path}: {exc}") from None


def cmd_spectrum(opts: dict) -> _Result:
    M = opts["M"]
    levels = opts["levels"]
    n = opts["N"]
    parity = opts["parity"]
    if levels < 1:
        raise _UsageError("--levels must be at least 1")
    with _building_input():
        cfg = OperatorConfig(truncation=n)
        stop = StopRule(max_steps=opts["max_steps"], target_residual=opts["tol"])

    if parity == "both":
        if levels > 2 * n:
            raise _UsageError(f"--levels {levels} exceeds the {2 * n} merged levels at --N {n}")
        result = oscillator.compute_spectrum(M, cfg, stop)
        merged = range(levels)
    else:
        if levels > n:
            raise _UsageError(f"--levels {levels} exceeds --N {n}")
        problem = oscillator.build_problem(M, oscillator.Parity(parity))
        fixed, trace = oscillator.solve_parity(problem, cfg, stop)
        result = oscillator.SpectrumResult(fixed.values, {parity: trace.residual_sup[-1]},
                                           {parity: trace.steps})
        # a parity class holds every other level of the merged spectrum
        merged = range(0 if parity == "even" else 1, 2 * levels, 2)
    rows = [
        {"level": level, "energy": float(energy), "parity": "odd" if level % 2 else "even",
         "parity_index": level // 2 + 1}
        for level, energy in zip(merged, result.energies)
    ]

    document = {
        "problem": {"M": M, "parity": parity, "N": n},
        "energies": [row["energy"] for row in rows],
        "levels": rows,
        "residuals": result.residuals,
        "iterations": result.iterations,
    }
    return EXIT_OK, document, rows


def cmd_iterate(opts: dict) -> _Result:
    n = opts["N"]
    perturb_eps, perturb_size = opts["perturb_eps"], opts["perturb_size"]
    if perturb_eps is None and perturb_size is not None:
        raise _UsageError("--perturb-size needs --perturb-eps")
    with _building_input():
        problem = oscillator.build_problem(opts["M"], oscillator.Parity(opts["parity"]))
        # the weighted residuals and the rate fit leave the contraction strip
        # beyond the growth exponent alpha* = 1 + theta/pi
        if not 0.0 <= opts["eps"] < 1.0 + problem.alpha:
            raise _UsageError(f"--eps must lie in the convergence strip "
                              f"0 <= eps < 1 + alpha* = {1.0 + problem.alpha!r}")
        cfg = OperatorConfig(truncation=n)
        stop = StopRule(max_steps=opts["max_steps"], target_residual=opts["tol"],
                        rate_epsilon=opts["eps"])
        start = oscillator.seed_sequence(problem, n)
        if perturb_eps is not None:
            # the stored values move, the tail normalization stays pinned
            k = np.arange(1, n + 1, dtype=float)
            bump = (0.1 if perturb_size is None else perturb_size) * k ** (-perturb_eps)
            start = start.with_values(start.values * np.exp(bump))

    trace = run_iteration(start, problem.offsets, problem.kernel, cfg, stop)
    try:
        fitted = asymptotics.empirical_rate(trace, trace.iterates[-1], opts["eps"])
    except InsufficientData:
        fitted = None

    rows = [
        {"step": i + 1, "residual_sup": trace.residual_sup[i],
         "residual_weighted": trace.residual_weighted[i]}
        for i in range(trace.steps)
    ]
    document = {
        "problem": {
            "M": problem.M,
            "parity": problem.parity.value,
            "theta": problem.kernel.theta,
            "alpha": problem.alpha,
            "nu": problem.nu,
            "offset_constant": problem.offsets.constant,
            "N": n,
        },
        "eps": opts["eps"],
        "steps": trace.steps,
        "fitted_lambda": fitted,
        "residual_sup": trace.residual_sup,
        "residual_weighted": trace.residual_weighted,
    }
    if opts["format"] == "csv" and fitted is not None:
        sys.stderr.write(f"fitted_lambda {fitted:.6f}\n")
    return EXIT_OK, document, rows


def cmd_analyze(opts: dict) -> _Result:
    if (opts["M"] is None) == (opts["theta"] is None):
        raise _UsageError("analyze requires exactly one of --M / --theta")
    if opts["M"] is not None:
        theta = oscillator.build_problem(opts["M"], oscillator.Parity.EVEN).kernel.theta
    else:
        theta = opts["theta"]
        if not 0.0 < theta < math.pi:
            raise _UsageError("--theta must lie strictly between 0 and pi")
    kernel = KernelParams(theta)
    alpha_star = asymptotics.critical_exponent(kernel)

    if not all(alpha > 1.0 for alpha in opts["alpha"]):
        raise _UsageError("--alpha must exceed 1, where the drift integral converges")
    if not all(abs(eps - 1.0) < alpha_star for eps in opts["eps"]):
        raise _UsageError(f"--eps must lie in the convergence strip "
                          f"|eps - 1| < alpha* = {alpha_star!r}")

    drift_rows = []
    for alpha in opts["alpha"]:
        integral = asymptotics.drift_integral(alpha, kernel)
        closed = asymptotics.drift_closed(alpha, kernel)
        drift_rows.append({"kind": "drift", "alpha": alpha, "integral": integral,
                           "closed": closed, "gap": abs(integral - closed)})
    contraction_rows = []
    for eps in opts["eps"]:
        integral = asymptotics.contraction_integral(eps, kernel)
        report = asymptotics.contraction_factor(eps, kernel)
        contraction_rows.append({
            "kind": "contraction", "epsilon": eps, "s_integral": integral,
            "s_closed": report.s_eps, "gap": abs(integral - report.s_eps),
            "factor": report.factor,
        })

    document = {
        "theta": theta,
        "alpha_star": alpha_star,
        "predicted_rate_at_1": alpha_star - 1.0,
        "drift": [{k: v for k, v in row.items() if k != "kind"} for row in drift_rows],
        "contraction": [{k: v for k, v in row.items() if k != "kind"} for row in contraction_rows],
    }
    return EXIT_OK, document, drift_rows + contraction_rows


def cmd_verify(opts: dict) -> _Result:
    M = opts["M"]
    levels = opts["levels"]
    n = opts["N"]
    if levels < 1:
        raise _UsageError("--levels must be at least 1")
    if levels > 2 * n:
        raise _UsageError(f"--levels {levels} exceeds the {2 * n} merged levels at --N {n}")
    bound = opts["bound"]
    if bound < 0:
        raise _UsageError("--bound must be nonnegative")

    with _building_input():
        stop = StopRule(max_steps=opts["max_steps"], target_residual=opts["tol"])
        oracle_cfg = oracle.OracleConfig(
            grid_points=opts["oracle_grid"],
            refinement_levels=opts["oracle_levels"],
            tolerance=opts["oracle_tol"],
        )
    if 8 * levels > oracle_cfg.grid_points:
        raise _UsageError(f"--levels {levels} needs --oracle-grid of at least {8 * levels}")
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
    if opts["refine"]:
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
    return (EXIT_OK if passed else EXIT_TOLERANCE), document, rows


def cmd_bracket(opts: dict) -> _Result:
    if (opts["upper"] is None) == (opts["lower"] is None):
        raise _UsageError("bracket requires exactly one of --upper / --lower")
    n = opts["N"]
    slack = opts["slack"]
    with _building_input():
        problem = oscillator.build_problem(opts["M"], oscillator.Parity(opts["parity"]))
        cfg = OperatorConfig(truncation=n)
        if opts["upper"] is not None:
            candidate = asymptotics.upper_bracket(opts["upper"], n, problem.kernel)
            kind, params = asymptotics.BracketKind.SUPER, {"A": opts["upper"]}
        else:
            candidate = asymptotics.lower_bracket(opts["lower"], n, problem.kernel)
            kind, params = asymptotics.BracketKind.SUB, {"Nparam": opts["lower"]}

    certificate = asymptotics.verify_bracket(candidate, problem.offsets, problem.kernel,
                                             cfg, slack=slack, kind=kind)
    row = {
        "kind": kind.value,
        "verified": certificate.verified,
        "max_violation": certificate.max_violation,
        "slack": slack,
        "M": problem.M,
        "parity": problem.parity.value,
        "N": n,
        **params,
    }
    code = EXIT_OK if certificate.verified else EXIT_CONVERGENCE
    return code, row, [row]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="oscspec",
        description="Fixed-point quantization solver and diagnostics for the "
                    "anharmonic oscillator spectrum (potential q^(2M)).",
    )
    sub = parser.add_subparsers(dest="command")

    # options every command reads, and those of the three commands that solve
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--M", type=int, help="potential power parameter, at least 2")
    shared.add_argument("--format", choices=("csv", "json"), help="artifact format")
    shared.add_argument("--out", help="output path ('-' for stdout)")
    shared.add_argument("--config", help="flat key=value config file")
    solve = argparse.ArgumentParser(add_help=False)
    solve.add_argument("--N", type=int, help="truncation length of stored sequences")
    solve.add_argument("--tol", type=_finite, help="stopping sup-log residual")
    solve.add_argument("--max-steps", dest="max_steps", type=int, help="iteration cap")

    p = sub.add_parser("spectrum", parents=[shared, solve], help="compute merged oscillator levels")
    p.add_argument("--parity", choices=("even", "odd", "both"), help="parity class")
    p.add_argument("--levels", type=int, help="number of levels to emit")

    p = sub.add_parser("iterate", parents=[shared, solve],
                       help="run the fixed-point iteration and fit its rate")
    p.add_argument("--parity", choices=("even", "odd"), help="parity class")
    p.add_argument("--eps", type=_finite, help="weight exponent for residuals and the rate fit")
    p.add_argument("--perturb-eps", dest="perturb_eps", type=_finite,
                   help="perturb the seed by perturb-size * k**(-perturb-eps) in log space")
    p.add_argument("--perturb-size", dest="perturb_size", type=_finite,
                   help="amplitude of the seed perturbation, default 0.1; needs --perturb-eps")

    p = sub.add_parser("analyze", parents=[shared], help="drift and contraction diagnostics")
    p.add_argument("--theta", type=_finite, help="kernel angle in (0, pi), alternative to --M")
    p.add_argument("--eps", type=_finite, action="append", help="epsilon grid point (repeatable)")
    p.add_argument("--alpha", type=_finite, action="append", help="alpha grid point (repeatable)")

    p = sub.add_parser("verify", parents=[shared, solve],
                       help="compare the solved spectrum against the eigensolver oracle")
    p.add_argument("--levels", type=int)
    p.add_argument("--bound", type=_finite, help="relative deviation bound per level")
    p.add_argument("--refine", action="store_true", default=None,
                   help="also solve at doubled N and require per-level deviations not to grow")
    p.add_argument("--oracle-grid", dest="oracle_grid", type=int)
    p.add_argument("--oracle-levels", dest="oracle_levels", type=int)
    p.add_argument("--oracle-tol", dest="oracle_tol", type=_finite)

    p = sub.add_parser("bracket", parents=[shared], help="certify a sub- or super-solution")
    p.add_argument("--N", type=int, help="truncation length of stored sequences")
    p.add_argument("--parity", choices=("even", "odd"), help="parity class")
    p.add_argument("--upper", nargs="?", const=100.0, type=_finite, metavar="A",
                   help="shifted-power super-solution (k + A)**a, A = 100 if omitted")
    p.add_argument("--lower", nargs="?", const=6, type=int, metavar="NPARAM",
                   help="staircase sub-solution, NPARAM = 6 if omitted")
    p.add_argument("--slack", type=_finite, help="certification slack in counting units")

    return parser


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return "" if value is None else str(value)


def _render(fmt: str, document: dict, rows: list[dict]) -> str:
    """The document as JSON of finite numbers (a nan or inf in it is a fault of
    the program and raises ValueError), or the rows as CSV under the ordered
    union of their keys, a key a row lacks left empty."""
    if fmt == "json":
        return json.dumps(document, indent=2, allow_nan=False) + "\n"
    columns = list(dict.fromkeys(key for row in rows for key in row))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_cell(row.get(c)) for c in columns] for row in rows)
    return buf.getvalue()


_HANDLERS = {
    "spectrum": cmd_spectrum,
    "iterate": cmd_iterate,
    "analyze": cmd_analyze,
    "verify": cmd_verify,
    "bracket": cmd_bracket,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return EXIT_USAGE
        opts = dict(DEFAULTS[args.command])
        if args.config:
            opts.update(_file_options(parser, args.command, args.config))
        opts.update(_given(args))
        if opts.get("M") is None and args.command != "analyze":
            raise _UsageError("--M is required")
        if opts.get("M") is not None:
            if opts["M"] < 2:
                raise _UsageError("--M must be at least 2")
            # before any command solves: the kernel angle (M - 1) pi / (M + 1)
            # of a huge M rounds to pi, which the problem refuses
            with _building_input():
                oscillator.build_problem(opts["M"], oscillator.Parity.EVEN)
        out = None if args.out == "-" else args.out
        created = out is not None and not os.path.exists(out)
        if out is not None:
            open(out, "a", encoding="utf-8").close()  # an unwritable path fails before the solve
        try:
            code, document, rows = _HANDLERS[args.command](opts)
        except BaseException:
            if created:
                os.remove(out)  # a failed command leaves no empty artifact
            raise
        text = _render(opts["format"], document, rows)
        if out is None:
            sys.stdout.write(text)
        else:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        return code
    except (_UsageError, OSError) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except MemoryError as exc:
        sys.stderr.write(f"usage error: the problem does not fit in memory, "
                         f"reduce --N or --oracle-grid ({exc})\n")
        return EXIT_USAGE
    except _InvalidInput as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return EXIT_USAGE
    except ResolutionError as exc:
        sys.stderr.write(f"oracle failure: {exc}\n")
        return EXIT_ORACLE
    except NoConvergence as exc:
        sys.stderr.write(f"convergence failure: {exc}\n")
        return EXIT_CONVERGENCE
    except OscspecError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONVERGENCE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
