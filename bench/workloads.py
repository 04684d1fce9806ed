"""The benchmark's workloads: generated inputs, one operation per case, and
the checks on each operation's outputs.

Every call into oscspec goes through a module attribute (``quantize.iterate``,
never a name imported into this file), so the traced run sees the call once
the attribute is rebound.  Importing this module imports numpy and oscspec;
the benchmark does that inside its timed set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass

import numpy as np

from oscspec import asymptotics, cli, oracle, oscillator, quantize
from spans import Target

# A4's oracle configuration: lowest 10 merged levels, grid 4096, 3 Richardson levels
ORACLE_A4 = oracle.OracleConfig(grid_points=4096, refinement_levels=3, tolerance=1e-6)
LOWEST = 10
A4_BOUND = 1e-3   # A4's relative deviation bound
A3_BOUND = 0.05   # A3: fitted rate within +-0.05 of alpha - 1
A9_BOUND = 0.10   # A9: spectral rate within 10% of the contraction factor
STEP_TARGET = 1e-11


@dataclass
class Case:
    label: str
    params: dict


def _kernel_bytes(n: int) -> int:
    """Bytes of one dense N x (N + tail nodes) kernel matrix of doubles."""
    return n * (n + quantize.OperatorConfig().tail_quadrature_points) * 8


def _max_rel_dev(levels, reference) -> float:
    count = len(reference)
    return float(np.max(np.abs(levels[:count] - reference) / np.abs(reference)))


class SolveLarge:
    """Library compute_spectrum for M in {2, 3} at a large truncation.

    The quantize dense kernel sum and its Newton solve do nearly all of the
    work, on a kernel matrix larger than the L2 cache: the workload where a
    faster counting layer, bounded memory or fewer outer steps must show.
    """

    name = "solve-large"
    truncation = 1500
    stop = quantize.StopRule(max_steps=600, target_residual=STEP_TARGET)

    def cases(self, rng: random.Random) -> list[Case]:
        cfg = quantize.OperatorConfig(truncation=self.truncation)
        return [Case(f"M={M}", {"M": M, "cfg": cfg}) for M in (2, 3)]

    def warm_up(self) -> None:
        oscillator.compute_spectrum(2, quantize.OperatorConfig(truncation=100), self.stop)

    def reference(self, cases) -> dict:
        return {c.label: oracle.hamiltonian_eigenvalues(c.params["M"], LOWEST, ORACLE_A4)
                for c in cases}

    def execute(self, case: Case) -> dict:
        result = oscillator.compute_spectrum(case.params["M"], case.params["cfg"], self.stop)
        return {"energies": result.energies,
                **{f"residual.{p}": r for p, r in result.residuals.items()},
                **{f"steps.{p}": s for p, s in result.iterations.items()}}

    def check(self, case: Case, values: dict, reference) -> tuple[list[str], dict]:
        problems = [f"{key} {r:.3e} above {STEP_TARGET:g}" for key, r in values.items()
                    if key.startswith("residual.") and not r <= STEP_TARGET]
        energies = values["energies"]
        if not np.all(np.diff(energies) > 0):
            problems.append("merged levels do not interlace strictly")
        dev = _max_rel_dev(energies, reference[case.label])
        if not dev <= A4_BOUND:
            problems.append(f"max_rel_dev {dev:.3e} above {A4_BOUND:g}")
        return problems, {"max_rel_dev": dev}

    def kernel_bytes(self) -> int:
        return _kernel_bytes(self.truncation)


class VerifySmall:
    """The CLI verify command run in-process for M in {2, 3, 4} at N=250.

    The oracle and the CLI do most of the work and quantize little; the N=250
    kernel matrix fits in cache, so a fast path's fixed cost at small N shows
    up here as a loss.  --bound 2e-3 covers the documented O(1/N) truncation
    error, which reaches 1.8e-3 for M=4 at N=250.
    """

    name = "verify-small"
    truncation = 250

    def _argv(self, M: int, n: int, levels: int, grid: int, refinements: int,
              bound: str) -> list[str]:
        return ["verify", "--M", str(M), "--N", str(n), "--levels", str(levels),
                "--oracle-grid", str(grid), "--oracle-levels", str(refinements),
                "--bound", bound, "--format", "json"]

    def cases(self, rng: random.Random) -> list[Case]:
        return [Case(f"M={M}", {"argv": self._argv(M, self.truncation, 20, 4096, 4, "2e-3")})
                for M in (2, 3, 4)]

    def warm_up(self) -> None:
        self._run(self._argv(2, 60, 4, 512, 2, "0.05"))

    def reference(self, cases) -> dict:
        return {}

    @staticmethod
    def _run(argv: list[str]) -> dict:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return {"exit_code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    def execute(self, case: Case) -> dict:
        return self._run(case.params["argv"])

    def check(self, case: Case, values: dict, reference) -> tuple[list[str], dict]:
        if values["exit_code"] != 0:
            return [f"exit code {values['exit_code']}: {values['stderr'].strip()}"], {}
        document = json.loads(values["stdout"])
        problems = [] if document["pass"] is True else ['"pass" is not true']
        return problems, {"max_rel_dev": document["max_rel_dev"]}

    def kernel_bytes(self) -> int:
        return _kernel_bytes(self.truncation)


class RateDiagnostics:
    """The library analysis path on odd parity, N=1000, M in {2, 3}.

    Plain Picard iterate from a perturbed seed, the empirical rate against
    the last iterate, the derivative matrix and its spectral rate, and the
    two dense bracket certificates at N=2000.  It uses quantize differently
    from solve-large: one-shot counting passes with no Newton solve, and a
    Picard iteration that must stay unaccelerated.
    """

    name = "rate-diagnostics"
    truncation = 1000
    bracket_truncation = 2000
    stop = quantize.StopRule(max_steps=80, target_residual=STEP_TARGET, rate_epsilon=1.0)

    def _case(self, M: int, size: float, n: int, n_bracket: int) -> Case:
        problem = oscillator.build_problem(M, oscillator.Parity.ODD)
        seed = oscillator.seed_sequence(problem, n)
        k = np.arange(1, n + 1, dtype=float)
        return Case(f"M={M}", {
            "problem": problem,
            "size": size,
            "start": seed.with_values(seed.values * np.exp(size / k)),
            "cfg": quantize.OperatorConfig(truncation=n),
            "bracket_cfg": quantize.OperatorConfig(truncation=n_bracket),
            "upper": asymptotics.upper_bracket(100.0, n_bracket, problem.kernel),
            "lower": asymptotics.lower_bracket(6, n_bracket, problem.kernel),
        })

    def cases(self, rng: random.Random) -> list[Case]:
        return [self._case(M, rng.uniform(0.05, 0.2), self.truncation, self.bracket_truncation)
                for M in (2, 3)]

    def warm_up(self) -> None:
        self.execute(self._case(2, 0.1, 100, 200))

    def reference(self, cases) -> dict:
        out = {}
        for c in cases:
            M, kernel = c.params["problem"].M, c.params["problem"].kernel
            _, odd = oracle.parity_split(oracle.hamiltonian_eigenvalues(M, LOWEST, ORACLE_A4))
            out[c.label] = {"odd_levels": odd, "alpha_minus_1": c.params["problem"].alpha - 1.0,
                            "contraction": asymptotics.contraction_factor(1.0, kernel).factor}
        return out

    def execute(self, case: Case) -> dict:
        p = case.params
        problem = p["problem"]
        Q, kernel = problem.offsets, problem.kernel
        trace = quantize.iterate(p["start"], Q, kernel, p["cfg"], self.stop)
        last = trace.iterates[-1]
        fitted = asymptotics.empirical_rate(trace, last, 1.0)
        image = quantize.apply_quantization(last, Q, kernel, p["cfg"])
        D = quantize.derivative_matrix(last, image, kernel, p["cfg"])
        spectral = asymptotics.spectral_rate_estimate(D, 1.0, 40)
        upper = asymptotics.verify_bracket(p["upper"], Q, kernel, p["bracket_cfg"],
                                           kind=asymptotics.BracketKind.SUPER)
        lower = asymptotics.verify_bracket(p["lower"], Q, kernel, p["bracket_cfg"],
                                           kind=asymptotics.BracketKind.SUB)
        return {"last_iterate": last.values, "steps": trace.steps,
                "residuals": np.asarray(trace.residual_sup), "fitted_rate": fitted,
                "spectral_rate": spectral, "upper.verified": upper.verified,
                "upper.max_violation": upper.max_violation, "lower.verified": lower.verified,
                "lower.max_violation": lower.max_violation}

    def check(self, case: Case, values: dict, reference) -> tuple[list[str], dict]:
        ref = reference[case.label]
        problems = []
        rate_dev = abs(values["fitted_rate"] - ref["alpha_minus_1"])
        if not rate_dev <= A3_BOUND:
            problems.append(f"fitted rate {values['fitted_rate']:.4f} off alpha-1 by {rate_dev:.4f}")
        spectral_dev = abs(values["spectral_rate"] / ref["contraction"] - 1.0)
        if not spectral_dev <= A9_BOUND:
            problems.append(f"spectral rate {values['spectral_rate']:.4f} off by {spectral_dev:.1%}")
        for side in ("upper", "lower"):
            if values[f"{side}.verified"] is not True:
                problems.append(f"{side} bracket certificate not verified")
        dev = _max_rel_dev(values["last_iterate"], ref["odd_levels"])
        if not dev <= A4_BOUND:
            problems.append(f"max_rel_dev {dev:.3e} above {A4_BOUND:g}")
        return problems, {"max_rel_dev": dev, "rate_dev": rate_dev,
                          "spectral_dev": spectral_dev, "steps": values["steps"]}

    def kernel_bytes(self) -> int:
        return _kernel_bytes(max(self.truncation, self.bracket_truncation))


WORKLOADS = {w.name: w for w in (SolveLarge(), VerifySmall(), RateDiagnostics())}


def _oracle_rows(args, kwargs, result) -> dict:
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    return {"rows": cfg.grid_points * (2 ** cfg.refinement_levels - 1)}


def trace_targets() -> list[Target]:
    """Module attributes the traced run rebinds, with the span name of each."""
    def steps(args, kwargs, trace):
        return {"steps": trace.steps}

    def parity_steps(args, kwargs, result):
        return {"steps": result[1].steps, "parity": args[0].parity.value}

    return [
        Target(quantize, "apply_quantization", "quantize.apply", peak_memory=True),
        Target(quantize, "iterate", "quantize.iterate", steps),
        Target(oscillator, "iterate", "quantize.iterate", steps),
        Target(quantize, "derivative_matrix", "quantize.derivative_matrix"),
        Target(oscillator, "solve_parity", "oscillator.solve_parity", parity_steps),
        Target(oscillator, "compute_spectrum", "oscillator.compute_spectrum"),
        Target(oracle, "hamiltonian_eigenvalues", "oracle.eigenvalues", _oracle_rows),
        Target(asymptotics, "verify_bracket", "asymptotics.verify_bracket"),
        Target(asymptotics, "empirical_rate", "asymptotics.empirical_rate"),
        Target(asymptotics, "spectral_rate_estimate", "asymptotics.spectral_rate"),
        Target(cli, "main", "cli.main"),
    ]
