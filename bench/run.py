"""oscspec benchmark: one workload, timed, checked, optionally traced.

    python3 bench/run.py --workload solve-large --seed 1 --seconds 25 --trace 0

Run from anywhere inside a full checkout; the package is imported from the
checkout's ``src/``.  The output lists every metric with its name and unit;
the last line is one JSON object with ``correct``, ``attempted``, ``failed``
and the metrics that ``BENCHMARK.json`` declares for the mode: the
``end_to_end`` list with ``--trace 0`` and the ``per_layer`` list with
``--trace 1``.  A full record (environment, every op, spans) is written to
``.bench_out/`` at the checkout root.

With ``--trace 0`` the run sets up the workload five times (once here, four
times in fresh interpreters) and reports the median as ``setup_s``, then runs
whole passes over the seeded case list for ``--seconds``.  With ``--trace 1``
it alternates untraced passes and passes with spans recorded around each
public entry point; every computed value of the traced passes must be
bit-identical to the untraced ones.

``OSCSPEC_THREADS`` is removed from the environment, so the package runs its
serial default, and the BLAS/OpenMP thread counts are set to one.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from harness import PassLog, percentile, run_passes, samples_needed
from spans import SpanRecorder, instrumented, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("solve-large", "verify-small", "rate-diagnostics")
SETUP_REPEATS = 5
# Pinned to one thread before numpy loads: the run is the plain serial baseline,
# and on a small shared box a second BLAS thread made pass times twice as spread.
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")


def timed_setup(name: str, seed: int):
    """Import the package, build the workload's inputs and run a small warm-up
    op, which fills lazy caches; returns (workload, cases, rng, seconds)."""
    t0 = time.perf_counter()
    workloads = importlib.import_module("workloads")
    workload = workloads.WORKLOADS[name]
    rng = random.Random(seed)
    cases = workload.cases(rng)
    workload.warm_up()
    return workload, cases, rng, time.perf_counter() - t0


def setup_probe(name: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe exited {done.returncode}: {done.stderr[-2000:]}")
    return float(done.stdout.strip().splitlines()[-1])


def _getconf() -> dict:
    try:
        done = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return {}
    sizes = {}
    for line in done.stdout.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE",
                                            "LEVEL3_CACHE_SIZE") and parts[1].isdigit():
            sizes[parts[0]] = int(parts[1])
    return sizes


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment(workload, inherited: dict) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "oscspec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_variables": {v: os.environ.get(v, "unset") for v in THREAD_VARIABLES},
        "thread_variables_inherited": inherited,
        "OSCSPEC_THREADS": "unset",
        "cache_bytes": _getconf(),
        "kernel_matrix_bytes_computed": workload.kernel_bytes(),
    }


def end_to_end(log: PassLog, setup: list[float]) -> dict:
    """Metric name -> (value or None when unreported, unit, note)."""
    ops = [r.seconds for r in log.records]
    measures = defaultdict(list)
    for r in log.records:
        for key, value in r.measures.items():
            measures[key].append(value)
    out = {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} set-ups"),
        "wall_s": (statistics.median(log.pass_seconds), "s",
                   f"median of {len(log.pass_seconds)} passes"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB",
                         "ru_maxrss of this process"),
        "failed_frac": (log.failed / log.attempted, "1", f"{log.failed}/{log.attempted} ops"),
    }
    for name, q in (("op_s.p50", 0.5), ("op_s.p90", 0.9)):
        out[name] = (percentile(ops, q), "s",
                     f"n={len(ops)}, reported from n>={samples_needed(q)}")
    for key in ("max_rel_dev", "rate_dev"):
        if measures[key]:
            out[key] = (max(measures[key]), "1", f"worst of {len(measures[key])} ops")
    return out


def per_layer(spans, traced: PassLog, untraced: PassLog) -> dict:
    """Metric name -> (value, unit, note) from the spans of the traced passes.

    Totals and counts are per pass; shares divide a layer's time by the time
    of the ops that contain it.
    """
    passes = len(traced.pass_seconds)
    total, own, info = defaultdict(float), defaultdict(float), defaultdict(Counter)
    for span, self_s in zip(spans, self_times(spans)):
        total[span.name] += span.seconds
        own[span.name] += self_s
        info[span.name].update({k: v for k, v in span.info.items() if isinstance(v, int)})
    op_s = total["op"]
    apply = [s for s in spans if s.name == "quantize.apply"]

    def per_pass(x):
        return x / passes

    def share(x):
        return x / op_s

    asym = sum(total[n] for n in ("asymptotics.verify_bracket", "asymptotics.empirical_rate",
                                  "asymptotics.spectral_rate"))
    overhead = statistics.median(traced.pass_seconds) / statistics.median(untraced.pass_seconds)
    note = f"per pass, {passes} traced passes"
    return {
        "quantize.apply.calls": (per_pass(len(apply)), "count", note),
        "quantize.apply.s.p50": (statistics.median(s.seconds for s in apply), "s",
                                 f"median of {len(apply)} calls"),
        "quantize.apply.busy_share": (share(total["quantize.apply"]), "1", "of op time"),
        "quantize.apply.peak_mib": (max(s.info["peak_bytes"] for s in apply) / 2**20, "MiB",
                                    "largest tracemalloc peak inside one call"),
        "quantize.derivative_matrix.s": (per_pass(total["quantize.derivative_matrix"]), "s", note),
        "quantize.derivative_matrix.busy_share": (share(total["quantize.derivative_matrix"]),
                                                  "1", "of op time"),
        "quantize.iterate.steps": (per_pass(info["quantize.iterate"]["steps"]), "count", note),
        "oscillator.compute_spectrum.s": (per_pass(total["oscillator.compute_spectrum"]), "s", note),
        "oscillator.solve_parity.s": (per_pass(total["oscillator.solve_parity"]), "s", note),
        "oscillator.solve_parity.steps": (per_pass(info["oscillator.solve_parity"]["steps"]),
                                          "count", note),
        "oscillator.solve_parity.busy_share": (share(total["oscillator.solve_parity"]), "1",
                                               "of op time"),
        "oscillator.self_s": (per_pass(own["oscillator.compute_spectrum"]), "s",
                              note + ", compute_spectrum minus its parity solves"),
        "oscillator.self_share": (share(own["oscillator.compute_spectrum"]), "1", "of op time"),
        "oracle.eigenvalues.s": (per_pass(total["oracle.eigenvalues"]), "s", note),
        "oracle.busy_share": (share(total["oracle.eigenvalues"]), "1", "of op time"),
        "oracle.rows": (per_pass(info["oracle.eigenvalues"]["rows"]), "count",
                        note + ", computed as grid*(2^levels-1)"),
        "asymptotics.verify_bracket.s": (per_pass(total["asymptotics.verify_bracket"]), "s", note),
        "asymptotics.empirical_rate.s": (per_pass(total["asymptotics.empirical_rate"]), "s", note),
        "asymptotics.spectral_rate.s": (per_pass(total["asymptotics.spectral_rate"]), "s", note),
        "asymptotics.busy_share": (share(asym), "1", "of op time, all three functions"),
        "cli.main.s": (per_pass(total["cli.main"]), "s", note),
        "cli.self_s": (per_pass(own["cli.main"]), "s",
                       note + ", main minus its oscillator and oracle calls"),
        "cli.self_share": (share(own["cli.main"]), "1", "of op time"),
        "trace.overhead": (overhead - 1.0, "1", "traced wall_s / untraced wall_s - 1"),
    }


def declared(mode: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for the mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[mode]}


def final_line(log: PassLog, metrics: dict, mode: str) -> str:
    chosen = {}
    for name, unit in declared(mode).items():
        value, have_unit, _ = metrics[name]
        if value is None or have_unit != unit:
            raise RuntimeError(f"declared metric {name} [{unit}] has value {value} [{have_unit}]")
        chosen[name] = {"value": value, "unit": unit}
    return json.dumps({"correct": log.failed == 0, "attempted": log.attempted,
                       "failed": log.failed, "metrics": chosen})


def report(log: PassLog, metrics: dict) -> None:
    for r in log.records:
        status = "ok" if r.ok else "FAILED: " + "; ".join(r.problems)
        print(f"op pass={r.pass_index} {r.case} {r.seconds:.4f} s {status}")
    for name, (value, unit, note) in metrics.items():
        shown = "unreported" if value is None else repr(value)
        print(f"metric {name} = {shown} {unit}  ({note})")


def _write_record(args, record: dict) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    print(f"record {path.relative_to(ROOT)}")


def _log_record(log: PassLog) -> dict:
    return {"pass_seconds": log.pass_seconds, "orders": log.orders,
            "ops": [vars(r) for r in log.records]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "oscspec" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no oscspec package under {SRC}; run inside a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    inherited = {v: os.environ.get(v, "unset") for v in THREAD_VARIABLES + ("OSCSPEC_THREADS",)}
    os.environ.pop("OSCSPEC_THREADS", None)
    os.environ.update(dict.fromkeys(THREAD_VARIABLES, "1"))

    workload, cases, rng, first_setup = timed_setup(args.workload, args.seed)
    if args.setup_probe:
        print(repr(first_setup))
        return 0

    def order(pass_index):
        return rng.sample(cases, len(cases))

    reference = workload.reference(cases)

    def check(case, values):
        return workload.check(case, values, reference)

    env = environment(workload, inherited)
    print(f"# oscspec benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env))
    print("cases " + ", ".join(f"{c.label}" + (f" size={c.params['size']!r}"
                                               if "size" in c.params else "") for c in cases))
    digests: dict = {}
    record = {"args": vars(args), "env": env}

    if args.trace == 0:
        setup = [first_setup] + [setup_probe(args.workload, args.seed)
                                 for _ in range(SETUP_REPEATS - 1)]
        log = run_passes(cases, workload.execute, check, args.seconds, order, digests)
        metrics = end_to_end(log, setup)
        mode = "end_to_end"
        record.update(setup_seconds=setup, untraced=_log_record(log))
    else:
        recorder = SpanRecorder()
        targets = sys.modules["workloads"].trace_targets()

        def traced_execute(case):
            recorder.op = len(traced.records)
            with recorder.span("op", case=case.label):
                return workload.execute(case)

        # untraced and traced passes alternate, so both see the same machine state
        untraced, traced = PassLog(), PassLog()
        start = time.perf_counter()
        while True:
            run_passes(cases, workload.execute, check, 0.0, order, digests, untraced, passes=1)
            with instrumented(recorder, targets):
                run_passes(cases, traced_execute, check, 0.0, order, digests, traced, passes=1)
            pair = statistics.median(untraced.pass_seconds) + statistics.median(traced.pass_seconds)
            if time.perf_counter() - start + pair > args.seconds:
                break
        metrics = per_layer(recorder.spans, traced, untraced)
        log = PassLog(untraced.records + traced.records)
        mode = "per_layer"
        record.update(untraced=_log_record(untraced), traced=_log_record(traced),
                      spans=[vars(s) for s in recorder.spans])

    report(log, metrics)
    record["metrics"] = {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in metrics.items()}
    _write_record(args, record)
    print(final_line(log, metrics, mode))
    return 0


if __name__ == "__main__":
    sys.exit(main())
