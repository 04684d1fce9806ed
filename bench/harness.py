"""Timed passes over a workload's cases, failure counting and summary statistics.

Stdlib only, so that importing it costs nothing inside the timed set-up.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
import traceback
from dataclasses import dataclass, field

# a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10


def percentile(samples, q: float):
    """Nearest-rank q-quantile, or None (unreported) when fewer than
    MIN_BEYOND samples lie beyond its rank."""
    n = len(samples)
    rank = max(1, math.ceil(q * n))
    if n == 0 or n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def samples_needed(q: float) -> int:
    """Smallest sample count for which percentile(., q) is reported."""
    n = 1
    while n - max(1, math.ceil(q * n)) < MIN_BEYOND:
        n += 1
    return n


def quartile_spread(values) -> float:
    """Distance between first and third quartile as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def fingerprint(values: dict) -> str:
    """Digest of computed values that changes with any bit of any value.

    Floats are hashed through float.hex and arrays through their raw bytes,
    so two outputs share a digest only when they are bit-identical.
    """
    h = hashlib.sha256()
    for key in sorted(values):
        value = values[key]
        if hasattr(value, "tobytes"):
            blob = f"{value.dtype}{value.shape}".encode() + value.tobytes()
        elif isinstance(value, float):
            blob = value.hex().encode()
        else:
            blob = repr(value).encode()
        h.update(key.encode() + b"\0" + blob + b"\0")
    return h.hexdigest()


@dataclass
class OpRecord:
    pass_index: int
    case: str
    seconds: float
    problems: list[str]
    measures: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class PassLog:
    records: list[OpRecord] = field(default_factory=list)
    pass_seconds: list[float] = field(default_factory=list)
    orders: list[list[str]] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(not r.ok for r in self.records)


def run_passes(cases, execute, check, budget_s: float, order, digests: dict,
               log: PassLog | None = None, passes: int | None = None,
               clock=time.perf_counter) -> PassLog:
    """Run whole passes over ``cases`` and return their log.

    Without ``passes``, passes repeat until the next one would end past
    ``budget_s``, and at least one runs.  ``order(pass_index)`` gives the case
    order of a pass.  Each op is ``execute(case)`` returning a dict of
    computed values; only that call is timed.  ``check(case, values)``
    returns ``(problems, measures)``.  An exception or a failed check makes
    the op a failure and the run goes on.  ``digests`` maps case labels to
    the fingerprint of their first outputs; later outputs that differ by a
    bit fail the op.
    """
    log = log or PassLog()
    start = clock()
    first = len(log.pass_seconds)
    while True:
        index = len(log.pass_seconds)
        ordered = order(index)
        log.orders.append([c.label for c in ordered])
        busy = 0.0
        for case in ordered:
            t0 = clock()
            try:
                values = execute(case)
            except Exception as exc:  # counted as a failed op, the run goes on
                seconds = clock() - t0
                frame = traceback.extract_tb(exc.__traceback__)[-1]
                problem = f"{type(exc).__name__}: {exc} ({frame.filename}:{frame.lineno})"
                log.records.append(OpRecord(index, case.label, seconds, [problem]))
                busy += seconds
                continue
            seconds = clock() - t0
            busy += seconds
            try:
                problems, measures = check(case, values)
            except Exception as exc:  # a check that cannot run is a failed check
                problems, measures = [f"check raised {type(exc).__name__}: {exc}"], {}
            digest = fingerprint(values)
            if digests.setdefault(case.label, digest) != digest:
                problems = problems + ["outputs differ by at least one bit from the first run of this case"]
            log.records.append(OpRecord(index, case.label, seconds, problems, measures))
        log.pass_seconds.append(busy)
        done = len(log.pass_seconds) - first
        if passes is not None:
            if done >= passes:
                return log
        elif clock() - start + statistics.median(log.pass_seconds[first:]) > budget_s:
            return log
