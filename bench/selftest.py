"""Self-test of the benchmark's own metric code.

    python3 bench/selftest.py

Covers the percentile rule, self time on nested spans, bit-level output
fingerprints and the counting of failed ops.  Needs neither numpy nor oscspec.
"""

from __future__ import annotations

import unittest

from harness import PassLog, fingerprint, percentile, run_passes, samples_needed
from spans import Span, SpanRecorder, Target, instrumented, self_times


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class PercentileRule(unittest.TestCase):
    def test_median_needs_ten_samples_beyond(self):
        self.assertIsNone(percentile(list(range(19)), 0.5))
        self.assertEqual(percentile(list(range(20)), 0.5), 9)

    def test_p90_needs_a_hundred_samples(self):
        self.assertIsNone(percentile(list(range(99)), 0.9))
        self.assertEqual(percentile(list(range(100)), 0.9), 89)
        self.assertEqual((samples_needed(0.5), samples_needed(0.9)), (20, 100))

    def test_order_of_samples_does_not_matter(self):
        values = [float(v) for v in range(40)]
        self.assertEqual(percentile(values[::-1], 0.5), percentile(values, 0.5))


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        clock = FakeClock()
        rec = SpanRecorder(clock)
        with rec.span("op"):                 # 0 .. 10
            clock.now = 1.0
            with rec.span("a"):              # 1 .. 6
                clock.now = 2.0
                with rec.span("b"):          # 2 .. 5
                    clock.now = 5.0
                clock.now = 6.0
            clock.now = 7.0
            with rec.span("c"):              # 7 .. 9
                clock.now = 9.0
            clock.now = 10.0
        self.assertEqual([s.name for s in rec.spans], ["op", "a", "b", "c"])
        self.assertEqual([s.parent for s in rec.spans], [None, 0, 1, 0])
        self.assertEqual(self_times(rec.spans), [3.0, 2.0, 3.0, 2.0])

    def test_overlapping_children_are_counted_once(self):
        spans = [Span("p", 0.0, 10.0, None, 0), Span("x", 1.0, 4.0, 0, 0),
                 Span("y", 3.0, 6.0, 0, 0), Span("z", 9.0, 12.0, 0, 0)]
        self.assertEqual(self_times(spans)[0], 10.0 - 5.0 - 1.0)

    def test_instrumented_rebinds_and_restores(self):
        import types

        module = types.SimpleNamespace(f=lambda x: x + 1)
        original = module.f
        rec = SpanRecorder()
        target = Target(module, "f", "m.f", lambda args, kwargs, result: {"result": result})
        with instrumented(rec, [target]):
            self.assertEqual(module.f(1), 2)
        self.assertIs(module.f, original)
        self.assertEqual([(s.name, s.info) for s in rec.spans], [("m.f", {"result": 2})])


class Case:
    def __init__(self, label):
        self.label = label


class FailureCounting(unittest.TestCase):
    def test_failed_ops_are_counted_not_fatal(self):
        cases = [Case("good"), Case("raises"), Case("bad-output")]

        def execute(case):
            if case.label == "raises":
                raise RuntimeError("injected")
            return {"value": 1.0}

        def check(case, values):
            return (["injected check failure"] if case.label == "bad-output" else []), {}

        log = run_passes(cases, execute, check, 0.0, lambda i: cases, {}, passes=2)
        self.assertEqual((log.attempted, log.failed), (6, 4))
        self.assertEqual(len(log.pass_seconds), 2)
        self.assertIn("RuntimeError: injected", log.records[1].problems[0])

    def test_output_that_changes_between_runs_fails(self):
        cases = [Case("drift")]
        outputs = iter([{"x": 0.1}, {"x": 0.1}, {"x": 0.1 + 2**-56}])
        log = run_passes(cases, lambda c: next(outputs), lambda c, v: ([], {}), 0.0,
                         lambda i: cases, {}, passes=3)
        self.assertEqual([r.ok for r in log.records], [True, True, False])

    def test_budget_stops_before_overrunning(self):
        clock = FakeClock()
        cases = [Case("a")]

        def execute(case):
            clock.now += 4.0
            return {}

        log = run_passes(cases, execute, lambda c, v: ([], {}), 10.0, lambda i: cases, {},
                         PassLog(), clock=clock)
        # after two passes (8 s) a third would end at 12 s, past the 10 s budget
        self.assertEqual(log.pass_seconds, [4.0, 4.0])


class Fingerprint(unittest.TestCase):
    def test_one_bit_changes_the_digest(self):
        self.assertNotEqual(fingerprint({"x": 1.0}), fingerprint({"x": 1.0 + 2**-52}))
        self.assertEqual(fingerprint({"a": 1, "b": "s"}), fingerprint({"b": "s", "a": 1}))


if __name__ == "__main__":
    unittest.main()
