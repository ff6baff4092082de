from __future__ import annotations

from finmonad.containers import F2
from finmonad.reports import sweep


def test_sweep_evaluates_each_case_once_and_replays_the_first_failure():
    calls = []

    def cases(value):
        for label, n in (("a", 10), ("b", 20), ("c", 30)):
            calls.append((value, n))
            yield (label,), value + n, value + n + ((value, n) == (1, 20))

    report = sweep("law", "subject", cases, [0, 0, 1, 2, 3], 3)
    # the repeated 0 runs once, and nothing after the witness (1, 20) runs
    assert calls == [(0, 10), (0, 20), (0, 30), (1, 10), (1, 20)]
    assert report.checked == 5 * 3
    cx = report.counterexample
    assert (cx.value, cx.lhs, cx.rhs, cx.labels) == (1, 21, 22, ("b",))
    assert cx.recheck()
    # the replay runs the witness's cases anew, up to the witness and no further
    assert calls[5:] == [(1, 10), (1, 20)]
    assert report.to_line() == "FAIL law @ subject witness=1 [b] lhs=21 rhs=22"


def test_sweep_passes_when_every_case_agrees():
    def cases(n):
        yield (), n, n

    report = sweep("law", "subject", cases, range(3), 1)
    assert report.passed
    assert report.to_line() == "PASS law @ subject checked=3"


def test_sweep_evaluates_a_repeated_value_once_but_counts_it():
    # values that are == but print differently are distinct cases: each is
    # evaluated, while a value that repeats an earlier spelling is not
    values = [1, 1.0, True, 1, 0.0, -0.0, 0.0, [1], [True], [1], F2([1]), F2((1,)), F2([1]), True]
    calls = []

    def cases(value):
        for n in "ab":
            calls.append((value, n))
            yield (n,), n, n

    report = sweep("law", "subject", cases, values, 2)
    assert report.passed and report.checked == len(values) * 2 == 28
    expected = [(values[i], n) for i in (0, 1, 2, 4, 5, 7, 8, 10, 11) for n in "ab"]
    assert len(calls) == len(expected) == 18
    assert all(value is want and n == m for (value, n), (want, m) in zip(calls, expected))
