from __future__ import annotations

from finmonad.reports import sweep


def test_sweep_evaluates_each_case_once_and_replays_the_first_failure():
    calls = []

    def case(value, lhs, rhs):
        def sides():
            calls.append(value)
            return lhs, rhs

        return value, (f"k{value}",), sides

    cases = [case(0, 1, 1), case(1, 2, 3), case(2, 4, 5), case(3, 6, 6)]
    report = sweep("law", "subject", cases)
    assert calls == [0, 1, 2, 3]
    assert report.checked == 4
    cx = report.counterexample
    assert (cx.value, cx.lhs, cx.rhs, cx.labels) == (1, 2, 3, ("k1",))
    assert cx.replay is cases[1][2]
    assert cx.recheck()
    assert calls == [0, 1, 2, 3, 1]
    assert report.to_line() == "FAIL law @ subject witness=1 [k1] lhs=2 rhs=3"


def test_sweep_passes_when_every_case_agrees():
    report = sweep("law", "subject", ((n, (), lambda n=n: (n, n)) for n in range(3)))
    assert report.passed
    assert report.to_line() == "PASS law @ subject checked=3"
