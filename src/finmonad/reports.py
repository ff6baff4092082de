"""Outcomes of law checks, with replayable counterexamples.

A failing report is self-certifying: the counterexample stores the offending
input, both computed sides, and a replay closure that re-evaluates the law on
that input, so a skeptic can reproduce the inequality without rerunning the
whole sweep.

Line format, shared by every checker in the library::

    PASS <law> @ <subject> checked=<n>
    FAIL <law> @ <subject> witness=<element> lhs=<value> rhs=<value>
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import partial
from itertools import product

from .containers import Record
from .render import show


class Counterexample(Record):
    """First input on which the two sides of a law disagreed: the input
    `value`, its two sides `lhs` and `rhs`, the `labels` (strings) of the panel
    functions in the case, and `replay()`, which returns both sides anew."""

    __slots__ = ("value", "lhs", "rhs", "labels", "replay")

    def recheck(self) -> bool:
        """Re-evaluate both sides; True when the disagreement reproduces."""
        lhs, rhs = self.replay()
        return lhs == self.lhs and rhs == self.rhs and lhs != rhs


class LawReport(Record):
    """Result of checking one law over one subject (instance or component)."""

    __slots__ = ("law", "subject", "checked", "counterexample")

    def __init__(self, law: str, subject: str, checked: int, counterexample: Counterexample | None = None):
        super().__init__(law, subject, checked, counterexample)

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def to_line(self) -> str:
        if self.passed:
            return f"PASS {self.law} @ {self.subject} checked={self.checked}"
        cx = self.counterexample
        witness = show(cx.value)
        if cx.labels:
            witness += " [" + ",".join(cx.labels) + "]"
        return (
            f"FAIL {self.law} @ {self.subject} "
            f"witness={witness} lhs={show(cx.lhs)} rhs={show(cx.rhs)}"
        )


def sweep(law: str, subject: str, sides: Callable, values: Sequence, panel: Sequence[tuple]) -> LawReport:
    """Check `sides(value, *args)`, the law's two sides, over every value and
    every `(labels, *args)` panel entry, values outermost. `checked` counts
    all len(values) * len(panel) cases, but a repeated value is evaluated only
    at its first occurrence, keyed on `repr`, since `==` merges 1, 1.0 and
    True, and lists are unhashable. The first failing case becomes the
    counterexample, replayed by `partial(sides, value, *args)`, and nothing
    after it runs."""
    checked = len(values) * len(panel)
    distinct = {}
    for value in values:
        distinct.setdefault(repr(value), value)
    for value, (labels, *args) in product(distinct.values(), panel):
        lhs, rhs = sides(value, *args)
        if lhs != rhs:
            witness = Counterexample(value, lhs, rhs, labels, partial(sides, value, *args))
            return LawReport(law, subject, checked, witness)
    return LawReport(law, subject, checked)
