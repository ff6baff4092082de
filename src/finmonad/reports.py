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

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from .render import show

Case = tuple[Any, tuple[str, ...], Callable[[], tuple[Any, Any]]]


@dataclass(frozen=True)
class Counterexample:
    """First input on which the two sides of a law disagreed."""

    value: Any
    lhs: Any
    rhs: Any
    labels: tuple[str, ...]
    replay: Callable[[], tuple[Any, Any]]

    def recheck(self) -> bool:
        """Re-evaluate both sides; True when the disagreement reproduces."""
        lhs, rhs = self.replay()
        return lhs == self.lhs and rhs == self.rhs and lhs != rhs


@dataclass(frozen=True)
class LawReport:
    """Result of checking one law over one subject (instance or component)."""

    law: str
    subject: str
    checked: int
    counterexample: Counterexample | None = None

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


def sweep(law: str, subject: str, cases: Iterable[Case]) -> LawReport:
    """Check each `(value, labels, sides)` case, where `sides()` returns the
    law's two sides at `value`. Every `sides()` runs exactly once; `checked`
    counts the cases, and the first failing case becomes the counterexample
    with its own `sides` as the replay."""
    checked = 0
    witness = None
    for value, labels, sides in cases:
        checked += 1
        lhs, rhs = sides()
        if lhs != rhs and witness is None:
            witness = Counterexample(value, lhs, rhs, labels, sides)
    return LawReport(law, subject, checked, witness)
