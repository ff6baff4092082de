"""Container shapes and their unit/map/join/bind operations.

Four families live here: plain Python lists, the option shape (NOTHING or
Just), a one-slot wrapper, and a four-constructor shape whose map
deliberately retags its fourth constructor. That last defect is kept on
purpose: it is the harness's stock counterexample for the functor identity
law.

Payloads are ordinary dynamic values (ints, floats, strings, lists, tuples,
nested containers), so a single law harness serves every instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable


class UnsupportedOperationError(TypeError):
    """The instance does not define this operation (no unit, or no join)."""


# ---------------------------------------------------------------------------
# shapes
# ---------------------------------------------------------------------------

class _Nothing:
    """The empty option value; a singleton."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Nothing"


NOTHING = _Nothing()


@dataclass(frozen=True)
class Just:
    value: Any

    def __repr__(self):
        return f"Just({self.value!r})"


Option = Just | _Nothing


@dataclass(frozen=True)
class Wrap:
    """One-slot wrapper container; renders with the MyF constructor tag."""

    value: Any


@dataclass(frozen=True)
class F1:
    value: Any


@dataclass(frozen=True)
class F2:
    values: list


@dataclass(frozen=True)
class F3:
    pair: tuple


@dataclass(frozen=True)
class F4:
    value: Any


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

class ContainerInstance:
    """unit/map/join/bind for one container family.

    bind defaults to join-after-map; a subclass may override it with a
    short-circuiting version, in which case the law harness checks that the
    override agrees with join∘map extensionally. Families without a unit or
    join say so by raising UnsupportedOperationError.
    """

    name = "?"
    has_unit = True
    has_join = True

    def unit(self, x):
        raise UnsupportedOperationError(f"{self.name} has no unit")

    def map(self, f, m):
        raise NotImplementedError

    def join(self, mm):
        raise UnsupportedOperationError(f"{self.name} has no join")

    def bind(self, m, k):
        return self.join(self.map(k, m))

    def __repr__(self):
        return f"<instance {self.name}>"


class ListInstance(ContainerInstance):
    name = "list"

    def unit(self, x):
        return [x]

    def map(self, f, m):
        return [f(x) for x in m]

    def join(self, mm):
        return [x for inner in mm for x in inner]


class OptionInstance(ContainerInstance):
    name = "option"

    def unit(self, x):
        return Just(x)

    def map(self, f, m):
        if m is NOTHING:
            return NOTHING
        return Just(f(m.value))

    def join(self, mm):
        if mm is NOTHING:
            return NOTHING
        inner = mm.value
        if inner is NOTHING:
            return NOTHING
        if not isinstance(inner, Just):
            raise TypeError(f"join expects a nested option, got Just({inner!r})")
        return inner

    def bind(self, m, k):
        # short-circuit form; coincides with join-after-map, which the
        # harness checks rather than assumes
        if m is NOTHING:
            return NOTHING
        return k(m.value)


class WrapInstance(ContainerInstance):
    name = "wrap"
    has_join = False

    def unit(self, x):
        return Wrap(x)

    def map(self, f, m):
        return Wrap(f(m.value))


class MultiShapeInstance(ContainerInstance):
    name = "multishape"
    has_unit = False
    has_join = False

    def map(self, f, m):
        if isinstance(m, F1):
            return F1(f(m.value))
        if isinstance(m, F2):
            return F2([f(x) for x in m.values])
        if isinstance(m, F3):
            return F3((f(m.pair[0]), f(m.pair[1])))
        if isinstance(m, F4):
            return F1(f(m.value))  # deliberate retag: breaks the identity axiom
        raise TypeError(f"not a multishape value: {m!r}")


LIST = ListInstance()
OPTION = OptionInstance()
WRAP = WrapInstance()
MULTI_SHAPE = MultiShapeInstance()

INSTANCES = {
    "list": LIST,
    "option": OPTION,
    "wrap": WRAP,
    "multishape": MULTI_SHAPE,
}


# ---------------------------------------------------------------------------
# small functions built on the shapes
# ---------------------------------------------------------------------------

def nub(xs: list) -> list:
    """Drop duplicates, keeping the first occurrence of each element."""
    out: list = []
    for x in xs:
        if x not in out:
            out.append(x)
    return out


def safe_head(xs: list) -> Option:
    """First element of a list, or NOTHING when the list is empty."""
    return Just(xs[0]) if xs else NOTHING


def lookup(key: str, pairs: list[tuple[str, str]]) -> Option:
    """Value of the first pair whose key matches, or NOTHING when absent."""
    for k, v in pairs:
        if k == key:
            return Just(v)
    return NOTHING


PHONEBOOK = [
    ("Ali", "96552233"),
    ("Belgacem", "98555111"),
    ("Salha", "27211211"),
    ("Mohsen", ""),
    ("Massaoud", "55222333"),
]


def pythagorean_triples(n: int, strict: bool = False) -> list[tuple[int, int, int]]:
    """All (x, y, z) from 1..n with x² + y² = z², via nested list binds.

    strict=True narrows the scan to x < y < z, which drops mirrored triples
    and never tries x = y (twice a square is not a square).
    """
    bind = LIST.bind
    ns = list(range(1, n + 1))
    keep = lambda x, y, z: [(x, y, z)] if x * x + y * y == z * z else []
    if strict:
        return bind(ns, lambda x:
                    bind(list(range(x + 1, n + 1)), lambda y:
                         bind(list(range(y + 1, n + 1)), lambda z: keep(x, y, z))))
    return bind(ns, lambda x: bind(ns, lambda y: bind(ns, lambda z: keep(x, y, z))))


def guarded_sqrt(x: float) -> Option:
    """Square root as a total function: negative input gives NOTHING."""
    return Just(math.sqrt(x)) if x >= 0 else NOTHING


def guarded_one_minus_sqrt(x: float) -> Option:
    """1 - sqrt(x) as a total function: negative input gives NOTHING."""
    return Just(1 - math.sqrt(x)) if x >= 0 else NOTHING


def guarded_log(mx: Option) -> Option:
    """Natural log lifted onto options; non-positive payloads give NOTHING."""
    if mx is NOTHING:
        return NOTHING
    x = mx.value
    return Just(math.log(x)) if x > 0 else NOTHING


def extract_or_zero(mx: Option) -> float:
    """Collapse an option to its payload, with 0.0 standing in for NOTHING."""
    return 0.0 if mx is NOTHING else mx.value
