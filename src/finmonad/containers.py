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
from operator import attrgetter


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


class Record:
    """Base of the library's immutable records. A subclass, never itself
    subclassed, names its fields in `__slots__` and takes them positionally.
    Records of one class with equal fields are equal and hash alike; a record
    prints as `Name(field=value, ...)`, refuses assignment and deletion, and
    copies and pickles by rebuilding from its fields."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__
        cls._key = attrgetter(*cls.__slots__)
        if len(cls.__slots__) == 1:  # the container shapes, built once per mapped value
            set_field = getattr(cls, cls.__slots__[0]).__set__
            cls.__init__ = lambda self, value: set_field(self, value)

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__qualname__} takes {len(self.__slots__)} fields, got {len(values)}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key  # its result is compared inside a tuple, so a NaN field equals itself
        return (key(self),) == (key(other),)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class Just(Record):
    __slots__ = ("value",)

    def __repr__(self):
        return f"Just({self.value!r})"


Option = Just | _Nothing


class Wrap(Record):
    """One-slot wrapper container; renders with the MyF constructor tag."""

    __slots__ = ("value",)


class F1(Record):
    __slots__ = ("value",)


class F2(Record):
    __slots__ = ("values",)


class F3(Record):
    __slots__ = ("pair",)


class F4(Record):
    __slots__ = ("value",)


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

class ContainerInstance:
    """unit/map/join/bind for one container family.

    A family has a unit or a join exactly when its class defines one; the
    base methods raise UnsupportedOperationError. bind defaults to
    join-after-map; a subclass may override it with a short-circuiting
    version, in which case the law harness checks that the override agrees
    with join∘map extensionally.
    """

    name = "?"

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

    def unit(self, x):
        return Wrap(x)

    def map(self, f, m):
        return Wrap(f(m.value))


class MultiShapeInstance(ContainerInstance):
    name = "multishape"

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

INSTANCES = {instance.name: instance for instance in (LIST, OPTION, WRAP, MULTI_SHAPE)}


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
    sides = lambda previous: list(range(previous + 1 if strict else 1, n + 1))
    return bind(sides(0), lambda x:
                bind(sides(x), lambda y:
                     bind(sides(y), lambda z: [(x, y, z)] if x * x + y * y == z * z else [])))


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
