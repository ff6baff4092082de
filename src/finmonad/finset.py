"""Finite sets, total functions between them, and exhaustive arrow enumeration.

This is the explicit category the rest of the library stands on: objects are
:class:`FiniteSet` values, arrows are :class:`FiniteFunction` values, and
`enumerate_functions` walks every arrow between two objects so that laws can
be checked by brute force instead of taken on faith.

Everything is immutable after construction and safe to share across threads.
Sets keep their elements in one canonical sorted order, which makes equality
of sets, functions, and nested subsets plain structural comparison. Some
fields are filled on first use: a set's `member_set`, and, in the powerset
layer's private subclasses, a set's `elements` and hash, a powerset's μ,
and an arrow's `pairs` and `table`. Each stays unset until then. Each fill
computes a value fixed at construction, so threads that race to fill it
store equal ones.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Mapping
from typing import Any

Atom = Any  # ints, bools, strings, or FiniteSet values nested recursively

ENUMERATION_CAP = 1_000_000

# Kind tags give mixed-type element universes a single total order.
_KIND_INT = 0
_KIND_STR = 1
_KIND_SET = 2


class FinsetError(Exception):
    """Base class for finite-set construction and application errors."""


class MissingMappingError(FinsetError):
    """A domain element has no entry in the function table."""


class CodomainViolationError(FinsetError):
    """A table value is not a member of the declared codomain."""


class DuplicateKeyError(FinsetError):
    """The same domain element was mapped twice."""


class CompositionMismatchError(FinsetError):
    """Inner codomain and outer domain disagree."""


class NotInDomainError(FinsetError):
    """The argument is outside the function's domain (or a subset's carrier)."""


class EnumerationTooLargeError(FinsetError):
    """The requested function space exceeds the enumeration cap."""


def atom_key(atom: Atom):
    """Sort key giving a total order over every admissible atom kind.

    Booleans share the integer kind: the host language already identifies
    True with 1 in equality and hashing, and the ordering must agree with
    equality for canonicalization to be sound.
    """
    if isinstance(atom, (bool, int)):
        return (_KIND_INT, atom)
    if isinstance(atom, str):
        return (_KIND_STR, atom)
    if isinstance(atom, FiniteSet):
        return (_KIND_SET, tuple(map(atom_key, atom.elements)))
    raise TypeError(f"not an admissible atom: {atom!r}")


class FiniteSet:
    """An immutable collection of distinct atoms in canonical sorted order.

    A subset of X is the FiniteSet of its members, itself usable as an atom,
    so P(X), P(P(X)) and P(P(P(X))) are FiniteSets whose elements are
    FiniteSets over the next space down. Sets built from any permutations of
    the same atoms compare equal and have identical element tuples, so
    downstream diagram checks reduce to structural equality.

    The constructor trusts its input: `elements` must be a tuple of distinct
    atoms in canonical order. Use `make_finite_set` or `make_subset` to
    canonicalize.
    """

    __slots__ = ("elements", "_member_set", "_hash")

    def __init__(self, elements: tuple[Atom, ...] = ()):
        self.elements = elements
        self._hash = hash(elements)

    @property
    def member_set(self) -> frozenset:
        """The elements as a frozenset, built on first use."""
        try:
            return self._member_set
        except AttributeError:  # the slot stays unset until then
            self._member_set = frozenset(self.elements)
            return self._member_set

    def __iter__(self) -> Iterator[Atom]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, atom: Atom) -> bool:
        return atom in self.member_set

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, FiniteSet):
            return NotImplemented
        return self._hash == other._hash and self.elements == other.elements

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if len(self) <= 8:
            return f"FiniteSet({{{', '.join(map(repr, self.elements))}}})"
        return f"FiniteSet(<{len(self)} atoms>)"


def make_finite_set(atoms: Iterable[Atom] = ()) -> FiniteSet:
    """Build a canonical FiniteSet from any iterable of atoms: the one place
    where duplicates are dropped and atoms sorted."""
    unique = list(dict.fromkeys(atoms))
    unique.sort(key=atom_key)
    return FiniteSet(tuple(unique))


def make_subset(carrier: FiniteSet, members: Iterable[Atom]) -> FiniteSet:
    """The subset of `carrier` with the given members, canonicalized; raises
    NotInDomainError for a member outside the carrier."""
    members = tuple(members)
    for atom in members:
        if atom not in carrier:
            raise NotInDomainError(f"{atom!r} is not in the carrier {carrier!r}")
    return make_finite_set(members)


class FiniteFunction:
    """A total function between two finite sets, stored as an explicit table.

    `table` maps each domain element to its image and is the one copy of the
    data; `pairs` derives the (x, f(x)) entries from it, in canonical domain
    order. The powerset layer's index-backed arrows invert this: they keep
    one `pairs` tuple, built on first read, and build `table` from it on its
    own first read. Equality is categorical arrow identity: domain, codomain,
    and table must all agree.

    The constructor trusts its input: one pair per domain element, in
    canonical domain order. Use `make_function` for validation.
    """

    __slots__ = ("domain", "codomain", "table")

    def __init__(self, domain: FiniteSet, codomain: FiniteSet, pairs: Iterable[tuple[Atom, Atom]]):
        self.domain = domain
        self.codomain = codomain
        self.table = dict(pairs)

    @property
    def pairs(self) -> tuple[tuple[Atom, Atom], ...]:
        return tuple(self.table.items())

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, FiniteFunction):
            return NotImplemented
        return (self.domain, self.codomain, self.table) == (other.domain, other.codomain, other.table)

    def __hash__(self) -> int:
        # over the table's entries as a set: equal tables hash alike in any insertion order
        return hash((self.domain, self.codomain, frozenset(self.table.items())))

    def __repr__(self) -> str:
        return f"FiniteFunction({self.domain!r} -> {self.codomain!r})"

    def _image(self, x: Atom) -> Atom:
        # `apply` reads through here, so an arrow that builds its table on first
        # use can map one atom without it
        try:
            return self.table[x]
        except KeyError:
            raise NotInDomainError(f"{x!r} is not in the domain of {self!r}") from None


def make_function(
    domain: FiniteSet,
    codomain: FiniteSet,
    table: Mapping[Atom, Atom] | Iterable[tuple[Atom, Atom]],
) -> FiniteFunction:
    """Build a validated arrow from an explicit mapping table.

    The table keys must be exactly the domain elements and every value must
    lie in the codomain; anything else raises one of DuplicateKeyError,
    NotInDomainError, MissingMappingError, or CodomainViolationError.
    """
    items = table.items() if isinstance(table, Mapping) else table
    mapping: dict[Atom, Atom] = {}
    for key, value in items:
        if key in mapping:
            raise DuplicateKeyError(f"{key!r} is mapped more than once")
        mapping[key] = value
    for key in mapping:
        if key not in domain:
            raise NotInDomainError(f"table key {key!r} is not a domain element")
    for x in domain:
        if x not in mapping:
            raise MissingMappingError(f"domain element {x!r} has no mapping")
    for x, value in mapping.items():
        if value not in codomain:
            raise CodomainViolationError(f"{x!r} maps to {value!r}, which is outside the codomain")
    return FiniteFunction(domain, codomain, tuple((x, mapping[x]) for x in domain))


def identity(space: FiniteSet) -> FiniteFunction:
    """The identity arrow on `space`."""
    return FiniteFunction(space, space, tuple((x, x) for x in space))


def compose(outer: FiniteFunction, inner: FiniteFunction) -> FiniteFunction:
    """The composite outer∘inner, defined when inner's codomain is outer's domain."""
    if inner.codomain != outer.domain:
        raise CompositionMismatchError(
            f"cannot compose: inner codomain {inner.codomain!r} != outer domain {outer.domain!r}"
        )
    table = outer.table
    return FiniteFunction(
        inner.domain,
        outer.codomain,
        tuple((x, table[y]) for x, y in inner.table.items()),
    )


def apply(f: FiniteFunction, x: Atom) -> Atom:
    """Evaluate the arrow at one atom of its domain."""
    return f._image(x)


def enumerate_functions(domain: FiniteSet, codomain: FiniteSet) -> Iterator[FiniteFunction]:
    """Yield every total function domain -> codomain exactly once.

    The order is deterministic: domain elements are assigned images from
    `itertools.product` over the codomain's canonical order. The full count
    |codomain| ** |domain| is checked against `ENUMERATION_CAP` up front, so
    the error is raised eagerly rather than mid-iteration.
    """
    total = len(codomain) ** len(domain)
    if total > ENUMERATION_CAP:
        raise EnumerationTooLargeError(
            f"{total} functions from {domain!r} to {codomain!r} exceeds the cap of {ENUMERATION_CAP}"
        )
    xs = domain.elements

    def generate() -> Iterator[FiniteFunction]:
        for images in itertools.product(codomain.elements, repeat=len(xs)):
            yield FiniteFunction(domain, codomain, tuple(zip(xs, images)))

    return generate()
