"""The powerset endofunctor on finite sets, its unit and multiplication, and
exhaustive checkers for naturality and the monad coherence diagrams.

The functor P sends a set to the set of its subsets and an arrow to its image
map. The unit wraps an element into a singleton subset; the multiplication
collapses a family of subsets into its union. The checkers below verify, by
comparing both sides at every element wherever the spaces can be enumerated,
that these really do form a monad: both unit triangles and the associativity
square commute at every component checked.

Space sizes grow as 2^2^...^|X|, so exhaustive checking is only attempted
within explicit caps; past them the associativity checker switches to seeded
sampling and says so in its report. Verification strength is always explicit,
never silently degraded.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

from .finset import (
    FiniteFunction,
    FiniteSet,
    FinsetError,
    NotInDomainError,
    apply,
    enumerate_functions,
    make_finite_set,
)
from .render import show
from .reports import Counterexample, LawReport, sweep

POWERSET_CAP = 16


class PowersetTooLargeError(FinsetError):
    """The requested powerset exceeds the size cap."""


# ---------------------------------------------------------------------------
# the functor, unit, and multiplication
# ---------------------------------------------------------------------------

class _PowerSet(FiniteSet):
    """P(space), its atoms and its μ built on first read. Each subset is also a
    bitmask over the positions of `space`, so images and unions are ORs of ints."""

    __slots__ = ("mask", "position", "union")  # mask[i] is the bitmask of elements[i]

    def __init__(self, space: FiniteSet):
        n = len(space)
        if n > POWERSET_CAP:
            raise PowersetTooLargeError(f"powerset of a {n}-element set exceeds the cap of {POWERSET_CAP}")
        # Canonical order is lexicographic on member tuples: over the elements from
        # the k-th on, the empty subset, then those holding the k-th, then the rest.
        order = [0]
        for k in reversed(range(n)):
            order[1:1] = [1 << k | t for t in order]
        self.mask, self.position = order, {x: i for i, x in enumerate(space.elements)}  # x -> its index
        self._member_set = self._sort_key = None

    def __len__(self) -> int:
        return len(self.mask)

    def __getattr__(self, name: str):
        # reached only while `elements` and `_hash`, or `union`, are unset
        if name == "union":  # μ at `space`: a family of subsets maps to its union
            self.union = _Indexed(powerset_object(self), self, _images(self.mask))
            return self.union
        if name not in ("elements", "_hash"):
            raise AttributeError(name)
        members = [()]
        for x in reversed(self.position):  # the doubling that orders `mask`
            members[1:1] = [(x,) + t for t in members]
        self.elements = tuple(map(FiniteSet, members))
        self._hash = hash(self.elements)
        return getattr(self, name)

    def atom(self, m: int) -> FiniteSet:
        """The subset whose bitmask is m."""
        return FiniteSet(tuple(x for i, x in enumerate(self.position) if m >> i & 1))

    def mask_of(self, subset) -> int:
        """The bitmask of one of these subsets; NotInDomainError for anything else."""
        if not isinstance(subset, FiniteSet) or not all(x in self.position for x in subset):
            raise NotInDomainError(f"{subset!r} is not an element of {self!r}")
        return sum(1 << self.position[x] for x in subset)


def _images(bits) -> list[int]:
    """images[m] is the OR of bits[i] over the set bits i of m, for every m."""
    images = [0]
    for b in bits:
        images += [m | b for m in images]
    return images


class _Indexed(FiniteFunction):
    """The arrow that sends the subset of the domain with bitmask m to the subset
    of the codomain with bitmask index[m]. Its `pairs` are built on first read and
    kept; its `table` is built from them on its own first read. `apply` maps one
    atom without either."""

    __slots__ = ("index", "pairs")

    def __init__(self, domain: _PowerSet, codomain: _PowerSet, index: list[int]):
        self.domain, self.codomain, self.index, self._hash = domain, codomain, index, None

    def _image(self, x):
        return self.codomain.atom(self.index[self.domain.mask_of(x)])

    def __getattr__(self, name: str):
        # reached only while `pairs` or `table` is unset
        if name == "pairs":
            atoms = {c: self.codomain.atom(c) for c in set(self.index)}
            self.pairs = tuple(zip(self.domain.elements, [atoms[self.index[m]] for m in self.domain.mask]))
        elif name == "table":
            self.table = dict(self.pairs)
        else:
            raise AttributeError(name)
        return getattr(self, name)


def _read(f: FiniteFunction, dom: _PowerSet, cod: _PowerSet, m: int) -> int:
    """The bitmask in `cod` of f's image of the subset with bitmask m in `dom`.
    An `_Indexed` arrow is read from its index; any other is applied to that one
    atom, so a hand-built table is what gets checked."""
    if isinstance(f, _Indexed):
        return f.index[m]
    return cod.mask_of(apply(f, dom.atom(m)))


def powerset_object(space: FiniteSet) -> FiniteSet:
    """P(space): the set of all 2^|space| subsets, canonically ordered."""
    return _powerset_per_spelling(space, show(space))


@lru_cache(maxsize=64)
def _powerset_per_spelling(space: FiniteSet, spelling: str) -> _PowerSet:
    """The one powerset cache, keyed also on how `space`'s atoms are spelled. True
    == 1, so {False,True} == {0,1}: keyed on equality alone, it would answer both
    spellings with whichever it built first, and report lines would depend on
    cache history."""
    return _PowerSet(space)


def powerset_arrow(f: FiniteFunction) -> FiniteFunction:
    """P(f): sends each subset of f's domain to its image under f."""
    dom, cod = powerset_object(f.domain), powerset_object(f.codomain)
    return _Indexed(dom, cod, _images([1 << cod.position[apply(f, x)] for x in f.domain]))


def eta_component(space: FiniteSet) -> FiniteFunction:
    """The unit at `space`: x maps to the singleton subset {x}."""
    return FiniteFunction(space, powerset_object(space), ((x, FiniteSet((x,))) for x in space))


def mu_component(space: FiniteSet) -> FiniteFunction:
    """The multiplication at `space`: a family of subsets maps to its union."""
    return powerset_object(space).union


# ---------------------------------------------------------------------------
# endofunctors and natural transformations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Endofunctor:
    """One of the functor shapes the coherence checks need: the identity or
    an iterated powerset. A closed family; nothing else is required."""

    name: str
    depth: int

    def on_object(self, space: FiniteSet) -> FiniteSet:
        for _ in range(self.depth):
            space = powerset_object(space)
        return space

    def on_arrow(self, f: FiniteFunction) -> FiniteFunction:
        for _ in range(self.depth):
            f = powerset_arrow(f)
        return f


IDENTITY_FUNCTOR = Endofunctor("Id", 0)
POWERSET = Endofunctor("P", 1)
POWERSET_SQUARED = Endofunctor("P^2", 2)


@dataclass(frozen=True)
class NatTransform:
    """A family of arrows indexed by finite sets, with declared endpoints."""

    name: str
    source: Endofunctor
    target: Endofunctor
    component_at: Callable[[FiniteSet], FiniteFunction]

    def component(self, space: FiniteSet) -> FiniteFunction:
        arrow = self.component_at(space)
        if arrow.domain != self.source.on_object(space) or arrow.codomain != self.target.on_object(space):
            raise ValueError(
                f"component of {self.name} at {space!r} has endpoints "
                f"{arrow.domain!r} -> {arrow.codomain!r}, which do not match "
                f"{self.source.name} -> {self.target.name}"
            )
        return arrow


ETA = NatTransform("eta", IDENTITY_FUNCTOR, POWERSET, eta_component)
MU = NatTransform("mu", POWERSET_SQUARED, POWERSET, mu_component)


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

def _naturality_cases(transform: NatTransform, f: FiniteFunction):
    at_dom, at_cod = transform.component(f.domain), transform.component(f.codomain)
    source_f, target_f = transform.source.on_arrow(f), transform.target.on_arrow(f)
    return (
        (x, (), lambda x=x: (apply(target_f, apply(at_dom, x)), apply(at_cod, apply(source_f, x))))
        for x in at_dom.domain
    )


def check_naturality(transform: NatTransform, f: FiniteFunction) -> LawReport:
    """Verify the naturality square of `transform` at the arrow `f`.

    Concretely: target(f) ∘ component(dom f) must equal
    component(cod f) ∘ source(f) at every element of source(dom f).
    """
    return sweep(f"naturality[{transform.name}]", show(f), _naturality_cases(transform, f))


def naturality_sweep(transform: NatTransform, max_size: int) -> list[LawReport]:
    """Check naturality against every arrow between integer carriers of each
    size up to `max_size`, one aggregated report per ordered size pair."""
    law = f"naturality[{transform.name}]"
    reports = []
    for a in range(max_size + 1):
        for b in range(max_size + 1):
            dom = make_finite_set(range(1, a + 1))
            cod = make_finite_set(range(1, b + 1))
            cases = (case for f in enumerate_functions(dom, cod) for case in _naturality_cases(transform, f))
            reports.append(sweep(law, f"{show(dom)}->{show(cod)}", cases))
    return reports


def check_unit_laws(
    space: FiniteSet,
    *,
    eta: NatTransform = ETA,
    mu: NatTransform = MU,
) -> LawReport:
    """Verify both unit triangles at `space` at every subset of `space`.

    The triangles say that inserting a subset into a singleton family, or
    turning each of its elements into a singleton, then taking the union,
    gives the subset back. `checked` reports the size of the multiplication
    table at this component, which is the exhaustive workload behind the
    comparison. The `eta`/`mu` parameters exist so tests can plant corrupted
    transformations and watch the check fail.
    """
    power = powerset_object(space)
    mu_x = mu.component(space)
    families = powerset_object(power)
    law, subject = "monad-unit[exhaustive]", show(space)
    witness = None
    for eta_at, label in (
        (eta.component(power), "mu∘eta_P"),
        (powerset_arrow(eta.component(space)), "mu∘P(eta)"),
    ):
        # both sides on bitmasks first; only the subsets where they differ become atoms
        round_trips = (_read(mu_x, families, power, _read(eta_at, power, families, m)) for m in power.mask)
        fails = (power.atom(m) for m, back in zip(power.mask, round_trips) if back != m)
        cases = ((s, (label,), lambda s=s, eta_at=eta_at: (apply(mu_x, apply(eta_at, s)), s)) for s in fails)
        witness = witness or sweep(law, subject, cases).counterexample
    return LawReport(law, subject, len(mu_x.domain), witness)


def check_associativity(
    space: FiniteSet,
    *,
    mode: str = "auto",
    samples: int = 10_000,
    seed: int = 42,
    mu: NatTransform = MU,
) -> LawReport:
    """Verify the associativity square at `space`.

    Exhaustive mode compares the two composites over every element of
    P(P(P(space))); auto selects it for carriers of at most 2 elements, where
    that space tops out at 65 536 elements. Larger carriers use `samples`
    families drawn with a generator seeded by `seed`, each of one member, then
    one more at odds 1/2 (mean size 2, members may repeat), and take mu at
    P(space) to be union. They read the handed mu at `space` only where their
    samples reach, so cost follows `samples` (at least 1), not |P(P(space))|.
    Both modes compare bitmasks: a handed component made by this module is read
    through its index, any other by `apply`, and only a witness becomes an
    atom. The law name records the mode, seed and sample count.
    """
    if mode not in ("auto", "exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "auto":
        mode = "exhaustive" if len(space) <= 2 else "sampled"
    if mode == "sampled" and samples < 1:
        raise ValueError(f"sampled mode needs at least one sample, not {samples}")

    power = powerset_object(space)
    mu_x = mu.component(space)
    families = powerset_object(power)
    rank = {m: i for i, m in enumerate(power.mask)}

    # The handed mu_x, read at a family the first time it is needed: mu_at[m] is the
    # position in P(space) of its value at the family with bitmask m, None until read.
    # P(mu_x) sends families to the OR of their members' lifts, 1 << mu_at[mask].
    mu_at, witness = [None] * len(families.mask), None

    def read(m: int) -> int:
        if mu_at[m] is None:
            mu_at[m] = rank[_read(mu_x, families, power, m)]
        return mu_at[m]

    if mode == "exhaustive":
        mu_p = mu.component(power)
        triples = powerset_object(families)
        lifted = _images([1 << read(m) for m in families.mask])  # reads every entry
        law, checked, collapse = "monad-associativity[exhaustive]", len(triples.mask), partial(apply, mu_p)
        sides = ((t, mu_at[_read(mu_p, triples, families, t)], mu_at[lifted[t]]) for t in triples.mask)
        witness = next(((triples.atom(t), lhs, rhs) for t, lhs, rhs in sides if lhs != rhs), None)
    else:
        law, checked = f"monad-associativity[sampled,seed={seed},n={samples}]", samples
        collapse = lambda family: make_finite_set(g for members in family for g in members)
        rng = random.Random(seed)
        lift = [None] * len(families.mask)  # by draw position, filled as members are drawn
        for _ in range(samples):
            drawn, union, image = [], 0, 0
            while not drawn or rng.random() < 0.5:  # one member, then one more at odds 1/2
                drawn.append(j := rng.randrange(len(lift)))
                if lift[j] is None:
                    lift[j] = 1 << read(families.mask[j])
                union, image = union | families.mask[j], image | lift[j]
            lhs, rhs = mu_at[union], mu_at[image]
            if lhs is None or rhs is None:
                lhs, rhs = read(union), read(image)
            if lhs != rhs and witness is None:
                witness = make_finite_set(families.atom(families.mask[j]) for j in drawn), lhs, rhs

    if witness is None:
        return LawReport(law, show(space), checked)
    value, lhs, rhs = witness

    def replay():
        # both sides again from the atoms, with P(mu_x) taken by its definition
        image = make_finite_set(apply(mu_x, g) for g in value)
        return apply(mu_x, collapse(value)), apply(mu_x, image)

    labels = ("mu∘mu_P", "mu∘P(mu)")
    cx = Counterexample(value, power.elements[lhs], power.elements[rhs], labels, replay)
    return LawReport(law, show(space), checked, cx)
