"""The powerset endofunctor on finite sets, its unit and multiplication, and
exhaustive checkers for naturality and the monad coherence diagrams.

The functor P sends a set to the set of its subsets and an arrow to its image
map. The unit wraps an element into a singleton subset; the multiplication
collapses a family of subsets into its union. The checkers below verify, by
full table comparison wherever the spaces fit in memory, that these really do
form a monad: both unit triangles and the associativity square commute at
every component checked.

Space sizes grow as 2^2^...^|X|, so exhaustive checking is only attempted
within explicit caps; past them the associativity checker switches to seeded
sampling and says so in its report. Verification strength is always explicit,
never silently degraded.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from operator import or_
from typing import Callable, NamedTuple

from .finset import (
    FiniteFunction,
    FiniteSet,
    FinsetError,
    apply,
    compose,
    enumerate_functions,
    identity,
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

class _Encoding(NamedTuple):
    """P(space), each subset also a bitmask over the positions of `space`, so
    images and unions are ORs of ints; public functions see only the atoms."""

    power: FiniteSet
    mask: tuple[int, ...]  # mask[i] is the bitmask of power.elements[i]
    at_mask: list[FiniteSet]  # at_mask[m] is the subset whose bitmask is m
    position: dict  # each atom of space -> its index in space.elements


@lru_cache(maxsize=64)
def _encoded(space: FiniteSet) -> _Encoding:
    n = len(space)
    if n > POWERSET_CAP:
        raise PowersetTooLargeError(f"powerset of a {n}-element set exceeds the cap of {POWERSET_CAP}")
    elements = space.elements
    masks, at_mask = [], [None] * (1 << n)

    # Canonical order is lexicographic on member tuples, which is the preorder
    # of this walk: a subset comes before its extensions by later elements.
    def walk(members: tuple, bits: int, start: int) -> None:
        masks.append(bits)
        at_mask[bits] = FiniteSet(members)
        for i in range(start, n):
            walk(members + (elements[i],), bits | 1 << i, i + 1)

    walk((), 0, 0)
    power = FiniteSet(tuple(at_mask[m] for m in masks))
    return _Encoding(power, tuple(masks), at_mask, {x: i for i, x in enumerate(elements)})


def _images(bits) -> list[int]:
    """images[m] is the OR of bits[i] over the set bits i of m, for every m."""
    images = [0]
    for b in bits:
        images += [m | b for m in images]
    return images


def powerset_object(space: FiniteSet) -> FiniteSet:
    """P(space): the set of all 2^|space| subsets, canonically ordered."""
    return _encoded(space).power


@lru_cache(maxsize=128)
def powerset_arrow(f: FiniteFunction) -> FiniteFunction:
    """P(f): sends each subset of f's domain to its image under f."""
    dom, cod = _encoded(f.domain), _encoded(f.codomain)
    image = _images([1 << cod.position[f.table[x]] for x in f.domain])
    return FiniteFunction(dom.power, cod.power, zip(dom.power, [cod.at_mask[image[m]] for m in dom.mask]))


def eta_component(space: FiniteSet) -> FiniteFunction:
    """The unit at `space`: x maps to the singleton subset {x}."""
    subsets = _encoded(space)
    return FiniteFunction(space, subsets.power, ((x, subsets.at_mask[1 << i]) for i, x in enumerate(space)))


@lru_cache(maxsize=64)
def mu_component(space: FiniteSet) -> FiniteFunction:
    """The multiplication at `space`: a family of subsets maps to its union."""
    subsets = _encoded(space)
    families = _encoded(subsets.power)
    union = _images(subsets.mask)
    pairs = zip(families.power, [subsets.at_mask[union[m]] for m in families.mask])
    return FiniteFunction(families.power, subsets.power, pairs)


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

def _pointwise_cases(left, right, labels=()):
    """Cases for `sweep` comparing two parallel arrows at every element of
    their shared domain."""
    return ((x, labels, lambda x=x: (apply(left, x), apply(right, x))) for x in left.domain)


def _naturality_cases(transform: NatTransform, f: FiniteFunction):
    left = compose(transform.target.on_arrow(f), transform.component(f.domain))
    right = compose(transform.component(f.codomain), transform.source.on_arrow(f))
    return _pointwise_cases(left, right)


def check_naturality(transform: NatTransform, f: FiniteFunction) -> LawReport:
    """Verify the naturality square of `transform` at the arrow `f`.

    Concretely: target(f) ∘ component(dom f) must equal
    component(cod f) ∘ source(f), table entry by table entry.
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
    """Verify both unit triangles at `space` by full table comparison.

    The triangles say that inserting a subset into a singleton family, or
    turning each of its elements into a singleton, then taking the union,
    gives the subset back. `checked` reports the size of the multiplication
    table at this component, which is the exhaustive workload behind the
    comparison. The `eta`/`mu` parameters exist so tests can plant corrupted
    transformations and watch the check fail.
    """
    power = powerset_object(space)
    mu_x = mu.component(space)
    ident = identity(power)
    law, subject = "monad-unit[exhaustive]", show(space)
    witness = None
    for eta_at, label in (
        (eta.component(power), "mu∘eta_P"),
        (powerset_arrow(eta.component(space)), "mu∘P(eta)"),
    ):
        triangle = sweep(law, subject, _pointwise_cases(compose(mu_x, eta_at), ident, (label,)))
        witness = witness or triangle.counterexample
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
    families drawn with a generator seeded by `seed`; the report's law name
    records which mode ran and under which seed.
    """
    if mode not in ("auto", "exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "auto":
        mode = "exhaustive" if len(space) <= 2 else "sampled"

    power = powerset_object(space)
    mu_x = mu.component(space)
    families = _encoded(power)

    # The handed mu_x, read once: mu_at[m] is the position in P(space) of its value
    # at the family with bitmask m. P(mu_x) sends families to the OR of their lifts.
    mu_at = [families.position[apply(mu_x, family)] for family in families.at_mask]
    lift = [1 << mu_at[m] for m in families.mask]
    witness = None

    if mode == "exhaustive":
        mu_p = mu.component(power)
        triples = _encoded(families.power)
        lifted = _images(lift)
        law, checked, collapse = "monad-associativity[exhaustive]", len(triples.mask), partial(apply, mu_p)
        lefts = [mu_at[families.mask[triples.position[apply(mu_p, triple)]]] for triple in triples.power]
        rights = [mu_at[lifted[m]] for m in triples.mask]
        witness = next((w for w in zip(triples.power, lefts, rights) if w[1] != w[2]), None)
    else:
        # P^3 is unenumerable here, so mu at P(space) is taken by definition
        # (union) on drawn families; mu_x is still read through its table.
        law, checked = f"monad-associativity[sampled,seed={seed},n={samples}]", samples
        collapse = lambda family: make_finite_set(g for members in family for g in members)
        rng = random.Random(seed)
        for _ in range(samples):
            drawn = rng.sample(range(len(families.mask)), rng.randint(0, len(families.mask)))
            lhs = mu_at[reduce(or_, map(families.mask.__getitem__, drawn), 0)]
            rhs = mu_at[reduce(or_, map(lift.__getitem__, drawn), 0)]
            if lhs != rhs and witness is None:
                witness = make_finite_set(families.power.elements[j] for j in drawn), lhs, rhs

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
