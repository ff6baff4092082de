"""The powerset endofunctor on finite sets, its unit and multiplication, and
exhaustive checkers for naturality and the monad coherence diagrams.

The functor P sends a set to the set of its subsets and an arrow to its image
map. The unit wraps an element into a singleton subset; the multiplication
collapses a family of subsets into its union. The checkers verify the monad
laws, each an equation between two composites of arrows, by comparing both
composites on codes: a subset's bitmask in a powerset, any other atom's position.

Space sizes grow as 2^2^...^|X|, so exhaustive checking is only attempted
within explicit caps; past them the associativity checker switches to seeded
sampling and says so in its report. Verification strength is always explicit,
never silently degraded.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, lru_cache, partial, reduce
from typing import Callable

from .finset import (
    CodomainViolationError,
    FiniteFunction,
    FiniteSet,
    FinsetError,
    NotInDomainError,
    apply,
    enumerate_functions,
    make_finite_set,
)
from .render import show
from .reports import Counterexample, LawReport

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

    def __len__(self) -> int:
        return len(self.mask)

    def __getattr__(self, name: str):
        # reached only while `elements` and `_hash`, `union`, or `_member_set` is unset
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
        self.domain, self.codomain, self.index = domain, codomain, index

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
    try:
        bits = [1 << cod.position[apply(f, x)] for x in f.domain]
    except KeyError as missing:
        raise CodomainViolationError(f"{f!r} maps to {missing.args[0]!r}, outside its codomain") from None
    return _Indexed(dom, cod, _images(bits))


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

def _coding(space: FiniteSet):
    """The codes of `space` in canonical order, the atom with a given code, and the
    code of an atom: in a powerset a subset's bitmask, elsewhere a position."""
    if isinstance(space, _PowerSet):
        return space.mask, space.atom, space.mask_of
    return range(len(space)), space.elements.__getitem__, space.elements.index


def _codes(f: FiniteFunction, dom: FiniteSet, cod: FiniteSet) -> Callable[[int], int]:
    """f as a map from the codes of `dom` to those of `cod`, the checker's own
    objects. An `_Indexed` arrow is read from its index, any other through `apply`
    one code at a time on first use: a hand-built table is what gets checked."""
    if isinstance(f, _Indexed):
        return f.index.__getitem__
    atom, code = _coding(dom)[1], _coding(cod)[2]
    return cache(lambda c: code(apply(f, atom(c))))


def _compare(dom: FiniteSet, cod: FiniteSet, lhs, rhs, labels, replay) -> Counterexample | None:
    """Compare two composites, each a sequence of maps on codes applied first to last
    from `dom` into `cod`, at every code of `dom` in canonical order. The first
    difference becomes atoms, with `replay(witness)` to recompute both sides; else None."""
    codes, atom = _coding(dom)[:2]
    sides = (reduce(lambda side, m: map(m, side), maps, codes) for maps in (lhs, rhs))
    for c, left, right in zip(codes, *sides):
        if left != right:
            value, cod_atom = atom(c), _coding(cod)[1]
            return Counterexample(value, cod_atom(left), cod_atom(right), labels, partial(replay, value))
    return None


def _naturality(transform: NatTransform, subject: str, dom: FiniteSet, cod: FiniteSet, arrows) -> LawReport:
    """One report on the squares target(f) ∘ component(dom) = component(cod) ∘ source(f)
    of `transform`, on all of source(dom), for each f in the list `arrows` from `dom`
    to `cod`, stopping at the first witness. The objects and both components are read once."""
    source, target = transform.source, transform.target
    s_dom, s_cod = source.on_object(dom), source.on_object(cod)
    t_dom, t_cod = target.on_object(dom), target.on_object(cod)
    at_dom, at_cod = transform.component(dom), transform.component(cod)
    codes_dom, codes_cod = _codes(at_dom, s_dom, t_dom), _codes(at_cod, s_cod, t_cod)
    witness = None
    for f in arrows:
        source_f, target_f = source.on_arrow(f), target.on_arrow(f)
        lhs, rhs = (codes_dom, _codes(target_f, t_dom, t_cod)), (_codes(source_f, s_dom, s_cod), codes_cod)
        if witness := _compare(s_dom, t_cod, lhs, rhs, (), lambda x: (
                apply(target_f, apply(at_dom, x)), apply(at_cod, apply(source_f, x)))):
            break
    return LawReport(f"naturality[{transform.name}]", subject, len(s_dom) * len(arrows), witness)


def check_naturality(transform: NatTransform, f: FiniteFunction) -> LawReport:
    """Verify the naturality square of `transform` at the arrow `f`."""
    return _naturality(transform, show(f), f.domain, f.codomain, [f])


def naturality_sweep(transform: NatTransform, max_size: int) -> list[LawReport]:
    """Check naturality against every arrow between integer carriers of each
    size up to `max_size`, one aggregated report per ordered size pair."""
    carriers = [make_finite_set(range(1, n + 1)) for n in range(max_size + 1)]
    return [
        _naturality(transform, f"{show(dom)}->{show(cod)}", dom, cod, list(enumerate_functions(dom, cod)))
        for dom in carriers for cod in carriers
    ]


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
    codes_mu, witness = _codes(mu_x, families, power), None
    for eta_at, label in (
        (eta.component(power), "mu∘eta_P"),
        (powerset_arrow(eta.component(space)), "mu∘P(eta)"),
    ):
        lhs = (_codes(eta_at, power, families), codes_mu)
        replay = lambda s, eta_at=eta_at: (apply(mu_x, apply(eta_at, s)), s)
        witness = witness or _compare(power, power, lhs, (), (label,), replay)
    return LawReport("monad-unit[exhaustive]", show(space), len(mu_x.domain), witness)


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
    Both modes read each handed component through `_codes`, stop at the first
    witness and build atoms only for it. The law name records the mode, seed
    and sample count.
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
    mu_p = mu.component(power) if mode == "exhaustive" else None
    codes_mu, labels = _codes(mu_x, families, power), ("mu∘mu_P", "mu∘P(mu)")

    def replay(value):
        # both sides again from the atoms: mu at P(space) as handed, or as union when
        # sampling, and P(mu_x) by its definition
        outer = make_finite_set(s for family in value for s in family) if mu_p is None else apply(mu_p, value)
        return apply(mu_x, outer), apply(mu_x, make_finite_set(apply(mu_x, g) for g in value))

    # P(mu_x) sends a family to the OR of its members' lifts, 1 << the position of mu_x(member)
    if mode == "exhaustive":
        triples = powerset_object(families)
        lifted = _images([1 << power.mask.index(codes_mu(m)) for m in families.mask])  # reads every entry
        lhs, rhs = (_codes(mu_p, triples, families), codes_mu), (lifted.__getitem__, codes_mu)
        witness = _compare(triples, power, lhs, rhs, labels, replay)
        return LawReport("monad-associativity[exhaustive]", show(space), len(triples.mask), witness)

    rng, witness = random.Random(seed), None
    lift = [None] * len(families.mask)  # by draw position, filled as members are drawn
    for _ in range(samples):
        drawn, union, image = [], 0, 0
        while not drawn or rng.random() < 0.5:  # one member, then one more at odds 1/2
            drawn.append(j := rng.randrange(len(lift)))
            if lift[j] is None:
                lift[j] = 1 << power.mask.index(codes_mu(families.mask[j]))
            union, image = union | families.mask[j], image | lift[j]
        lhs, rhs = codes_mu(union), codes_mu(image)
        if lhs != rhs:
            value = make_finite_set(families.atom(families.mask[j]) for j in drawn)
            witness = Counterexample(value, power.atom(lhs), power.atom(rhs), labels, partial(replay, value))
            break
    return LawReport(f"monad-associativity[sampled,seed={seed},n={samples}]", show(space), samples, witness)
