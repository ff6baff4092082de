"""A differential reference for the powerset monad's checkers.

The reference states both unit triangles, exhaustive associativity and the
naturality squares of η and μ by their definitions, over frozensets: no codes,
no bitmasks, nothing of the library but the lines it must print. Each check is
run on mutants of μ or η, at {1,2} and, for the unit triangles, at {1,2,3} and
{1,2,3,4}, and its report line must equal the reference's: verdict, witness,
lhs and rhs. The library's code tables are bytes where every code of their
codomain fits a byte and lists elsewhere, so between them these carriers and
the index-copy mutants read both kinds.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, product

from hypothesis import given, settings
from hypothesis import strategies as st

from finmonad import FiniteFunction, FiniteSet, make_finite_set, powerset
from finmonad.powerset import (
    ETA,
    MU,
    NatTransform,
    check_associativity,
    check_unit_laws,
    mu_component,
    naturality_sweep,
)

SPACE = frozenset({1, 2})


@cache
def key(v):
    """Canonical order: an int by its value, a set by its members' keys in order."""
    return v if isinstance(v, int) else tuple(sorted(map(key, v)))


def render(v) -> str:
    return str(v) if isinstance(v, int) else "{" + ",".join(map(render, sorted(v, key=key))) + "}"


def subsets(xs) -> list:
    return sorted((frozenset(c) for n in range(len(xs) + 1) for c in combinations(xs, n)), key=key)


def union(sets) -> frozenset:
    return frozenset().union(*sets)


@cache
def spaces() -> tuple:
    """P(X), P(P(X)) and P(P(P(X))) at X = {1,2}, each in canonical order, and the
    union of each member of P(P(P(X))), which is μ at P(X) and the same for every μ at X."""
    power = subsets(SPACE)
    families = subsets(power)
    triples = subsets(families)
    return power, families, triples, {t: union(t) for t in triples}


def first_witness(values, lhs, rhs, labels: str):
    return next(((v, labels, lhs(v), rhs(v)) for v in values if lhs(v) != rhs(v)), None)


def line(law: str, checked: int, witness, subject: str = "{1,2}") -> str:
    if witness is None:
        return f"PASS {law} @ {subject} checked={checked}"
    value, labels, lhs, rhs = witness
    labels = f" [{labels}]" if labels else ""
    return f"FAIL {law} @ {subject} witness={render(value)}{labels} lhs={render(lhs)} rhs={render(rhs)}"


def singleton(x) -> frozenset:
    return frozenset({x})


def unit_line(space, mu, eta) -> str:
    """The unit triangles' line at the carrier `space`, for μ and η at `space` given
    as functions, η at P(X) being singleton: μ∘η_P at every subset, then μ∘P(η)."""
    power = subsets(space)
    unit = first_witness(power, lambda s: mu(singleton(s)), lambda s: s, "mu∘eta_P") or first_witness(
        power, lambda s: mu(frozenset(map(eta, s))), lambda s: s, "mu∘P(eta)")
    return line("monad-unit[exhaustive]", 2 ** len(power), unit, render(space))


def reference_lines(mu: dict) -> list[str]:
    """The two lines for a μ at X given as a dict from each family to a subset;
    η sends x to {x}, and μ at P(X) is union, as the library's are."""
    triples, mu_p = spaces()[2:]
    assoc = first_witness(triples, lambda t: mu[mu_p[t]], lambda t: mu[frozenset(mu[f] for f in t)],
                          "mu∘mu_P,mu∘P(mu)")
    return [unit_line(SPACE, mu.__getitem__, singleton),
            line("monad-associativity[exhaustive]", len(triples), assoc)]


def frozen(atom):
    return frozenset(map(frozen, atom)) if isinstance(atom, FiniteSet) else atom


def mutant(transform: NatTransform, wrong: dict, carrier=SPACE) -> NatTransform:
    """`transform` with its component at `carrier` changed at each atom of `wrong` (a
    dict from an atom's position to a subset's position, canonical order), handed
    as a hand-built table."""
    space, power = make_finite_set(carrier), subsets(carrier)
    honest = transform.component(space)
    images = {frozen(s): s for s in honest.codomain}
    table = FiniteFunction(honest.domain, honest.codomain, [
        (x, images[power[wrong[i]]] if i in wrong else image) for i, (x, image) in enumerate(honest.pairs)])
    return NatTransform(f"{transform.name}-mutant", transform.source, transform.target,
                        lambda at: table if at == space else transform.component(at))


def checked_lines(reports) -> list[str]:
    assert all(report.passed or report.counterexample.recheck() for report in reports)
    return [report.to_line() for report in reports]


def checker_lines(mu: NatTransform) -> list[str]:
    """The checkers' two lines at X for `mu`."""
    space = make_finite_set(SPACE)
    return checked_lines([check_unit_laws(space, mu=mu), check_associativity(space, mode="exhaustive", mu=mu)])


def assert_agree(wrong: dict) -> None:
    power, families = spaces()[:2]
    mu = {family: power[wrong[i]] if i in wrong else union(family) for i, family in enumerate(families)}
    assert checker_lines(mutant(MU, wrong)) == reference_lines(mu)


def test_reference_orders_like_the_library():
    space = make_finite_set(SPACE)
    honest = mu_component(space)
    power, families = spaces()[:2]
    assert [frozen(s) for s in honest.codomain] == power and [frozen(f) for f in honest.domain] == families


def single_point_mus() -> list[dict]:
    power, families = spaces()[:2]
    return [{i: j} for i, family in enumerate(families) for j, s in enumerate(power) if s != union(family)]


def single_point_etas(space) -> list[dict]:
    power = subsets(space)
    return [{i: j} for i, x in enumerate(sorted(space)) for j, s in enumerate(power) if s != {x}]


def test_every_single_point_mutant_gives_the_reference_lines():
    mutants = single_point_mus()
    assert len(mutants) == 48
    for wrong in mutants:
        assert_agree(wrong)


def test_every_index_copy_mutant_gives_the_lines_of_its_hand_built_table():
    # μ at X handed as an `_Indexed` arrow over a copy of the honest index as a
    # plain list, with one entry changed: the checkers read a list table where
    # the honest one is bytes, and must print what they print for the same
    # table handed as a `FiniteFunction`
    space = make_finite_set(SPACE)
    honest = mu_component(space)
    families, power = honest.domain, honest.codomain
    assert isinstance(honest.index, bytes)
    for wrong in single_point_mus():
        [(i, j)] = wrong.items()
        index = list(honest.index)
        index[families.mask[i]] = power.mask[j]
        copy = powerset._Indexed(families, power, index)
        mu = NatTransform("mu-copy", MU.source, MU.target, lambda at: copy if at == space else MU.component(at))
        assert checker_lines(mu) == checker_lines(mutant(MU, wrong)), wrong


def test_every_single_point_eta_mutant_gives_the_reference_unit_lines():
    # the unit triangles at {1,2,3}, where every table is bytes, and at {1,2,3,4},
    # where η at P(X) and P(η) are lists: 21 and 60 hand-built η tables
    for carrier, count in ((frozenset({1, 2, 3}), 21), (frozenset({1, 2, 3, 4}), 60)):
        space, power, xs = make_finite_set(carrier), subsets(carrier), sorted(carrier)
        mutants = single_point_etas(carrier)
        assert len(mutants) == count
        for wrong in mutants:
            table = {x: power[wrong[i]] if i in wrong else singleton(x) for i, x in enumerate(xs)}
            assert checked_lines([check_unit_laws(space, eta=mutant(ETA, wrong, carrier))]) == [
                unit_line(carrier, union, table.__getitem__)], wrong


@settings(max_examples=12, deadline=None)  # a lawful mutant walks all 65,536 triples
@given(st.dictionaries(st.integers(0, 15), st.integers(0, 3), min_size=2, max_size=6))
def test_multi_point_mutants_give_the_reference_lines(wrong):
    assert_agree(wrong)


CARRIERS = [frozenset(range(1, n + 1)) for n in range(3)]


def arrows(a, b) -> list[dict]:
    """Every arrow from carrier a to carrier b as a dict, in the library's order: the
    tuples of images of a's members in order, as `product` draws them from b's."""
    xs = sorted(a)
    return [dict(zip(xs, images)) for images in product(sorted(b), repeat=len(xs))]


def image(f: dict, s) -> frozenset:
    return frozenset(f[x] for x in s)


def naturality_lines(name: str, values, squares) -> list[str]:
    """The sweep's lines over every ordered pair of carriers of size at most 2: at
    each arrow f from a to b in order, the square's two sides `squares(a, b, f)` at
    every value of `values(a)` in order, up to the first arrow with a witness."""
    lines = []
    for a, b in product(CARRIERS, repeat=2):
        fs = arrows(a, b)
        witness = next(filter(None, (first_witness(values(a), *squares(a, b, f), "") for f in fs)), None)
        lines.append(line(f"naturality[{name}]", len(values(a)) * len(fs), witness, f"{render(a)}->{render(b)}"))
    return lines


def families_of(a) -> list:
    return subsets(subsets(a))


def mu_squares(mu):
    """P(f)∘μ_a and μ_b∘P(P(f)) on P(P(a)), for μ given at each carrier as a function."""
    return lambda a, b, f: (lambda fam: image(f, mu(a, fam)),
                            lambda fam: mu(b, frozenset(image(f, s) for s in fam)))


def eta_squares(eta):
    """P(f)∘η_a and η_b∘f on a, for η given at each carrier as a function."""
    return lambda a, b, f: (lambda x: image(f, eta(a, x)), lambda x: eta(b, f[x]))


def test_every_single_point_mutant_gives_the_reference_naturality_lines():
    # the 48 single-point mutants of μ at {1,2} and the 6 of η, each swept over
    # every arrow between carriers of size at most 2
    power, families = spaces()[:2]
    mus, etas = single_point_mus(), single_point_etas(SPACE)
    assert (len(mus), len(etas)) == (48, 6)
    for wrong in mus:
        table = {family: power[wrong[i]] if i in wrong else union(family) for i, family in enumerate(families)}
        mu = lambda a, fam: table[fam] if a == SPACE else union(fam)
        assert checked_lines(list(naturality_sweep(mutant(MU, wrong), 2))) == naturality_lines(
            "mu-mutant", families_of, mu_squares(mu)), wrong
    for wrong in etas:
        table = {x: power[wrong[i]] if i in wrong else singleton(x) for i, x in enumerate(sorted(SPACE))}
        eta = lambda a, x: table[x] if a == SPACE else singleton(x)
        assert checked_lines(list(naturality_sweep(mutant(ETA, wrong), 2))) == naturality_lines(
            "eta-mutant", sorted, eta_squares(eta)), wrong
