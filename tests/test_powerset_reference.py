"""A differential reference for the powerset monad's checkers at {1,2}.

The reference states both unit triangles and exhaustive associativity by their
definitions, over frozensets: no codes, no bitmasks, nothing of the library but
the lines it must print. Each check is run on mutants of μ at {1,2}, and its
report line must equal the reference's: verdict, witness, lhs and rhs.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from finmonad import FiniteFunction, FiniteSet, make_finite_set
from finmonad.powerset import MU, NatTransform, check_associativity, check_unit_laws, mu_component

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


def line(law: str, checked: int, witness) -> str:
    if witness is None:
        return f"PASS {law} @ {{1,2}} checked={checked}"
    value, labels, lhs, rhs = witness
    return f"FAIL {law} @ {{1,2}} witness={render(value)} [{labels}] lhs={render(lhs)} rhs={render(rhs)}"


def reference_lines(mu: dict) -> list[str]:
    """The two lines for a μ at X given as a dict from each family to a subset;
    η sends x to {x}, and μ at P(X) is union, as the library's are."""
    power, families, triples, mu_p = spaces()
    unit = first_witness(power, lambda s: mu[frozenset({s})], lambda s: s, "mu∘eta_P") or first_witness(
        power, lambda s: mu[frozenset(frozenset({x}) for x in s)], lambda s: s, "mu∘P(eta)")
    assoc = first_witness(triples, lambda t: mu[mu_p[t]], lambda t: mu[frozenset(mu[f] for f in t)],
                          "mu∘mu_P,mu∘P(mu)")
    return [line("monad-unit[exhaustive]", len(families), unit),
            line("monad-associativity[exhaustive]", len(triples), assoc)]


def frozen(atom):
    return frozenset(map(frozen, atom)) if isinstance(atom, FiniteSet) else atom


def checker_lines(wrong: dict) -> list[str]:
    """The checkers' two lines for μ at X changed at each family of `wrong` (a
    dict from a family's position to a subset's position, canonical order)."""
    space, power = make_finite_set(SPACE), spaces()[0]
    honest = mu_component(space)
    images = {frozen(s): s for s in honest.codomain}
    table = FiniteFunction(honest.domain, honest.codomain, [
        (family, images[power[wrong[i]]] if i in wrong else image)
        for i, (family, image) in enumerate(honest.pairs)])
    mu = NatTransform("mu-mutant", MU.source, MU.target, lambda at: table if at == space else mu_component(at))
    reports = [check_unit_laws(space, mu=mu), check_associativity(space, mode="exhaustive", mu=mu)]
    assert all(report.passed or report.counterexample.recheck() for report in reports)
    return [report.to_line() for report in reports]


def assert_agree(wrong: dict) -> None:
    power, families = spaces()[:2]
    mu = {family: power[wrong[i]] if i in wrong else union(family) for i, family in enumerate(families)}
    assert checker_lines(wrong) == reference_lines(mu)


def test_reference_orders_like_the_library():
    space = make_finite_set(SPACE)
    honest = mu_component(space)
    power, families = spaces()[:2]
    assert [frozen(s) for s in honest.codomain] == power and [frozen(f) for f in honest.domain] == families


def test_every_single_point_mutant_gives_the_reference_lines():
    power, families = spaces()[:2]
    mutants = [{i: j} for i, family in enumerate(families) for j, s in enumerate(power) if s != union(family)]
    assert len(mutants) == 48
    for wrong in mutants:
        assert_agree(wrong)


@settings(max_examples=12, deadline=None)  # a lawful mutant walks all 65,536 triples
@given(st.dictionaries(st.integers(0, 15), st.integers(0, 3), min_size=2, max_size=6))
def test_multi_point_mutants_give_the_reference_lines(wrong):
    assert_agree(wrong)
