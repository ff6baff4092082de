from __future__ import annotations

import itertools

import pytest

from finmonad import finset, powerset
from finmonad.finset import (
    FiniteFunction,
    atom_key,
    apply,
    compose,
    enumerate_functions,
    identity,
    make_finite_set,
    make_function,
    make_subset,
    NotInDomainError,
)
from finmonad.powerset import (
    ETA,
    IDENTITY_FUNCTOR,
    MU,
    NatTransform,
    POWERSET,
    PowersetTooLargeError,
    check_associativity,
    check_naturality,
    check_unit_laws,
    eta_component,
    mu_component,
    naturality_sweep,
    powerset_arrow,
    powerset_object,
)


def bitmask_oracle(atoms):
    """Independent subset enumeration: one member set per bitmask."""
    atoms = list(atoms)
    return {
        frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)
        for mask in range(1 << len(atoms))
    }


# ---------------------------------------------------------------------------
# the functor on objects and arrows
# ---------------------------------------------------------------------------

def test_powerset_of_two_element_set():
    power = powerset_object(make_finite_set([1, 2]))
    assert len(power) == 4
    assert {s.member_set for s in power} == bitmask_oracle([1, 2])


def test_powerset_of_empty_set():
    power = powerset_object(make_finite_set())
    assert len(power) == 1
    assert next(iter(power)).elements == ()


def test_powerset_sizes_double_per_element():
    for n in range(5):
        space = make_finite_set(range(n))
        assert len(powerset_object(space)) == 2 ** n


def carriers(max_size):
    """Carriers of ints, strings, mixed kinds (True and 0 in the int kind) and
    nested sets, of each size up to `max_size`."""
    empty = make_finite_set()
    pools = (
        [3, 1, 4, 2],
        ["b", "a", "d", "c"],
        [True, "a", empty, 0],
        [make_finite_set([1, 2]), empty, make_finite_set([empty]), make_finite_set([1])],
    )
    return [make_finite_set(pool[:n]) for pool in pools for n in range(max_size + 1)]


def test_powerset_is_in_canonical_order():
    spaces = carriers(4)
    spaces += [powerset_object(make_finite_set(range(1, n + 1))) for n in range(3)]
    for space in spaces:
        power = powerset_object(space)
        assert power.elements == tuple(sorted(power.elements, key=atom_key))
        assert {s.member_set for s in power} == bitmask_oracle(space)


def test_powerset_cap():
    with pytest.raises(PowersetTooLargeError):
        powerset_object(make_finite_set(range(17)))


def test_subset_carrier_membership_validated():
    space = make_finite_set([1, 2])
    assert make_subset(space, [2, 1, 2]).elements == (1, 2)
    with pytest.raises(NotInDomainError):
        make_subset(space, [3])


def test_image_of_constant_arrow():
    f = make_function(make_finite_set([1, 2]), make_finite_set(["a"]), {1: "a", 2: "a"})
    lifted = powerset_arrow(f)
    full = make_subset(f.domain, [1, 2])
    empty = make_subset(f.domain, [])
    assert apply(lifted, full).member_set == frozenset(["a"])
    assert apply(lifted, empty).member_set == frozenset()


def test_image_of_parity_arrow_by_enumeration():
    ints = make_finite_set([16, 27])
    bools = make_finite_set([True, False])
    g = make_function(ints, bools, {16: True, 27: False})
    lifted = powerset_arrow(g)
    for subset in powerset_object(ints):
        expected = frozenset(apply(g, x) for x in subset.elements)
        assert apply(lifted, subset).member_set == expected
    assert apply(lifted, make_subset(ints, [16, 27])).member_set == {True, False}


def test_image_map_matches_its_definition():
    for dom, cod in itertools.product(carriers(3), repeat=2):
        for f in enumerate_functions(dom, cod):
            lifted = powerset_arrow(f)
            assert lifted.domain == powerset_object(dom) and lifted.codomain == powerset_object(cod)
            for subset in lifted.domain:
                image = apply(lifted, subset)
                assert image in lifted.codomain
                assert image.member_set == frozenset(apply(f, x) for x in subset)


def test_functor_preserves_identity():
    for n in range(4):
        space = make_finite_set(range(n))
        assert powerset_arrow(identity(space)) == identity(powerset_object(space))


def test_functor_preserves_composition_exhaustively():
    a = make_finite_set([1, 2])
    b = make_finite_set(["x", "y"])
    c = make_finite_set([7, 8])
    for f in enumerate_functions(a, b):
        for g in enumerate_functions(b, c):
            assert powerset_arrow(compose(g, f)) == compose(powerset_arrow(g), powerset_arrow(f))


def test_functor_preserves_composition_spot_check_size_three():
    a = make_finite_set([1, 2, 3])
    b = make_finite_set(["x", "y", "z"])
    fs = list(enumerate_functions(a, b))
    gs = list(enumerate_functions(b, a))
    for f, g in zip(fs[::7], gs[::5]):
        assert powerset_arrow(compose(g, f)) == compose(powerset_arrow(g), powerset_arrow(f))


def test_image_map_is_monotone():
    a = make_finite_set([1, 2])
    b = make_finite_set(["x", "y"])
    for f in enumerate_functions(a, b):
        lifted = powerset_arrow(f)
        for s, t in itertools.product(powerset_object(a), repeat=2):
            if s.member_set <= t.member_set:
                assert apply(lifted, s).member_set <= apply(lifted, t).member_set


# ---------------------------------------------------------------------------
# unit and multiplication components
# ---------------------------------------------------------------------------

def test_unit_wraps_into_singletons():
    space = make_finite_set([1, 2])
    eta = eta_component(space)
    assert apply(eta, 1).member_set == frozenset([1])
    assert apply(eta, 2).member_set == frozenset([2])
    assert eta_component(make_finite_set()).pairs == ()


def test_unit_and_multiplication_match_their_definitions():
    for space in carriers(4):
        eta = eta_component(space)
        assert eta.domain == space and eta.codomain == powerset_object(space)
        for x in space:
            assert apply(eta, x) in eta.codomain and apply(eta, x).member_set == frozenset([x])
    for space in carriers(3):
        mu = mu_component(space)
        assert mu.domain == powerset_object(powerset_object(space)) and mu.codomain == powerset_object(space)
        for family in mu.domain:
            union = apply(mu, family)
            assert union in mu.codomain
            assert union.member_set == frozenset().union(*(g.member_set for g in family))


def test_unit_is_injective_up_to_size_four():
    for n in range(5):
        space = make_finite_set(range(n))
        eta = eta_component(space)
        images = [apply(eta, x) for x in space]
        for i, left in enumerate(images):
            for right in images[i + 1:]:
                assert left != right


def test_multiplication_folds_unions():
    space = make_finite_set(["a", "b"])
    power = powerset_object(space)
    mu = mu_component(space)
    family = make_subset(power, [make_subset(space, ["a"]), make_subset(space, ["a", "b"])])
    assert apply(mu, family).member_set == frozenset(["a", "b"])
    empty_family = make_subset(power, [])
    assert apply(mu, empty_family).member_set == frozenset()


def test_multiplication_after_elementwise_unit_is_identity():
    # collapsing the family of singletons of A gives A back, for every subset A
    space = make_finite_set([1, 2, 3])
    mu = mu_component(space)
    lifted_eta = powerset_arrow(eta_component(space))
    for subset in powerset_object(space):
        assert apply(mu, apply(lifted_eta, subset)) == subset


# ---------------------------------------------------------------------------
# naturality
# ---------------------------------------------------------------------------

def test_unit_naturality_up_to_size_three():
    for report in naturality_sweep(ETA, 3):
        assert report.passed, report.to_line()


def test_multiplication_naturality_up_to_size_two():
    for report in naturality_sweep(MU, 2):
        assert report.passed, report.to_line()


def corrupt_unit_at(space):
    """A unit-shaped transformation whose component at `space` sends
    everything to the empty subset. Wrong at one component, so the family is
    no longer natural."""

    def component_at(x):
        if x == space:
            power = powerset_object(x)
            empty = make_subset(x, [])
            return FiniteFunction(x, power, tuple((a, empty) for a in x))
        return eta_component(x)

    return NatTransform("eta-corrupted", IDENTITY_FUNCTOR, POWERSET, component_at)


def test_corrupted_unit_fails_naturality_with_witness():
    # True and 1 are one atom, and the powerset caches keep whichever spelling
    # built P({False,True}) first; start them cold so the line below is fixed
    for cached in (powerset._encoded, powerset_arrow, mu_component):
        cached.cache_clear()
    ints = make_finite_set([16, 27])
    bools = make_finite_set([True, False])
    g = make_function(ints, bools, {16: True, 27: False})
    report = check_naturality(corrupt_unit_at(ints), g)
    assert not report.passed
    cx = report.counterexample
    assert cx.value == 16
    assert cx.lhs.member_set == frozenset()          # image of the empty subset
    assert cx.rhs.member_set == frozenset([True])    # the honest singleton
    assert cx.recheck()
    assert report.to_line() == "FAIL naturality[eta-corrupted] @ {16->True,27->False} witness=16 lhs={} rhs={True}"


# ---------------------------------------------------------------------------
# coherence diagrams
# ---------------------------------------------------------------------------

def test_unit_triangles_up_to_size_three():
    for n in range(4):
        space = make_finite_set(range(1, n + 1))
        report = check_unit_laws(space)
        assert report.passed, report.to_line()
        assert report.checked == 2 ** (2 ** n)


def test_unit_triangles_trivial_on_empty_set():
    assert check_unit_laws(make_finite_set()).passed


def test_associativity_exhaustive_small_sizes():
    report1 = check_associativity(make_finite_set([1]))
    assert report1.passed and report1.checked == 16
    report2 = check_associativity(make_finite_set([1, 2]))
    assert report2.passed and report2.checked == 65536
    assert "exhaustive" in report2.law


def test_associativity_sampled_at_size_three():
    report = check_associativity(make_finite_set([1, 2, 3]), samples=1000, seed=42)
    assert report.passed
    assert report.checked == 1000
    assert "sampled" in report.law and "seed=42" in report.law


def test_associativity_exhaustive_mode_refuses_size_three():
    with pytest.raises(PowersetTooLargeError):
        check_associativity(make_finite_set([1, 2, 3]), mode="exhaustive")


def corrupt_mu_at(space):
    """A multiplication whose component at `space` sends the family
    {{1},{1,2}} to the empty subset, and is honest everywhere else."""
    honest = mu_component(space)
    family = make_subset(powerset_object(space), [make_subset(space, [1]), make_subset(space, [1, 2])])
    empty = make_subset(space, [])
    corrupted = FiniteFunction(
        honest.domain,
        honest.codomain,
        tuple((f, empty if f == family else s) for f, s in honest.pairs),
    )
    return NatTransform(
        "mu-corrupted", MU.source, MU.target,
        lambda at: corrupted if at == space else mu_component(at),
    )


def test_corrupted_multiplication_fails_unit_laws():
    def intersect_component(space):
        power = powerset_object(space)
        power2 = powerset_object(power)
        index = {s.member_set: s for s in power}
        pairs = []
        for family in power2:
            member_sets = [g.member_set for g in family.elements]
            meet = frozenset.intersection(*member_sets) if member_sets else frozenset()
            pairs.append((family, index[meet]))
        return FiniteFunction(power2, power, tuple(pairs))

    broken_mu = NatTransform("mu-intersect", MU.source, MU.target, intersect_component)
    report = check_unit_laws(make_finite_set([1, 2]), mu=broken_mu)
    assert not report.passed
    assert report.counterexample.recheck()
    assert report.to_line() == (
        "FAIL monad-unit[exhaustive] @ {1,2} witness={1,2} [mu∘P(eta)] lhs={} rhs={1,2}"
    )


def test_corrupted_multiplication_fails_exhaustive_associativity():
    space = make_finite_set([1, 2])
    broken_mu = corrupt_mu_at(space)
    # the unit triangles only consult mu on one-member families and on
    # families of singletons, so only the square can see this defect
    assert check_unit_laws(space, mu=broken_mu).passed
    report = check_associativity(space, mu=broken_mu)
    assert not report.passed
    assert report.law == "monad-associativity[exhaustive]"
    cx = report.counterexample
    assert cx.labels == ("mu∘mu_P", "mu∘P(mu)")
    assert cx.lhs != cx.rhs
    assert cx.recheck()
    assert report.to_line() == (
        "FAIL monad-associativity[exhaustive] @ {1,2} "
        "witness={{},{{}},{{},{1}},{{1}},{{1},{1,2}}} [mu∘mu_P,mu∘P(mu)] lhs={1,2} rhs={1}"
    )


def test_corrupted_unit_at_the_powerset_fails_the_first_triangle():
    # eta is wrong only at P({1}), so only mu∘eta_P sees it, and the witness
    # must replay that triangle rather than the one checked after it
    space = make_finite_set([1])
    report = check_unit_laws(space, eta=corrupt_unit_at(powerset_object(space)))
    assert report.to_line() == "FAIL monad-unit[exhaustive] @ {1} witness={1} [mu∘eta_P] lhs={} rhs={1}"
    assert report.counterexample.recheck()


def test_corrupted_multiplication_fails_naturality_with_witness():
    space = make_finite_set([1, 2])
    broken_mu = corrupt_mu_at(space)
    failures = [report for report in naturality_sweep(broken_mu, 2) if not report.passed]
    assert [report.to_line() for report in failures] == [
        "FAIL naturality[mu-corrupted] @ {1,2}->{1} witness={{1},{1,2}} lhs={} rhs={1}",
        "FAIL naturality[mu-corrupted] @ {1,2}->{1,2} witness={{1},{1,2}} lhs={} rhs={1}",
    ]
    assert all(report.counterexample.recheck() for report in failures)


def test_exhaustive_associativity_consumes_the_outer_component():
    # mu at P({1,2}) is handed corrupted, mu at {1,2} is honest: a checker that
    # derived the outer multiplication as a union would pass
    space = make_finite_set([1, 2])
    power = powerset_object(space)
    honest = mu_component(power)
    triple = make_finite_set([make_finite_set([make_subset(space, [1])])])
    empty_family = make_finite_set()
    corrupted = FiniteFunction(
        honest.domain,
        honest.codomain,
        tuple((f, empty_family if f == triple else s) for f, s in honest.pairs),
    )
    broken_mu = NatTransform(
        "mu-outer-corrupted", MU.source, MU.target,
        lambda at: corrupted if at == power else mu_component(at),
    )
    report = check_associativity(space, mode="exhaustive", mu=broken_mu)
    assert report.to_line() == (
        "FAIL monad-associativity[exhaustive] @ {1,2} witness={{{1}}} [mu∘mu_P,mu∘P(mu)] lhs={} rhs={1}"
    )
    assert report.counterexample.recheck()


def test_exhaustive_associativity_composes_no_tables(monkeypatch):
    def refuse(*args):
        raise AssertionError("a table was composed or built as an identity")

    monkeypatch.setattr(finset, "compose", refuse)
    monkeypatch.setattr(finset, "identity", refuse)
    assert not hasattr(powerset, "compose") and not hasattr(powerset, "identity")
    space = make_finite_set([1, 2])
    assert check_unit_laws(space).passed
    misses = powerset_arrow.cache_info().misses
    report = check_associativity(space, mode="exhaustive", mu=MU)
    assert powerset_arrow.cache_info().misses == misses
    assert report.passed and report.checked == 65536
    for transform in (ETA, MU):
        for report in naturality_sweep(transform, 2):
            assert report.passed, report.to_line()


def test_report_lines_follow_the_grammar():
    passing = check_unit_laws(make_finite_set([1]))
    assert passing.to_line() == "PASS monad-unit[exhaustive] @ {1} checked=4"
    failing = check_naturality(
        corrupt_unit_at(make_finite_set([16, 27])),
        make_function(make_finite_set([16, 27]), make_finite_set(["t", "f"]),
                      {16: "t", 27: "f"}),
    )
    line = failing.to_line()
    assert line.startswith("FAIL naturality[eta-corrupted] @ ")
    assert 'witness=16' in line and 'lhs={}' in line and 'rhs={"t"}' in line


def test_sampled_associativity_witness_is_pinned():
    space = make_finite_set([1, 2, 3])
    broken_mu = corrupt_mu_at(space)
    report = check_associativity(space, samples=10_000, seed=42, mu=broken_mu)
    assert report.to_line() == (
        "FAIL monad-associativity[sampled,seed=42,n=10000] @ {1,2,3} "
        "witness={{{},{1,3},{3}},{{1},{1,2}}} [mu∘mu_P,mu∘P(mu)] lhs={1,2,3} rhs={1,3}"
    )
    assert report.counterexample.recheck()


# ---------------------------------------------------------------------------
# endofunctor descriptors
# ---------------------------------------------------------------------------

def test_endofunctor_depths():
    space = make_finite_set([1, 2])
    assert IDENTITY_FUNCTOR.on_object(space) is space
    assert len(POWERSET.on_object(space)) == 4
    g = make_function(space, space, {1: 1, 2: 1})
    assert IDENTITY_FUNCTOR.on_arrow(g) is g
    assert POWERSET.on_arrow(g) == powerset_arrow(g)


def test_component_endpoint_validation():
    bad = NatTransform("bad", IDENTITY_FUNCTOR, POWERSET, lambda s: identity(s))
    with pytest.raises(ValueError):
        bad.component(make_finite_set([1]))
