from __future__ import annotations

import itertools
import random

import pytest

from finmonad import finset, powerset
from finmonad.finset import (
    CodomainViolationError,
    FiniteFunction,
    FiniteSet,
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
from finmonad.render import show


def assert_agrees_with_its_table(f):
    """`f` and a copy rebuilt from its pairs are one arrow, read every way, and
    `f` refuses the same atoms outside its domain."""
    copy = FiniteFunction(f.domain, f.codomain, f.pairs)
    for x in f.domain:
        assert apply(f, x) == apply(copy, x)
    assert f.pairs == copy.pairs and f.table == copy.table
    assert f == copy and copy == f and hash(f) == hash(copy) and show(f) == show(copy)
    for outside in (7, "a", make_finite_set(["outside"]), make_finite_set([make_finite_set(["outside"])])):
        if outside not in f.domain:
            with pytest.raises(NotInDomainError):
                apply(f, outside)


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


def test_rendering_does_not_depend_on_cache_history():
    # True == 1, so {False,True} == {0,1}; each spelling must render as itself
    # in either order, whichever of the two the powerset caches saw first
    bools = make_finite_set([True, False]), ("{}", "{False}", "{False,True}", "{True}")
    ints = make_finite_set(range(2)), ("{}", "{0}", "{0,1}", "{1}")
    for space, subsets in (bools, ints, bools):
        power = "{" + ",".join(subsets) + "}"
        assert show(powerset_object(space)) == power
        assert show(mu_component(space).codomain) == power
        # mu itself, against one built eagerly from this spelling's atoms
        atoms = [make_finite_set(c) for n in range(3) for c in itertools.combinations(space, n)]
        families = [make_finite_set(c) for n in range(5) for c in itertools.combinations(atoms, n)]
        eager = make_function(make_finite_set(families), make_finite_set(atoms),
                              {g: make_finite_set(x for s in g for x in s) for g in families})
        assert show(mu_component(space)) == show(eager)
        assert show(powerset_arrow(identity(space))) == "{" + ",".join(f"{s}->{s}" for s in subsets) + "}"


def test_a_powerset_builds_its_atoms_on_first_read():
    # each read on a fresh powerset object agrees with the same read on a set
    # built eagerly from the same atoms; only the length needs no atoms
    space = make_finite_set([3, "a", make_finite_set([2])])
    eager = make_finite_set(make_finite_set(c) for n in range(4) for c in itertools.combinations(space, n))
    lazy = powerset._PowerSet(space)
    assert len(lazy) == len(eager) == 8
    with pytest.raises(AttributeError):
        FiniteSet.elements.__get__(lazy)  # not built by len
    reads = (list, hash, show, repr, atom_key, lambda s: s == eager, lambda s: eager == s,
             lambda s: [x in s for x in (*eager, make_finite_set([4]), 3)])
    for read in reads:
        assert read(powerset._PowerSet(space)) == read(eager)


def test_powerset_atoms_are_built_in_canonical_order():
    nested = make_finite_set([3, "a", True, make_finite_set(), make_finite_set([make_finite_set([2])])])
    for space in [make_finite_set(range(n)) for n in range(6)] + [nested]:
        subsets = (make_finite_set(c) for n in range(len(space) + 1) for c in itertools.combinations(space, n))
        assert powerset._PowerSet(space).elements == make_finite_set(subsets).elements


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
            assert_agrees_with_its_table(lifted)


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
        assert_agrees_with_its_table(eta_component(space))
        assert_agrees_with_its_table(mu)


def test_index_backed_arrows_keep_one_pairs_tuple():
    # fresh mu (on a cleared cache) and P(f): reading pairs or rendering builds no table
    for n in range(4):
        space = make_finite_set(range(1, n + 1))
        powerset._powerset_per_spelling.cache_clear()
        arrows = [mu_component(space)]
        arrows += map(powerset_arrow, enumerate_functions(space, space))
        for arrow in arrows:
            assert arrow.pairs is arrow.pairs
            show(arrow)
            with pytest.raises(AttributeError):
                FiniteFunction.table.__get__(arrow)
            assert arrow.table == dict(arrow.pairs)
            assert_agrees_with_its_table(arrow)


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


def test_multiplication_naturality_up_to_size_three():
    for report in naturality_sweep(MU, 3):
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


@pytest.mark.parametrize("samples", [0, -5])
def test_sampled_associativity_refuses_fewer_than_one_sample(samples):
    with pytest.raises(ValueError, match="at least one sample"):
        check_associativity(make_finite_set([1, 2, 3]), samples=samples)


def test_sampled_associativity_reads_mu_only_where_samples_land(monkeypatch):
    # a hand-built copy of mu is read through apply, one FiniteFunction._image call a read
    reads = []
    image = FiniteFunction._image
    monkeypatch.setattr(FiniteFunction, "_image", lambda f, x: reads.append((f, x)) or image(f, x))

    def reads_of_a_copy(space, **kwargs):
        honest = mu_component(space)
        copy = FiniteFunction(honest.domain, honest.codomain, honest.pairs)
        mu = NatTransform("mu-copy", MU.source, MU.target, lambda at: copy if at == space else mu_component(at))
        reads.clear()
        assert check_associativity(space, mu=mu, **kwargs).passed
        return [x for f, x in reads if f is copy]

    sampled = reads_of_a_copy(make_finite_set(range(1, 5)), samples=100, seed=42)
    assert 0 < len(sampled) < 1000, f"{len(sampled)} reads of mu for 100 samples"
    exhaustive = reads_of_a_copy(make_finite_set([1, 2]), mode="exhaustive")
    assert len(exhaustive) == len(set(exhaustive)) == 16  # every entry of mu at {1,2}, each once


def test_associativity_exhaustive_mode_refuses_size_three():
    with pytest.raises(PowersetTooLargeError):
        check_associativity(make_finite_set([1, 2, 3]), mode="exhaustive")


def mu_corrupted_at(space, family, wrong):
    """A multiplication whose component at `space` sends `family` to
    `wrong`, and is honest everywhere else."""
    honest = mu_component(space)
    corrupted = FiniteFunction(honest.domain, honest.codomain, {**honest.table, family: wrong}.items())
    return NatTransform(
        "mu-corrupted", MU.source, MU.target,
        lambda at: corrupted if at == space else mu_component(at),
    )


def corrupt_mu_at(space):
    """mu corrupted at `space` to send the family {{1},{1,2}} to the empty
    subset."""
    family = make_subset(powerset_object(space), [make_subset(space, [1]), make_subset(space, [1, 2])])
    return mu_corrupted_at(space, family, make_subset(space, []))


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


def test_an_image_outside_the_codomain_is_a_codomain_violation():
    # the trusted constructor takes any table; the powerset layer names the fault
    space = make_finite_set([1, 2])
    escaping = FiniteFunction(space, make_finite_set(["a"]), ((1, "a"), (2, "b")))
    with pytest.raises(CodomainViolationError):
        powerset_arrow(escaping)
    with pytest.raises(CodomainViolationError):
        check_naturality(ETA, escaping)
    off = FiniteFunction(space, powerset_object(space), ((1, FiniteSet((1,))), (2, FiniteSet((3,)))))
    eta = NatTransform("eta-off", IDENTITY_FUNCTOR, POWERSET, lambda x: off if x == space else eta_component(x))
    with pytest.raises(CodomainViolationError):
        check_unit_laws(space, eta=eta)


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
    broken_mu = corrupt_mu_at(make_finite_set([1, 2, 3]))
    failures = [report for report in naturality_sweep(broken_mu, 3) if not report.passed]
    assert [report.to_line() for report in failures] == [
        "FAIL naturality[mu-corrupted] @ {1,2}->{1,2,3} witness={{1},{1,2}} lhs={1,2} rhs={}",
        "FAIL naturality[mu-corrupted] @ {1,2,3}->{1} witness={{1},{1,2}} lhs={} rhs={1}",
        "FAIL naturality[mu-corrupted] @ {1,2,3}->{1,2} witness={{1},{1,2}} lhs={} rhs={1}",
        "FAIL naturality[mu-corrupted] @ {1,2,3}->{1,2,3} witness={{1},{1,2}} lhs={} rhs={1}",
    ]
    assert all(report.counterexample.recheck() for report in failures)


def test_a_failing_naturality_sweep_stops_lifting_at_its_witness(monkeypatch):
    # the two failing size pairs of a sweep with mu corrupted at {1,2} lift no
    # arrow past their first witness, so the sweep lifts fewer than the honest one
    lifted = []
    monkeypatch.setattr(powerset, "powerset_arrow", lambda f: lifted.append(f) or powerset_arrow(f))
    counts = []
    for transform in (MU, corrupt_mu_at(make_finite_set([1, 2]))):
        lifted.clear()
        naturality_sweep(transform, 2)
        counts.append(len(lifted))
    honest, failing = counts
    assert failing < honest


def test_components_on_separately_built_powersets_give_the_same_lines():
    # a hand-built mu whose endpoints equal P(P(X)) and P(X) but are plain sets
    # built apart from the cached powersets: same lines as on the cached ones
    space = make_finite_set([1, 2])
    cached = corrupt_mu_at(space)
    mu = cached.component(space)
    apart = FiniteFunction(make_finite_set(list(mu.domain)), make_finite_set(list(mu.codomain)), mu.pairs)
    assert apart.domain == mu.domain and not isinstance(apart.domain, powerset._PowerSet)
    rebuilt = NatTransform("mu-corrupted", MU.source, MU.target,
                           lambda at: apart if at == space else mu_component(at))
    lines = []
    for transform in (cached, rebuilt):
        reports = [check_associativity(space, mode="exhaustive", mu=transform)]
        reports.append(check_unit_laws(space, mu=transform))
        reports += [report for report in naturality_sweep(transform, 2) if not report.passed]
        assert all(report.passed or report.counterexample.recheck() for report in reports)
        lines.append([report.to_line() for report in reports])
    assert lines[0] == lines[1] == [
        "FAIL monad-associativity[exhaustive] @ {1,2} "
        "witness={{},{{}},{{},{1}},{{1}},{{1},{1,2}}} [mu∘mu_P,mu∘P(mu)] lhs={1,2} rhs={1}",
        "PASS monad-unit[exhaustive] @ {1,2} checked=16",
        "FAIL naturality[mu-corrupted] @ {1,2}->{1} witness={{1},{1,2}} lhs={} rhs={1}",
        "FAIL naturality[mu-corrupted] @ {1,2}->{1,2} witness={{1},{1,2}} lhs={} rhs={1}",
    ]


def test_every_single_point_mutant_at_size_two_is_counted():
    # The mutation matrix at {1,2}: every single-point corruption of mu (16
    # families x 3 wrong values) and of eta (2 elements x 3 wrong values), with
    # the kills of each check; every failing report must recheck.
    space = make_finite_set([1, 2])
    honest_mu, honest_eta = mu_component(space), eta_component(space)

    def corrupted(transform, honest, x, wrong):
        table = FiniteFunction(honest.domain, honest.codomain, {**honest.table, x: wrong}.items())
        return NatTransform(transform.name, transform.source, transform.target,
                            lambda at: table if at == space else transform.component_at(at))

    def mutants(transform, honest):
        return [corrupted(transform, honest, x, wrong)
                for x, right in honest.pairs for wrong in honest.codomain if wrong != right]

    def kills(check, transforms):
        killed = 0
        for transform in transforms:
            failures = [report for report in check(transform) if not report.passed]
            assert all(report.counterexample.recheck() for report in failures), failures[0].to_line()
            killed += bool(failures)
        return killed

    mus, etas = mutants(MU, honest_mu), mutants(ETA, honest_eta)
    assert (len(mus), len(etas)) == (48, 6)
    sweep_at_two = lambda transform: naturality_sweep(transform, 2)
    assert kills(lambda mu: [check_associativity(space, mode="exhaustive", mu=mu)], mus) == 48
    assert kills(sweep_at_two, mus) == 48 and kills(sweep_at_two, etas) == 6
    assert kills(lambda mu: [check_unit_laws(space, mu=mu)], mus) == 18
    assert kills(lambda eta: [check_unit_laws(space, eta=eta)], etas) == 6


def test_exhaustive_associativity_consumes_the_outer_component():
    # mu at P({1,2}) is handed corrupted, mu at {1,2} is honest: a checker that
    # derived the outer multiplication as a union would pass
    space = make_finite_set([1, 2])
    triple = make_finite_set([make_finite_set([make_subset(space, [1])])])
    broken_mu = mu_corrupted_at(powerset_object(space), triple, make_finite_set())
    report = check_associativity(space, mode="exhaustive", mu=broken_mu)
    assert report.to_line() == (
        "FAIL monad-associativity[exhaustive] @ {1,2} witness={{{1}}} [mu∘mu_P,mu∘P(mu)] lhs={} rhs={1}"
    )
    assert report.counterexample.recheck()


def test_exhaustive_associativity_composes_no_tables(monkeypatch):
    def refuse(*args):
        raise AssertionError("a table was composed, built as an identity or lifted by P")

    monkeypatch.setattr(finset, "compose", refuse)
    monkeypatch.setattr(finset, "identity", refuse)
    assert not hasattr(powerset, "compose") and not hasattr(powerset, "identity")
    space = make_finite_set([1, 2])
    assert check_unit_laws(space).passed
    with monkeypatch.context() as patch:
        patch.setattr(powerset, "powerset_arrow", refuse)
        report = check_associativity(space, mode="exhaustive", mu=MU)
    assert report.passed and report.checked == 65536
    for transform in (ETA, MU):
        for report in naturality_sweep(transform, 2):
            assert report.passed, report.to_line()


def test_exhaustive_associativity_builds_only_its_witness_atom(monkeypatch):
    # Every FiniteSet constructed while the check and its recheck run, on cold
    # caches; the lazy powerset objects themselves are not among them.
    space = make_finite_set([1, 2])
    built = []
    construct = FiniteSet.__init__

    def recording(self, elements=()):
        built.append(elements)
        construct(self, elements)

    for mu, passes in ((MU, True), (corrupt_mu_at(space), False)):
        powerset._powerset_per_spelling.cache_clear()
        built.clear()
        with monkeypatch.context() as patch:
            patch.setattr(FiniteSet, "__init__", recording)
            report = check_associativity(space, mode="exhaustive", mu=mu)
            assert report.passed == passes and (passes or report.counterexample.recheck())
        # the atoms of P(P(P(space))) that are not also atoms of P(P(space))
        families = set(powerset_object(powerset_object(space)))
        triples = {e for e in built if e and all(g in families for g in e) and FiniteSet(e) not in families}
        assert triples == (set() if passes else {report.counterexample.value.elements}), report.to_line()


def test_mu_pairs_build_their_atoms_once(monkeypatch):
    # a count of FiniteSets built, on cold caches, so the guard needs no timing
    space = make_finite_set([1, 2, 3, 4])
    built = []
    construct = FiniteSet.__init__

    def recording(self, elements=()):
        built.append(elements)
        construct(self, elements)

    powerset._powerset_per_spelling.cache_clear()
    monkeypatch.setattr(FiniteSet, "__init__", recording)
    first = mu_component(space).pairs
    # the atoms of P²(X), and P(X)'s twice: rendered as a cache key and as images
    assert len(built) <= 65_536 + 2 * 16 + 1
    # an equal space built elsewhere shares the cached P(X), and so its mu
    equal = make_finite_set(range(1, 5))
    built.clear()
    assert equal is not space and mu_component(equal).pairs is first and built == []


def test_naturality_sweeps_build_no_lifted_tables(monkeypatch):
    # P(f) is built per call and never hashed, so nothing reads its pairs or table
    requested = []
    lazy_field = powerset._Indexed.__getattr__

    def recording(self, name):
        requested.append(name)
        return lazy_field(self, name)

    powerset._powerset_per_spelling.cache_clear()
    monkeypatch.setattr(powerset._Indexed, "__getattr__", recording)
    for transform in (ETA, MU):
        for report in naturality_sweep(transform, 2):
            assert report.passed, report.to_line()
    assert "table" not in requested and "pairs" not in requested


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
        "witness={{{},{1}},{{1},{1,2}}} [mu∘mu_P,mu∘P(mu)] lhs={1,2} rhs={1}"
    )
    assert report.counterexample.recheck()


def test_failing_sampled_associativity_stops_drawing_at_its_witness(monkeypatch):
    # a draw past the witness would change nothing the report says
    draws = []

    class Counting(random.Random):
        def randrange(self, *args):
            draws.append(args)
            return super().randrange(*args)

    monkeypatch.setattr(powerset.random, "Random", Counting)
    space = make_finite_set([1, 2, 3])
    counts = []
    for samples in (10_000, 20_000):
        draws.clear()
        report = check_associativity(space, samples=samples, seed=42, mu=corrupt_mu_at(space))
        assert not report.passed
        counts.append(len(draws))
    assert counts[0] == counts[1]


def test_sampled_associativity_assumes_union_at_the_outer_powerset():
    # mu(F) = {} if {} in F, else the union of F: a lawful monad (the nonempty
    # powerset with {} as an absorbing error). Sampled mode takes mu at P(X) to
    # be union, so it FAILs this monad at {1,2,3}, at every seed from 0 to 9.
    empty = make_finite_set()

    def absorbing(space):
        union = mu_component(space)
        pairs = ((family, empty if empty in family else u) for family, u in union.pairs)
        return FiniteFunction(union.domain, union.codomain, pairs)

    mu = NatTransform("mu-absorbing", MU.source, MU.target, absorbing)
    for n in range(4):
        assert check_unit_laws(make_finite_set(range(1, n + 1)), mu=mu).passed
    assert check_associativity(make_finite_set([1, 2]), mu=mu).passed
    for seed in range(10):
        report = check_associativity(make_finite_set([1, 2, 3]), seed=seed, mu=mu)
        assert not report.passed and empty in report.counterexample.value, report.to_line()


def test_sampled_associativity_kills_a_stride_of_single_point_mutants():
    # Every single-point corruption of mu at {1,2,3}, in the order of mu's
    # table and then of the codomain: 256 families x 7 wrong values = 1,792.
    # Every 12th of them is checked, 150 mutants, none chosen by hand.
    space = make_finite_set([1, 2, 3])
    honest = mu_component(space)
    mutants = [
        (family, wrong) for family, right in honest.pairs for wrong in honest.codomain if wrong != right
    ]
    assert len(mutants) == 1792
    kills = 0
    for family, wrong in mutants[::12]:
        report = check_associativity(space, samples=10_000, seed=42, mu=mu_corrupted_at(space, family, wrong))
        if not report.passed:
            assert report.counterexample.recheck(), report.to_line()
            kills += 1
    assert kills >= 140, f"{kills} of 150 mutants killed"


def test_sampled_associativity_lines_at_size_four_are_pinned():
    # The single-point corruptions of mu at {1,2,3,4}, in the order of mu's
    # table and then of the codomain: 65,536 families x 15 wrong values =
    # 983,040. Every 122,880th is checked, 8 mutants, none chosen by hand;
    # seed 42 catches none of them. The lines were pinned before sampled mode
    # read mu lazily, and must not change with how mu is read.
    space = make_finite_set(range(1, 5))
    honest = mu_component(space)
    pairs, wrongs = honest.pairs, len(honest.codomain) - 1
    assert len(pairs) * wrongs == 983_040
    lines = []
    for i in range(0, 983_040, 122_880):
        family, right = pairs[i // wrongs]
        wrong = [s for s in honest.codomain if s != right][i % wrongs]
        report = check_associativity(space, samples=10_000, seed=42, mu=mu_corrupted_at(space, family, wrong))
        assert report.passed or report.counterexample.recheck(), report.to_line()
        lines.append(report.to_line())
    assert lines == ["PASS monad-associativity[sampled,seed=42,n=10000] @ {1,2,3,4} checked=10000"] * 8


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
