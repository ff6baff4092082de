from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from finmonad.finset import (
    CodomainViolationError,
    CompositionMismatchError,
    DuplicateKeyError,
    EnumerationTooLargeError,
    FiniteFunction,
    FiniteSet,
    MissingMappingError,
    NotInDomainError,
    apply,
    atom_key,
    compose,
    enumerate_functions,
    identity,
    make_finite_set,
    make_function,
    make_subset,
)

EVEN = "This is an even Number"
ODD = "This is an ODD number"


def parity_arrow():
    ints = make_finite_set([16, 27])
    bools = make_finite_set([True, False])
    return make_function(ints, bools, {16: True, 27: False})


def labeling_arrow():
    bools = make_finite_set([True, False])
    strings = make_finite_set([EVEN, ODD])
    return make_function(bools, strings, {True: EVEN, False: ODD})


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_make_function_parity_arrow():
    g = parity_arrow()
    assert apply(g, 16) is True
    assert apply(g, 27) is False


def test_empty_function_is_valid():
    empty = make_finite_set()
    f = make_function(empty, make_finite_set([1, 2]), {})
    assert f.pairs == ()


def test_missing_mapping_rejected():
    with pytest.raises(MissingMappingError):
        make_function(make_finite_set([1, 2]), make_finite_set(["a"]), {1: "a"})


def test_duplicate_key_rejected():
    with pytest.raises(DuplicateKeyError):
        make_function(make_finite_set([1]), make_finite_set(["a"]), [(1, "a"), (1, "a")])


def test_codomain_violation_rejected():
    with pytest.raises(CodomainViolationError):
        make_function(make_finite_set([1]), make_finite_set(["a"]), {1: "b"})


def test_unknown_table_key_rejected():
    with pytest.raises(NotInDomainError):
        make_function(make_finite_set([1]), make_finite_set(["a"]), {1: "a", 2: "a"})


def test_apply_outside_domain():
    with pytest.raises(NotInDomainError):
        apply(parity_arrow(), 99)


def test_arrow_equality_requires_same_endpoints():
    domain = make_finite_set([1, 2])
    narrow = make_function(domain, domain, {1: 1, 2: 2})
    wide = make_function(domain, make_finite_set([1, 2, 3]), {1: 1, 2: 2})
    assert narrow.pairs == wide.pairs
    assert narrow != wide


def test_equal_arrows_hash_alike():
    domain = make_finite_set([1, 2])
    f = make_function(domain, domain, {1: 1, 2: 2})
    g = make_function(domain, domain, {1: 1, 2: 2})
    h = make_function(domain, domain, {1: 1, 2: 1})
    assert f == g and hash(f) == hash(g)
    assert f != h
    # a table handed over out of domain order is still the same arrow
    letters = make_finite_set(["a", "b"])
    shuffled = FiniteFunction(domain, letters, ((2, "a"), (1, "b")))
    ordered = make_function(domain, letters, {1: "b", 2: "a"})
    assert shuffled == ordered and ordered == shuffled and hash(shuffled) == hash(ordered)


# ---------------------------------------------------------------------------
# identity and composition
# ---------------------------------------------------------------------------

def test_identity_table():
    space = make_finite_set([1, 2, 3])
    assert identity(space).pairs == ((1, 1), (2, 2), (3, 3))
    assert identity(make_finite_set()).pairs == ()


def test_identity_absorbs_into_parity_arrow():
    g = parity_arrow()
    assert compose(identity(g.codomain), g) == g
    assert compose(g, identity(g.domain)) == g


def test_parity_then_labeling_pipeline():
    pipeline = compose(labeling_arrow(), parity_arrow())
    assert apply(pipeline, 16) == EVEN
    assert apply(pipeline, 27) == ODD


def test_composition_mismatch():
    with pytest.raises(CompositionMismatchError):
        compose(parity_arrow(), parity_arrow())


def test_composition_agrees_with_pointwise_application():
    a = make_finite_set([1, 2])
    b = make_finite_set(["x", "y"])
    for f in enumerate_functions(a, b):
        for g in enumerate_functions(b, a):
            gf = compose(g, f)
            for x in a:
                assert apply(gf, x) == apply(g, apply(f, x))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumeration_count_matches_combinatorics():
    fns = list(enumerate_functions(make_finite_set([1, 2]), make_finite_set("abc")))
    assert len(fns) == 3 ** 2
    assert len({f.pairs for f in fns}) == len(fns)
    for f in fns:
        assert [x for x, _ in f.pairs] == [1, 2]


def test_enumeration_from_empty_domain():
    fns = list(enumerate_functions(make_finite_set(), make_finite_set([1, 2, 3])))
    assert len(fns) == 1
    assert fns[0].pairs == ()


def test_enumeration_into_empty_codomain():
    assert list(enumerate_functions(make_finite_set([1]), make_finite_set())) == []


def test_enumeration_cap_is_eager():
    big = make_finite_set(range(20))
    two = make_finite_set([0, 1])
    with pytest.raises(EnumerationTooLargeError):
        enumerate_functions(big, two)  # 2^20 > 10^6, raised before any yield
    at_cap = enumerate_functions(make_finite_set(range(6)), make_finite_set(range(10)))
    assert sum(1 for _ in at_cap) == 10**6  # exactly the cap is allowed


# ---------------------------------------------------------------------------
# category laws, exhaustively
# ---------------------------------------------------------------------------

def _carriers(size, atoms):
    return make_finite_set(atoms[:size])


def test_identity_laws_up_to_size_three():
    ints = (1, 2, 3)
    strs = ("a", "b", "c")
    for a in range(4):
        for b in range(4):
            dom = _carriers(a, ints)
            cod = _carriers(b, strs)
            for f in enumerate_functions(dom, cod):
                assert compose(identity(cod), f) == f
                assert compose(f, identity(dom)) == f


def test_associativity_over_all_two_element_triples():
    a = make_finite_set([1, 2])
    b = make_finite_set([3, 4])
    c = make_finite_set([5, 6])
    d = make_finite_set([7, 8])
    triples = 0
    for f in enumerate_functions(a, b):
        for g in enumerate_functions(b, c):
            for h in enumerate_functions(c, d):
                assert compose(h, compose(g, f)) == compose(compose(h, g), f)
                triples += 1
    assert triples == 64


# ---------------------------------------------------------------------------
# canonical representation
# ---------------------------------------------------------------------------

atoms = st.one_of(st.integers(-50, 50), st.booleans(), st.text(max_size=3))


@given(st.lists(atoms, max_size=8).flatmap(lambda xs: st.permutations(xs).map(lambda p: (xs, p))))
def test_permutations_build_equal_sets(pair):
    original, permuted = pair
    left = make_finite_set(original)
    right = make_finite_set(permuted)
    assert left == right
    assert left.elements == right.elements
    assert hash(left) == hash(right)


@given(st.lists(atoms, max_size=8))
def test_sets_have_no_duplicates(xs):
    s = make_finite_set(xs)
    assert len(s.elements) == len(set(s.elements))
    for x in xs:
        assert x in s


# ---------------------------------------------------------------------------
# subsets are finite sets
# ---------------------------------------------------------------------------

def test_a_subset_is_the_finite_set_of_its_members():
    a = make_subset(make_finite_set([1, 2, 3]), [2, 1])
    b = make_subset(make_finite_set([1, 2]), [1, 2])
    c = make_finite_set([1, 2])
    assert a == b == c
    assert hash(a) == hash(b) == hash(c)


def test_mixed_atoms_sort_ints_then_strings_then_sets():
    empty, two = make_finite_set(), make_finite_set([2])
    mixed = make_finite_set([two, "a", 3, empty, 1])
    assert mixed.elements == (1, 3, "a", empty, two)


def test_constructor_trusts_its_input_and_make_finite_set_canonicalizes():
    atoms = (2, 1, 2)
    assert FiniteSet(atoms).elements is atoms
    assert make_finite_set(atoms).elements == (1, 2)


def test_sort_key_and_member_set_are_built_on_first_read():
    inner = make_finite_set([2, "a"])
    s = FiniteSet((1, inner))
    with pytest.raises(AttributeError):
        FiniteSet._member_set.__get__(s)  # unset until the first read
    assert s.member_set == frozenset({1, inner})
    assert s.member_set is s.member_set is FiniteSet._member_set.__get__(s)
    assert atom_key(s) == (2, ((0, 1), (2, ((0, 2), (1, "a")))))
    assert hash(s) == hash((1, inner))
