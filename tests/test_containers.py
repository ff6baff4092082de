from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finmonad.containers import (
    F1,
    F2,
    F3,
    F4,
    Just,
    LIST,
    MULTI_SHAPE,
    NOTHING,
    OPTION,
    PHONEBOOK,
    UnsupportedOperationError,
    WRAP,
    Wrap,
    extract_or_zero,
    guarded_log,
    guarded_one_minus_sqrt,
    guarded_sqrt,
    lookup,
    nub,
    pythagorean_triples,
    safe_head,
)

approx = lambda x: pytest.approx(x, abs=1e-5)


# ---------------------------------------------------------------------------
# unit / map / join / bind
# ---------------------------------------------------------------------------

def test_units():
    assert LIST.unit(7) == [7]
    assert OPTION.unit(5) == Just(5)
    assert WRAP.unit(3) == Wrap(3)
    with pytest.raises(UnsupportedOperationError):
        MULTI_SHAPE.unit(1)


def test_wrapper_maps():
    thing = Wrap(45)
    assert WRAP.map(lambda x: x * 2, thing) == Wrap(90)
    assert WRAP.map(lambda x: [x], thing) == Wrap([45])
    assert WRAP.map(lambda x: [2 * x + 1], thing) == Wrap([91])


def test_multi_shape_maps():
    double = lambda x: x * 2
    assert MULTI_SHAPE.map(double, F2([100, 1000, 10000, 100000])) == F2([200, 2000, 20000, 200000])
    assert MULTI_SHAPE.map(double, F3((400, 500))) == F3((800, 1000))
    assert MULTI_SHAPE.map(double, F1(10)) == F1(20)
    # the deliberate defect: the fourth constructor comes back retagged
    assert MULTI_SHAPE.map(lambda x: x, F4(200)) == F1(200)
    assert MULTI_SHAPE.map(lambda x: x, F4(200)) != F4(200)


def test_list_map_of_filtering_function():
    odd_filter = lambda x: [2 * x] if x % 2 else []
    assert LIST.map(odd_filter, list(range(1, 11))) == [
        [2], [], [6], [], [10], [], [14], [], [18], [],
    ]


def test_list_join_flattens_in_order():
    assert LIST.join([[2], [], [6], [], [10], [], [14], [], [18], []]) == [2, 6, 10, 14, 18]
    pairs = [[x, x + 1] for x in range(1, 11)]
    assert LIST.join(pairs) == [
        1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11,
    ]


def test_option_join():
    assert OPTION.join(Just(Just(5))) == Just(5)
    assert OPTION.join(Just(NOTHING)) is NOTHING
    assert OPTION.join(NOTHING) is NOTHING


def test_option_join_refuses_a_payload_that_is_not_an_option():
    with pytest.raises(TypeError, match=r"^join expects a nested option, got Just\(3\)$"):
        OPTION.join(Just(3))


def test_multi_shape_map_refuses_a_value_of_no_shape():
    with pytest.raises(TypeError, match="^not a multishape value: 3$"):
        MULTI_SHAPE.map(lambda x: x, 3)


def test_join_unsupported_shapes():
    with pytest.raises(UnsupportedOperationError):
        WRAP.join(Wrap(Wrap(1)))
    with pytest.raises(UnsupportedOperationError):
        MULTI_SHAPE.join(F1(F1(1)))


def test_list_bind():
    ns = list(range(1, 11))
    assert LIST.bind(ns, LIST.unit) == ns
    assert LIST.bind(ns, lambda x: [2 * x] if x % 2 else []) == [2, 6, 10, 14, 18]
    assert LIST.bind([], lambda x: [x, x]) == []


def test_option_bind_short_circuits():
    calls = []

    def k(x):
        calls.append(x)
        return Just(x + 1)

    assert OPTION.bind(NOTHING, k) is NOTHING
    assert calls == []
    assert OPTION.bind(Just(5), k) == Just(6)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def test_nub():
    assert nub([1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11]) == list(range(1, 12))
    assert nub([]) == []
    assert nub([3, 1, 3, 1]) == [3, 1]


@given(st.lists(st.integers(-20, 20)))
def test_nub_keeps_first_occurrences(xs):
    seen, expected = set(), []
    for x in xs:
        if x not in seen:
            seen.add(x)
            expected.append(x)
    assert nub(xs) == expected


def test_safe_head():
    assert safe_head([]) is NOTHING
    assert safe_head([6, 1, 2]) == Just(6)


@given(st.integers())
def test_safe_head_singleton(x):
    assert safe_head([x]) == Just(x)


def test_phonebook_lookup():
    assert lookup("Ali", PHONEBOOK) == Just("96552233")
    assert lookup("Salem", PHONEBOOK) is NOTHING
    assert lookup("Mohsen", PHONEBOOK) == Just("")


# ---------------------------------------------------------------------------
# pythagorean triples
# ---------------------------------------------------------------------------

def brute_force_triples(n, strict):
    out = []
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            for z in range(1, n + 1):
                if x * x + y * y == z * z and (not strict or x < y < z):
                    out.append((x, y, z))
    return out


def test_triples_n9():
    assert pythagorean_triples(9) == [(3, 4, 5), (4, 3, 5)]


def test_triples_n25_strict():
    assert pythagorean_triples(25, strict=True) == [
        (3, 4, 5), (5, 12, 13), (6, 8, 10), (7, 24, 25),
        (8, 15, 17), (9, 12, 15), (12, 16, 20), (15, 20, 25),
    ]


def test_triples_none_below_five():
    assert pythagorean_triples(4) == []
    assert pythagorean_triples(4, strict=True) == []
    assert brute_force_triples(4, strict=False) == []


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 20))
def test_triples_match_brute_force(n):
    assert pythagorean_triples(n) == brute_force_triples(n, strict=False)
    strict = pythagorean_triples(n, strict=True)
    assert strict == brute_force_triples(n, strict=True)
    plain = set(pythagorean_triples(n))
    for x, y, z in strict:
        assert x < y < z
        assert (x, y, z) in plain


# ---------------------------------------------------------------------------
# guarded numeric pipelines
# ---------------------------------------------------------------------------

def test_guarded_square_roots():
    assert guarded_one_minus_sqrt(3).value == approx(-0.7320508)
    assert guarded_one_minus_sqrt(-3) is NOTHING
    assert guarded_one_minus_sqrt(0) == Just(1.0)
    assert guarded_sqrt(0) == Just(0.0)
    assert guarded_sqrt(-1) is NOTHING


def test_guarded_log_pipeline():
    assert guarded_log(guarded_one_minus_sqrt(0)) == Just(0.0)
    assert guarded_log(guarded_one_minus_sqrt(1)) is NOTHING   # log needs a positive payload
    assert guarded_log(guarded_one_minus_sqrt(3)) is NOTHING   # negative payload
    assert guarded_log(NOTHING) is NOTHING


def test_extraction_pipeline():
    assert extract_or_zero(guarded_log(guarded_sqrt(0.5))) == approx(-0.34657362)
    assert extract_or_zero(guarded_log(guarded_sqrt(5))) == approx(0.804719)
    assert extract_or_zero(guarded_log(guarded_sqrt(-3))) == 0.0
    assert extract_or_zero(guarded_log(guarded_sqrt(1))) == 0.0
    assert extract_or_zero(NOTHING) == 0.0


@given(st.floats(min_value=-100, max_value=100, allow_nan=False))
def test_error_propagates_through_any_chain(x):
    # once a stage yields NOTHING, every continuation stays NOTHING
    stage1 = guarded_one_minus_sqrt(x)
    stage2 = guarded_log(stage1)
    stage3 = guarded_log(stage2)
    if stage1 is NOTHING:
        assert stage2 is NOTHING
    if stage2 is NOTHING:
        assert stage3 is NOTHING


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------

@given(st.integers(1, 100))
def test_pairing_bind_doubles_length(n):
    ns = list(range(1, n + 1))
    assert len(LIST.bind(ns, lambda x: [x, x + 1])) == 2 * n


@given(st.lists(st.integers(-50, 50), max_size=20))
def test_map_preserves_list_length(xs):
    assert len(LIST.map(lambda x: x + 1, xs)) == len(xs)


@given(st.integers(-50, 50))
def test_map_preserves_shape_tags(x):
    f = lambda v: v * 2
    assert isinstance(OPTION.map(f, Just(x)), Just)
    assert OPTION.map(f, NOTHING) is NOTHING
    assert isinstance(WRAP.map(f, Wrap(x)), Wrap)
    assert isinstance(MULTI_SHAPE.map(f, F1(x)), F1)
    assert isinstance(MULTI_SHAPE.map(f, F2([x])), F2)
    assert isinstance(MULTI_SHAPE.map(f, F3((x, x))), F3)
    # and provably not for the fourth constructor
    assert not isinstance(MULTI_SHAPE.map(f, F4(x)), F4)


@given(st.lists(st.integers(-20, 20), max_size=12))
def test_list_bind_is_join_after_map(xs):
    k = lambda x: [x, -x] if x % 3 else []
    assert LIST.bind(xs, k) == LIST.join(LIST.map(k, xs))


@given(st.one_of(st.none(), st.integers(-20, 20)))
def test_option_bind_is_join_after_map(payload):
    m = NOTHING if payload is None else Just(payload)
    k = lambda x: Just(x * 2) if x % 2 == 0 else NOTHING
    assert OPTION.bind(m, k) == OPTION.join(OPTION.map(k, m))
