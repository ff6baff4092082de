"""The contract every immutable record of the library keeps: exact-class
equality and hashing, refused mutation, stable `repr` text, positional match
patterns, and copies and pickles that rebuild an equal record."""

from __future__ import annotations

import copy
import pickle

import pytest

from finmonad import (
    Counterexample,
    ETA,
    Endofunctor,
    F1,
    F2,
    F3,
    F4,
    Generators,
    IDENTITY_FUNCTOR,
    Just,
    LawReport,
    NOTHING,
    NatTransform,
    POWERSET,
    Wrap,
    eta_component,
)

# one record of each of the eleven classes, every field picklable
RECORDS = [
    Just(1),
    Wrap(2),
    F1(3),
    F2([1, NOTHING]),
    F3((1, 2)),
    F4(4),
    Generators((Just(NOTHING), NOTHING), (0, 1), (), ()),
    Counterexample(Just(NOTHING), 1, 2, ("id",), None),
    LawReport("a", "b", 1, Counterexample(F4(200), F1(200), F4(200), (), None)),
    Endofunctor("P", 1),
    NatTransform("eta", IDENTITY_FUNCTOR, POWERSET, eta_component),
]

COPIERS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda record: pickle.loads(pickle.dumps(record)),
}


def fields(record) -> tuple:
    return tuple(getattr(record, name) for name in record.__match_args__)


def test_the_panel_holds_every_record_class():
    assert len({type(record) for record in RECORDS}) == 11


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_a_record_equals_one_of_its_class_with_equal_fields(record):
    twin = type(record)(*fields(record))
    assert twin is not record and twin == record and not twin != record
    if not isinstance(record, F2):  # a list field makes F2 unhashable
        assert hash(twin) == hash(record)


def test_equality_needs_the_exact_class_and_equal_fields():
    assert F4(1) != F1(1) and F1(1) != F4(1)
    assert Just(1) != Wrap(1) and Wrap(1) != 1 and Just(1) != Just(2)
    assert Endofunctor("P", 1) != Endofunctor("P", 2)
    nan = float("nan")
    assert Just(nan) == Just(nan) and F3((nan, 1)) == F3((nan, 1))


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_fields_can_be_neither_assigned_nor_deleted(record):
    for name in record.__match_args__:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before
    with pytest.raises(AttributeError):
        record.extra = 0


def test_repr_text_is_pinned():
    assert repr(Just(1)) == "Just(1)"
    assert repr(Wrap(2)) == "Wrap(value=2)"
    assert repr(F2([1])) == "F2(values=[1])"
    assert repr(F3((1, 2))) == "F3(pair=(1, 2))"
    assert repr(LawReport("a", "b", 1)) == "LawReport(law='a', subject='b', checked=1, counterexample=None)"
    assert repr(Endofunctor("P", 1)) == "Endofunctor(name='P', depth=1)"


def test_a_law_report_without_a_counterexample_passed():
    report = LawReport("a", "b", 1)
    assert report.counterexample is None and report.passed
    assert report == LawReport("a", "b", 1, None)


@pytest.mark.parametrize("copier", COPIERS.values(), ids=COPIERS)
def test_copies_and_pickles_rebuild_an_equal_record(copier):
    for record in RECORDS:
        twin = copier(record)
        assert type(twin) is type(record) and twin == record
    assert copier(Just(NOTHING)).value is NOTHING
    assert copier(F2([NOTHING])).values[0] is NOTHING
    assert copier(Generators((NOTHING,), (), (), ())).values[0] is NOTHING
    assert copier(ETA).component_at is eta_component


def test_a_record_refuses_the_wrong_number_of_fields():
    with pytest.raises(TypeError, match="^Generators takes 4 fields, got 2$"):
        Generators(1, 2)


def test_match_patterns_bind_fields_by_position():
    match Just(3):
        case Just(x):
            assert x == 3
        case _:
            pytest.fail("Just(3) did not match Just(x)")
    match LawReport("a", "b", 1):
        case LawReport(law, subject, checked, None):
            assert (law, subject, checked) == ("a", "b", 1)
        case _:
            pytest.fail("a passing report did not match")
