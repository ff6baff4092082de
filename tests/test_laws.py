from __future__ import annotations

import pytest
from conftest import load_golden

from finmonad import laws
from finmonad.containers import (
    ContainerInstance,
    F1,
    F4,
    Just,
    LIST,
    ListInstance,
    MULTI_SHAPE,
    NOTHING,
    OPTION,
    WRAP,
)
from finmonad.laws import (
    check_bind_join_coherence,
    check_functor_laws,
    check_monad_laws,
    default_generators,
    random_generators,
    run_suite,
)
from finmonad.reports import sweep


# ---------------------------------------------------------------------------
# default panels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("instance", [LIST, OPTION, WRAP, MULTI_SHAPE])
def test_default_panels_are_big_enough(instance):
    gen = default_generators(instance)
    assert len(gen.values) >= 50
    assert len(gen.functions) >= 5
    if instance in (LIST, OPTION):
        assert len(gen.kleisli) >= 5


def test_panels_include_degenerate_cases():
    assert [] in default_generators(LIST).values
    assert NOTHING in default_generators(OPTION).values
    assert 0 in default_generators(LIST).elements


def test_first_tagged_panel_entry_is_the_documented_witness():
    tagged = [v for v in default_generators(MULTI_SHAPE).values if isinstance(v, F4)]
    assert tagged[0] == F4(200)


# ---------------------------------------------------------------------------
# verdicts per instance
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("instance,count", [(LIST, 6), (OPTION, 6), (WRAP, 2)])
def test_well_behaved_instances_pass_every_applicable_law(instance, count):
    reports = run_suite(instance)
    assert len(reports) == count
    assert all(r.passed for r in reports), [r.to_line() for r in reports]


def test_multi_shape_fails_exactly_the_identity_law():
    reports = run_suite(MULTI_SHAPE)
    assert [r.law for r in reports] == ["functor-identity", "functor-composition"]
    identity_report, composition_report = reports
    assert composition_report.passed
    assert not identity_report.passed
    cx = identity_report.counterexample
    assert cx.value == F4(200)
    assert cx.lhs == F1(200)
    assert cx.rhs == F4(200)
    assert cx.recheck()
    assert identity_report.to_line() == (
        "FAIL functor-identity @ multishape witness=F4 200 lhs=F1 200 rhs=F4 200"
    )


def test_multi_shape_composition_holds_even_on_the_tagged_constructor():
    # the retag is consistent, so mapping a composite and mapping in stages
    # agree (both give F1 1200 here); only the identity law breaks
    double = lambda x: x * 2
    triple = lambda x: x * 3
    at_once = MULTI_SHAPE.map(lambda x: double(triple(x)), F4(200))
    staged = MULTI_SHAPE.map(double, MULTI_SHAPE.map(triple, F4(200)))
    assert at_once == staged == F1(1200)


def test_reports_are_deterministic():
    for instance in (LIST, OPTION, WRAP, MULTI_SHAPE):
        first = [r.to_line() for r in run_suite(instance)]
        second = [r.to_line() for r in run_suite(instance)]
        assert first == second


# ---------------------------------------------------------------------------
# single laws on pinned examples
# ---------------------------------------------------------------------------

def test_right_identity_on_a_concrete_list():
    assert LIST.bind(list(range(1, 11)), LIST.unit) == list(range(1, 11))


def test_left_identity_on_a_concrete_option():
    k = lambda x: Just(x * 10) if x > 0 else NOTHING
    assert OPTION.bind(OPTION.unit(5), k) == k(5)
    assert OPTION.bind(OPTION.unit(-5), k) == k(-5)


def test_associativity_by_evaluating_both_nestings():
    ns = [1, 2, 3, 4, 5]
    k = lambda x: [x, x + 1]
    h = lambda x: [2 * x]
    # both nestings, spelled out: k fans each n into (n, n+1), h doubles
    expected = [2 * y for x in ns for y in (x, x + 1)]
    assert expected == [2, 4, 4, 6, 6, 8, 8, 10, 10, 12]
    assert LIST.bind(LIST.bind(ns, k), h) == expected
    assert LIST.bind(ns, lambda x: LIST.bind(k(x), h)) == expected


def test_coherence_on_concrete_cases():
    gen = default_generators(LIST)
    assert check_bind_join_coherence(LIST, gen).passed
    odd_filter = lambda x: [2 * x] if x % 2 else []
    ns = list(range(1, 11))
    assert LIST.bind(ns, odd_filter) == LIST.join(LIST.map(odd_filter, ns)) == [2, 6, 10, 14, 18]
    assert OPTION.bind(NOTHING, lambda x: Just(x)) is NOTHING
    assert LIST.bind([], lambda x: [x]) == []


# ---------------------------------------------------------------------------
# the harness catches planted defects
# ---------------------------------------------------------------------------

class DroppyListInstance(ListInstance):
    """List variant whose join silently drops the first inner container."""

    name = "droppy-list"

    def join(self, mm):
        return [x for inner in mm[1:] for x in inner]


def test_dropping_join_is_detected_with_replayable_witness():
    class LoggedDroppy(DroppyListInstance):
        calls = []

        def bind(self, m, k):
            self.calls.append((list(m), labels.get(k, "inner")))
            return super().bind(m, k)

    droppy = LoggedDroppy()
    gen = default_generators(LIST)
    labels = {k: label for label, k in gen.kleisli}
    left, right, assoc = check_monad_laws(droppy, gen)
    swept = list(droppy.calls)
    assert not right.passed
    assert right.counterexample.recheck()
    assert not left.passed
    assert left.counterexample.recheck()
    assert assoc.to_line() == (
        "FAIL monad-associativity @ droppy-list witness=[-3,7,-3] [unit,unit] lhs=[-3] rhs=[]"
    )
    assert assoc.checked == 1800 == len(gen.values) * len(gen.kleisli) ** 2
    droppy.calls.clear()
    assert assoc.counterexample.recheck()
    # the sweep's last bind calls are the witness case's own: none ran after it
    assert droppy.calls[0] == ([-3, 7, -3], "unit")
    assert swept[-len(droppy.calls):] == droppy.calls


def test_every_failure_is_self_certifying():
    reports = run_suite(MULTI_SHAPE) + check_monad_laws(DroppyListInstance(), default_generators(LIST))
    failures = [r for r in reports if not r.passed]
    assert failures
    for report in failures:
        cx = report.counterexample
        assert cx is not None
        assert cx.lhs != cx.rhs
        assert cx.recheck()


def test_functor_checks_cover_the_cross_product():
    gen = default_generators(WRAP)
    identity_report, composition_report = check_functor_laws(WRAP, gen)
    assert identity_report.checked == len(gen.values)
    assert composition_report.checked == len(gen.values) * len(gen.functions) ** 2


# ---------------------------------------------------------------------------
# an instance gets the laws of the operations its class defines
# ---------------------------------------------------------------------------

class MapOnly(ContainerInstance):
    """A list family that defines map and nothing else."""

    name = "map-only"

    def map(self, f, m):
        return [f(x) for x in m]


class MapUnit(MapOnly):
    name = "map-unit"

    def unit(self, x):
        return [x]


class MapJoin(MapOnly):
    name = "map-join"

    def join(self, mm):
        return [x for inner in mm for x in inner]


class MapUnitJoin(MapJoin):
    name = "map-unit-join"

    def unit(self, x):
        return [x]


FUNCTOR_LAWS = ["functor-identity", "functor-composition"]
MONAD_LAWS = ["monad-left-identity", "monad-right-identity", "monad-associativity"]


@pytest.mark.parametrize("instance,expected", [
    (MapOnly(), FUNCTOR_LAWS),
    (MapUnit(), FUNCTOR_LAWS),
    (MapJoin(), FUNCTOR_LAWS + ["bind-join-coherence"]),
    (MapUnitJoin(), FUNCTOR_LAWS + MONAD_LAWS + ["bind-join-coherence"]),
    (DroppyListInstance(), FUNCTOR_LAWS + MONAD_LAWS + ["bind-join-coherence"]),
], ids=["map", "map-unit", "map-join", "map-unit-join", "list-join"])
def test_an_instance_is_checked_against_the_operations_its_class_defines(instance, expected):
    reports = run_suite(instance, default_generators(LIST))
    assert [r.law for r in reports] == expected
    if not isinstance(instance, DroppyListInstance):
        assert all(r.passed for r in reports), [r.to_line() for r in reports]


# ---------------------------------------------------------------------------
# seeded random panels
# ---------------------------------------------------------------------------

def test_random_panels_are_reproducible():
    for instance in (LIST, OPTION, WRAP, MULTI_SHAPE):
        first = [r.to_line() for r in run_suite(instance, random_generators(instance, seed=3))]
        second = [r.to_line() for r in run_suite(instance, random_generators(instance, seed=3))]
        assert first == second


def test_random_panels_refuse_sizes_below_two():
    # size 2 is the smallest panel with room for the forced degenerate values;
    # below it, panels came out short and an empty one passed every law vacuously
    for instance in (LIST, OPTION, WRAP, MULTI_SHAPE):
        for size in (-1, 0, 1):
            with pytest.raises(ValueError, match="at least 2"):
                random_generators(instance, size=size)
        assert len(random_generators(instance, size=2).values) == 2


def test_panels_refuse_an_instance_they_have_no_entry_for():
    droppy = DroppyListInstance()
    with pytest.raises(ValueError, match="^no default generators for <instance droppy-list>$"):
        default_generators(droppy)
    with pytest.raises(ValueError, match="^no random generators for <instance droppy-list>$"):
        random_generators(droppy)
    # the size is refused before the instance is looked up
    with pytest.raises(ValueError, match="at least 2"):
        random_generators(droppy, size=1)


def test_forced_values_are_built_fresh_on_each_call():
    first = random_generators(LIST, size=2)
    first.values[0].append(9)
    assert random_generators(LIST, size=2).values == ([], [0])


def test_random_panel_reports_match_the_golden():
    # every report of the four instances and the droppy list at size 300;
    # a FAIL line has its `checked` appended, since the grammar omits it
    lines = []
    for seed in range(3):
        for instance, panels in ((LIST, LIST), (OPTION, OPTION), (WRAP, WRAP), (MULTI_SHAPE, MULTI_SHAPE),
                                 (DroppyListInstance(), LIST)):
            lines.append(f"# {instance.name} seed={seed} size=300")
            for report in run_suite(instance, random_generators(panels, seed=seed, size=300)):
                assert report.passed or report.counterexample.recheck()
                lines.append(report.to_line() if report.passed else f"{report.to_line()} checked={report.checked}")
    assert lines == load_golden("laws_random.txt").splitlines()


def test_associativity_evaluates_each_distinct_value_once(monkeypatch):
    gen = random_generators(OPTION, seed=1, size=1000)
    calls = []

    def counted(law, subject, sides, values, panel):
        if law == "monad-associativity":
            return sweep(law, subject, lambda *case: calls.append(case) or sides(*case), values, panel)
        return sweep(law, subject, sides, values, panel)

    monkeypatch.setattr(laws, "sweep", counted)
    assoc = check_monad_laws(OPTION, gen)[2]
    distinct = len({repr(value) for value in gen.values})
    assert distinct == 199
    assert len(calls) == distinct * 36 == 7164
    assert assoc.to_line() == "PASS monad-associativity @ option checked=36000"


def test_random_sweeps_agree_with_curated_verdicts():
    for instance in (LIST, OPTION, WRAP):
        reports = run_suite(instance, random_generators(instance, seed=11, size=150))
        assert all(r.passed for r in reports), [r.to_line() for r in reports]

    gen = random_generators(MULTI_SHAPE, seed=11, size=150)
    assert any(isinstance(v, F4) for v in gen.values)
    identity_report = check_functor_laws(MULTI_SHAPE, gen)[0]
    assert not identity_report.passed
    assert isinstance(identity_report.counterexample.value, F4)
    assert identity_report.counterexample.recheck()
