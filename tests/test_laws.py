from __future__ import annotations

from functools import partial
from itertools import product

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
from finmonad.render import show
from finmonad.reports import Counterexample, LawReport, sweep


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
    streams, calls = [], []

    def counted(law, subject, cases, values, per_value):
        if law != "monad-associativity":
            return sweep(law, subject, cases, values, per_value)

        def counting(value):
            streams.append(value)
            for case in cases(value):
                calls.append(case)
                yield case

        return sweep(law, subject, counting, values, per_value)

    monkeypatch.setattr(laws, "sweep", counted)
    assoc = check_monad_laws(OPTION, gen)[2]
    distinct = len({repr(value) for value in gen.values})
    assert distinct == 199
    assert len({repr(value) for value in streams}) == len(streams) == distinct
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


# ---------------------------------------------------------------------------
# the per-value case streams against the flat sweep they replaced
# ---------------------------------------------------------------------------

def flat_sweep(law, subject, sides, values, panel):
    """The sweep as it was before case streams: `sides(value, *args)` over every
    distinct value and every `(labels, *args)` panel entry, values outermost,
    each case evaluated from scratch."""
    checked = len(values) * len(panel)
    distinct = {}
    for value in values:
        distinct.setdefault(repr(value), value)
    for value, (labels, *args) in product(distinct.values(), panel):
        lhs, rhs = sides(value, *args)
        if lhs != rhs:
            witness = Counterexample(value, lhs, rhs, labels, partial(sides, value, *args))
            return LawReport(law, subject, checked, witness)
    return LawReport(law, subject, checked)


def flat_suite(instance, gen):
    """`run_suite` through `flat_sweep`, each law's two sides written as one lambda."""
    identity = lambda m: (instance.map(lambda x: x, m), m)
    composition = lambda m, f, g: (instance.map(lambda x: f(g(x)), m), instance.map(f, instance.map(g, m)))
    left = lambda x, k: (instance.bind(instance.unit(x), k), k(x))
    right = lambda m: (instance.bind(m, instance.unit), m)
    assoc = lambda m, k, h: (
        instance.bind(instance.bind(m, k), h),
        instance.bind(m, lambda x: instance.bind(k(x), h)),
    )
    coherence = lambda m, k: (instance.bind(m, k), instance.join(instance.map(k, m)))
    composites = [((f_label, g_label), f, g) for f_label, f in gen.functions for g_label, g in gen.functions]
    kleisli = [((label,), k) for label, k in gen.kleisli]
    pairs = [((k_label, h_label), k, h) for k_label, k in gen.kleisli for h_label, h in gen.kleisli]
    law = lambda name, sides, values, panel: flat_sweep(name, instance.name, sides, values, panel)
    defines = lambda op: getattr(type(instance), op) is not getattr(ContainerInstance, op)
    reports = [
        law("functor-identity", identity, gen.values, [((),)]),
        law("functor-composition", composition, gen.values, composites),
    ]
    if defines("unit") and defines("join"):
        reports += [
            law("monad-left-identity", left, gen.elements, kleisli),
            law("monad-right-identity", right, gen.values, [(("unit",),)]),
            law("monad-associativity", assoc, gen.values, pairs),
        ]
    if defines("join"):
        reports.append(law("bind-join-coherence", coherence, gen.values, kleisli))
    return reports


_FUNCTION = dict(default_generators(LIST).functions)
_KLEISLI = dict(default_generators(LIST).kleisli)


class _Marked(list):
    """A list that remembers it came out of one particular panel function."""


class LateCompositionList(ListInstance):
    """map(square) appends a 0 to a nonempty list that map(negate) returned, so
    functor composition fails only at the late pair (square, negate)."""

    name = "late-composition"

    def map(self, f, m):
        out = super().map(f, m)
        if f is _FUNCTION["negate"]:
            return _Marked(out)
        if f is _FUNCTION["square"] and isinstance(m, _Marked) and m:
            out.append(0)
        return out


class LateAssociativityList(ListInstance):
    """bind(·, mirror) appends a 0 to a nonempty list that bind(·, const-7)
    returned, so associativity fails only at the late pair (const-7, mirror)."""

    name = "late-associativity"

    def bind(self, m, k):
        out = super().bind(m, k)
        if k is _KLEISLI["const-7"]:
            return _Marked(out)
        if k is _KLEISLI["mirror"] and isinstance(m, _Marked) and m:
            out.append(0)
        return out


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("instance,panels", [
    (LIST, LIST), (OPTION, OPTION), (WRAP, WRAP), (MULTI_SHAPE, MULTI_SHAPE), (DroppyListInstance(), LIST),
    (LateCompositionList(), LIST), (LateAssociativityList(), LIST),
], ids=lambda x: x.name)
def test_case_streams_agree_with_the_flat_sweep(instance, panels, seed):
    gen = random_generators(panels, seed=seed, size=300)
    streamed, flat = run_suite(instance, gen), flat_suite(instance, gen)
    assert [r.to_line() for r in streamed] == [r.to_line() for r in flat]
    for got, want in zip(streamed, flat):
        assert (got.law, got.checked, got.passed) == (want.law, want.checked, want.passed)
        if not got.passed:
            cx, oracle = got.counterexample, want.counterexample
            assert cx.value is oracle.value and cx.labels == oracle.labels
            assert (cx.lhs, cx.rhs) == (oracle.lhs, oracle.rhs)
            assert (repr(cx.lhs), repr(cx.rhs)) == (repr(oracle.lhs), repr(oracle.rhs))
            assert cx.recheck() and oracle.recheck()


def test_late_planted_defects_fail_only_their_law_at_their_pair():
    gen = random_generators(LIST, seed=0, size=300)
    failures = lambda instance: [r.to_line() for r in run_suite(instance, gen) if not r.passed]
    assert failures(LateCompositionList()) == [
        "FAIL functor-composition @ late-composition witness=[0] [square,negate] lhs=[0] rhs=[0,0]"
    ]
    assert failures(LateAssociativityList()) == [
        "FAIL monad-associativity @ late-associativity witness=[0] [const-7,mirror] lhs=[7,-7,0] rhs=[7,-7]"
    ]


# ---------------------------------------------------------------------------
# what one value's cases share is evaluated once
# ---------------------------------------------------------------------------

class CountingList(ListInstance):
    """The list monad, logging each map and bind call as (op, function, container)."""

    name = "counting-list"

    def __init__(self):
        self.log = []

    def map(self, f, m):
        self.log.append(("map", f, m))
        return super().map(f, m)

    def bind(self, m, k):
        self.log.append(("bind", k, m))
        return super().bind(m, k)


def logged_suite(monkeypatch, instance, gen, check=run_suite):
    """`check(instance, gen)` and, per law, the calls its sweep logged."""
    per_law = {}

    def logged(law, subject, cases, values, per_value):
        instance.log.clear()
        report = sweep(law, subject, cases, values, per_value)
        per_law[law] = list(instance.log)
        return report

    monkeypatch.setattr(laws, "sweep", logged)
    return check(instance, gen), per_law


def test_each_value_maps_each_g_once_and_binds_each_k_once(monkeypatch):
    gen = random_generators(LIST, seed=0, size=300)
    reports, per_law = logged_suite(monkeypatch, CountingList(), gen)
    assert all(r.passed for r in reports)
    distinct = len({repr(value) for value in gen.values})
    swept = {id(value) for value in gen.values}
    functions = {f for _, f in gen.functions}
    kleisli = {k for _, k in gen.kleisli}
    composition = per_law["functor-composition"]
    # per value: 36 composites map(f∘g, m), 36 map(f, map(g, m)) and 6 map(g, m)
    assert {op for op, _, _ in composition} == {"map"}
    assert len(composition) == distinct * (36 + 36 + 6)
    assert sum(f in functions and id(m) in swept for _, f, m in composition) == distinct * 6
    # per value: the 6 bind(m, k), each shared by the 6 h that follow it
    outer = [k for op, k, m in per_law["monad-associativity"] if op == "bind" and k in kleisli and id(m) in swept]
    assert len(outer) == distinct * 6


def test_a_value_failing_its_first_case_maps_no_later_g(monkeypatch):
    gen = random_generators(LIST, seed=0, size=300)
    first = {}
    for value in gen.values:
        first.setdefault(repr(value), value)
    witness = list(first.values())[5]
    functions = {f for _, f in gen.functions}

    class BreaksAtWitness(CountingList):
        def map(self, f, m):
            out = super().map(f, m)
            return out + [0] if m is witness and f not in functions else out

    reports, per_law = logged_suite(monkeypatch, BreaksAtWitness(), gen, check_functor_laws)
    composition = reports[1]
    assert composition.to_line() == (
        f"FAIL functor-composition @ counting-list witness={show(witness)} [id,id] "
        f"lhs={show(witness + [0])} rhs={show(witness)}"
    )
    assert composition.counterexample.recheck()
    log = per_law["functor-composition"]
    # five whole values, then the witness's first case alone: map(id∘id, m),
    # map(id, m) and map(id, map(id, m)), and no map(g, m) for any later g
    assert len(log) == 5 * 78 + 3
    assert [f for _, f, m in log if m is witness][1:] == [gen.functions[0][1]]
