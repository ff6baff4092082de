"""Panel-driven checker for functor and monad laws on container instances.

The laws are universally quantified equations, so they are checked over
finite, curated panels of values and of `(label, function)` pairs rather than
random streams: identical inputs always produce byte-identical report sequences,
and a failing law reports the first failing panel entry as a replayable
counterexample. Panels are ordered smallest-first and include the degenerate
cases (empty list, NOTHING, zero). For larger sweeps, `random_generators`
builds seeded random panels with the same determinism guarantee.

Each law is one `sides` function handed to `reports.sweep` with its values
and its panel of `(labels, *args)` entries. A sweep stops at the first
failing case and evaluates a repeated value once, but its `checked` still
counts every value times every panel entry.
"""

from __future__ import annotations

import random

from .containers import (
    ContainerInstance,
    F1,
    F2,
    F3,
    F4,
    Just,
    LIST,
    MULTI_SHAPE,
    NOTHING,
    OPTION,
    Record,
    WRAP,
    Wrap,
)
from .reports import LawReport, sweep


class Generators(Record):
    """The finite panels, each a tuple, that one law sweep is quantified over.

    values: container values; elements: raw payloads for laws that start
    from a plain value; functions: endofunctions on payloads; kleisli:
    payload-to-container functions. Both function panels hold
    `(label, function)` pairs; the label is how a case names the function.
    """

    __slots__ = ("values", "elements", "functions", "kleisli")


def _identity(x):
    return x


_FUNCTIONS = (
    ("id", _identity),
    ("×2", lambda x: x * 2),
    ("×3", lambda x: x * 3),
    ("+1", lambda x: x + 1),
    ("negate", lambda x: -x),
    ("square", lambda x: x * x),
)

_ELEMENTS = tuple(range(-6, 7))

_LIST_KLEISLI = (
    ("unit", lambda x: [x]),
    ("dup-succ", lambda x: [x, x + 1]),
    ("odd-filter", lambda x: [x * 2] if x % 2 else []),
    ("drop", lambda x: []),
    ("mirror", lambda x: [x, -x]),
    ("const-7", lambda x: [7]),
)

_OPTION_KLEISLI = (
    ("unit", lambda x: Just(x)),
    ("guard-pos", lambda x: Just(x) if x > 0 else NOTHING),
    ("guard-even", lambda x: Just(x) if x % 2 == 0 else NOTHING),
    ("halve", lambda x: Just(x // 2) if x % 2 == 0 else NOTHING),
    ("drop", lambda x: NOTHING),
    ("negate-just", lambda x: Just(-x)),
)


def _list_values() -> tuple:
    values = [[]]
    values += [[x] for x in range(-5, 6)]
    values += [[a, b] for a in (-1, 0, 1, 2) for b in (-1, 0, 1, 2)]
    values += [list(range(1, k + 1)) for k in range(2, 11)]
    values += [[x] * 3 for x in (0, 1, 2, 5)]
    values += [[a, b, c] for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    values += [[5, 5], [1, 2, 1, 2], [-3, 7, -3], [9, 8, 7, 6, 5, 4, 3, 2, 1]]
    unique = list(dict.fromkeys(tuple(v) for v in values))
    unique.sort(key=lambda t: (len(t), t))
    return tuple(list(t) for t in unique)


def _option_values() -> tuple:
    return (NOTHING,) + tuple(Just(x) for x in range(-25, 25))


def _wrap_values() -> tuple:
    return tuple(Wrap(x) for x in range(-25, 25))


def _multi_shape_values() -> tuple:
    # the F4 block starts at 200 so the identity-law counterexample is the
    # same value the defect is documented with
    plain = tuple(F1(x) for x in range(-5, 8))
    lists = tuple(
        F2(v)
        for v in (
            [], [0], [1], [-1], [2], [7],
            [1, 2], [2, 1], [0, 0], [1, 2, 3], [5, 5, 5, 5],
            [1, 2, 3, 4, 5], [100, 1000, 10000, 100000],
        )
    )
    pairs = tuple(
        F3(p)
        for p in (
            (0, 0), (0, 1), (1, 0), (1, 1), (-1, 2), (2, -1),
            (3, 5), (5, 3), (10, 10), (-7, -9), (400, 500),
        )
    )
    tagged = tuple(F4(x) for x in range(200, 213))
    return plain + lists + pairs + tagged


def _random_shape(rng, draw):
    pick = rng.randrange(4)
    if pick == 0:
        return F1(draw())
    if pick == 1:
        return F2([draw() for _ in range(rng.randint(0, 5))])
    if pick == 2:
        return F3((draw(), draw()))
    return F4(draw())


# per built-in instance: its curated values, its forced degenerate values
# (built fresh, since LIST's are lists), one random value drawn from
# `(rng, draw)`, and its Kleisli panel
_PANELS = {
    LIST: (_list_values, lambda: [[], [0]],
           lambda rng, draw: [draw() for _ in range(rng.randint(0, 6))], _LIST_KLEISLI),
    OPTION: (_option_values, lambda: [NOTHING, Just(0)],
             lambda rng, draw: NOTHING if rng.random() < 0.2 else Just(draw()), _OPTION_KLEISLI),
    WRAP: (_wrap_values, lambda: [Wrap(0)], lambda rng, draw: Wrap(draw()), ()),
    MULTI_SHAPE: (_multi_shape_values, list, _random_shape, ()),
}


def _panels(instance: ContainerInstance, kind: str) -> tuple:
    if instance not in _PANELS:
        raise ValueError(f"no {kind} generators for {instance!r}")
    return _PANELS[instance]


def default_generators(instance: ContainerInstance) -> Generators:
    """The stock panels for one of the built-in instances."""
    curated, _, _, kleisli = _panels(instance, "default")
    return Generators(curated(), _ELEMENTS, _FUNCTIONS, kleisli)


def random_generators(instance: ContainerInstance, *, seed: int = 0, size: int = 200) -> Generators:
    """Seeded random panels for sweeps larger than the curated defaults.

    The same seed and size always give the same panels, so reports stay
    reproducible. The instance's forced degenerate values come first, then
    random ones up to `size` values. The function panels are shared with the
    defaults. `size` must be at least 2, the room LIST and OPTION need for
    their forced values.
    """
    if size < 2:
        raise ValueError(f"random panels need a size of at least 2, not {size}")
    _, forced, random_value, kleisli = _panels(instance, "random")
    rng = random.Random(seed)
    draw = lambda: rng.randint(-100, 100)
    values = forced()
    values += [random_value(rng, draw) for _ in range(size - len(values))]
    elements = tuple(sorted({0, 1, -1, *(draw() for _ in range(17))}))
    return Generators(tuple(values), elements, _FUNCTIONS, kleisli)


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------

def check_functor_laws(instance: ContainerInstance, gen: Generators) -> list[LawReport]:
    """The two functor axioms: map(id) is the identity, and mapping a
    composite equals mapping in stages."""
    identity = lambda m: (instance.map(_identity, m), m)
    composition = lambda m, f, g: (instance.map(lambda x: f(g(x)), m), instance.map(f, instance.map(g, m)))
    composites = [((f_label, g_label), f, g) for f_label, f in gen.functions for g_label, g in gen.functions]
    return [
        sweep("functor-identity", instance.name, identity, gen.values, [((),)]),
        sweep("functor-composition", instance.name, composition, gen.values, composites),
    ]


def check_monad_laws(instance: ContainerInstance, gen: Generators) -> list[LawReport]:
    """The three monad laws: unit is a left and right identity for bind, and
    bind associates."""
    left = lambda x, k: (instance.bind(instance.unit(x), k), k(x))
    right = lambda m: (instance.bind(m, instance.unit), m)
    assoc = lambda m, k, h: (
        instance.bind(instance.bind(m, k), h),
        instance.bind(m, lambda x: instance.bind(k(x), h)),
    )
    kleisli = [((label,), k) for label, k in gen.kleisli]
    pairs = [((k_label, h_label), k, h) for k_label, k in gen.kleisli for h_label, h in gen.kleisli]
    return [
        sweep("monad-left-identity", instance.name, left, gen.elements, kleisli),
        sweep("monad-right-identity", instance.name, right, gen.values, [(("unit",),)]),
        sweep("monad-associativity", instance.name, assoc, gen.values, pairs),
    ]


def check_bind_join_coherence(instance: ContainerInstance, gen: Generators) -> LawReport:
    """bind must agree with join-after-map, even when it is overridden."""
    coherence = lambda m, k: (instance.bind(m, k), instance.join(instance.map(k, m)))
    kleisli = [((label,), k) for label, k in gen.kleisli]
    return sweep("bind-join-coherence", instance.name, coherence, gen.values, kleisli)


def run_suite(instance: ContainerInstance, gen: Generators | None = None) -> list[LawReport]:
    """Every law applicable to the instance, in a fixed order."""
    if gen is None:
        gen = default_generators(instance)
    defines = lambda op: getattr(type(instance), op) is not getattr(ContainerInstance, op)
    reports = check_functor_laws(instance, gen)
    if defines("unit") and defines("join"):
        reports += check_monad_laws(instance, gen)
    if defines("join"):
        reports.append(check_bind_join_coherence(instance, gen))
    return reports
