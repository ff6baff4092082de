"""Planted defects: corrupted monad structure that a sound checker must reject.

Every defect is built from finmonad's public API only (`NatTransform`,
`FiniteFunction`, `mu_component`, `eta_component`, `ListInstance`), so the
helpers keep working when the library's internals change. A checker that
re-derives mu or eta instead of consuming the component it is handed will
pass these defects and show up as a miss.
"""

from __future__ import annotations

import random

import finmonad
from finmonad.containers import ListInstance


def corrupt_mu(space, rng: random.Random):
    """mu whose component at `space` sends one family with at least two
    members to a wrong subset; both the family and the wrong value are drawn
    from `rng`. Returns the transformation and a label naming the corruption.

    The unit triangles only consult mu on families of at most one member, so
    only the associativity square can see this defect.
    """
    mu_x = finmonad.mu_component(space)
    pairs = list(mu_x.pairs)
    index = rng.randrange(len(pairs))
    while len(pairs[index][0]) < 2:
        index = rng.randrange(len(pairs))
    family, right = pairs[index]
    wrong = rng.choice([s for s in mu_x.codomain if s != right])
    pairs[index] = (family, wrong)
    corrupted = finmonad.FiniteFunction(mu_x.domain, mu_x.codomain, pairs)

    def component_at(at):
        return corrupted if at == space else finmonad.mu_component(at)

    label = f"mu@{finmonad.show(space)}:{finmonad.show(family)}->{finmonad.show(wrong)}"
    return finmonad.NatTransform("mu-corrupted", finmonad.POWERSET_SQUARED, finmonad.POWERSET, component_at), label


def corrupt_eta(space, rng: random.Random):
    """eta whose component at `space` sends one drawn element to the empty
    subset, as in acceptance criterion 6. Returns the transformation and a
    label naming the corruption."""
    eta_x = finmonad.eta_component(space)
    victim = rng.choice(space.elements)
    empty = finmonad.make_subset(space, [])
    corrupted = finmonad.FiniteFunction(
        space,
        eta_x.codomain,
        tuple((x, empty if x == victim else s) for x, s in eta_x.pairs),
    )

    def component_at(at):
        return corrupted if at == space else finmonad.eta_component(at)

    label = f"eta@{finmonad.show(space)}:{finmonad.show(victim)}->{{}}"
    return finmonad.NatTransform("eta-corrupted", finmonad.IDENTITY_FUNCTOR, finmonad.POWERSET, component_at), label


class DroppyJoin(ListInstance):
    """A list monad whose join drops its first inner list."""

    name = "droppy-list"

    def join(self, mm):
        return [x for inner in mm[1:] for x in inner]


DROPPY_LIST = DroppyJoin()
