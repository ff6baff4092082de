"""The powerset endofunctor on finite sets, its unit and multiplication, and
exhaustive checkers for naturality and the monad coherence diagrams.

The functor P sends a set to the set of its subsets and an arrow to its image
map. The unit wraps an element into a singleton subset; the multiplication
collapses a family of subsets into its union. The checkers verify the monad
laws, each an equation between two composites of arrows, by comparing both
composites on codes: a subset's bitmask in a powerset, any other atom's position.
Each composite is one list over every code of its domain, and the two lists are
compared whole; only where they differ is the witness named, by canonical rank,
so no check builds the canonical order of its domain.

Space sizes grow as 2^2^...^|X|, so exhaustive checking is only attempted
within explicit caps; past them the associativity checker switches to seeded
sampling and says so in its report. Verification strength is always explicit,
never silently degraded.
"""

from __future__ import annotations

import gc
import random
from functools import lru_cache, partial, reduce

from .containers import Record
from .finset import (
    CodomainViolationError,
    FiniteFunction,
    FiniteSet,
    FinsetError,
    NotInDomainError,
    apply,
    enumerate_functions,
    make_finite_set,
)
from .render import show
from .reports import Counterexample, LawReport

POWERSET_CAP = 16


class PowersetTooLargeError(FinsetError):
    """The requested powerset exceeds the size cap."""


# ---------------------------------------------------------------------------
# the functor, unit, and multiplication
# ---------------------------------------------------------------------------

class _PowerSet(FiniteSet):
    """P(space), its atoms, their canonical order and its μ built on first read. Each
    subset is also a bitmask over the positions of `space`, so images and unions are
    ORs of ints, and each atom is a `_Subset`: its bitmask, its members built on first read."""

    __slots__ = ("mask", "position", "union")  # mask[i] is the bitmask of elements[i]

    def __init__(self, space: FiniteSet):
        self.position = {x: i for i, x in enumerate(space.elements)}  # x -> its index

    def __len__(self) -> int:
        return 1 << len(self.position)

    def __getattr__(self, name: str):
        # reached only while `mask`, `elements`, `union`, `_hash` or `_member_set` is unset
        if name == "mask":
            # Canonical order is lexicographic on member tuples: over the elements from
            # the k-th on, the empty subset, then those holding the k-th, then the rest.
            order = [0]
            for k in reversed(range(len(self.position))):
                order[1:1] = [1 << k | t for t in order]
            self.mask = order
            return order
        if name == "union":  # μ at `space`: a family of subsets maps to its union
            self.union = _Indexed(powerset_object(self), self, _images(self.mask))
            return self.union
        if name != "elements":
            raise AttributeError(name)
        with _collector_paused():
            self.elements = tuple(map(partial(_Subset, self), self.mask))
        return self.elements

    def __reduce__(self):
        # from the carrier, so no copy fills `elements` or `union`
        return powerset_object, (FiniteSet(tuple(self.position)),)

    def atom(self, m: int) -> FiniteSet:
        """The subset whose bitmask is m, its members not yet built."""
        return _Subset(self, m)

    def mask_of(self, subset) -> int:
        """The bitmask of one of these subsets: an atom of this powerset's own is read
        off, any other set takes one lookup per member; NotInDomainError for anything else."""
        if isinstance(subset, _Subset) and subset.power is self:
            return subset.mask
        if isinstance(subset, FiniteSet):
            position, mask = self.position, 0
            try:
                for x in subset:
                    mask |= 1 << position[x]
            except KeyError:
                pass
            else:
                return mask
        raise NotInDomainError(f"{subset!r} is not an element of {self!r}")

    def rank(self, m: int) -> int:
        """The position of bitmask m in canonical order. Each set bit s after the one before, p
        (or -1), passes the prefix so far and the 2^(n-1-p) - 2^(n-s) extending it between p and s."""
        top = 1 << len(self.position)
        rank, skip = 0, top  # skip is 2^(n-1-p)
        while m:
            step = top // (m & -m)  # 2^(n-s)
            rank, skip, m = rank + 1 + skip - step, step >> 1, m & (m - 1)
        return rank


class _Subset(FiniteSet):
    """The atom of `power` with bitmask `mask`. Its `elements` are built on first
    read; equality, hashing and rendering are FiniteSet's, by members, so it is
    one set with any FiniteSet of the same members."""

    __slots__ = ("power", "mask")

    def __init__(self, power: _PowerSet, mask: int):
        self.power, self.mask = power, mask

    def __getattr__(self, name: str):
        # reached only while `elements`, `_hash` or `_member_set` is unset
        if name != "elements":
            raise AttributeError(name)
        mask = self.mask
        self.elements = tuple(x for i, x in enumerate(self.power.position) if mask >> i & 1)
        return self.elements

    def __reduce__(self):
        # a copy is a plain set of the same members, so it holds no powerset
        return FiniteSet, (self.elements,)


class _collector_paused:
    """Pause the cyclic collector while a fill builds a table of atoms, which are
    acyclic and stay alive, so every pass over them would scan and free nothing.
    It is turned back on only if it was on before, so a nested fill leaves it off.
    Its first pass after that, at the next allocation, scans the new atoms."""

    __slots__ = ("was_on",)

    def __enter__(self) -> None:
        self.was_on = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc) -> None:
        if self.was_on:
            gc.enable()


def _images(bits) -> list[int]:
    """images[m] is the OR of bits[i] over the set bits i of m, for every m."""
    images = [0]
    for b in bits:
        images += [m | b for m in images]
    return images


class _Indexed(FiniteFunction):
    """The arrow that sends the atom of the domain with code c (see `_coding`) to the
    subset of the codomain with bitmask index[c]. Its `pairs` are built on first read
    and kept; its `table` is built from them on its own first read. `apply` maps one
    atom without either."""

    __slots__ = ("index",)

    def __init__(self, domain: FiniteSet, codomain: _PowerSet, index: list[int]):
        self.domain, self.codomain, self.index = domain, codomain, index

    def _image(self, x):
        return self.codomain.atom(self.index[_coding(self.domain)[1](x)])

    def __reduce__(self):
        # from the index, so no copy fills `pairs` or `table`
        return _Indexed, (self.domain, self.codomain, self.index)

    def __getattr__(self, name: str):
        # reached only while `pairs` or `_table` is unset
        if name != "pairs":
            raise AttributeError(name)
        index, domain, codomain = self.index, self.domain, self.codomain  # read once, not per atom
        with _collector_paused():
            atoms = {c: codomain.atom(c) for c in set(index)}
            self.pairs = tuple(zip(domain.elements, [atoms[index[c]] for c in _order(domain)]))
        return self.pairs


def powerset_object(space: FiniteSet) -> FiniteSet:
    """P(space): the set of all 2^|space| subsets, canonically ordered. The cap is checked
    before `space` is rendered or hashed, which would build all its atoms."""
    n = len(space)
    if n > POWERSET_CAP:
        raise PowersetTooLargeError(f"powerset of a {n}-element set exceeds the cap of {POWERSET_CAP}")
    return _powerset_per_spelling(space, show(space))


@lru_cache(maxsize=64)
def _powerset_per_spelling(space: FiniteSet, spelling: str) -> _PowerSet:
    """The one powerset cache, keyed also on how `space`'s atoms are spelled. True
    == 1, so {False,True} == {0,1}: keyed on equality alone, it would answer both
    spellings with whichever it built first, and report lines would depend on
    cache history."""
    return _PowerSet(space)


def powerset_arrow(f: FiniteFunction) -> FiniteFunction:
    """P(f): sends each subset of f's domain to its image under f, read through `_codes`."""
    return _Indexed(powerset_object(f.domain), powerset_object(f.codomain),
                    _lift(_codes(f, f.domain, f.codomain)[1], f.domain, f.codomain))


def eta_component(space: FiniteSet) -> FiniteFunction:
    """The unit at `space`: x maps to {x}, the bit at x's position, indexed by x's code."""
    return _Indexed(space, powerset_object(space), [1 << i for i in map(_coding(space)[2], range(len(space)))])


def mu_component(space: FiniteSet) -> FiniteFunction:
    """The multiplication at `space`: a family of subsets maps to its union."""
    return powerset_object(space).union


# ---------------------------------------------------------------------------
# endofunctors and natural transformations
# ---------------------------------------------------------------------------

class Endofunctor(Record):
    """One of the functor shapes the coherence checks need: the identity
    (`depth` 0) or the powerset iterated `depth` times. A closed family;
    nothing else is required."""

    __slots__ = ("name", "depth")

    def on_object(self, space: FiniteSet) -> FiniteSet:
        for _ in range(self.depth):
            space = powerset_object(space)
        return space

    def on_arrow(self, f: FiniteFunction) -> FiniteFunction:
        for _ in range(self.depth):
            f = powerset_arrow(f)
        return f


IDENTITY_FUNCTOR = Endofunctor("Id", 0)
POWERSET = Endofunctor("P", 1)
POWERSET_SQUARED = Endofunctor("P^2", 2)


class NatTransform(Record):
    """A family of arrows indexed by finite sets, with declared endpoints:
    `component_at(space)` is the arrow from `source` to `target` at `space`,
    each of them an Endofunctor."""

    __slots__ = ("name", "source", "target", "component_at")

    def component(self, space: FiniteSet) -> FiniteFunction:
        arrow = self.component_at(space)
        if arrow.domain != self.source.on_object(space) or arrow.codomain != self.target.on_object(space):
            raise ValueError(
                f"component of {self.name} at {space!r} has endpoints "
                f"{arrow.domain!r} -> {arrow.codomain!r}, which do not match "
                f"{self.source.name} -> {self.target.name}"
            )
        return arrow


ETA = NatTransform("eta", IDENTITY_FUNCTOR, POWERSET, eta_component)
MU = NatTransform("mu", POWERSET_SQUARED, POWERSET, mu_component)


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

def _order(space: FiniteSet):
    """The codes of `space` (see `_coding`) in canonical order."""
    return space.mask if isinstance(space, _PowerSet) else range(len(space))


def _first_by_position(left: list, right: list) -> int:
    """The first index at which two lists differ, which they must somewhere."""
    return next(c for c in range(len(left)) if left[c] != right[c])


def _first_by_rank(left: list, right: list) -> int:
    """The bitmask of least rank at which two lists indexed by bitmask differ, which
    they must somewhere. Among the bitmasks that agree with c below bit `step`,
    canonical order puts c first, then those with bit `step` set, then the rest."""
    c, step = 0, 1
    while left[c] == right[c]:
        if left[c | step::step << 1] != right[c | step::step << 1]:
            c |= step
        step <<= 1
    return c


def _coding(space: FiniteSet):
    """How `space`'s atoms are coded, as codes 0 to len(space) - 1: a code's atom, an atom's
    code (else NotInDomainError), a code's position in canonical order, and the code of least
    position at which two lists indexed by code differ. In a powerset a subset's code is its
    bitmask, elsewhere an atom's code is its position; neither needs the order itself."""
    if isinstance(space, _PowerSet):
        return space.atom, space.mask_of, space.rank, _first_by_rank

    def code(x) -> int:
        try:
            return space.elements.index(x)
        except ValueError:
            raise NotInDomainError(f"{x!r} is not an element of {space!r}") from None

    return space.elements.__getitem__, code, int, _first_by_position


class _Entries(dict):
    """A hand-built arrow's map on codes: each entry read by `read` on its first lookup."""

    __slots__ = ("read",)

    def __init__(self, read):
        self.read = read

    def __missing__(self, c: int) -> int:
        self[c] = image = self.read(c)
        return image


def _codes(f: FiniteFunction, dom: FiniteSet, cod: FiniteSet) -> tuple:
    """f as a step from `dom` to `cod`, the checker's own objects: its map on atoms and
    its table on codes, indexed by code, the one reader of a handed arrow's entries: an
    `_Indexed` arrow's index, else `_Entries` that read one code at a time on first lookup,
    so a hand-built table is what gets checked: pairs[i] when its key is the atom at
    position i of `dom`, else `apply`."""
    if isinstance(f, _Indexed):
        return partial(apply, f), f.index
    (atom, _, rank, _), code, pairs = _coding(dom), _coding(cod)[1], f.pairs

    def read(c: int) -> int:
        i = rank(c)
        if i < len(pairs) and (pair := pairs[i])[0] is dom.elements[i]:
            image = pair[1]
        else:
            image = apply(f, atom(c))
        try:  # only the image's lookup: an atom missing from f's table stays NotInDomainError
            return code(image)
        except NotInDomainError:
            raise CodomainViolationError(f"{f!r} maps to {image!r}, outside its codomain") from None

    return partial(apply, f), _Entries(read)


def _lift(table, dom: FiniteSet, cod: FiniteSet) -> list[int]:
    """P on codes: P(f)'s index, for f from `dom` to `cod` with table on codes `table`."""
    position = _coding(cod)[2]
    return _images([1 << position(table[c]) for c in _order(dom)])


def _side(steps, n: int) -> list[int]:
    """A composite of steps (see `_codes`), applied first to last, as the list of its
    codes at codes 0 to n - 1 of its domain. An `_Entries` table is read only at the
    codes that the steps before it reach."""
    if not steps:
        return list(range(n))
    (_, table), *rest = steps
    side = table if isinstance(table, list) else [table[c] for c in range(n)]
    for _, table in rest:
        side = [table[c] for c in side]
    return side


def _replay(sides, value) -> tuple:
    """Both sides at `value` again, each a sequence of maps on atoms applied first to last."""
    return tuple(reduce(lambda x, m: m(x), maps, value) for maps in sides)


def _compare(dom: FiniteSet, cod: FiniteSet, lhs, rhs, labels) -> Counterexample | None:
    """Compare two composites, each a sequence of steps (see `_codes`) applied first to
    last from `dom` into `cod`, as two whole lists of codes, one per side (see `_side`).
    Where they differ, the code of least canonical position becomes atoms, replayed
    from the atom maps; else None."""
    left, right = _side(lhs, len(dom)), _side(rhs, len(dom))
    if left == right:
        return None
    atom, _, _, first_difference = _coding(dom)
    c, cod_atom = first_difference(left, right), _coding(cod)[0]
    value = atom(c)
    maps = tuple(tuple(m for m, _ in steps) for steps in (lhs, rhs))  # no code table outlives the check
    return Counterexample(value, cod_atom(left[c]), cod_atom(right[c]), labels, partial(_replay, maps, value))


def _naturality(transform: NatTransform, subject: str, dom: FiniteSet, cod: FiniteSet, arrows) -> LawReport:
    """One report on the squares target(f) ∘ component(dom) = component(cod) ∘ source(f)
    of `transform`, on all of source(dom), for each f in the list `arrows` from `dom`
    to `cod`, stopping at the first arrow with a witness. The objects and both components
    are read once."""
    source, target = transform.source, transform.target
    s_dom, s_cod = source.on_object(dom), source.on_object(cod)
    t_dom, t_cod = target.on_object(dom), target.on_object(cod)
    at_dom, at_cod = transform.component(dom), transform.component(cod)
    step_dom, step_cod = _codes(at_dom, s_dom, t_dom), _codes(at_cod, s_cod, t_cod)
    witness = None
    for f in arrows:
        source_f, target_f = source.on_arrow(f), target.on_arrow(f)
        lhs, rhs = (step_dom, _codes(target_f, t_dom, t_cod)), (_codes(source_f, s_dom, s_cod), step_cod)
        if witness := _compare(s_dom, t_cod, lhs, rhs, ()):
            break
    return LawReport(f"naturality[{transform.name}]", subject, len(s_dom) * len(arrows), witness)


def check_naturality(transform: NatTransform, f: FiniteFunction) -> LawReport:
    """Verify the naturality square of `transform` at the arrow `f`."""
    return _naturality(transform, show(f), f.domain, f.codomain, [f])


def naturality_sweep(transform: NatTransform, max_size: int) -> list[LawReport]:
    """Check naturality against every arrow between integer carriers of each
    size up to `max_size`, one aggregated report per ordered size pair."""
    carriers = [make_finite_set(range(1, n + 1)) for n in range(max_size + 1)]
    return [
        _naturality(transform, f"{show(dom)}->{show(cod)}", dom, cod, list(enumerate_functions(dom, cod)))
        for dom in carriers for cod in carriers
    ]


def check_unit_laws(
    space: FiniteSet,
    *,
    eta: NatTransform = ETA,
    mu: NatTransform = MU,
) -> LawReport:
    """Verify both unit triangles at `space` at every subset of `space`.

    The triangles say that inserting a subset into a singleton family, or
    turning each of its elements into a singleton, then taking the union,
    gives the subset back. The check compares μ∘η_P with the identity over
    every subset, then μ∘P(η), and skips the second triangle once the first
    has a witness. `checked` reports the size of
    the multiplication table at this component, which is the exhaustive
    workload behind the comparison. The `eta`/`mu` parameters exist so tests
    can plant corrupted transformations and watch the check fail.
    """
    power = powerset_object(space)
    mu_x = mu.component(space)
    families = powerset_object(power)
    step_mu, witness = _codes(mu_x, families, power), None
    for eta_at, label in (
        (eta.component(power), "mu∘eta_P"),
        (powerset_arrow(eta.component(space)), "mu∘P(eta)"),
    ):
        witness = witness or _compare(power, power, (_codes(eta_at, power, families), step_mu), (), (label,))
    return LawReport("monad-unit[exhaustive]", show(space), len(mu_x.domain), witness)


def check_associativity(
    space: FiniteSet,
    *,
    mode: str = "auto",
    samples: int = 10_000,
    seed: int = 42,
    mu: NatTransform = MU,
) -> LawReport:
    """Verify the associativity square at `space`.

    Exhaustive mode compares the two composites over every element of
    P(P(P(space))); auto selects it for carriers of at most 2 elements, where
    that space tops out at 65 536 elements. Larger carriers use `samples`
    families drawn with a generator seeded by `seed`, each of one member, then
    one more at odds 1/2 (mean size 2, members may repeat), and take mu at
    P(space) to be union. A member is `randrange(n)`'s draw on Python 3.11,
    written out: k = n.bit_length() random bits, drawn again while at least n.
    They read the handed mu at `space` only where their samples reach, so cost
    follows `samples` (at least 1), not |P(P(space))|, and stop drawing at their
    first witness. Exhaustive mode writes each side once, as steps, evaluates both
    at every code and names the difference of least canonical rank. Both modes read
    each handed component through `_codes`, build atoms only for the witness, and
    replay P(mu) by its definition. The law name records the mode, seed and sample count.
    """
    if mode not in ("auto", "exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "auto":
        mode = "exhaustive" if len(space) <= 2 else "sampled"
    if mode == "sampled" and samples < 1:
        raise ValueError(f"sampled mode needs at least one sample, not {samples}")

    power = powerset_object(space)
    mu_x = mu.component(space)
    families = powerset_object(power)
    step_mu, labels = _codes(mu_x, families, power), ("mu∘mu_P", "mu∘P(mu)")
    apply_mu, codes_mu = step_mu
    lift_mu = lambda family: make_finite_set(map(apply_mu, family))  # P(mu_x) by its definition

    if mode == "exhaustive":
        mu_p, triples = mu.component(power), powerset_object(families)
        p_mu = (lift_mu, _lift(codes_mu, families, power))  # reads every entry of mu_x
        step_mu = (apply_mu, [codes_mu[c] for c in range(len(families))])  # so both sides read mu_x as a list
        witness = _compare(triples, power, (_codes(mu_p, triples, families), step_mu), (p_mu, step_mu), labels)
        return LawReport("monad-associativity[exhaustive]", show(space), len(triples), witness)

    flatten = lambda family: make_finite_set(s for member in family for s in member)  # mu_P, taken to be union
    rng, witness, masks = random.Random(seed), None, families.mask
    draw, coin, n = rng.getrandbits, rng.random, len(masks)
    k, lift = n.bit_length(), [None] * n  # lift by draw position, filled as members are drawn
    for _ in range(samples):
        drawn, union, image = [], 0, 0
        while not drawn or coin() < 0.5:  # one member, then one more at odds 1/2
            j = draw(k)
            while j >= n:  # randrange(n)'s recipe on Python 3.11: a seed draws the same members
                j = draw(k)
            drawn.append(j)
            if lift[j] is None:
                lift[j] = 1 << power.rank(codes_mu[masks[j]])
            union, image = union | masks[j], image | lift[j]
        lhs, rhs = codes_mu[union], codes_mu[image]
        if lhs != rhs:
            value = make_finite_set(families.atom(masks[j]) for j in drawn)
            replay = partial(_replay, ((flatten, apply_mu), (lift_mu, apply_mu)), value)
            witness = Counterexample(value, power.atom(lhs), power.atom(rhs), labels, replay)
            break
    return LawReport(f"monad-associativity[sampled,seed={seed},n={samples}]", show(space), samples, witness)
