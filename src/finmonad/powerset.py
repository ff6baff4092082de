"""The powerset endofunctor on finite sets, its unit and multiplication, and
exhaustive checkers for naturality and the monad coherence diagrams.

The functor P sends a set to the set of its subsets and an arrow to its image
map. The unit wraps an element into a singleton subset; the multiplication
collapses a family of subsets into its union. The checkers verify the monad
laws, each an equation between two composites of arrows, by comparing both
composites on codes: a subset's bitmask in a powerset, any other atom's position.
Each composite is one code table over every code of its domain: `bytes` when every
code of its codomain fits a byte, else a list, composed step by step with
`bytes.translate` where both steps are bytes. The two tables are compared whole;
only where they differ is the witness named, by canonical rank, so no check
builds the canonical order of its domain.

Space sizes grow as 2^2^...^|X|, so exhaustive checking is only attempted
within explicit caps; past them the associativity checker switches to seeded
sampling and says so in its report. Where μ is handed as a byte index, a sampled
check first decides whether μ is a semilattice join, which no sample can fail,
and then prints the PASS every seed would print without drawing. Verification
strength is always explicit, never silently degraded.
"""

from __future__ import annotations

import gc
import operator
import random
from collections.abc import Iterator
from functools import cache, partial, reduce

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
    """P(carrier), kept as the carrier's `power`, and what derives from it, each built on
    first read: its atoms, their canonical order, and μ and η at the carrier. A subset is a
    bitmask over the carrier's positions, so images and unions are ORs of ints; an atom is
    a `_Subset`, its members built on first read."""

    __slots__ = ("carrier", "mask", "union", "unit")  # mask[i] is the bitmask of elements[i]

    def __init__(self, carrier: FiniteSet):
        self.carrier = carrier

    def __len__(self) -> int:
        return 1 << len(self.carrier)

    def __getattr__(self, name: str):
        # reached only while `mask`, `elements`, `union`, `unit`, `power`, `_hash` or `_member_set` is unset
        if name == "mask":
            # Canonical order is lexicographic on member tuples: over the elements from
            # the k-th on, the empty subset, then those holding the k-th, then the rest.
            order = [0]
            for k in reversed(range(len(self.carrier))):
                order[1:1] = [1 << k | t for t in order]
            self.mask = order
            return order
        if name == "union":  # μ at the carrier: a family of subsets maps to its union
            self.union = _Indexed(powerset_object(self), self, _images(self.mask, len(self)))
            return self.union
        if name == "unit":  # η at the carrier: x maps to {x}, the bit at x's position, indexed by x's code
            position, carrier = _coding(self.carrier)[2], self.carrier
            self.unit = _Indexed(carrier, self, _table_type(len(self))(1 << position(c) for c in range(len(carrier))))
            return self.unit
        if name != "elements":
            raise AttributeError(name)
        with _collector_paused():
            self.elements = tuple(map(partial(_Subset, self), self.mask))
        return self.elements

    def __reduce__(self):
        # from the carrier, so no copy fills a field; a shallow copy is the carrier's own P
        return powerset_object, (self.carrier,)

    def atom(self, m: int) -> FiniteSet:
        """The subset whose bitmask is m, its members not yet built."""
        return _Subset(self, m)

    def mask_of(self, subset) -> int:
        """The bitmask of one of these subsets: an atom of this powerset's own is read off,
        any other set ORs η's image at each member's code in the carrier (see `_coding`);
        NotInDomainError for anything else."""
        if isinstance(subset, _Subset) and subset.within is self:
            return subset.mask
        if isinstance(subset, FiniteSet):
            code, unit, mask = _coding(self.carrier)[1], self.unit.index, 0
            try:
                for x in subset:
                    mask |= unit[code(x)]
            except NotInDomainError:
                pass
            else:
                return mask
        raise NotInDomainError(f"{subset!r} is not an element of {self!r}")

    def rank(self, m: int) -> int:
        """The position of bitmask m in canonical order. Each set bit s after the one before, p
        (or -1), passes the prefix so far and the 2^(n-1-p) - 2^(n-s) extending it between p and s."""
        top = len(self)
        rank, skip = 0, top  # skip is 2^(n-1-p)
        while m:
            step = top // (m & -m)  # 2^(n-s)
            rank, skip, m = rank + 1 + skip - step, step >> 1, m & (m - 1)
        return rank


class _Subset(FiniteSet):
    """The atom of powerset `within` with bitmask `mask`, its `elements` built on first
    read. It compares, hashes and renders as FiniteSet does, by members: one set with
    any FiniteSet of the same members."""

    __slots__ = ("within", "mask")

    def __init__(self, within: _PowerSet, mask: int):
        self.within, self.mask = within, mask

    def __getattr__(self, name: str):
        # reached only while `elements`, `_hash` or `_member_set` is unset
        if name != "elements":
            raise AttributeError(name)
        mask = self.mask
        self.elements = tuple(x for i, x in enumerate(self.within.carrier) if mask >> i & 1)
        return self.elements


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


def _table_type(size: int) -> type:
    """The one rule for a code table whose entries are codes of a space of `size` atoms:
    `bytes` when every such code fits a byte (a powerset of at most 8 elements, a plain
    set of at most 256 atoms), so it is built and composed in C, else a list."""
    return bytes if size <= 256 else list


@cache
def _or_with(b: int) -> bytes:
    """The `bytes.translate` table that sends each byte x to x | b; at most 256 are kept."""
    return bytes(x | b for x in range(256))


def _images(bits, size: int):
    """images[m] is the OR of bits[i] over the set bits i of m, for every m: a table of
    codes of a powerset of `size` atoms, doubled once per bit, by one `translate` on bytes."""
    images = _table_type(size)((0,))
    for b in bits:
        images += images.translate(_or_with(b)) if isinstance(images, bytes) else [m | b for m in images]
    return images


class _Indexed(FiniteFunction):
    """The arrow that sends the atom of the domain with code c (see `_coding`) to the
    subset of the codomain with bitmask index[c]. μ, η and P(f) build their index as
    `_table_type` gives for the codomain: bytes when its codes fit a byte, else a list.
    Its `pairs` are built on first read and kept; its `table` is built from them on its
    own first read. `apply` maps one atom without either."""

    __slots__ = ("index",)

    def __init__(self, domain: FiniteSet, codomain: _PowerSet, index):
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
    """P(space): the set of all 2^|space| subsets, canonically ordered, kept as `space.power`
    from its first build on. The cap is checked first, so an over-cap space builds nothing."""
    n = len(space)
    if n > POWERSET_CAP:
        raise PowersetTooLargeError(f"powerset of a {n}-element set exceeds the cap of {POWERSET_CAP}")
    try:
        return space.power
    except AttributeError:  # the slot stays unset until the first build
        space.power = _PowerSet(space)
        return space.power


def powerset_arrow(f: FiniteFunction) -> FiniteFunction:
    """P(f): P(f.domain) → P(f.codomain), a subset to its image, read through `_codes`."""
    p_cod = powerset_object(f.codomain)
    return _Indexed(powerset_object(f.domain), p_cod, _lift(_codes(f, f.domain, f.codomain)[1], f.domain, p_cod))


def eta_component(space: FiniteSet) -> FiniteFunction:
    """The unit at `space`: x maps to {x}."""
    return powerset_object(space).unit


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


def _first_by_position(left, right) -> int:
    """The first index at which two code tables of one type differ, which they must somewhere."""
    return next(c for c in range(len(left)) if left[c] != right[c])


def _first_by_rank(left, right) -> int:
    """The bitmask of least rank at which two code tables of one type, indexed by bitmask,
    differ, which they must somewhere: slices and `==` compare lists and bytes alike. Among
    the bitmasks that agree with c below bit `step`, canonical order puts c first, then
    those with bit `step` set, then the rest."""
    c, step = 0, 1
    while left[c] == right[c]:
        if left[c | step::step << 1] != right[c | step::step << 1]:
            c |= step
        step <<= 1
    return c


def _coding(space: FiniteSet):
    """How `space`'s atoms are coded, as codes 0 to len(space) - 1: a code's atom, an atom's
    code (else NotInDomainError), a code's position in canonical order, and the code of least
    position at which two code tables differ. In a powerset a subset's code is its
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


def _lift(table, dom: FiniteSet, p_cod: _PowerSet):
    """P on codes: P(f)'s index, for f from `dom` with table on codes `table`, into `p_cod`."""
    unit = p_cod.unit.index  # η at f's codomain, whose image at a code is the bitmask of {it}
    return _images([unit[table[c]] for c in _order(dom)], len(p_cod))


def _side(steps, n: int, size: int):
    """A composite of steps (see `_codes`), applied first to last, as the table of its
    codes at codes 0 to n - 1 of its domain, into a codomain of `size` atoms, of the type
    `_table_type` gives. A step composes with the table so far by one `translate` when
    both are bytes, else one comprehension, so an `_Entries` table is read only at the
    codes that the steps before it reach."""
    kind = _table_type(size)
    if not steps:
        return kind(range(n))
    (_, table), *rest = steps
    side = [table[c] for c in range(n)] if isinstance(table, _Entries) else table
    for _, table in rest:
        if isinstance(side, bytes) and isinstance(table, bytes):
            side = side.translate(table.ljust(256, b"\0"))  # unread padding: side's codes are table's domain
        else:
            side = [table[c] for c in side]
    return side if type(side) is kind else kind(side)


def _is_join(mu: bytes, power: _PowerSet) -> bool:
    """Whether μ at X, as its byte index from family masks to subset codes, is the join
    of a semilattice with a unit on P(X), so that no sampled family can fail.

    Write m = |P(X)|, S ⊕ T = μ{S,T} and e = μ(∅); a family's mask has bit rank(S) for
    each member S. The checks, on codes: (1) the index has one code below m for each of
    the 2^m families; (2) μ{S} = S for every S; (3) ⊕ is associative, as m translates of
    the m² table of ⊕; (4) μ(G) = μ(G∖{S}) ⊕ S for every nonempty G, where S is G's
    member of least position p, as one comparison per p over the masks with lowest bit p.

    Proof. ⊕ is commutative, since {S,T} = {T,S}, and idempotent, by (2). e is its unit:
    (4) at G = {S} says S = μ{S} = e ⊕ S. So by (4), induction on G gives μ(G) = ⊕G for
    every G, ⊕∅ being e. Hence for every family of families F, μ(∪F) = ⊕(∪F) =
    ⊕{⊕G : G ∈ F} = μ{μG : G ∈ F}, which is exactly what a sample compares. A failed
    check concludes nothing: the ∅-absorbing μ fails (4) at the singletons and a constant
    μ fails (2), and both are left to the draws."""
    m, order = len(power), power.mask
    if len(mu) != 1 << m or mu.translate(None, bytes(range(m))) or bytes(mu[1 << p] for p in range(m)) != bytes(order):
        return False
    single = powerset_object(power).unit.index  # single[s] is the mask of the family {S}, S with code s
    plus = [bytes(mu[single[s] | single[t]] for t in range(m)) for s in range(m)]  # plus[s][t] is S ⊕ T
    table, plus = b"".join(plus), [row.ljust(256, b"\0") for row in plus]  # padding unread, by (1)
    if any(table.translate(plus[s]) != b"".join(plus[st][:m] for st in plus[s][:m]) for s in range(m)):
        return False
    return all(mu[1 << p::2 << p] == mu[::2 << p].translate(plus[s]) for p, s in enumerate(order))


def _replay(sides, value) -> tuple:
    """Both sides at `value` again, each a sequence of maps on atoms applied first to last."""
    return tuple(reduce(lambda x, m: m(x), maps, value) for maps in sides)


def _compare(dom: FiniteSet, cod: FiniteSet, lhs, rhs, labels) -> Counterexample | None:
    """Compare two composites, each a sequence of steps (see `_codes`) applied first to
    last from `dom` into `cod`, as two whole code tables of one type, one per side (see
    `_side`), by `==` and, for the witness, slices. Where they differ, the code of least
    canonical position becomes atoms, replayed from the atom maps; else None."""
    left, right = _side(lhs, len(dom), len(cod)), _side(rhs, len(dom), len(cod))
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
    to `cod`, stopping at the first arrow with a witness."""
    source, target = transform.source, transform.target
    (s_dom, t_dom), (s_cod, t_cod) = ((source.on_object(x), target.on_object(x)) for x in (dom, cod))
    step_dom = _codes(transform.component(dom), s_dom, t_dom)
    step_cod = _codes(transform.component(cod), s_cod, t_cod)
    witness = None
    for f in arrows:
        lifts = [f]  # f, P(f), P(P(f)), ...: each built once, for both sides
        for _ in range(max(source.depth, target.depth)):
            lifts.append(powerset_arrow(lifts[-1]))
        lhs = (step_dom, _codes(lifts[target.depth], t_dom, t_cod))
        rhs = (_codes(lifts[source.depth], s_dom, s_cod), step_cod)
        if witness := _compare(s_dom, t_cod, lhs, rhs, ()):
            break
    return LawReport(f"naturality[{transform.name}]", subject, len(s_dom) * len(arrows), witness)


def check_naturality(transform: NatTransform, f: FiniteFunction) -> LawReport:
    """Verify the naturality square of `transform` at the arrow `f`."""
    return _naturality(transform, show(f), f.domain, f.codomain, [f])


def naturality_sweep(transform: NatTransform, max_size: int) -> Iterator[LawReport]:
    """Check naturality against every arrow between integer carriers of each size up to
    `max_size`, yielding one report per ordered size pair as soon as it is checked."""
    spaces = [make_finite_set(range(1, n + 1)) for n in range(max_size + 1)]
    carriers = [(show(space), space) for space in spaces]  # each rendered once
    for a, dom in carriers:
        for b, cod in carriers:
            yield _naturality(transform, f"{a}->{b}", dom, cod, list(enumerate_functions(dom, cod)))


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
    Where mu at `space` is handed as a byte index (the library's own mu, or an
    index copy of it), that index is first read whole and, if it is a semilattice
    join (`_is_join`), no family can fail: the PASS that every seed's draws would
    print is returned without drawing, so it is proved rather than sampled. Any
    other mu, a hand-built table above all, is read only where the samples reach,
    so cost follows `samples` (an integer, at least 1), not |P(P(space))|, and the
    draws stop at their first witness. Exhaustive mode writes each side once, as
    steps, evaluates both at every code and names the difference of least
    canonical rank. Both modes read each handed component through `_codes`, lift
    codes through η at P(space), build atoms only for the witness, and replay
    P(mu) by its definition. The law name records the mode, seed and sample count.
    """
    if mode not in ("auto", "exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "auto":
        mode = "exhaustive" if len(space) <= 2 else "sampled"
    if mode == "sampled" and (samples := operator.index(samples)) < 1:
        raise ValueError(f"sampled mode needs at least one sample, not {samples}")

    power = powerset_object(space)
    mu_x = mu.component(space)
    families = powerset_object(power)
    step_mu, labels = _codes(mu_x, families, power), ("mu∘mu_P", "mu∘P(mu)")
    apply_mu, codes_mu = step_mu
    lift_mu = lambda family: make_finite_set(map(apply_mu, family))  # P(mu_x) by its definition

    if mode == "exhaustive":
        mu_p, triples = mu.component(power), powerset_object(families)
        p_mu = (lift_mu, _lift(codes_mu, families, families))  # reads every entry of mu_x
        step_mu = (apply_mu, _side((step_mu,), len(families), len(power)))  # mu_x read whole, as a table
        witness = _compare(triples, power, (_codes(mu_p, triples, families), step_mu), (p_mu, step_mu), labels)
        return LawReport("monad-associativity[exhaustive]", show(space), len(triples), witness)

    label = f"monad-associativity[sampled,seed={seed},n={samples}]"
    if isinstance(codes_mu, bytes) and _is_join(codes_mu, power):  # no family can fail, so every seed's draws pass
        return LawReport(label, show(space), samples)
    flatten = lambda family: make_finite_set(s for member in family for s in member)  # mu_P, taken to be union
    rng, witness, masks, unit = random.Random(seed), None, families.mask, families.unit.index
    draw, coin, n = rng.getrandbits, rng.random, len(masks)
    k = n.bit_length()
    for _ in range(samples):
        drawn, union, image = [], 0, 0
        while not drawn or coin() < 0.5:  # one member, then one more at odds 1/2
            j = draw(k)
            while j >= n:  # randrange(n)'s recipe on Python 3.11: a seed draws the same members
                j = draw(k)
            drawn.append(j)
            m = masks[j]
            union, image = union | m, image | unit[codes_mu[m]]  # image: the family of the members' μ
        lhs, rhs = codes_mu[union], codes_mu[image]
        if lhs != rhs:
            value = make_finite_set(families.atom(masks[j]) for j in drawn)
            replay = partial(_replay, ((flatten, apply_mu), (lift_mu, apply_mu)), value)
            witness = Counterexample(value, power.atom(lhs), power.atom(rhs), labels, replay)
            break
    return LawReport(label, show(space), samples, witness)
