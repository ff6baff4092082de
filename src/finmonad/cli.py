"""Command-line front end: worked demos plus the law and coherence suites.

Exit status: 0 when everything printed is as expected, 1 when a law check
failed (unless the failure was explicitly expected), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Iterable, Iterator
from contextlib import nullcontext

from .containers import (
    F1,
    F2,
    F3,
    F4,
    INSTANCES,
    LIST,
    MULTI_SHAPE,
    PHONEBOOK,
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
from .laws import run_suite
from .powerset import ETA, MU, POWERSET_CAP, check_associativity, check_unit_laws, naturality_sweep
from .finset import make_finite_set
from .render import show
from .reports import LawReport

_BANNER_TOP = "Program begins."
_BANNER_BOTTOM = "Program ends."
# the four-shape functor's broken identity law: the one failure `laws --expect-fail` accepts
_KNOWN_SHAPE_FAILURE = "FAIL functor-identity @ multishape witness=F4 200 lhs=F1 200 rhs=F4 200"


# ---------------------------------------------------------------------------
# demo transcripts
# ---------------------------------------------------------------------------

def wrapper_demo_lines() -> list[str]:
    """The one-slot wrapper walked through a handful of mapped functions."""
    thing = Wrap(45)
    return [
        show(thing),
        show(WRAP.map(lambda x: x * 2, thing)),
        show(WRAP.map(lambda x: x + 1, thing)),
        show(WRAP.map(lambda x: [x], thing)),
        show(WRAP.map(lambda x: [2 * x + 1], thing)),
        show(thing),
    ]


def multi_shape_demo_lines() -> list[str]:
    """All four shape constructors mapped over, including the retagging
    fourth one whose identity-axiom violation shows up in plain sight."""
    m = MULTI_SHAPE.map
    double = lambda x: x * 2
    triple = lambda x: x * 3
    first, second = F1(10), F2([100, 1000, 10000, 100000])
    third, fourth = F3((400, 500)), F4(200)
    return [
        show(first), show(m(double, first)), show(first),
        show(second), show(m(double, second)), show(second),
        show(third), show(m(double, third)), show(third),
        show(fourth),
        show(m(double, fourth)),
        show(m(lambda x: x, fourth)),            # identity axiom probe
        show(m(lambda x: double(triple(x)), fourth)),  # composite at once
        show(m(double, m(triple, fourth))),      # composite in stages
        show(fourth),
    ]


def functor_demo_lines(banner: bool = False) -> list[str]:
    lines: list[str] = []
    for block in (wrapper_demo_lines(), multi_shape_demo_lines()):
        if banner:
            lines += [_BANNER_TOP, *block, _BANNER_BOTTOM]
        else:
            lines += block
    return lines


def list_demo_lines() -> list[str]:
    """The list monad narrative: bind as map-then-flatten, step by step."""
    ns = list(range(1, 11))
    odd_filter = lambda x: [2 * x] if x % 2 else []
    pair_up = lambda x: [x, x + 1]
    return [
        show(LIST.bind(ns, LIST.unit)),
        show(LIST.bind(ns, odd_filter)),
        # composing with unit neutralizes the flattening, exposing the
        # intermediate list of lists that join collapses
        show(LIST.bind(ns, lambda x: LIST.unit(odd_filter(x)))),
        show(LIST.map(pair_up, ns)),
        show(LIST.bind(ns, pair_up)),
        show(nub(LIST.bind(ns, pair_up))),
    ]


def maybe_demo_lines() -> list[str]:
    """Guarded numeric pipelines over the option shape, then safe_head."""
    lines = [show(guarded_one_minus_sqrt(x)) for x in (3, -3, 0, -1)]
    lines += [show(guarded_log(guarded_one_minus_sqrt(x))) for x in (3, -3, 0, 1)]
    lines += [show(extract_or_zero(guarded_log(guarded_sqrt(x)))) for x in (0.5, -3, 5, 1)]
    lines += [show(safe_head([])), show(safe_head([6, 1, 2]))]
    return lines


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def _printing(lines: Callable[[argparse.Namespace], list[str]]) -> Callable[[argparse.Namespace], int]:
    """The handler of a demo command: print `lines(args)`, one a line, and return 0."""
    def handler(args) -> int:
        for line in lines(args):
            print(line)
        return 0
    return handler


def _checking(
    reports: Callable[[argparse.Namespace], Iterable[LawReport]],
    expected: Callable[[argparse.Namespace], list[str]],
) -> Callable[[argparse.Namespace], int]:
    """The handler of a check command. It opens the `--report` file before any check runs, so a
    bad path fails before any work, then prints each line of `reports(args)`, flushed, as soon as
    it is produced and copies it there, so a crashing run still shows every finished check.
    Returns 0 exactly when the failing lines are `expected(args)`, else 1."""
    def handler(args) -> int:
        try:
            copy = open(args.report, "w", encoding="utf-8") if args.report else nullcontext()
        except OSError as exc:
            print(f"finmonad: error: cannot write report {args.report}: {exc.strerror}", file=sys.stderr)
            raise SystemExit(2)
        failing = []
        with copy as report:
            for r in reports(args):
                line = r.to_line()
                print(line, flush=True)
                if report:
                    print(line, file=report, flush=True)
                if not r.passed:
                    failing.append(line)
        return 0 if failing == expected(args) else 1
    return handler


def _law_reports(args) -> Iterator[LawReport]:
    for name in INSTANCES if args.instance == "all" else [args.instance]:
        yield from run_suite(INSTANCES[name])


def _powerset_reports(args) -> Iterator[LawReport]:
    for size in range(args.max_size + 1):
        space = make_finite_set(range(1, size + 1))
        yield check_unit_laws(space)
        yield check_associativity(space, samples=args.samples, seed=args.seed)
    yield from naturality_sweep(ETA, min(args.max_size, 3))
    yield from naturality_sweep(MU, min(args.max_size, 2))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finmonad",
        description="Worked container-monad demos and mechanical law checking.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("pythagoras", help="right-triangle triples via nested list binds")
    p.add_argument("--n", type=int, required=True, help="upper bound for all three sides")
    p.add_argument("--strict", action="store_true", help="only x < y < z")
    p.set_defaults(func=_printing(lambda args: [show(pythagorean_triples(args.n, strict=args.strict))]))

    p = sub.add_parser("list-demo", help="the list monad walkthrough")
    p.set_defaults(func=_printing(lambda args: list_demo_lines()))

    p = sub.add_parser("maybe-demo", help="guarded numeric pipelines over options")
    p.set_defaults(func=_printing(lambda args: maybe_demo_lines()))

    p = sub.add_parser("phonebook", help="option-valued lookup in the sample phonebook")
    p.add_argument("--name", required=True)
    p.set_defaults(func=_printing(lambda args: [show(lookup(args.name, PHONEBOOK))]))

    p = sub.add_parser("functor-demo", help="wrapper and four-shape functor transcripts")
    p.add_argument("--banner", action="store_true", help="wrap each transcript in begin/end banners")
    p.set_defaults(func=_printing(lambda args: functor_demo_lines(banner=args.banner)))

    p = sub.add_parser("laws", help="run the functor/monad law suites")
    p.add_argument("--instance", choices=[*INSTANCES, "all"], default="all")
    p.add_argument("--expect-fail", action="store_true",
                   help="exit 0 only when exactly the known four-shape identity failure occurs")
    p.add_argument("--report", metavar="PATH", help="also save the report lines to a file")
    expected = lambda args: [_KNOWN_SHAPE_FAILURE] if args.expect_fail else []
    p.set_defaults(func=_checking(_law_reports, expected))

    p = sub.add_parser("powerset-check", help="powerset monad coherence and naturality reports")
    # the unit laws at size K build P(P(X)), whose carrier P(X) has 2^K elements
    p.add_argument("--max-size", type=int, default=3, choices=range(POWERSET_CAP.bit_length()),
                   metavar="K", help="largest carrier size to check")
    p.add_argument("--seed", type=int, default=42, help="seed for sampled associativity")
    p.add_argument("--samples", type=int, default=10_000, help="sample count past the exhaustive sizes")
    p.add_argument("--report", metavar="PATH", help="also save the report lines to a file")
    p.set_defaults(func=_checking(_powerset_reports, lambda args: []))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "pythagoras" and args.n < 1:
        parser.error("--n must be at least 1")
    if args.command == "powerset-check" and args.samples < 1:
        parser.error("--samples must be at least 1")
    return args.func(args)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
