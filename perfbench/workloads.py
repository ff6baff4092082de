"""The benchmark's three workloads, run inside one fresh worker process each.

Each workload takes a pool index `k` (see run.py) and draws every inner seed
from it, so the same index always gives the same inputs and the same lawful
report lines. Lawful checks are compared byte for byte with the seed
commit's lines in reference.json; planted-defect checks only count towards
`planted_missed`.

Why these three:
  powerset-cli      the default `powerset-check` command, then planted mu and
                    eta defects at a small carrier checked exhaustively. Its
                    cost is building P^3, mu at P(X) and P(mu), composing them
                    and comparing 65,536 entries; it never touches containers.
  powerset-sampled  unit laws and sampled associativity at {1,2,3} and
                    {1,2,3,4}, with the correct mu and with mu corrupted at
                    one family. It never builds P^3; its cost is drawing
                    families, and it is where sampled verdicts miss defects.
  container-laws    the law harness over seeded random panels for all four
                    container instances plus the DroppyJoin list. It touches
                    only laws, containers and render, so powerset changes
                    should leave it unchanged.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass

import finmonad
import finmonad.cli

import planted


@dataclass(frozen=True)
class Scale:
    """Input sizes for one run of the workloads."""

    cli_args: tuple[str, ...]  # extra powerset-check arguments
    planted_carrier: int  # carrier size for the exhaustive planted defects
    sampled: tuple[tuple[int, int], ...]  # (carrier size, samples) pairs
    lawful_seeds: int  # correct-mu sampled checks per carrier
    planted_per_size: int  # corrupted-mu sampled checks per carrier
    container_size: int  # random panel size per container instance


SCALES = {
    # What the benchmark measures: the CLI's defaults (max size 3, 10,000
    # samples), and at {1,2,3,4}, where one sample costs ~0.1 s, 4 samples.
    "full": Scale((), 2, ((3, 10_000), (4, 4)), 2, 4, 1000),
    # For the benchmark's self-tests: the same code paths in well under a second.
    "tiny": Scale(("--max-size", "1", "--samples", "100"), 1, ((3, 100),), 1, 2, 30),
}


def derive(k: int, tag: str) -> int:
    """An inner seed for pool index `k`, independent for each `tag`."""
    return random.Random(f"{tag}:{k}").randrange(2**31)


def _as_list(reports) -> list:
    return reports if isinstance(reports, list) else [reports]


class FirstVerdict(BaseException):
    """Raised after the first report line by a recorder told to stop there.
    A BaseException, so that no check's error handling turns it into a
    verdict."""


class Recorder:
    """One worker run's verdicts, each line stamped as it reaches stdout."""

    def __init__(self, out, clock, stop_after_first: bool = False):
        self.out = out
        self.clock = clock
        self.stop_after_first = stop_after_first
        self.lawful: list[str] = []
        self.planted: list[dict] = []
        self.stamps: list[float] = []
        self.cases = 0  # sum of `checked` over container-law reports

    def _write(self, line: str) -> None:
        self.out.write(line + "\n")
        self.out.flush()
        self.stamps.append(self.clock())
        if self.stop_after_first:
            raise FirstVerdict

    def lawful_line(self, line: str) -> None:
        self.lawful.append(line)
        self._write(line)

    def lawful_check(self, label: str, call) -> list:
        """Run a check that must match the reference; an exception becomes
        an ERROR line, which never matches."""
        try:
            reports = _as_list(call())
        except Exception as exc:
            self.lawful_line(f"ERROR {label}: {type(exc).__name__}: {exc}")
            return []
        for report in reports:
            self.lawful_line(report.to_line())
        return reports

    def planted_check(self, label: str, call) -> list:
        """Run a check on a planted defect. It is caught when some report
        fails and every failing report's witness reproduces on recheck."""
        try:
            reports = _as_list(call())
        except Exception as exc:
            self._write(f"planted {label}: ERROR {type(exc).__name__}: {exc}")
            self.planted.append({"label": label, "caught": False, "error": True})
            return []
        failures = [r for r in reports if not r.passed]
        caught = bool(failures) and all(r.counterexample.recheck() for r in failures)
        for report in reports:
            self._write(f"planted {label}: {report.to_line()}")
        self.planted.append({"label": label, "caught": caught, "error": False})
        return reports


class _LineTap(io.TextIOBase):
    """A stdout stand-in that hands each completed line to the recorder."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.pending = ""

    def write(self, text: str) -> int:
        *lines, self.pending = (self.pending + text).split("\n")
        for line in lines:
            self.rec.lawful_line(line)
        return len(text)


def powerset_cli(k: int, scale: Scale, rec: Recorder) -> None:
    argv = ["powerset-check", "--seed", str(derive(k, "cli")), *scale.cli_args]
    try:
        with contextlib.redirect_stdout(_LineTap(rec)):
            status = finmonad.cli.main(argv)
    except (Exception, SystemExit) as exc:
        status = f"{type(exc).__name__}: {exc}"
    rec.lawful_line(f"exit {status}")

    rng = random.Random(f"powerset-cli:{k}")
    space = finmonad.make_finite_set(range(1, scale.planted_carrier + 1))
    mu, label = planted.corrupt_mu(space, rng)
    rec.planted_check(label, lambda: finmonad.check_associativity(space, mu=mu))
    eta, label = planted.corrupt_eta(space, rng)
    rec.planted_check(f"{label} unit", lambda: finmonad.check_unit_laws(space, eta=eta))
    # Into a set whose eta is intact, as in acceptance criterion 6: along an
    # arrow between two copies of the corrupted component, the corruption
    # can itself be natural.
    arrow = rng.choice(list(finmonad.enumerate_functions(space, finmonad.make_finite_set([True, False]))))
    rec.planted_check(f"{label} naturality", lambda: finmonad.check_naturality(eta, arrow))


def powerset_sampled(k: int, scale: Scale, rec: Recorder) -> None:
    rng = random.Random(f"powerset-sampled:{k}")
    for size, samples in scale.sampled:
        space = finmonad.make_finite_set(range(1, size + 1))
        # Sampled associativity first: the first verdict then times 10,000
        # samples, not a unit-law check of a few milliseconds.
        for _ in range(scale.lawful_seeds):
            seed = rng.randrange(2**31)
            rec.lawful_check(
                f"associativity at {size}, seed {seed}",
                lambda: finmonad.check_associativity(space, samples=samples, seed=seed),
            )
        rec.lawful_check(f"unit laws at {size}", lambda: finmonad.check_unit_laws(space))
        for _ in range(scale.planted_per_size):
            mu, label = planted.corrupt_mu(space, rng)
            seed = rng.randrange(2**31)
            rec.planted_check(
                f"{label} seed={seed}",
                lambda: finmonad.check_associativity(space, samples=samples, seed=seed, mu=mu),
            )


def container_laws(k: int, scale: Scale, rec: Recorder) -> None:
    for name, instance in finmonad.INSTANCES.items():
        seed = derive(k, name)
        reports = rec.lawful_check(
            name,
            lambda: finmonad.run_suite(
                instance, finmonad.random_generators(instance, seed=seed, size=scale.container_size)
            ),
        )
        rec.cases += sum(r.checked for r in reports)
    seed = derive(k, "list")
    reports = rec.planted_check(
        planted.DROPPY_LIST.name,
        lambda: finmonad.run_suite(
            planted.DROPPY_LIST,
            finmonad.random_generators(finmonad.LIST, seed=seed, size=scale.container_size),
        ),
    )
    rec.cases += sum(r.checked for r in reports)


WORKLOADS = {
    "powerset-cli": powerset_cli,
    "powerset-sampled": powerset_sampled,
    "container-laws": container_laws,
}
