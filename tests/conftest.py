from __future__ import annotations

import re
import tempfile
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from finmonad.cli import main as cli_main
from finmonad.finset import FiniteSet
from finmonad.powerset import _Subset

GOLDEN_DIR = Path(__file__).parent / "golden"

# the same examples on every run, and no example database written into the checkout
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def pytest_configure(config):
    """Hypothesis also caches the constants it reads from local sources in its
    home directory, `.hypothesis/` under the working directory, whatever the
    database; point it at a temporary directory that lives as long as the run."""
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(home.name)
    config.add_cleanup(home.cleanup)

_FLOAT = re.compile(r"-?\d+\.\d+(?:[eE][+-]?\d+)?")


def load_golden(name: str) -> str:
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")


def assert_transcript(actual: str, expected: str, tol: float = 1e-5) -> None:
    """Byte-exact line comparison, except lines containing floats, which are
    compared numerically at `tol` after checking the non-float skeleton."""
    actual_lines = actual.splitlines()
    expected_lines = expected.splitlines()
    assert len(actual_lines) == len(expected_lines), (
        f"line count {len(actual_lines)} != {len(expected_lines)}\n"
        f"actual:\n{actual}\nexpected:\n{expected}"
    )
    for i, (got, want) in enumerate(zip(actual_lines, expected_lines), start=1):
        if got == want:
            continue
        got_floats = _FLOAT.findall(got)
        want_floats = _FLOAT.findall(want)
        got_skeleton = _FLOAT.sub("<f>", got)
        want_skeleton = _FLOAT.sub("<f>", want)
        assert want_floats and got_skeleton == want_skeleton, (
            f"line {i} differs: {got!r} != {want!r}"
        )
        assert len(got_floats) == len(want_floats), f"line {i}: float count differs"
        for a, b in zip(got_floats, want_floats):
            assert abs(float(a) - float(b)) <= tol, (
                f"line {i}: float {a} differs from {b} by more than {tol}"
            )


@pytest.fixture
def sets_built(monkeypatch):
    """`with sets_built() as built:` records what the block constructs, in order:
    in `built.sets` the `elements` of every plain FiniteSet, in `built.atoms` every
    powerset atom (whose members are built only on first read), and in
    `built.members` every atom whose member tuple was built."""

    @contextmanager
    def recording():
        built = SimpleNamespace(sets=[], atoms=[], members=[])
        construct, make_atom, fill = FiniteSet.__init__, _Subset.__init__, _Subset.__getattr__

        def counting(self, elements=()):
            built.sets.append(elements)
            construct(self, elements)

        def counting_atoms(self, power, mask):
            built.atoms.append(self)
            make_atom(self, power, mask)

        def filling(self, name):
            value = fill(self, name)  # AttributeError for any slot but `elements`
            built.members.append(self)
            return value

        with monkeypatch.context() as patch:
            patch.setattr(FiniteSet, "__init__", counting)
            patch.setattr(_Subset, "__init__", counting_atoms)
            patch.setattr(_Subset, "__getattr__", filling)
            yield built

    return recording


@pytest.fixture
def run_cli(capsys):
    """Invoke the CLI in-process; returns (exit_code, stdout)."""

    def run(*argv: str) -> tuple[int, str]:
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        out = capsys.readouterr().out
        return code, out

    return run
