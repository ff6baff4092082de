from __future__ import annotations

import argparse
import errno
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import assert_transcript, load_golden
from finmonad import cli, powerset
from finmonad.cli import main as cli_main
from finmonad.containers import F1, F4
from finmonad.reports import Counterexample, LawReport


# ---------------------------------------------------------------------------
# golden transcripts
# ---------------------------------------------------------------------------

def test_pythagoras_golden(run_cli):
    code, out = run_cli("pythagoras", "--n", "9")
    assert code == 0
    assert out == load_golden("pythagoras_n9.txt")

    code, out = run_cli("pythagoras", "--n", "25", "--strict")
    assert code == 0
    assert out == load_golden("pythagoras_n25_strict.txt")


def test_list_demo_golden(run_cli):
    code, out = run_cli("list-demo")
    assert code == 0
    assert out == load_golden("list_demo.txt")


def test_maybe_demo_golden(run_cli):
    code, out = run_cli("maybe-demo")
    assert code == 0
    assert_transcript(out, load_golden("maybe_demo.txt"))


def test_phonebook_golden(run_cli):
    code, out = run_cli("phonebook", "--name", "Ali")
    assert code == 0
    assert out == load_golden("phonebook_ali.txt")

    code, out = run_cli("phonebook", "--name", "Salem")
    assert code == 0
    assert out == load_golden("phonebook_salem.txt")


def test_functor_demo_golden(run_cli):
    code, out = run_cli("functor-demo")
    assert code == 0
    assert out == load_golden("functor_demo.txt")


def test_functor_demo_with_banner(run_cli):
    code, out = run_cli("functor-demo", "--banner")
    assert code == 0
    assert out == load_golden("functor_demo_banner.txt")


# ---------------------------------------------------------------------------
# law suites and exit codes
# ---------------------------------------------------------------------------

def test_laws_clean_instances_exit_zero(run_cli):
    for instance in ("list", "option", "wrap"):
        code, out = run_cli("laws", "--instance", instance)
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 2


def test_laws_multishape_exits_one(run_cli):
    code, out = run_cli("laws", "--instance", "multishape")
    assert code == 1
    assert "FAIL functor-identity @ multishape witness=F4 200 lhs=F1 200 rhs=F4 200" in out


def test_laws_expected_failure_exits_zero(run_cli):
    code, _ = run_cli("laws", "--instance", "multishape", "--expect-fail")
    assert code == 0
    code, _ = run_cli("laws", "--instance", "all", "--expect-fail")
    assert code == 0


def test_laws_expect_fail_on_clean_instance_exits_one(run_cli):
    code, _ = run_cli("laws", "--instance", "list", "--expect-fail")
    assert code == 1


def test_laws_expect_fail_accepts_only_the_known_failure(run_cli, monkeypatch):
    known = LawReport("functor-identity", "multishape", 1, Counterexample(F4(200), F1(200), F4(200), (), None))
    other = LawReport("functor-identity", "multishape", 1, Counterexample(F4(201), F1(201), F4(201), (), None))
    for reports in ([other], [known, other]):
        monkeypatch.setattr(cli, "run_suite", lambda instance: iter(reports))
        code, _ = run_cli("laws", "--instance", "multishape", "--expect-fail")
        assert code == 1
    monkeypatch.setattr(cli, "run_suite", lambda instance: iter([known]))
    assert run_cli("laws", "--instance", "multishape", "--expect-fail") == (0, cli._KNOWN_SHAPE_FAILURE + "\n")


def test_laws_report_file(run_cli, tmp_path):
    path = tmp_path / "report.txt"
    code, out = run_cli("laws", "--instance", "list", "--report", str(path))
    assert code == 0
    assert path.read_text(encoding="utf-8") == out


def test_powerset_check_empty_set_only(run_cli):
    code, out = run_cli("powerset-check", "--max-size", "0")
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("PASS monad-unit[exhaustive] @ {}") for line in lines)
    assert any(line.startswith("PASS monad-associativity[exhaustive] @ {}") for line in lines)
    assert "FAIL" not in out


def test_powerset_check_small_sweep(run_cli):
    code, out = run_cli("powerset-check", "--max-size", "1", "--samples", "50")
    assert code == 0
    assert "naturality[eta]" in out and "naturality[mu]" in out
    assert "FAIL" not in out


def test_powerset_check_max_size_four_at_default_samples(run_cli):
    # the library's mu is decided a semilattice join from its index, so the
    # 10,000 samples at {1,2,3,4} are passed without a draw (the README times it)
    code, out = run_cli("powerset-check", "--max-size", "4")
    assert code == 0
    lines = out.splitlines()
    assert "PASS monad-unit[exhaustive] @ {1,2,3,4} checked=65536" in lines
    assert "PASS monad-associativity[sampled,seed=42,n=10000] @ {1,2,3,4} checked=10000" in lines


def test_powerset_check_max_size_four_builds_no_atom_table(run_cli, sets_built):
    # the README's claim, as a count on cold caches: the CLI path builds its 12
    # plain carriers and no powerset atom, so no member tuple and no atom fill
    with sets_built() as built:
        code, _ = run_cli("powerset-check", "--max-size", "4")
    assert code == 0
    assert (len(built.sets), built.atoms, built.members) == (12, [], [])


def test_powerset_check_default_builds_no_atom(run_cli, sets_built):
    # every check of the default command reads codes: no powerset atom is built
    with sets_built() as built:
        code, _ = run_cli("powerset-check")
    assert code == 0
    assert (built.atoms, built.members) == ([], [])


def test_laws_report_transcript_is_pinned(run_cli):
    code, out = run_cli("laws", "--instance", "multishape")
    assert code == 1
    assert out == load_golden("laws_multishape.txt")


def test_powerset_check_transcript_is_pinned(run_cli):
    code, out = run_cli("powerset-check", "--max-size", "1")
    assert code == 0
    assert out == load_golden("powerset_check_size1.txt")


def test_powerset_check_default_transcript_is_pinned(run_cli):
    code, out = run_cli("powerset-check")
    assert code == 0
    assert out == load_golden("powerset_check_default.txt")


def test_powerset_check_max_size_four_transcript_is_pinned(run_cli):
    code, out = run_cli("powerset-check", "--max-size", "4")
    assert code == 0
    assert out == load_golden("powerset_check_max4.txt")


def test_powerset_check_seeded_transcript_is_pinned(run_cli):
    code, out = run_cli("powerset-check", "--max-size", "2", "--seed", "7", "--samples", "300")
    assert code == 0
    assert out == load_golden("powerset_check_max2_seed7_samples300.txt")


def test_laws_all_transcript_is_pinned(run_cli):
    code, out = run_cli("laws")
    assert code == 1
    assert out == load_golden("laws_all.txt")


def test_powerset_check_streams_lines_before_a_crash(monkeypatch, capsys, tmp_path):
    real = cli.check_associativity

    def crash_at_size_one(space, **kwargs):
        if len(space) == 1:
            raise RuntimeError("crash at size 1")
        return real(space, **kwargs)

    monkeypatch.setattr(cli, "check_associativity", crash_at_size_one)
    path = tmp_path / "report.txt"
    with pytest.raises(RuntimeError):
        cli_main(["powerset-check", "--max-size", "1", "--report", str(path)])
    size0 = (
        "PASS monad-unit[exhaustive] @ {} checked=2\n"
        "PASS monad-associativity[exhaustive] @ {} checked=4\n"
    )
    out = capsys.readouterr().out
    assert out.startswith(size0)
    assert path.read_text(encoding="utf-8") == out


def test_powerset_check_streams_naturality_lines_before_a_crash(monkeypatch, capsys):
    # a sweep yields each cell's line once that cell is checked, so mu raising at
    # {1,2} leaves every line before the first cell that reads it
    def crash_at_size_two(space):
        if len(space) == 2:
            raise RuntimeError("crash at size 2")
        return powerset.mu_component(space)

    crashing = powerset.NatTransform("mu", powerset.POWERSET_SQUARED, powerset.POWERSET, crash_at_size_two)
    monkeypatch.setattr(cli, "MU", crashing)
    with pytest.raises(RuntimeError):
        cli_main(["powerset-check", "--max-size", "2", "--seed", "7", "--samples", "300"])
    golden = load_golden("powerset_check_max2_seed7_samples300.txt")
    first_cell_at_two = golden.index("PASS naturality[mu] @ {}->{1,2} ")
    assert capsys.readouterr().out == golden[:first_cell_at_two]
    assert golden[:first_cell_at_two].endswith("PASS naturality[mu] @ {}->{1} checked=2\n")


# ---------------------------------------------------------------------------
# one command, one parser
# ---------------------------------------------------------------------------

COMMANDS = ["pythagoras", "list-demo", "maybe-demo", "phonebook", "functor-demo", "laws", "powerset-check"]


@pytest.fixture
def printed(capsys, monkeypatch):
    """`printed(*argv, full=False)` runs `main(argv)` to its exit and returns (code, stdout, stderr);
    with `full`, `main` parses with `build_parser()`, which has every command."""

    def run(*argv: str, full: bool = False) -> tuple[int, str, str]:
        with monkeypatch.context() as patch:
            if full:
                whole = cli.build_parser
                patch.setattr(cli, "build_parser", lambda command=None: whole())
            with pytest.raises(SystemExit) as exc:
                cli_main(list(argv))
        return (exc.value.code, *capsys.readouterr())

    return run


def subcommands(parser: argparse.ArgumentParser) -> list[str]:
    return list(next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices)


def test_a_command_builds_only_its_own_parser(monkeypatch, capsys):
    built, construct = [], argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs["prog"])
        construct(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert cli_main(["powerset-check", "--max-size", "0"]) == 0
    assert built == ["finmonad", "finmonad powerset-check"]


def test_a_parser_without_a_known_command_has_every_command():
    # the README synopsis test and every help or usage error read the whole parser
    for command in (None, "-h", "frobnicate"):
        assert subcommands(cli.build_parser(command)) == COMMANDS
    assert [subcommands(cli.build_parser(command)) for command in COMMANDS] == [[c] for c in COMMANDS]


@pytest.mark.parametrize("command", COMMANDS)
def test_a_commands_help_is_the_whole_parsers(printed, command):
    code, out, err = printed(command, "-h")
    assert (code, err) == (0, "") and out.startswith(f"usage: finmonad {command} [-h]")
    assert printed(command, "-h", full=True) == (code, out, err)


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["-h", "laws"], ["powerset-check", "--seed"], ["list-demo", "extra"], ["laws", "--instance", "bogus"],
])
def test_help_and_usage_errors_are_the_whole_parsers(printed, argv):
    # the usage-error tests below check the rest
    assert printed(*argv) == printed(*argv, full=True)


def test_powerset_check_help_is_pinned(printed, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert printed("powerset-check", "--help") == (0, load_golden("powerset_check_help.txt"), "")


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------

def test_unknown_subcommand_is_usage_error(run_cli, printed):
    code, _ = run_cli("frobnicate")
    assert code == 2
    assert printed("frobnicate")[2] == printed("frobnicate", full=True)[2]


def test_unknown_flag_is_usage_error(run_cli, printed):
    code, _ = run_cli("pythagoras", "--n", "9", "--fast")
    assert code == 2
    argv = ("pythagoras", "--n", "9", "--fast")
    assert printed(*argv)[2] == printed(*argv, full=True)[2]


def test_missing_required_flag_is_usage_error(run_cli, printed):
    code, _ = run_cli("pythagoras")
    assert code == 2
    assert printed("pythagoras")[2] == printed("pythagoras", full=True)[2]


def test_out_of_range_n_is_usage_error(run_cli, printed):
    code, _ = run_cli("pythagoras", "--n", "0")
    assert code == 2
    assert printed("pythagoras", "--n", "0")[2] == printed("pythagoras", "--n", "0", full=True)[2]


def test_max_size_past_the_powerset_cap_is_usage_error(run_cli, printed):
    # at size 5 the unit laws would need P(P(X)) over a 32-element carrier
    assert run_cli("powerset-check", "--max-size", "5", "--samples", "1") == (2, "")
    assert run_cli("powerset-check", "--max-size", "-1") == (2, "")
    for argv in (("powerset-check", "--max-size", "5", "--samples", "1"), ("powerset-check", "--max-size", "-1")):
        assert printed(*argv)[2] == printed(*argv, full=True)[2]


def test_samples_below_one_is_usage_error(run_cli, printed):
    assert run_cli("powerset-check", "--max-size", "0", "--samples", "0") == (2, "")
    argv = ("powerset-check", "--max-size", "0", "--samples", "0")
    assert printed(*argv)[2] == printed(*argv, full=True)[2]


def test_unwritable_report_path_is_usage_error(capsys, tmp_path):
    path = tmp_path / "missing" / "report.txt"
    with pytest.raises(SystemExit) as exc:
        cli_main(["laws", "--instance", "list", "--report", str(path)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and str(path) in err


class FullDisk(io.StringIO):
    """A report file on a full disk: each write fails, and so does the close
    that flushes it, which still closes the file, as a real one's does."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def close(self):
        if not self.closed:
            super().close()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_a_report_write_that_fails_mid_run_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setattr(cli, "open", lambda *args, **kwargs: FullDisk(), raising=False)
    with pytest.raises(SystemExit) as exc:
        cli_main(["powerset-check", "--max-size", "0", "--report", "full.txt"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "PASS monad-unit[exhaustive] @ {} checked=2\n"  # printed before its copy failed
    assert err == f"finmonad: error: cannot write report full.txt: {os.strerror(errno.ENOSPC)}\n"


def test_a_closed_stdout_is_not_a_report_failure(monkeypatch, tmp_path):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    with pytest.raises(BrokenPipeError):
        cli_main(["powerset-check", "--max-size", "0", "--report", str(tmp_path / "report.txt")])


@pytest.mark.parametrize("argv", [["laws"], ["powerset-check", "--max-size", "1"], ["list-demo"]])
def test_a_closed_stdout_ends_the_run_without_a_traceback(argv):
    # stdout is a pipe whose read end is closed before the command starts, so
    # its first write fails, as under `| head -1` once head has exited
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    try:
        run = subprocess.run([sys.executable, "-m", "finmonad.cli", *argv], stdout=write_end,
                             stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (run.returncode, run.stderr) == (1, b"")
