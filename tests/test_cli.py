from __future__ import annotations

import pytest

from conftest import assert_transcript, load_golden
from finmonad import cli
from finmonad.cli import main as cli_main


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
    # 10,000 small families at {1,2,3,4} take about a second to draw
    code, out = run_cli("powerset-check", "--max-size", "4")
    assert code == 0
    lines = out.splitlines()
    assert "PASS monad-unit[exhaustive] @ {1,2,3,4} checked=65536" in lines
    assert "PASS monad-associativity[sampled,seed=42,n=10000] @ {1,2,3,4} checked=10000" in lines


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


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------

def test_unknown_subcommand_is_usage_error(run_cli):
    code, _ = run_cli("frobnicate")
    assert code == 2


def test_unknown_flag_is_usage_error(run_cli):
    code, _ = run_cli("pythagoras", "--n", "9", "--fast")
    assert code == 2


def test_missing_required_flag_is_usage_error(run_cli):
    code, _ = run_cli("pythagoras")
    assert code == 2


def test_out_of_range_n_is_usage_error(run_cli):
    code, _ = run_cli("pythagoras", "--n", "0")
    assert code == 2


def test_max_size_past_the_powerset_cap_is_usage_error(run_cli):
    # at size 5 the unit laws would need P(P(X)) over a 32-element carrier
    assert run_cli("powerset-check", "--max-size", "5", "--samples", "1") == (2, "")
    assert run_cli("powerset-check", "--max-size", "-1") == (2, "")


def test_samples_below_one_is_usage_error(run_cli):
    assert run_cli("powerset-check", "--max-size", "0", "--samples", "0") == (2, "")


def test_unwritable_report_path_is_usage_error(capsys, tmp_path):
    path = tmp_path / "missing" / "report.txt"
    with pytest.raises(SystemExit) as exc:
        cli_main(["laws", "--instance", "list", "--report", str(path)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and str(path) in err
