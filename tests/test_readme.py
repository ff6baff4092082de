"""The README's python quickstart runs as written, and each `# <value>`
comment in it is the value of the expression it annotates: the expression on
the comment's own line, or on the line above for a comment on a line of its
own. Renaming or removing an API name the README uses fails here, and so
does a CLI synopsis whose commands or flags differ from the parser's."""

from __future__ import annotations

import argparse
import ast
import io
import re
import tokenize
from pathlib import Path

from finmonad.cli import _KNOWN_SHAPE_FAILURE, build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def quickstart() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    return blocks[0]


def literal(comment: str):
    """The comment's value, or None when it is prose rather than a literal."""
    try:
        return (ast.literal_eval(comment),)
    except (ValueError, SyntaxError):
        return None


def test_readme_quickstart_values(capsys):
    source = quickstart()
    namespace: dict = {}
    values = {}  # last line of each expression statement -> its value
    for statement in ast.parse(source).body:
        if isinstance(statement, ast.Expr):
            code = compile(ast.Expression(statement.value), "README.md", "eval")
            values[statement.end_lineno] = eval(code, namespace)
        else:
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
    checked = 0
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type != tokenize.COMMENT:
            continue
        expected = literal(token.string[1:].strip())
        if expected is None:
            continue
        row = token.start[0]
        if row not in values:
            row -= 1
        assert row in values, f"README line {token.start[0]}: {token.string} annotates no expression"
        assert values[row] == expected[0], f"README line {token.start[0]}: got {values[row]!r}"
        checked += 1
    # apply(parity, 16), both .to_line() strings and LIST.bind(...)
    assert checked == 4
    assert "PASS functor-identity @ option" in capsys.readouterr().out


def test_readme_cli_synopsis_matches_the_parser():
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    synopsis = re.search(r"```\n(.*?)```", section, re.S).group(1)
    documented = {}
    for line in synopsis.splitlines():
        words = line.split("#", 1)[0].split()
        assert words[0] == "finmonad", line
        documented[words[1]] = set(re.findall(r"--[\w-]+", " ".join(words[2:])))
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    parsed = {
        name: {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, sub in commands.items()
    }
    assert documented == parsed


def test_readme_stock_counterexample_is_the_line_expect_fail_accepts():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"stock counterexample:\n\n```\n(.*?)```", text, re.S).group(1)
    assert block.splitlines() == [_KNOWN_SHAPE_FAILURE]
