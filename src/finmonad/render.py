"""Text rendering of payloads and containers for the CLI and report lines.

The grammar: lists as ``[v1,v2]`` with no spaces, tuples as ``(v1,v2)``,
strings in double quotes, booleans as ``True``/``False``, options as
``Nothing`` / ``Just v``, the wrapper as ``MyF v``, the four-shape
constructors as ``F1 v`` .. ``F4 v``, and floats in their shortest
round-trip form. A constructor argument that is itself negative or another
applied constructor is parenthesized, e.g. ``Just (-0.5)`` and
``Just (Just 5)``.

Finite sets and subsets render with braces, ``{1,2}``, and function tables
as ``{16->True,27->False}``; these appear only in law-report lines, never in
the demo transcripts.
"""

from __future__ import annotations

from .containers import F1, F2, F3, F4, Just, NOTHING, Wrap
from .finset import FiniteFunction, FiniteSet

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t"}

# the one-payload constructors by their exact type, none being subclassed
_TAGS = {Just: "Just", Wrap: "MyF", F1: "F1", F4: "F4"}


def _show_str(s: str) -> str:
    return '"' + "".join(_ESCAPES.get(ch, ch) for ch in s) + '"'


def _argument(value) -> str:
    """Render a constructor argument, parenthesizing when precedence demands."""
    text = show(value)
    if text.startswith("-") or type(value) in (*_TAGS, F2, F3):
        return f"({text})"
    return text


def show(value) -> str:
    """Render any supported value in the output grammar."""
    if isinstance(value, bool):
        return "True" if value else "False"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return _show_str(value)
    if isinstance(value, list):
        return "[" + ",".join(show(v) for v in value) + "]"
    if isinstance(value, tuple):
        return "(" + ",".join(show(v) for v in value) + ")"
    if value is NOTHING:
        return "Nothing"
    if tag := _TAGS.get(type(value)):
        return f"{tag} {_argument(value.value)}"
    if isinstance(value, F2):
        return f"F2 {show(list(value.values))}"
    if isinstance(value, F3):
        return f"F3 {show(tuple(value.pair))}"
    if isinstance(value, FiniteSet):
        return "{" + ",".join(show(v) for v in value) + "}"
    if isinstance(value, FiniteFunction):
        return "{" + ",".join(f"{show(x)}->{show(y)}" for x, y in value.pairs) + "}"
    raise TypeError(f"no rendering for {value!r}")
