"""Spans around calls into finmonad's public functions, recorded from outside.

`install` rebinds each public function in every `finmonad.*` namespace that
holds it, and wraps `NatTransform.component`, `LawReport.to_line`,
`Counterexample.recheck` and each container instance's `map`/`bind`/`join`.
`NatTransform.component` has to be wrapped on the class: ETA and MU hold
direct references to `eta_component`/`mu_component`, so rebinding module
names alone would miss every mu/eta table build.

Each span records its name, start, end and parent span; all spans of one
worker share a run id. Spans stay in compact arrays in memory and are
written out once the workload has finished. A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import pickle
import sys
import time
from array import array
from collections import Counter

import finmonad
import finmonad.cli
from finmonad import finset, laws, powerset, render, reports


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.counts: Counter = Counter()
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.stack: list[int] = []

    def wrap(self, name: str, fn, *, outermost: bool = False, size_counter: str | None = None):
        """`fn` inside a span called `name`. With `outermost`, a call made
        directly inside a span of the same name records nothing. With
        `size_counter`, the length of each result is added to that count."""
        name_id = self.ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        span_name, span_start, span_end, span_parent = (
            self.span_name, self.span_start, self.span_end, self.span_parent,
        )
        stack, counts, clock = self.stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            if outermost and stack and span_name[stack[-1]] == name_id:
                return fn(*args, **kwargs)
            index = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(index)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[index] = clock()
                stack.pop()
            if size_counter is not None:
                counts[size_counter] += len(result)
            return result

        return traced

    def count_yields(self, counter: str, fn):
        """`fn` returning an iterator, with each item it yields counted."""
        counts = self.counts

        def counted(*args, **kwargs):
            def items():
                for item in fn(*args, **kwargs):
                    counts[counter] += 1
                    yield item

            return items()

        return counted

    def summary(self, window_start: float, window_end: float) -> dict[str, float]:
        """Calls and self time per span name, the counters, and the part of
        the window that no span covers."""
        child = [0.0] * len(self.span_name)
        calls = Counter()
        self_s = Counter()
        covered = 0.0
        for start, end, parent in zip(self.span_start, self.span_end, self.span_parent):
            duration = end - start
            if parent >= 0:
                child[parent] += duration
            else:
                covered += duration
        for i, (name_id, start, end) in enumerate(zip(self.span_name, self.span_start, self.span_end)):
            name = self.names[name_id]
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        out = {f"{name}.calls": float(calls[name]) for name in self.names}
        out.update({f"{name}.self_s": float(self_s[name]) for name in self.names})
        out.update({name: float(value) for name, value in self.counts.items()})
        out["trace.verdict_s"] = window_end - window_start
        out["trace.untraced_s"] = (window_end - window_start) - covered
        return out

    def dump(self, path: str) -> None:
        with open(path, "wb") as fh:
            pickle.dump(
                {
                    "run_id": self.run_id,
                    "names": self.names,
                    "name": self.span_name,
                    "start": self.span_start,
                    "end": self.span_end,
                    "parent": self.span_parent,
                },
                fh,
            )


def _rebind(original, replacement) -> None:
    """Point every finmonad namespace entry that holds `original` at `replacement`."""
    for module_name, module in list(sys.modules.items()):
        if module_name != "finmonad" and not module_name.startswith("finmonad."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


FUNCTIONS = (
    ("cli.main", finmonad.cli.main),
    ("finset.compose", finset.compose),
    ("finset.identity", finset.identity),
    ("powerset.powerset_arrow", powerset.powerset_arrow),
    ("powerset.check_associativity", powerset.check_associativity),
    ("powerset.check_unit_laws", powerset.check_unit_laws),
    ("powerset.check_naturality", powerset.check_naturality),
    ("powerset.naturality_sweep", powerset.naturality_sweep),
    ("laws.random_generators", laws.random_generators),
    ("laws.check_functor_laws", laws.check_functor_laws),
    ("laws.check_monad_laws", laws.check_monad_laws),
    ("laws.check_bind_join_coherence", laws.check_bind_join_coherence),
)

METHODS = (
    ("powerset.component", powerset.NatTransform, "component"),
    ("reports.to_line", reports.LawReport, "to_line"),
    ("reports.recheck", reports.Counterexample, "recheck"),
)


def install(tracer: Tracer, instances) -> None:
    """Wrap the public entry points of every layer, and the map/bind/join
    of each of `instances`."""
    for name, fn in FUNCTIONS:
        _rebind(fn, tracer.wrap(name, fn))
    _rebind(
        powerset.powerset_object,
        tracer.wrap(
            "powerset.powerset_object",
            powerset.powerset_object,
            size_counter="powerset.powerset_object.elements",
        ),
    )
    _rebind(render.show, tracer.wrap("render.show", render.show, outermost=True))
    _rebind(
        finset.enumerate_functions,
        tracer.count_yields("finset.enumerate_functions.arrows", finset.enumerate_functions),
    )
    for name, cls, attr in METHODS:
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr)))
    for instance in instances:
        for op in ("map", "bind", "join"):
            setattr(instance, op, tracer.wrap(f"containers.{op}", getattr(instance, op)))
