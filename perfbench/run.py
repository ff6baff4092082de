"""Benchmark of finmonad's law checker.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload powerset-cli --seed 0 --seconds 40 --trace 0

Workloads: powerset-cli, powerset-sampled, container-laws (see workloads.py
for what each runs and why). Load is a closed loop with one caller: one
worker process at a time, each a fresh interpreter with cold caches, until
`--seconds` would be exceeded, with at least three whole workload runs.
Each whole run is preceded by import-only workers, for `setup_s`, and,
where the first verdict is a small part of a workload, followed by
first-verdict workers that stop at their first report line, so that
`first_verdict_s` has as many samples as the other metrics. Worker i of a
run uses pool index (seed + i) mod 16; the seed commit's lawful report
lines for every pool index are stored in reference.json, and every line is
compared with them byte for byte.

With `--trace 0` the end-to-end metrics are printed; with `--trace 1` the
per-layer metrics, from workers that alternate untraced and traced runs of
the same pool index. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Human-readable lines before it give each metric's quartiles and sample
count, the environment, and every line that differed. A fuller record goes
to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RESULTS = HERE / "results"

WORKLOADS = ("powerset-cli", "powerset-sampled", "container-laws")
# Workloads whose planted defects are all checked exhaustively or over fixed
# panels, so a missed defect is a wrong verdict rather than a sampling miss.
MUST_CATCH = {"powerset-cli", "container-laws"}

END_TO_END = {
    "setup_s": "s",
    "verdict_s": "s",
    "first_verdict_s": "s",
    "peak_rss_mb": "MB",
}

_SPANS = (
    "cli.main",
    "finset.compose",
    "finset.identity",
    "powerset.powerset_object",
    "powerset.powerset_arrow",
    "powerset.component",
    "powerset.check_associativity",
    "powerset.check_unit_laws",
    "powerset.check_naturality",
    "powerset.naturality_sweep",
    "laws.random_generators",
    "laws.check_functor_laws",
    "laws.check_monad_laws",
    "laws.check_bind_join_coherence",
    "containers.map",
    "containers.bind",
    "containers.join",
    "render.show",
    "reports.to_line",
    "reports.recheck",
)
_CALLS = (
    "finset.compose",
    "powerset.powerset_object",
    "powerset.powerset_arrow",
    "powerset.component",
    "powerset.check_associativity",
    "powerset.check_naturality",
    "containers.map",
    "containers.bind",
    "containers.join",
    "render.show",
    "reports.recheck",
)
PER_LAYER = {
    **{f"{name}.self_s": "s" for name in _SPANS},
    **{f"{name}.calls": "count" for name in _CALLS},
    "finset.enumerate_functions.arrows": "count",
    "powerset.powerset_object.elements": "count",
    "laws.cases": "count",
    "checks.planted": "count",
    "checks.planted_missed": "ratio",
    "checks.failed": "ratio",
    "trace.verdict_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead": "ratio",
}

POOL = 16
MIN_WORKERS = 3
# Import-only workers before each whole run, for setup_s.
SETUP_PROBES = 2
# First-verdict workers after each whole run. powerset-cli prints every line
# at the end, so its first verdict is most of the run and needs none.
FIRST_PROBES = {"powerset-cli": 0, "powerset-sampled": 3, "container-laws": 2}
WORKER_TIMEOUT_S = 150

# The machine's speed switches between a fast and a slow state every few
# seconds. A median of verdict times takes whichever state held most of the
# run, and jumps from run to run; their mean weighs each state by the time it
# held. setup_s stays a median, which keeps its 0.1 s samples clear of
# hiccups, and so does peak_rss_mb, which does not depend on speed.
MEANS = {"verdict_s", "first_verdict_s"}

_LINE = re.compile(r"^(PASS|FAIL) (\S+?)(?:\[(.*?)\])? @ (\S+)")


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, k: int, scale: str, trace: bool, first: bool = False) -> dict:
    """Run one worker to completion; its result gains `setup_s`, `k`,
    `traced` and `first_only`. With `first` it stops at its first report
    line."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    spans = RESULTS / f"spans-{workload}.pkl"
    argv = [sys.executable, str(WORKER), workload, str(k), scale, "1" if trace else "0", str(spans)]
    if first:
        argv.append("first")
    spawned = clock()
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{workload} worker {k} ran past {WORKER_TIMEOUT_S} s") from None
    last = proc.stdout.rstrip("\n").rpartition("\n")[2]
    if proc.returncode != 0 or not last.startswith("RESULT "):
        raise WorkerError(f"{workload} worker {k} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(last[len("RESULT "):])
    result.update(setup_s=result["imported"] - spawned, k=k, traced=trace, first_only=first)
    return result


def run_workers(workload: str, seed: int, seconds: float, scale: str,
                trace: bool) -> tuple[list, list, list, list]:
    """Whole untraced runs while the next one is expected to end within
    `seconds`, but at least MIN_WORKERS (with `trace`, at least one; each
    whole run then has a traced twin). Without `trace`, each whole run comes
    with SETUP_PROBES import-only workers before it and FIRST_PROBES
    first-verdict workers after it, as time allows. Interleaving them
    spreads their samples over the run, so that they time the whole run, as
    the whole runs do, and not one phase of a shared machine."""
    plain, traced, firsts, setups = [], [], [], []
    minimum, setup_probes, first_probes = (1, 0, 0) if trace else (
        MIN_WORKERS, SETUP_PROBES, FIRST_PROBES[workload])
    spent = {"whole": [], "first": []}
    started = clock()

    def fits(kind: str) -> bool:
        return clock() - started + statistics.median(spent[kind] or [0.0]) <= seconds

    def next_k() -> int:
        return (seed + len(plain) + len(firsts)) % POOL

    while len(plain) < minimum or fits("whole"):
        t = clock()
        setups += [spawn("none", 0, scale, False)["setup_s"] for _ in range(setup_probes)]
        k = next_k()
        plain.append(spawn(workload, k, scale, False))
        if trace:
            traced.append(spawn(workload, k, scale, True))
        spent["whole"].append(clock() - t)
        for _ in range(first_probes):
            if not fits("first"):
                break
            t = clock()
            firsts.append(spawn(workload, next_k(), scale, False, first=True))
            spent["first"].append(clock() - t)
    return plain, traced, firsts, setups


def describe(line: str) -> dict:
    """Law, mode and subject of a report line, for the results record."""
    match = _LINE.match(line)
    if not match:
        return {"line": line}
    verdict, law, mode, subject = match.groups()
    return {"verdict": verdict, "law": law, "mode": mode or "panel", "subject": subject}


def compare(expected: list[str], got: list[str]) -> list[str]:
    """One message per lawful line that differs from the reference."""
    problems = []
    for i in range(max(len(expected), len(got))):
        want = expected[i] if i < len(expected) else None
        have = got[i] if i < len(got) else None
        if want != have:
            problems.append(f"line {i + 1}: expected {want!r}, got {have!r}")
    return problems


def environment() -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "git": sha,
    }


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"q1={q1:.6g} q3={q3:.6g} n={len(values)}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs the same code on small inputs, for the self-tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "finmonad" / "__init__.py").is_file():
        print(f"perfbench: no finmonad sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))[args.scale][args.workload]
    RESULTS.mkdir(exist_ok=True)
    env = environment()

    try:
        plain, traced, firsts, setups = run_workers(
            args.workload, args.seed, args.seconds, args.scale, bool(args.trace)
        )
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    workers = plain + traced + firsts
    problems = []
    attempted = failed = planted = missed = 0
    for w in workers:
        expected = reference[str(w["k"])][: 1 if w["first_only"] else None]
        diff = compare(expected, w["lawful"])
        problems += [f"pool index {w['k']}: {p}" for p in diff]
        attempted += len(expected) + len(w["planted"])
        failed += len(diff) + sum(p["error"] for p in w["planted"])
        planted += len(w["planted"])
        missed += sum(not p["caught"] for p in w["planted"])

    samples: dict[str, list[float]] = {}
    if args.trace:
        for name in PER_LAYER:
            samples[name] = [w["layers"].get(name, 0.0) for w in traced]
        samples["laws.cases"] = [float(w["cases"]) for w in traced]
        samples["checks.planted"] = [float(len(w["planted"])) for w in traced]
        samples["checks.planted_missed"] = [missed / planted]
        samples["checks.failed"] = [failed / attempted]
        samples["trace.overhead"] = [
            statistics.median(w["last"] - w["start"] for w in traced)
            / statistics.median(w["last"] - w["start"] for w in plain)
        ]
        units = PER_LAYER
    else:
        samples["setup_s"] = setups + [w["setup_s"] for w in plain + firsts]
        samples["verdict_s"] = [w["last"] - w["start"] for w in plain]
        samples["first_verdict_s"] = [w["first"] - w["start"] for w in plain + firsts]
        samples["peak_rss_mb"] = [w["rss_kb"] / 1024 for w in plain]
        units = END_TO_END
    metrics = {
        name: {"value": (statistics.fmean if name in MEANS else statistics.median)(samples[name]),
               "unit": unit}
        for name, unit in units.items()
    }
    correct = failed == 0 and not (args.workload in MUST_CATCH and missed)

    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} scale={args.scale} "
        f"python={env['python']} nproc={env['nproc']} git={env['git']} "
        f"pool={[w['k'] for w in plain]} first-verdict pool={[w['k'] for w in firsts]}"
    )
    for name, metric in metrics.items():
        average = "mean" if name in MEANS else "median"
        print(f"  {name} = {metric['value']:.6g} {metric['unit']} ({average}; {spread(samples[name])})")
    print(f"  planted defects missed: {missed} of {planted}")
    print(f"  checks failed: {failed} of {attempted}")
    for problem in problems:
        print(f"  MISMATCH {problem}")
    if args.workload in MUST_CATCH:
        for w in workers:
            for p in w["planted"]:
                if not p["caught"]:
                    print(f"  WRONG VERDICT pool index {w['k']}: planted {p['label']} was not caught")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "scale": args.scale,
        "environment": env,
        "workers": [
            {
                "pool_index": w["k"],
                "traced": w["traced"],
                "first_only": w["first_only"],
                "setup_s": w["setup_s"],
                "verdict_s": w["last"] - w["start"],
                "first_verdict_s": w["first"] - w["start"],
                "peak_rss_mb": w["rss_kb"] / 1024,
                "checks": [describe(line) for line in w["lawful"]],
                "planted": w["planted"],
            }
            for w in workers
        ],
        "metrics": metrics,
        "mismatches": problems,
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
