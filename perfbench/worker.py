"""One workload run in a fresh interpreter, so every cache starts cold.

Usage: worker.py WORKLOAD POOL_INDEX SCALE TRACE SPANS_PATH [first]

run.py starts it with `src` on PYTHONPATH. The first thing it does is import
finmonad and stamp the monotonic clock, which run.py compares with its own
stamp taken just before the spawn to get the set-up time. WORKLOAD `none`
stops there; with `first` the workload stops at its first report line, which
times the first verdict without paying for the rest. Report lines go to
stdout as they are produced; the last line is `RESULT <json>`.
"""

import time

import finmonad  # noqa: F401  (imported first: its cost is the set-up time)

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv: list[str]) -> dict:
    workload, k, scale, trace, spans_path, *stop = argv
    if workload == "none":
        return {"imported": IMPORTED}

    import planted
    import workloads

    rec = workloads.Recorder(sys.stdout, now, stop_after_first=stop == ["first"])
    tracer = None
    if trace == "1":
        import tracing

        tracer = tracing.Tracer(f"{workload}:{k}")
        tracing.install(tracer, [*finmonad.INSTANCES.values(), planted.DROPPY_LIST])
    start = now()
    try:
        workloads.WORKLOADS[workload](int(k), workloads.SCALES[scale], rec)
    except workloads.FirstVerdict:
        pass
    end = rec.stamps[-1]
    result = {
        "imported": IMPORTED,
        "start": start,
        "first": rec.stamps[0],
        "last": end,
        "lawful": rec.lawful,
        "planted": rec.planted,
        "cases": rec.cases,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.summary(start, end)
        tracer.dump(spans_path)
    return result


if __name__ == "__main__":
    print("RESULT " + json.dumps(main(sys.argv[1:])), flush=True)
    # Exit without freeing the caches: on the powerset workloads that takes
    # about a second, which no metric includes and a run can spend on
    # another sample.
    os._exit(0)
