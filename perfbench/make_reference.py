"""Regenerate reference.json: the lawful report lines of every workload at
every pool index and scale, as the checked-out finmonad produces them.

Run from the root of a checkout, on the commit whose lines are the known
answers:

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

import io
import json
import time
from pathlib import Path

import run
import workloads


def main() -> None:
    reference = {}
    for scale_name, scale in workloads.SCALES.items():
        for workload, body in workloads.WORKLOADS.items():
            for k in range(run.POOL):
                rec = workloads.Recorder(io.StringIO(), time.monotonic)
                body(k, scale, rec)
                reference.setdefault(scale_name, {}).setdefault(workload, {})[str(k)] = rec.lawful
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(reference, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
