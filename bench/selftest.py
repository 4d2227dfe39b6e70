#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size.

    python3 bench/selftest.py

For each workload, a small pool runs untraced twice and traced once.  Every op
must give the answer known from the construction, the three runs must print
the same stdout digest, and the metric names and units printed must be the
ones BENCHMARK.json lists.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402

TINY = {"decide": 14, "express": 10, "reduce": 12}
SEED = 7


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("workload names differ from BENCHMARK.json")
    declared = {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
                "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in run.WORKLOADS:
        runs = [run.run(workload, SEED, 0, trace, TINY[workload], quiet=True)
                for trace in (False, False, True)]
        for result, trace in zip(runs, (False, False, True)):
            kind = "per_layer" if trace else "end_to_end"
            printed = {k: m["unit"] for k, m in result["metrics"].items()}
            if printed != declared[kind]:
                problems.append(f"{workload}: {kind} metrics differ from BENCHMARK.json")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload}: {result['failed']} of "
                                f"{result['attempted']} ops failed (trace={int(trace)})")
        if len({r["digest"] for r in runs}) != 1:
            problems.append(f"{workload}: stdout digests differ across runs")
        print(f"{workload}: {runs[0]['attempted']} ops, digest {runs[0]['digest'][:16]}")
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
