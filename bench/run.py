#!/usr/bin/env python3
"""Benchmark of the gpi command-line tool on three seeded workloads.

    python3 bench/run.py --workload decide|express|reduce --seed N --seconds S --trace 0|1

One client in a closed loop: a single process and thread calls the real CLI
entry point, gpi.cli.main, in process, one problem after another, and checks
every answer against the answer known from how the input was built (see
workloads.py).  A problem is one produce step (check, express or z3reduce) and,
when it emits a certificate, one `gpi verify` of that certificate.

The seed's pool of problems is written to files during set-up.  The first pass
over the pool checks every output in full.  Later passes compare each op's
stdout with the first pass.  The printed digest hashes all stdout of one pass
(the traced one under --trace 1); it must be the same for every run on the
same seed, traced or not.

--trace 0 repeats passes until --seconds have gone by and prints the
end-to-end metrics, with op times in reference-kernel units (see END_TO_END).
--trace 1 makes one untraced pass and one traced pass (spans.py) and prints
the per-layer metrics of the traced pass, with the tracing overhead.  Span and
per-op records go to .bench_out/.

The last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from spans import Tracer, install
from workloads import make_pool

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

WORKLOADS = ("decide", "express", "reduce")
POOL_SIZE = {"decide": 140, "express": 100, "reduce": 400}
OP_DEADLINE_S = 30.0      # per problem, produce and verify together
FIRST_PASS_LIMIT_S = 150.0
SETUP_SAMPLES = 11
SETUP_PROBLEM = "group: Z2\nvars: x1:0\npoly: x1*x1 - x1*x1\n"

# Op times are reported in "ref" units: multiples of the time the reference
# kernel took next to the op (see reference_kernel).  The host's speed drifts by
# a quarter between runs and that drift moves kernel and op alike; the ratio
# keeps what the program itself costs.  Raw milliseconds go to the report lines.
END_TO_END = {
    "setup_s": "s", "op_ref.mean": "ref", "op_ref.p50": "ref", "op_ref.p90": "ref",
    "produce_ref.p50": "ref", "produce_ref.p90": "ref",
    "out_bytes": "bytes", "ok_ratio": "ratio", "peak_rss_mb": "MB",
}
REF_WINDOW = 2            # ops on each side whose kernel times set an op's local ref
SPAN_LAYERS = ("cli", "dsl.parse", "groups.build", "genmat.eval", "identity.witness",
               "rewrite.express", "rewrite.verify", "z3reduce.build", "z3reduce.verify",
               "certs.encode", "certs.decode", "freealg.subst")
COUNTS = {
    "dsl.parse.bytes": "bytes", "dsl.parse.terms": "count", "groups.build.n3": "count",
    "genmat.eval.words": "count", "genmat.eval.cells": "count",
    "genmat.closed.calls": "count", "rewrite.shared_entry.calls": "count",
    "rewrite.express.rounds": "count", "rewrite.partner_hit_ratio": "ratio",
    "rewrite.chain.moves": "count", "z3reduce.tree_nodes": "count",
    "z3reduce.distinct_nodes": "count", "z3reduce.sharing_ratio": "ratio",
    "z3reduce.leaves": "count", "z3reduce.depth": "count", "certs.encode.bytes": "bytes",
    "trace.produce_overhead_ms": "ms", "trace.verify_overhead_ms": "ms",
}
PER_LAYER = {f"{layer}.{m}": unit for layer in SPAN_LAYERS
             for m, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))}
PER_LAYER.update(COUNTS)


class DeadlineExceeded(Exception):
    pass


def _alarm(signum, frame):
    raise DeadlineExceeded


# --- one problem ----------------------------------------------------------------

def call_cli(gpi, argv: list[str]) -> tuple[int, str, float]:
    """Run gpi.cli.main in process; exit code, stdout and wall seconds."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = gpi.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        seconds = time.perf_counter() - start
    return code, out.getvalue(), seconds


def reference_kernel() -> float:
    """Milliseconds taken by fixed pure-Python work shaped like the library's own
    (tuple-keyed dict updates, copies and a sort); gpi is not involved."""
    start = time.perf_counter()
    acc: dict = {}
    for i in range(3000):
        key = ((i * 7919) % 211, (i * 104729) % 199)
        acc[key] = acc.get(key, 0) + 1
        if i % 300 == 0:
            acc = dict(acc)
    sorted(acc)
    return (time.perf_counter() - start) * 1e3


def run_op(gpi, index: int, problem, files: Path) -> dict:
    """Produce, then verify when certified; the record holds timings and any error."""
    rec = {"op": index, "command": problem.command, **problem.size,
           "ref_ms": reference_kernel(), "produce_ms": None, "verify_ms": None,
           "error": None, "out": "", "verify_out": ""}
    signal.setitimer(signal.ITIMER_REAL, OP_DEADLINE_S)
    try:
        code, out, seconds = call_cli(gpi, [problem.command, str(files / f"p{index}.txt")])
        rec.update(produce_ms=seconds * 1e3, out=out)
        if code != problem.expect:
            rec["error"] = f"{problem.command} exited {code}, expected {problem.expect}"
        elif problem.certified:
            cert = files / f"c{index}.json"
            cert.write_text(out, encoding="utf-8")
            code, vout, seconds = call_cli(gpi, ["verify", str(cert)])
            rec.update(verify_ms=seconds * 1e3, verify_out=vout)
            if code != 0:
                rec["error"] = f"verify exited {code}"
    except DeadlineExceeded:
        rec["error"] = f"over the {OP_DEADLINE_S:.0f} s deadline"
    except Exception as exc:  # noqa: BLE001 - any raise is a failed op, recorded
        rec["error"] = f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return rec


# --- checking outputs -----------------------------------------------------------

def tree_stats(root: dict) -> dict:
    """Tree nodes, content-distinct nodes, leaves, depth, and longest leaf part."""
    table: dict = {}
    st = {"tree": 0, "leaves": 0, "depth": 0, "longest": 0}

    def visit(node, depth):
        st["tree"] += 1
        st["depth"] = max(st["depth"], depth)
        op = node["op"]
        if op == "leaf":
            st["leaves"] += 1
            st["longest"] = max(st["longest"], *map(len, node["generator"]["parts"]))
            key = (op, json.dumps(node["generator"], sort_keys=True))
        elif op == "sum":
            key = (op, tuple((c, visit(ch, depth + 1)) for c, ch in node["children"]))
        elif op == "context":
            key = (op, tuple(node["left"]), tuple(node["right"]),
                   visit(node["child"], depth + 1))
        elif op == "subst":
            key = (op, json.dumps(node["images"]), visit(node["child"], depth + 1))
        else:
            raise ValueError(f"unknown node {op!r}")
        return table.setdefault(key, len(table))

    visit(root, 1)
    st["distinct"] = len(table)
    return st


def check_output(problem, rec: dict, counts: dict) -> str | None:
    """Compare an op's output with the known answer; add structural counts."""
    doc = json.loads(rec["out"])
    if problem.certified:
        valid = json.loads(rec["verify_out"])
        if valid.get("valid") is not True:
            return "certificate did not verify"
    if problem.command == "check":
        if doc.get("identity") is not (problem.expect == 0):
            return "wrong identity answer"
        if problem.expect and not doc["witness"]["value"]:
            return "empty witness"
    elif problem.command == "express":
        if problem.expect:
            return None if doc.get("expressed") is False and doc.get("witness") else \
                "non-identity without a witness"
        terms = doc["payload"]["terms"]
        expansion: dict = {}
        for t in terms:
            for w, c in ((tuple(t["source"]), t["coeff"]), (tuple(t["target"]), -t["coeff"])):
                expansion[w] = expansion.get(w, 0) + c
        if {w: c for w, c in expansion.items() if c} != problem.poly:
            return "combination does not expand to the input"
        counts["rewrite.express.rounds"] += len(terms)
        counts["rewrite.chain.moves"] += sum(len(t["chain"]["moves"]) for t in terms)
    else:
        payload = doc["payload"]
        if payload["target"]["parts"] != problem.parts:
            return "certificate proves another generator"
        if not isinstance(payload.get("root"), dict):
            return None  # not a version-1 tree: `gpi verify` alone vouches for it
        st = tree_stats(payload["root"])
        if st["longest"] > 3:
            return "a leaf has a part longer than 3"
        counts["z3reduce.tree_nodes"] += st["tree"]
        counts["z3reduce.distinct_nodes"] += st["distinct"]
        counts["z3reduce.leaves"] += st["leaves"]
        counts["z3reduce.depth"] = max(counts["z3reduce.depth"], st["depth"])
    return None


# --- passes -------------------------------------------------------------------

def settle(rec: dict) -> dict:
    """Replace an op's outputs by their hash and size, so that records stay small."""
    out, vout = rec.pop("out"), rec.pop("verify_out")
    rec["hash"] = hashlib.sha256((out + "\0" + vout).encode()).hexdigest()
    rec["out_bytes"] = len(out)
    return rec


def digest(records: list[dict]) -> str:
    """One hash of all stdout of a pass, op by op."""
    return hashlib.sha256("".join(r["hash"] for r in records).encode()).hexdigest()


def first_pass(gpi, pool, files: Path, counts: dict, between_ops=None) -> list[dict]:
    """Run every problem once and check its output in full against the known answer."""
    records = []
    start = time.monotonic()
    for i, problem in enumerate(pool):
        if between_ops is not None:
            between_ops()
        if time.monotonic() - start > FIRST_PASS_LIMIT_S:
            records.append({"op": i, "command": problem.command, **problem.size,
                            "ref_ms": None, "produce_ms": None, "verify_ms": None,
                            "out_bytes": 0, "hash": "",
                            "error": "first pass over its time limit"})
            continue
        rec = run_op(gpi, i, problem, files)
        if rec["error"] is None:
            try:
                rec["error"] = check_output(problem, rec, counts)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                rec["error"] = f"malformed output: {type(exc).__name__}: {exc}"
        records.append(settle(rec))
    return records


def repeat_pass(gpi, pool, files: Path, expected: list[dict], until: float | None,
                tracer=None, between_ops=None) -> list[dict]:
    """Run the pool again, stopping at `until` (monotonic); stdout must match pass 1."""
    records = []
    for i, problem in enumerate(pool):
        if until is not None and time.monotonic() >= until:
            break
        if between_ops is not None:
            between_ops()
        if tracer is not None:
            tracer.op_id = i
        rec = settle(run_op(gpi, i, problem, files))
        if rec["error"] is None and rec["hash"] != expected[i]["hash"]:
            rec["error"] = "stdout differs from the first pass"
        records.append(rec)
    return records


# --- metrics ------------------------------------------------------------------

def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-9 * len(ordered) // 10) - 1)]


class ColdStarts:
    """Wall times of a fresh `python -m gpi.cli check` on a tiny problem.

    The samples are spread over the measured run, one every `every` seconds
    between ops, so that their median reflects the host over the whole run
    rather than over the two seconds before it.
    """

    def __init__(self, files: Path, every: float):
        self.problem = files / "setup.txt"
        self.problem.write_text(SETUP_PROBLEM, encoding="utf-8")
        self.every = every
        self.due = time.monotonic()
        self.samples: list[float] = []

    def sample(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "gpi.cli", "check", str(self.problem)],
                              cwd=ROOT, env=env, capture_output=True, timeout=60)
        self.samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"cold-start check exited {proc.returncode}: "
                               f"{proc.stderr.decode(errors='replace').strip()}")
        self.due = time.monotonic() + self.every

    def between_ops(self) -> None:
        if len(self.samples) < SETUP_SAMPLES and time.monotonic() >= self.due:
            self.sample()

    def median(self) -> float:
        while len(self.samples) < SETUP_SAMPLES:
            self.sample()
        return statistics.median(self.samples)


def op_ms(rec: dict) -> float:
    return rec["produce_ms"] + (rec["verify_ms"] or 0.0)


def end_to_end(records: list[dict], first: list[dict], setup_s: float) -> dict:
    """End-to-end metrics over the pool's problems, each counted once.

    An op's time is divided by the local reference-kernel time; a problem's
    value is the median over its runs.  Counting each problem once keeps the
    rank of a percentile on the same size slice whatever part of the last pass
    the run reached.
    """
    timed = [r for r in records if r["ref_ms"] is not None]
    refs = [r["ref_ms"] for r in timed]
    runs: dict[int, list[tuple[float, float]]] = {}
    for i, r in enumerate(timed):
        if r["error"] is None:
            local = statistics.median(refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
            runs.setdefault(r["op"], []).append((op_ms(r) / local, r["produce_ms"] / local))
    op = [statistics.median(o for o, _ in v) for v in runs.values()]
    produce = [statistics.median(p for _, p in v) for v in runs.values()]
    failed = sum(1 for r in records if r["error"] is not None)
    return {
        "setup_s": setup_s,
        "op_ref.mean": statistics.fmean(op) if op else 0.0,
        "op_ref.p50": statistics.median(op) if op else 0.0,
        "op_ref.p90": p90(op) if op else 0.0,
        "produce_ref.p50": statistics.median(produce) if produce else 0.0,
        "produce_ref.p90": p90(produce) if produce else 0.0,
        "out_bytes": sum(r["out_bytes"] for r in first),
        "ok_ratio": 1 - failed / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def raw_times(records: list[dict]) -> dict:
    """The same op times in milliseconds, for the report lines."""
    done = [r for r in records if r["error"] is None]
    if not done:
        return {}
    op = [op_ms(r) for r in done]
    produce = [r["produce_ms"] for r in done]
    return {"ops_per_s": len(op) / (sum(op) / 1e3),
            "op_ms.p50": statistics.median(op), "op_ms.p90": p90(op),
            "produce_ms.p50": statistics.median(produce), "produce_ms.p90": p90(produce),
            "reference_kernel_ms.p50": statistics.median(r["ref_ms"] for r in done)}


def per_layer(tracer, traced: list[dict], untraced: list[dict], counts: dict) -> dict:
    times = tracer.layer_times()
    out = {}
    for layer in SPAN_LAYERS:
        t = times.get(layer, {"busy": 0.0, "self": 0.0})
        out[f"{layer}.calls"] = tracer.counts[f"{layer}.calls"]
        out[f"{layer}.busy_s"] = t["busy"]
        out[f"{layer}.self_s"] = t["self"]
    for name in COUNTS:
        out[name] = tracer.counts.get(name, counts.get(name, 0))
    calls = out["rewrite.shared_entry.calls"]
    out["rewrite.partner_hit_ratio"] = out["rewrite.express.rounds"] / calls if calls else 0.0
    tree = out["z3reduce.tree_nodes"]
    out["z3reduce.sharing_ratio"] = out["z3reduce.distinct_nodes"] / tree if tree else 0.0
    n = max(1, len(traced))
    for key, field in (("trace.produce_overhead_ms", "produce_ms"),
                       ("trace.verify_overhead_ms", "verify_ms")):
        out[key] = (sum(r[field] or 0.0 for r in traced)
                    - sum(r[field] or 0.0 for r in untraced[:len(traced)])) / n
    return out


# --- one run ------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool,
        pool_size: int | None = None, quiet: bool = False) -> dict:
    """One benchmark run; returns the result object (and prints unless quiet)."""
    import gpi.cli  # noqa: F401 - loads every module the CLI uses
    import gpi

    pool = make_pool(workload, seed, pool_size or POOL_SIZE[workload])
    files = WORK / f"{workload}-{seed}-{os.getpid()}"
    files.mkdir(parents=True, exist_ok=True)
    OUT.mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, _alarm)
    try:
        for i, problem in enumerate(pool):
            (files / f"p{i}.txt").write_text(problem.text, encoding="utf-8")
        cold = None if trace else ColdStarts(files, seconds / SETUP_SAMPLES)
        hook = None if cold is None else cold.between_ops
        counts: Counter = Counter()
        start = time.monotonic()
        first = first_pass(gpi, pool, files, counts, hook)
        records = list(first)
        printed = digest(first)
        tracer = None
        if trace:
            tracer = Tracer()
            install(tracer, gpi)
            try:
                traced = repeat_pass(gpi, pool, files, first, None, tracer)
            finally:
                tracer.restore()
            records += traced
            printed = digest(traced)
            metrics = per_layer(tracer, traced, first, counts)
            units = PER_LAYER
        else:
            until = start + seconds
            while time.monotonic() < until:
                records += repeat_pass(gpi, pool, files, first, until, between_ops=hook)
            metrics = end_to_end(records, first, cold.median())
            units = END_TO_END
    finally:
        shutil.rmtree(files, ignore_errors=True)

    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    with open(OUT / f"{tag}.ops.jsonl", "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps({k: v for k, v in r.items() if k != "hash"}) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{tag}.spans.tsv")

    failed = [r for r in records if r["error"] is not None]
    result = {"correct": not failed, "attempted": len(records), "failed": len(failed),
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    if not quiet:
        report(workload, seed, pool, records, failed, printed, result)
    result["digest"] = printed
    return result


def report(workload, seed, pool, records, failed, stdout_digest, result) -> None:
    passes = len(records) / len(pool)
    print(f"workload {workload}  seed {seed}  pool {len(pool)}  passes {passes:.2f}  "
          f"ops {len(records)}  failed {len(failed)}")
    print(f"digest sha256:{stdout_digest}")
    slowest: dict[int, dict] = {}
    for r in records:
        if r["produce_ms"] is not None:
            ms = op_ms(r)
            if ms > slowest.get(r["op"], {}).get("ms", -1.0):
                slowest[r["op"]] = {**r, "ms": ms}
    print("slowest ops:")
    for r in sorted(slowest.values(), key=lambda r: -r["ms"])[:5]:
        size = {k: v for k, v in r.items()
                if k in ("n", "support", "length", "walks", "type", "parts")}
        print(f"  op {r['op']:4d} {r['command']:9s} produce {r['produce_ms']:9.1f} ms  "
              f"verify {r['verify_ms'] or 0.0:9.1f} ms  {json.dumps(size)}")
    for r in failed[:10]:
        print(f"  FAILED op {r['op']} ({r['command']}): {r['error']}")
    print(f"timings over {len(records) - len(failed)} ops, raw:")
    for name, value in raw_times(records).items():
        print(f"  {name:32s} {value:>16.6g}")
    print("metrics:")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not (SRC / "gpi" / "cli.py").is_file():
        print(f"bench: no gpi sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.setrecursionlimit(10_000)
    run(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
