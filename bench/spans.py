"""Layer spans for the gpi benchmark, recorded from outside the library.

Each layer boundary is a public function that one module calls on the next.
The tracer rebinds that name, in the namespace the caller looks it up in, to a
wrapper that records a span (name, start, end, parent span, op id) and any
counts the call carries.  Nothing under src/ is edited, and `restore` puts every
original back.  Spans are kept in flat arrays and written out once, at the end.
"""

from __future__ import annotations

import functools
import os
from array import array
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.layer_names: list[str] = []
        self.layer: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.parent: array = array("l")
        self.op: array = array("l")
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- recording ------------------------------------------------------------

    def span(self, name: str, fn, count=None):
        """Wrap fn so that each call records a span; count(counts, args, result)."""
        if name not in self.layer_names:
            self.layer_names.append(name)
        layer = self.layer_names.index(name)
        tracer = self

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            idx = len(tracer.start)
            tracer.layer.append(layer)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                tracer._stack.pop()
            tracer.counts[name + ".calls"] += 1
            if count is not None:
                count(tracer.counts, args, result)
            return result
        return wrapper

    def counter(self, name: str, fn):
        """Wrap fn so that each call only bumps `name` (for calls too frequent to span)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- reading --------------------------------------------------------------

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per layer: busy time (outermost spans of the layer) and self time.

        Self time is a span's duration minus the time its child spans cover.
        """
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"busy": 0.0, "self": 0.0} for name in self.layer_names}
        for i in range(n):
            name = self.layer_names[self.layer[i]]
            dur = self.end[i] - self.start[i]
            out[name]["self"] += dur - child[i]
            p = self.parent[i]
            while p >= 0 and self.layer[p] != self.layer[i]:
                p = self.parent[p]
            if p < 0:
                out[name]["busy"] += dur
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.layer_names[self.layer[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.op[i]}\n")


def install(tracer: Tracer, gpi) -> None:
    """Wrap the calls each gpi module makes on the next one."""
    cli, certs, dsl, freealg = gpi.cli, gpi.certs, gpi.dsl, gpi.freealg
    identity, rewrite = gpi.identity, gpi.rewrite

    def parsed(counts, args, result):
        counts["dsl.parse.bytes"] += os.path.getsize(args[0])
        if result.poly is not None:
            counts["dsl.parse.terms"] += len(result.poly.terms)

    def group_built(counts, args, result):
        counts["groups.build.n3"] += result.order ** 3

    def evaluated(counts, args, result):
        words = len(args[0].terms)
        counts["genmat.eval.words"] += words
        counts["genmat.eval.cells"] += words * args[0].ctx.grading.n

    def dumped(counts, args, result):
        counts["certs.encode.bytes"] += len(result)  # dumps writes ASCII

    tracer.patch(cli, "main", tracer.span("cli", cli.main))
    tracer.patch(cli, "parse_file", tracer.span("dsl.parse", cli.parse_file, parsed))
    tracer.patch(dsl, "cyclic_group", tracer.span("groups.build", dsl.cyclic_group, group_built))
    tracer.patch(certs, "FiniteGroup", tracer.span("groups.build", certs.FiniteGroup, group_built))
    tracer.patch(identity, "eval_poly", tracer.span("genmat.eval", identity.eval_poly, evaluated))
    for owner in (cli, rewrite):
        tracer.patch(owner, "identity_witness",
                     tracer.span("identity.witness", owner.identity_witness))
    tracer.patch(cli, "express_in_J", tracer.span("rewrite.express", cli.express_in_J))
    tracer.patch(rewrite, "shared_entry",
                 tracer.counter("rewrite.shared_entry.calls", rewrite.shared_entry))
    for name in ("verify_chain", "verify_combination"):
        tracer.patch(cli, name, tracer.span("rewrite.verify", getattr(cli, name)))
    tracer.patch(rewrite, "eval_word_closed",
                 tracer.counter("genmat.closed.calls", rewrite.eval_word_closed))
    for name in ("reduce_type1", "reduce_type2"):
        tracer.patch(cli, name, tracer.span("z3reduce.build", getattr(cli, name)))
    tracer.patch(cli, "verify_certificate",
                 tracer.span("z3reduce.verify", cli.verify_certificate))
    for name in ("chain_to_json", "jcomb_to_json", "reduction_to_json"):
        tracer.patch(certs, name, tracer.span("certs.encode", getattr(certs, name)))
    tracer.patch(certs, "dumps", tracer.span("certs.encode", certs.dumps, dumped))
    tracer.patch(certs, "certificate_from_json",
                 tracer.span("certs.decode", certs.certificate_from_json))
    tracer.patch(freealg.WeakSubstitution, "__call__",
                 tracer.span("freealg.subst", freealg.WeakSubstitution.__call__))
