"""Rebuild reduce_catalogue.json: long-part Z3 generators sorted by reduction-tree size.

    python3 bench/make_catalogue.py

The reduce workload draws its long-part instances from this file, one draw
from each equal slice of the sorted list, so that every seed covers the same
range of tree sizes.  Sizes are counted as tree nodes (shared subtrees
counted once per occurrence, as the JSON certificate writes them) at the time
the file is built; the benchmark reads only the part degrees.  Instances above
CAP nodes are left out: one of them takes seconds to produce and verify, so a
single draw would set how long a whole pass takes.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from gpi.freealg import Context  # noqa: E402
from gpi.groups import cyclic_group, default_grading  # noqa: E402
from gpi.identity import GeneratorKind, make_generator  # noqa: E402
from gpi.z3reduce import (CertContext, CertSubst, CertSum,  # noqa: E402
                          reduce_type1, reduce_type2)

from workloads import CATALOGUE, random_generator_degrees  # noqa: E402

CAP = 20_000
SAMPLES = 500
SEED = 20260823


def tree_nodes(node, memo: dict) -> int:
    key = id(node)
    if key not in memo:
        if isinstance(node, CertSum):
            memo[key] = 1 + sum(tree_nodes(c, memo) for _, c in node.children)
        elif isinstance(node, (CertContext, CertSubst)):
            memo[key] = 1 + tree_nodes(node.child, memo)
        else:
            memo[key] = 1
    return memo[key]


def size(kind: int, degs: list[list[int]]) -> int:
    grading = default_grading(cyclic_group(3))
    degrees, parts, nxt = {}, [], 1
    for part in degs:
        word = tuple(range(nxt, nxt + len(part)))
        degrees.update(zip(word, part))
        parts.append(word)
        nxt += len(part)
    ctx = Context(grading, degrees)
    if kind == 1:
        cert = reduce_type1(make_generator(GeneratorKind.TYPE1, ctx, parts))
    else:
        cert = reduce_type2(make_generator(GeneratorKind.TYPE2, ctx, parts))
    return tree_nodes(cert.root, {})


def family(rand: random.Random, kind: int, lengths) -> tuple[list, int]:
    kept, dropped = [], 0
    for _ in range(SAMPLES):
        degs = random_generator_degrees(rand, kind, lengths(rand))
        nodes = size(kind, degs)
        if nodes <= CAP:
            kept.append([nodes, degs])
        else:
            dropped += 1
    kept.sort()
    return kept, dropped


def main() -> int:
    rand = random.Random(SEED)
    families, dropped = {}, {}
    for name, kind, lengths in (
            ("type1", 1, lambda r: (r.randint(5, 8), r.randint(5, 8))),
            ("type2-len5", 2, lambda r: (5, 5, 5)),
            ("type2-len6", 2, lambda r: (6, 6, 6))):
        families[name], dropped[name] = family(rand, kind, lengths)
    doc = {"cap_tree_nodes": CAP, "samples": SAMPLES, "seed": SEED,
           "dropped_above_cap": dropped, "families": families}
    with open(CATALOGUE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")
    for name, entries in families.items():
        print(f"{name}: {len(entries)} kept, {dropped[name]} above cap, "
              f"median {entries[len(entries) // 2][0]} nodes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
