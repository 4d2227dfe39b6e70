"""Older certificate documents rewritten, JSON to JSON, as the current version.

Chain and jcomb versions 1 and 2 wrote each move as {kind, left, blocks, right}
and each chain with its own start and end; reduction version 1 wrote a nested
tree.  Nothing here is trusted: `gpi verify` checks that the rewrite makes the
original's claim, then loads and replays it with gpi.certs.
"""

from __future__ import annotations

from .certs import (READ_VERSIONS, CertificateFormatError, Move, _declared_word, _entries,
                    _integer, _object, _pair, _post_order, context_from_json, move_to_json)


def upgrade(doc: dict) -> dict | None:
    """doc, of a known kind and an older version, as the current version; None
    where a move does not spell its running word or a term's chain runs
    between other words than the term's source and target.  Each field gets
    the checks of the loader that read its version, in its order."""
    ctx = context_from_json(doc)
    payload = _object(doc.get("payload", {}), "payload")
    try:
        if doc["kind"] == "reduction":
            table = _post_order(payload["root"], _tree_children)
            rows = {id(entry): i for i, entry in enumerate(table)}
            new = dict(payload, nodes=[_row(e, rows) for e in table], root=len(table) - 1)
        elif doc["kind"] == "chain":
            moves = _moves(ctx, payload)
            new = None if moves is None else dict(payload, moves=moves)
        else:
            terms = [_term(ctx, t) for t in _entries(payload["terms"], "terms")]
            new = None if None in terms else {"terms": terms}
    except KeyError as exc:  # a JSON object of the payload lacks a field
        raise CertificateFormatError(f"missing field {exc.args[0]!r}") from None
    return new and {**doc, "version": READ_VERSIONS[doc["kind"]], "payload": new}


def _term(ctx, t) -> dict | None:
    _integer(_object(t, "a jcomb term")["coeff"])
    ends = tuple(_declared_word(ctx, t[k], k) for k in ("source", "target"))
    moves = _moves(ctx, _object(t["chain"], "a term's chain"), ends)
    return None if moves is None else dict(t, chain={"moves": moves})


def _moves(ctx, chain: dict, ends=None) -> list | None:
    """The chain's moves as positional ones, every letter checked; None if one
    does not spell the running word, or if ends are given and are not the chain's."""
    word = start = _declared_word(ctx, chain["start"], "start")
    end, moves = _declared_word(ctx, chain["end"], "end"), []
    spelled = ends is None or ends == (start, end)
    for doc in _entries(chain["moves"], "moves"):
        doc = _object(doc, "a move")
        left, right = _entries(doc["left"], "left"), _entries(doc["right"], "right")
        blocks = tuple(_entries(b, "a block") for b in _entries(doc["blocks"], "blocks"))
        mv = Move(doc["kind"], len(left), tuple(map(len, blocks)))
        letters = _declared_word(ctx, [*left, *sum(blocks, ()), *right], "a move")
        spelled = spelled and letters == word
        if spelled:  # each word built is paid for by the letters of its move
            word = mv.apply(word)
        moves.append(move_to_json(mv))
    return moves if spelled else None


def _tree_children(entry) -> list:
    """The nodes nested in a node of a version-1 tree, in order."""
    if not isinstance(entry, dict):
        raise CertificateFormatError("a certificate node is a JSON object")
    if entry.get("op") == "sum":
        return [_pair(p, "a sum child")[1] for p in _entries(entry["children"], "children")]
    return [entry["child"]] if entry.get("op") in ("context", "subst") else []


def _row(entry: dict, rows: dict[int, int]) -> dict:
    """A node of a version-1 tree as a table row: each child named by its row."""
    if entry.get("op") == "sum":
        return dict(entry, children=[[c, rows[id(ch)]] for c, ch in entry["children"]])
    if entry.get("op") in ("context", "subst"):
        return dict(entry, child=rows[id(entry["child"])])
    return entry
