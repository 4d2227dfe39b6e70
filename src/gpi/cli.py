"""The `gpi` command-line tool.

Machine output is JSON on stdout; diagnostics go to stderr.  Exit codes:
0 success/affirmative, 1 negative answer or failed verification, 2 bad
input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import certs
from .certs import (JCombination, RewriteChain, verify_certificate, verify_chain,
                    verify_combination)
from .dsl import ParseError, parse_file, parse_word
from .freealg import DeclarationError, FreePoly, ReplayBudgetError
from .genmat import eval_poly, eval_word_closed
from .groups import GroupError, cyclic_group, default_grading
from .identity import GeneratorError, GeneratorKind, identity_witness
from .rewrite import NoExpressionError, NotCongruentError, congruence_chain, express_in_J
from .z3reduce import ReductionError, enumerate_reduced, reduce_type1, reduce_type2

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2


class _CliInputError(Exception):
    pass


def _emit(doc) -> None:
    sys.stdout.write(certs.dumps(doc))


def _diag(msg: str) -> None:
    print(f"gpi: {msg}", file=sys.stderr)


def _witness_json(w) -> dict:
    return {"row": w.row + 1, "col": w.col + 1,
            "value": certs.scalar_poly_to_json(w.value)}


def _load(path: str):
    try:
        return parse_file(path)
    except OSError as exc:
        raise _CliInputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except (ParseError, GroupError, DeclarationError, GeneratorError) as exc:
        raise _CliInputError(f"{path}: {exc}") from exc


def _read_json(path: str, text: str | None = None):
    """The JSON document in path, or in text when given; unreadable or
    malformed input exits 2."""
    try:
        if text is None:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        return json.loads(text)
    except OSError as exc:
        raise _CliInputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise _CliInputError(f"{path}: not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise _CliInputError(f"{path}: JSON nested too deeply") from exc
    except UnicodeDecodeError as exc:
        raise _CliInputError(f"{path}: not UTF-8 text") from exc
    except ValueError as exc:  # json reads every integer with int(), which has a digit limit
        raise _CliInputError(f"{path}: an integer has more digits than can be read") from exc


def _need_poly(parsed, path: str) -> FreePoly:
    if parsed.poly is None:
        raise _CliInputError(f"{path}: no 'poly:' line")
    return parsed.poly


# --- subcommands --------------------------------------------------------------
#
# Each answers with (exit code, JSON document), which `main` prints, and
# raises _CliInputError on bad input.  The ones that read a problem file take
# it already parsed too, as the corpus runner passes it.

def cmd_check(args, parsed=None):
    w = identity_witness(_need_poly(parsed or _load(args.file), args.file))
    if w is None:
        return EXIT_OK, {"identity": True}
    return EXIT_NEGATIVE, {"identity": False, "witness": _witness_json(w)}


def cmd_eval(args):
    parsed = _load(args.file)
    ctx = parsed.ctx
    if args.word is not None:
        if args.word.isascii() and args.word.isdecimal():
            p = _need_poly(parsed, args.file)
            support = p.support()
            try:
                idx = int(args.word)
            except ValueError:  # more digits than int() reads, far past any support
                raise _CliInputError(f"word index of {len(args.word)} digits out of range "
                                     f"(support has {len(support)})") from None
            if not (0 <= idx < len(support)):
                raise _CliInputError(
                    f"word index {idx} out of range (support has {len(support)})")
            w = support[idx]
        else:
            w = _word_arg(ctx, args.word, "--word")
        entries = dict.fromkeys(eval_word_closed(ctx, w), 1)
    else:
        entries = eval_poly(_need_poly(parsed, args.file))
    return EXIT_OK, certs.matrix_to_json(ctx.grading.n, entries)


def _word_arg(ctx, text: str, flag: str):
    try:
        return parse_word(ctx, text)
    except ParseError as exc:
        raise _CliInputError(f"{flag}: {exc}") from exc


def cmd_congruent(args, parsed=None):
    parsed = parsed or _load(args.file)
    ctx = parsed.ctx
    m = _word_arg(ctx, args.m, "--m") if args.m else parsed.word_m
    n = _word_arg(ctx, args.n, "--n") if args.n else parsed.word_n
    if m is None or n is None:
        raise _CliInputError("both monomials are required (--m/--n or m:/n: lines)")
    try:
        chain = congruence_chain(ctx, m, n)
    except NotCongruentError as exc:
        return EXIT_NEGATIVE, {"congruent": False, "reason": str(exc)}
    return EXIT_OK, certs.chain_to_json(chain)


def cmd_express(args, parsed=None):
    p = _need_poly(parsed or _load(args.file), args.file)
    try:
        comb = express_in_J(p)
    except NoExpressionError as exc:
        doc = {"expressed": False, "reason": str(exc)}
        if exc.witness is not None:
            doc["witness"] = _witness_json(exc.witness)
        return EXIT_NEGATIVE, doc
    return EXIT_OK, certs.jcomb_to_json(comb)


def cmd_z3reduce(args, parsed=None):
    gen = (parsed or _load(args.file)).generator
    if gen is None:
        raise _CliInputError(f"{args.file}: no generator (type:/h1:/... lines)")
    if args.type is not None and gen.kind.value != args.type:
        raise _CliInputError(
            f"file declares a type-{gen.kind.value} generator, --type {args.type} given")
    try:
        if gen.kind is GeneratorKind.TYPE1:
            cert = reduce_type1(gen)
        else:
            cert = reduce_type2(gen)
    except ReductionError as exc:
        raise _CliInputError(str(exc)) from exc
    return EXIT_OK, certs.reduction_to_json(cert)


def cmd_enum_reduced(args):
    try:
        group = cyclic_group(args.order)
        grading = default_grading(group)
        gens = enumerate_reduced(grading, max_part_len=args.max_len)
    except (GroupError, ValueError) as exc:
        raise _CliInputError(str(exc)) from exc
    if args.json:
        return EXIT_OK, [{**certs.generator_to_json(g), "vars": certs.vars_to_json(g.ctx)}
                         for g in gens]
    return EXIT_OK, {"count": len(gens),
                     "by_kind": {str(k.value): sum(1 for g in gens if g.kind is k)
                                 for k in GeneratorKind}}


def _verify(doc, path: str):
    """`gpi verify` on the JSON document doc, read from path; an older version
    as gpi.upgrade rewrites it, if the rewrite makes the same claim (certs.claim)."""
    if not isinstance(doc, dict):
        raise _CliInputError(f"{path}: a certificate is a JSON object")
    kind, version = doc.get("kind"), doc.get("version")
    try:  # format, group, declaration and generator errors are all ValueErrors
        if isinstance(kind, str) and type(version) is int \
                and 0 < version < certs.READ_VERSIONS.get(kind, 0):
            from .upgrade import upgrade
            new = upgrade(doc)
            if new is None or certs.claim(new) != certs.claim(doc):
                return EXIT_NEGATIVE, {"valid": False, "kind": kind}
            doc = new
        cert = certs.certificate_from_json(doc)
    except (KeyError, TypeError, ValueError, RecursionError) as exc:  # claim on deep JSON
        raise _CliInputError(f"{path}: {exc}") from exc
    try:  # certificate_from_json returns one of the three kinds
        if isinstance(cert, RewriteChain):
            ok = verify_chain(cert)
        elif isinstance(cert, JCombination):
            ok = verify_combination(cert)
        else:
            ok = verify_certificate(cert)
    except (DeclarationError, ReplayBudgetError) as exc:
        # a move or word names an undeclared variable, or the replay would
        # build more than MAX_REPLAY_LETTERS letters
        raise _CliInputError(f"{path}: {exc}") from exc
    return (EXIT_OK if ok else EXIT_NEGATIVE), {"valid": ok, "kind": kind}


def cmd_verify(args):
    return _verify(_read_json(args.cert), args.cert)


# --- corpus runner ------------------------------------------------------------

# expectation -> (its answer, the exit code that answer gives when it holds, detail of a miss)
_EXPECTATIONS = {"identity": (cmd_express, EXIT_OK, "not an identity"),
                 "non-identity": (cmd_check, EXIT_NEGATIVE, "is an identity"),
                 "congruent": (cmd_congruent, EXIT_OK, "not congruent"),
                 "reducible": (cmd_z3reduce, EXIT_OK, "not reducible")}


def _write_verified(doc: dict, path: str) -> bool:
    """Write certificate doc to path unless `gpi verify` on its bytes fails."""
    text = certs.dumps(doc)
    if _verify(_read_json(path, text), path)[0] != EXIT_OK:
        return False
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _CliInputError(f"cannot write {path}: {exc.strerror or exc}") from exc
    return True


def _run_entry(entry: dict, written: set[str]) -> dict:
    """One report: error where the subcommand would exit 2 or where an earlier
    entry wrote the certificate path (in written), else pass or fail."""
    path, expected = entry.get("file"), entry.get("expected")
    report = {"file": path, "expected": expected}
    if not (isinstance(path, str) and isinstance(expected, str)
            and expected in _EXPECTATIONS):
        report.update(status="error", detail="malformed manifest entry")
        return report
    answer, want, miss = _EXPECTATIONS[expected]
    args = argparse.Namespace(file=path, m=None, n=None, type=None)
    cert = os.path.splitext(path)[0] + ".cert.json"
    try:
        code, doc = answer(args, _load(path))
        report.update({k: doc[k] for k in ("reason", "witness") if k in doc})
        if code != want:
            report.update(status="fail", detail=miss)
        elif "kind" not in doc:  # an answer without a certificate
            report["status"] = "pass"
        elif os.path.realpath(cert) in written:
            report.update(status="error", detail=f"{cert} was written by an earlier entry")
        elif _write_verified(doc, cert):
            written.add(os.path.realpath(cert))
            report.update(status="pass", certificate=cert)
        else:
            report.update(status="fail", detail="certificate does not verify")
    except _CliInputError as exc:
        report.update(status="error", detail=str(exc))
    return report


def cmd_corpus(args):
    manifest = _read_json(args.manifest)
    if not isinstance(manifest, list):
        raise _CliInputError(f"{args.manifest}: manifest must be a JSON list")
    base = os.path.dirname(os.path.abspath(args.manifest))
    entries = []
    for raw in manifest:
        entry = dict(raw) if isinstance(raw, dict) else {"file": None}
        if isinstance(entry.get("file"), str) and not os.path.isabs(entry["file"]):
            entry["file"] = os.path.join(base, entry["file"])
        entries.append(entry)
    written: set[str] = set()
    reports = [_run_entry(e, written) for e in entries]
    failures = sum(1 for r in reports if r["status"] != "pass")
    for r in reports:
        _diag(f"{r['status'].upper()}: {r['file']} ({r['expected']})")
    return (EXIT_OK if failures == 0 else EXIT_NEGATIVE,
            {"entries": reports, "total": len(reports), "failures": failures})


# --- entry point --------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gpi",
                                 description="graded polynomial identities "
                                             "of generic matrix algebras")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide whether poly is a graded identity")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("eval", help="evaluate at generic matrices")
    p.add_argument("file")
    p.add_argument("--word", help="support index or monomial expression")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("congruent", help="certified congruence chain for two monomials")
    p.add_argument("file")
    p.add_argument("--m")
    p.add_argument("--n")
    p.set_defaults(func=cmd_congruent)

    p = sub.add_parser("express", help="express an identity in the generator ideal")
    p.add_argument("file")
    p.set_defaults(func=cmd_express)

    p = sub.add_parser("z3reduce", help="reduce a generator to short parts (order 3)")
    p.add_argument("file")
    p.add_argument("--type", type=int, choices=(1, 2))
    p.set_defaults(func=cmd_z3reduce)

    p = sub.add_parser("enum-reduced", help="enumerate reduced generator instances")
    p.add_argument("--max-len", type=int, default=3)
    p.add_argument("--order", type=int, default=3,
                   help="cyclic group order (default 3)")
    p.add_argument("--json", action="store_true",
                   help="emit the full list instead of counts")
    p.set_defaults(func=cmd_enum_reduced)

    p = sub.add_parser("verify", help="replay and verify a certificate file")
    p.add_argument("cert")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("corpus", help="run a manifest of expected results")
    p.add_argument("manifest")
    p.set_defaults(func=cmd_corpus)
    return ap


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        code, doc = args.func(args)
    except _CliInputError as exc:
        _diag(str(exc))
        return EXIT_INPUT
    _emit(doc)
    return code


if __name__ == "__main__":
    sys.exit(main())
