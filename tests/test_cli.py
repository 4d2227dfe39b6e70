import contextlib
import copy
import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time

import pytest
import support
from hypothesis import given, settings
from hypothesis import strategies as st

from gpi import certs, cli, freealg
from gpi.cli import main
from gpi.dsl import ParsedFile, _lines, format_file
from gpi.freealg import Context, FreePoly
from gpi.groups import MAX_GROUP_ORDER, GradingTuple, cyclic_group, default_grading
from gpi.rewrite import express_in_J
from gpi.z3reduce import MAX_ENUMERATED_SHAPES
from test_certs import V1_REDUCTION, documents_of_every_version

ID_FILE = """\
group: Z3
vars: x1:1 x2:2 x3:1
poly: x1*x2*x3 - x3*x2*x1
"""

NONID_FILE = """\
group: Z2
vars: x1:1 x2:1
poly: x1*x2
"""

# an identity of two multidegrees, x1 x2 x3 and x4 x5
MIXED_ID_FILE = """\
group: Z3
vars: x1:1 x2:2 x3:1 x4:0 x5:0
poly: x1*x2*x3 - x3*x2*x1 + x4*x5 - x5*x4
"""

CONG_FILE = """\
group: Z3
vars: x1:1 x2:2 x3:1
m: x1*x2*x3
n: x3*x2*x1
"""

GEN_FILE = """\
group: Z3
vars: x1:1 x2:1 x3:0 x4:1 x5:0 x7:2
type: 2
h1: x1*x2*x5*x3
h2: x4
h3: x7
"""

GEN1_FILE = """\
group: Z3
vars: x1:1 x2:1 x3:2 x4:2 x5:0
type: 1
h1: x1*x2*x3*x4
h2: x5
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# x1*x1 and x1*x2 share an entry at every row; a key's monomial (the sorted
# path) orders them x1*x1 first, their exponent form x1*x2 first, and the
# output is in exponent form.
SQUARE_FILE = """\
group: Z2
vars: x1:0 x2:0
poly: x1*x1 + x1*x2
"""
SQUARE_CELL = ('[{"coeff":1,"vars":[[1,%(r)d,%(r)d,1],[2,%(r)d,%(r)d,1]]},'
               '{"coeff":1,"vars":[[1,%(r)d,%(r)d,2]]}]')


class TestCheck:
    def test_witness_bytes_pinned(self, tmp_path, capsys):
        code, out, err = run(capsys, "check", write(tmp_path, "f.gpi", SQUARE_FILE))
        assert (code, err) == (1, "")
        assert out == ('{"identity":false,"witness":{"col":1,"row":1,"value":'
                       + SQUARE_CELL % {"r": 1} + "}}\n")

    def test_identity_exit_0(self, tmp_path, capsys):
        f = write(tmp_path, "f.gpi", ID_FILE)
        code, out, _ = run(capsys, "check", f)
        assert code == 0
        assert json.loads(out) == {"identity": True}

    def test_non_identity_exit_1_with_witness(self, tmp_path, capsys):
        f = write(tmp_path, "f.gpi", NONID_FILE)
        code, out, _ = run(capsys, "check", f)
        assert code == 1
        doc = json.loads(out)
        assert doc["identity"] is False
        assert doc["witness"]["row"] >= 1 and doc["witness"]["value"]

    def test_parse_error_exit_2(self, tmp_path, capsys):
        f = write(tmp_path, "f.gpi", "group: Z3\npoly: x1\n")
        code, out, err = run(capsys, "check", f)
        assert code == 2 and out == "" and err

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "check", str(tmp_path / "absent.gpi"))
        assert code == 2 and err


class TestEval:
    def test_bytes_pinned(self, tmp_path, capsys):
        code, out, err = run(capsys, "eval", write(tmp_path, "f.gpi", SQUARE_FILE))
        assert (code, err) == (0, "")
        assert out == ('{"entries":[{"col":1,"row":1,"terms":' + SQUARE_CELL % {"r": 1}
                       + '},{"col":2,"row":2,"terms":' + SQUARE_CELL % {"r": 2}
                       + '}],"n":2}\n')

    def test_poly_matrix(self, tmp_path, capsys):
        f = write(tmp_path, "f.gpi", ID_FILE)
        code, out, _ = run(capsys, "eval", f)
        assert code == 0
        assert json.loads(out)["entries"] == []

    def test_word_by_index(self, tmp_path, capsys):
        f = write(tmp_path, "f.gpi", ID_FILE)
        code, out, _ = run(capsys, "eval", f, "--word", "0")
        doc = json.loads(out)
        assert code == 0 and len(doc["entries"]) == 3

    def test_word_by_expr(self, tmp_path, capsys):
        f = write(tmp_path, "f.gpi", ID_FILE)
        code, out, _ = run(capsys, "eval", f, "--word", "x1*x2")
        doc = json.loads(out)
        assert code == 0 and len(doc["entries"]) == 3

    def test_bad_index(self, tmp_path, capsys):
        f = write(tmp_path, "f.gpi", ID_FILE)
        code, _, err = run(capsys, "eval", f, "--word", "9")
        assert code == 2 and err

    @pytest.mark.parametrize("word, poly", [
        ("0", "1"), ("1", "x1*x2"), ("2", "x2*x1"), ("3", "x1*x1*x2"),
        ("x2*x1", "x2*x1"), ("x1*(x1*x2)", "x1*x1*x2"), ("x2", "x2"),
    ])
    def test_word_is_the_one_word_poly(self, tmp_path, capsys, word, poly):
        """`gpi eval --word W` prints the bytes `gpi eval` prints on a file
        whose poly: is W's word: a support index names the index-th word in
        word_key order (the empty word first), an expression is the word."""
        head = "group: Z3\nvars: x1:1 x2:2\n"
        f = write(tmp_path, "f.gpi", head + "poly: 3 + x1*x2 - 2*x2*x1 + x1*x1*x2\n")
        one = write(tmp_path, "one.gpi", head + f"poly: {poly}\n")
        by_word = run(capsys, "eval", f, "--word", word)
        assert by_word == run(capsys, "eval", one)
        assert by_word[0] == 0 and len(json.loads(by_word[1])["entries"]) == 3


class TestEvalOracle:
    """gpi eval prints the matrix the dense product gives (support's oracle),
    for the whole polynomial, --word <index> and --word <expr>."""

    def random_poly(self, rand, ctx):
        """Repeated letters, a constant term, and congruent pairs with
        opposite coefficients, whose evaluations cancel."""
        base = support.random_word(rand, ctx, rand.randint(2, 5))
        terms = {(): rand.choice((-2, 1, 3))} if rand.random() < 0.5 else {}
        for _ in range(rand.randint(1, 3)):
            w = tuple(rand.sample(base, len(base)))
            terms[w] = terms.get(w, 0) + rand.choice((-2, -1, 1, 2))
        for _ in range(rand.randint(1, 2)):
            m, n = support.random_congruent_pair(rand, ctx, rand.sample(base, len(base)))
            lam = rand.choice((-1, 1, 3))
            terms[m] = terms.get(m, 0) + lam
            terms[n] = terms.get(n, 0) - lam
        return FreePoly(ctx, terms)

    def test_matches_dense_product(self, tmp_path, capsys):
        rand = support.rng(601)
        s3 = support.s3()
        gradings = support.configs() + [default_grading(s3),
                                        GradingTuple(s3, (3, 1, 4, 0, 5, 2))]
        constants = cancelled = runs = 0
        for grading in gradings:
            for i in range(8):
                # trivial degrees often, so that words admit moves
                ctx = Context(grading, {k: rand.choice((grading.group.identity_index,
                                                        rand.randrange(grading.n)))
                                        for k in (1, 2, 3)})
                p = self.random_poly(rand, ctx)
                f = write(tmp_path, f"p{i}.gpi", format_file(ParsedFile(ctx, poly=p)))
                cases = [((), support.eval_poly_direct(p))]
                for idx, w in list(enumerate(p.support()))[:3]:
                    cases.append((("--word", str(idx)), support.eval_word_direct(ctx, w)))
                w = support.random_word(rand, ctx, rand.randint(1, 5))
                cases.append((("--word", "*".join(f"x{v}" for v in w)),
                              support.eval_word_direct(ctx, w)))
                for flags, dense in cases:
                    code, out, err = run(capsys, "eval", f, *flags)
                    assert (code, err) == (0, "")
                    assert out == support.canonical(support.dense_matrix_json(dense))
                    runs += 1
                constants += () in p.terms
                # each word puts one monomial in every row; fewer in the sum cancelled
                whole = support.eval_poly_direct(p)
                cancelled += sum(len(e.terms) for row in whole.entries for e in row) \
                    < grading.n * len(p.terms)
        assert runs > 100 and constants > 5 and cancelled > 10


class TestCongruentVerify:
    def test_chain_and_verify(self, tmp_path, capsys):
        f = write(tmp_path, "f.gpi", CONG_FILE)
        code, out, _ = run(capsys, "congruent", f)
        assert code == 0
        cert = tmp_path / "chain.json"
        cert.write_text(out)
        code, out, _ = run(capsys, "verify", str(cert))
        assert code == 0 and json.loads(out)["valid"] is True

    def test_flags_override_file(self, tmp_path, capsys):
        f = write(tmp_path, "f.gpi", CONG_FILE)
        code, out, _ = run(capsys, "congruent", f,
                           "--m", "x1*x2*x3", "--n", "x1*x2*x3")
        assert code == 0
        assert json.loads(out)["payload"]["moves"] == []

    @pytest.mark.parametrize("flag", ["--m", "--n"])
    def test_empty_flag_is_an_empty_expression(self, tmp_path, capsys, flag):
        """An empty --m or --n is read, as an empty --word is, and not
        replaced by the file's m: or n: line."""
        f = write(tmp_path, "f.gpi", CONG_FILE)
        code, out, err = run(capsys, "congruent", f, flag, "")
        assert (code, out) == (2, "")
        assert err == f"gpi: {flag}: line 1, column 1: empty expression\n"

    def test_not_congruent_exit_1(self, tmp_path, capsys):
        f = write(tmp_path, "f.gpi",
                  "group: Z3\nvars: x1:1 x2:2\nm: x1*x2\nn: x2*x1\n")
        code, out, _ = run(capsys, "congruent", f)
        assert code == 1 and json.loads(out)["congruent"] is False

    def test_tampered_certificate_exit_1(self, tmp_path, capsys):
        f = write(tmp_path, "f.gpi", CONG_FILE)
        _, out, _ = run(capsys, "congruent", f)
        doc = support.as_v2(json.loads(out))
        doc["payload"]["end"] = [1, 3, 2]
        cert = tmp_path / "bad.json"
        cert.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(cert))
        assert code == 1 and json.loads(out)["valid"] is False


    def test_v1_wrong_context_exit_1(self, tmp_path, capsys):
        """The move's offset and lengths fit the start and would lead to the
        end, so only the comparison of its context with the start rejects it."""
        f = write(tmp_path, "f.gpi", "group: Z3\nvars: x1:1 x2:0 x3:0 x4:0\n"
                                     "m: x1*x1*x2*x3*x4\nn: x1*x1*x2*x4*x3\n")
        _, out, _ = run(capsys, "congruent", f)
        doc = dict(support.as_v2(json.loads(out)), version=1)
        cert = tmp_path / "v1.json"
        cert.write_text(json.dumps(doc))
        assert run(capsys, "verify", str(cert))[0] == 0
        move, = doc["payload"]["moves"]
        assert move["left"] == [1, 1, 2]
        move["left"] = [2, 1, 1]
        cert.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(cert))
        assert code == 1 and json.loads(out)["valid"] is False


class TestV2TermChains:
    """Versions 1 and 2 wrote each jcomb term's chain with its own start and
    end.  A chain between other words than the term's source and target
    fails verification; an undeclared letter in its end is bad input."""

    def verify(self, tmp_path, capsys, version, edit):
        _, out, _ = run(capsys, "express", write(tmp_path, "id.gpi", ID_FILE))
        doc = dict(support.as_v2(json.loads(out)), version=version)
        term, = doc["payload"]["terms"]
        edit(term)
        cert = tmp_path / "old.json"
        cert.write_text(json.dumps(doc))
        return run(capsys, "verify", str(cert))

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("edit", [
        lambda t: t["chain"].update(end=t["source"]),
        lambda t: t["chain"].update(start=t["target"]),
        lambda t: t.update(chain={"start": t["target"], "end": t["target"], "moves": []}),
    ], ids=["end-at-source", "start-at-target", "empty-at-target"])
    def test_chain_of_another_pair_fails(self, tmp_path, capsys, version, edit):
        assert self.verify(tmp_path, capsys, version, lambda t: None)[0] == 0
        code, out, err = self.verify(tmp_path, capsys, version, edit)
        assert code == 1 and json.loads(out)["valid"] is False and err == ""

    def test_undeclared_end_is_bad_input(self, tmp_path, capsys):
        code, out, err = self.verify(tmp_path, capsys, 2,
                                     lambda t: t["chain"].update(end=[3, 2, 9]))
        assert code == 2 and out == ""
        assert err.startswith("gpi: ") and err.count("\n") == 1 and "x9" in err


class TestHostileCertificates:
    """Malformed certificates exit 2 with one `gpi:` line, never a traceback."""

    def assert_rejected(self, capsys, path):
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2 and out == ""
        assert err.startswith("gpi: ") and err.count("\n") == 1

    def test_move_names_undeclared_variable(self, tmp_path, capsys):
        f = write(tmp_path, "f.gpi", CONG_FILE)
        _, out, _ = run(capsys, "congruent", f)
        doc = support.as_v2(json.loads(out))
        doc["payload"] = {"start": [1, 9], "end": [9, 1], "moves": [
            {"kind": "swap0", "left": [], "blocks": [[1], [9]], "right": []}]}
        cert = tmp_path / "undeclared.json"
        cert.write_text(json.dumps(doc))
        self.assert_rejected(capsys, cert)

    def test_v2_undeclared_after_wrong_context(self, tmp_path, capsys):
        """A move whose context is not the running word loads, and the
        replay refuses it; every letter of a later move is still checked."""
        _, out, _ = run(capsys, "congruent", write(tmp_path, "f.gpi", CONG_FILE))
        doc = support.as_v2(json.loads(out))
        doc["payload"]["moves"] = [
            {"kind": "reverse3", "left": [], "blocks": [[1], [2], [3]], "right": []},
            {"kind": "reverse3", "left": [], "blocks": [[3], [2], [9]], "right": []}]
        cert = tmp_path / "undeclared.json"
        cert.write_text(json.dumps(doc))
        self.assert_rejected(capsys, cert)

    @pytest.mark.parametrize("edit, message", [
        ("no start", "missing field 'start'"),
        ("no moves", "missing field 'moves'"),
        ("payload list", "payload must be a JSON object"),
    ])
    def test_missing_or_mistyped_payload_field(self, tmp_path, capsys, edit, message):
        _, out, _ = run(capsys, "congruent", write(tmp_path, "f.gpi", CONG_FILE))
        doc = json.loads(out)
        if edit == "payload list":
            doc["payload"] = [1]
        else:
            del doc["payload"][edit.split()[1]]
        cert = tmp_path / "edited.json"
        cert.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(cert))
        assert (code, out, err) == (2, "", f"gpi: {cert}: {message}\n")

    @pytest.mark.parametrize("kind, version, path, value, message", [
        ("jcomb", 3, ["terms"], [[1]], "a jcomb term must be a JSON object"),
        ("jcomb", 3, ["terms"], {"a": 1}, "terms must be a JSON list"),
        ("jcomb", 3, ["terms", 0, "chain"], [], "a term's chain must be a JSON object"),
        ("jcomb", 2, ["terms", 1, "chain", "moves", 0], [1], "a move must be a JSON object"),
        ("jcomb", 3, ["terms", 0, "source"], 0, "source must be a JSON list"),
        ("chain", 3, ["end"], 0, "end must be a JSON list"),
        ("chain", 1, ["moves", 0, "blocks", 1], None, "a block must be a JSON list"),
        ("reduction", 2, ["target", "parts"], 0, "parts must be a JSON list"),
        ("reduction", 2, ["nodes", 6, "children", 0], [1, 0, 2],
         "a sum child must be a JSON list of two entries"),
        ("reduction", 1, ["root", "children", 1], True,
         "a sum child must be a JSON list of two entries"),
        ("reduction", 2, ["nodes", 1, "images", 0, 1], [2, 3, 4],
         "a Lie word must be a JSON list of two entries"),
        ("reduction", 2, ["nodes", 0, "generator", "kind"], 3, "unknown generator kind 3"),
        ("reduction", 2, ["nodes", 0, "generator"], [1], "a generator must be a JSON object"),
        ("chain", 3, ["..", "group"], 0, "group must be a JSON object"),
        ("chain", 3, ["..", "grading"], None, "grading must be a JSON list"),
        ("jcomb", 2, ["..", "group", "table", 1], 1.0, "a table row must be a JSON list"),
        # a string or an object is not a list, though Python iterates both
        ("jcomb", 3, ["terms"], "", "terms must be a JSON list"),
        ("chain", 3, ["start"], "", "start must be a JSON list"),
        ("reduction", 2, ["nodes", 3, "left"], {}, "left must be a JSON list"),
        ("reduction", 2, ["nodes", 6, "children"], "", "children must be a JSON list"),
        ("jcomb", 3, ["..", "group", "table"], "1", "group table must be a JSON list"),
        # a subst row that maps x7 twice, where the last image used to win
        ("reduction", 2, ["nodes", 1, "images"], [[7, 6], [7, [2, 3]]],
         "node 1: x7 is mapped twice"),
        # context and sum rows that the loader's one-pass check refuses
        ("reduction", 2, ["nodes", 3, "child"], True,
         "node 3: reference True does not name an earlier node"),
        ("reduction", 2, ["nodes", 3, "child"], 3,
         "node 3: reference 3 does not name an earlier node"),
        ("reduction", 2, ["nodes", 6, "children", 0], [1.0, 0], "expected an integer, got 1.0"),
        ("reduction", 2, ["nodes", 5, "right", 0], True, "expected an integer, got True"),
        ("reduction", 2, ["nodes", 3, "left", 1], 9, "variable x9 is not declared"),
    ])
    def test_mistyped_field_is_named(self, tmp_path, capsys, kind, version, path, value,
                                     message):
        """A JSON value of the wrong type where an object, a list or a pair
        belongs, a subst row that maps one variable twice, a child reference
        that names no earlier row or a letter that is not declared exits 2
        with one line that names the fault, not with Python's message about
        indexing or unpacking it."""
        doc = documents_of_every_version()[kind, version]
        owner = doc if path[0] == ".." else doc["payload"]
        for key in path[1 if path[0] == ".." else 0:-1]:
            owner = owner[key]
        assert owner[path[-1]] != value
        owner[path[-1]] = value
        cert = tmp_path / "mistyped.json"
        cert.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(cert))
        assert (code, out, err) == (2, "", f"gpi: {cert}: {message}\n")

    @pytest.mark.parametrize("kind, version", [("chain", 3), ("jcomb", 1), ("reduction", 2)])
    @pytest.mark.parametrize("order, message", [
        (None, "malformed context: 'order'"),
        (7, "group order 7 is not the number of table rows, 3"),
        (4, "group order 4 is not the number of table rows, 3"),
        ("3", "group order '3' is not the number of table rows, 3"),
        (3.0, "group order 3.0 is not the number of table rows, 3"),
        (True, "group order True is not the number of table rows, 3"),
    ])
    def test_group_order_is_read(self, tmp_path, capsys, kind, version, order, message):
        """A Z3 document whose group order is missing (None here), or is not
        the integer 3, exits 2 naming the order."""
        doc = documents_of_every_version()[kind, version]
        if order is None:
            del doc["group"]["order"]
        else:
            doc["group"]["order"] = order
        cert = tmp_path / "order.json"
        cert.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(cert))
        assert (code, out, err) == (2, "", f"gpi: {cert}: {message}\n")

    @pytest.mark.parametrize("kind, version", [("chain", 3), ("jcomb", 1), ("reduction", 2)])
    @pytest.mark.parametrize("names", [[[1], None, {"a": 2}], [1, 0, 2], ["0", "1", True],
                                       ["0", "1", ["2"]]])
    def test_group_names_are_strings(self, tmp_path, capsys, kind, version, names):
        """Each group name is a JSON string; a list of anything else exits 2
        naming the field, where it used to load and verify."""
        doc = documents_of_every_version()[kind, version]
        doc["group"]["names"] = names
        cert = tmp_path / "names.json"
        cert.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(cert))
        assert (code, out, err) == (2, "", f"gpi: {cert}: group names must be JSON strings\n")

    @pytest.mark.parametrize("spelling", [1.0, True])
    @pytest.mark.parametrize("path", [
        ["nodes", 0, "generator", "parts", 0, 0],
        ["nodes", 0, "generator", "kind"],
        ["target", "parts", 0, 0],
        ["target", "kind"],
    ])
    def test_generator_integers_are_strict(self, tmp_path, capsys, path, spelling):
        """A generator's kind and part letters are integers, as every other
        letter is: 1.0 and true are not 1, though Python compares them equal."""
        doc = documents_of_every_version()["reduction", 2]
        owner = doc["payload"]
        for key in path[:-1]:
            owner = owner[key]
        assert owner[path[-1]] == 1
        owner[path[-1]] = spelling
        cert = tmp_path / "spelled.json"
        cert.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(cert))
        assert (code, out, err) == (2, "", f"gpi: {cert}: expected an integer, got {spelling}\n")

    def reduction_doc(self, tmp_path, capsys):
        f = write(tmp_path, "g1.gpi", GEN1_FILE)
        code, out, _ = run(capsys, "z3reduce", f)
        assert code == 0
        return json.loads(out)

    @pytest.mark.parametrize("op, field, value", [
        ("context", "left", [99]),
        ("subst", "images", [[99, [2, 3]]]),
        ("subst", "images", [[6, [2, 99]]]),
    ])
    def test_reduction_names_undeclared_variable(self, tmp_path, capsys, op, field, value):
        doc = self.reduction_doc(tmp_path, capsys)
        node = next(n for n in doc["payload"]["nodes"] if n["op"] == op)
        node[field] = value
        cert = tmp_path / "undeclared.json"
        cert.write_text(json.dumps(doc))
        self.assert_rejected(capsys, cert)

    def express_doc(self, tmp_path, capsys):
        code, out, _ = run(capsys, "express", write(tmp_path, "id.gpi", ID_FILE))
        doc = json.loads(out)
        assert code == 0 and doc["vars"] == {"1": 1, "2": 2, "3": 1}
        return doc

    @pytest.mark.parametrize("vars_doc", [
        {" 1": 1, "2": 2, "3": 1},
        {"1": 1, "+2": 2, "3": 1},
        {"1": 1, "2": 2, "0_3": 1},
        {"1": 1, "2": 2, "3": 1, "03": 2},
        {"1": 1, "2": 2, "\u0663": 1},  # ARABIC-INDIC DIGIT THREE
        {" 1": 1, "+2": 2, "0_3": 1},
        [1, 2, 1],
    ])
    def test_vars_keys_are_decimal_ids(self, tmp_path, capsys, vars_doc):
        """int() reads each of these keys ("03" would override x3), and a
        list of degrees is not the documented object."""
        doc = self.express_doc(tmp_path, capsys)
        doc["vars"] = vars_doc
        cert = tmp_path / "vars.json"
        cert.write_text(json.dumps(doc))
        self.assert_rejected(capsys, cert)

    def test_untampered_vars_verify(self, tmp_path, capsys):
        cert = tmp_path / "comb.json"
        cert.write_text(json.dumps(self.express_doc(tmp_path, capsys)))
        assert run(capsys, "verify", str(cert))[0] == 0

    @pytest.mark.parametrize("bad", ["self", "forward", "string", "root"])
    def test_reduction_bad_reference(self, tmp_path, capsys, bad):
        doc = self.reduction_doc(tmp_path, capsys)
        payload = doc["payload"]
        i = next(i for i, n in enumerate(payload["nodes"]) if "child" in n)
        if bad == "root":
            payload["root"] = len(payload["nodes"])
        else:
            payload["nodes"][i]["child"] = {"self": i, "forward": i + 1,
                                            "string": str(i - 1)}[bad]
        cert = tmp_path / "badref.json"
        cert.write_text(json.dumps(doc))
        self.assert_rejected(capsys, cert)

    @pytest.mark.parametrize("op, field, value", [
        ("sum", "children", [[1.5, 0]]),
        ("subst", "images", [[6.0, [2, 3]]]),
        ("context", "left", [1.0, 3]),
    ])
    def test_reduction_non_integer(self, tmp_path, capsys, op, field, value):
        doc = self.reduction_doc(tmp_path, capsys)
        node = next(n for n in doc["payload"]["nodes"] if n["op"] == op)
        node[field] = value
        cert = tmp_path / "float.json"
        cert.write_text(json.dumps(doc))
        self.assert_rejected(capsys, cert)

    def edited(self, tmp_path, capsys, command, text, edit):
        """Run a command, edit its certificate, and expect verify to reject it."""
        _, out, _ = run(capsys, command, write(tmp_path, "f.gpi", text))
        doc = json.loads(out)
        edit(doc)
        cert = tmp_path / "edited.json"
        cert.write_text(json.dumps(doc))
        self.assert_rejected(capsys, cert)

    def test_jcomb_non_integer_coefficient(self, tmp_path, capsys):
        def edit(doc):
            term = doc["payload"]["terms"][0]
            assert term["coeff"] == 1
            term["coeff"] = 1.5
        self.edited(tmp_path, capsys, "express", ID_FILE, edit)

    def test_context_non_integer_degree(self, tmp_path, capsys):
        def edit(doc):
            assert doc["vars"]["1"] == 1
            doc["vars"]["1"] = 1.5
        self.edited(tmp_path, capsys, "express", ID_FILE, edit)

    def test_group_table_non_integer(self, tmp_path, capsys):
        def edit(doc):
            assert doc["group"]["table"][0][0] == 0
            doc["group"]["table"][0][0] = 0.0
        self.edited(tmp_path, capsys, "express", ID_FILE, edit)

    def test_chain_string_letters(self, tmp_path, capsys):
        def edit(doc):
            payload = doc["payload"]
            payload["start"] = [str(v) for v in payload["start"]]
        self.edited(tmp_path, capsys, "congruent", CONG_FILE, edit)

    def test_move_non_integer_letter(self, tmp_path, capsys):
        def edit(doc):
            doc.update(support.as_v2(doc))
            blocks = doc["payload"]["moves"][0]["blocks"]
            blocks[0] = [float(v) for v in blocks[0]]
        self.edited(tmp_path, capsys, "congruent", CONG_FILE, edit)

    def test_nested_3000_deep(self, tmp_path, capsys):
        f = write(tmp_path, "g.gpi", GEN_FILE)
        _, out, _ = run(capsys, "z3reduce", f)
        doc = json.loads(out)
        root = json.dumps(doc["payload"]["root"])
        doc["payload"]["root"] = "ROOT"
        depth = 3000
        nested = ('{"op": "context", "left": [], "right": [], "child": ' * depth
                  + root + "}" * depth)
        cert = tmp_path / "deep.json"
        cert.write_text(json.dumps(doc).replace('"ROOT"', nested))
        self.assert_rejected(capsys, cert)

    def test_not_an_object(self, tmp_path, capsys):
        cert = tmp_path / "list.json"
        cert.write_text("[]")
        self.assert_rejected(capsys, cert)


class TestExpress:
    def test_identity(self, tmp_path, capsys):
        f = write(tmp_path, "f.gpi", ID_FILE)
        code, out, _ = run(capsys, "express", f)
        doc = json.loads(out)
        assert code == 0 and doc["kind"] == "jcomb"
        cert = tmp_path / "comb.json"
        cert.write_text(out)
        code, _, _ = run(capsys, "verify", str(cert))
        assert code == 0

    def test_non_identity_exit_1(self, tmp_path, capsys):
        f = write(tmp_path, "f.gpi", NONID_FILE)
        code, out, _ = run(capsys, "express", f)
        doc = json.loads(out)
        assert code == 1 and "witness" in doc

    def test_mixed_identity(self, tmp_path, capsys):
        """An identity whose words differ in multidegree is expressed, one
        component at a time, and its certificate verifies."""
        f = write(tmp_path, "f.gpi", MIXED_ID_FILE)
        code, out, _ = run(capsys, "check", f)
        assert code == 0 and json.loads(out) == {"identity": True}
        code, out, _ = run(capsys, "express", f)
        assert code == 0 and json.loads(out)["kind"] == "jcomb"
        cert = tmp_path / "comb.json"
        cert.write_text(out)
        code, out, _ = run(capsys, "verify", str(cert))
        assert code == 0 and json.loads(out)["valid"] is True

    def test_mixed_non_identity_exit_1(self, tmp_path, capsys):
        """A non-identity of mixed multidegree exits 1 with check's witness."""
        f = write(tmp_path, "f.gpi", MIXED_ID_FILE.replace("- x5*x4", ""))
        code, out, _ = run(capsys, "express", f)
        doc = json.loads(out)
        check_code, check_out, _ = run(capsys, "check", f)
        assert code == check_code == 1
        assert doc["witness"] == json.loads(check_out)["witness"]


class TestVerifyKeysEachWordOnce:
    """verify walks each term's source once; a word shared by several terms
    must not let a later term's chain skip any check."""

    # x1 x1 x2 x4 x3 pairs with x1 x1 x2 x3 x4 in term 0 and is the source
    # of term 1; x2, x3, x4 have trivial degree, x1 does not.
    SHARED = ("group: Z3\nvars: x1:1 x2:0 x3:0 x4:0\n"
              "poly: x1*x1*x2*x3*x4 + x1*x1*x2*x4*x3 - 2*x1*x1*x3*x2*x4\n")

    def verify(self, tmp_path, capsys, doc):
        cert = tmp_path / "comb.json"
        cert.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(cert))
        assert json.loads(out)["valid"] is (code == 0)
        return code

    def later_chain(self, tmp_path, capsys):
        code, out, _ = run(capsys, "express", write(tmp_path, "f.gpi", self.SHARED))
        doc = support.as_v2(json.loads(out))
        first, later = doc["payload"]["terms"]
        assert code == 0 and first["target"] == later["source"] == [1, 1, 2, 4, 3]
        assert self.verify(tmp_path, capsys, doc) == 0
        return doc, later

    def test_degree_violating_move(self, tmp_path, capsys):
        doc, later = self.later_chain(tmp_path, capsys)
        # swapping the two x1 leaves the word as it is, but x1 has degree 1
        later["chain"]["moves"].insert(0, {"kind": "swap0", "left": [],
                                           "blocks": [[1], [1]], "right": [2, 4, 3]})
        assert self.verify(tmp_path, capsys, doc) == 1

    def test_wrong_end(self, tmp_path, capsys):
        doc, later = self.later_chain(tmp_path, capsys)
        # congruent to the real end and keyed already, but not where the moves lead
        later["target"] = later["chain"]["end"] = [1, 1, 2, 3, 4]
        assert self.verify(tmp_path, capsys, doc) == 1

    def test_move_source_mismatch(self, tmp_path, capsys):
        doc, later = self.later_chain(tmp_path, capsys)
        # its target is the start, so only the source comparison rejects it
        later["chain"]["moves"].insert(0, {"kind": "swap0", "left": [1, 1],
                                           "blocks": [[4], [2]], "right": [3]})
        assert self.verify(tmp_path, capsys, doc) == 1


class TestCollectorPaused:
    """`main` runs a command with the cyclic collector off and leaves it as
    the caller set it.  That is safe because a command builds no reference
    cycle: after each one, whatever its answer, a collection finds nothing."""

    def test_no_command_leaves_a_cycle(self, tmp_path, capsys):
        write(tmp_path, "id.gpi", ID_FILE)
        write(tmp_path, "non.gpi", NONID_FILE)
        write(tmp_path, "cong.gpi", CONG_FILE)
        write(tmp_path, "gen.gpi", GEN_FILE)
        write(tmp_path, "apart.gpi", "group: Z3\nvars: x1:1 x2:2\nm: x1*x2\nn: x1*x1\n")
        write(tmp_path, "undeclared.gpi", "group: Z3\nvars: x1:1\npoly: x1*x9\n")
        (tmp_path / "pass.json").write_text(json.dumps(
            [{"file": "id.gpi", "expected": "identity"},
             {"file": "gen.gpi", "expected": "reducible"}]))
        (tmp_path / "fail.json").write_text(json.dumps(
            [{"file": "non.gpi", "expected": "identity"}, {"file": "absent.gpi"}]))
        (tmp_path / "object.json").write_text("{}")
        for (kind, version), doc in documents_of_every_version().items():
            (tmp_path / f"{kind}-v{version}.json").write_text(certs.dumps(doc))
        (tmp_path / "deep.json").write_text(certs.dumps(support.deep_subst_reduction(16)))
        d = tmp_path
        steps = [
            (0, f"check {d}/id.gpi"), (1, f"check {d}/non.gpi"),
            (2, f"check {d}/undeclared.gpi"), (2, f"check {d}/absent.gpi"),
            (0, f"eval {d}/id.gpi"), (0, f"eval {d}/id.gpi --word x3*x1"),
            (2, f"eval {d}/id.gpi --word 7"),
            (0, f"congruent {d}/cong.gpi"), (1, f"congruent {d}/apart.gpi"),
            (2, f"congruent {d}/id.gpi"),
            (0, f"express {d}/id.gpi"), (1, f"express {d}/non.gpi"),
            (2, f"express {d}/cong.gpi"),
            (0, f"z3reduce {d}/gen.gpi"), (2, f"z3reduce {d}/gen.gpi --type 1"),
            (2, f"z3reduce {d}/id.gpi"),
            (0, "enum-reduced"), (0, "enum-reduced --max-len 2 --json"),
            (2, "enum-reduced --order 0"),
            (0, f"corpus {d}/pass.json"), (1, f"corpus {d}/fail.json"),
            (2, f"corpus {d}/object.json"),
            *((0, f"verify {d}/{kind}-v{version}.json")
              for kind, version in documents_of_every_version()),
            (2, f"verify {d}/deep.json"), (2, f"verify {d}/object.json"),
            (2, f"verify {d}/id.gpi"),
        ]
        for want, line in steps:
            gc.collect()
            assert run(capsys, *line.split())[0] == want, line
            assert gc.isenabled()
            assert gc.collect() == 0, line

    @pytest.mark.parametrize("collecting", [True, False])
    def test_main_leaves_the_callers_setting(self, tmp_path, capsys, monkeypatch,
                                             collecting):
        f = write(tmp_path, "id.gpi", ID_FILE)
        seen = []

        def witness(poly):
            seen.append(gc.isenabled())
            if len(seen) == 2:
                raise RuntimeError("unexpected")
            return None

        monkeypatch.setattr(cli, "identity_witness", witness)
        before = gc.isenabled()
        try:
            (gc.enable if collecting else gc.disable)()
            assert run(capsys, "check", f)[0] == 0 and gc.isenabled() is collecting
            with pytest.raises(RuntimeError, match="unexpected"):
                main(["check", f])
            assert gc.isenabled() is collecting
            assert run(capsys, "check", f + ".absent")[0] == 2
            assert gc.isenabled() is collecting
            with pytest.raises(SystemExit):
                main(["check"])
            assert gc.isenabled() is collecting
        finally:
            (gc.enable if before else gc.disable)()
        capsys.readouterr()
        assert seen == [False, False]


class TestPositionalMoves:
    """Version-3 moves [kind, offset, len...] act on the running word.  A
    move that cannot be cut from it is bad input (exit 2, one `gpi:` line);
    a move that can but breaks the proof fails verification (exit 1)."""

    def express_doc(self, tmp_path, capsys):
        code, out, _ = run(capsys, "express", write(
            tmp_path, "f.gpi", TestVerifyKeysEachWordOnce.SHARED))
        doc = json.loads(out)
        assert code == 0 and doc["version"] == 3
        assert [t["chain"] for t in doc["payload"]["terms"]] == [
            {"moves": [["swap0", 3, 1, 1]]}, {"moves": [["swap0", 2, 2, 1]]}]
        return doc

    def verify(self, tmp_path, capsys, doc):
        cert = tmp_path / "edited.json"
        cert.write_text(json.dumps(doc))
        return run(capsys, "verify", str(cert))

    @pytest.mark.parametrize("move", [
        ["swap0", 2.0, 2, 1], ["swap0", True, 2, 1], ["swap0", "2", 2, 1],
        ["swap0", 2, 2, 1.5], ["swap0", 2, False, 1], ["swap0", 2, None, 1],
        ["swap0", 2, 0, 1], ["swap0", 2, 2, -1],
        ["swap0", 2, 2], ["swap0", 2, 2, 1, 1], ["reverse3", 2, 1, 1], ["swap0"], [],
        ["rotate", 2, 2, 1], [2, 2, 2, 1], [["swap0"], 2, 2, 1], "swap0", {"kind": "swap0"},
        ["swap0", 3, 2, 1], ["swap0", -1, 2, 1], ["reverse3", 0, 1, 1, 4],
        ["reverse3", 0, 1, 0, 1], ["reverse3", 0, 0, 1, 1], ["reverse3", 0, 1, 1, 0],
        ["reverse3", -1, 1, 1, 1],
    ])
    def test_malformed_move_exit_2(self, tmp_path, capsys, move):
        """Each bad move is named with the checked Move constructor's
        message, or the type or fit message, whatever the loader skips, and
        by its index: move 0 alone, move 1 after a valid move."""
        doc = self.express_doc(tmp_path, capsys)
        want = self.SHAPE_ERRORS.get(
            json.dumps(move), "move 0 is not [kind, offset, len, ...] with integer offset and lengths")
        for before in ([], [["swap0", 0, 1, 1]]):
            doc["payload"]["terms"][1]["chain"]["moves"] = [*before, move]
            code, out, err = self.verify(tmp_path, capsys, doc)
            assert code == 2 and out == ""
            assert err.startswith("gpi: ") and err.count("\n") == 1
            assert err.endswith(f": {want.replace('move 0', f'move {len(before)}', 1)}\n")

    # the message of each well-typed bad move above; term 1's source has 5 letters
    SHAPE_ERRORS = {
        '["rotate", 2, 2, 1]': "move 0: unknown move kind 'rotate'",
        '["swap0", 2, 2]': "move 0: swap0 takes 2 blocks",
        '["swap0", 2, 2, 1, 1]': "move 0: swap0 takes 2 blocks",
        '["reverse3", 2, 1, 1]': "move 0: reverse3 takes 3 blocks",
        '["swap0", -1, 2, 1]': "move 0: a move's offset must be nonnegative and its blocks nonempty",
        '["swap0", 2, 0, 1]': "move 0: a move's offset must be nonnegative and its blocks nonempty",
        '["swap0", 2, 2, -1]': "move 0: a move's offset must be nonnegative and its blocks nonempty",
        '["reverse3", 0, 1, 0, 1]':
            "move 0: a move's offset must be nonnegative and its blocks nonempty",
        '["reverse3", -1, 1, 1, 1]':
            "move 0: a move's offset must be nonnegative and its blocks nonempty",
        '["reverse3", 0, 0, 1, 1]':
            "move 0: a move's offset must be nonnegative and its blocks nonempty",
        '["reverse3", 0, 1, 1, 0]':
            "move 0: a move's offset must be nonnegative and its blocks nonempty",
        '["swap0", 3, 2, 1]':
            "move 0: offset 3 and block lengths [2, 1] do not fit a word of length 5",
        '["reverse3", 0, 1, 1, 4]':
            "move 0: offset 0 and block lengths [1, 1, 4] do not fit a word of length 5",
    }

    def test_moves_not_a_list_exit_2(self, tmp_path, capsys):
        doc = self.express_doc(tmp_path, capsys)
        doc["payload"]["terms"][1]["chain"]["moves"] = {"0": ["swap0", 2, 2, 1]}
        code, _, err = self.verify(tmp_path, capsys, doc)
        assert code == 2 and err.count("\n") == 1

    def test_chain_move_past_the_word_exit_2(self, tmp_path, capsys):
        _, out, _ = run(capsys, "congruent", write(tmp_path, "f.gpi", CONG_FILE))
        doc = json.loads(out)
        assert doc["payload"]["moves"] == [["reverse3", 0, 1, 1, 1]]
        doc["payload"]["moves"] = [["reverse3", 1, 1, 1, 1]]
        code, _, err = self.verify(tmp_path, capsys, doc)
        assert code == 2 and err.startswith("gpi: ") and err.count("\n") == 1

    @pytest.mark.parametrize("edit", ["degree", "dropped", "extra", "chain end"])
    def test_broken_proof_exit_1(self, tmp_path, capsys, edit):
        doc = self.express_doc(tmp_path, capsys)
        later = doc["payload"]["terms"][1]
        if edit == "degree":  # swaps the two x1 (degree 1): the word is unchanged
            later["chain"]["moves"].insert(0, ["swap0", 0, 1, 1])
        elif edit == "dropped":  # the moves end at the source
            later["chain"]["moves"] = []
        elif edit == "extra":  # a valid move too many: congruent, not the target
            later["chain"]["moves"].append(["swap0", 3, 1, 1])
        else:
            _, out, _ = run(capsys, "congruent", write(tmp_path, "f.gpi", CONG_FILE))
            doc = json.loads(out)
            doc["payload"]["end"] = [1, 3, 2]
        code, out, _ = self.verify(tmp_path, capsys, doc)
        assert code == 1 and json.loads(out)["valid"] is False

    def test_v2_and_v3_verify_alike(self, tmp_path, capsys):
        doc = self.express_doc(tmp_path, capsys)
        assert self.verify(tmp_path, capsys, doc)[:2] == \
            self.verify(tmp_path, capsys, support.as_v2(doc))[:2] == \
            (0, '{"kind":"jcomb","valid":true}\n')

    def test_replay_budget_counts_before_any_move(self, tmp_path, capsys, monkeypatch):
        """Each term charges len(source) x len(moves): 5 x 1 twice here."""
        doc = self.express_doc(tmp_path, capsys)
        monkeypatch.setattr(freealg, "MAX_REPLAY_LETTERS", 10)
        assert self.verify(tmp_path, capsys, doc)[0] == 0
        monkeypatch.setattr(freealg, "MAX_REPLAY_LETTERS", 9)
        code, _, err = self.verify(tmp_path, capsys, doc)
        assert code == 2 and "MAX_REPLAY_LETTERS" in err and err.count("\n") == 1

    def test_over_budget_document_exit_2(self, tmp_path, capsys):
        """A few kilobytes of moves that would copy a 1,000-letter word more
        times than the budget allows; no move is built."""
        doc = self.express_doc(tmp_path, capsys)
        doc["vars"]["5"] = 0
        term = doc["payload"]["terms"][0]
        term["source"] = term["target"] = [5] * 1000
        term["chain"]["moves"] = [["swap0", 0, 1, 1]] * (freealg.MAX_REPLAY_LETTERS // 1000 + 1)
        code, out, err = self.verify(tmp_path, capsys, doc)
        assert code == 2 and out == "" and err.count("\n") == 1
        assert "MAX_REPLAY_LETTERS" in err


def _fuzz_base(salt: int = 11, coeffs=(1, 2, -3)) -> dict:
    """A valid version-3 jcomb from one random congruent pair per coefficient,
    each from x1..x6x1; the default has two terms and both move kinds."""
    rand = random.Random(support.DEFAULT_SEED + salt)
    ctx = Context(default_grading(cyclic_group(3)), {1: 0, 2: 0, 3: 1, 4: 2, 5: 1, 6: 0})
    terms: dict = {}
    for c in coeffs:
        m, n = support.random_congruent_pair(rand, ctx, (1, 2, 3, 4, 5, 6, 1), max_moves=4)
        terms[m] = terms.get(m, 0) + c
        terms[n] = terms.get(n, 0) - c
    return certs.jcomb_to_json(express_in_J(FreePoly(ctx, terms)))


_FUZZ_BASE = _fuzz_base()
_BOUNDARY_BASE = _fuzz_base(12, (1, 2, -3, 1, -1, 2, 3, -2))  # 7 terms, 88 boundary edits
_FIELD = st.one_of(st.integers(-1, 8), st.sampled_from([True, False, 1.0, "1", None]))
_KIND = st.sampled_from(["swap0", "reverse3", "rotate"])
_MUTATION = st.one_of(
    st.tuples(st.just("field"), st.integers(0, 9), st.integers(1, 4), _FIELD),
    st.tuples(st.just("kind"), st.integers(0, 9), _KIND),
    st.tuples(st.just("insert"), st.integers(0, 9),
              st.lists(_FIELD, min_size=1, max_size=4), _KIND),
    st.tuples(st.just("drop"), st.integers(0, 9)))


def _mutated(mutations) -> dict:
    doc = copy.deepcopy(_FUZZ_BASE)
    terms = doc["payload"]["terms"]
    for what, at, *rest in mutations:
        moves = terms[at % len(terms)]["chain"]["moves"]
        if what == "insert":
            fields, kind = rest
            moves.insert(at % (len(moves) + 1), [kind, *fields])
        elif not moves:
            continue
        elif what == "drop":
            del moves[at % len(moves)]
        elif what == "kind":
            moves[at % len(moves)][0] = rest[0]
        else:
            mv = moves[at % len(moves)]
            if len(mv) > 1:
                mv[1 + rest[0] % (len(mv) - 1)] = rest[1]
    return doc


def _verify_doc(path, doc) -> tuple[int, str, str]:
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(path)])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None)
@given(st.lists(_MUTATION, min_size=1, max_size=3))
def test_fuzz_positional_moves_match_v2(tmp_path_factory, mutations):
    """Mutated move lists: exit 0, 1 or 2, at most one `gpi:` line, and the
    same answer as the version-2 document the moves stand for."""
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    doc = _mutated(mutations)
    code, out, err = _verify_doc(path, doc)
    assert code in (0, 1, 2)
    assert err == "" if code != 2 else (err.startswith("gpi: ") and err.count("\n") == 1)
    if code != 2:
        comb = certs.certificate_from_json(doc)
        assert certs.verify_combination(comb) is support.old_verify_combination(comb) is (code == 0)
    try:
        v2 = support.as_v2(doc)
    except (ValueError, TypeError):
        return
    assert _verify_doc(path, v2)[:2] == (code, out)


def _boundary_edits(move: list, size: int) -> list[list]:
    """The move [kind, offset, len...] with one block boundary moved 1 to 3
    letters either way: every such edit that keeps each block nonempty and
    the move inside a word of length size.  Boundary j is the offset (j = 0)
    or the end of block j; the block after it keeps its own end."""
    kind, *fields = move
    edits = []
    for j in range(len(fields)):
        for delta in (-3, -2, -1, 1, 2, 3):
            new = list(fields)
            new[j] += delta
            if j + 1 < len(new):
                new[j + 1] -= delta
            if new[0] >= 0 and min(new[1:]) >= 1 and sum(new) <= size:
                edits.append([kind, *new])
    return edits


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 99), st.integers(0, 99), st.integers(0, 99))
def test_fuzz_move_boundary(tmp_path_factory, term, move, edit):
    """A version-3 jcomb with one block boundary of one move moved, inside
    the word: `gpi verify` exits 0 or 1, silently, as the word-level replay
    (support.old_verify_combination) answers."""
    doc = copy.deepcopy(_BOUNDARY_BASE)
    terms = [t for t in doc["payload"]["terms"] if t["chain"]["moves"]]
    t = terms[term % len(terms)]
    moves = t["chain"]["moves"]
    edits = _boundary_edits(moves[move % len(moves)], len(t["source"]))
    moves[move % len(moves)] = edits[edit % len(edits)]
    code, out, err = _verify_doc(tmp_path_factory.getbasetemp() / "boundary.json", doc)
    valid = support.old_verify_combination(certs.certificate_from_json(doc))
    assert (code, out, err) == (0 if valid else 1,
                                certs.dumps({"kind": "jcomb", "valid": valid}), "")


# Reductions that `gpi z3reduce` writes for generators with a long part:
# both have sum, context, subst and leaf rows.
_REDUCED: dict[str, dict] = {}
_REDUCTION_OPS = ["leaf", "sum", "context", "subst", "mystery"]
_REDUCTION_EDIT = st.tuples(
    st.sampled_from(["op", "child", "coeff", "letter", "image", "root", "drop", "duplicate"]),
    st.integers(0, 99), _FIELD)


def _z3reduce_output(tmp_path_factory, text: str) -> dict:
    """The document `gpi z3reduce` prints for a problem text, run once per text."""
    if text not in _REDUCED:
        path = tmp_path_factory.getbasetemp() / "long_part.gpi"
        path.write_text(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["z3reduce", str(path)]) == 0
        _REDUCED[text] = json.loads(out.getvalue())
    return copy.deepcopy(_REDUCED[text])


def _reduction_source(tmp_path_factory, source: str) -> dict:
    """V1_REDUCTION's nested tree, or `gpi z3reduce`'s node table for a problem text."""
    if source == V1_REDUCTION:
        return json.loads(V1_REDUCTION)
    return _z3reduce_output(tmp_path_factory, source)


def _reduction_nodes(payload: dict) -> list[dict]:
    """The rows of a node table, or the nodes of a version-1 tree, parents first."""
    if "nodes" in payload:
        return payload["nodes"]
    nodes, stack = [], [payload["root"]]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack += [ch for _, ch in node.get("children", ())]
        stack += [node["child"]] if "child" in node else []
    return nodes


def _reduction_sites(payload: dict, what: str) -> list:
    """The (container, key) places that an edit of one kind may overwrite;
    in a version-1 tree a child site holds a nested node."""
    sites = []
    if what == "letter":
        sites += [(p, i) for p in payload["target"]["parts"] for i in range(len(p))]
    for node in _reduction_nodes(payload):
        op = node["op"]
        if what == "op":
            sites.append((node, "op"))
        elif what == "child" and op == "sum":
            sites += [(ch, 1) for ch in node["children"]]
        elif what == "child" and op in ("context", "subst"):
            sites.append((node, "child"))
        elif what == "coeff" and op == "sum":
            sites += [(ch, 0) for ch in node["children"]]
        elif what == "letter":
            words = ([node["left"], node["right"]] if op == "context"
                     else node["generator"]["parts"] if op == "leaf" else [])
            sites += [(w, i) for w in words for i in range(len(w))]
        elif what == "image" and op == "subst":
            sites += [(image, k) for image in node["images"] for k in (0, 1)]
    return sites


def _mutated_reduction(doc: dict, what: str, at: int, value) -> dict:
    """doc with one op, child reference, coefficient, letter, image or the
    root overwritten, or one node dropped or duplicated: a row of a table, or
    a nested node of a version-1 tree, spliced out (a node below it, if any,
    takes its place) or overwritten by a copy of another node."""
    payload = doc["payload"]
    nodes = payload.get("nodes")
    if what == "root":
        payload["root"] = value
    elif nodes is not None and what == "drop":
        del nodes[at % len(nodes)]
    elif nodes is not None and what == "duplicate":
        nodes.insert(at % (len(nodes) + 1), copy.deepcopy(nodes[at % len(nodes)]))
    elif what in ("drop", "duplicate"):
        sites = _reduction_sites(payload, "child")
        owner, key = sites[at % len(sites)]
        below = _reduction_nodes({"root": owner[key]})[1:]
        if what == "duplicate":
            tree = _reduction_nodes(payload)
            owner[key] = copy.deepcopy(tree[at // len(sites) % len(tree)])
        elif below:
            owner[key] = below[0]
        else:
            del owner[key]
    else:
        sites = _reduction_sites(payload, what)
        owner, key = sites[at % len(sites)]
        owner[key] = (_REDUCTION_OPS[at // len(sites) % len(_REDUCTION_OPS)]
                      if what == "op" else value)
    return doc


@settings(max_examples=90, deadline=None)
@given(st.sampled_from([GEN_FILE, GEN1_FILE, V1_REDUCTION]), _REDUCTION_EDIT)
def test_fuzz_reduction_documents(tmp_path_factory, text, edit):
    """`gpi z3reduce` output, or a version-1 tree, with one field changed or
    one node dropped or duplicated: `gpi verify` exits 0, 1 or 2 with at most
    one `gpi:` line."""
    doc = _reduction_source(tmp_path_factory, text)
    assert {"subst", "context"} <= {node["op"] for node in _reduction_nodes(doc["payload"])}
    path = tmp_path_factory.getbasetemp() / "reduction.json"
    code, out, err = _verify_doc(path, _mutated_reduction(doc, *edit))
    assert code in (0, 1, 2)
    assert err == "" if code != 2 else (err.startswith("gpi: ") and err.count("\n") == 1)


class TestReplayBudget:
    """A reduction's replay charges every word it builds to one budget; past
    MAX_REPLAY_LETTERS, verify exits 2 with one `gpi:` line."""

    def verify(self, tmp_path, capsys, doc):
        cert = tmp_path / "reduction.json"
        cert.write_text(certs.dumps(doc))
        return run(capsys, "verify", str(cert))

    def assert_over_budget(self, tmp_path, capsys, doc):
        code, out, err = self.verify(tmp_path, capsys, doc)
        assert code == 2 and out == ""
        assert err.startswith("gpi: ") and err.count("\n") == 1
        assert "MAX_REPLAY_LETTERS" in err

    @pytest.mark.parametrize("shape, under, over", [
        # letters the replay builds: 2,241 / 5,121 and 2,522 / 6,044
        (support.deep_subst_reduction, 6, 7),
        (support.repeated_letter_reduction, 5, 6),
    ])
    def test_crosses_at_a_small_depth(self, tmp_path, capsys, monkeypatch, shape, under, over):
        monkeypatch.setattr(freealg, "MAX_REPLAY_LETTERS", 5_000)
        code, out, _ = self.verify(tmp_path, capsys, shape(under))
        assert code == 1 and json.loads(out)["valid"] is False
        self.assert_over_budget(tmp_path, capsys, shape(over))

    @pytest.mark.parametrize("doc", [support.deep_subst_reduction(16),
                                     support.repeated_letter_reduction(16)])
    def test_known_slow_documents(self, tmp_path, capsys, doc):
        """501 and 415 bytes; each took over a second to replay unbounded."""
        self.assert_over_budget(tmp_path, capsys, doc)

    @pytest.mark.parametrize("node, under, over", [
        # a sum holds a copy of its 32 terms; a context copies their 320 letters
        (lambda child: {"op": "sum", "children": [[1, child]]}, 30, 31),
        (lambda child: {"op": "context", "left": [], "right": [], "child": child}, 3, 4),
    ])
    def test_chains_over_one_large_value(self, tmp_path, capsys, monkeypatch,
                                         node, under, over):
        """Nodes that copy one value of 2^k words are charged per copy: the
        value costs 1,016 letters, and the budget is 2,000."""
        monkeypatch.setattr(freealg, "MAX_REPLAY_LETTERS", 2_000)
        for count in (under, over):
            doc = support.repeated_letter_reduction(4)
            nodes = doc["payload"]["nodes"]
            nodes += [node(len(nodes) - 1 + i) for i in range(count)]
            doc["payload"]["root"] = len(nodes) - 1
            if count == under:
                code, out, _ = self.verify(tmp_path, capsys, doc)
                assert code == 1 and json.loads(out)["valid"] is False
            else:
                self.assert_over_budget(tmp_path, capsys, doc)


class TestLongIntegers:
    """An integer longer than int() reads (4300 digits by default) exits 2
    with one `gpi:` line; DSL errors keep their line, and expression tokens
    their column."""

    BIG = "7" * 5000

    def assert_rejected(self, capsys, *argv, where=""):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("gpi: ") and err.count("\n") == 1
        assert where in err

    def check(self, tmp_path, capsys, text, where):
        self.assert_rejected(capsys, "check", write(tmp_path, "f.gpi", text), where=where)

    def test_vars_degree(self, tmp_path, capsys):
        self.check(tmp_path, capsys, f"group: Z3\nvars: x1:{self.BIG}\npoly: x1\n",
                   "line 2, column 1: degree of 5000 digits")

    def test_vars_id(self, tmp_path, capsys):
        self.check(tmp_path, capsys, f"group: Z3\nvars: x{self.BIG}:1\npoly: x1\n",
                   "line 2, column 1: variable id of 5000 digits")

    def test_poly_coefficient(self, tmp_path, capsys):
        self.check(tmp_path, capsys, f"group: Z3\nvars: x1:1\npoly: x1 + {self.BIG}*x1\n",
                   "line 3, column 6: integer of 5000 digits")

    def test_poly_variable_id(self, tmp_path, capsys):
        self.check(tmp_path, capsys, f"group: Z3\nvars: x1:1\npoly: x1 - x{self.BIG}\n",
                   "line 3, column 6: variable id of 5000 digits")

    def test_grading_line(self, tmp_path, capsys):
        self.check(tmp_path, capsys,
                   f"group: Z3\ngrading: 0 {self.BIG} 2\nvars: x1:1\npoly: x1\n",
                   "line 2, column 1: grading entry of 5000 digits")

    def test_type_line(self, tmp_path, capsys):
        text = f"group: Z3\nvars: x1:0 x2:0\ntype: {self.BIG}\nh1: x1\nh2: x2\n"
        self.assert_rejected(capsys, "z3reduce", write(tmp_path, "g.gpi", text),
                             where="line 3, column 1: generator type must be 1 or 2")

    def test_eval_word_index(self, tmp_path, capsys):
        self.assert_rejected(capsys, "eval", write(tmp_path, "f.gpi", ID_FILE),
                             "--word", self.BIG, where="word index of 5000 digits")

    def test_certificate_coefficient(self, tmp_path, capsys):
        _, out, _ = run(capsys, "express", write(tmp_path, "f.gpi", ID_FILE))
        assert '"coeff":1,' in out
        cert = tmp_path / "big.json"
        cert.write_text(out.replace('"coeff":1,', f'"coeff":{self.BIG},', 1))
        self.assert_rejected(capsys, "verify", str(cert), where="more digits than can be read")

    def test_corpus_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(f'[{{"file": "f.gpi", "expected": "identity", "n": {self.BIG}}}]')
        self.assert_rejected(capsys, "corpus", str(manifest),
                             where="more digits than can be read")

    def test_4000_digit_coefficient_accepted(self, tmp_path, capsys):
        lam = "9" * 4000
        f = write(tmp_path, "f.gpi", "group: Z3\nvars: x1:1 x2:2 x3:1\n"
                  f"poly: {lam}*x1*x2*x3 - {lam}*x3*x2*x1\n")
        assert run(capsys, "check", f)[0] == 0
        code, out, _ = run(capsys, "express", f)
        assert code == 0 and f'"coeff":{lam},' in out
        cert = tmp_path / "comb.json"
        cert.write_text(out)
        assert run(capsys, "verify", str(cert))[0] == 0


class TestHostileProblems:
    """A problem expression nested too deeply, or expanding past
    MAX_REPLAY_LETTERS letters, and an answer holding an integer longer than
    Python writes, exit 2 with one `gpi:` line, nothing on stdout and no
    traceback."""

    LAMBDA = "*".join(["123456789"] * 2000)  # 16,184 digits once multiplied out

    def assert_rejected(self, capsys, *argv, where=""):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "Traceback" not in err
        assert err.startswith("gpi: ") and err.count("\n") == 1
        assert where in err
        assert time.perf_counter() - start < 2

    @pytest.mark.parametrize("line", ["poly: " + "(" * 1000 + "x1" + ")" * 1000,
                                      "poly: " + "[x1," * 1000 + "x2" + "]" * 1000,
                                      "m: " + "(" * 1000 + "x1" + ")" * 1000])
    def test_nested_1000_deep(self, tmp_path, capsys, line):
        f = write(tmp_path, "deep.gpi", f"group: Z3\nvars: x1:0 x2:0\n{line}\n")
        command = "check" if line.startswith("poly") else "congruent"
        self.assert_rejected(capsys, command, f, where="line 3, column 1: expression nested "
                                                       "too deeply")

    def test_nested_word_argument(self, tmp_path, capsys):
        f = write(tmp_path, "f.gpi", ID_FILE)
        self.assert_rejected(capsys, "eval", f, "--word", "(" * 1000 + "x1" + ")" * 1000,
                             where="--word: line 1, column 1: expression nested too deeply")

    def test_24_nested_brackets_of_distinct_letters(self, tmp_path, capsys):
        """A 138-character expression whose expansion has 2^24 words."""
        degrees = " ".join(f"x{k}:0" for k in range(1, 26))
        poly = "".join(f"[x{k}," for k in range(1, 25)) + "x25" + "]" * 24
        f = write(tmp_path, "wide.gpi", f"group: Z3\nvars: {degrees}\npoly: {poly}\n")
        self.assert_rejected(capsys, "check", f, where=(
            f"gpi: {f}: line 3, column 1: expression expands too far: replay needs more than "
            "2,000,000 letters (MAX_REPLAY_LETTERS)\n"))

    @pytest.mark.parametrize("command", ["check", "eval", "express"])
    @pytest.mark.parametrize("factor", ["x1", "[x1,x2]"])
    def test_answer_with_an_integer_too_long_to_write(self, tmp_path, capsys, command,
                                                      factor):
        """The answer (a witness, a matrix entry or a jcomb coefficient) holds
        the 16,184-digit coefficient; [x1, x2] is an identity, so check
        answers it with no number and eval with no entry."""
        f = write(tmp_path, "big.gpi",
                  f"group: Z3\nvars: x1:0 x2:0\npoly: {self.LAMBDA}*{factor}\n")
        if factor != "x1" and command != "express":
            assert run(capsys, command, f)[0] == 0
        else:
            self.assert_rejected(capsys, command, f, where="too long to write")

    def test_corpus_entry_with_an_integer_too_long_to_write(self, tmp_path, capsys):
        """The certificate cannot be written, so the entry is an error, and
        no certificate file is left."""
        write(tmp_path, "big.gpi", f"group: Z3\nvars: x1:0 x2:0\npoly: {self.LAMBDA}*[x1,x2]\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text('[{"file": "big.gpi", "expected": "identity"}]')
        code, out, _ = run(capsys, "corpus", str(manifest))
        (entry,) = json.loads(out)["entries"]
        assert code == 1 and entry["status"] == "error"
        assert entry["detail"] == "an integer in the answer is too long to write"
        assert not (tmp_path / "big.cert.json").exists()

    def test_corpus_entry_whose_witness_is_too_long_to_write(self, tmp_path, capsys):
        """The report would copy the witness, so the entry is an error, and
        the report is still written."""
        lam = "*".join(["999999999"] * 2000)
        f = write(tmp_path, "big.gpi", f"group: Z3\nvars: x1:1\npoly: {lam}*x1\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text('[{"file": "big.gpi", "expected": "non-identity"}]')
        code, out, err = run(capsys, "corpus", str(manifest))
        (entry,) = json.loads(out)["entries"]
        assert code == 1 and entry["status"] == "error" and "witness" not in entry
        assert entry["detail"] == "an integer in the answer is too long to write"
        assert err == f"gpi: ERROR: {f} (non-identity)\n"

    @pytest.mark.parametrize("limit, code", [("640", 2), ("100000", 0)])
    def test_whatever_the_integer_string_limit(self, tmp_path, limit, code):
        """An 810-digit coefficient is too long under a 640-digit limit and is
        written under a 100,000-digit one (a real process, so that the
        limit is read from PYTHONINTMAXSTRDIGITS)."""
        lam = "*".join(["123456789"] * 100)
        f = write(tmp_path, "big.gpi", f"group: Z3\nvars: x1:0 x2:0\npoly: {lam}*[x1,x2]\n")
        env = dict(os.environ, PYTHONINTMAXSTRDIGITS=limit,
                   PYTHONPATH=os.path.dirname(os.path.dirname(certs.__file__)))
        proc = subprocess.run([sys.executable, "-m", "gpi.cli", "express", f], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == code and "Traceback" not in proc.stderr
        if code:
            assert proc.stdout == "" and proc.stderr.count("\n") == 1
        else:
            assert str(123456789 ** 100) in proc.stdout


class TestNotUtf8:
    def test_problem_file(self, tmp_path, capsys):
        f = tmp_path / "f.gpi"
        f.write_bytes(b"group: Z3\nvars: x1:1\npoly: x1 \xff\n")
        code, out, err = run(capsys, "check", str(f))
        assert code == 2 and out == "" and err.count("\n") == 1
        assert "line 3, column 1: not UTF-8 text" in err

    def test_certificate(self, tmp_path, capsys):
        cert = tmp_path / "c.json"
        cert.write_bytes(b'{"kind": "\xff"}')
        code, out, err = run(capsys, "verify", str(cert))
        assert code == 2 and out == "" and err == f"gpi: {cert}: not UTF-8 text\n"


_LF_FILE = b"group: Z3\nvars: x1:1 x2:2\npoly: x1*x2 - x2*x1\n"


class TestLineEnds:
    """A problem file's lines end at \\n, \\r\\n or \\r only; any other
    separator that str.splitlines knows stays inside its line."""

    def answer(self, capsys, tmp_path, data: bytes):
        f = tmp_path / "f.gpi"
        f.write_bytes(data)
        return run(capsys, "check", str(f))

    def test_separator_inside_a_comment_hides_no_directive(self, tmp_path, capsys):
        data = "group: Z3\nvars: x1:1 x2:2\n# poly: comment only\u2028poly: x1*x2\n".encode()
        assert self.answer(capsys, tmp_path, data) == (
            2, "", f"gpi: {tmp_path / 'f.gpi'}: no 'poly:' line\n")

    @pytest.mark.parametrize("sep", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                                     "\u2028", "\u2029"])
    def test_separator_reads_as_a_space(self, tmp_path, capsys, sep):
        spaced = self.answer(capsys, tmp_path, _LF_FILE)
        assert spaced[0] == 1
        data = _LF_FILE.replace(b"x2 - ", f"x2{sep}- ".encode())
        assert self.answer(capsys, tmp_path, data) == spaced

    @pytest.mark.parametrize("end", [b"\r\n", b"\r"])
    def test_crlf_and_cr_files_read(self, tmp_path, capsys, end):
        assert self.answer(capsys, tmp_path, _LF_FILE.replace(b"\n", end)) == \
            self.answer(capsys, tmp_path, _LF_FILE)

    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"])
    def test_decoding_error_line_by_the_same_rule(self, tmp_path, capsys, end):
        data = end.join([b"group: Z3", "vars: x1:1\u2028".encode(), b"poly: x1 \xff", b""])
        code, _, err = self.answer(capsys, tmp_path, data)
        assert code == 2 and err.endswith(": line 3, column 1: not UTF-8 text\n")


class TestByteOrderMark:
    def test_leading_mark_is_read_past(self, tmp_path, capsys):
        f = tmp_path / "f.gpi"
        f.write_bytes(_LF_FILE)
        plain = run(capsys, "check", str(f))
        f.write_bytes(b"\xef\xbb\xbf" + _LF_FILE)
        assert run(capsys, "check", str(f)) == plain

    def test_decoding_error_after_a_mark(self, tmp_path, capsys):
        f = tmp_path / "f.gpi"
        f.write_bytes(b"\xef\xbb\xbfgroup: Z3\nvars: x1:1\npoly: x1 \xff\n")
        code, _, err = run(capsys, "check", str(f))
        assert code == 2 and err.endswith(": line 3, column 1: not UTF-8 text\n")

    def test_mark_elsewhere_is_an_unexpected_character(self, tmp_path, capsys):
        f = tmp_path / "f.gpi"
        f.write_bytes(_LF_FILE.replace(b"x1*x2", b"x1*\xef\xbb\xbfx2"))
        assert run(capsys, "check", str(f)) == (
            2, "", f"gpi: {f}: line 3, column 4: unexpected character '\\ufeff'\n")


def _edited_answer(capsys, tmp_path, command, text, edit) -> str:
    """The JSON text of `gpi command` on a file holding text, after edit(doc)."""
    _, out, _ = run(capsys, command, write(tmp_path, "source.gpi", text))
    doc = json.loads(out)
    edit(doc)
    return json.dumps(doc)


# subcommand, its input's text (None: no file; a function of capsys and
# tmp_path: made from an answer), the diagnostic with {path} for the input, and
# whether that is the whole line (not where its end is the OS's or json's text)
_DIAGNOSTICS = {
    "key-value": ("check", "group: Z3\nvars: x1:0\npoly x1\n",
                  "{path}: line 3, column 1: expected 'key: value'", True),
    "grading": ("check", "group: Z3\ngrading: 0 0 1\nvars: x1:1\npoly: x1\n",
                "{path}: line 2, column 1: grading tuple must be a bijection onto the group",
                True),
    "group-Z0": ("check", "group: Z0\nvars: x1:0\npoly: x1\n",
                 "{path}: line 1, column 1: cyclic group order must be positive", True),
    "group-table": ("check", "group: table []\nvars: x1:0\npoly: x1\n",
                    "{path}: line 1, column 1: bad group table: group order must be positive",
                    True),
    "empty-word": ("congruent", "group: Z3\nvars: x1:0\nm: 1\nn: x1\n",
                   "{path}: line 3, column 1: the empty word is not accepted here", True),
    "no-poly": ("check", "group: Z3\nvars: x1:0\n",
                "{path}: no 'poly:' line", True),
    "no-generator": ("z3reduce", "group: Z3\nvars: x1:0\npoly: x1\n",
                     "{path}: no generator (type:/h1:/... lines)", True),
    "manifest-object": ("corpus", '{"file": "a.gpi", "expected": "identity"}',
                        "{path}: manifest must be a JSON list", True),
    "verify-missing": ("verify", None, "cannot read {path}: ", False),
    "verify-not-json": ("verify", "group: Z3\n", "{path}: not valid JSON: ", False),
    "verify-id-0": ("verify", lambda c, t: _edited_answer(
        c, t, "congruent", CONG_FILE, lambda doc: doc.update(vars={"0": 1})),
        "{path}: variable id 0 must be positive", True),
    "verify-node-7": ("verify", lambda c, t: _edited_answer(
        c, t, "z3reduce", GEN1_FILE, lambda doc: doc["payload"]["nodes"].__setitem__(0, 7)),
        "{path}: a certificate node is a JSON object", True),
}


@pytest.mark.parametrize("case", list(_DIAGNOSTICS))
def test_exit_2_diagnostic(tmp_path, capsys, case):
    """Bad input to each of these checks exits 2, with nothing on stdout and
    its one `gpi:` line on stderr."""
    command, make, line, whole = _DIAGNOSTICS[case]
    path = tmp_path / "input"
    text = make(capsys, tmp_path) if callable(make) else make
    if text is not None:
        path.write_text(text)
    code, out, err = run(capsys, command, str(path))
    want = "gpi: " + line.format(path=path)
    assert (code, out) == (2, "")
    if whole:
        assert err == want + "\n"
    else:
        assert err.startswith(want) and err.count("\n") == 1


class TestAsciiDigits:
    """Problem files read numbers in ASCII digits only: int() would also read
    other scripts' digits, a sign and underscores.  Each case exits 2 with
    one `gpi:` line."""

    def assert_rejected(self, capsys, *argv, where):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("gpi: ") and err.count("\n") == 1
        assert where in err

    @pytest.mark.parametrize("text, where", [
        ("group: Z3\nvars: x1:0 x2:0\npoly: x\u0661*x2 - x2*x1\n",
         "line 3, column 2: unexpected character '\u0661'"),
        ("group: Z3\nvars: x1:0 x2:0\npoly: 2*x1*x2 - \u0662*x2*x1\n",
         "line 3, column 11: unexpected character '\u0662'"),
        ("group: Z\u0663\nvars: x1:0\npoly: x1\n", "line 1, column 1: unknown group"),
        ("group: Z2\ngrading: 0 +1\nvars: x1:0\npoly: x1\n",
         "line 2, column 1: grading entry '+1' is not"),
        ("group: Z2\ngrading: 1_0\nvars: x1:0\npoly: x1\n",
         "line 2, column 1: grading entry '1_0' is not"),
        ("group: Z2\ngrading: 0 \u0661\nvars: x1:0\npoly: x1\n",
         "line 2, column 1: grading entry"),
        ("group: Z3\nvars: x\u0661:0\npoly: x1\n", "line 2, column 1: bad variable declaration"),
        ("group: Z3\nvars: x1:\u0661\npoly: x1\n", "line 2, column 1: bad variable declaration"),
    ], ids=["poly-variable-id", "poly-coefficient", "group-order", "grading-sign",
            "grading-underscore", "grading-digit", "vars-id", "vars-degree"])
    def test_problem_file(self, tmp_path, capsys, text, where):
        path = tmp_path / "f.gpi"
        path.write_text(text, encoding="utf-8")
        self.assert_rejected(capsys, "check", str(path), where=where)

    def test_eval_word_index(self, tmp_path, capsys):
        self.assert_rejected(capsys, "eval", write(tmp_path, "f.gpi", ID_FILE),
                             "--word", "\u0660", where="--word: line 1, column 1: unexpected")

    @pytest.mark.parametrize("poly, where", [
        ("x1*x2 - x2*x\u0662\u0663", "column 13: unexpected character '\u0662'"),
        ("x\u0967*x2", "column 2: unexpected character '\u0967'"),
        ("x + 1", "column 1: unexpected character 'x'"),
        ("x1*x2 - x", "column 9: unexpected character 'x'"),
    ], ids=["arabic-indic", "devanagari", "bare-x", "trailing-x"])
    def test_diagnostic_names_the_digit(self, tmp_path, capsys, poly, where):
        """After an x, a digit outside ASCII is the character named; a bare
        x is named itself."""
        text = f"group: Z3\nvars: x1:0 x2:0\npoly: {poly}\n"
        self.assert_rejected(capsys, "check", write(tmp_path, "f.gpi", text),
                             where=f"line 3, {where}")

    def test_ascii_spellings_still_read(self, tmp_path, capsys):
        text = "group: Z2\ngrading: 01 00\nvars: x01:0 x2:00\npoly: x1*x1 + x1*x2\n"
        code, out, _ = run(capsys, "check", write(tmp_path, "f.gpi", text))
        assert code == 1 and json.loads(out)["witness"]["row"] == 1


# Valid problem files, mutated a character at a time by the fuzz below.
_DSL_BASES = [ID_FILE, NONID_FILE, SQUARE_FILE,
              "group: Z3\ngrading: 0 2 1\nvars: x1:1 x2:2 x3:0\n"
              "poly: 2*[x1*x3, x2] - (x1 + x3)*x2*x1\n# comment\n",
              "group: table [[0,1],[1,0]]\nvars: x1:0 x2:1\npoly: [x1,x2]\n"]
_DSL_ALPHABET = ("0123456789x*+-()[],:# \n_"
                 "\u0660\u0661\u0663\u0967\uff11\u00b2\u00a0\u2028\u2003")
_DSL_EDIT = st.tuples(st.sampled_from(("insert", "replace", "delete", "digit")),
                      st.integers(0, 200), st.sampled_from(_DSL_ALPHABET))
# "digit" writes one ASCII digit of the text in another script (Arabic-Indic,
# Devanagari or fullwidth, picked by the edit's character).
_DIGIT_ZEROS = "\u0660\u0966\uff10"


def _non_ascii_digit_line(text: str) -> bool:
    """A line that parse_text reads (not blank, not a comment, split at
    the parser's line ends) holds a digit outside ASCII."""
    return any(any(c.isdigit() and not c.isascii() for c in line)
               for line in (raw.strip() for raw in _lines(text))
               if line and not line.startswith("#"))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_DSL_BASES), st.lists(_DSL_EDIT, min_size=1, max_size=4))
def test_fuzz_problem_text(tmp_path_factory, base, edits):
    """Mutated problem files: exit 0, 1 or 2, no traceback, at most one
    `gpi:` line, and exit 2 whenever a line that is read holds a digit
    outside ASCII."""
    text = base
    for what, at, char in edits:
        if what == "digit":
            places = [i for i, c in enumerate(text) if "0" <= c <= "9"]
            if places:
                i = places[at % len(places)]
                zero = _DIGIT_ZEROS[ord(char) % len(_DIGIT_ZEROS)]
                text = text[:i] + chr(ord(zero) + int(text[i])) + text[i + 1:]
            continue
        at %= len(text) + (what == "insert")
        if what == "insert":
            text = text[:at] + char + text[at:]
        elif text:
            text = text[:at] + (char if what == "replace" else "") + text[at + 1:]
    path = tmp_path_factory.getbasetemp() / "fuzz.gpi"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", str(path)])
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert err == "" if code != 2 else (err.startswith("gpi: ") and err.count("\n") == 1)
    if _non_ascii_digit_line(text):
        assert code == 2, text


def _long_part_file(kind: int, length: int) -> str:
    """A Z3 generator whose first part (type 1) or middle part (type 2) has
    length letters, none of trivial degree; length is even for type 1 and
    2 mod 3 for type 2."""
    if kind == 1:
        degrees = " ".join(f"x{i}:{2 - i % 2}" for i in range(1, length + 1))
        part = "*".join(f"x{i}" for i in range(1, length + 1))
        return (f"group: Z3\nvars: {degrees} x{length + 1}:0\ntype: 1\n"
                f"h1: {part}\nh2: x{length + 1}\n")
    degrees = " ".join(f"x{i}:1" for i in range(1, length + 3))
    part = "*".join(f"x{i}" for i in range(2, length + 2))
    return f"group: Z3\nvars: {degrees}\ntype: 2\nh1: x1\nh2: {part}\nh3: x{length + 2}\n"


class TestZ3Reduce:
    @pytest.mark.parametrize("kind", [1, 2])
    def test_part_too_long_to_reduce(self, tmp_path, capsys, kind):
        """A part of 2,000 letters runs the recursion past Python's limit:
        exit 2 with one gpi: line, and in a corpus an error entry."""
        f = write(tmp_path, "long.gpi", _long_part_file(kind, 2000))
        refusal = "the generator's parts are too long to reduce (longest part: 2000 letters)"
        assert run(capsys, "z3reduce", f) == (2, "", f"gpi: {refusal}\n")
        manifest = write(tmp_path, "manifest.json",
                         json.dumps([{"file": "long.gpi", "expected": "reducible"}]))
        code, out, err = run(capsys, "corpus", manifest)
        assert (code, err) == (1, f"gpi: ERROR: {f} (reducible)\n")
        assert json.loads(out)["entries"] == [
            {"detail": refusal, "expected": "reducible", "file": f, "status": "error"}]

    def test_part_of_300_letters_reduces_in_a_fresh_process(self, tmp_path, capsys):
        """The recursion takes five frames per shortening step, so the
        longest part that reduces is set by Python's recursion limit (390
        letters reduce and 400 are refused on this type-1 shape at the time
        of writing).  In a process of its own, as a user runs it, a
        300-letter part reduces with exit 0 and verifies, and a 400-letter
        one is refused with exit 2 and one gpi: line: a change of the frames
        per step cannot move the limit past either unnoticed."""
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(certs.__file__)))

        def reduce_in_a_process(length: int) -> subprocess.CompletedProcess:
            f = write(tmp_path, f"long{length}.gpi", _long_part_file(1, length))
            return subprocess.run([sys.executable, "-m", "gpi.cli", "z3reduce", f], env=env,
                                  capture_output=True, text=True)

        proc = reduce_in_a_process(300)
        assert (proc.returncode, proc.stderr) == (0, "")
        cert = tmp_path / "red.json"
        cert.write_text(proc.stdout)
        assert run(capsys, "verify", str(cert)) == (
            0, '{"kind":"reduction","valid":true}\n', "")
        proc = reduce_in_a_process(400)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "gpi: the generator's parts are too long to reduce (longest part: 400 letters)\n")

    def test_reduce_and_verify(self, tmp_path, capsys):
        f = write(tmp_path, "g.gpi", GEN_FILE)
        code, out, _ = run(capsys, "z3reduce", f, "--type", "2")
        assert code == 0
        cert = tmp_path / "red.json"
        cert.write_text(out)
        code, out, _ = run(capsys, "verify", str(cert))
        assert code == 0 and json.loads(out)["valid"] is True

    def test_type_mismatch(self, tmp_path, capsys):
        f = write(tmp_path, "g.gpi", GEN_FILE)
        code, _, err = run(capsys, "z3reduce", f, "--type", "1")
        assert code == 2 and err


class TestGroupOrderLimit:
    """An order above MAX_GROUP_ORDER exits 2 before any table is built."""

    def assert_over_limit(self, code, out, err):
        assert code == 2 and out == ""
        assert err.startswith("gpi: ") and err.count("\n") == 1
        assert f"exceeds the limit {MAX_GROUP_ORDER}" in err

    def test_dsl_cyclic_order(self, tmp_path, capsys):
        f = write(tmp_path, "big.gpi", "group: Z1000000000\nvars: x1:0\npoly: x1\n")
        self.assert_over_limit(*run(capsys, "check", f))

    def test_dsl_order_too_long_to_read(self, tmp_path, capsys):
        f = write(tmp_path, "big.gpi", "group: Z" + "9" * 5000 + "\nvars: x1:0\npoly: x1\n")
        self.assert_over_limit(*run(capsys, "check", f))

    def test_enum_reduced_order(self, capsys):
        self.assert_over_limit(*run(capsys, "enum-reduced", "--order", "1000000000"))

    def test_certificate_table_rows(self, tmp_path, capsys):
        _, out, _ = run(capsys, "express", write(tmp_path, "f.gpi", ID_FILE))
        doc = json.loads(out)
        doc["group"]["table"] = [[0]] * (MAX_GROUP_ORDER + 1)
        cert = tmp_path / "big.json"
        cert.write_text(json.dumps(doc))
        self.assert_over_limit(*run(capsys, "verify", str(cert)))


class TestEnumReduced:
    def test_counts(self, capsys):
        code, out, _ = run(capsys, "enum-reduced", "--max-len", "3")
        doc = json.loads(out)
        assert code == 0 and doc["count"] == 6760

    def test_json_listing(self, capsys):
        code, out, _ = run(capsys, "enum-reduced", "--max-len", "1", "--json")
        doc = json.loads(out)
        assert code == 0 and len(doc) == 4

    @pytest.mark.parametrize("argv", [("--max-len", "5"), ("--max-len", "1000000000"),
                                      ("--order", "1", "--max-len", "1000000000"),
                                      ("--order", "1024", "--max-len", "2")])
    def test_over_the_shape_limit(self, capsys, argv):
        """Refused from the closed-form count, before any shape is built."""
        code, out, err = run(capsys, "enum-reduced", *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"gpi: more than {MAX_ENUMERATED_SHAPES} reduced shapes")
        assert err.count("\n") == 1

    def test_order_zero(self, capsys):
        """The one positive-order check, in groups.cyclic_group, words it as a
        `group: Z0` line does."""
        assert run(capsys, "enum-reduced", "--order", "0") == \
            (2, "", "gpi: cyclic group order must be positive\n")

    def test_max_len_zero(self, capsys):
        assert run(capsys, "enum-reduced", "--max-len", "0") == \
            (2, "", "gpi: part length bound must be at least 1\n")

    @pytest.mark.parametrize("max_len, size, sha256", [
        ("1", 232, "550e95aee8b71a119c6792fbc92a3094f96f51b9d9d81eaffdbf2412e2438761"),
        ("2", 15970, "66c946cf98380b875398750545b47659dd500b65bc16833964c3e141dcb83065"),
    ])
    def test_json_bytes(self, capsys, max_len, size, sha256):
        """Each generator and its vars are written as a certificate writes them."""
        code, out, _ = run(capsys, "enum-reduced", "--max-len", max_len, "--json")
        assert code == 0 and len(out) == size
        assert hashlib.sha256(out.encode()).hexdigest() == sha256


class TestCorpus:
    def test_mixed_manifest(self, tmp_path, capsys):
        write(tmp_path, "id.gpi", ID_FILE)
        write(tmp_path, "non.gpi", NONID_FILE)
        write(tmp_path, "cong.gpi", CONG_FILE)
        write(tmp_path, "gen.gpi", GEN_FILE)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([
            {"file": "id.gpi", "expected": "identity"},
            {"file": "non.gpi", "expected": "non-identity"},
            {"file": "cong.gpi", "expected": "congruent"},
            {"file": "gen.gpi", "expected": "reducible"},
        ]))
        code, out, _ = run(capsys, "corpus", str(manifest))
        doc = json.loads(out)
        assert code == 0 and doc["failures"] == 0
        # certificates are written alongside the corpus files
        for name in ("id.cert.json", "cong.cert.json", "gen.cert.json"):
            assert (tmp_path / name).exists()

    def test_monomial_marked_identity_fails(self, tmp_path, capsys):
        write(tmp_path, "mono.gpi", "group: Z3\nvars: x1:1\npoly: x1\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(
            [{"file": "mono.gpi", "expected": "identity"}]))
        code, out, _ = run(capsys, "corpus", str(manifest))
        doc = json.loads(out)
        assert code == 1 and doc["entries"][0]["status"] == "fail"
        # the witness is the one `gpi check` reports
        _, check_out, _ = run(capsys, "check", str(tmp_path / "mono.gpi"))
        assert doc["entries"][0]["detail"] == "not an identity"
        assert doc["entries"][0]["witness"] == json.loads(check_out)["witness"]

    def test_missing_file_reported_run_continues(self, tmp_path, capsys):
        write(tmp_path, "id.gpi", ID_FILE)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([
            {"file": "absent.gpi", "expected": "identity"},
            {"file": "id.gpi", "expected": "identity"},
        ]))
        code, out, _ = run(capsys, "corpus", str(manifest))
        doc = json.loads(out)
        assert code == 1
        assert doc["entries"][0]["status"] == "error"
        assert doc["entries"][1]["status"] == "pass"

    def test_empty_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text("[]")
        code, out, _ = run(capsys, "corpus", str(manifest))
        assert code == 0 and json.loads(out)["total"] == 0

    def corpus(self, capsys, tmp_path, entries):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(entries))
        code, out, err = run(capsys, "corpus", str(manifest))
        assert "Traceback" not in err
        doc = json.loads(out)
        assert len(doc["entries"]) == len(err.splitlines()) == len(entries)
        return code, doc

    def test_directory_entry_is_an_error(self, tmp_path, capsys):
        (tmp_path / "dir.gpi").mkdir()
        code, doc = self.corpus(capsys, tmp_path,
                                [{"file": "dir.gpi", "expected": "identity"}])
        assert code == 1 and doc["failures"] == 1
        assert doc["entries"][0]["status"] == "error"
        assert doc["entries"][0]["detail"].startswith("cannot read ")

    def test_directory_at_certificate_path_is_an_error(self, tmp_path, capsys):
        write(tmp_path, "cong.gpi", CONG_FILE)
        (tmp_path / "cong.cert.json").mkdir()
        code, doc = self.corpus(capsys, tmp_path,
                                [{"file": "cong.gpi", "expected": "congruent"}])
        assert code == 1 and doc["entries"][0]["status"] == "error"
        assert doc["entries"][0]["detail"].startswith("cannot write ")

    def test_bad_input_is_an_error_with_the_subcommand_message(self, tmp_path, capsys):
        # a pair without its n: line, and a generator outside Z3: `gpi
        # congruent` and `gpi z3reduce` exit 2 on them
        f = write(tmp_path, "cong.gpi", "group: Z3\nvars: x1:1 x2:2\nm: x1*x2\n")
        g = write(tmp_path, "gen.gpi", GEN1_FILE.replace("Z3", "Z2").replace(":2", ":0"))
        messages = []
        for cmd, path in (("congruent", f), ("z3reduce", g)):
            code, _, err = run(capsys, cmd, path)
            assert code == 2 and err.startswith("gpi: ")
            messages.append(err[len("gpi: "):].rstrip("\n"))
        # monomials of different multidegrees are not congruent: exit 1
        h = write(tmp_path, "apart.gpi", "group: Z3\nvars: x1:1 x2:2\nm: x1*x2\nn: x1*x1\n")
        code, out, _ = run(capsys, "congruent", h)
        assert code == 1 and json.loads(out)["congruent"] is False
        code, doc = self.corpus(capsys, tmp_path, [
            {"file": "cong.gpi", "expected": "congruent"},
            {"file": "gen.gpi", "expected": "reducible"},
            {"file": "apart.gpi", "expected": "congruent"}])
        assert code == 1
        assert [(e["status"], e["detail"]) for e in doc["entries"]] == [
            ("error", m) for m in messages] + [("fail", "not congruent")]

    @pytest.mark.parametrize("text", [MIXED_ID_FILE, "group: Z3\nvars: x1:1\npoly: 0\n"])
    def test_identity_entry_writes_a_certificate(self, tmp_path, capsys, text):
        """An identity of mixed multidegree and the zero polynomial each get
        `gpi express`'s certificate, which verifies."""
        f = write(tmp_path, "id.gpi", text)
        _, out, _ = run(capsys, "express", f)
        code, doc = self.corpus(capsys, tmp_path, [{"file": "id.gpi", "expected": "identity"}])
        cert = tmp_path / "id.cert.json"
        assert code == 0 and doc["entries"][0]["certificate"] == str(cert)
        assert cert.read_text() == out
        code, out, _ = run(capsys, "verify", str(cert))
        assert code == 0 and json.loads(out) == {"valid": True, "kind": "jcomb"}

    def test_unhashable_expectation_is_malformed(self, tmp_path, capsys):
        write(tmp_path, "id.gpi", ID_FILE)
        code, doc = self.corpus(capsys, tmp_path,
                                [{"file": "id.gpi", "expected": ["identity"]}])
        assert code == 1
        assert doc["entries"][0]["detail"] == "malformed manifest entry"

    def test_certificates_are_the_subcommand_output(self, tmp_path, capsys):
        entries = []
        for name, text, expected, cmd in (("id", ID_FILE, "identity", "express"),
                                          ("cong", CONG_FILE, "congruent", "congruent"),
                                          ("gen", GEN_FILE, "reducible", "z3reduce")):
            code, out, _ = run(capsys, cmd, write(tmp_path, f"{name}.gpi", text))
            assert code == 0
            entries.append(({"file": f"{name}.gpi", "expected": expected}, out))
        code, doc = self.corpus(capsys, tmp_path, [e for e, _ in entries])
        assert code == 0
        for (entry, out), report in zip(entries, doc["entries"]):
            cert = tmp_path / entry["file"].replace(".gpi", ".cert.json")
            assert report["certificate"] == str(cert)
            assert cert.read_text() == out
            assert run(capsys, "verify", str(cert))[0] == 0

    def test_certificate_path_collision_is_an_error(self, tmp_path, capsys):
        """Certificates are named <base>.cert.json.  A later entry whose path an
        earlier entry of the run wrote is an error naming the path, and the
        earlier certificate stays: d.gpi and d.txt, and one file listed under
        two expectations."""
        write(tmp_path, "d.gpi", CONG_FILE)
        write(tmp_path, "d.txt", ID_FILE)
        write(tmp_path, "both.gpi", ID_FILE + "m: x1*x2*x3\nn: x3*x2*x1\n")
        code, doc = self.corpus(capsys, tmp_path, [
            {"file": "d.gpi", "expected": "congruent"},
            {"file": "d.txt", "expected": "identity"},
            {"file": "both.gpi", "expected": "identity"},
            {"file": "./both.gpi", "expected": "congruent"}])
        assert code == 1 and doc["failures"] == 2
        assert [e["status"] for e in doc["entries"]] == ["pass", "error", "pass", "error"]
        for report, name, kind in ((doc["entries"][1], "d", "chain"),
                                   (doc["entries"][3], "both", "jcomb")):
            cert = tmp_path / f"{name}.cert.json"
            assert name + ".cert.json" in report["detail"] and "certificate" not in report
            assert json.loads(cert.read_text())["kind"] == kind
            assert run(capsys, "verify", str(cert))[0] == 0

    def test_certificate_is_verified_before_it_is_written(self, tmp_path, capsys,
                                                          monkeypatch):
        from gpi import cli
        write(tmp_path, "id.gpi", ID_FILE)
        monkeypatch.setattr(cli, "verify_combination", lambda comb: False)
        code, doc = self.corpus(capsys, tmp_path,
                                [{"file": "id.gpi", "expected": "identity"}])
        assert code == 1
        assert doc["entries"][0]["status"] == "fail"
        assert doc["entries"][0]["detail"] == "certificate does not verify"
        assert not (tmp_path / "id.cert.json").exists()


def test_every_stdout_is_canonical_json(tmp_path, capsys):
    """Each subcommand's stdout is its document with sorted keys, as compact
    JSON and a newline: the writers build every dict with its keys in order,
    and certs.dumps does not sort them.  The answers cover each document
    shape, variable ids whose decimal order is not their string order
    (x1, x10, x2), and a corpus report of every status."""
    ids = write(tmp_path, "ids.gpi", "group: Z3\nvars: x2:1 x10:2 x1:1\n"
                                     "poly: x2*x10*x1 - x1*x10*x2\n")
    apart = write(tmp_path, "apart.gpi", "group: Z2\nvars: x1:1 x2:1\nm: x1*x2\nn: x2*x1\n")
    chain = tmp_path / "chain.json"
    chain.write_text(run(capsys, "congruent", write(tmp_path, "cong.gpi", CONG_FILE))[1])
    broken = json.loads(chain.read_text())
    broken["payload"]["end"] = broken["payload"]["start"]
    (tmp_path / "broken.json").write_text(json.dumps(broken))
    write(tmp_path, "id.gpi", ID_FILE)
    non = write(tmp_path, "non.gpi", NONID_FILE)
    gen = write(tmp_path, "gen.gpi", GEN_FILE)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([
        {"file": "id.gpi", "expected": "identity"},
        {"file": "non.gpi", "expected": "identity"},
        {"file": "absent.gpi", "expected": "identity"},
        {"file": "non.gpi", "expected": "non-identity"},
        {"file": "gen.gpi", "expected": "reducible"},
        {"expected": "mystery"}]))
    cases = [
        (0, "check", ids), (1, "check", non),
        (0, "eval", write(tmp_path, "square.gpi", SQUARE_FILE)),
        (0, "eval", ids, "--word", "x10*x1"),
        (0, "congruent", str(tmp_path / "cong.gpi")), (1, "congruent", apart),
        (0, "express", ids), (0, "express", write(tmp_path, "mixed.gpi", MIXED_ID_FILE)),
        (1, "express", non),
        (0, "z3reduce", write(tmp_path, "gen1.gpi", GEN1_FILE)),
        (0, "z3reduce", gen),
        (0, "enum-reduced", "--max-len", "1"), (0, "enum-reduced", "--max-len", "1", "--json"),
        (0, "verify", str(chain)), (1, "verify", str(tmp_path / "broken.json")),
        (1, "corpus", str(manifest)),
    ]
    for want, *argv in cases:
        code, out, _ = run(capsys, *argv)
        assert code == want, argv
        assert out == support.canonical(json.loads(out)), argv
    report = json.loads(out)["entries"]
    assert [r["status"] for r in report] == ["pass", "fail", "error", "pass", "pass", "error"]


def test_traced_names_stay_bound(monkeypatch):
    """bench/spans.py rebinds names in gpi's modules to trace a run, and
    restore() puts each original back: every name it wraps is still bound,
    and after restore each holds the object it held before."""
    import importlib
    from pathlib import Path

    import gpi
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    try:
        spans.install(tracer, gpi)
    finally:
        originals: dict[tuple[int, str], tuple] = {}
        for owner, attr, original in tracer._patches:  # in the order they were made
            originals.setdefault((id(owner), attr), (owner, attr, original))
        tracer.restore()
    assert len(originals) > 20
    for owner, attr, original in originals.values():
        assert getattr(owner, attr) is original, attr


def test_catalogue_builder_imports_resolve(monkeypatch):
    """bench/make_catalogue.py imports the node types and the reductions
    from gpi.z3reduce and walks cert.root: both still hold, and it sizes
    two small generators as it did when this test was written."""
    import importlib
    from pathlib import Path

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    make_catalogue = importlib.import_module("make_catalogue")
    assert make_catalogue.size(1, [[1, 2, 1, 2], [0]]) == 5
    assert make_catalogue.size(2, [[2], [1, 1, 2, 2, 1], [2]]) == 15
