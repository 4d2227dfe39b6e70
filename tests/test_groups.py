import itertools
import json
from collections import Counter

import pytest
import support
from support import s3
from test_certs import documents_of_every_version
from test_cli import run

from gpi.groups import (MAX_GROUP_ORDER, FiniteGroup, GradingTuple, GroupError,
                        cyclic_group, default_grading)


class TestCyclicGroup:
    def test_trivial(self):
        assert cyclic_group(1).table == ((0,),)

    def test_z3_entry(self):
        assert cyclic_group(3).table[1][2] == 0

    def test_z2_entry(self):
        assert cyclic_group(2).table[1][1] == 0

    def test_invalid_order(self):
        with pytest.raises(GroupError):
            cyclic_group(0)

    def test_inverses(self):
        for g in (cyclic_group(5), s3(), support.relabelled(s3(), (3, 5, 0, 1, 4, 2))):
            for a in range(g.order):
                assert g.mul(a, g.inv(a)) == g.mul(g.inv(a), a) == g.identity_index


class TestTableValidation:
    def test_not_associative(self):
        with pytest.raises(GroupError):
            FiniteGroup(((0, 1), (1, 1)))

    def test_no_identity(self):
        with pytest.raises(GroupError):
            FiniteGroup(((0, 0), (0, 0)))

    def test_s3_is_a_group(self):
        g = s3()
        assert g.order == 6
        assert not g.is_abelian()


class TestPhi:
    def setup_method(self):
        self.grading = default_grading(cyclic_group(3))

    def test_identity_element_fixes_positions(self):
        for i in range(3):
            assert self.grading.phi(0, i) == i

    def test_shift_examples(self):
        # 1-based statements phi(1,1)=2 and phi(1,3)=1, here 0-based
        assert self.grading.phi(1, 0) == 1
        assert self.grading.phi(1, 2) == 0

    def test_table_lookup_oracle(self):
        # phi_g(i) is the unique j with tuple[j] = tuple[i]*g
        g3 = self.grading
        for g in range(3):
            for i in range(3):
                j = g3.phi(g, i)
                assert g3.tuple_[j] == g3.group.mul(g3.tuple_[i], g)

    def test_bijection_every_element(self):
        for grading in (default_grading(cyclic_group(4)), default_grading(s3())):
            n = grading.n
            for g in range(n):
                assert sorted(grading.phi(g, i) for i in range(n)) == list(range(n))

    def test_composition_law(self):
        # phi_a(phi_b(i)) = phi_{ba}(i), exhaustively incl. a non-abelian table
        for grading in (default_grading(cyclic_group(2)),
                        default_grading(cyclic_group(3)),
                        default_grading(cyclic_group(4)),
                        default_grading(s3())):
            n = grading.n
            for a in range(n):
                for b in range(n):
                    for i in range(n):
                        assert grading.phi(a, grading.phi(b, i)) == \
                            grading.phi(grading.group.mul(b, a), i)

    def test_separation(self):
        for grading in (default_grading(cyclic_group(3)), default_grading(s3())):
            n = grading.n
            maps = {g: tuple(grading.phi(g, i) for i in range(n)) for g in range(n)}
            assert len(set(maps.values())) == n


def test_grading_tuple_must_be_bijection():
    with pytest.raises(GroupError):
        GradingTuple(cyclic_group(3), (0, 1, 1))


def test_nondefault_grading_permutes_phi():
    g = GradingTuple(cyclic_group(3), (2, 0, 1))
    for gg in range(3):
        for i in range(3):
            assert g.tuple_[g.phi(gg, i)] == g.group.mul(g.tuple_[i], gg)


# --- Light's associativity test against the cubic check -----------------------

def _permutation_table(gens):
    """Multiplication table of the permutation group the generators span."""
    n = len(gens[0])
    elems = [tuple(range(n))]
    seen = {elems[0]}
    for p in elems:
        for g in gens:
            q = tuple(g[p[i]] for i in range(n))
            if q not in seen:
                seen.add(q)
                elems.append(q)
    idx = {p: i for i, p in enumerate(elems)}
    return [[idx[tuple(p[q[i]] for i in range(n))] for q in elems] for p in elems]


def _product_table(a, b):
    nb = len(b)
    return [[a[x // nb][y // nb] * nb + b[x % nb][y % nb]
             for y in range(len(a) * nb)] for x in range(len(a) * nb)]


def _group_tables():
    z = [[list(r) for r in cyclic_group(k).table] for k in range(1, 9)]
    return z + [
        [list(r) for r in s3().table],
        _permutation_table([(1, 2, 3, 0), (2, 1, 0, 3)]),   # D4, two generators
        _permutation_table([(1, 0, 2, 3), (1, 2, 3, 0)]),   # S4, order 24
        _product_table(z[1], z[1]),                         # Z2 x Z2
        _product_table(_product_table(z[1], z[1]), z[1]),   # Z2^3, three generators
        _product_table(z[1], z[3]),                         # Z2 x Z4
    ]


# The smallest loop that is not a group: every element is its own inverse.
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1],
         [4, 3, 1, 2, 0]]


def _cubic_associative(t):
    n = len(t)
    return all(t[t[a][b]][c] == t[a][t[b][c]]
               for a, b, c in itertools.product(range(n), repeat=3))


def _near_group(rand, table):
    """A relabelled group table with a few products changed.

    Entries equal to the identity are neither changed nor written, so the
    identity and inverse checks pass and associativity alone decides.
    """
    n = len(table)
    relabel = list(range(n))
    rand.shuffle(relabel)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[relabel[a]][relabel[b]] = relabel[table[a][b]]
    one = relabel[0]
    for _ in range(rand.choice((0, 0, 1, 1, 2, 3))):
        a, b = rand.randrange(n), rand.randrange(n)
        if one not in (a, b, out[a][b]) and n > 2:
            out[a][b] = rand.choice([x for x in range(n) if x != one])
    return out


def _outcome(check, table):
    """None when the table is accepted, else the GroupError message."""
    try:
        check(table)
    except GroupError as exc:
        return str(exc)
    return None


def _broken(rand, table):
    """A relabelled group table with an entry out of range, no identity, or
    an element without an inverse."""
    out = _near_group(rand, table)
    n = len(out)
    how = rand.choice(("range", "identity", "inverse"))
    if how == "range":
        for _ in range(rand.randint(1, 3)):
            out[rand.randrange(n)][rand.randrange(n)] = rand.choice((-1, n, n + 5))
    elif how == "identity":  # spoil its row, its column, or both
        one = next(e for e in range(n) if out[e] == list(range(n)))
        a = rand.randrange(n)
        x = rand.choice([x for x in range(n) if x != a] or [0])
        side = rand.randrange(3)
        if side != 0:
            out[one][a] = x
        if side != 1:
            out[a][one] = x
    else:
        one = next(e for e in range(n) if out[e] == list(range(n)))
        a = rand.randrange(n)
        b = out[a].index(one)
        if rand.random() < 0.5:
            out[a][b] = rand.choice([x for x in range(n) if x != one] or [one])
        else:
            out[b][a] = rand.choice([x for x in range(n) if x != one] or [one])
    return out


def test_light_test_agrees_with_cubic_check():
    """The row passes accept exactly the associative tables, and reject every
    table with the message of the entry-by-entry validator they replaced
    (support.old_group_check)."""
    rand = support.rng(401)
    # In LOOP5 x Z2 the first generator found, element 1 = (e, 1), associates
    # with everything; only a later generator exposes the loop.
    bases = _group_tables() + [LOOP5, _product_table(LOOP5, _group_tables()[1])]
    tables = bases + [_near_group(rand, rand.choice(bases)) for _ in range(300)]
    outcomes = set()
    for table in tables:
        got = _outcome(FiniteGroup, tuple(map(tuple, table)))
        assert got == _outcome(support.old_group_check, table)
        assert got in (None, "table is not associative")
        accepted = got is None
        assert accepted == _cubic_associative(table)
        outcomes.add(accepted)
    assert outcomes == {True, False}
    messages = Counter()
    for _ in range(600):
        table = _broken(rand, rand.choice(bases))
        got = _outcome(FiniteGroup, tuple(map(tuple, table)))
        assert got == _outcome(support.old_group_check, table), table
        messages[got and got.split()[0] + " " + got.split()[-1]] += 1
    assert messages["table range"] > 50
    assert messages["table identity"] > 50
    assert messages["element inverse"] > 50


def test_non_integer_entries_rejected():
    # an integral float compares equal to its int, so no equality check sees it
    with pytest.raises(GroupError, match="table entry 0.0 is not an integer"):
        FiniteGroup(((0.0,),))
    with pytest.raises(GroupError, match="table entry 1.0 is not an integer"):
        FiniteGroup(((0, 1), (1.0, 0)))
    # an entry that cannot be compared with an integer is named, not compared
    for entry, shown in (("a", "'a'"), (None, "None"), ([0], "[0]")):
        with pytest.raises(GroupError) as info:
            FiniteGroup(((0, 1), (1, entry)))
        assert str(info.value) == f"table entry {shown} is not an integer"


@pytest.mark.parametrize("group", [cyclic_group(5), s3(),
                                   support.relabelled(s3(), (3, 5, 0, 1, 4, 2))],
                         ids=["Z5", "S3", "S3-relabelled"])
def test_bool_entries_rejected(group):
    """true and false equal 1 and 0, and a sum takes them as integers, so no
    equality check sees them: each cell holding 0 or 1, written as a bool,
    is named."""
    cells = 0
    for a, row in enumerate(group.table):
        for b, v in enumerate(row):
            if v in (0, 1):
                table = [list(r) for r in group.table]
                table[a][b] = bool(v)
                with pytest.raises(GroupError) as info:
                    FiniteGroup(tuple(map(tuple, table)))
                assert str(info.value) == f"table entry {bool(v)} is not an integer"
                cells += 1
    assert cells == 2 * group.order
    with pytest.raises(GroupError, match="table entry False is not an integer"):
        FiniteGroup(((False,),))


def test_cyclic_table_is_addition_mod_n():
    for n in range(1, 129):
        assert cyclic_group(n).table == tuple(tuple((a + b) % n for b in range(n))
                                              for a in range(n))


def test_order_limit_checked_before_the_table():
    # Z_(10^9) would be 10^18 entries: the limit must refuse it before building
    with pytest.raises(GroupError, match=f"exceeds the limit {MAX_GROUP_ORDER}"):
        cyclic_group(10 ** 9)
    with pytest.raises(GroupError, match="exceeds the limit"):
        FiniteGroup(((0,),) * (MAX_GROUP_ORDER + 1))
    assert cyclic_group(MAX_GROUP_ORDER).order == MAX_GROUP_ORDER


def test_cyclic_group_is_the_checked_group():
    """cyclic_group builds Z_n from its definition, without the table checks;
    this is the proof that it builds what the checks would accept, field for
    field."""
    for n in (*range(1, 129), MAX_GROUP_ORDER):
        g = cyclic_group(n)
        checked = FiniteGroup(g.table, g.names)
        assert g.table == checked.table
        assert g.names == checked.names == tuple(map(str, range(n)))
        assert g.identity_index == checked.identity_index == 0
        assert g.inverses == checked.inverses
        assert vars(g) == vars(checked)
        assert g == checked and hash(g) == hash(checked)


# --- tables read from input keep every check --------------------------------------

def _swapped_z5(a, b, c, d):
    """Z5's table with the entries at (a, b) and (c, d) swapped."""
    table = [list(row) for row in cyclic_group(5).table]
    table[a][b], table[c][d] = table[c][d], table[a][b]
    return table


def test_every_swap_of_z5_is_refused():
    cells = list(itertools.product(range(5), repeat=2))
    refused = 0
    for (a, b), (c, d) in itertools.combinations(cells, 2):
        table = _swapped_z5(a, b, c, d)
        if table[a][b] != table[c][d]:
            with pytest.raises(GroupError):
                FiniteGroup(tuple(map(tuple, table)))
            refused += 1
    assert refused == 250


SWAPPED = _swapped_z5(1, 2, 1, 3)


def assert_refused(run_result, message):
    """Exit 2, nothing on stdout, and exactly one gpi: line."""
    assert run_result == (2, "", f"gpi: {message}\n")


def test_swapped_z5_refused_by_gpi_verify(tmp_path, capsys):
    source = tmp_path / "z5.gpi"
    source.write_text("group: Z5\nvars: x1:0 x2:0\npoly: x1*x2 - x2*x1\n")
    code, out, _ = run(capsys, "express", str(source))
    doc = json.loads(out)
    assert code == 0 and doc["group"]["table"] == [list(r) for r in cyclic_group(5).table]
    cert = tmp_path / "z5.json"
    cert.write_text(out)
    assert run(capsys, "verify", str(cert))[0] == 0
    doc["group"]["table"] = SWAPPED
    cert.write_text(json.dumps(doc))
    assert_refused(run(capsys, "verify", str(cert)), f"{cert}: table is not associative")


# --- group: table lines that are not a group exit 2 with one line -------------------

@pytest.mark.parametrize("table, message", [
    pytest.param(json.dumps(SWAPPED), "table is not associative", id="swapped-z5"),
    pytest.param("[" * 200_000 + "]" * 200_000, "JSON nested too deeply", id="nested"),
    pytest.param("[[" + "9" * 5000 + "]]", "an integer has more digits than can be read",
                 id="digits"),
    pytest.param('[[0, 1], [1, "a"]]', "table entry 'a' is not an integer", id="string"),
    pytest.param("[[0, 1], [1, null]]", "table entry None is not an integer", id="null"),
    pytest.param("[[0, 1], [1, [0]]]", "table entry [0] is not an integer", id="list"),
    pytest.param("[[0, 1], [1, 0.5]]", "table entry 0.5 is not an integer", id="float"),
    pytest.param("[[0, 1], [1, 5.5]]", "table entry 5.5 is not an integer", id="float-above"),
    # Z2 with its entry 1 written as true
    pytest.param("[[0, true], [true, 0]]", "table entry True is not an integer", id="bool"),
    # the entry is named in a few characters however deep it is
    pytest.param("[[" + "[" * 200 + "]" * 200 + "]]",
                 "table entry [[[[[[[...]]]]]]] is not an integer", id="nested-entry"),
])
def test_refused_table_line(tmp_path, capsys, table, message):
    path = tmp_path / "table.gpi"
    path.write_text(f"vars: x1:0\ngroup: table {table}\npoly: x1\n")
    assert_refused(run(capsys, "check", str(path)),
                   f"{path}: line 2, column 1: bad group table: {message}")


@pytest.mark.parametrize("entry", ["a", None, [0], 1.0, 0.5])
def test_certificate_table_entries_keep_their_message(tmp_path, capsys, entry):
    """A certificate's table entries are read as strict integers before
    FiniteGroup sees them, so every document version names them as before."""
    for (kind, version), doc in documents_of_every_version().items():
        doc["group"]["table"][1][1] = entry
        cert = tmp_path / f"{kind}-v{version}.json"
        cert.write_text(json.dumps(doc))
        assert_refused(run(capsys, "verify", str(cert)),
                       f"{cert}: expected an integer, got {entry!r}")
