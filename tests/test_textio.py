import os
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tvspaces import ParseError
from tvspaces.errors import StructuralError, UnsupportedOperationError
from tvspaces.monad import monad_by_name
from tvspaces.quantale import (
    bool2,
    cost_max,
    cost_plus,
    finite_table,
    lukasiewicz_grid,
)
from tvspaces.quasi import QuasiSpace
from tvspaces.space import Space
from tvspaces.textio import (
    Token,
    Workspace,
    parse_workspace,
    print_workspace,
    resolve_class,
    tokenize,
)
from tvspaces.vrel import Carrier, MapArrow, VRel

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_text(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as handle:
        return handle.read()


class TestRoundTrip:
    def test_print_parse_print_stable(self):
        ws = parse_workspace(fixture_text("workspace.txt"))
        printed = print_workspace(ws)
        reparsed = parse_workspace(printed)
        assert print_workspace(reparsed) == printed

    def test_objects_survive(self):
        ws = parse_workspace(fixture_text("workspace.txt"))
        reparsed = parse_workspace(print_workspace(ws))
        for name, space in ws.spaces.items():
            assert reparsed.spaces[name] == space
        for name, arrow in ws.maps.items():
            assert reparsed.maps[name] == arrow
        for name, quasi in ws.quasis.items():
            assert reparsed.quasis[name].admissible == quasi.admissible
        for name, q in ws.quantales.items():
            assert reparsed.quantales[name].cache_key() == q.cache_key()

    def test_ultrafilter_space_round_trips(self):
        ws = parse_workspace(fixture_text("workspace.txt"))
        space = ws.space("UDisc2")
        assert space.monad.name == "ultrafilter-finite"
        assert space.structure.dom == space.carrier
        assert tuple(map(space.monad.row_label, space.carrier.labels)) == (
            "U(m)", "U(n)")


class TestParseErrors:
    def test_malformed_rational_has_position(self):
        with pytest.raises(ParseError) as err:
            parse_workspace(fixture_text("parse_error.txt"))
        assert (err.value.line, err.value.column) == (6, 10)
        assert str(err.value) == "line 6, column 10: malformed rational '3/'"

    def test_missing_brace(self):
        with pytest.raises(ParseError):
            parse_workspace("quantale B { kind bool2")

    def test_unknown_block_kind(self):
        with pytest.raises(ParseError):
            parse_workspace("widget W { }")

    def test_unknown_reference(self):
        with pytest.raises(ParseError):
            parse_workspace(
                "space X { quantale Missing; monad identity; carrier a; "
                "matrix 1 }")

    def test_wrong_matrix_arity(self):
        with pytest.raises(ParseError):
            parse_workspace(
                "quantale B { kind bool2 }\n"
                "space X { quantale B; monad identity; carrier a b; "
                "matrix 1 0 0 }")

    def test_comments_and_semicolons(self):
        ws = parse_workspace(
            "# heading\nquantale B { kind bool2 } # trailing\n"
            "space X { quantale B; monad identity; carrier a; matrix 1 }\n")
        assert "X" in ws.spaces


class TestResolveClass:
    def test_compact_hausdorff_spec(self):
        ws = parse_workspace(fixture_text("workspace.txt"))
        space = ws.space("Disc3")
        cls = resolve_class("compact-hausdorff-upto:2", space.quantale,
                            space.monad, ws)
        assert len(cls.objects) == 2

    def test_explicit_spec(self):
        ws = parse_workspace(fixture_text("workspace.txt"))
        space = ws.space("Disc3")
        cls = resolve_class("explicit:Disc3", space.quantale, space.monad,
                            ws)
        assert len(cls.objects) == 1

    def test_sierpinski_with_grid(self):
        ws = parse_workspace(fixture_text("workspace.txt"))
        space = ws.space("Met3")
        cls = resolve_class("sierpinski", space.quantale, space.monad, ws,
                            grid=["0", "1", "2", "inf"])
        assert len(cls.objects[0].carrier) == 4


def test_every_parseable_fixture_round_trips():
    for name in sorted(os.listdir(FIXTURES)):
        if not name.endswith(".txt") or name == "parse_error.txt":
            continue
        ws = parse_workspace(fixture_text(name))
        printed = print_workspace(ws)
        assert print_workspace(parse_workspace(printed)) == printed


def reference_tokenize(text):
    """The character loop the regex tokenizer replaced, kept as its oracle."""
    tokens = []
    line, col = 1, 1
    i = 0
    current = ""
    start = (1, 1)

    def flush():
        nonlocal current
        if current:
            tokens.append((current, *start))
            current = ""

    while i < len(text):
        ch = text[i]
        if ch == "#":
            flush()
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            flush()
            tokens.append(("\n", line, col))
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            flush()
            col += 1
            i += 1
            continue
        if ch in "{};":
            flush()
            tokens.append((ch, line, col))
            col += 1
            i += 1
            continue
        if not current:
            start = (line, col)
        current += ch
        col += 1
        i += 1
    flush()
    return tokens


def positions(text):
    return [(tok.text, tok.line, tok.column) for tok in tokenize(text)]


@settings(max_examples=600, deadline=None)
@given(st.text(alphabet=st.sampled_from("ab1/-> \t\r\n\x0b\x0c{};#\xe9\u221e")
               | st.characters(), max_size=60))
def test_tokenizer_matches_the_character_loop(text):
    assert positions(text) == reference_tokenize(text)


def test_tokenizer_matches_the_character_loop_on_the_fixtures():
    for root, _, names in os.walk(FIXTURES):
        for name in names:
            if name.endswith(".txt") and name != "not_utf8.txt":
                with open(os.path.join(root, name), encoding="utf-8") as fh:
                    text = fh.read()
                assert positions(text) == reference_tokenize(text), name


def test_newline_after_a_comment_reports_the_comment_column():
    assert positions("ab # note\nc") == [("ab", 1, 1), ("\n", 1, 4),
                                           ("c", 2, 1)]


class TestBlockHeader:
    QUASI = ("quantale B {{ kind bool2 }}\n"
             "quasi Q {{\n  quantale {q}\n  monad {m}\n  carrier x\n"
             "  class {c}\n}}\n")
    SPACE = ("quantale B {{ kind bool2 }}\n"
             "space X {{\n  quantale {q}\n  monad {m}\n  carrier x\n"
             "  matrix 1\n}}\n")

    @pytest.mark.parametrize("block", [SPACE, QUASI], ids=["space", "quasi"])
    @pytest.mark.parametrize("field, line", [("quantale", 3), ("monad", 4)])
    def test_field_without_a_value(self, block, field, line):
        values = {"q": "B", "m": "identity", "c": "compact-hausdorff-upto:1"}
        values[field[0]] = ""
        with pytest.raises(ParseError) as err:
            parse_workspace(block.format(**values))
        assert (err.value.line, err.value.column) == (line, 3)
        assert f"field {field!r} needs a value" in str(err.value)

    def test_class_without_a_value(self):
        with pytest.raises(ParseError) as err:
            parse_workspace(self.QUASI.format(q="B", m="identity", c=""))
        assert (err.value.line, err.value.column) == (6, 3)

    @pytest.mark.parametrize("block", [SPACE, QUASI], ids=["space", "quasi"])
    def test_unknown_monad_is_positioned_in_both_blocks(self, block):
        with pytest.raises(ParseError) as err:
            parse_workspace(block.format(q="B", m="filter",
                                         c="compact-hausdorff-upto:1"))
        assert (err.value.line, err.value.column) == (4, 9)
        assert "unknown monad 'filter'" in str(err.value)


# -- the token-walking parser, kept as the oracle of parse_workspace ----------


def _ref_error(message, tok):
    return ParseError(message, tok.line, tok.column)


def _ref_statements(tokens, pos):
    statements = []
    current = []
    while pos < len(tokens):
        tok = tokens[pos]
        if tok.text == "}":
            if current:
                statements.append(current)
            return statements, pos + 1
        if tok.text in (";", "\n"):
            if current:
                statements.append(current)
                current = []
            pos += 1
            continue
        if tok.text == "{":
            raise _ref_error("unexpected '{'", tok)
        current.append(tok)
        pos += 1
    last = tokens[-1] if tokens else Token("", 1, 1)
    raise _ref_error("missing closing '}'", last)


def _ref_fields(statements):
    out = {}
    for stmt in statements:
        out.setdefault(stmt[0].text, []).append(stmt)
    return out


def _ref_single(fields, key, block_tok):
    if key not in fields:
        raise _ref_error(f"missing field {key!r}", block_tok)
    if len(fields[key]) > 1:
        dup = fields[key][1][0]
        raise _ref_error(f"duplicate field {key!r}", dup)
    return fields[key][0]


def _ref_square(fields, key, block_tok, n, entry):
    stmt = _ref_single(fields, key, block_tok)
    if len(stmt) != n * n + 1:
        raise _ref_error(f"{key} needs {n * n} entries", stmt[0])
    return [[entry(stmt[1 + i * n + j]) for j in range(n)] for i in range(n)]


def _ref_value(fields, key, block_tok):
    stmt = _ref_single(fields, key, block_tok)
    if len(stmt) < 2:
        raise _ref_error(f"field {key!r} needs a value", stmt[0])
    return stmt[1]


def _ref_header(fields, block_tok, ws):
    q_tok = _ref_value(fields, "quantale", block_tok)
    if q_tok.text not in ws.quantales:
        raise _ref_error(f"unknown quantale {q_tok.text!r}", q_tok)
    m_tok = _ref_value(fields, "monad", block_tok)
    try:
        monad = monad_by_name(m_tok.text)
    except UnsupportedOperationError:
        raise _ref_error(f"unknown monad {m_tok.text!r}", m_tok) from None
    carrier_stmt = _ref_single(fields, "carrier", block_tok)
    carrier = Carrier(t.text for t in carrier_stmt[1:])
    return q_tok.text, ws.quantales[q_tok.text], monad, carrier


def _ref_parse_quantale(statements, block_tok):
    fields = _ref_fields(statements)
    kind_stmt = _ref_single(fields, "kind", block_tok)
    kind = kind_stmt[1].text if len(kind_stmt) > 1 else ""
    if kind == "bool2":
        return bool2()
    if kind == "cost-plus":
        return cost_plus()
    if kind == "cost-max":
        return cost_max()
    if kind == "lukasiewicz-grid":
        if len(kind_stmt) < 3:
            raise _ref_error("lukasiewicz-grid needs a resolution",
                             kind_stmt[0])
        try:
            n = int(kind_stmt[2].text)
        except ValueError:
            raise _ref_error(f"bad grid resolution {kind_stmt[2].text!r}",
                             kind_stmt[2]) from None
        return lukasiewicz_grid(n)
    if kind != "finite-table":
        raise _ref_error(f"unknown quantale kind {kind!r}", kind_stmt[0])
    carrier_stmt = _ref_single(fields, "carrier", block_tok)
    labels = [t.text for t in carrier_stmt[1:]]
    n = len(labels)
    unit_stmt = _ref_single(fields, "unit", block_tok)
    if len(unit_stmt) != 2 or unit_stmt[1].text not in labels:
        raise _ref_error("unit must name one carrier element", unit_stmt[0])

    def bit(tok):
        if tok.text not in ("0", "1"):
            raise _ref_error(f"order entries are 0 or 1, got {tok.text!r}",
                             tok)
        return int(tok.text)

    def label_index(tok):
        if tok.text not in labels:
            raise _ref_error(f"tensor entry {tok.text!r} not in carrier", tok)
        return labels.index(tok.text)

    leq = _ref_square(fields, "order", block_tok, n, bit)
    tens = _ref_square(fields, "tensor", block_tok, n, label_index)
    return finite_table(labels, leq, tens, labels.index(unit_stmt[1].text))


def _ref_parse_value(quantale, token):
    try:
        return quantale.parse_value(token.text)
    except StructuralError as exc:
        raise _ref_error(str(exc), token) from None


def _ref_parse_space(statements, block_tok, ws):
    fields = _ref_fields(statements)
    q_name, quantale, monad, carrier = _ref_header(fields, block_tok, ws)
    entries = _ref_square(fields, "matrix", block_tok, len(carrier),
                          lambda tok: _ref_parse_value(quantale, tok))
    structure = VRel(carrier, carrier, quantale, entries)
    return Space(carrier, monad, quantale, structure), q_name


def _ref_parse_map(statements, block_tok):
    fields = _ref_fields(statements)
    dom_stmt = _ref_single(fields, "dom", block_tok)
    cod_stmt = _ref_single(fields, "cod", block_tok)
    dom = Carrier(t.text for t in dom_stmt[1:])
    cod = Carrier(t.text for t in cod_stmt[1:])
    table = {}
    for stmt in statements:
        if stmt[0].text in ("dom", "cod"):
            continue
        for tok in stmt:
            if "->" not in tok.text:
                raise _ref_error(
                    f"expected x->y assignment, got {tok.text!r}", tok)
            left, right = tok.text.split("->", 1)
            if left not in dom or right not in cod:
                raise _ref_error(
                    f"assignment {tok.text!r} uses foreign labels", tok)
            if left in table:
                raise _ref_error(f"label {left!r} assigned twice", tok)
            table[left] = right
    try:
        return MapArrow(dom, cod, table)
    except StructuralError as exc:
        raise _ref_error(str(exc), block_tok) from None


def _ref_parse_quasi(statements, block_tok, ws):
    fields = _ref_fields(statements)
    q_name, quantale, monad, carrier = _ref_header(fields, block_tok, ws)
    class_spec = _ref_value(fields, "class", block_tok).text
    cls = resolve_class(class_spec, quantale, monad, ws)
    sets = [set() for _ in cls.objects]
    for stmt in fields.get("admissible", []):
        if len(stmt) < 2:
            raise _ref_error("admissible needs an object index", stmt[0])
        try:
            idx = int(stmt[1].text)
        except ValueError:
            raise _ref_error(f"bad object index {stmt[1].text!r}",
                             stmt[1]) from None
        if not 0 <= idx < len(cls.objects):
            raise _ref_error(f"object index {idx} out of range", stmt[1])
        graph = tuple(t.text for t in stmt[2:])
        if len(graph) != len(cls.objects[idx].carrier):
            raise _ref_error("admissible graph has the wrong arity", stmt[0])
        for tok in stmt[2:]:
            if tok.text not in carrier:
                raise _ref_error(f"label {tok.text!r} not in carrier", tok)
        sets[idx].add(graph)
    quasi = QuasiSpace(carrier, cls, sets, check_class=False)
    return quasi, q_name, class_spec


_REF_PARSERS = {
    "quantale": lambda statements, tok, ws: (
        _ref_parse_quantale(statements, tok),),
    "space": _ref_parse_space,
    "map": lambda statements, tok, ws: (_ref_parse_map(statements, tok),),
    "quasi": _ref_parse_quasi,
}


def reference_parse_workspace(text, ws=None):
    """The parser that walked ``tokenize``'s token list one token at a time."""
    ws = ws or Workspace()
    tokens = tokenize(text)
    pos = 0
    while pos < len(tokens):
        tok = tokens[pos]
        if tok.text == "\n":
            pos += 1
            continue
        kind = tok.text
        if kind not in _REF_PARSERS:
            raise _ref_error(f"unknown block kind {kind!r}", tok)
        if pos + 1 >= len(tokens):
            raise _ref_error("missing block name", tok)
        name_tok = tokens[pos + 1]
        if name_tok.text in ("{", "}", ";", "\n"):
            raise _ref_error("missing block name", name_tok)
        pos += 2
        while pos < len(tokens) and tokens[pos].text == "\n":
            pos += 1
        if pos >= len(tokens) or tokens[pos].text != "{":
            raise _ref_error("expected '{'", name_tok)
        statements, pos = _ref_statements(tokens, pos + 1)
        parsed = _REF_PARSERS[kind](statements, tok, ws)
        ws.add(kind, name_tok.text, *parsed)
    return ws


# -- parse_workspace against the reference -------------------------------------


def outcome(parse, text):
    """The printed workspace, or the exception's type, message and position."""
    try:
        ws = parse(text)
    except Exception as exc:
        return (type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))
    return print_workspace(ws)


def assert_parsers_agree(text):
    assert outcome(parse_workspace, text) == outcome(
        reference_parse_workspace, text)


def fixture_texts():
    texts = []
    for root, _, names in os.walk(FIXTURES):
        for name in sorted(names):
            if name.endswith(".txt") and name != "not_utf8.txt":
                with open(os.path.join(root, name), encoding="utf-8") as fh:
                    texts.append(fh.read())
    return texts


FIXTURE_TEXTS = fixture_texts()
# pieces a mutation inserts: delimiters, blanks that are and are not blanks
# of the format, and words that change what a statement or block means
FRAGMENTS = ("{", "}", ";", "\n", "#", " ", "\t", "\r", "\x0b", "\x0c",
             "\xa0", "x", "a", "0", "1", "3/", "1/2", "->", "inf", "-1",
             "space", "quantale", "map", "quasi", "matrix", "carrier", "kind",
             "unit", "admissible", "dom", "# c\n")


def affordable(text):
    """No probe class above 3 points and no number of 3 digits or more."""
    return not (re.search(r"upto:0*([4-9]|[1-9][0-9])", text)
                or re.search(r"[0-9]{3}", text))


@st.composite
def mutated(draw, texts):
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 8)))
        edit = draw(st.sampled_from(("insert", "delete", "repeat")))
        if edit == "insert":
            text = text[:i] + draw(st.sampled_from(FRAGMENTS)) + text[i:]
        elif edit == "delete":
            text = text[:i] + text[j:]
        else:
            text = text[:j] + text[i:j] + text[j:]
    assume(affordable(text))
    return text


LABELS = ("a", "b", "c", "x", "y", "p0", "caf\xe9", "m\x0bn", "s\xa0t")
SEPARATORS = ("\n  ", " ; ", ";", "\n\t", "\r\n ", " # note\n  ", "\n\n  ")
COST_TOKENS = ("0", "1", "2", "1/2", "3/4", "inf", "2/4", "007")
QUANTALE_KINDS = {
    "bool2": (["kind bool2"], ("0", "1")),
    "cost-plus": (["kind cost-plus"], COST_TOKENS),
    "cost-max": (["kind cost-max"], COST_TOKENS),
    "luk3": (["kind lukasiewicz-grid 3"],
             tuple(str(Fraction(i, 3)) for i in range(4))),
    "chain3": (["kind finite-table", "carrier lo mid hi", "unit hi",
                "order " + " ".join("1" if i <= j else "0"
                                    for i in range(3) for j in range(3)),
                "tensor " + " ".join(("lo", "mid", "hi")[min(i, j)]
                                     for i in range(3) for j in range(3))],
               ("lo", "mid", "hi")),
}


@st.composite
def workspaces(draw):
    """Workspace text in a drawn layout, every block of it well formed."""
    sep = lambda: draw(st.sampled_from(SEPARATORS))
    carrier = lambda least=0: draw(st.lists(
        st.sampled_from(LABELS), unique=True, min_size=least, max_size=3))
    blocks, quantales = [], []
    # each quasi block resolves a compact Hausdorff class over bool2; the
    # arity of its objects up to 2 points is 1, then 2
    arities = {1: (1,), 2: (1, 2)}
    for k in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("quantale", "space", "map", "quasi")))
        if kind == "quantale" or not quantales:
            name = f"Q{k}"
            qkind = draw(st.sampled_from(sorted(QUANTALE_KINDS)))
            quantales.append((name, qkind))
            kind, stmts = "quantale", QUANTALE_KINDS[qkind][0]
        elif kind == "map":
            name, dom, cod = f"F{k}", carrier(), carrier(1)
            stmts = ["dom " + " ".join(dom), "cod " + " ".join(cod)]
            stmts += [f"{x}->{draw(st.sampled_from(cod))}" for x in dom]
        else:
            qname, qkind = draw(st.sampled_from(quantales))
            points = carrier(1)
            monad = draw(st.sampled_from(("identity", "ultrafilter-finite")))
            stmts = [f"quantale {qname}", f"monad {monad}",
                     "carrier " + " ".join(points)]
            if kind == "space" or qkind != "bool2":
                kind, name = "space", f"S{k}"
                tokens = QUANTALE_KINDS[qkind][1]
                stmts.append("matrix " + " ".join(
                    draw(st.sampled_from(tokens)) for _ in points
                    for _ in points))
            else:
                name, size = f"Z{k}", draw(st.integers(1, 2))
                stmts.append(f"class compact-hausdorff-upto:{size}")
                for i, arity in enumerate(arities[size]):
                    graphs = draw(st.lists(st.tuples(*[
                        st.sampled_from(points)] * arity), max_size=3))
                    stmts += [f"admissible {i} " + " ".join(g)
                              for g in graphs]
        opening = draw(st.sampled_from((" {", "\n{", " {\n", "\n\n{ ")))
        body = sep().join(stmts)
        blocks.append(f"{kind} {name}{opening}{sep()}{body}{sep()}}}")
    return "".join(b + draw(st.sampled_from(("\n", " ", "\n# end\n", "")))
                   for b in blocks)


@settings(max_examples=300, deadline=None)
@given(mutated(FIXTURE_TEXTS))
def test_parser_matches_the_reference_on_mutated_fixtures(text):
    assert_parsers_agree(text)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_parser_matches_the_reference_on_generated_workspaces(data):
    text = data.draw(workspaces())
    assert_parsers_agree(text)
    assert_parsers_agree(data.draw(mutated([text])))


def same_objects(ws, other):
    assert ws.order == other.order and ws.references == other.references
    for name, q in ws.quantales.items():
        assert other.quantales[name].cache_key() == q.cache_key()
    for name, space in ws.spaces.items():
        twin = other.spaces[name]
        assert twin.quantale.cache_key() == space.quantale.cache_key()
        assert (twin.carrier, twin.monad) == (space.carrier, space.monad)
        assert twin.structure.rows == space.structure.rows
    assert other.maps == ws.maps
    for name, quasi in ws.quasis.items():
        twin = other.quasis[name]
        assert twin.carrier == quasi.carrier
        assert twin.admissible == quasi.admissible


@settings(max_examples=150, deadline=None)
@given(workspaces())
def test_parse_of_print_is_the_workspace(text):
    ws = parse_workspace(text)
    printed = print_workspace(ws)
    reparsed = parse_workspace(printed)
    same_objects(ws, reparsed)
    assert print_workspace(reparsed) == printed


@pytest.mark.parametrize("blank", ["\x0b", "\x0c", "\xa0"])
def test_blanks_outside_the_format_stay_inside_words(blank):
    text = ("quantale B { kind bool2 }\n"
            f"space X {{ quantale B; monad identity; carrier a{blank}b; "
            "matrix 1 }\n")
    assert parse_workspace(text).space("X").carrier.labels == (f"a{blank}b",)
    assert_parsers_agree(text)
    # a word that str.split would cut in two stays one wrong entry
    bad = text.replace("matrix 1", f"matrix 1{blank}0")
    with pytest.raises(ParseError, match=f"malformed|not an element"):
        parse_workspace(bad)
    assert_parsers_agree(bad)


@pytest.mark.parametrize("text, message, line, column", [
    # the block name would be the newline that ends the comment
    ("quantale # note\nB { kind bool2 }", "missing block name", 1, 10),
    # a file that ends inside a block reports its last token
    ("quantale B { kind bool2", "missing closing '}'", 1, 19),
    ("quantale B { kind bool2\n", "missing closing '}'", 1, 24),
    ("quantale B { kind bool2 # open\n", "missing closing '}'", 1, 25),
    ("quantale B {", "missing closing '}'", 1, 12),
    # a block kind that ends the file has no name after it
    ("quantale B { kind bool2 }\nspace", "missing block name", 2, 1),
    # a bad entry that repeats is reported where it first appears
    ("quantale P { kind cost-plus }\nspace X { quantale P; monad identity;"
     " carrier a b; matrix 0 x 0 x }", "malformed rational 'x'", 2, 61),
])
def test_error_positions_come_from_the_tokenizer(text, message, line,
                                                 column):
    with pytest.raises(ParseError) as err:
        parse_workspace(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value) == f"line {line}, column {column}: {message}"
    assert_parsers_agree(text)
