import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvspaces import ParseError
from tvspaces.textio import (
    parse_workspace,
    print_workspace,
    resolve_class,
    tokenize,
)

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
        assert err.value.line == 6
        assert err.value.column is not None

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
