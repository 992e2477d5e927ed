import os

import pytest

from tvspaces import ParseError
from tvspaces.textio import parse_workspace, print_workspace, resolve_class

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
