import contextlib
import io
import json
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvspaces import TvsError
from tvspaces.cli import OPERATIONS, PREDICATES, main
from tvspaces.textio import parse_workspace, print_workspace

HERE = os.path.dirname(__file__)
FIXTURES = os.path.join(HERE, "fixtures")
GOLDEN = os.path.join(FIXTURES, "golden")

with open(os.path.join(GOLDEN, "manifest.json"), encoding="utf-8") as fh:
    MANIFEST = json.load(fh)


def run(argv):
    out = io.StringIO()
    resolved = [FIXTURES + a[len("tests/fixtures"):]
                if a.startswith("tests/fixtures") else a for a in argv]
    code = main(resolved, out)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_golden(name):
    case = MANIFEST[name]
    code, text = run(case["argv"])
    assert code == case["exit"]
    with open(os.path.join(GOLDEN, name + ".out"), encoding="utf-8") as fh:
        assert text == fh.read()


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_deterministic(name):
    case = MANIFEST[name]
    assert run(case["argv"]) == run(case["argv"])


def test_parse_error_exit_code_and_position():
    code, text = run(["validate",
                      os.path.join(FIXTURES, "parse_error.txt")])
    assert code == 2
    assert "line 6" in text


def test_check_on_invalid_space_is_a_structural_error():
    code, text = run(["check", "compact", "NoLoop", "--in",
                      os.path.join(FIXTURES, "broken_space.txt")])
    assert code == 2
    assert "not valid" in text


def test_unknown_name_is_a_structural_error():
    code, text = run(["check", "compact", "Nope", "--in",
                      os.path.join(FIXTURES, "workspace.txt")])
    assert code == 2


def test_malformed_class_size_is_a_structural_error():
    code, text = run(["check", "c-generated", "Chain2", "--in",
                      os.path.join(FIXTURES, "workspace.txt"),
                      "--class", "compact-hausdorff-upto:x"])
    assert code == 2
    assert text == ("error: class specifier 'compact-hausdorff-upto:x' "
                    "needs an integer size\n")


def test_class_size_above_ten_points_is_a_structural_error():
    code, text = run(["check", "c-generated", "Chain2", "--in",
                      os.path.join(FIXTURES, "workspace.txt"),
                      "--class", "compact-hausdorff-upto:11"])
    assert code == 2
    assert text == ("error: compact Hausdorff spaces are enumerated on at "
                    "most 10 points, not 11\n")


def test_compute_precondition_failure_exits_one(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text(
        "quantale P { kind cost-plus }\n"
        "space NotExpo {\n"
        "  quantale P\n  monad identity\n  carrier a b c\n"
        "  matrix 0 1 3 inf 0 2 inf inf 0\n}\n",
        encoding="utf-8")
    code, text = run(["compute", "exponential", "NotExpo", "NotExpo",
                      "--in", str(bad)])
    assert code == 1
    assert "precondition" in text


@pytest.mark.parametrize("spec, message", [
    ("explicit:", "a probe class needs at least one object"),
    ("explicit:Empty", "a probe class needs a nonempty generating space"),
])
def test_check_precondition_failure_exits_one(spec, message):
    workspace = os.path.join(FIXTURES, "workspace.txt")
    for argv in (["check", "c-generated", "Chain2"],
                 ["compute", "coreflect", "Chain2"]):
        code, text = run(argv + ["--in", workspace, "--class", spec])
        assert code == 1
        assert text == f"precondition failed: {message}\n"


def test_compute_writes_output_file(tmp_path):
    out_file = tmp_path / "result.txt"
    code, text = run(["compute", "coreflect", "Chain2", "--in",
                      os.path.join(FIXTURES, "workspace.txt"),
                      "--class", "compact-hausdorff-upto:2",
                      "--name", "Core", "--out", str(out_file)])
    assert code == 0
    content = out_file.read_text(encoding="utf-8")
    assert "matrix 1 0 0 1" in content
    from tvspaces.textio import parse_workspace

    ws = parse_workspace("quantale B { kind bool2 }\n" + content)
    assert "Core" in ws.spaces


def test_output_round_trips_through_the_parser():
    code, text = run(["compute", "exponential", "Chain2", "Chain2", "--in",
                      os.path.join(FIXTURES, "workspace.txt"),
                      "--name", "Exp"])
    assert code == 0
    from tvspaces.textio import parse_workspace, print_workspace

    ws = parse_workspace("quantale B { kind bool2 }\n" + text)
    assert print_workspace(ws).endswith(text)


def test_suite_fast_passes():
    code, text = run(["suite", "--level", "fast"])
    assert code == 0
    lines = [line for line in text.splitlines() if line]
    assert len(lines) == 12
    assert all(line.startswith("PASS") for line in lines)


def test_grid_quantale_space_through_the_cli(tmp_path):
    path = tmp_path / "fuzzy.txt"
    path.write_text(
        "quantale L { kind lukasiewicz-grid 4 }\n"
        "space Fuzzy2 {\n"
        "  quantale L\n  monad identity\n  carrier a b\n"
        "  matrix 1 3/4 3/4 1\n}\n",
        encoding="utf-8")
    code, text = run(["validate", str(path)])
    assert code == 0
    code, text = run(["check", "exponentiable", "Fuzzy2", "--in", str(path)])
    assert code == 0 and text.strip() == "true"
    code, text = run(["compute", "exponential", "Fuzzy2", "Fuzzy2", "--in",
                      str(path), "--name", "Pow"])
    assert code == 0
    from tvspaces.textio import parse_workspace

    ws = parse_workspace("quantale L { kind lukasiewicz-grid 4 }\n" + text)
    assert "Pow" in ws.spaces


def test_ultrafilter_space_checks_through_the_cli(tmp_path):
    path = tmp_path / "topo.txt"
    path.write_text(
        "quantale B { kind bool2 }\n"
        "space T {\n"
        "  quantale B\n  monad ultrafilter-finite\n  carrier a b\n"
        "  matrix 1 1 0 1\n}\n",
        encoding="utf-8")
    code, text = run(["validate", str(path)])
    assert code == 0
    code, text = run(["check", "compact", "T", "--in", str(path)])
    assert code == 0 and text.strip() == "true"
    code, text = run(["check", "hausdorff", "T", "--in", str(path)])
    assert code == 1
    code, text = run(["compute", "Ae", "T", "--in", str(path),
                      "--name", "Spec"])
    assert code == 0 and "monad identity" in text


# -- one error boundary -------------------------------------------------------

ERRORS = os.path.join(FIXTURES, "errors")
QS3_WITNESSES = (
    "quantale B: ok\n"
    "quasi QDisc: violation\n"
    "  QS3-cover-closure: witness (1, ('x', 'y'), [('x',), ('y',)])\n"
    "  QS3-cover-closure: witness (1, ('y', 'x'), [('x',), ('y',)])\n")


@pytest.mark.parametrize("fixture, code, text", [
    ("bare_field.txt", 2,
     "parse error: line 4, column 3: field 'quantale' needs a value\n"),
    ("duplicate_labels.txt", 2,
     "error: duplicate carrier labels in ('a', 'a')\n"),
    ("unknown_quasi_monad.txt", 2,
     "parse error: line 5, column 9: unknown monad 'filter'\n"),
    ("quasi_no_budget.txt", 1, QS3_WITNESSES),
])
def test_error_fixtures_through_validate(fixture, code, text):
    assert run(["validate", os.path.join(ERRORS, fixture)]) == (code, text)


def test_validate_budget_defaults_to_four():
    path = os.path.join(ERRORS, "quasi_no_budget.txt")
    assert run(["validate", path]) == run(["validate", path, "--budget", "4"])


@pytest.mark.parametrize("argv", [
    ["validate", "{}"],
    ["check", "compact", "X", "--in", "{}"],
    ["compute", "Ae", "X", "--in", "{}"],
])
def test_non_utf8_input_is_a_parse_error_naming_the_file(tmp_path, argv):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"\xff")
    code, text = run([str(path) if a == "{}" else a for a in argv])
    assert code == 2
    assert text == (f"parse error: {path}: byte 0 is not UTF-8 "
                    "(invalid start byte)\n")


def test_non_utf8_fixture_reports_the_byte_offset():
    path = os.path.join(ERRORS, "not_utf8.txt")
    with open(path, "rb") as handle:
        offset = handle.read().index(b"\xe9")
    assert run(["validate", path]) == (
        2, f"parse error: {path}: byte {offset} is not UTF-8 "
           "(invalid continuation byte)\n")


@pytest.mark.parametrize("argv", [
    ["validate"],
    ["check", "compact", "X", "--in"],
    ["compute", "Ae", "X", "--in"],
])
def test_bare_field_is_the_same_parse_error_for_every_command(argv):
    code, text = run(argv + [os.path.join(ERRORS, "bare_field.txt")])
    assert (code, text) == (
        2, "parse error: line 4, column 3: field 'quantale' needs a value\n")


def test_bad_class_specifier_in_a_quasi_block_is_an_error(tmp_path):
    path = tmp_path / "ws.txt"
    path.write_text(
        "quantale B { kind bool2 }\n"
        "quasi Q { quantale B; monad identity; carrier x; class bogus }\n",
        encoding="utf-8")
    assert run(["validate", str(path)]) == (
        2, "error: unknown class specifier 'bogus'\n")


def test_unwritable_output_file_is_an_io_error(tmp_path):
    code, text = run(["compute", "Ae", "Chain2", "--in",
                      os.path.join(FIXTURES, "workspace.txt"),
                      "--out", str(tmp_path)])
    assert code == 2
    assert text.startswith("io error: ") and text.count("\n") == 1


@pytest.mark.parametrize("operands", [[], ["Chain2"]])
def test_missing_operand_names(operands):
    code, text = run(["compute", "product", *operands, "--in",
                      os.path.join(FIXTURES, "workspace.txt")])
    assert (code, text) == (2, "missing operand names\n")


def test_invalid_result_name_is_refused():
    code, text = run(["compute", "Ae", "Chain2", "--in",
                      os.path.join(FIXTURES, "workspace.txt"),
                      "--name", "a;b"])
    assert (code, text) == (2, "invalid result name 'a;b'\n")


# -- fuzz: mutated workspaces and random argv, in process ---------------------

with open(os.path.join(FIXTURES, "workspace.txt"), encoding="utf-8") as fh:
    WORKSPACE = fh.read()
# the fixture cut into comments, newlines, blanks, braces, semicolons and
# words; edits delete or duplicate a piece, so no new numeral (class size,
# grid) appears
PIECES = re.findall(r"#[^\n]*|\n|[ \t\r]+|[{};]|[^ \t\r\n{};#]+", WORKSPACE)
EDITABLE = [i for i, piece in enumerate(PIECES) if piece.strip(" ")]
NAMES = ["Disc3", "Ind2", "Chain2", "Met3", "Ultra2", "Empty", "UDisc2",
         "QInd", "swap", "B", "Nope"]
CLASSES = ["compact-hausdorff-upto:1", "compact-hausdorff-upto:2",
           "compact-hausdorff-upto:x", "sierpinski", "explicit:Disc3",
           "explicit:", "bogus"]
OPTIONS = ([["--class", spec] for spec in CLASSES]
           + [["--grid", "0,1,2,inf"], ["--grid", "1"], ["--budget", "1"],
              ["--budget", "0"], ["--elements", "u"], ["--elements", "u,zz"],
              ["--monad", "identity"], ["--monad", "filter"],
              ["--name", "R"], ["--name", "a;b"], ["--bogus"]])
FILE = "<file>"


@st.composite
def mutated_workspaces(draw):
    pieces = list(PIECES)
    edits = draw(st.lists(st.tuples(st.sampled_from(EDITABLE), st.booleans()),
                          min_size=1, max_size=4))
    for i, duplicate in edits:
        pieces[i] = f"{pieces[i]} {pieces[i]}" if duplicate else ""
    return "".join(pieces)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["validate", "check", "compute"]))
    if command == "validate":
        argv = ["validate", FILE]
    elif command == "check":
        argv = ["check", draw(st.sampled_from([*PREDICATES, "bogus"])),
                draw(st.sampled_from(NAMES)), "--in", FILE]
    else:
        argv = ["compute", draw(st.sampled_from(list(OPERATIONS))),
                *draw(st.lists(st.sampled_from(NAMES), max_size=2)),
                "--in", FILE]
    for option in draw(st.lists(st.sampled_from(OPTIONS), max_size=3)):
        argv += option
    return argv


def outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = main(argv, out)
    except SystemExit as exc:
        assert exc.code == 2, f"argparse exited {exc.code}"
        code = "usage"
    else:
        assert code in (0, 1, 2)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(text=mutated_workspaces(), argv=argvs())
def test_fuzz_cli_exits_cleanly_and_repeats(tmp_path_factory, text, argv):
    path = tmp_path_factory.getbasetemp() / "fuzz.txt"
    path.write_text(text, encoding="utf-8")
    argv = [str(path) if a == FILE else a for a in argv]
    assert outcome(argv) == outcome(argv)
    try:
        ws = parse_workspace(text)
    except TvsError:
        return
    printed = print_workspace(ws)
    assert print_workspace(parse_workspace(printed)) == printed
