import io
import json
import os

import pytest

from tvspaces.cli import main

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
