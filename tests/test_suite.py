import io

from tvspaces.suite import SuiteResult, run_suite


def test_result_records_named_failures():
    result = SuiteResult("demo")
    result.check(True, "fine")
    result.check(False, "broken check: witness (a, b)")
    assert not result.passed
    assert result.checks == 2
    assert result.failures == ["broken check: witness (a, b)"]


def test_run_suite_reports_one_line_per_battery():
    out = io.StringIO()
    results = run_suite("fast", out)
    lines = out.getvalue().splitlines()
    assert len(lines) == len(results) == 12
    for line, result in zip(lines, results):
        assert line.startswith("PASS") and result.name in line
        assert f"({result.checks} checks)" in line


def test_fast_suite_check_counts_are_pinned():
    # a change in any count means a battery checks more or less than before
    results = run_suite("fast")
    assert [r.checks for r in results] == [
        1268, 200, 267, 17, 912, 141, 120, 513, 205, 52, 75, 20]
    assert all(r.passed for r in results)


def test_failing_battery_is_named_in_the_report(monkeypatch):
    import tvspaces.suite as suite_module

    def corrupted(level):
        result = SuiteResult("corrupted-fixture")
        result.check(False, "fixture Disc3: reflexivity witness 'p'")
        return result

    monkeypatch.setattr(suite_module, "ALL_BATTERIES", (corrupted,))
    out = io.StringIO()
    results = run_suite("fast", out)
    assert not results[0].passed
    text = out.getvalue()
    assert text.startswith("FAIL  corrupted-fixture")
    assert "reflexivity witness" in text
