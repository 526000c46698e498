"""Engine behaviour: suppressions, config, reporters, CLI exit codes."""

from __future__ import annotations

import io
import json
import textwrap

from repro.analysis import (
    ENGINE_CODE,
    LintConfig,
    lint_source,
    make_rules,
    run_lint,
)
from repro.analysis.reporters import render_json, render_text
from repro.analysis.suppressions import MIN_JUSTIFICATION, scan_suppressions

PATH = "src/repro/example.py"

CLOCK_READ = """
import time

def now():
    return time.time(){noqa}
"""


def _lint_clock(noqa: str):
    source = textwrap.dedent(CLOCK_READ.format(noqa=noqa))
    return lint_source(source, PATH, rules=make_rules(("RPR002",)))


# ----------------------------------------------------------------------
# Suppression engine (RPR000)
# ----------------------------------------------------------------------
def test_unjustified_noqa_is_an_engine_finding():
    report = _lint_clock("  # repro: noqa[RPR002]")
    # The rule finding is suppressed, but the bare suppression itself
    # becomes a non-suppressible engine finding.
    assert [f.code for f in report.suppressed] == ["RPR002"]
    assert [f.code for f in report.findings] == [ENGINE_CODE]
    assert "justification" in report.findings[0].message


def test_short_justification_is_rejected():
    rubber_stamp = "ok"
    assert len(rubber_stamp) < MIN_JUSTIFICATION
    report = _lint_clock(f"  # repro: noqa[RPR002] {rubber_stamp}")
    assert [f.code for f in report.findings] == [ENGINE_CODE]


def test_unknown_code_is_an_engine_finding():
    report = _lint_clock("  # repro: noqa[RPR999] justification long enough")
    codes = [f.code for f in report.findings]
    # The clock read stays active (RPR999 covers nothing) and the bogus
    # suppression is flagged.
    assert sorted(codes) == sorted(["RPR002", ENGINE_CODE])
    assert any("RPR999" in f.message for f in report.findings)


def test_empty_suppression_names_no_code():
    report = _lint_clock("  # repro: noqa[] justification long enough")
    assert ENGINE_CODE in [f.code for f in report.findings]


def test_engine_findings_cannot_be_suppressed():
    # RPR000 is not a rule code, so naming it is itself an error.
    report = _lint_clock("  # repro: noqa[RPR000] attempting to gag the engine")
    assert any(
        f.code == ENGINE_CODE and "unknown" in f.message for f in report.findings
    )


def test_noqa_in_docstring_is_not_a_suppression():
    source = '"""Docs may say # repro: noqa[RPR002] without effect."""\n'
    assert scan_suppressions(source) == {}


def test_multi_code_suppression_covers_each_named_rule():
    source = textwrap.dedent(
        """
        import time, random

        def f():
            return time.time(), random.random()  # repro: noqa[RPR001, RPR002] fixture covering two rules at once
        """
    )
    report = lint_source(source, PATH, rules=make_rules(("RPR001", "RPR002")))
    assert report.findings == []
    assert sorted(f.code for f in report.suppressed) == ["RPR001", "RPR002"]


def test_syntax_error_is_reported_not_raised():
    report = lint_source("def broken(:\n", PATH)
    assert [f.code for f in report.findings] == [ENGINE_CODE]
    assert "syntax error" in report.findings[0].message


# ----------------------------------------------------------------------
# Import-alias resolution
# ----------------------------------------------------------------------
def test_aliased_import_is_resolved():
    source = textwrap.dedent(
        """
        import numpy.random as npr

        def jitter():
            return npr.rand(3)
        """
    )
    report = lint_source(source, PATH, rules=make_rules(("RPR001",)))
    assert [f.code for f in report.findings] == ["RPR001"]


def test_from_import_alias_is_resolved():
    source = textwrap.dedent(
        """
        from time import perf_counter as tick

        def f(t0):
            return tick() - t0
        """
    )
    report = lint_source(source, PATH, rules=make_rules(("RPR002",)))
    # Flagged once, at the import site.
    assert [f.line for f in report.findings] == [2]


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
def test_per_directory_disables_apply():
    source = "import time\n\nT0 = time.time()\n"
    config = LintConfig()
    flagged = lint_source(source, "src/repro/runner.py", config=config)
    exempt = lint_source(source, "benchmarks/bench_speed.py", config=config)
    assert [f.code for f in flagged.findings] == ["RPR002"]
    assert exempt.findings == []


def test_per_directory_prefix_requires_a_path_boundary():
    # "benchmarks" must not exempt a sibling like "benchmarks_old".
    source = "import time\n\nT0 = time.time()\n"
    report = lint_source(source, "benchmarks_old/bench.py", config=LintConfig())
    assert [f.code for f in report.findings] == ["RPR002"]


def test_select_limits_the_rules_run():
    source = "def f(items=[]):\n    return items\n"
    config = LintConfig(select=("RPR002",))
    assert lint_source(source, PATH, config=config).findings == []
    assert [
        f.code for f in lint_source(source, PATH, config=LintConfig()).findings
    ] == ["RPR006"]


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------
def test_json_reporter_shape():
    report = _lint_clock("")
    out = io.StringIO()
    render_json(report, out)
    payload = json.loads(out.getvalue())
    assert payload["files"] == 1
    assert len(payload["findings"]) == 1
    finding = payload["findings"][0]
    assert finding["code"] == "RPR002"
    assert finding["path"] == PATH
    assert {"line", "col", "message"} <= set(finding)


def test_text_reporter_summary_line():
    report = _lint_clock("")
    out = io.StringIO()
    render_text(report, out)
    text = out.getvalue()
    assert "RPR002" in text
    assert "1 finding" in text


# ----------------------------------------------------------------------
# CLI exit codes
# ----------------------------------------------------------------------
def test_run_lint_clean_tree_exits_zero(tmp_path):
    (tmp_path / "clean.py").write_text("X = 1\n")
    assert run_lint([str(tmp_path)], out=io.StringIO()) == 0


def test_run_lint_positive_fixture_exits_nonzero(tmp_path):
    (tmp_path / "dirty.py").write_text(
        "import numpy as np\n\nX = np.random.rand(3)\n"
    )
    out = io.StringIO()
    assert run_lint([str(tmp_path)], out=out) == 1
    assert "RPR001" in out.getvalue()


def test_run_lint_json_output(tmp_path):
    (tmp_path / "dirty.py").write_text("import time\n\nT0 = time.time()\n")
    out = io.StringIO()
    assert run_lint(["--format", "json", str(tmp_path)], out=out) == 1
    payload = json.loads(out.getvalue())
    assert payload["findings"][0]["code"] == "RPR002"


def test_run_lint_select_flag(tmp_path):
    (tmp_path / "dirty.py").write_text("import time\n\nT0 = time.time()\n")
    assert (
        run_lint(
            ["--select", "RPR006", str(tmp_path)],
            out=io.StringIO(),
        )
        == 0
    )


def test_run_lint_list_rules():
    out = io.StringIO()
    assert run_lint(["--list-rules"], out=out) == 0
    text = out.getvalue()
    for code in ("RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006"):
        assert code in text
