"""Fixtures for the interprocedural rules RPR009, RPR010, RPR011.

Same shape as ``test_rules.py`` — positive, negative, suppressed — but
each rule also gets an *interprocedural* positive whose hazard only
exists across a call edge, plus a cross-module case driven through
``lint_paths``: that is the capability the project-wide engine adds
over the per-file rules.
"""

from __future__ import annotations

import textwrap

from repro.analysis import LintConfig, lint_paths, lint_source, make_rules
from repro.analysis.engine import Report

PATH = "src/repro/example.py"


def run_rule(code: str, source: str) -> Report:
    return lint_source(textwrap.dedent(source), PATH, rules=make_rules((code,)))


# ---------------------------------------------------------------------------
# RPR009 lock-order-inversion


INVERSION = """
    import threading

    class Pair:
        def __init__(self):
            self._a = threading.Lock()
            self._b = threading.Lock()

        def forward(self):
            with self._a:
                with self._b:{forward_noqa}
                    pass

        def backward(self):
            with self._b:
                with self._a:{backward_noqa}
                    pass
"""


def test_rpr009_positive_direct_inversion():
    report = run_rule("RPR009", INVERSION.format(forward_noqa="", backward_noqa=""))
    assert len(report.findings) == 1
    finding = report.findings[0]
    assert finding.code == "RPR009"
    assert "lock-order inversion" in finding.message
    assert "Pair._a" in finding.message and "Pair._b" in finding.message
    # both witness paths are quoted, one per edge of the cycle
    assert finding.message.count("via") >= 2


def test_rpr009_positive_interprocedural():
    report = run_rule(
        "RPR009",
        """
        import threading

        class Pair:
            def __init__(self):
                self._a = threading.Lock()
                self._b = threading.Lock()

            def _locked_b(self):
                with self._b:
                    pass

            def forward(self):
                with self._a:
                    self._locked_b()

            def backward(self):
                with self._b:
                    with self._a:
                        pass
        """,
    )
    assert len(report.findings) == 1
    assert "Pair._locked_b" in report.findings[0].message


def test_rpr009_negative_consistent_order():
    report = run_rule(
        "RPR009",
        """
        import threading

        class Pair:
            def __init__(self):
                self._a = threading.Lock()
                self._b = threading.Lock()

            def forward(self):
                with self._a:
                    with self._b:
                        pass

            def also_forward(self):
                with self._a:
                    with self._b:
                        pass
        """,
    )
    assert report.findings == []


def test_rpr009_suppressed():
    # the finding anchors on one edge of the cycle; justify both
    # candidate acquisition sites so the test does not depend on which
    # rotation the cycle canonicalization picks
    noqa = "  # repro: noqa[RPR009] fixture documents a known inversion"
    report = run_rule(
        "RPR009", INVERSION.format(forward_noqa=noqa, backward_noqa=noqa)
    )
    assert report.findings == []
    assert len(report.suppressed) == 1
    assert report.suppressed[0].code == "RPR009"


# ---------------------------------------------------------------------------
# RPR010 blocking-under-lock


def test_rpr010_positive_direct():
    report = run_rule(
        "RPR010",
        """
        import threading
        import time

        class Box:
            def __init__(self):
                self._lock = threading.Lock()

            def slow(self):
                with self._lock:
                    time.sleep(0.1)
        """,
    )
    assert len(report.findings) == 1
    finding = report.findings[0]
    assert finding.code == "RPR010"
    assert "time.sleep" in finding.message
    assert "Box._lock" in finding.message


def test_rpr010_positive_scheduling_point():
    """``os.sched_yield`` hands the GIL over like ``time.sleep(0)``; under
    a held lock every other client waits on the lock instead."""
    report = run_rule(
        "RPR010",
        """
        import os
        import threading

        class Box:
            def __init__(self):
                self._lock = threading.Lock()

            def turn(self):
                with self._lock:
                    os.sched_yield()
        """,
    )
    assert len(report.findings) == 1
    finding = report.findings[0]
    assert finding.code == "RPR010"
    assert "os.sched_yield" in finding.message
    assert "Box._lock" in finding.message


def test_rpr010_positive_interprocedural():
    report = run_rule(
        "RPR010",
        """
        import threading
        import time

        def nap():
            time.sleep(0.1)

        class Box:
            def __init__(self):
                self._lock = threading.Lock()

            def slow(self):
                with self._lock:
                    nap()
        """,
    )
    assert len(report.findings) == 1
    finding = report.findings[0]
    assert "reaches blocking time.sleep" in finding.message
    assert "nap" in finding.message  # witness route through the callee


def test_rpr010_negative_blocking_outside_lock():
    report = run_rule(
        "RPR010",
        """
        import threading
        import time

        class Box:
            def __init__(self):
                self._lock = threading.Lock()

            def slow(self):
                with self._lock:
                    snapshot = 1
                time.sleep(0.1)
                return snapshot
        """,
    )
    assert report.findings == []


def test_rpr010_suppressed():
    report = run_rule(
        "RPR010",
        """
        import threading
        import time

        class Box:
            def __init__(self):
                self._lock = threading.Lock()

            def slow(self):
                with self._lock:
                    time.sleep(0.1)  # repro: noqa[RPR010] single-writer design, readers never contend
        """,
    )
    assert report.findings == []
    assert len(report.suppressed) == 1


def test_rpr010_multi_code_suppression():
    """One noqa comment may list several codes; any match suppresses."""
    report = run_rule(
        "RPR010",
        """
        import threading
        import time

        class Box:
            def __init__(self):
                self._lock = threading.Lock()

            def slow(self):
                with self._lock:
                    time.sleep(0.1)  # repro: noqa[RPR003,RPR010] deliberate paced drain under the writer lock
        """,
    )
    assert report.findings == []
    assert len(report.suppressed) == 1
    assert report.suppressed[0].code == "RPR010"


def test_rpr010_wrong_code_does_not_suppress():
    report = run_rule(
        "RPR010",
        """
        import threading
        import time

        class Box:
            def __init__(self):
                self._lock = threading.Lock()

            def slow(self):
                with self._lock:
                    time.sleep(0.1)  # repro: noqa[RPR009] mismatched code must not hide this
        """,
    )
    assert any(f.code == "RPR010" for f in report.findings)
    assert report.suppressed == []


def test_rpr010_cross_module(tmp_path):
    """The hazard spans two modules; only the project engine sees it."""
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("", encoding="utf-8")
    (pkg / "io.py").write_text(
        textwrap.dedent(
            """
            import time

            def pause():
                time.sleep(0.5)
            """
        ),
        encoding="utf-8",
    )
    (pkg / "svc.py").write_text(
        textwrap.dedent(
            """
            import threading

            from pkg.io import pause

            class Service:
                def __init__(self):
                    self._lock = threading.Lock()

                def tick(self):
                    with self._lock:
                        pause()
            """
        ),
        encoding="utf-8",
    )
    config = LintConfig(root=str(tmp_path), select=("RPR010",), per_directory=())
    report = lint_paths([tmp_path / "src"], config=config)
    assert len(report.findings) == 1
    finding = report.findings[0]
    assert finding.path.endswith("svc.py")
    assert "reaches blocking time.sleep" in finding.message
    assert "pkg.io.pause" in finding.message or "io.pause" in finding.message


# ---------------------------------------------------------------------------
# RPR011 event-loop-discipline


def test_rpr011_positive_direct():
    report = run_rule(
        "RPR011",
        """
        import time

        async def handler():
            time.sleep(0.1)
        """,
    )
    assert len(report.findings) == 1
    finding = report.findings[0]
    assert finding.code == "RPR011"
    assert "time.sleep" in finding.message
    assert "executor" in finding.message


def test_rpr011_positive_interprocedural():
    report = run_rule(
        "RPR011",
        """
        import time

        def helper():
            time.sleep(0.1)

        async def handler():
            helper()
        """,
    )
    assert len(report.findings) == 1
    assert "reaches blocking time.sleep" in report.findings[0].message


def test_rpr011_negative_blessed_patterns():
    report = run_rule(
        "RPR011",
        """
        import asyncio
        import time

        async def paced():
            await asyncio.sleep(0.1)

        async def offloaded(loop):
            await loop.run_in_executor(None, time.sleep, 0.1)
        """,
    )
    assert report.findings == []


def test_rpr011_negative_sync_function_may_block():
    report = run_rule(
        "RPR011",
        """
        import time

        def helper():
            time.sleep(0.1)
        """,
    )
    assert report.findings == []


def test_rpr011_suppressed():
    report = run_rule(
        "RPR011",
        """
        import time

        async def handler():
            time.sleep(0.1)  # repro: noqa[RPR011] startup-only coroutine, loop not yet serving
        """,
    )
    assert report.findings == []
    assert len(report.suppressed) == 1
