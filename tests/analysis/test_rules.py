"""Per-rule fixture snippets: positive, negative, and suppressed.

Every rule is exercised three ways on minimal source snippets:

* **positive** — the invariant violation the rule exists to catch;
* **negative** — the closest-by legitimate code, which must stay clean;
* **suppressed** — the positive snippet carrying a justified
  ``# repro: noqa[CODE] ...``, which must move the finding to the
  report's ``suppressed`` list without leaving an active finding.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis import lint_source, make_rules
from repro.analysis.engine import Report

PATH = "src/repro/example.py"
REPO_ROOT = Path(__file__).resolve().parents[2]


def run_rule(code: str, source: str) -> Report:
    """Lint ``source`` with exactly one rule enabled."""
    return lint_source(textwrap.dedent(source), PATH, rules=make_rules((code,)))


# Each entry: (code, positive snippet, negative snippet).  The
# suppressed variant is derived by appending a justified noqa to the
# marked line (``# HIT`` marks the line the finding lands on).
FIXTURES = {
    "RPR001": (
        """
        import numpy as np

        def jitter():
            return np.random.rand(3)  # HIT
        """,
        """
        import numpy as np

        def jitter(seed):
            return np.random.default_rng(seed).random(3)
        """,
    ),
    "RPR002": (
        """
        import time

        def elapsed():
            return time.perf_counter()  # HIT
        """,
        """
        import time

        def pause():
            time.sleep(0.01)
        """,
    ),
    "RPR003": (
        """
        import threading

        class Counter:
            '''A counter.

            # guarded-by: _lock: _count
            '''

            def __init__(self):
                self._lock = threading.Lock()
                self._count = 0

            def bump(self):
                self._count += 1  # HIT
        """,
        """
        import threading

        class Counter:
            '''A counter.

            # guarded-by: _lock: _count
            '''

            def __init__(self):
                self._lock = threading.Lock()
                self._count = 0

            def bump(self):
                with self._lock:
                    self._count += 1
        """,
    ),
    "RPR004": (
        """
        def run_all(model, frames):
            return [model.detect(frame) for frame in frames]  # HIT
        """,
        """
        class Wrapper:
            def detect(self, frame):
                return self.base.detect(frame)
        """,
    ),
    "RPR005": (
        """
        import numpy as np

        rng = np.random.default_rng()  # HIT
        """,
        """
        import numpy as np

        rng = np.random.default_rng(1234)
        """,
    ),
    "RPR006": (
        """
        def collect(item, bucket=[]):  # HIT
            bucket.append(item)
            return bucket
        """,
        """
        def collect(item, bucket=None):
            bucket = [] if bucket is None else bucket
            bucket.append(item)
            return bucket
        """,
    ),
    "RPR008": (
        """
        import multiprocessing

        multiprocessing.set_start_method("spawn")  # HIT
        """,
        """
        import multiprocessing

        def spawn_worker(target):
            context = multiprocessing.get_context("spawn")
            return context.Process(target=target, daemon=True)

        if __name__ == "__main__":
            multiprocessing.set_start_method("spawn")
        """,
    ),
}

CODES = sorted(FIXTURES)


def _suppressed_variant(code: str, positive: str) -> str:
    noqa = f"  # repro: noqa[{code}] fixture exercising the suppression path"
    out = []
    for line in textwrap.dedent(positive).splitlines():
        if line.endswith("# HIT"):
            line = line[: line.rindex("# HIT")].rstrip() + noqa
        out.append(line)
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("code", CODES)
def test_positive_snippet_is_flagged(code):
    report = run_rule(code, FIXTURES[code][0])
    assert [f.code for f in report.findings] == [code]
    finding = report.findings[0]
    assert finding.path == PATH
    hit_line = next(
        i + 1
        for i, line in enumerate(textwrap.dedent(FIXTURES[code][0]).splitlines())
        if line.endswith("# HIT")
    )
    assert finding.line == hit_line


@pytest.mark.parametrize("code", CODES)
def test_negative_snippet_is_clean(code):
    report = run_rule(code, FIXTURES[code][1])
    assert report.findings == []
    assert report.suppressed == []


@pytest.mark.parametrize("code", CODES)
def test_justified_noqa_suppresses(code):
    source = _suppressed_variant(code, FIXTURES[code][0])
    report = lint_source(source, PATH, rules=make_rules((code,)))
    assert report.findings == []
    assert [f.code for f in report.suppressed] == [code]


# ----------------------------------------------------------------------
# Rule-specific edges beyond the canonical triples.
# ----------------------------------------------------------------------
def test_rpr001_flags_stdlib_random():
    report = run_rule(
        "RPR001",
        """
        import random

        def pick(items):
            return random.choice(items)
        """,
    )
    assert [f.code for f in report.findings] == ["RPR001"]


def test_rpr001_allows_seeded_generator_construction():
    report = run_rule(
        "RPR001",
        """
        import numpy as np

        rng = np.random.Generator(np.random.PCG64(7))
        """,
    )
    assert report.findings == []


def test_rpr002_flags_the_import_site_once():
    # `from time import perf_counter` is flagged where it enters the
    # module; bare uses of the local name are not flagged again, so one
    # suppression on the import covers the module.
    report = run_rule(
        "RPR002",
        """
        from time import perf_counter

        def elapsed(t0):
            return perf_counter() - t0
        """,
    )
    assert [f.line for f in report.findings] == [2]


def test_rpr003_locked_annotation_grants_the_lock():
    report = run_rule(
        "RPR003",
        """
        import threading

        class Counter:
            '''A counter.

            # guarded-by: _lock: _count
            '''

            def bump(self):
                with self._lock:
                    self._bump_locked()

            def _bump_locked(self):  # repro: locked[_lock]
                self._count += 1
        """,
    )
    assert report.findings == []


def test_rpr003_nested_function_does_not_inherit_the_lock():
    # A closure created under the lock may run after it is released.
    report = run_rule(
        "RPR003",
        """
        import threading

        class Counter:
            '''A counter.

            # guarded-by: _lock: _count
            '''

            def deferred(self):
                with self._lock:
                    def bump():
                        self._count += 1
                    return bump
        """,
    )
    assert [f.code for f in report.findings] == ["RPR003"]


def test_rpr003_checks_foreign_receivers():
    report = run_rule(
        "RPR003",
        """
        import threading

        class Counter:
            '''A counter.

            # guarded-by: _lock: _count
            '''

            def merge(self, other):
                with self._lock:
                    self._count += other._count
        """,
    )
    # other._count is read without holding other._lock.
    assert len(report.findings) == 1
    assert "other._count" in report.findings[0].message


def test_rpr004_flags_detect_many_too():
    report = run_rule(
        "RPR004",
        """
        def run_all(model, frames):
            return model.detect_many(frames)
        """,
    )
    assert [f.code for f in report.findings] == ["RPR004"]


def test_rpr008_flags_fork_with_guarded_locks():
    report = run_rule(
        "RPR008",
        """
        from multiprocessing import get_context

        class Cache:
            '''Shared cache.

            # guarded-by: _lock: _entries
            '''

        def spawn_worker(target):
            context = get_context("fork")
            return context.Process(target=target)
        """,
    )
    assert [f.code for f in report.findings] == ["RPR008"]
    assert "fork" in report.findings[0].message


def test_rpr008_allows_fork_without_lock_registries():
    # File-local rule: without a guarded-by registry in the module there
    # is no documented live lock to inherit, so fork passes here.
    report = run_rule(
        "RPR008",
        """
        from multiprocessing import get_context

        def spawn_worker(target):
            context = get_context("fork")
            return context.Process(target=target)
        """,
    )
    assert report.findings == []


def test_rpr008_allows_spawn_with_guarded_locks():
    report = run_rule(
        "RPR008",
        """
        from multiprocessing import get_context

        class Cache:
            '''Shared cache.

            # guarded-by: _lock: _entries
            '''

        def spawn_worker(target):
            context = get_context("spawn")
            return context.Process(target=target)
        """,
    )
    assert report.findings == []


def test_rpr008_flags_set_start_method_inside_plain_if():
    # A module-level conditional is still import time; only the
    # __main__ guard (or a function body) defers execution.
    report = run_rule(
        "RPR008",
        """
        import sys
        import multiprocessing

        if sys.platform != "win32":
            multiprocessing.set_start_method("spawn")
        """,
    )
    assert [f.code for f in report.findings] == ["RPR008"]


def test_rpr002_flags_a_clock_read_in_a_flow_step():
    """Step purity, statically: a flow step's module is under RPR002 in
    full, so a clock read inside a registered step body is flagged."""
    report = run_rule(
        "RPR002",
        """
        import time

        def _method_step(sequence, seed):
            return sequence, seed, time.time()

        def build(flow):
            flow.add(_method_step, name="method", deps={"sequence": "sequence"},
                     params={"seed": 1})
        """,
    )
    assert [(f.code, f.line) for f in report.findings] == [("RPR002", 5)]


def test_rpr005_flags_unseeded_rng_in_a_flow_step():
    report = run_rule(
        "RPR005",
        """
        import numpy as np

        def _noise_step(sequence):
            return np.random.default_rng().random(3)
        """,
    )
    assert [f.code for f in report.findings] == ["RPR005"]


def test_flow_modules_run_every_rule():
    """No per-directory entry relaxes a rule under the step-defining
    packages, so RPR002 and RPR005 apply to every step body there."""
    from repro.analysis import load_config

    config = load_config(REPO_ROOT)
    for path in ("src/repro/evalx/flows.py", "src/repro/flow/runner.py"):
        assert config.disabled_for(path) == set()
