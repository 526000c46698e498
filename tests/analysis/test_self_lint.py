"""The repository must pass its own linter — and stay lintable fast.

These are the acceptance gates of the static-analysis pass:

* ``repro lint src benchmarks`` is clean on the tree as committed;
* removing one ``with self._lock:`` from a real guarded class is caught
  (the registries are live, not decorative);
* the lint path never imports numpy (the CI gate runs before the
  scientific stack is installed).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import lint_paths, lint_source, load_config, make_rules
from repro.analysis.rules.locks import parse_registry

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_repository_lints_clean():
    config = load_config(REPO_ROOT)
    report = lint_paths(
        [REPO_ROOT / "src", REPO_ROOT / "benchmarks", REPO_ROOT / "tests"],
        config=config,
    )
    assert report.findings == [], "\n".join(f.format() for f in report.findings)
    assert report.files >= 100


def test_repository_lock_graph_is_acyclic_and_nonempty():
    """The interprocedural layer sees the real lock hierarchy.

    The acquisition-order graph over ``src`` must contain the known
    spine (ingest -> extend -> leaf locks) and no cycle — RPR009 on the
    tree as committed is vacuous unless the graph is actually populated.
    """
    from repro.analysis.engine import iter_python_files
    from repro.analysis.lockgraph import build_lock_graph
    from repro.analysis.project import build_project
    from repro.analysis.summaries import project_index

    project = build_project(iter_python_files([REPO_ROOT / "src"]), root=REPO_ROOT)
    graph = build_lock_graph(project_index(project))
    edges = {(str(src), str(dst)) for (src, dst) in graph.edges}
    assert ("QueryService._extend_lock", "CostLedger._lock") in edges
    assert ("StreamingCorpusService._ingest_lock", "QueryService._extend_lock") in edges
    assert graph.cycles() == []


def test_unlocking_a_guarded_access_is_caught():
    """Acceptance gate: the guarded-by registries are enforced.

    Take the real DetectionStore source, drop the ``with self._lock:``
    around ``clear()``, and the linter must flag the now-unguarded
    ``self._entries`` access.
    """
    path = REPO_ROOT / "src" / "repro" / "inference" / "store.py"
    source = path.read_text(encoding="utf-8")
    rules = make_rules(("RPR003",))
    assert lint_source(source, str(path), rules=rules).findings == []

    locked = "        with self._lock:\n            self._entries.clear()"
    unlocked = "        self._entries.clear()"
    assert locked in source
    broken = source.replace(locked, unlocked)
    findings = lint_source(broken, str(path), rules=rules).findings
    assert len(findings) == 1
    assert findings[0].code == "RPR003"
    assert "'self._entries' is guarded by '_lock'" in findings[0].message


@pytest.mark.parametrize(
    "relpath, lock, attributes",
    [
        (
            "src/repro/inference/store.py",
            "_lock",
            {"_entries", "_hits", "_disk_hits", "_misses", "_evictions"},
        ),
        (
            "src/repro/serving/cache.py",
            "_lock",
            {
                "_entries",
                "_generation",
                "_bytes",
                "_hits",
                "_misses",
                "_partial_hits",
                "_evictions",
                "_invalidations",
            },
        ),
        (
            "src/repro/utils/timing.py",
            "_lock",
            {"simulated", "measured", "counts", "cache_hits", "cache_misses"},
        ),
        ("src/repro/core/index.py", "_tile_lock", {"spatial_index"}),
    ],
)
def test_seed_registries_are_present(relpath, lock, attributes):
    """The concurrency-critical classes all declare guarded-by registries."""
    import ast

    tree = ast.parse((REPO_ROOT / relpath).read_text(encoding="utf-8"))
    registries = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            registry = parse_registry(ast.get_docstring(node))
            if registry:
                registries.update(registry)
    for attribute in attributes:
        assert registries.get(attribute) == lock, (relpath, attribute)


def test_lint_cli_never_imports_numpy():
    code = (
        "import io, sys\n"
        "from repro.cli import main\n"
        "assert main(['lint', '--list-rules'], out=io.StringIO()) == 0\n"
        "assert 'numpy' not in sys.modules, 'lint path pulled in numpy'\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
