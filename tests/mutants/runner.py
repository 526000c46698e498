"""Run the mutant registry: every mutant must fail the tests it names.

Usage (from the repository root)::

    python -m tests.mutants.runner

First the union of every mutant's killers runs once on an
unmutated copy of ``src/``: a test that already fails kills nothing.
Then, per mutant, ``src/`` is copied to a temporary directory, the one
textual change is applied there (the checkout is never written), and the
killers run with that copy first on ``PYTHONPATH``.  Each mutant reads
``killed`` (a killer failed), ``survived`` (all passed), ``timed out``
(the run passed ``TIMEOUT_S``; a killer that hangs is a defect of the
test) or ``error`` (its ``old`` text is not in the file exactly once, or
pytest could not run).  The exit status is 0 only if every mutant is
killed.  Standard library only.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tests.mutants.registry import MUTANTS, Mutant

ROOT = Path(__file__).resolve().parents[2]

#: Seconds one mutant's killers may run before the mutant reads ``timed out``.
TIMEOUT_S = 300.0


def _copy_src(into: Path) -> Path:
    src = into / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def _apply(mutant: Mutant, src: Path) -> str | None:
    """Apply ``mutant`` to the copy at ``src``; the reason it cannot be, or ``None``."""
    path = src.parent / mutant.file
    if not path.is_file():
        return f"{mutant.file} does not exist"
    text = path.read_text()
    found = text.count(mutant.old)
    if found != 1:
        return f"old text occurs {found} times in {mutant.file}, expected once"
    path.write_text(text.replace(mutant.old, mutant.new))
    return None


def _pytest(src: Path, node_ids: list[str], timeout: float) -> int | None:
    """Run ``node_ids`` against the code at ``src``: pytest's exit status, or
    ``None`` past ``timeout`` (the run's process group is killed)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(ROOT)]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *node_ids]
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        return process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        return None


def _imports_from(src: Path) -> bool:
    """Whether a child process with ``src`` on ``PYTHONPATH`` imports ``repro`` from it."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    found = subprocess.run(
        [sys.executable, "-c", "import repro; print(repro.__file__)"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=False,
    ).stdout.strip()
    return Path(found).resolve().is_relative_to(src.resolve())


def run_mutant(mutant: Mutant) -> str:
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        src = _copy_src(Path(scratch))
        reason = _apply(mutant, src)
        if reason is not None:
            return f"error: {reason}"
        status = _pytest(src, list(mutant.killers), TIMEOUT_S)
    if status is None:
        return "timed out"
    return {0: "survived", 1: "killed"}.get(status, f"error: pytest exited {status}")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutant-baseline-") as scratch:
        src = _copy_src(Path(scratch))
        if not _imports_from(src):
            print("error: a child process does not import repro from the copied src/")
            return 2
        killers = list(dict.fromkeys(k for mutant in MUTANTS for k in mutant.killers))
        status = _pytest(src, killers, TIMEOUT_S * len(MUTANTS))
    if status != 0:
        print(f"error: the killers do not pass unmutated (pytest exited {status})")
        return 2

    outcomes = []
    for mutant in MUTANTS:
        start = time.perf_counter()
        outcome = run_mutant(mutant)
        outcomes.append(outcome)
        print(f"{mutant.id:<44} {outcome:<10} {time.perf_counter() - start:6.1f} s", flush=True)
    killed = outcomes.count("killed")
    print(f"{killed} of {len(MUTANTS)} mutants killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
