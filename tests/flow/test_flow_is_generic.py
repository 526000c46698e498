"""The flow runner is generic: importing it loads no inference code.

A step is a function of its declared ``deps`` and ``params``; whatever a
flow shares between its steps (an experiment's detection recording) is
bound by the flow's builder, not handed out by the runner.  A fresh
interpreter imports ``repro.flow`` and finds no ``repro.inference``
module loaded.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

PROGRAM = """
import sys

import repro.flow

loaded = sorted(
    name for name in sys.modules
    if name == "repro.inference" or name.startswith("repro.inference.")
)
assert not loaded, loaded
"""


def test_importing_the_flow_runner_loads_no_inference_module():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", PROGRAM],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
