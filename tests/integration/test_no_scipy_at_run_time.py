"""Running MAST never loads scipy.

scipy is the tests' reference solver only: importing ``scipy.optimize``
alone costs ~0.5 s and ~50 MB, which every process that fits or serves
would pay (docs/performance.md, "One scan per regime").  A fresh
interpreter imports the package and the modules the perf observatory
drives, fits a small pipeline (the fit solves its Hungarian matchings),
answers one query and finds no ``scipy`` module loaded, eager or lazy.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

PROGRAM = """
import sys

import repro
import repro.core.config, repro.corpus, repro.evalx, repro.evalx.metrics
import repro.flow, repro.inference, repro.models, repro.query.workload
import repro.streaming
from repro import MASTConfig, MASTPipeline
from repro.models import pv_rcnn
from repro.simulation import semantickitti_like

sequence = semantickitti_like(0, n_frames=150, with_points=False)
pipeline = MASTPipeline(MASTConfig(budget_fraction=0.15, seed=0)).fit(sequence, pv_rcnn(seed=0))
pipeline.query("SELECT FRAMES WHERE COUNT(Car DIST <= 20) >= 1")
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
"""


def test_fitting_and_querying_never_imports_scipy():
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
