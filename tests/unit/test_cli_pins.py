"""Characterization pins: what every ``repro`` subcommand prints.

Each case runs the CLI on tiny fixed inputs and compares its exit status
and stdout with ``cli_pins/<case>.txt``. Only what a run cannot repeat
is masked: the temporary directory it writes to and the lines that
print measured wall-clock (``served … in …s``, ``corpus``'s ``cost:``
line and the step timings ``flow tail`` shows).
"""

from __future__ import annotations

import io
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main

PINS = Path(__file__).with_name("cli_pins")

SPECS = ("semantickitti:0:80", "once:1:60")
QUERIES = (
    "SELECT AVG OF COUNT(Car)",
    "SELECT FRAMES WHERE COUNT(Car) >= 2",
    "SELECT FRAMES WHERE COUNT(Car) >= 2 IN SEQUENCE once-01-n60",
    "SELECT MED OF COUNT(Car) IN SEQUENCE semantickitti-00-n80",
    "SELECT AVG OF COUNT(Car) IN SEQUENCE nosuch",
)
#: A syntax error whose message lists no registry: other tests register
#: aggregate operators, and an unknown operator's message names them all.
BAD_QUERY = "SELECT FRAMES WHERE COUNT(Car >= 2"


def run(tmp: Path, *argv: object) -> str:
    out = io.StringIO()
    status = main([str(arg) for arg in argv], out=out)
    text = out.getvalue().replace(str(tmp), "<tmp>")
    text = re.sub(r" in \d+\.\d+s \(", " in <s> (", text)
    text = re.sub(r"(?m)^cost: .*$", "cost: <s>", text)
    text = re.sub(r"(?m)^(\[ *\d+\] \+ .*) \(\d+\.\d+s\)$", r"\1 (<s>)", text)
    return f"exit {status}\n{text}"


def assert_pinned(case: str, text: str) -> None:
    assert text == (PINS / f"{case}.txt").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """``simulate`` then ``fit`` (with a detection store) into one directory."""
    tmp = tmp_path_factory.mktemp("pins")
    simulated = run(
        tmp, "simulate", "--frames", 120, "--seed", 3, "--out", tmp / "seq.npz"
    )
    fit = run(
        tmp, "fit", "--sequence", tmp / "seq.npz", "--budget", 0.15,
        "--store", tmp / "store", "--out", tmp / "det.npz",
    )
    return tmp, simulated, fit


def test_simulate(fitted):
    assert_pinned("simulate", fitted[1])


def test_fit(fitted):
    assert_pinned("fit", fitted[2])


def test_query(fitted):
    tmp = fitted[0]
    assert_pinned("query", run(
        tmp, "query", "--sequence", tmp / "seq.npz", "--detections", tmp / "det.npz",
        "SELECT FRAMES WHERE COUNT(Car DIST <= 20) >= 1",
        "SELECT AVG OF COUNT(Car)",
        BAD_QUERY,
        "SELECT COUNT FRAMES WHERE COUNT(Pedestrian) >= 1",
    ))


def test_tracks(fitted):
    tmp = fitted[0]
    assert_pinned("tracks", run(
        tmp, "tracks", "--sequence", tmp / "seq.npz", "--detections", tmp / "det.npz",
        "--within", 15, "--min-duration", 2,
    ))


def test_experiment(tmp_path):
    assert_pinned("experiment", run(tmp_path, "experiment", "--frames", 150))


def test_serve_workload(tmp_path):
    workload = tmp_path / "workload.txt"
    workload.write_text(
        "# one of each answer shape\n"
        "SELECT AVG OF COUNT(Car)\n"
        "SELECT FRAMES WHERE COUNT(Car DIST <= 20) >= 2\n"
        "SELECT MED OF COUNT(Pedestrian)\n"
    )
    assert_pinned("serve_workload", run(
        tmp_path, "serve-workload", "--frames", 150, "--workload", workload,
        "--show", 3,
    ))


def test_serve_workload_corpus(tmp_path):
    workload = tmp_path / "workload.txt"
    workload.write_text("\n".join(QUERIES[:3]) + "\n")
    assert_pinned("serve_workload_corpus", run(
        tmp_path, "serve-workload", "--corpus", *SPECS, "--workload", workload,
        "--show", 3,
    ))


def test_corpus(tmp_path):
    """Fan-out and scoped answers, then an unknown scope (exit 2)."""
    assert_pinned("corpus", run(tmp_path, "corpus", *QUERIES, "--sequences", *SPECS))


def test_stream(tmp_path):
    assert_pinned("stream", run(
        tmp_path, "stream", "SELECT AVG OF COUNT(Car)",
        "SELECT FRAMES WHERE COUNT(Car) >= 2",
        "SELECT FRAMES WHERE COUNT(Car) >= 2 IN SEQUENCE once-01-n40",
        "SELECT MED OF COUNT(Car) IN SEQUENCE semantickitti-00-n60",
        BAD_QUERY,
        "--sequences", "semantickitti:0:60", "once:1:40",
        "--query-every", 25, "--max-lag", 2, "--replan-every", 24,
    ))


def test_flow_run_tail_resume(tmp_path):
    ckpt = tmp_path / "flow"
    argv = ("--checkpoint-dir", ckpt, "--frames", 120,
            "--methods", "seiden_pc,mast", "--budgets", 0.1)
    assert_pinned("flow_run", run(tmp_path, "flow", "run", "experiment", *argv))
    assert_pinned("flow_tail", run(tmp_path, "flow", "tail", ckpt))
    assert_pinned("flow_resume", run(tmp_path, "flow", "resume", "experiment", *argv))


def test_flow_run_corpus(tmp_path):
    assert_pinned("flow_run_corpus", run(
        tmp_path, "flow", "run", "corpus", "--checkpoint-dir", tmp_path / "flow",
        "--sequences", "semantickitti:0:60", "once:1:40", "--n-retrieval", 4,
    ))


FLOW_DEFAULTS = {
    "command": "flow", "budgets": None, "checkpoint_dir": None,
    "dataset": "semantickitti", "events": None, "frames": None,
    "interrupt_after": None, "methods": "seiden_pc,seiden_pcst,mast",
    "model": "pv_rcnn", "n_retrieval": None, "policies": "uniform,ucb",
    "seed": 1, "sequence_index": 0, "sequences": None,
}


@pytest.mark.parametrize("argv, expected", [
    (["simulate", "--out", "s.npz"], {
        "command": "simulate", "dataset": "semantickitti", "frames": 1000,
        "out": "s.npz", "seed": None, "sequence_index": 0,
    }),
    (["fit", "--sequence", "s.npz", "--out", "d.npz"], {
        "command": "fit", "budget": 0.1, "model": "pv_rcnn", "out": "d.npz",
        "seed": 0, "sequence": "s.npz", "store": None,
    }),
    (["query", "--sequence", "s.npz", "--detections", "d.npz", "Q"], {
        "command": "query", "detections": "d.npz", "queries": ["Q"],
        "sequence": "s.npz",
    }),
    (["tracks", "--sequence", "s.npz", "--detections", "d.npz"], {
        "command": "tracks", "detections": "d.npz", "max_speed": 40.0,
        "min_duration": 4.0, "sequence": "s.npz", "within": None,
    }),
    (["experiment"], {
        "command": "experiment", "budget": 0.1, "dataset": "semantickitti",
        "frames": 1000, "model": "pv_rcnn", "seed": 1, "sequence_index": 0,
    }),
    (["serve-workload"], {
        "command": "serve-workload", "budget": 0.1,
        "corpus": None, "dataset": "semantickitti", "frames": 600,
        "model": "pv_rcnn", "queries": 50, "repeat": 2, "seed": 1,
        "sequence_index": 0, "show": 5, "workload": None,
    }),
    (["corpus", "--sequences", "once"], {
        "command": "corpus", "budget": 0.1, "model": "pv_rcnn", "policy": "ucb",
        "queries": [], "round_size": 8, "seed": 1, "sequences": ["once"],
    }),
    (["stream", "--sequences", "once"], {
        "command": "stream", "batch": 1, "budget": 0.1, "initial": 8,
        "jitter": 0.0, "max_lag": 0, "model": "pv_rcnn", "policy": "ucb",
        "queries": [], "query_every": 0, "rate": 10.0, "replan_every": 32,
        "round_size": 8, "seed": 1, "sequences": ["once"],
    }),
    (["flow", "run", "experiment"],
     {**FLOW_DEFAULTS, "action": "run", "flow_name": "experiment"}),
    (["flow", "resume", "corpus"],
     {**FLOW_DEFAULTS, "action": "resume", "flow_name": "corpus"}),
    (["flow", "tail", "ev"], {
        "command": "flow", "action": "tail", "events": "ev", "follow": False,
    }),
    (["lint"], {"command": "lint", "args": []}),
])
def test_parser_defaults(argv, expected):
    assert vars(build_parser().parse_args(argv)) == expected
