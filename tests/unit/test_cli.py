"""Unit tests for the command-line interface."""

import argparse
import io
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main


def run_cli(*argv) -> tuple[int, str]:
    out = io.StringIO()
    status = main(list(argv), out=out)
    return status, out.getvalue()


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """A simulated sequence + fitted detections on disk."""
    root = tmp_path_factory.mktemp("cli")
    seq_path = root / "seq.npz"
    det_path = root / "det.npz"
    status, _ = run_cli(
        "simulate", "--dataset", "semantickitti", "--frames", "200",
        "--out", str(seq_path),
    )
    assert status == 0
    status, _ = run_cli(
        "fit", "--sequence", str(seq_path), "--model", "pv_rcnn",
        "--budget", "0.15", "--out", str(det_path),
    )
    assert status == 0
    return seq_path, det_path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--dataset", "waymo", "--out", "x"])

    def test_detection_scheduling_flags_are_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["fit", "--sequence", "s", "--out", "d", "--executor", "thread"]
            )

    def test_documented_flags_exist(self):
        """Every ``repro <subcommand> ... --flag`` in a code span or block
        of README.md / docs/*.md is an option of that subcommand."""
        from repro.analysis.cli import build_lint_parser

        def subcommands(parser):
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    return action.choices
            return {}

        root = Path(__file__).resolve().parents[2]
        top = build_parser()
        unknown = []
        for doc in [root / "README.md", *sorted((root / "docs").glob("*.md"))]:
            text = doc.read_text().replace("\\\n", " ")
            code = re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.DOTALL)
            for command in re.findall(r"\brepro ([^\n`#|;&]+)", "\n".join(code)):
                parser, path = top, []
                for word in command.split():
                    if word not in subcommands(parser):
                        break
                    parser = subcommands(parser)[word]
                    path.append(word)
                if not path:
                    continue
                if path == ["lint"]:  # forwards its arguments to the linter's parser
                    parser = build_lint_parser()
                unknown += [
                    f"{doc.name}: repro {' '.join(path)} {flag}"
                    for flag in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", command)
                    if flag not in parser._option_string_actions
                ]
        assert not unknown

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "--out", "x.npz"])
        assert args.dataset == "semantickitti"
        assert args.frames == 1000


class TestFailureContract:
    """A bad input ends in one ``error:`` line and exit 2, never a traceback.

    (``flow run … --budgets 1.5`` is pinned in ``tests/flow/test_cli_flow.py``.)
    """

    @pytest.mark.parametrize("argv", [
        ["fit", "--sequence", "nonexistent.npz", "--out", "d.npz"],
        ["simulate", "--frames", "0", "--out", "s.npz"],
        ["experiment", "--budget", "1.5"],
        ["corpus", "--sequences", "semantickitti:0:60", "--budget", "0"],
        ["corpus", "--sequences", "semantickitti:0:60", "--round-size", "0"],
        ["serve-workload", "--budget", "2"],
    ], ids=lambda argv: " ".join(argv))
    def test_bad_input_prints_one_error_line(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        status, output = run_cli(*argv)
        assert status == 2
        assert output.startswith("error: ")
        assert output.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestSimulate:
    def test_writes_sequence(self, tmp_path):
        out_path = tmp_path / "seq.npz"
        status, output = run_cli(
            "simulate", "--frames", "50", "--out", str(out_path)
        )
        assert status == 0
        assert out_path.exists()
        assert "wrote" in output

    def test_deterministic_with_seed(self, tmp_path):
        from repro.data import load_sequence

        a_path, b_path = tmp_path / "a.npz", tmp_path / "b.npz"
        run_cli("simulate", "--frames", "40", "--seed", "9", "--out", str(a_path))
        run_cli("simulate", "--frames", "40", "--seed", "9", "--out", str(b_path))
        a, b = load_sequence(a_path), load_sequence(b_path)
        assert list(a.ground_truth_counts()) == list(b.ground_truth_counts())


class TestFit:
    def test_reports_budget(self, checkpoint):
        seq_path, det_path = checkpoint
        assert det_path.exists()

    def test_budget_respected(self, checkpoint):
        from repro.data import load_detections

        _, det_path = checkpoint
        detections, model_name = load_detections(det_path)
        assert model_name == "pv_rcnn"
        assert len(detections) == round(0.15 * 200)


class TestQuery:
    def test_retrieval_query(self, checkpoint):
        seq_path, det_path = checkpoint
        status, output = run_cli(
            "query", "--sequence", str(seq_path), "--detections", str(det_path),
            "SELECT FRAMES WHERE COUNT(Car DIST <= 20) >= 1",
        )
        assert status == 0
        assert "frames" in output

    def test_aggregate_query(self, checkpoint):
        seq_path, det_path = checkpoint
        status, output = run_cli(
            "query", "--sequence", str(seq_path), "--detections", str(det_path),
            "SELECT AVG OF COUNT(Car)",
        )
        assert status == 0
        assert "->" in output

    def test_multiple_queries(self, checkpoint):
        seq_path, det_path = checkpoint
        status, output = run_cli(
            "query", "--sequence", str(seq_path), "--detections", str(det_path),
            "SELECT MIN OF COUNT(Car)", "SELECT MAX OF COUNT(Car)",
        )
        assert status == 0
        assert output.count("->") == 2

    def test_bad_query_sets_status(self, checkpoint):
        seq_path, det_path = checkpoint
        status, output = run_cli(
            "query", "--sequence", str(seq_path), "--detections", str(det_path),
            "SELECT NONSENSE",
        )
        assert status == 2
        assert "error" in output

    @pytest.mark.parametrize("text", [
        "SELECT FRAMES WHERE COUNT(Car DIST <= 20) >= 1",
        "SELECT AVG OF COUNT(Car DIST <= 20)",
        "SELECT MED OF COUNT(Car DIST <= 20)",
        "SELECT COUNT FRAMES WHERE COUNT(Car DIST <= 20) >= 2",
    ])
    def test_answers_as_the_pipeline_does(self, checkpoint, text):
        """``repro query`` routes by the §7.1 assignment (Avg is linear)."""
        from repro.cli import _format_answer, _load_checkpoint
        from repro.core import MASTPipeline
        from repro.models import pv_rcnn

        seq_path, det_path = checkpoint
        sequence, _, sampling = _load_checkpoint(seq_path, det_path)
        pipeline = MASTPipeline().fit_from_sampling(sequence, pv_rcnn(), sampling)
        expected = io.StringIO()
        _format_answer(text, pipeline.query(text), expected)

        status, output = run_cli(
            "query", "--sequence", str(seq_path), "--detections", str(det_path), text
        )
        assert status == 0
        assert output == expected.getvalue()


class TestExperiment:
    def test_prints_method_table(self):
        status, output = run_cli(
            "experiment", "--frames", "300", "--budget", "0.1"
        )
        assert status == 0
        for method in ("seiden_pc", "seiden_pcst", "mast"):
            assert method in output
        assert "retrieval F1" in output


class TestServeWorkload:
    def test_generated_workload(self):
        status, output = run_cli(
            "serve-workload", "--frames", "200", "--queries", "12",
            "--repeat", "2", "--show", "2",
        )
        assert status == 0
        assert "served 2 x 12 queries" in output
        assert "cache:" in output
        assert "hits" in output
        assert output.count("->") == 2

    def test_workload_file(self, tmp_path):
        workload = tmp_path / "workload.txt"
        workload.write_text(
            "# demo workload\n"
            "SELECT AVG OF COUNT(Car)\n"
            "\n"
            "SELECT FRAMES WHERE COUNT(Car) >= 1\n"
        )
        status, output = run_cli(
            "serve-workload", "--frames", "150", "--workload", str(workload),
            "--repeat", "1", "--show", "0",
        )
        assert status == 0
        assert "served 1 x 2 queries" in output

    def test_bad_workload_file(self, tmp_path):
        workload = tmp_path / "bad.txt"
        workload.write_text("SELECT NONSENSE\n")
        status, output = run_cli(
            "serve-workload", "--frames", "150", "--workload", str(workload),
        )
        assert status == 2
        assert "error" in output

    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve-workload"])
        assert args.queries == 50
        assert args.repeat == 2


class TestTracks:
    def test_summary_table(self, checkpoint):
        seq_path, det_path = checkpoint
        status, output = run_cli(
            "tracks", "--sequence", str(seq_path), "--detections", str(det_path),
        )
        assert status == 0
        assert "tracks stitched" in output
        assert "Car" in output

    def test_within_listing(self, checkpoint):
        seq_path, det_path = checkpoint
        status, output = run_cli(
            "tracks", "--sequence", str(seq_path), "--detections", str(det_path),
            "--within", "15", "--min-duration", "2",
        )
        assert status == 0
        assert "within 15 m" in output

    def test_max_speed_flag(self, checkpoint):
        seq_path, det_path = checkpoint
        status, output = run_cli(
            "tracks", "--sequence", str(seq_path), "--detections", str(det_path),
            "--max-speed", "5",
        )
        assert status == 0
