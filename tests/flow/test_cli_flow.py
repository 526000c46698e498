"""CLI surface: ``repro flow run/resume/tail`` end to end (tiny flows)."""

import io
import shutil

import pytest

from repro.cli import main
from repro.flow import CheckpointCorrupted, CheckpointStore, stable_digest


def run_cli(*argv) -> tuple[int, str]:
    out = io.StringIO()
    status = main(list(argv), out=out)
    return status, out.getvalue()


def run_flow(*argv, ckpt) -> tuple[int, str]:
    return run_cli(
        "flow", *argv,
        "--checkpoint-dir", str(ckpt),
        "--frames", "120",
        "--methods", "seiden_pc,mast",
        "--budgets", "0.1",
    )


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    """One completed tiny experiment flow (shared by read-only tests)."""
    ckpt = tmp_path_factory.mktemp("flow-cli")
    status, output = run_flow("run", "experiment", ckpt=ckpt)
    assert status == 0
    return ckpt, output


class TestRun:
    def test_run_prints_tables_and_digests(self, completed_run):
        _, output = completed_run
        assert "steps executed, 0 replayed" in output
        assert "retrieval F1 vs sampling budget" in output
        assert "report digest [10pct]:" in output

    def test_second_run_replays_from_checkpoints(self, completed_run):
        ckpt, first = completed_run
        status, second = run_flow("run", "experiment", ckpt=ckpt)
        assert status == 0
        # Everything cacheable replayed, the sequence too (the workload and
        # the report assembly are rebuilt); digests unchanged.
        assert "2 steps executed, 5 replayed from checkpoints" in second
        assert first.splitlines()[-1] == second.splitlines()[-1]

    def test_interrupt_after_exits_3(self, tmp_path):
        status, output = run_flow(
            "run", "experiment", "--interrupt-after", "oracle", ckpt=tmp_path
        )
        assert status == 3
        assert "interrupted after step 'oracle'" in output

    def test_interrupted_run_resumes_to_the_same_digest(
        self, tmp_path, completed_run
    ):
        _, clean_output = completed_run
        status, _ = run_flow(
            "run", "experiment", "--interrupt-after", "oracle", ckpt=tmp_path
        )
        assert status == 3
        status, resumed = run_flow("resume", "experiment", ckpt=tmp_path)
        assert status == 0
        digest = [
            line for line in resumed.splitlines() if "report digest" in line
        ]
        assert digest == [
            line for line in clean_output.splitlines() if "report digest" in line
        ]

    def test_corpus_flow_requires_sequences(self, tmp_path):
        status, output = run_cli(
            "flow", "run", "corpus", "--checkpoint-dir", str(tmp_path)
        )
        assert status == 2
        assert "requires --sequences" in output


class TestArgumentValidation:
    """A bad name or budget is refused before any step runs or writes."""

    @pytest.mark.parametrize("action", ["run", "resume"])
    def test_unknown_method_exits_2_without_a_checkpoint(
        self, action, completed_run, tmp_path
    ):
        ckpt = tmp_path / "flow"
        if action == "resume":
            shutil.copytree(completed_run[0], ckpt)
        before = sorted(ckpt.rglob("*")) if ckpt.exists() else []
        status, output = run_cli(
            "flow", action, "experiment", "--checkpoint-dir", str(ckpt),
            "--frames", "120", "--methods", "mast,nosuch", "--budgets", "0.1",
        )
        assert status == 2
        assert output.startswith("error: unknown method 'nosuch'; options: [")
        assert (sorted(ckpt.rglob("*")) if ckpt.exists() else []) == before

    def test_unknown_policy_exits_2_without_a_checkpoint(self, tmp_path):
        ckpt = tmp_path / "flow"
        status, output = run_cli(
            "flow", "run", "corpus", "--checkpoint-dir", str(ckpt),
            "--sequences", "semantickitti:0:60", "--policies", "uniform,nosuch",
        )
        assert status == 2
        assert output.startswith("error: policy must be one of")
        assert "'nosuch'" in output
        assert not ckpt.exists()

    @pytest.mark.parametrize("flow_name, argv", [
        ("experiment", ["--frames", "120", "--methods", "mast", "--budgets", "0.1,1.5"]),
        ("corpus", ["--sequences", "semantickitti:0:60", "--budgets", "1.5"]),
    ])
    def test_bad_budget_exits_2_without_a_checkpoint(self, flow_name, argv, tmp_path):
        ckpt = tmp_path / "flow"
        status, output = run_cli(
            "flow", "run", flow_name, "--checkpoint-dir", str(ckpt), *argv
        )
        assert status == 2
        assert output == "error: budget_fraction must be in (0, 1), got 1.5\n"
        assert not ckpt.exists()

    def test_corpus_flow_refuses_a_budget_sweep(self, tmp_path):
        ckpt = tmp_path / "flow"
        status, output = run_cli(
            "flow", "run", "corpus", "--checkpoint-dir", str(ckpt),
            "--sequences", "semantickitti:0:60", "--budgets", "0.05,0.10",
        )
        assert status == 2
        assert output.startswith("error: the corpus flow takes one budget, got 2")
        assert not ckpt.exists()


def smallest_checkpoint(ckpt):
    return min((ckpt / "steps").glob("*.ckpt"), key=lambda path: path.stat().st_size)


class TestResume:
    def test_resume_without_checkpoints_exits_2(self, tmp_path):
        status, output = run_flow("resume", "experiment", ckpt=tmp_path / "none")
        assert status == 2
        assert "nothing to resume" in output

    def test_resume_over_a_flipped_checkpoint_exits_2(self, completed_run, tmp_path):
        ckpt, _ = completed_run
        copy = tmp_path / "flow"
        shutil.copytree(ckpt, copy)
        path = smallest_checkpoint(copy)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        status, output = run_flow("resume", "experiment", ckpt=copy)
        assert status == 2
        assert output.startswith(f"error: checkpoint {path}")


def test_every_flipped_byte_is_refused_or_replays_identically(completed_run, tmp_path):
    """Three single-bit flips per byte of a real checkpoint: each load is
    a ``CheckpointCorrupted`` or the very result that was saved — never
    another exception, never a different value."""
    ckpt, _ = completed_run
    source = smallest_checkpoint(ckpt)
    key = source.stem
    original = CheckpointStore(ckpt / "steps").load(key)
    want = (original.key, original.fingerprint, stable_digest(original.value))
    store = CheckpointStore(tmp_path)
    data = source.read_bytes()
    outcomes = {"refused": 0, "identical": 0}
    for position in range(len(data)):
        for bit in (0, 3, 7):
            flipped = bytearray(data)
            flipped[position] ^= 1 << bit
            store.path(key).write_bytes(bytes(flipped))
            try:
                loaded = store.load(key)
            except CheckpointCorrupted:
                outcomes["refused"] += 1
                continue
            assert (loaded.key, loaded.fingerprint, stable_digest(loaded.value)) == want
            outcomes["identical"] += 1
    assert outcomes["refused"] > outcomes["identical"] > 0


class TestTail:
    def test_tail_renders_the_event_stream(self, completed_run):
        ckpt, _ = completed_run
        status, output = run_cli("flow", "tail", str(ckpt))
        assert status == 0
        lines = output.splitlines()
        assert any("run experiment-semantickitti-0" in line for line in lines)
        assert any(line.endswith("> oracle") for line in lines)
        assert "done (" in lines[-1]

    def test_tail_missing_events_exits_2(self, tmp_path):
        status, output = run_cli("flow", "tail", str(tmp_path))
        assert status == 2
        assert "no event log" in output
