"""Event log: JSONL robustness, rendering, and tailing."""

import io
import json

from repro.flow import EventLog, format_event, read_events, tail_events


def write_events(path, records):
    path.write_text(
        "".join(json.dumps(record) + "\n" for record in records),
        encoding="utf-8",
    )


class TestEventLog:
    def test_none_path_is_a_no_op(self):
        log = EventLog(None)
        log.emit("run_start", flow="t")
        log.close()

    def test_appends_and_numbers_events(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.emit("run_start", flow="t")
        with EventLog(path) as log:
            log.emit("run_finish", steps=[])
        records = read_events(path)
        assert [record["event"] for record in records] == [
            "run_start",
            "run_finish",
        ]
        # A second log on the same file continues its numbering.
        assert [record["seq"] for record in records] == [1, 2]

    def test_numbering_continues_past_a_truncated_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        write_events(path, [{"event": "run_start", "seq": 7}])
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"event": "step_st')
        with EventLog(path) as log:
            log.emit("run_finish", steps=[])
        assert [record["seq"] for record in read_events(path)] == [7, 8]

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "events.jsonl"
        with EventLog(path) as log:
            log.emit("run_start")
        assert path.is_file()


class TestReadEvents:
    def test_skips_truncated_final_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"event": "run_start", "seq": 1}\n{"event": "step_st',
            encoding="utf-8",
        )
        records = read_events(path)
        assert [record["event"] for record in records] == ["run_start"]

    def test_skips_blank_lines_and_non_objects(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            '\n{"event": "run_start", "seq": 1}\n\n[1, 2]\n',
            encoding="utf-8",
        )
        assert len(read_events(path)) == 1


class TestFormatEvent:
    def test_run_start_and_resume(self):
        record = {"event": "run_start", "seq": 1, "flow": "f", "steps": ["a"]}
        assert "run f (1 steps)" in format_event(record)
        record["resumed"] = True
        assert "resume f (1 steps)" in format_event(record)

    def test_step_lifecycle_markers(self):
        assert "> oracle" in format_event(
            {"event": "step_start", "seq": 2, "step": "oracle", "key": "k"}
        )
        assert "+ oracle (1.25s)" in format_event(
            {"event": "step_finish", "seq": 3, "step": "oracle", "seconds": 1.25}
        )
        assert "= oracle (skip-cached)" in format_event(
            {"event": "step_cached", "seq": 2, "step": "oracle"}
        )

    def test_terminal_events(self):
        assert "interrupted after oracle" in format_event(
            {"event": "run_interrupt", "seq": 5, "after": "oracle"}
        )
        assert "oracle: ValueError: boom" in format_event(
            {"event": "run_error", "seq": 5, "step": "oracle",
             "error": "ValueError: boom"}
        )
        assert "done (2 steps replayed" in format_event(
            {"event": "run_finish", "seq": 9, "steps": [], "cached": ["a", "b"]}
        )

    def test_unknown_event_falls_back_to_json(self):
        line = format_event({"event": "novel", "seq": 1, "x": 2})
        assert "novel" in line and '"x": 2' in line


class TestTail:
    def test_prints_every_event(self, tmp_path):
        path = tmp_path / "events.jsonl"
        write_events(path, [
            {"event": "run_start", "seq": 1, "flow": "f", "steps": ["a"]},
            {"event": "step_start", "seq": 2, "step": "a"},
            {"event": "step_finish", "seq": 3, "step": "a", "seconds": 0.5},
            {"event": "run_finish", "seq": 4, "steps": ["a"], "cached": []},
        ])
        out = io.StringIO()
        printed = tail_events(path, out)
        assert printed == 4
        assert len(out.getvalue().splitlines()) == 4

    def test_follow_stops_at_run_finish(self, tmp_path):
        path = tmp_path / "events.jsonl"
        write_events(path, [
            {"event": "run_start", "seq": 1, "flow": "f", "steps": []},
            {"event": "run_finish", "seq": 2, "steps": [], "cached": []},
            {"event": "run_start", "seq": 3, "flow": "f", "steps": []},
        ])
        out = io.StringIO()
        printed = tail_events(path, out, follow=True, poll_seconds=0.01)
        assert printed == 2  # stops at the first terminal event
