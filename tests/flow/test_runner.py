"""Runner mechanics: keying, replay, crash/resume, events, step ledgers."""

import pytest

from repro.flow import (
    KEY_SCHEME,
    CheckpointStore,
    Flow,
    FlowInterrupted,
    FlowRunner,
    read_events,
    stable_digest,
)


def make_flow(calls):
    """base -> double -> (report over [double, base]); counts executions."""
    flow = Flow("toy")

    def base(value):
        calls.append("base")
        return value

    def double(x):
        calls.append("double")
        return 2 * x

    def report(parts):
        calls.append("report")
        return sum(parts)

    flow.add(base, name="base", params={"value": 3})
    flow.add(double, name="double", deps={"x": "base"})
    flow.add(report, name="report", deps={"parts": ("double", "base")})
    return flow


class TestExecution:
    def test_runs_in_order_and_wires_outputs(self, tmp_path):
        calls = []
        result = FlowRunner(make_flow(calls), checkpoint_dir=tmp_path).run()
        assert calls == ["base", "double", "report"]
        assert result["base"] == 3
        assert result["double"] == 6
        assert result["report"] == 9
        assert result.cached == set()

    def test_fan_in_delivers_tuple_in_declaration_order(self, tmp_path):
        flow = Flow("t")
        flow.add(lambda: "a", name="a")
        flow.add(lambda: "b", name="b")

        def join(parts):
            return parts

        flow.add(join, name="join", deps={"parts": ("b", "a")})
        result = FlowRunner(flow, checkpoint_dir=tmp_path).run()
        assert result["join"] == ("b", "a")

    def test_checkpoint_key_chains_name_params_upstreams(self, tmp_path):
        calls = []
        result = FlowRunner(make_flow(calls), checkpoint_dir=tmp_path).run()
        base_key = stable_digest((KEY_SCHEME, "base", (("value", 3),), ()))
        assert result.keys["base"] == base_key
        double_key = stable_digest(
            (KEY_SCHEME, "double", (), (("base", result.fingerprints["base"]),))
        )
        assert result.keys["double"] == double_key

    def test_params_change_the_key(self, tmp_path):
        def identity(value):
            return value

        keys = []
        for value in (1, 2):
            flow = Flow("t")
            flow.add(identity, name="a", params={"value": value})
            result = FlowRunner(flow, checkpoint_dir=tmp_path / str(value)).run()
            keys.append(result.keys["a"])
        assert keys[0] != keys[1]

    def test_upstream_content_change_invalidates_downstream(self, tmp_path):
        """Same wiring, different upstream output -> new downstream key."""

        def down(x):
            return x

        def constant(value):
            def up():
                return value

            return up

        keys = []
        for value in (1, 2):
            flow = Flow("t")
            flow.add(constant(value), name="up")
            flow.add(down, name="down", deps={"x": "up"})
            result = FlowRunner(flow, checkpoint_dir=tmp_path / str(value)).run()
            keys.append(result.keys["down"])
        assert keys[0] != keys[1]

    def test_interrupt_after_unknown_step_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown step"):
            FlowRunner(
                make_flow([]), checkpoint_dir=tmp_path, interrupt_after="ghost"
            )


class TestReplay:
    def test_second_run_replays_everything(self, tmp_path):
        calls = []
        flow = make_flow(calls)
        first = FlowRunner(flow, checkpoint_dir=tmp_path).run()
        second = FlowRunner(flow, checkpoint_dir=tmp_path).run()
        assert calls == ["base", "double", "report"]  # no re-execution
        assert second.cached == {"base", "double", "report"}
        assert second.outputs == first.outputs
        assert second.fingerprints == first.fingerprints

    def test_executions_match_checkpoint_store_misses(self, tmp_path):
        """No double-charge: every cacheable step runs exactly once."""
        calls = []
        flow = make_flow(calls)
        runner = FlowRunner(flow, checkpoint_dir=tmp_path)
        runner.run()
        FlowRunner(flow, checkpoint_dir=tmp_path).run()
        FlowRunner(flow, checkpoint_dir=tmp_path).run()
        assert len(calls) == len(runner.store) == 3

    def test_cache_false_steps_recompute_every_run(self, tmp_path):
        calls = []
        flow = Flow("t")

        def build():
            calls.append("build")
            return 7

        def down(x):
            calls.append("down")
            return x + 1

        flow.add(build, name="build", cache=False)
        flow.add(down, name="down", deps={"x": "build"})
        FlowRunner(flow, checkpoint_dir=tmp_path).run()
        result = FlowRunner(flow, checkpoint_dir=tmp_path).run()
        assert calls == ["build", "down", "build"]
        assert result.cached == {"down"}
        assert result["down"] == 8

    def test_inputs_fingerprint_is_the_key_itself(self, tmp_path):
        flow = Flow("t")
        flow.add(lambda: 1, name="a", cache=False)
        result = FlowRunner(flow, checkpoint_dir=tmp_path).run()
        assert result.fingerprints["a"] == result.keys["a"]

    def test_cached_fingerprint_is_the_saved_digest(self, tmp_path):
        flow = make_flow([])
        first = FlowRunner(flow, checkpoint_dir=tmp_path).run()
        replayed = FlowRunner(flow, checkpoint_dir=tmp_path).run()
        store = CheckpointStore(tmp_path / "steps")
        for name in flow.names():
            saved = store.load(first.keys[name]).fingerprint
            assert saved == stable_digest(first[name])
            assert first.fingerprints[name] == replayed.fingerprints[name] == saved


class TestCrashResume:
    def test_interrupt_raises_after_checkpoint_written(self, tmp_path):
        calls = []
        runner = FlowRunner(
            make_flow(calls), checkpoint_dir=tmp_path, interrupt_after="double"
        )
        with pytest.raises(FlowInterrupted, match="after step 'double'"):
            runner.run()
        assert calls == ["base", "double"]
        assert len(runner.store) == 2  # base + double persisted

    def test_resume_is_bit_identical_to_uninterrupted_run(self, tmp_path):
        clean_calls = []
        clean = FlowRunner(
            make_flow(clean_calls), checkpoint_dir=tmp_path / "clean"
        ).run()

        calls = []
        flow = make_flow(calls)
        with pytest.raises(FlowInterrupted):
            FlowRunner(
                flow, checkpoint_dir=tmp_path / "crash", interrupt_after="double"
            ).run()
        resumed = FlowRunner(flow, checkpoint_dir=tmp_path / "crash").run()

        assert calls == ["base", "double", "report"]  # each step ran once
        assert resumed.cached == {"base", "double"}
        assert resumed.outputs == clean.outputs
        assert resumed.fingerprints == clean.fingerprints
        assert stable_digest(resumed.outputs) == stable_digest(clean.outputs)


class TestEventsAndContext:
    def test_event_stream_shape(self, tmp_path):
        calls = []
        flow = make_flow(calls)
        events_path = tmp_path / "events.jsonl"
        FlowRunner(
            flow, checkpoint_dir=tmp_path, events_path=events_path
        ).run()
        records = read_events(events_path)
        kinds = [record["event"] for record in records]
        assert kinds == [
            "run_start",
            "step_start", "step_finish",
            "step_start", "step_finish",
            "step_start", "step_finish",
            "run_finish",
        ]
        assert records[0]["resumed"] is False
        assert records[0]["steps"] == ["base", "double", "report"]
        assert [record["seq"] for record in records] == list(range(1, 9))
        assert all("timestamp" not in record for record in records)

    def test_resumed_run_reports_skip_cached_events(self, tmp_path):
        flow = make_flow([])
        FlowRunner(flow, checkpoint_dir=tmp_path).run()
        events_path = tmp_path / "resume-events.jsonl"
        FlowRunner(
            flow, checkpoint_dir=tmp_path, events_path=events_path
        ).run()
        records = read_events(events_path)
        assert records[0]["resumed"] is True
        cached_steps = [
            record["step"]
            for record in records
            if record["event"] == "step_cached"
        ]
        assert cached_steps == ["base", "double", "report"]
        assert records[-1]["cached"] == ["base", "double", "report"]

    def test_failing_step_emits_run_error(self, tmp_path):
        flow = Flow("t")

        def boom():
            raise RuntimeError("boom")

        flow.add(boom, name="boom")
        events_path = tmp_path / "events.jsonl"
        with pytest.raises(RuntimeError, match="boom"):
            FlowRunner(
                flow, checkpoint_dir=tmp_path, events_path=events_path
            ).run()
        records = read_events(events_path)
        assert records[-1]["event"] == "run_error"
        assert records[-1]["step"] == "boom"
        assert "RuntimeError: boom" in records[-1]["error"]

    def test_step_ledger_delta_lands_in_step_finish(self, tmp_path):
        """A step's bill is its output's ``ledger`` when that is a
        ``CostLedger``; any other output reports a null ledger."""
        from types import SimpleNamespace

        from repro.utils.timing import STAGE_MODEL, CostLedger

        flow = Flow("t")

        def charged():
            ledger = CostLedger()
            ledger.charge(STAGE_MODEL, 2.5, count=5)
            return SimpleNamespace(ledger=ledger)

        def plain():
            return 1

        def not_a_ledger():
            return SimpleNamespace(ledger={"counts": {STAGE_MODEL: 5}})

        for fn in (charged, plain, not_a_ledger):
            flow.add(fn, name=fn.__name__, cache=False)
        events_path = tmp_path / "events.jsonl"
        FlowRunner(
            flow, checkpoint_dir=tmp_path, events_path=events_path
        ).run()
        ledgers = {
            record["step"]: record["ledger"]
            for record in read_events(events_path)
            if record["event"] == "step_finish"
        }
        assert ledgers["charged"]["counts"] == {STAGE_MODEL: 5}
        assert ledgers["charged"]["simulated"] == {STAGE_MODEL: 2.5}
        assert ledgers["plain"] is None
        assert ledgers["not_a_ledger"] is None
