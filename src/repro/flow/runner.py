"""Topological flow execution with checkpoint replay and events.

The runner walks a :class:`~repro.flow.definition.Flow` in topological
order.  For each step it computes a *checkpoint key* — a digest of the
step name, its static params, and the fingerprints of its upstream
results, chained from the root of the DAG — and then either

* replays the persisted result (``step_cached``: the checkpoint store
  verifies the value still matches its saved fingerprint), or
* executes the step function under the run ledger's ``measure`` channel,
  persists the result, and records its fingerprint.  The ``step_finish``
  event carries the deterministic state of the output's ``ledger`` (a
  :class:`~repro.utils.timing.CostLedger`), or null for an output
  without one.

A step's fingerprint follows from its ``cache`` flag: a cached step's is
the digest of its saved checkpoint, a ``cache=False`` step's is its
checkpoint key (its inputs pin its output; nothing is stored to digest).

Because the key chains upstream *content*, a resumed run recomputes
exactly the steps whose inputs changed and replays the rest
bit-identically.  Crash recovery is the same mechanism: re-running the
flow against the same checkpoint directory skips every step that
completed before the crash.

``interrupt_after=<step>`` turns a crash into a deterministic drill:
the runner raises :class:`FlowInterrupted` immediately *after* that
step's checkpoint is written, which is what the resume test suite uses
to kill runs at step granularity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.flow.checkpoint import CheckpointStore
from repro.flow.definition import Flow, StepSpec
from repro.flow.events import EventLog
from repro.flow.fingerprint import stable_digest
from repro.utils.timing import CostLedger

__all__ = ["FlowInterrupted", "FlowResult", "FlowRunner"]

#: Version tag mixed into every checkpoint key so a change to the
#: keying scheme invalidates old checkpoints instead of mis-replaying.
KEY_SCHEME = "repro-flow-v1"


class FlowInterrupted(RuntimeError):
    """Raised by the deterministic crash drill (``interrupt_after``)."""

    def __init__(self, step: str) -> None:
        super().__init__(
            f"flow interrupted after step {step!r} (checkpoint written); "
            "re-run with the same checkpoint directory to resume"
        )
        self.step = step


@dataclass
class FlowResult:
    """Everything a completed run knows about itself."""

    flow: str
    #: Step name -> computed (or replayed) output.
    outputs: dict[str, object] = field(default_factory=dict)
    #: Step name -> checkpoint key.
    keys: dict[str, str] = field(default_factory=dict)
    #: Step name -> result fingerprint.
    fingerprints: dict[str, str] = field(default_factory=dict)
    #: Names of steps replayed from checkpoints rather than executed.
    cached: set[str] = field(default_factory=set)
    #: Wall-clock per executed step, via ledger.measured["step:<name>"].
    ledger: CostLedger = field(default_factory=CostLedger)

    def __getitem__(self, step: str) -> object:
        return self.outputs[step]


class FlowRunner:
    """Executes a flow against a checkpoint directory."""

    def __init__(
        self,
        flow: Flow,
        *,
        checkpoint_dir: str | Path,
        events_path: str | Path | None = None,
        interrupt_after: str | None = None,
    ) -> None:
        self.flow = flow
        self.store = CheckpointStore(Path(checkpoint_dir) / "steps")
        self.events_path = Path(events_path) if events_path else None
        if interrupt_after is not None and interrupt_after not in flow:
            raise ValueError(
                f"interrupt_after names unknown step {interrupt_after!r}"
            )
        self.interrupt_after = interrupt_after

    def run(self) -> FlowResult:
        """Execute (or resume) the flow; see the module docstring."""
        order = self.flow.order()
        result = FlowResult(flow=self.flow.name)
        resumed = len(self.store) > 0
        with EventLog(self.events_path) as events:
            events.emit(
                "run_start",
                flow=self.flow.name,
                steps=list(order),
                resumed=resumed,
            )
            try:
                for name in order:
                    self._run_step(self.flow.spec(name), result, events)
                    if name == self.interrupt_after:
                        events.emit("run_interrupt", after=name)
                        raise FlowInterrupted(name)
            except FlowInterrupted:
                raise
            except Exception as error:
                events.emit(
                    "run_error",
                    step=_last_step(result, order),
                    error=f"{type(error).__name__}: {error}",
                )
                raise
            events.emit(
                "run_finish",
                steps=list(order),
                cached=sorted(result.cached),
            )
        return result

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _run_step(
        self, spec: StepSpec, result: FlowResult, events: EventLog
    ) -> None:
        key = self._checkpoint_key(spec, result)
        result.keys[spec.name] = key
        if spec.cache and key in self.store:
            checkpoint = self.store.load(key)
            result.outputs[spec.name] = checkpoint.value
            result.fingerprints[spec.name] = checkpoint.fingerprint
            result.cached.add(spec.name)
            events.emit(
                "step_cached",
                step=spec.name,
                key=key,
                fingerprint=checkpoint.fingerprint,
            )
            return
        events.emit("step_start", step=spec.name, key=key)
        kwargs: dict[str, object] = {}
        for parameter, upstreams, fan_in in spec.deps:
            values = tuple(result.outputs[name] for name in upstreams)
            kwargs[parameter] = values if fan_in else values[0]
        kwargs.update(dict(spec.params))
        stage = f"step:{spec.name}"
        with result.ledger.measure(stage):
            value = spec.fn(**kwargs)
        fingerprint = (
            self.store.save(key, spec.name, value) if spec.cache else key
        )
        result.outputs[spec.name] = value
        result.fingerprints[spec.name] = fingerprint
        ledger = getattr(value, "ledger", None)
        events.emit(
            "step_finish",
            step=spec.name,
            key=key,
            fingerprint=fingerprint,
            seconds=result.ledger.measured.get(stage, 0.0),
            ledger=(
                ledger.deterministic_state()
                if isinstance(ledger, CostLedger)
                else None
            ),
        )

    def _checkpoint_key(self, spec: StepSpec, result: FlowResult) -> str:
        upstream_prints = tuple(
            (name, result.fingerprints[name]) for name in spec.upstreams()
        )
        return stable_digest(
            (KEY_SCHEME, spec.name, spec.params, upstream_prints)
        )


def _last_step(result: FlowResult, order: tuple[str, ...]) -> str | None:
    """The step that was executing when a run died (best effort)."""
    for name in order:
        if name not in result.outputs:
            return name
    return None
