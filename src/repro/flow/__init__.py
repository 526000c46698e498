"""``repro.flow`` — a durable DAG runner for experiment pipelines.

Experiments are expressed as *flows* of pure step functions registered
with ``Flow.add``.  Each step names every input at registration
(upstream steps in ``deps``, static values in ``params``), returns its
only effect (its bill is its output's ``ledger``), is keyed by a
content-addressed fingerprint chain (seed + config + upstream content,
the DetectionStore idea lifted to whole pipeline stages), and persists
its result to a checkpoint store.  Re-running a flow against the same
checkpoint directory replays completed steps bit-identically — which
makes crash recovery, iterative development, and shared sub-DAGs (one
oracle pass feeding many budget sweeps) the same mechanism.

Structured JSONL events (:mod:`repro.flow.events`) expose run progress
without wall-clock timestamps; ``repro flow run/resume/tail`` is the
CLI surface.  See ``docs/experiments.md`` for the step contract.
"""

from repro.flow.checkpoint import Checkpoint, CheckpointCorrupted, CheckpointStore
from repro.flow.definition import Flow, FlowDefinitionError, StepSpec
from repro.flow.events import EventLog, format_event, read_events, tail_events
from repro.flow.fingerprint import stable_digest
from repro.flow.runner import KEY_SCHEME, FlowInterrupted, FlowResult, FlowRunner

__all__ = [
    "Checkpoint",
    "CheckpointCorrupted",
    "CheckpointStore",
    "EventLog",
    "Flow",
    "FlowDefinitionError",
    "FlowInterrupted",
    "FlowResult",
    "FlowRunner",
    "KEY_SCHEME",
    "StepSpec",
    "format_event",
    "read_events",
    "stable_digest",
    "tail_events",
]
