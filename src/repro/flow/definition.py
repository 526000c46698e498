"""Declarative flow definition: named steps wired into a DAG.

A *step* is a pure function registered on a :class:`Flow` under a
unique name with :meth:`Flow.add`.  Every parameter of the function is
declared at registration:

* in ``deps`` — the runner passes an upstream step's output.  A
  parameter may map to one step name (``deps={"truth": "oracle"}``) or,
  for fan-in, to a *tuple* of names, which the runner delivers as a
  tuple of outputs in that order;
* or in ``params`` — a static value bound at registration time, part of
  the step's checkpoint key.

A parameter named in neither is a :class:`FlowDefinitionError`, not a
guess; a default left in place does not count as declared.  A value
bound before registration (a closure, or an argument bound with
:func:`functools.partial`) is not a parameter: it enters no checkpoint
key.  A step's output is its only effect; the runner reports the deterministic state of the output's ``ledger``, when
it has one, as the step's bill.

Step bodies must stay pure — no wall-clock reads, no module-global
mutation, no unseeded RNG — so that replaying a checkpoint is
indistinguishable from re-executing the step.  Statically, RPR002
(no wall-clock) and RPR005 (no unseeded RNG) run in full on the modules
that define steps; dynamically, the crash/resume bit-identity and
flow-vs-standalone-units digest tests replay every step and compare.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Mapping

__all__ = ["Flow", "FlowDefinitionError", "StepSpec"]


class FlowDefinitionError(ValueError):
    """A structural problem in a flow: bad wiring, duplicate, or cycle."""


@dataclass(frozen=True)
class StepSpec:
    """One registered step: its function, wiring, and checkpoint policy.

    ``cache=False`` marks a step that is cheap and deterministic enough
    to recompute on every run (workload generation, assembling a report
    from checkpointed upstream values);
    it is never written to the checkpoint store, and its
    fingerprint is its checkpoint key itself, asserting "same inputs,
    same output" instead of hashing a value nobody stores.  A cached
    step's fingerprint is the digest of its saved value, so downstream
    keys pin upstream *content*, not just configuration.
    """

    name: str
    fn: Callable[..., object]
    #: ``(parameter name, upstream step names, fan_in)`` in signature
    #: order.  ``fan_in`` marks deps declared as a collection: the
    #: runner then always delivers a tuple of outputs (even for one
    #: upstream), while scalar declarations receive the bare output.
    deps: tuple[tuple[str, tuple[str, ...], bool], ...]
    #: Static ``(name, value)`` parameters, part of the checkpoint key.
    params: tuple[tuple[str, object], ...]
    cache: bool = True

    def upstreams(self) -> tuple[str, ...]:
        """Every upstream step name, in declaration order, de-duplicated."""
        seen: dict[str, None] = {}
        for _, names, _ in self.deps:
            for name in names:
                seen.setdefault(name, None)
        return tuple(seen)


class Flow:
    """An ordered registry of steps forming a DAG."""

    def __init__(self, name: str) -> None:
        if not name:
            raise FlowDefinitionError("flow name must be non-empty")
        self.name = name
        self._steps: dict[str, StepSpec] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def add(
        self,
        fn: Callable[..., object],
        *,
        name: str,
        deps: Mapping[str, str | tuple[str, ...]] | None = None,
        params: Mapping[str, object] | None = None,
        cache: bool = True,
    ) -> str:
        """Register ``fn`` as step ``name``; returns the name.

        One function may be registered many times under different names
        with different ``params`` — that is how parameterized fan-out
        (one step per method, per policy, per budget) is expressed.
        """
        if name in self._steps:
            raise FlowDefinitionError(f"duplicate step name {name!r}")
        explicit = {key: _as_names(value) for key, value in (deps or {}).items()}
        static = dict(params or {})
        overlap = set(explicit) & set(static)
        if overlap:
            raise FlowDefinitionError(
                f"step {name!r}: parameters {sorted(overlap)} are declared "
                "both as deps and as params"
            )
        resolved: list[tuple[str, tuple[str, ...], bool]] = []
        undeclared: list[str] = []
        signature = inspect.signature(fn)
        bound = fn.keywords if isinstance(fn, partial) else {}
        for parameter in signature.parameters.values():
            if parameter.kind in (
                inspect.Parameter.VAR_POSITIONAL,
                inspect.Parameter.VAR_KEYWORD,
            ):
                raise FlowDefinitionError(
                    f"step {name!r}: *args/**kwargs are not allowed in a "
                    "step signature; every input must be declared"
                )
            if parameter.name in explicit:
                names, fan_in = explicit.pop(parameter.name)
                resolved.append((parameter.name, names, fan_in))
            elif parameter.name not in static and parameter.name not in bound:
                undeclared.append(parameter.name)
        if explicit:
            raise FlowDefinitionError(
                f"step {name!r}: deps {sorted(explicit)} do not match any "
                "parameter"
            )
        unknown_params = set(static) - set(signature.parameters)
        if unknown_params:
            raise FlowDefinitionError(
                f"step {name!r}: params {sorted(unknown_params)} do not "
                "match any parameter"
            )
        if undeclared:
            raise FlowDefinitionError(
                f"step {name!r}: parameters {undeclared} are declared in "
                "neither deps nor params"
            )
        self._steps[name] = StepSpec(
            name=name,
            fn=fn,
            deps=tuple(resolved),
            params=tuple(sorted(static.items())),
            cache=cache,
        )
        return name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def names(self) -> tuple[str, ...]:
        """Step names in registration order."""
        return tuple(self._steps)

    def spec(self, name: str) -> StepSpec:
        return self._steps[name]

    def __contains__(self, name: str) -> bool:
        return name in self._steps

    def __len__(self) -> int:
        return len(self._steps)

    # ------------------------------------------------------------------
    # Validation / ordering
    # ------------------------------------------------------------------
    def order(self) -> tuple[str, ...]:
        """Topological execution order (stable: registration order ties).

        Raises :class:`FlowDefinitionError` on unknown upstream names or
        cycles — always call this (the runner does) before execution.
        """
        for spec in self._steps.values():
            for upstream in spec.upstreams():
                if upstream not in self._steps:
                    raise FlowDefinitionError(
                        f"step {spec.name!r} depends on unknown step "
                        f"{upstream!r}"
                    )
        remaining: dict[str, set[str]] = {
            name: set(spec.upstreams()) for name, spec in self._steps.items()
        }
        ordered: list[str] = []
        satisfied: set[str] = set()
        while remaining:
            ready = [
                name
                for name in self._steps
                if name in remaining and remaining[name] <= satisfied
            ]
            if not ready:
                cycle = ", ".join(sorted(remaining))
                raise FlowDefinitionError(
                    f"flow {self.name!r} has a dependency cycle among: {cycle}"
                )
            for name in ready:
                ordered.append(name)
                satisfied.add(name)
                del remaining[name]
        return tuple(ordered)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Flow({self.name!r}, {len(self._steps)} steps)"


def _as_names(value: str | Iterable[str]) -> tuple[tuple[str, ...], bool]:
    """Normalize a deps value to (upstream names, declared-as-fan-in)."""
    if isinstance(value, str):
        return (value,), False
    return tuple(value), True
