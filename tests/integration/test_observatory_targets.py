"""Every callable the observatory traces still resolves.

The benchmark (``benchmarks/observatory``) wraps each layer's callables
by dotted string, and a target that no longer resolves only degrades to
``missing`` at run time — a refactor could silently un-trace a layer.
This pins the set of misses: the two ``count_series_tail`` targets, whose
methods were deleted when every count provider got one batched kernel.
"""

from __future__ import annotations

from benchmarks.observatory.layers import TARGETS
from benchmarks.observatory.trace import Tracer

#: Targets that are expected not to resolve, by span label.
KNOWN_MISSING = {
    "MASTIndex.count_series_tail",
    "LinearCountProvider.count_series_tail",
}


def test_every_target_but_the_pinned_pair_resolves():
    tracer = Tracer(TARGETS)
    try:
        tracer.install()
        assert set(tracer.missing) == KNOWN_MISSING, tracer.missing
    finally:
        tracer.uninstall()
