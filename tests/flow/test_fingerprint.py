"""stable_digest: the determinism contract behind checkpoint keys.

The digest's byte stream is pinned against :func:`reference_digest`, the
original recursive ``isinstance`` implementation kept inline as the
executable specification: a Hypothesis differential over nested values,
one composite value's hex digest as a literal, and every checkpoint
value of a small real experiment flow.
"""

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.evalx import ExperimentFlowSpec, experiment_flow
from repro.flow import CheckpointStore, FlowRunner, stable_digest
from repro.utils.timing import STAGE_INDEX, STAGE_MODEL, CostLedger


@dataclass
class Point:
    x: float
    y: float


class Opaque:
    pass


class Fingerprinted:
    def __init__(self, payload):
        self.payload = payload

    def __flow_fingerprint__(self):
        return self.payload


class TestScalars:
    def test_repeatable(self):
        assert stable_digest(("a", 1, 2.5)) == stable_digest(("a", 1, 2.5))

    def test_type_tags_distinguish_lookalikes(self):
        assert stable_digest(1) != stable_digest(True)
        assert stable_digest(1) != stable_digest(1.0)
        assert stable_digest("1") != stable_digest(1)
        assert stable_digest(None) != stable_digest("None")

    def test_float_uses_exact_repr(self):
        assert stable_digest(0.1 + 0.2) != stable_digest(0.3)

    def test_tuple_and_list_differ(self):
        assert stable_digest((1, 2)) != stable_digest([1, 2])

    def test_string_length_prefix_prevents_concat_collisions(self):
        assert stable_digest(("ab", "c")) != stable_digest(("a", "bc"))


class TestContainers:
    def test_dict_order_does_not_matter(self):
        assert stable_digest({"a": 1, "b": 2}) == stable_digest({"b": 2, "a": 1})

    def test_dict_content_matters(self):
        assert stable_digest({"a": 1}) != stable_digest({"a": 2})

    def test_set_order_does_not_matter(self):
        assert stable_digest({3, 1, 2}) == stable_digest({2, 3, 1})

    def test_nested_structures(self):
        value = {"rows": [(1, 2.0), (3, 4.0)], "tags": {"x"}}
        assert stable_digest(value) == stable_digest(
            {"tags": {"x"}, "rows": [(1, 2.0), (3, 4.0)]}
        )


class TestNumpy:
    def test_array_content(self):
        a = np.arange(6, dtype=np.float64)
        assert stable_digest(a) == stable_digest(a.copy())
        b = a.copy()
        b[3] = -1.0
        assert stable_digest(a) != stable_digest(b)

    def test_dtype_matters(self):
        a = np.arange(4, dtype=np.int64)
        assert stable_digest(a) != stable_digest(a.astype(np.float64))

    def test_shape_matters(self):
        a = np.arange(6, dtype=np.float64)
        assert stable_digest(a) != stable_digest(a.reshape(2, 3))

    def test_non_contiguous_array_equals_its_copy(self):
        a = np.arange(12, dtype=np.float64).reshape(3, 4)
        view = a[:, ::2]
        assert stable_digest(view) == stable_digest(view.copy())

    def test_numpy_scalar_collapses_to_python_scalar(self):
        assert stable_digest(np.int64(7)) == stable_digest(7)
        # np.float64 subclasses float; its numpy repr must not leak in.
        assert stable_digest(np.float64(1.5)) == stable_digest(1.5)
        assert stable_digest(np.float64(1.5)) == reference_digest(1.5)
        assert stable_digest(np.float32(0.1)) == stable_digest(
            float(np.float32(0.1))
        )
        assert stable_digest(np.bool_(True)) == stable_digest(True)
        assert stable_digest([np.float64(-0.0)]) == stable_digest([-0.0])

    def test_object_array_raises_instead_of_digesting_pointers(self):
        values = np.array([(1, 2), "a"], dtype=object)
        with pytest.raises(TypeError, match="object"):
            stable_digest(values)
        record = np.zeros(2, dtype=[("x", "<f8"), ("tag", object)])
        with pytest.raises(TypeError, match="object"):
            stable_digest({"rows": record})


class TestObjects:
    def test_dataclass_by_fields(self):
        assert stable_digest(Point(1.0, 2.0)) == stable_digest(Point(1.0, 2.0))
        assert stable_digest(Point(1.0, 2.0)) != stable_digest(Point(2.0, 1.0))

    def test_ledger_excludes_measured_wall_clock(self):
        a, b = CostLedger(), CostLedger()
        for ledger, seconds in ((a, 0.001), (b, 123.0)):
            ledger.charge(STAGE_MODEL, 0.5, count=3)
            ledger.measured["step:x"] = seconds
        assert stable_digest(a) == stable_digest(b)

    def test_ledger_deterministic_state_included(self):
        a, b = CostLedger(), CostLedger()
        a.charge(STAGE_MODEL, 0.5, count=3)
        b.charge(STAGE_MODEL, 0.5, count=4)
        assert stable_digest(a) != stable_digest(b)

    def test_unknown_type_raises_instead_of_guessing(self):
        with pytest.raises(TypeError, match="Opaque"):
            stable_digest(Opaque())

    def test_flow_fingerprint_hook(self):
        assert stable_digest(Fingerprinted((1, 2))) == stable_digest(
            Fingerprinted((1, 2))
        )
        assert stable_digest(Fingerprinted((1, 2))) != stable_digest(
            Fingerprinted((1, 3))
        )


# ----------------------------------------------------------------------
# The executable specification: the original ``_feed``, verbatim but for
# its two names (``_feed`` -> ``reference_feed``, ``stable_digest`` ->
# ``reference_digest``).
# ----------------------------------------------------------------------
def reference_digest(value: object) -> str:
    digest = hashlib.blake2b(digest_size=16)
    reference_feed(digest, value)
    return digest.hexdigest()


def reference_feed(digest: "hashlib._Hash", value: object) -> None:
    if value is None:
        digest.update(b"N")
    elif isinstance(value, bool):
        digest.update(b"B1" if value else b"B0")
    elif isinstance(value, int):
        digest.update(b"I" + repr(value).encode("ascii"))
    elif isinstance(value, float):
        # repr() round-trips doubles exactly; NaN payloads collapse to
        # the one canonical 'nan', which is what equality wants anyway.
        digest.update(b"F" + repr(value).encode("ascii"))
    elif isinstance(value, str):
        encoded = value.encode("utf-8")
        digest.update(b"S" + str(len(encoded)).encode("ascii") + b":" + encoded)
    elif isinstance(value, bytes):
        digest.update(b"Y" + str(len(value)).encode("ascii") + b":" + value)
    elif isinstance(value, np.generic):
        reference_feed(digest, value.item())
    elif isinstance(value, np.ndarray):
        digest.update(b"A" + value.dtype.str.encode("ascii"))
        digest.update(repr(tuple(value.shape)).encode("ascii"))
        digest.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (tuple, list)):
        digest.update(b"T(" if isinstance(value, tuple) else b"L(")
        for item in value:
            reference_feed(digest, item)
            digest.update(b",")
        digest.update(b")")
    elif isinstance(value, dict):
        digest.update(b"D(")
        for key_digest, item_key in sorted(
            (reference_digest(item_key), item_key) for item_key in value
        ):
            digest.update(key_digest.encode("ascii") + b"=")
            reference_feed(digest, value[item_key])
            digest.update(b",")
        digest.update(b")")
    elif isinstance(value, (set, frozenset)):
        digest.update(b"E(")
        for item_digest in sorted(reference_digest(item) for item in value):
            digest.update(item_digest.encode("ascii") + b",")
        digest.update(b")")
    elif isinstance(value, CostLedger):
        digest.update(b"G")
        reference_feed(digest, value.deterministic_state())
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        digest.update(b"C" + type(value).__qualname__.encode("utf-8") + b"(")
        for field in dataclasses.fields(value):
            digest.update(field.name.encode("utf-8") + b"=")
            reference_feed(digest, getattr(value, field.name))
            digest.update(b",")
        digest.update(b")")
    else:
        fingerprint: Any = getattr(value, "__flow_fingerprint__", None)
        if callable(fingerprint):
            digest.update(b"O" + type(value).__qualname__.encode("utf-8"))
            reference_feed(digest, fingerprint())
        else:
            raise TypeError(
                f"stable_digest cannot canonicalize {type(value).__qualname__!r}; "
                "add a __flow_fingerprint__() method or restrict the step "
                "output to digestible types"
            )


# ----------------------------------------------------------------------
# Differential against the specification
# ----------------------------------------------------------------------
class Level(IntEnum):
    LOW = 1
    HIGH = 2


class Count(int):
    pass


class Ratio(float):
    pass


def ledger_with(charges):
    ledger = CostLedger()
    for stage, seconds, count in charges:
        ledger.charge(stage, seconds, count=count)
    ledger.measured["step:x"] = 0.5  # excluded from both digests
    return ledger


# The specification and the digest part ways on exactly two inputs, left
# out here and tested on their own in TestNumpy: np.float64 scalars (the
# specification digests numpy's repr) and object-dtype arrays (it
# digests their pointers).
_DTYPES = st.sampled_from(
    ["<i8", "<i4", ">i2", "|u1", "<f8", "<f4", ">f8", "|b1", "<c16", "<U3", "<M8[s]"]
)
_arrays = st.one_of(
    hnp.arrays(_DTYPES, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)),
    # Non-contiguous views: a strided slice of a transpose.
    hnp.arrays(_DTYPES, hnp.array_shapes(min_dims=2, max_dims=3, min_side=1, max_side=5)).map(
        lambda array: array.T[::2]
    ),
    # Larger than the 64 KiB buffer, contiguous or reversed.
    st.tuples(st.integers(0, 2**32 - 1), st.booleans()).map(
        lambda args: np.random.default_rng(args[0]).normal(size=9000)[:: -1 if args[1] else 1]
    ),
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from([math.nan, -0.0, 0.0, math.inf, -math.inf]),
    st.text(max_size=8),
    st.binary(max_size=8),
    st.integers().map(Count),
    st.floats().map(Ratio),
    st.sampled_from(list(Level)),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(width=32).map(np.float32),
    st.booleans().map(np.bool_),
)
_hashable = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=6),
    st.binary(max_size=6),
    st.tuples(st.text(max_size=3), st.integers()),
    st.frozensets(st.integers(), max_size=3),
)
_ledgers = st.lists(
    st.tuples(
        st.sampled_from([STAGE_MODEL, STAGE_INDEX]),
        st.floats(0, 1e6),
        st.integers(0, 100),
    ),
    max_size=3,
).map(ledger_with)
_values = st.recursive(
    st.one_of(_scalars, _arrays, _ledgers),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_hashable, children, max_size=4),
        st.sets(_hashable, max_size=4),
        st.frozensets(_hashable, max_size=4),
        st.builds(Point, children, children),
        st.builds(Fingerprinted, children),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(_values)
def test_digest_matches_the_specification(value):
    assert stable_digest(value) == reference_digest(value)


COMPOSITE = {
    "scalars": (None, True, 0, -(2**70), Count(3), Level.HIGH, np.int64(-7)),
    "floats": [0.1, -0.0, math.inf, math.nan, Ratio(2.5), np.float32(0.5)],
    "text": ("héllo", b"\x00\xff"),
    "arrays": (
        np.arange(6, dtype=np.int32).reshape(2, 3),
        np.zeros((), dtype=np.float32),
        np.arange(12, dtype=np.float64).reshape(3, 4).T[::2],
        np.linspace(0.0, 1.0, 9000),
    ),
    (1, "key"): {frozenset({1, 2}): Point(1.5, -2.0), "set": {3, 4}},
    "ledger": ledger_with([(STAGE_MODEL, 0.25, 3), (STAGE_INDEX, 1.0, 1)]),
    "hook": Fingerprinted(("x", [1, 2])),
}


def test_composite_digest_is_pinned():
    assert reference_digest(COMPOSITE) == "4a4ca089f3542722b5462ce87cee915c"
    assert stable_digest(COMPOSITE) == "4a4ca089f3542722b5462ce87cee915c"


@pytest.fixture(scope="module")
def small_flow(tmp_path_factory):
    """A completed two-method, one-budget experiment flow."""
    ckpt = tmp_path_factory.mktemp("fingerprint-flow")
    spec = ExperimentFlowSpec(
        n_frames=120, methods=("seiden_pc", "mast"), budgets=(0.10,)
    )
    return FlowRunner(experiment_flow(spec), checkpoint_dir=ckpt).run(), ckpt


def test_real_checkpoint_values_digest_as_the_specification(small_flow):
    result, ckpt = small_flow
    store = CheckpointStore(ckpt / "steps")
    stored = [key for key in result.keys.values() if key in store]
    assert len(stored) >= 4  # oracle, two methods, summary
    for key in stored:
        checkpoint = store.load(key)
        assert reference_digest(checkpoint.value) == checkpoint.fingerprint
    for name, value in result.outputs.items():
        if name != "workload":
            assert stable_digest(value) == reference_digest(value), name
