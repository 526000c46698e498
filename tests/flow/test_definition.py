"""DAG mechanics: registration, wiring validation, topological order."""

import functools

import pytest

from repro.flow import Flow, FlowDefinitionError


def _noop():
    return None


class TestRegistration:
    def test_duplicate_name_rejected(self):
        flow = Flow("t")
        flow.add(_noop, name="a")
        with pytest.raises(FlowDefinitionError, match="duplicate step name 'a'"):
            flow.add(_noop, name="a")

    def test_empty_flow_name_rejected(self):
        with pytest.raises(FlowDefinitionError):
            Flow("")

    def test_var_args_rejected(self):
        def stars(*args):
            return args

        with pytest.raises(FlowDefinitionError, match="args"):
            Flow("t").add(stars, name="a")

    def test_dep_and_param_overlap_rejected(self):
        def fn(x):
            return x

        with pytest.raises(FlowDefinitionError, match="both as deps and as params"):
            Flow("t").add(fn, name="a", deps={"x": "up"}, params={"x": 1})

    def test_dep_not_in_signature_rejected(self):
        def fn(x):
            return x

        with pytest.raises(FlowDefinitionError, match="do not match any parameter"):
            Flow("t").add(fn, name="a", deps={"y": "up"})

    def test_param_not_in_signature_rejected(self):
        def fn(x):
            return x

        with pytest.raises(FlowDefinitionError, match="params \\['y'\\]"):
            Flow("t").add(fn, name="a", params={"x": 1, "y": 2})

    @pytest.mark.parametrize(
        ("wiring", "message"),
        [
            ({"deps": {"y": "up"}}, r"step 'a': deps \['y'\] do not match any parameter"),
            ({}, r"step 'a': parameters \['x'\] are declared in neither"),
        ],
    )
    def test_a_nameless_callable_is_reported_by_its_step(self, wiring, message):
        """A ``functools.partial`` has no ``__name__``: bad wiring still
        raises :class:`FlowDefinitionError` naming the step."""

        def fn(scale, x):
            return x * scale

        step = functools.partial(fn, 2)
        assert not hasattr(step, "__name__")
        with pytest.raises(FlowDefinitionError, match=message):
            Flow("t").add(step, name="a", **wiring)

    def test_same_function_many_names_with_params(self):
        def fn(method):
            return method

        flow = Flow("t")
        for method in ("a", "b"):
            flow.add(fn, name=f"method:{method}", params={"method": method})
        assert len(flow) == 2
        assert flow.spec("method:a").params == (("method", "a"),)


class TestWiring:
    def test_undeclared_parameter_rejected(self):
        """A parameter that merely shares a step's name is not wired to it."""
        flow = Flow("t")
        flow.add(_noop, name="upstream")

        def fn(upstream, seed):
            return upstream, seed

        with pytest.raises(
            FlowDefinitionError,
            match=r"step 'down': parameters \['upstream'\] are declared in neither",
        ):
            flow.add(fn, name="down", params={"seed": 1})
        assert "down" not in flow

    def test_renamed_dependency(self):
        flow = Flow("t")
        flow.add(_noop, name="oracle")

        def fn(truth):
            return truth

        flow.add(fn, name="down", deps={"truth": "oracle"})
        assert flow.spec("down").deps == (("truth", ("oracle",), False),)

    def test_fan_in_declared_as_tuple(self):
        flow = Flow("t")
        flow.add(_noop, name="m1")
        flow.add(_noop, name="m2")

        def fn(methods):
            return methods

        flow.add(fn, name="report", deps={"methods": ("m1", "m2")})
        name, upstreams, fan_in = flow.spec("report").deps[0]
        assert upstreams == ("m1", "m2")
        assert fan_in is True

    def test_single_element_fan_in_stays_fan_in(self):
        flow = Flow("t")
        flow.add(_noop, name="m1")

        def fn(methods):
            return methods

        flow.add(fn, name="report", deps={"methods": ("m1",)})
        assert flow.spec("report").deps[0][2] is True

    def test_upstreams_deduplicated_in_order(self):
        flow = Flow("t")
        flow.add(_noop, name="b")
        flow.add(_noop, name="a")

        def fn(x, y):
            return x, y

        flow.add(fn, name="down", deps={"x": ("b", "a"), "y": "b"})
        assert flow.spec("down").upstreams() == ("b", "a")

    def test_ctx_is_an_ordinary_parameter(self):
        """No parameter name is reserved: ``ctx`` is declared or refused
        like any other."""

        def fn(ctx):
            return ctx

        with pytest.raises(FlowDefinitionError, match=r"\['ctx'\] are declared in neither"):
            Flow("t").add(fn, name="a")
        flow = Flow("t")
        flow.add(fn, name="a", params={"ctx": 1})
        assert flow.spec("a").params == (("ctx", 1),)


class TestOrder:
    def test_topological_order_respects_deps(self):
        flow = Flow("t")

        def fn(up):
            return up

        flow.add(fn, name="late", deps={"up": "early"})
        flow.add(_noop, name="early")
        order = flow.order()
        assert order.index("early") < order.index("late")

    def test_registration_order_breaks_ties(self):
        flow = Flow("t")
        flow.add(_noop, name="b")
        flow.add(_noop, name="a")
        assert flow.order() == ("b", "a")

    def test_unknown_upstream_rejected(self):
        flow = Flow("t")

        def fn(up):
            return up

        flow.add(fn, name="a", deps={"up": "ghost"})
        with pytest.raises(FlowDefinitionError, match="unknown step 'ghost'"):
            flow.order()

    def test_cycle_rejected(self):
        flow = Flow("t")

        def fn(other):
            return other

        flow.add(fn, name="a", deps={"other": "b"})
        flow.add(fn, name="b", deps={"other": "a"})
        with pytest.raises(FlowDefinitionError, match="cycle"):
            flow.order()

    def test_self_loop_rejected(self):
        flow = Flow("t")

        def fn(a):
            return a

        flow.add(fn, name="a", deps={"a": "a"})
        with pytest.raises(FlowDefinitionError, match="cycle"):
            flow.order()
