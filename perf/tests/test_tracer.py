"""Tracer arithmetic on synthetic nested calls."""

import time

import pytest
from tracer import SpanTracer, layer_of_callable, layer_of_module


def spin(ns: int) -> None:
    end = time.perf_counter_ns() + ns
    while time.perf_counter_ns() < end:
        pass


def by_name(tracer: SpanTracer) -> dict:
    return {row["entry"]: row for row in tracer.table()}


def test_self_time_is_duration_minus_children():
    tracer = SpanTracer()
    leaf = tracer.wrap(lambda: spin(2_000_000), "net", "leaf")

    def middle():
        spin(1_000_000)
        leaf()
        leaf()

    middle = tracer.wrap(middle, "firm", "middle")

    def root():
        spin(500_000)
        middle()

    tracer.wrap(root, "sim", "root")()

    rows = by_name(tracer)
    assert (rows["leaf"]["calls"], rows["middle"]["calls"], rows["root"]["calls"]) == (2, 1, 1)
    spans = {tracer.key_name[key]: (begin, end, parent, span_id)
             for span_id, key, begin, end, parent, _ in tracer.raw}
    root_begin, root_end, root_parent, root_id = spans["root"]
    middle_begin, middle_end, middle_parent, middle_id = spans["middle"]
    assert root_parent == -1 and middle_parent == root_id
    assert all(parent == middle_id for _, key, _, _, parent, _ in tracer.raw
               if tracer.key_name[key] == "leaf")
    leaf_total = sum(end - begin for _, key, begin, end, _, _ in tracer.raw
                     if tracer.key_name[key] == "leaf")
    # self = duration - children, exactly.
    assert rows["middle"]["self_ns"] == (middle_end - middle_begin) - leaf_total
    assert rows["root"]["self_ns"] == (root_end - root_begin) - (middle_end - middle_begin)
    assert rows["leaf"]["self_ns"] == leaf_total
    assert rows["leaf"]["self_ns"] >= 4_000_000
    assert 1_000_000 <= rows["middle"]["self_ns"] < 2_500_000
    # Layer shares of the root's duration sum to 1.
    layers = tracer.layer_self_ns()
    assert sum(layers.values()) == root_end - root_begin
    assert layers["net"] == leaf_total


def test_exceptions_unwind_the_span_stack():
    tracer = SpanTracer()

    def boom():
        raise ValueError("boom")

    boom = tracer.wrap(boom, "net", "boom")
    outer = tracer.wrap(lambda: boom(), "firm", "outer")
    with pytest.raises(ValueError):
        outer()
    assert tracer._stack == []
    rows = by_name(tracer)
    assert rows["boom"]["calls"] == rows["outer"]["calls"] == 1
    # A later span is again a root, not a child of the failed one.
    tracer.wrap(lambda: None, "sim", "after")()
    assert tracer.raw[-1][4] == -1


def test_patch_method_covers_overrides_and_restores():
    class Base:
        def hit(self):
            return "base"

        @staticmethod
        def static():
            return "static"

    class Child(Base):
        def hit(self):
            return "child"

    original_base, original_child = Base.__dict__["hit"], Child.__dict__["hit"]
    with SpanTracer() as tracer:
        tracer.patch_method(Base, "hit", "firm")
        tracer.patch_method(Base, "static", "firm")
        assert (Base().hit(), Child().hit(), Base.static()) == ("base", "child", "static")
        rows = by_name(tracer)
        assert rows["Base.hit"]["calls"] == rows["Child.hit"]["calls"] == 1
        assert rows["Base.static"]["calls"] == 1
    assert Base.__dict__["hit"] is original_base
    assert Child.__dict__["hit"] is original_child
    assert isinstance(Base.__dict__["static"], staticmethod)


def test_registered_handlers_become_child_spans_of_their_caller():
    class Device:
        def bind(self, handler):
            self.handler = handler

        def deliver(self):
            self.handler()

    from repro.firm.feedhandler import FeedHandler

    with SpanTracer() as tracer:
        tracer.patch_registration(Device, "bind", 1, "handler")
        tracer.patch_method(Device, "deliver", "net")
        device = Device()
        owner = FeedHandler.__new__(FeedHandler)
        device.bind(owner.gaps)  # any bound method of a firm-layer object
        owner._subscriptions = ()
        device.deliver()
    handler_row = by_name(tracer)["FeedHandler.gaps"]
    assert handler_row["layer"] == "firm" and handler_row["calls"] == 1
    parent_of_handler = [parent for _, key, _, _, parent, _ in tracer.raw
                         if tracer.key_name[key] == "FeedHandler.gaps"]
    deliver_id = [span_id for span_id, key, *_ in tracer.raw
                  if tracer.key_name[key] == "Device.deliver"]
    assert parent_of_handler == deliver_id


def test_layer_attribution():
    from repro.sim.kernel import Simulator

    assert layer_of_module("repro.net.link") == "net"
    assert layer_of_module("repro.timing.latency") == "other"
    assert layer_of_module("numpy.random") == "other"
    assert layer_of_callable(Simulator().stop) == "sim"
    assert layer_of_callable(spin) == "other"
