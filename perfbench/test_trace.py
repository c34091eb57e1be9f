"""Tests of the span tracer on a stand-in module."""

import sys
import types

import pytest

from perfbench.trace import Tracer

SOURCE = """
import time

def inner():
    time.sleep(0.01)
    return 1

def outer():
    return inner() + inner()
"""


def test_spans_nest_record_self_time_and_restore_originals():
    mod = types.ModuleType("perfbench_fake_layer")
    exec(SOURCE, mod.__dict__)
    sys.modules[mod.__name__] = mod
    original = mod.outer
    try:
        calls = [(mod.__name__, "outer", "a"), (mod.__name__, "inner", "b"), (mod.__name__, "gone", "c")]
        with Tracer(calls) as tr:
            tr.keep("b.inner")
            assert mod.outer() == 2
    finally:
        del sys.modules[mod.__name__]
    assert mod.outer is original
    assert tr.absent == [f"{mod.__name__}.gone"]
    inner_calls, inner_s = tr.sums("b.inner", lambda p: p == "a.outer")
    outer_calls, outer_s = tr.sums("a.outer", lambda p: p is None)
    assert (inner_calls, outer_calls) == (2, 1)
    assert inner_s >= 0.02 and outer_s >= inner_s
    assert tr.stats[("a.outer", None)][2] == pytest.approx(outer_s - inner_s)
    assert tr.results["b.inner"] == [1, 1]
