"""Self-time accounting of the span recorder."""

import numpy as np
import pytest

from perfbench import spans
from perfbench.spans import SpanRecorder, self_times, span_wrapper


def test_self_times_of_a_synthetic_tree():
    # root [0, 10) -> a [1, 4) -> a1 [2, 3)
    #              -> b [5, 9)
    # other root [11, 12)
    start = np.array([0.0, 1.0, 2.0, 5.0, 11.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 12.0])
    parent = np.array([-1, 0, 1, 0, -1])
    assert self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0, 1.0]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_wrapped_nested_calls_give_exact_self_time(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(spans, "perf_counter", clock)
    recorder = SpanRecorder()

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        wrapped_leaf()
        wrapped_leaf()
        clock.now += 0.5

    wrapped_leaf = span_wrapper(recorder, "leaf", leaf)
    wrapped_middle = span_wrapper(recorder, "middle", middle)
    recorder.start_window()
    wrapped_middle()
    clock.now += 3.0  # benchmark code outside any span
    wrapped_leaf()
    recorder.stop_window()

    summary = recorder.summary()
    assert summary["middle"] == {"calls": 1, "total_s": 5.5, "self_s": 1.5}
    assert summary["leaf"] == {"calls": 3, "total_s": 6.0, "self_s": 6.0}
    assert recorder.window_s == 10.5
    assert recorder.top_level_s() == 7.5  # middle + the last leaf
    assert recorder.durations("leaf").tolist() == [2.0, 2.0, 2.0]


def test_span_closes_when_the_call_raises(monkeypatch):
    recorder = SpanRecorder()

    def boom():
        raise ValueError("x")

    wrapped = span_wrapper(recorder, "boom", boom)
    recorder.start_window()
    with pytest.raises(ValueError):
        wrapped()
    recorder.stop_window()
    assert recorder.summary()["boom"]["calls"] == 1


def test_start_window_discards_set_up_spans():
    recorder = SpanRecorder()
    wrapped = span_wrapper(recorder, "f", lambda: None)
    wrapped()
    recorder.counts["x"] += 1
    recorder.start_window()
    wrapped()
    recorder.stop_window()
    assert recorder.summary()["f"]["calls"] == 1
    assert not recorder.counts
