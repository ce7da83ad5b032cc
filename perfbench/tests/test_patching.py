"""Wrappers are installed everywhere and removed without a trace."""

import sys

from perfbench import layers
from perfbench.spans import Patcher, SpanRecorder
from perfbench.workloads import SimDiscovery


def _bindings():
    """Every attribute the layer table wraps, with what it holds now:
    class dicts of the owner and its subclasses, and each ``repro``
    module-level alias of a wrapped function."""
    seen = {}
    for owner, attr, *_ in layers._targets(SpanRecorder().counts):
        if isinstance(owner, type):
            pending = [owner]
            while pending:
                klass = pending.pop()
                pending.extend(klass.__subclasses__())
                if attr in klass.__dict__:
                    seen[(klass, attr)] = klass.__dict__[attr]
        else:
            original = getattr(owner, attr)
            for name, mod in list(sys.modules.items()):
                if mod is not None and name.startswith("repro"):
                    for key, value in vars(mod).items():
                        if value is original:
                            seen[(mod, key)] = value
    return seen


def test_wrappers_replace_every_binding_and_restore_the_originals():
    from repro.core.policies import global_policies
    from repro.geo import point

    before = _bindings()
    assert (global_policies, "haversine_km_coords") in before
    recorder = SpanRecorder()
    with Patcher() as patcher:
        layers.install(patcher, recorder)
        during = {key: getattr(*key) for key in before}
        assert all(during[key] is not before[key] for key in before)
        assert global_policies.haversine_km_coords is point.haversine_km_coords
        workload = SimDiscovery()
        workload.horizon_ms = 2_000.0
        rep = workload.rep(3, recorder=recorder)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    metrics = layers.per_layer(recorder, rep.program)
    assert metrics["sim.EventQueue.push.calls"] > 0
    assert metrics["geo.haversine_km_coords.calls"] > 0
    assert metrics["core.rounds"] > 0


def test_untraced_rep_calls_the_original_functions():
    from repro.sim.events import EventQueue

    push = EventQueue.__dict__["push"]
    patcher = Patcher()
    layers.install(patcher, SpanRecorder())
    patcher.restore()
    assert EventQueue.__dict__["push"] is push
    assert EventQueue.push.__qualname__ == "EventQueue.push"
