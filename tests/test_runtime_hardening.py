"""Tests for the hardened live runtime: retry budgets, circuit
breakers, the reconnect cap, and fail-fast behaviour against dead
peers."""

import asyncio
import random
import time

import pytest

from repro.geo.point import GeoPoint
from repro.nodes.hardware import profile_by_name
from repro.runtime import LiveEdgeServer
from repro.runtime.protocol import (
    CircuitBreaker,
    EdgeUnreachableError,
    PersistentConnection,
    ProtocolError,
    RetryPolicy,
    call_with_retry,
)


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# RetryPolicy / call_with_retry
# ----------------------------------------------------------------------
def test_retry_policy_validates():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(budget_s=0.0)


def test_retry_policy_decorrelated_jitter_bounds():
    policy = RetryPolicy(base_delay_s=0.05, max_delay_s=0.5)
    rng = random.Random(1)
    delay = policy.base_delay_s
    for _ in range(100):
        delay = policy.next_delay(delay, rng)
        assert policy.base_delay_s <= delay <= policy.max_delay_s


def test_call_with_retry_succeeds_after_transient_failures():
    calls = []

    async def attempt():
        calls.append(1)
        if len(calls) < 3:
            raise asyncio.TimeoutError("transient")
        return {"ok": True}

    async def no_sleep(_):
        pass

    async def scenario():
        return await call_with_retry(
            attempt,
            RetryPolicy(max_attempts=5, budget_s=10.0),
            rng=random.Random(1),
            sleep=no_sleep,
        )

    assert run(scenario()) == {"ok": True}
    assert len(calls) == 3


def test_call_with_retry_exhausts_attempts():
    calls = []

    async def attempt():
        calls.append(1)
        raise ProtocolError("down")

    async def no_sleep(_):
        pass

    async def scenario():
        await call_with_retry(
            attempt,
            RetryPolicy(max_attempts=3, budget_s=10.0),
            rng=random.Random(1),
            sleep=no_sleep,
        )

    with pytest.raises(ProtocolError):
        run(scenario())
    assert len(calls) == 3


def test_call_with_retry_respects_latency_budget():
    """The budget bounds total time: no backoff sleep may cross it."""
    now = [0.0]

    async def fake_sleep(s):
        now[0] += s

    calls = []

    async def attempt():
        calls.append(1)
        now[0] += 0.1  # each attempt costs 100 ms
        raise asyncio.TimeoutError("down")

    async def scenario():
        await call_with_retry(
            attempt,
            RetryPolicy(
                max_attempts=100,
                budget_s=0.5,
                base_delay_s=0.2,
                max_delay_s=0.2,
            ),
            rng=random.Random(1),
            clock=lambda: now[0],
            sleep=fake_sleep,
        )

    with pytest.raises(asyncio.TimeoutError):
        run(scenario())
    # 100 attempts were allowed by count, but the 0.5 s budget admits
    # only a couple of 0.2 s backoffs between 0.1 s attempts.
    assert len(calls) <= 3
    assert now[0] <= 0.5 + 0.2


def test_call_with_retry_never_retries_unreachable():
    calls = []

    async def attempt():
        calls.append(1)
        raise EdgeUnreachableError("breaker open")

    async def scenario():
        await call_with_retry(
            attempt, RetryPolicy(max_attempts=5, budget_s=10.0)
        )

    with pytest.raises(EdgeUnreachableError):
        run(scenario())
    assert len(calls) == 1  # fail-fast is not hammered


def test_call_with_retry_reports_backoff_via_on_retry():
    schedule = []

    async def attempt():
        raise asyncio.TimeoutError("down")

    async def no_sleep(_):
        pass

    async def scenario():
        await call_with_retry(
            attempt,
            RetryPolicy(max_attempts=3, budget_s=10.0),
            rng=random.Random(1),
            on_retry=lambda n, d: schedule.append((n, d)),
            sleep=no_sleep,
        )

    with pytest.raises(asyncio.TimeoutError):
        run(scenario())
    assert [n for n, _ in schedule] == [1, 2]
    assert all(d > 0 for _, d in schedule)


# ----------------------------------------------------------------------
# CircuitBreaker
# ----------------------------------------------------------------------
def test_breaker_opens_after_consecutive_failures():
    clock = [0.0]
    breaker = CircuitBreaker(3, 2.0, clock=lambda: clock[0])
    assert breaker.state == "closed"
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == "closed"  # not yet at the threshold
    breaker.record_failure()
    assert breaker.state == "open"
    assert not breaker.allow()


def test_breaker_success_resets_failure_streak():
    breaker = CircuitBreaker(3, 2.0, clock=lambda: 0.0)
    breaker.record_failure()
    breaker.record_failure()
    breaker.record_success()  # streak broken
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == "closed"


def test_breaker_half_open_admits_one_trial():
    clock = [0.0]
    breaker = CircuitBreaker(1, 2.0, clock=lambda: clock[0])
    breaker.record_failure()
    assert breaker.state == "open"
    clock[0] = 2.5
    assert breaker.state == "half_open"
    assert breaker.allow()  # the single trial
    assert not breaker.allow()  # concurrent caller keeps failing fast
    breaker.record_success()
    assert breaker.state == "closed"
    assert breaker.allow()


def test_breaker_half_open_failure_reopens_and_restarts_clock():
    clock = [0.0]
    breaker = CircuitBreaker(1, 2.0, clock=lambda: clock[0])
    breaker.record_failure()
    clock[0] = 2.5
    assert breaker.allow()
    breaker.record_failure()  # trial failed
    assert breaker.state == "open"
    clock[0] = 3.0  # only 0.5 s since reopening
    assert breaker.state == "open"
    clock[0] = 5.0
    assert breaker.state == "half_open"


def test_breaker_reports_transitions():
    transitions = []
    clock = [0.0]
    breaker = CircuitBreaker(
        1,
        2.0,
        clock=lambda: clock[0],
        on_transition=lambda old, new: transitions.append((old, new)),
    )
    breaker.record_failure()
    clock[0] = 2.5
    breaker.allow()
    breaker.record_success()
    assert transitions == [
        ("closed", "open"),
        ("open", "half_open"),
        ("half_open", "closed"),
    ]


def test_breaker_validates_threshold():
    with pytest.raises(ValueError):
        CircuitBreaker(0)


# ----------------------------------------------------------------------
# PersistentConnection: reconnect cap + breaker fail-fast
# ----------------------------------------------------------------------
def _dead_port():
    """A localhost port with nothing listening (bind-then-close)."""
    import socket

    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def test_connection_validates_reconnect_cap():
    with pytest.raises(ValueError):
        PersistentConnection("127.0.0.1", 1, max_reconnect_attempts=0)


def test_connection_reconnect_cap_raises_unreachable():
    async def scenario():
        conn = PersistentConnection(
            "127.0.0.1", _dead_port(), timeout=0.2, max_reconnect_attempts=2
        )
        errors = []
        for _ in range(4):
            try:
                await conn.request("status")
            except EdgeUnreachableError:
                errors.append("unreachable")
            except (OSError, ProtocolError, asyncio.TimeoutError):
                errors.append("transport")
        await conn.close()
        return errors

    errors = run(scenario())
    # the first two failures pay real connect errors; once the cap is
    # hit every further request fails fast with the typed error
    assert errors[:2] == ["transport", "transport"]
    assert errors[2:] == ["unreachable", "unreachable"]


def test_connection_breaker_bounds_dead_edge_latency():
    """With a breaker, a dead edge costs ``failure_threshold`` timeouts
    total — requests after the trip return in microseconds, so tail
    latency against a dead peer is bounded by fail-fast."""

    async def scenario():
        breaker = CircuitBreaker(2, reset_timeout_s=60.0)
        conn = PersistentConnection(
            "127.0.0.1",
            _dead_port(),
            timeout=0.2,
            max_reconnect_attempts=100,  # isolate the breaker's effect
            breaker=breaker,
        )
        durations = []
        for _ in range(6):
            start = time.monotonic()
            with pytest.raises((EdgeUnreachableError, OSError, ProtocolError)):
                await conn.request("status")
            durations.append(time.monotonic() - start)
        await conn.close()
        return breaker.state, durations

    state, durations = run(scenario())
    assert state == "open"
    # p95-style bound: every post-trip request is far below the 0.2 s
    # connect timeout — fail-fast, not another timeout.
    for d in durations[2:]:
        assert d < 0.05


def test_connection_live_edge_round_trip_closes_breaker():
    """Against a live edge the breaker stays closed and requests flow."""

    async def scenario():
        edge = LiveEdgeServer(
            "e1", profile_by_name("V1"), GeoPoint(44.98, -93.26), time_scale=0.01
        )
        await edge.start()
        breaker = CircuitBreaker(2, reset_timeout_s=60.0)
        conn = PersistentConnection(
            edge.host, edge.port, timeout=1.0, breaker=breaker
        )
        try:
            reply = await conn.request("status")
            return breaker.state, reply["ok"]
        finally:
            await conn.close()
            await edge.stop()

    state, ok = run(scenario())
    assert state == "closed"
    assert ok is True


# ----------------------------------------------------------------------
# Malformed peer input: an error reply, never a dropped connection
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "server, op, payload",
    [
        ("edge", "join", {}),
        ("edge", "leave", "x"),
        ("manager", "discover", {}),
        ("manager", "heartbeat", {"status": 3}),
    ],
)
def test_malformed_payload_gets_error_reply_and_connection_survives(
    server, op, payload
):
    from repro.runtime import ManagerServer
    from repro.runtime.protocol import encode_frame, read_frame

    async def scenario():
        loop = asyncio.get_running_loop()
        unhandled = []
        loop.set_exception_handler(lambda _loop, context: unhandled.append(context))
        if server == "edge":
            srv = LiveEdgeServer(
                "e1", profile_by_name("V1"), GeoPoint(44.98, -93.26), time_scale=0.01
            )
        else:
            srv = ManagerServer()
        await srv.start()
        reader, writer = await asyncio.open_connection(srv.host, srv.port)
        try:
            writer.write(encode_frame(op, payload))
            await writer.drain()
            error = await asyncio.wait_for(read_frame(reader), 2.0)
            writer.write(encode_frame("status"))
            await writer.drain()
            status = await asyncio.wait_for(read_frame(reader), 2.0)
        finally:
            writer.close()
            await writer.wait_closed()
            await srv.stop()
        await asyncio.sleep(0)
        return error, status, unhandled

    error, status, unhandled = run(scenario())
    assert error is not None and error["payload"]["ok"] is False
    assert "malformed" in error["payload"]["error"]
    assert status is not None and status["payload"]["ok"] is True
    assert unhandled == []
