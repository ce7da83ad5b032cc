"""Wire protocol for the live runtime: newline-delimited JSON frames.

Every frame is one JSON object on one line::

    {"op": "<operation>", "payload": {...}}\\n

and every request gets exactly one response frame. Operations mirror
the simulation's method calls one-to-one (``discover``, ``heartbeat``,
``rtt_probe``, ``process_probe``, ``join``, ``unexpected_join``,
``leave``, ``frame``, ``status``). Dataclass payloads go through
:func:`repro.core.messages.to_wire` / ``from_wire``.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Dict, Optional

#: Maximum accepted frame size — prevents a garbage peer from ballooning
#: memory with an unterminated line.
MAX_FRAME_BYTES = 1 << 20


class ProtocolError(Exception):
    """Malformed frame or unexpected operation."""


#: What a server's dispatch raises when a well-formed frame carries a
#: payload of the wrong shape (a missing key, a string where an object
#: belongs, an undecodable wire message). Servers answer these with an
#: ``{"ok": false, "error": ...}`` reply and keep the connection open.
MALFORMED_PAYLOAD = (KeyError, TypeError, ValueError, AttributeError)


def malformed_reply(op: object, exc: Exception) -> Dict[str, Any]:
    """The error reply for a request whose payload did not parse."""
    return {"ok": False, "error": f"malformed {op!r} payload: {exc!r}"}


class EdgeUnreachableError(ProtocolError):
    """A peer is currently unreachable and the caller should fail fast.

    Raised instead of a socket error when a
    :class:`PersistentConnection` exhausts its reconnect attempts, or
    when its :class:`CircuitBreaker` is open. Subclasses
    :class:`ProtocolError`, so every existing ``except`` that treats a
    dead peer as "just a dead volunteer" keeps working — the point is
    that it arrives in microseconds, not after another 5 s timeout.
    """


def encode_frame(op: str, payload: Optional[Dict[str, Any]] = None) -> bytes:
    """Encode one protocol frame."""
    return (json.dumps({"op": op, "payload": payload or {}}) + "\n").encode("utf-8")


def decode_frame(line: bytes) -> Dict[str, Any]:
    """Decode one protocol frame.

    Raises:
        ProtocolError: on malformed JSON or a missing ``op`` field.
    """
    try:
        data = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed frame: {line[:80]!r}") from exc
    if not isinstance(data, dict) or "op" not in data:
        raise ProtocolError(f"frame missing op: {data!r}")
    data.setdefault("payload", {})
    return data


async def read_frame(reader: asyncio.StreamReader) -> Optional[Dict[str, Any]]:
    """Read one frame; None on clean EOF.

    Raises:
        ProtocolError: on oversized or malformed frames.
    """
    try:
        line = await reader.readline()
    except (ConnectionResetError, BrokenPipeError):
        return None
    if not line:
        return None
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame too large: {len(line)} bytes")
    return decode_frame(line)


async def request(
    host: str,
    port: int,
    op: str,
    payload: Optional[Dict[str, Any]] = None,
    timeout: float = 5.0,
) -> Dict[str, Any]:
    """One-shot request/response over a fresh connection.

    Raises:
        ProtocolError / OSError / asyncio.TimeoutError on failure — the
        caller decides whether a dead peer is an error or just a dead
        volunteer node.
    """
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout
    )
    try:
        writer.write(encode_frame(op, payload))
        await writer.drain()
        reply = await asyncio.wait_for(read_frame(reader), timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
    if reply is None:
        raise ProtocolError(f"peer closed connection during {op!r}")
    return reply["payload"]


# ----------------------------------------------------------------------
# Retry with a total-latency budget
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry: capped attempts AND a total wall-clock budget.

    Backoff is *decorrelated jitter*: each sleep is drawn uniformly
    from ``[base_delay_s, 3 x previous_sleep]``, capped at
    ``max_delay_s`` — it spreads a thundering herd like full jitter but
    still grows geometrically in expectation. A retry is attempted only
    if the budget has room for its backoff sleep; whatever error ended
    the last attempt propagates once either bound trips.
    """

    max_attempts: int = 3
    budget_s: float = 2.0
    base_delay_s: float = 0.05
    max_delay_s: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1: {self.max_attempts}")
        if self.budget_s <= 0 or self.base_delay_s <= 0 or self.max_delay_s <= 0:
            raise ValueError("budget and delays must be positive")

    def next_delay(self, previous_s: float, rng: random.Random) -> float:
        return min(
            self.max_delay_s, rng.uniform(self.base_delay_s, max(previous_s, self.base_delay_s) * 3.0)
        )


async def call_with_retry(
    attempt: Callable[[], Awaitable[Dict[str, Any]]],
    policy: RetryPolicy,
    *,
    rng: Optional[random.Random] = None,
    on_retry: Optional[Callable[[int, float], None]] = None,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], Awaitable[None]] = asyncio.sleep,
) -> Dict[str, Any]:
    """Run ``attempt`` under ``policy``; retries on transport errors.

    ``on_retry(attempt_number, delay_s)`` fires before each backoff
    sleep — the live client uses it to emit
    :class:`~repro.obs.events.RetryScheduled` trace events.
    :class:`EdgeUnreachableError` is **not** retried: the breaker (or
    reconnect cap) has already decided the peer is down, and hammering
    it would defeat the fail-fast.
    """
    rng = rng if rng is not None else random.Random()
    deadline = clock() + policy.budget_s
    delay = policy.base_delay_s
    attempts = 0
    while True:
        attempts += 1
        try:
            return await attempt()
        except EdgeUnreachableError:
            raise
        except (OSError, ProtocolError, asyncio.TimeoutError):
            if attempts >= policy.max_attempts:
                raise
            delay = policy.next_delay(delay, rng)
            if clock() + delay >= deadline:
                raise
            if on_retry is not None:
                on_retry(attempts, delay)
            await sleep(delay)


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class CircuitBreaker:
    """Per-endpoint closed → open → half-open breaker.

    - **closed**: requests flow; ``failure_threshold`` *consecutive*
      failures trip it open.
    - **open**: :meth:`allow` is False — callers fail fast with
      :class:`EdgeUnreachableError` instead of paying another timeout.
    - **half-open**: after ``reset_timeout_s`` one trial request is let
      through; success closes the breaker, failure re-opens it (and
      restarts the reset clock).
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_timeout_s: float = 2.0,
        *,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Optional[Callable[[str, str], None]] = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1: {failure_threshold}")
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self._clock = clock
        self.on_transition = on_transition
        self._state = "closed"
        self._failures = 0
        self._opened_at = 0.0
        self._trial_in_flight = False

    @property
    def state(self) -> str:
        """Current state, advancing open → half-open on read."""
        if (
            self._state == "open"
            and self._clock() - self._opened_at >= self.reset_timeout_s
        ):
            self._set_state("half_open")
        return self._state

    def _set_state(self, new: str) -> None:
        old = self._state
        if old == new:
            return
        self._state = new
        if new != "open":
            self._trial_in_flight = False
        if self.on_transition is not None:
            self.on_transition(old, new)

    def allow(self) -> bool:
        """May a request proceed right now?

        In half-open state only one trial request is admitted at a time;
        concurrent callers keep failing fast until it resolves.
        """
        state = self.state
        if state == "closed":
            return True
        if state == "half_open" and not self._trial_in_flight:
            self._trial_in_flight = True
            return True
        return False

    def record_success(self) -> None:
        self._failures = 0
        self._set_state("closed")

    def record_failure(self) -> None:
        self._trial_in_flight = False
        if self._state == "half_open":
            self._opened_at = self._clock()
            self._set_state("open")
            return
        self._failures += 1
        if self._failures >= self.failure_threshold and self._state == "closed":
            self._opened_at = self._clock()
            self._set_state("open")


class PersistentConnection:
    """A kept-alive request/response channel to one peer.

    This is what "proactively established connections" are at the
    transport level: the TCP handshake is paid once, and a failover
    request rides an already-open socket.

    Robustness (opt-in, both default-compatible):

    - ``max_reconnect_attempts`` bounds *consecutive* failed
      (re)connects; once exhausted, further requests raise
      :class:`EdgeUnreachableError` immediately instead of paying a
      connect timeout each time. Any successful connect resets the
      count.
    - an attached :class:`CircuitBreaker` is consulted before every
      request and fed every outcome, so a dead peer costs
      ``failure_threshold`` timeouts total — not one per request.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 5.0,
        *,
        max_reconnect_attempts: int = 3,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        if max_reconnect_attempts < 1:
            raise ValueError(
                f"max_reconnect_attempts must be >= 1: {max_reconnect_attempts}"
            )
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_reconnect_attempts = max_reconnect_attempts
        self.breaker = breaker
        self._connect_failures = 0
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    @property
    def connected(self) -> bool:
        return self._writer is not None and not self._writer.is_closing()

    async def connect(self) -> None:
        try:
            self._reader, self._writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port), self.timeout
            )
        except (OSError, asyncio.TimeoutError):
            self._connect_failures += 1
            raise
        self._connect_failures = 0

    async def request(
        self, op: str, payload: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """Send one request on the standing connection.

        Raises:
            EdgeUnreachableError: breaker open or reconnect cap hit —
                the peer is considered down; fail fast.
            ProtocolError: when the peer vanished mid-exchange.
        """
        if self.breaker is not None and not self.breaker.allow():
            raise EdgeUnreachableError(
                f"{self.host}:{self.port} breaker open, refusing {op!r}"
            )
        try:
            if not self.connected:
                if self._connect_failures >= self.max_reconnect_attempts:
                    raise EdgeUnreachableError(
                        f"{self.host}:{self.port} unreachable after "
                        f"{self._connect_failures} connect attempts"
                    )
                await self.connect()
            assert self._writer is not None and self._reader is not None
            self._writer.write(encode_frame(op, payload))
            await self._writer.drain()
            reply = await asyncio.wait_for(read_frame(self._reader), self.timeout)
            if reply is None:
                await self.close()
                raise ProtocolError(f"peer closed connection during {op!r}")
        except (OSError, ProtocolError, asyncio.TimeoutError):
            if self.breaker is not None:
                self.breaker.record_failure()
            raise
        if self.breaker is not None:
            self.breaker.record_success()
        return reply["payload"]

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass
            self._writer = None
            self._reader = None
