"""The load generator: open and closed loops over raw keep-alive sockets.

Per request the generator only sends pre-encoded bytes, reads the reply
and ``json.loads`` it; full result decoding is left to the correctness
gate (:mod:`perfbench.oracle`), which runs on a sample after the timed
window.  At most two threads and two connections are used.

Failure accounting: a non-200 reply (429 refused, 504 deadline, any
other error envelope), a dropped connection and a reply still missing at
the drain deadline all count as failed.  Nothing is retried.
"""

from __future__ import annotations

import json
import selectors
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Sequence

from traffic import Request

__all__ = ["Outcome", "Connection", "open_loop", "closed_loop", "get_json"]

#: How long after the window a reply may still arrive before it counts
#: as timed out.
DRAIN_S = 20.0


@dataclass
class Outcome:
    """What happened to one request."""

    index: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    #: HTTP status, 0 for a dropped connection, -1 for a timeout.
    status: int = -1
    #: Queries the server answered by computing them (``meta.computed``).
    computed: int = 0
    #: Queries in the answer.
    answered: int = 0
    reply: dict[str, Any] | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3


class Connection:
    """One HTTP/1.1 keep-alive connection with an incremental reply
    parser (the service always sends ``Content-Length`` bodies)."""

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = bytearray()

    def close(self) -> None:
        self.sock.close()

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def feed(self, data: bytes) -> list[tuple[int, bytes]]:
        """Add received bytes; return every complete ``(status, body)``."""
        self._buf += data
        replies = []
        while True:
            end = self._buf.find(b"\r\n\r\n")
            if end < 0:
                return replies
            head = bytes(self._buf[:end]).decode("latin-1").split("\r\n")
            length = 0
            for line in head[1:]:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            total = end + 4 + length
            if len(self._buf) < total:
                return replies
            replies.append((int(head[0].split(" ")[1]), bytes(self._buf[end + 4 : total])))
            del self._buf[:total]

    def roundtrip(self, data: bytes) -> tuple[int, bytes]:
        """Send one request and block for its reply."""
        self.send(data)
        while True:
            chunk = self.sock.recv(1 << 20)
            if not chunk:
                raise ConnectionError("server closed the connection")
            replies = self.feed(chunk)
            if replies:
                return replies[0]


def _record(outcome: Outcome, status: int, body: bytes, keep: bool) -> None:
    outcome.status = status
    reply = json.loads(body)
    if status == 200:
        meta = reply.get("meta", {})
        outcome.answered = int(meta.get("queries", meta.get("candidates", 0)))
        outcome.computed = int(meta.get("computed", 0))
    if keep:
        outcome.reply = reply


def closed_loop(
    host: str,
    port: int,
    requests: Sequence[Request],
    *,
    keep: frozenset[int] = frozenset(),
) -> list[Outcome]:
    """One connection: send each request once the previous reply is in.

    Latency runs from send to reply.  Replies of the indices in ``keep``
    are kept for the correctness gate.
    """
    wires = [r.wire() for r in requests]
    outcomes: list[Outcome] = []
    conn = Connection(host, port)
    try:
        for index, wire in enumerate(wires):
            outcome = Outcome(index, due=time.perf_counter())
            outcome.sent = outcome.due
            outcomes.append(outcome)
            try:
                status, body = conn.roundtrip(wire)
            except OSError:
                outcome.status, outcome.done = 0, time.perf_counter()
                conn.close()
                conn = Connection(host, port)
                continue
            outcome.done = time.perf_counter()
            _record(outcome, status, body, index in keep)
    finally:
        conn.close()
    return outcomes


def open_loop(
    host: str,
    port: int,
    requests: Sequence[Request],
    *,
    keep: frozenset[int] = frozenset(),
) -> tuple[list[Outcome], float]:
    """Send each request at its due time on the less busy of two
    connections (pipelining behind an outstanding reply when both are
    busy); a second thread reads replies.

    Latency runs from the due time, so a stall also charges the
    requests it delayed.  Returns the outcomes and the time the window
    opened.
    """
    wires = [r.wire() for r in requests]
    conns = [Connection(host, port), Connection(host, port)]
    pending: list[deque[Outcome]] = [deque(), deque()]
    outcomes = [Outcome(i, due=0.0) for i in range(len(requests))]
    sent_all = threading.Event()
    lock = threading.Lock()

    def receive() -> None:
        selector = selectors.DefaultSelector()
        for slot, conn in enumerate(conns):
            conn.sock.setblocking(False)
            selector.register(conn.sock, selectors.EVENT_READ, slot)
        deadline = None
        try:
            while True:
                if sent_all.is_set():
                    with lock:
                        if not any(pending):
                            return
                    if deadline is None:
                        deadline = time.perf_counter() + DRAIN_S
                    elif time.perf_counter() > deadline:
                        return
                for key, _ in selector.select(timeout=0.05):
                    slot = key.data
                    try:
                        chunk = conns[slot].sock.recv(1 << 20)
                    except BlockingIOError:
                        continue
                    except OSError:
                        chunk = b""
                    now = time.perf_counter()
                    if not chunk:
                        # Dropped connection: everything outstanding on it
                        # fails; no retries.
                        selector.unregister(conns[slot].sock)
                        with lock:
                            while pending[slot]:
                                lost = pending[slot].popleft()
                                lost.status, lost.done = 0, now
                        continue
                    for status, body in conns[slot].feed(chunk):
                        with lock:
                            outcome = pending[slot].popleft()
                        outcome.done = now
                        _record(outcome, status, body, outcome.index in keep)
        finally:
            selector.close()

    reader = threading.Thread(target=receive, name="loadgen-recv")
    reader.start()
    start = time.perf_counter()
    try:
        for index, (request, wire) in enumerate(zip(requests, wires)):
            due = start + request.due_s
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            outcome = outcomes[index]
            outcome.due = due
            with lock:
                slot = 0 if len(pending[0]) <= len(pending[1]) else 1
                pending[slot].append(outcome)
            outcome.sent = time.perf_counter()
            try:
                # Blocking send on a socket the reader polls non-blocking:
                # retry the rest on a full buffer.
                view = memoryview(wire)
                while view:
                    try:
                        view = view[conns[slot].sock.send(view):]
                    except BlockingIOError:
                        time.sleep(0.0002)
            except OSError:
                outcome.status, outcome.done = 0, time.perf_counter()
                with lock:
                    if outcome in pending[slot]:
                        pending[slot].remove(outcome)
    finally:
        sent_all.set()
        reader.join()
        for conn in conns:
            conn.close()
    # Replies that never came: timed out at the drain deadline.
    for outcome in outcomes:
        if outcome.status == -1:
            outcome.done = outcome.due + DRAIN_S
    return outcomes, start


def get_json(host: str, port: int, path: str, timeout: float = 30.0) -> tuple[int, dict[str, Any]]:
    """One ``GET`` on a fresh connection (health, metrics)."""
    conn = Connection(host, port, timeout=timeout)
    try:
        status, body = conn.roundtrip(
            f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n".encode()
        )
    finally:
        conn.close()
    return status, json.loads(body)
