"""Raw-socket stand-ins for misbehaving replicas (shared test helpers).

:class:`FakeServer` hands every accepted connection to a handler, one
connection at a time; :func:`read_request` and :func:`respond` speak
just enough HTTP/1.1 for a handler to answer the service client.
"""

from __future__ import annotations

import json
import socket
import threading

from repro.api.types import SCHEMA_VERSION


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class FakeServer:
    """Accept loop that hands every connection to ``handler``."""

    def __init__(self, handler) -> None:
        self._handler = handler
        self._listener = socket.socket()
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(16)
        self.host, self.port = self._listener.getsockname()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            try:
                self._handler(conn)
            finally:
                conn.close()

    def close(self) -> None:
        try:  # wakes the blocked accept(); close() alone does not
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        self._thread.join(timeout=10)

    def __enter__(self) -> "FakeServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_request(conn: socket.socket) -> bytes:
    """Consume one HTTP request (headers + content-length body)."""
    conn.settimeout(10.0)
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(4096)
        if not chunk:
            return data
        data += chunk
    head, _, rest = data.partition(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n"):
        name, sep, value = line.partition(b":")
        if sep and name.strip().lower() == b"content-length":
            length = int(value.strip())
    while len(rest) < length:
        chunk = conn.recv(4096)
        if not chunk:
            break
        rest += chunk
    return head + b"\r\n\r\n" + rest


def respond(conn: socket.socket, status: str, body: bytes) -> None:
    conn.sendall(
        (
            f"HTTP/1.1 {status}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: keep-alive\r\n\r\n"
        ).encode("latin-1")
        + body
    )


def capacity_envelope(message: str) -> bytes:
    """A 429 body exactly as a full replica sends it."""
    return json.dumps(
        {
            "schema_version": SCHEMA_VERSION,
            "error": {"code": "capacity", "message": message},
        }
    ).encode("utf-8")


def answering(status: str, body: bytes):
    """A keep-alive handler answering every request with ``body``."""

    def handler(conn: socket.socket) -> None:
        while read_request(conn).strip():
            respond(conn, status, body)

    return handler
