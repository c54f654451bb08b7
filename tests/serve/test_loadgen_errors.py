"""Load-generator error paths: the closed loop against broken servers.

The loadgen's contract is that a phase always terminates with every
request accounted as succeeded or failed — against servers that refuse
connections, drop mid-body, or answer nothing but 429.  Each scenario
here runs a real socket server (or none at all) so the client-side
classification, retry, and give-up logic is exercised on the wire.
"""

from __future__ import annotations

import socket
import threading

import pytest

from repro.api.errors import ApiError, CapacityError
from repro.api.types import Query
from repro.serve.client import ServeClient
from repro.serve.loadgen import (
    build_keyed_pool,
    build_query_pool,
    run_closed_loop,
    service_slots,
    shard_slots,
)
from repro.serve.registry import ReplicaSet
from tests.serve.fake_server import (
    FakeServer,
    answering,
    capacity_envelope,
    free_port,
    read_request,
)

pytestmark = pytest.mark.tier1


def _query() -> Query:
    return Query(workload="gups", size_gb=16.0, config="DRAM", num_threads=64)


def test_connection_refused_raises_oserror():
    port = free_port()  # nothing is listening here
    with ServeClient("127.0.0.1", port, timeout=5.0) as client:
        with pytest.raises(OSError):
            client.predict(_query())


def test_mid_body_disconnect_is_a_connection_error():
    """A server that dies mid-response must surface as a transport
    error (after the one keep-alive retry), never as a half-parsed
    envelope."""

    def handler(conn: socket.socket) -> None:
        read_request(conn)
        conn.sendall(
            b"HTTP/1.1 200 OK\r\nContent-Length: 4096\r\n\r\n{\"resul"
        )
        # close() in the accept loop drops the rest of the body

    with FakeServer(handler) as server:
        with ServeClient(server.host, server.port, timeout=5.0) as client:
            with pytest.raises(ConnectionError):
                client.predict(_query())


def test_backpressure_envelope_rehydrates_as_capacity_error():
    handler = answering(
        "429 Too Many Requests", capacity_envelope("queue full")
    )
    with FakeServer(handler) as server:
        with ServeClient(server.host, server.port, timeout=5.0) as client:
            with pytest.raises(CapacityError):
                client.predict(_query())


def _replica_set_at(host: str, port: int) -> ReplicaSet:
    replicas = ReplicaSet(fail_after=2)
    replicas.register("r0", host, port)
    return replicas


def _shard_phase(name, replicas, partitions, *, request_deadline_s):
    """One driver phase through client-side shard routing, with test-
    sized backoff and socket timeouts."""
    return run_closed_loop(
        name,
        partitions,
        *shard_slots(replicas, timeout_s=5.0),
        request_deadline_s=request_deadline_s,
        backoff_base_s=0.01,
        backoff_cap_s=0.05,
    )


def test_shard_phase_terminates_against_dead_replicas():
    """Every request is accounted failed — promptly, no hang — when the
    whole fleet is unreachable."""
    port = free_port()
    pool = build_keyed_pool(6)
    phase, responses = _shard_phase(
        "dead-fleet",
        _replica_set_at("127.0.0.1", port),
        [pool[:3], pool[3:]],
        request_deadline_s=1.0,
    )
    assert responses == []
    assert phase.offered == 6
    assert phase.succeeded == 0
    assert phase.failed == 6
    assert phase.goodput_rps == 0.0


def test_shard_phase_retries_429s_then_gives_up():
    """Pure backpressure: the closed loop must retry with backoff (the
    retries counter proves it) and still terminate at the request
    deadline with everything accounted."""
    handler = answering(
        "429 Too Many Requests", capacity_envelope("always full")
    )
    pool = build_keyed_pool(4)
    with FakeServer(handler) as server:
        phase, responses = _shard_phase(
            "all-429",
            _replica_set_at(server.host, server.port),
            [pool[:2], pool[2:]],
            request_deadline_s=0.8,
        )
    assert responses == []
    assert phase.failed == 4
    assert phase.retries > 0
    assert phase.success_rate == 0.0


def test_shard_phase_survives_mid_body_disconnects():
    def handler(conn: socket.socket) -> None:
        read_request(conn)
        conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 512\r\n\r\n{")

    pool = build_keyed_pool(4)
    with FakeServer(handler) as server:
        phase, responses = _shard_phase(
            "mid-body",
            _replica_set_at(server.host, server.port),
            [pool[:2], pool[2:]],
            request_deadline_s=1.0,
        )
    assert responses == []
    assert phase.offered == 4
    assert phase.succeeded == 0
    assert phase.failed == 4


def test_service_phase_against_refused_port_never_hangs():
    """A slot whose client cannot even connect counts its requests as
    failed and still releases the barrier: the phase returns."""
    port = free_port()  # nothing is listening here
    pool = build_query_pool(4)
    outcome: list = []

    def drive() -> None:
        outcome.append(
            run_closed_loop(
                "refused",
                [pool[:2], pool[2:]],
                *service_slots("127.0.0.1", port, deadline_s=5.0),
            )
        )

    driver = threading.Thread(target=drive, daemon=True)
    driver.start()
    driver.join(10)
    assert not driver.is_alive(), "driver hung against a refused port"
    phase, responses = outcome[0]
    assert responses == []
    assert phase.offered == phase.failed == 4
    assert phase.succeeded == 0


_EMPTY_RESULTS = b'{"results": []}'


def _bad_status(conn: socket.socket) -> None:
    while read_request(conn).strip():
        conn.sendall(
            b"HTTP/1.1 abc OK\r\nContent-Length: "
            + str(len(_EMPTY_RESULTS)).encode()
            + b"\r\n\r\n"
            + _EMPTY_RESULTS
        )


@pytest.mark.parametrize(
    "handler",
    [answering("200 OK", _EMPTY_RESULTS), _bad_status],
    ids=["empty-results", "non-numeric-status"],
)
def test_shard_phase_accounts_malformed_answers_as_failed(handler):
    """A replica answering garbage is a typed error per request, so
    every offered request lands in ``failed`` — none drop out."""
    pool = build_keyed_pool(4)
    with FakeServer(handler) as server:
        phase, responses = _shard_phase(
            "malformed",
            _replica_set_at(server.host, server.port),
            [pool[:2], pool[2:]],
            request_deadline_s=1.0,
        )
    assert responses == []
    assert phase.offered == phase.failed == 4


@pytest.mark.parametrize(
    "body",
    [b"{}", b'{"results": []}', b"[]", b'{"results": [1]}'],
    ids=["missing", "empty", "not-an-object", "malformed-entry"],
)
def test_malformed_results_raise_plain_api_error(body):
    """The caller is never blamed for the server's garbage: a plain
    ``ApiError`` (code ``internal``), not a request-error class."""
    with FakeServer(answering("200 OK", body)) as server:
        with ServeClient(server.host, server.port, timeout=5.0) as client:
            with pytest.raises(ApiError) as caught:
                client.predict(_query())
    assert type(caught.value) is ApiError


def test_non_numeric_content_length_is_an_api_error():
    def handler(conn: socket.socket) -> None:
        read_request(conn)
        conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: lots\r\n\r\n{}")

    with FakeServer(handler) as server:
        with ServeClient(server.host, server.port, timeout=5.0) as client:
            with pytest.raises(ApiError) as caught:
                client.predict(_query())
    assert type(caught.value) is ApiError


def test_missing_plan_is_an_api_error():
    from repro.plan.bench import synthetic_request

    with FakeServer(answering("200 OK", b"{}")) as server:
        with ServeClient(server.host, server.port, timeout=5.0) as client:
            with pytest.raises(ApiError) as caught:
                client.plan(synthetic_request(2, nodes_per_machine=4))
    assert type(caught.value) is ApiError
