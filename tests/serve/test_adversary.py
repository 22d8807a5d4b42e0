"""Hostile and awkward clients against a live :class:`ReproServer`.

Each case pins what one connection does at an edge: pipelined requests,
drip-fed and oversized heads, bodies shorter or longer than their
``Content-Length``, clients that hang up mid-body or never read, a
connection queued behind the cap, and a pool worker killed under load.
The server must keep answering, return 408 at ``request_timeout`` and
leave no connection counted as active.

Same raw-socket harness as ``test_server.py``.
"""

import asyncio
import contextlib
import json
import os
import signal
import time

import pytest

from repro.pxml import Template
from repro.schemas import PURCHASE_ORDER_DOCUMENT, PURCHASE_ORDER_SCHEMA
from repro.serve import RouteTable
from repro.serverpages import ServerPage
from tests.serve.test_server import get, raw_request, running

TIMEOUT = 0.5

#: ~64 KB per response: a client that never reads fills every socket
#: buffer between it and the server after a few hundred of them
BIG_PAGE = "<b>" + "x" * 65536 + "</b>"


@pytest.fixture
def routes(po_binding):
    table = RouteTable()
    table.add_template(
        "/item", Template(po_binding, "<quantity>$q$</quantity>")
    )
    table.add_page("/big", ServerPage(BIG_PAGE))
    return table


@pytest.fixture
def schema(po_binding):
    return po_binding.schema


def guarded(routes, **options):
    """The server as these cases run it: a short timeout, one slot."""
    options.setdefault("request_timeout", TIMEOUT)
    options.setdefault("max_connections", 1)
    return running(routes, **options)


def post(body: bytes, length: int | None = None) -> bytes:
    length = len(body) if length is None else length
    return (
        f"POST /-/validate HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {length}\r\n\r\n"
    ).encode() + body


def item(q: int, close: bool = False) -> bytes:
    connection = "Connection: close\r\n" if close else ""
    return f"GET /item?q={q} HTTP/1.1\r\nHost: t\r\n{connection}\r\n".encode()


async def read_response(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    """One ``Content-Length``-framed response: ``(status, body)``."""
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.lower() == b"content-length":
            length = int(value)
    return status, await reader.readexactly(length)


async def read_to_end(reader: asyncio.StreamReader) -> bytes:
    """Everything up to EOF.  A reset after the answer (the server
    closed with request bytes still unread) ends the read too."""
    chunks = []
    with contextlib.suppress(ConnectionError):
        while chunk := await reader.read(65536):
            chunks.append(chunk)
    return b"".join(chunks)


async def close(writer: asyncio.StreamWriter) -> None:
    writer.close()
    with contextlib.suppress(ConnectionError, OSError):
        await writer.wait_closed()


async def drip(writer: asyncio.StreamWriter, data: bytes, pause: float) -> None:
    """Send *data* one byte at a time; stop quietly once the server
    has hung up."""
    with contextlib.suppress(ConnectionError, OSError):
        for index in range(len(data)):
            writer.write(data[index : index + 1])
            await writer.drain()
            await asyncio.sleep(pause)


async def active_settles(port: int, expected: int) -> dict:
    """Scrape ``/-/stats`` until ``active`` reads *expected* (the
    scraping connection counts itself) or two seconds pass."""
    deadline = time.monotonic() + 2.0
    while True:
        _status, _headers, body = await get(port, "/-/stats")
        stats = json.loads(body)["server"]
        if stats["active"] == expected or time.monotonic() > deadline:
            return stats
        await asyncio.sleep(0.02)


class TestPipelining:
    def test_pipelined_requests_answer_in_order(self, routes, schema):
        requests = [item(1), post(PURCHASE_ORDER_DOCUMENT.encode()), item(2)]

        async def scenario():
            async with guarded(routes, schema=schema) as server:
                alone = []
                for request in requests:
                    data = await raw_request(
                        server.port,
                        request.replace(
                            b"Host: t\r\n", b"Host: t\r\nConnection: close\r\n"
                        ),
                    )
                    head, _, body = data.partition(b"\r\n\r\n")
                    alone.append((int(head.split(b" ", 2)[1]), body))
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"".join(requests))
                await writer.drain()
                together = [await read_response(reader) for _ in requests]
                await close(writer)
                return alone, together

        alone, together = asyncio.run(scenario())
        assert [status for status, _ in together] == [200, 200, 200]
        assert together == alone
        assert b'"valid": true' in together[1][1]


    def test_pipelined_burst_takes_turns_with_other_connections(
        self, routes
    ):
        burst = 1000

        async def scenario():
            async with guarded(routes, max_connections=2) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(item(1) * burst)
                await writer.drain()
                first = await read_response(reader)
                # The burst has started; a second client asks now.
                _status, _headers, body = await get(server.port, "/-/stats")
                answered_before = json.loads(body)["server"]["requests"]
                rest = [await read_response(reader) for _ in range(burst - 1)]
                await close(writer)
                return first, rest, answered_before

        first, rest, answered_before = asyncio.run(scenario())
        assert [first, *rest] == [first] * burst
        # The second client did not wait for the whole burst.
        assert answered_before < burst // 2


class TestHeads:
    HEAD = b"GET /item?q=1 HTTP/1.1\r\n\r\n"

    def test_drip_fed_head_inside_timeout_is_served(self, routes):
        async def scenario():
            async with guarded(routes) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                sender = asyncio.ensure_future(drip(writer, self.HEAD, 0.004))
                answer = await asyncio.wait_for(read_response(reader), 5.0)
                await sender
                await close(writer)
                return answer

        status, body = asyncio.run(scenario())
        assert status == 200
        assert body.startswith(b"<quantity>1</quantity>")

    def test_drip_fed_head_past_timeout_gets_408(self, routes):
        async def scenario():
            async with guarded(routes) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                started = time.monotonic()
                sender = asyncio.ensure_future(drip(writer, self.HEAD, 0.05))
                data = await asyncio.wait_for(read_to_end(reader), 5.0)
                elapsed = time.monotonic() - started
                sender.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await sender
                await close(writer)
                return data, elapsed

        data, elapsed = asyncio.run(scenario())
        assert data.startswith(b"HTTP/1.1 408 Request Timeout\r\n")
        assert data.endswith(b"408 Request Timeout: request timed out\n")
        # The budget covers the whole head, not the gap between bytes.
        assert TIMEOUT * 0.8 <= elapsed < len(self.HEAD) * 0.05

    def test_oversized_head_gets_431(self, routes):
        head = b"GET /item?q=1 HTTP/1.1\r\nX-Pad: " + b"a" * 40000 + b"\r\n\r\n"

        async def scenario():
            async with guarded(routes) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(head)
                with contextlib.suppress(ConnectionError):
                    await writer.drain()
                data = await asyncio.wait_for(read_to_end(reader), 5.0)
                await close(writer)
                return data

        data = asyncio.run(scenario())
        assert data.startswith(b"HTTP/1.1 431 Request Header Fields Too Large")
        assert data.endswith(b"request head too large\n")

    def test_half_a_head_then_eof_gets_400(self, routes):
        async def scenario():
            async with guarded(routes) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"GET /item?q=1 HTTP/1.1\r\nHo")
                writer.write_eof()
                data = await asyncio.wait_for(read_to_end(reader), 5.0)
                await close(writer)
                return data

        data = asyncio.run(scenario())
        assert data.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert data.endswith(b"truncated request head\n")


class TestBodies:
    def test_short_body_then_eof_gets_408(self, routes, schema):
        async def scenario():
            async with guarded(routes, schema=schema) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(post(b"<a/>", length=50))
                writer.write_eof()
                data = await asyncio.wait_for(read_to_end(reader), 5.0)
                await close(writer)
                return data

        data = asyncio.run(scenario())
        assert data.startswith(b"HTTP/1.1 408 Request Timeout\r\n")
        assert data.endswith(b"body timed out\n")

    def test_short_body_times_out_at_request_timeout(self, routes, schema):
        async def scenario():
            async with guarded(routes, schema=schema) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(post(b"<a/>", length=50))
                started = time.monotonic()
                data = await asyncio.wait_for(read_to_end(reader), 5.0)
                elapsed = time.monotonic() - started
                await close(writer)
                return data, elapsed

        data, elapsed = asyncio.run(scenario())
        assert data.endswith(b"408 Request Timeout: body timed out\n")
        assert TIMEOUT * 0.8 <= elapsed < 5.0

    def test_long_body_remainder_is_the_next_request(self, routes, schema):
        async def scenario():
            async with guarded(routes, schema=schema) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(post(b"<a/>", length=2))
                first = await asyncio.wait_for(read_response(reader), 5.0)
                rest = await asyncio.wait_for(read_to_end(reader), 5.0)
                await close(writer)
                return first, rest

        (status, verdict), rest = asyncio.run(scenario())
        assert status == 422  # the document was "<a"
        assert b'"kind": "syntax"' in verdict
        # "/>" never completes a head: it times out like any other.
        assert rest.endswith(b"408 Request Timeout: request timed out\n")

    def test_oversized_content_length_gets_413(self, routes, schema):
        async def scenario():
            async with guarded(routes, schema=schema) as server:
                return await raw_request(
                    server.port, post(b"", length=99999999)
                )

        data = asyncio.run(scenario())
        assert data.startswith(b"HTTP/1.1 413 Content Too Large\r\n")

    def test_disconnect_mid_body_leaves_no_active_connection(
        self, routes, schema
    ):
        async def scenario():
            async with guarded(routes, schema=schema) as server:
                _reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(post(b"<purchaseOrder", length=100))
                await writer.drain()
                await close(writer)
                status, _headers, _body = await get(server.port, "/item?q=3")
                # Only the scraping connection is active.
                stats = await active_settles(server.port, 1)
                for _ in range(100):
                    if server.stats["active"] == 0:
                        break
                    await asyncio.sleep(0.02)
                return status, stats, server.stats["active"]

        status, stats, active_after = asyncio.run(scenario())
        assert status == 200
        assert stats["active"] == 1
        assert active_after == 0


class TestConnectionCap:
    def test_queued_longer_than_timeout_is_still_served(self, routes):
        async def scenario():
            async with guarded(routes) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(item(1))
                await read_response(reader)
                started = time.monotonic()
                queued = asyncio.ensure_future(
                    raw_request(server.port, item(2, close=True))
                )
                # Hold the only slot past the timeout; each request
                # restarts this connection's own head budget.
                for _ in range(5):
                    await asyncio.sleep(TIMEOUT * 0.4)
                    writer.write(item(1))
                    assert (await read_response(reader))[0] == 200
                assert not queued.done()
                await close(writer)
                data = await asyncio.wait_for(queued, 5.0)
                return data, time.monotonic() - started

        data, waited = asyncio.run(scenario())
        assert data.startswith(b"HTTP/1.1 200 OK\r\n")
        assert waited > TIMEOUT


class TestBackpressure:
    def test_client_that_never_reads_stalls_without_starving_others(
        self, routes
    ):
        request = b"GET /big HTTP/1.1\r\nHost: t\r\n\r\n"
        chunk = request * (65536 // len(request))
        budget = 64 << 20

        async def scenario():
            # Two slots: the flood holds one, the second client the other.
            async with guarded(routes, max_connections=2) as server:
                _reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                sent, stalled = 0, False
                while sent < budget:
                    writer.write(chunk)
                    try:
                        await asyncio.wait_for(writer.drain(), 1.0)
                    except asyncio.TimeoutError:
                        stalled = True
                        break
                    sent += len(chunk)
                started = time.monotonic()
                status, _headers, _body = await asyncio.wait_for(
                    get(server.port, "/item?q=4"), 5.0
                )
                answered = time.monotonic() - started
                writer.transport.abort()
                return stalled, sent, status, answered

        stalled, sent, status, answered = asyncio.run(scenario())
        # The server stopped reading: the flood could not push 64 MB.
        assert stalled and sent < budget
        assert status == 200
        assert answered < 2.0


class TestPoolWorkerLoss:
    @pytest.fixture
    def pool(self):
        from repro.ingest import ValidationPool

        with ValidationPool(PURCHASE_ORDER_SCHEMA, 2) as pool:
            yield pool

    def test_killed_worker_loses_no_verdict(self, routes, schema, pool):
        documents = []
        for index in range(8):
            text = PURCHASE_ORDER_DOCUMENT.replace(
                "Mill Valley", f"Mill Valley {index}", 1
            )
            if index % 2:
                text = text.replace("<zip>", "<zap>", 1).replace(
                    "</zip>", "</zap>", 1
                )
            documents.append(text.encode())

        async def pipeline(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(b"".join(post(document) for document in documents))
            await writer.drain()
            return reader, writer

        async def scenario():
            async with guarded(routes, schema=schema, max_connections=4) as inline:
                reader, writer = await pipeline(inline)
                expected = [await read_response(reader) for _ in documents]
                await close(writer)
            async with guarded(
                routes, schema=schema, validate_pool=pool, max_connections=4
            ) as server:
                reader, writer = await pipeline(server)
                os.kill(pool._workers[0].process.pid, signal.SIGKILL)
                pooled = []
                for _ in documents:
                    pooled.append(
                        await asyncio.wait_for(read_response(reader), 10.0)
                    )
                    status, _headers, _body = await get(server.port, "/item?q=5")
                    assert status == 200
                await close(writer)
            return expected, pooled

        expected, pooled = asyncio.run(scenario())
        assert [status for status, _ in expected] == [200, 422] * 4
        assert pooled == expected
        assert pool.stats_snapshot()["live_workers"] == 1

