"""End-to-end: real sockets against a running :class:`ReproServer`.

No async test framework — each test drives one ``asyncio.run`` with the
server and a raw-socket client inside, which keeps the loop lifetime
explicit and the suite dependency-free.
"""

import asyncio
import contextlib
import json

import pytest

from repro import obs
from repro.pxml import Template
from repro.serve import ReproServer, RouteTable
from repro.serverpages import ServerPage

SHIP_TO = """\
<shipTo country="US">
  <name>$name$</name>
  <street>123 Maple Street</street>
  <city>Mill Valley</city>
  <state>CA</state>
  <zip>90952</zip>
</shipTo>"""


@pytest.fixture
def routes(po_binding):
    table = RouteTable()
    table.add_template("/ship_to", Template(po_binding, SHIP_TO))
    table.add_template(
        "/item", Template(po_binding, "<quantity>$q$</quantity>")
    )
    table.add_page("/legacy", ServerPage("<b><%= who %></b>"))
    table.add_page("/crash", ServerPage("<% boom = 1 // 0 %>"))
    return table


@contextlib.asynccontextmanager
async def running(routes, **options):
    options.setdefault("request_timeout", 5.0)
    server = ReproServer(routes, port=0, **options)
    await server.start()
    try:
        yield server
    finally:
        server.request_shutdown()
        await server.drain()


async def raw_request(port: int, payload: bytes) -> bytes:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(payload)
    await writer.drain()
    data = await reader.read()
    writer.close()
    with contextlib.suppress(ConnectionError, OSError):
        await writer.wait_closed()
    return data


async def get(port: int, target: str, method: str = "GET") -> tuple[int, dict, bytes]:
    data = await raw_request(
        port,
        f"{method} {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n".encode(),
    )
    head, _, body = data.partition(b"\r\n\r\n")
    lines = head.decode().split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.lower()] = value.strip()
    return status, headers, body


class TestServing:
    def test_response_bytes_match_direct_render_text(self, routes, po_binding):
        template = Template(po_binding, SHIP_TO)

        async def scenario():
            async with running(routes) as server:
                return await get(server.port, "/ship_to?name=Alice%20Smith")

        status, headers, body = asyncio.run(scenario())
        assert status == 200
        assert headers["content-type"] == "application/xml; charset=utf-8"
        assert body == template.render_text(name="Alice Smith").encode()
        assert int(headers["content-length"]) == len(body)

    def test_head_has_length_but_no_body(self, routes):
        async def scenario():
            async with running(routes) as server:
                return await get(
                    server.port, "/ship_to?name=A", method="HEAD"
                )

        status, headers, body = asyncio.run(scenario())
        assert status == 200
        assert int(headers["content-length"]) > 0
        assert body == b""

    def test_status_mapping(self, routes):
        async def scenario():
            async with running(routes) as server:
                port = server.port
                return {
                    "missing-hole": await get(port, "/ship_to"),
                    "invalid-hole": await get(port, "/item?q=100"),
                    "no-route": await get(port, "/nope"),
                    "bad-method": await get(port, "/ship_to", method="PUT"),
                    "page-bug": await get(port, "/crash"),
                    "noise-ok": await get(port, "/item?q=3&utm=x"),
                }

        results = asyncio.run(scenario())
        assert results["missing-hole"][0] == 400
        assert results["invalid-hole"][0] == 422
        assert b"maxExclusive" in results["invalid-hole"][2]
        assert results["no-route"][0] == 404
        assert results["bad-method"][0] == 405
        assert results["bad-method"][1]["allow"] == "GET, HEAD"
        assert results["page-bug"][0] == 500
        assert b"ZeroDivisionError" not in results["page-bug"][2]
        assert results["noise-ok"][0] == 200

    def test_malformed_request_line_gets_400(self, routes):
        async def scenario():
            async with running(routes) as server:
                return await raw_request(server.port, b"NONSENSE\r\n\r\n")

        assert b"400 Bad Request" in asyncio.run(scenario())

    def test_keep_alive_serves_sequential_requests(self, routes):
        async def scenario():
            async with running(routes) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                statuses = []
                for _ in range(3):
                    writer.write(
                        b"GET /item?q=1 HTTP/1.1\r\nHost: t\r\n\r\n"
                    )
                    await writer.drain()
                    line = await reader.readline()
                    statuses.append(line.decode().split(" ")[1])
                    # Swallow the rest of this response before reusing.
                    head = await reader.readuntil(b"\r\n\r\n")
                    length = int(
                        dict(
                            tuple(part.strip() for part in h.split(":", 1))
                            for h in head.decode().lower().split("\r\n")
                            if ":" in h
                        )["content-length"]
                    )
                    await reader.readexactly(length)
                writer.close()
                connections = server.stats["connections"]
                return statuses, connections

        statuses, connections = asyncio.run(scenario())
        assert statuses == ["200", "200", "200"]
        assert connections == 1  # all three rode one connection


class TestOperations:
    def test_stats_endpoint(self, routes):
        async def scenario():
            async with running(routes) as server:
                await get(server.port, "/item?q=1")
                await get(server.port, "/nope")
                status, _, body = await get(server.port, "/-/stats")
                return status, json.loads(body)

        status, snapshot = asyncio.run(scenario())
        assert status == 200
        stats = snapshot["server"]
        assert stats["requests"] == 3  # two pages + the stats scrape
        assert stats["responses"]["200"] == 2
        assert stats["responses"]["404"] == 1
        assert "/item" in stats["routes"]

    def test_request_counters_flow_into_obs(self, routes):
        obs.enable(reset=True)
        try:

            async def scenario():
                async with running(routes) as server:
                    await get(server.port, "/item?q=1")
                    await get(server.port, "/legacy?who=x")
                    await get(server.port, "/nope")
                    _, _, body = await get(server.port, "/-/stats")
                    return json.loads(body)

            snapshot = asyncio.run(scenario())
        finally:
            obs.disable()
        counters = snapshot["obs"]["counters"]
        assert counters["serve.request{route=item,status=200}"] == 1
        assert counters["serve.fallback{reason=serverpage,route=legacy}"] == 1
        assert counters["serve.fallback{reason=no-route,route=-}"] == 1

    def test_health_endpoint(self, routes):
        async def scenario():
            async with running(routes) as server:
                return await get(server.port, "/-/health")

        status, _, body = asyncio.run(scenario())
        assert (status, body) == (200, b"ok\n")

    def test_slow_request_head_gets_408(self, routes):
        async def scenario():
            async with running(routes, request_timeout=0.2) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"GET /item?q=1 HTTP/1.1\r\n")  # never finishes
                await writer.drain()
                data = await asyncio.wait_for(reader.read(), 5.0)
                writer.close()
                return data

        data = asyncio.run(scenario())
        assert b"408 Request Timeout" in data

    def test_connection_cap_queues_not_refuses(self, routes):
        async def scenario():
            async with running(routes, max_connections=1) as server:
                port = server.port
                # First connection takes the only slot and holds it open.
                reader1, writer1 = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer1.write(b"GET /item?q=1 HTTP/1.1\r\nHost: t\r\n\r\n")
                await writer1.drain()
                await reader1.readuntil(b"\r\n\r\n")
                # Second connection must wait, not error out.
                second = asyncio.ensure_future(
                    raw_request(
                        port,
                        b"GET /item?q=2 HTTP/1.1\r\nHost: t\r\n"
                        b"Connection: close\r\n\r\n",
                    )
                )
                await asyncio.sleep(0.1)
                assert not second.done()  # still queued behind the cap
                writer1.close()  # free the slot...
                data = await asyncio.wait_for(second, 5.0)
                return data, server.stats["peak_active"]

        data, peak = asyncio.run(scenario())
        assert b"200 OK" in data
        assert peak == 1  # the cap held: never two active at once

    def test_drain_finishes_inflight_then_refuses_new(self, routes):
        async def scenario():
            server = ReproServer(routes, port=0, request_timeout=5.0)
            await server.start()
            port = server.port
            status, _, _ = await get(port, "/item?q=1")
            server.request_shutdown()
            assert server._shutdown_requested.is_set()
            await server.drain()
            with pytest.raises(OSError):
                await asyncio.open_connection("127.0.0.1", port)
            return status, server.stats["draining"]

        status, draining = asyncio.run(scenario())
        assert status == 200
        assert draining is True


class TestFraming:
    """Bodies the server cannot frame are refused, never guessed."""

    @staticmethod
    async def exchange(routes, payload: bytes) -> bytes:
        async with running(routes) as server:
            return await raw_request(server.port, payload)

    def test_malformed_content_length_gets_400(self, routes):
        data = asyncio.run(
            self.exchange(
                routes,
                b"POST /item HTTP/1.1\r\nContent-Length: 0_4\r\n\r\n"
                b"abcdGET /item?q=1 HTTP/1.1\r\n\r\n",
            )
        )
        assert data.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert b"malformed Content-Length '0_4'" in data
        assert data.count(b"HTTP/1.1 ") == 1  # nothing read past it

    def test_differing_content_lengths_get_400(self, routes):
        data = asyncio.run(
            self.exchange(
                routes,
                b"POST /item HTTP/1.1\r\nContent-Length: 5\r\n"
                b"Content-Length: 50\r\n\r\nabcde",
            )
        )
        assert data.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert b"malformed Content-Length '5, 50'" in data

    def test_transfer_encoding_gets_501_and_close(self, routes):
        data = asyncio.run(
            self.exchange(
                routes,
                b"POST /item HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"4\r\nabcd\r\n0\r\n\r\n",
            )
        )
        assert data.startswith(b"HTTP/1.1 501 Not Implemented\r\n")
        assert b"Connection: close\r\n" in data
        assert data.count(b"HTTP/1.1 ") == 1  # the chunks are not a request


class TestEveryStatusCounted:
    """Statuses written before a request is dispatched (timeouts, an
    oversized or truncated head) count like any other response."""

    def test_framing_failures_reach_stats_and_obs(self, routes):
        async def scenario():
            async with running(routes, request_timeout=0.3) as server:
                port = server.port
                await raw_request(port, b"GET /item?q=1 HTTP/1.1\r\n")  # 408
                await raw_request(  # body 408
                    port,
                    b"POST /item HTTP/1.1\r\nContent-Length: 9\r\n\r\nab",
                )
                with contextlib.suppress(ConnectionError):  # 431, maybe reset
                    await raw_request(
                        port, b"GET / HTTP/1.1\r\nX: " + b"a" * 40000 + b"\r\n\r\n"
                    )
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(b"GET /item HTTP/1.1\r\nHo")
                writer.write_eof()
                await reader.read()  # 400 truncated head
                writer.close()
                with contextlib.suppress(ConnectionError, OSError):
                    await writer.wait_closed()
                _status, _headers, body = await get(port, "/-/stats")
                return json.loads(body)

        obs.enable(reset=True)
        try:
            snapshot = asyncio.run(scenario())
        finally:
            obs.disable()
            obs.reset()
        stats = snapshot["server"]
        assert stats["responses"] == {"408": 2, "431": 1, "400": 1, "200": 1}
        assert stats["requests"] == 5
        assert stats["timeouts"] == 2
        counters = snapshot["obs"]["counters"]
        assert counters["serve.timeout"] == 2
        assert counters["serve.request{route=-,status=408}"] == 2
        assert counters["serve.request{route=-,status=431}"] == 1
        assert counters["serve.request{route=-,status=400}"] == 1
