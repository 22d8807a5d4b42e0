"""The verdict cache of ``POST /-/validate``.

A verdict is a function of the server's fixed schema (or pool) and of
the posted bytes, so the server answers a body it has seen from a cache
keyed by the body's SHA-256 digest.  These cases hold every replay to
the bytes of the first answer and of a server without the cache, inline
and pooled; pin what is never stored (400s, 405s, oversized verdicts);
bound the entries; pin the counting rules (a hit counts as a validation
and a request, never as a walk or a pool round trip); and pin the
connection behaviour of a hit behind a pooled miss and while draining.

Same raw-socket harness as ``test_server.py``.
"""

import asyncio
import contextlib
import json
import re

import pytest

from repro import obs
from repro.pxml import Template
from repro.schemas import PURCHASE_ORDER_DOCUMENT, PURCHASE_ORDER_SCHEMA
from repro.serve import ReproServer, RouteTable
from repro.serve import server as server_module
from repro.serve.server import MAX_CACHED_VERDICT_BYTES
from tests.serve.test_server import get, raw_request, running

VALID = PURCHASE_ORDER_DOCUMENT.encode()

#: three validation errors: a zip that is no decimal, a part number off
#: its pattern and a quantity at its exclusive maximum
INVALID = (
    PURCHASE_ORDER_DOCUMENT.replace("<zip>90952</zip>", "<zip>x</zip>", 1)
    .replace('partNum="872-AA"', 'partNum="bogus"', 1)
    .replace("<quantity>1</quantity>", "<quantity>100</quantity>", 1)
    .encode()
)

#: not well-formed: the verdict is one syntax error
SYNTAX = b"<purchaseOrder><shipTo></purchaseOrder>"

BODIES = {"valid": (VALID, 200), "invalid": (INVALID, 422), "syntax": (SYNTAX, 422)}

NOT_UTF8 = b"<a>\xff\xfe</a>"


def post(body: bytes, close: bool = False) -> bytes:
    connection = "Connection: close\r\n" if close else ""
    return (
        f"POST /-/validate HTTP/1.1\r\nHost: t\r\n{connection}"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body


def distinct(index: int) -> bytes:
    """A valid purchase order whose bytes differ for every *index*."""
    return PURCHASE_ORDER_DOCUMENT.replace(
        "Mill Valley", f"Mill Valley {index}", 1
    ).encode()


def status_of(response: bytes) -> int:
    return int(response.split(b" ", 2)[1])


def body_of(response: bytes) -> bytes:
    return response.partition(b"\r\n\r\n")[2]


def undated(response: bytes) -> bytes:
    """*response* without its ``Date`` header, the one line that may
    differ between two answers with the same bytes."""
    return re.sub(rb"\r\nDate: [^\r]*", b"", response)


async def read_full(reader: asyncio.StreamReader) -> bytes:
    """One ``Content-Length``-framed response, head and body, as sent."""
    head = await reader.readuntil(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.lower() == b"content-length":
            length = int(value)
    return head + await reader.readexactly(length)


async def exchange(server: ReproServer, *requests: bytes) -> list[bytes]:
    """Send *requests* one at a time on one keep-alive connection."""
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    responses = []
    try:
        for request in requests:
            writer.write(request)
            await writer.drain()
            responses.append(await asyncio.wait_for(read_full(reader), 10.0))
    finally:
        writer.close()
        with contextlib.suppress(ConnectionError, OSError):
            await writer.wait_closed()
    return responses


async def stats(server: ReproServer) -> dict:
    _status, _headers, body = await get(server.port, "/-/stats")
    return json.loads(body)


@pytest.fixture
def schema(po_binding):
    return po_binding.schema


@pytest.fixture(scope="module")
def pool():
    from repro.ingest import ValidationPool

    with ValidationPool(PURCHASE_ORDER_SCHEMA, 1) as pool:
        yield pool


@pytest.fixture(params=["inline", "pooled"])
def validating(request, schema):
    """Server options for one way of validating: inline or pooled."""
    if request.param == "inline":
        return {"schema": schema}
    return {"schema": schema, "validate_pool": request.getfixturevalue("pool")}


@pytest.fixture
def walks(monkeypatch):
    """Every document the inline path hands to the walker."""
    seen: list[str] = []
    real = server_module.text_verdict

    def spy(validator, text):
        seen.append(text)
        return real(validator, text)

    monkeypatch.setattr(server_module, "text_verdict", spy)
    return seen


class TestReplay:
    @pytest.mark.parametrize("name", sorted(BODIES))
    def test_repeats_match_the_first_answer_and_an_uncached_server(
        self, validating, name
    ):
        body, status = BODIES[name]

        async def scenario(**options):
            async with running(RouteTable(), **validating, **options) as server:
                responses = await exchange(server, *[post(body)] * 3)
                return responses, (await stats(server))["server"]

        cached, cached_stats = asyncio.run(scenario())
        uncached, uncached_stats = asyncio.run(scenario(cache_entries=0))
        assert {status_of(response) for response in cached} == {status}
        # Status, headers and JSON are those of a fresh answer.
        assert len({undated(response) for response in cached + uncached}) == 1
        verdict = json.loads(body_of(cached[0]))
        if name == "invalid":
            assert len(verdict["errors"]) == 3
        elif name == "syntax":
            assert [error["kind"] for error in verdict["errors"]] == ["syntax"]
        snapshot = cached_stats["verdict_cache"]
        assert (snapshot["misses"], snapshot["hits"], snapshot["stores"]) == (1, 2, 1)
        assert snapshot["entries"] == 1
        assert uncached_stats["verdict_cache"] is None
        assert cached_stats["validated"] == uncached_stats["validated"] == 3

    def test_a_hit_runs_no_walker(self, schema, walks):
        async def scenario():
            async with running(RouteTable(), schema=schema) as server:
                return await exchange(
                    server, post(VALID), post(VALID), post(INVALID), post(INVALID)
                )

        responses = asyncio.run(scenario())
        assert [status_of(response) for response in responses] == [200, 200, 422, 422]
        assert walks == [VALID.decode(), INVALID.decode()]

    def test_a_hit_makes_no_pool_round_trip(self, schema, pool):
        texts = pool.stats_snapshot()["texts"]

        async def scenario():
            async with running(
                RouteTable(), schema=schema, validate_pool=pool
            ) as server:
                responses = await exchange(
                    server,
                    post(VALID),
                    post(VALID),
                    post(INVALID),
                    post(INVALID),
                    post(VALID),
                )
                return responses, (await stats(server))["server"]

        responses, snapshot = asyncio.run(scenario())
        assert [status_of(r) for r in responses] == [200, 200, 422, 422, 200]
        assert pool.stats_snapshot()["texts"] - texts == 2
        assert snapshot["pool_validated"] == 2
        assert snapshot["validated"] == 5
        assert snapshot["verdict_cache"]["hits"] == 3


class TestDisabled:
    def test_without_the_cache_every_post_validates(self, schema, walks):
        async def scenario():
            async with running(
                RouteTable(), schema=schema, cache_entries=0
            ) as server:
                responses = await exchange(server, *[post(VALID)] * 3)
                return responses, (await stats(server))["server"]

        responses, snapshot = asyncio.run(scenario())
        assert [status_of(response) for response in responses] == [200] * 3
        assert len(walks) == 3
        assert snapshot["verdict_cache"] is None
        assert snapshot["cache"] is None
        assert snapshot["validated"] == 3


class TestNeverStored:
    def test_a_body_that_is_not_utf8_gets_400_every_time(self, validating):
        async def scenario():
            async with running(RouteTable(), **validating) as server:
                responses = [
                    await raw_request(server.port, post(NOT_UTF8, close=True))
                    for _ in range(3)
                ]
                return responses, (await stats(server))["server"]

        responses, snapshot = asyncio.run(scenario())
        assert [status_of(response) for response in responses] == [400] * 3
        cache = snapshot["verdict_cache"]
        assert (cache["entries"], cache["stores"], cache["hits"]) == (0, 0, 0)
        assert snapshot["validated"] == 0

    @pytest.mark.parametrize("method", ["GET", "HEAD"])
    def test_other_methods_get_405_and_are_not_stored(self, schema, method):
        async def scenario():
            async with running(RouteTable(), schema=schema) as server:
                answers = [
                    await get(server.port, "/-/validate", method=method)
                    for _ in range(2)
                ]
                return answers, (await stats(server))["server"]

        answers, snapshot = asyncio.run(scenario())
        assert [status for status, _headers, _body in answers] == [405, 405]
        cache = snapshot["verdict_cache"]
        assert (cache["entries"], cache["misses"], cache["stores"]) == (0, 0, 0)


class TestBounds:
    def test_entries_stay_within_cache_entries(self, schema):
        entries = 4
        bodies = [distinct(index) for index in range(2 * entries)]

        async def scenario():
            async with running(
                RouteTable(), schema=schema, cache_entries=entries
            ) as server:
                await exchange(server, *[post(body) for body in bodies])
                full = server.verdict_cache.snapshot()
                # The newest body is still held, the oldest was evicted.
                await exchange(server, post(bodies[-1]), post(bodies[0]))
                return full, server.verdict_cache.snapshot()

        obs.enable(reset=True)
        try:
            full, after = asyncio.run(scenario())
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
            obs.reset()
        assert full["entries"] == entries
        assert (full["stores"], full["evictions"]) == (2 * entries, entries)
        assert (after["hits"], after["misses"]) == (1, 2 * entries + 1)
        assert after["entries"] == entries
        assert counters["serve.cache{cache=verdict,outcome=evict}"] == entries + 1

    def test_an_oversized_verdict_is_answered_but_not_stored(self, schema):
        item = (
            '<item partNum="bogus"><productName>x</productName>'
            "<quantity>100</quantity><USPrice>1</USPrice></item>"
        )
        body = PURCHASE_ORDER_DOCUMENT.replace(
            "<items>", "<items>" + item * 200, 1
        ).encode()

        async def scenario():
            async with running(RouteTable(), schema=schema) as server:
                responses = await exchange(server, post(body), post(body))
                return responses, server.verdict_cache.snapshot()

        responses, snapshot = asyncio.run(scenario())
        assert [status_of(response) for response in responses] == [422, 422]
        assert len(body_of(responses[0])) > MAX_CACHED_VERDICT_BYTES
        assert undated(responses[0]) == undated(responses[1])
        assert (snapshot["stores"], snapshot["hits"], snapshot["misses"]) == (0, 0, 2)


class TestCounting:
    @pytest.fixture
    def routes(self, po_binding):
        table = RouteTable()
        table.add_template(
            "/item", Template(po_binding, "<quantity>$q$</quantity>")
        )
        return table

    def test_a_hit_counts_as_a_validation_and_a_request(self, routes, schema):
        async def scenario():
            async with running(routes, schema=schema) as server:
                await exchange(
                    server,
                    post(VALID),
                    post(VALID),
                    post(INVALID),
                    post(INVALID),
                    b"GET /item?q=1 HTTP/1.1\r\nHost: t\r\n\r\n",
                    b"GET /item?q=1 HTTP/1.1\r\nHost: t\r\n\r\n",
                )
                return (await stats(server))["server"]

        obs.enable(reset=True)
        try:
            snapshot = asyncio.run(scenario())
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
            obs.reset()
        assert snapshot["validated"] == 4
        assert counters["serve.validate{outcome=valid}"] == 2
        assert counters["serve.validate{outcome=invalid}"] == 2
        assert counters["serve.request{route=-/validate,status=200}"] == 2
        assert counters["serve.request{route=-/validate,status=422}"] == 2
        # Two walks for four posts.
        assert counters["xsd.stream{lane=turbo}"] == 2
        for outcome in ("hit", "miss", "store"):
            assert counters[f"serve.cache{{cache=verdict,outcome={outcome}}}"] == 2
            # The page cache's counters and stats see page lookups only.
            assert counters[f"serve.cache{{outcome={outcome}}}"] == 1
        assert (snapshot["cache"]["hits"], snapshot["cache"]["misses"]) == (1, 1)

    def test_pooled_round_trips_count_misses_only(self, schema, pool):
        async def scenario():
            async with running(
                RouteTable(), schema=schema, validate_pool=pool
            ) as server:
                await exchange(server, *[post(VALID)] * 3)
                return (await stats(server))["server"]

        obs.enable(reset=True)
        try:
            snapshot = asyncio.run(scenario())
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
            obs.reset()
        assert snapshot["validated"] == 3
        assert snapshot["pool_validated"] == 1
        assert counters["serve.validate.pool"] == 1
        assert counters["serve.validate{outcome=valid}"] == 3
        assert counters["serve.request{route=-/validate,status=200}"] == 3


class TestConnections:
    def test_a_hit_pipelined_behind_a_pooled_miss_waits_for_it(
        self, schema, pool
    ):
        async def scenario():
            async with running(
                RouteTable(), schema=schema, validate_pool=pool
            ) as server:
                await exchange(server, post(VALID))  # VALID is now stored
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                # One write: the hit arrives while the miss is pending.
                writer.write(post(INVALID) + post(VALID))
                await writer.drain()
                first = await asyncio.wait_for(read_full(reader), 10.0)
                second = await asyncio.wait_for(read_full(reader), 10.0)
                writer.close()
                with contextlib.suppress(ConnectionError, OSError):
                    await writer.wait_closed()
                return first, second, server.verdict_cache.snapshot()

        first, second, snapshot = asyncio.run(scenario())
        assert (status_of(first), status_of(second)) == (422, 200)
        assert json.loads(body_of(first))["valid"] is False
        assert json.loads(body_of(second)) == {"valid": True, "errors": []}
        assert snapshot["hits"] == 1

    def test_a_hit_while_draining_says_connection_close(self, validating):
        async def scenario():
            server = ReproServer(
                RouteTable(), port=0, request_timeout=5.0, **validating
            )
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(post(VALID))
            await writer.drain()
            first = await read_full(reader)
            draining = asyncio.ensure_future(server.drain())
            await asyncio.sleep(0)  # the drain has begun
            assert server.stats["draining"]
            writer.write(post(VALID))
            await writer.drain()
            second = await asyncio.wait_for(read_full(reader), 10.0)
            rest = await asyncio.wait_for(reader.read(), 10.0)
            await asyncio.wait_for(draining, 10.0)
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()
            return first, second, rest, server.verdict_cache.snapshot()

        first, second, rest, snapshot = asyncio.run(scenario())
        assert b"\r\nConnection: keep-alive\r\n" in first
        assert b"\r\nConnection: close\r\n" in second
        assert undated(second) == undated(first).replace(
            b"Connection: keep-alive", b"Connection: close"
        )
        assert rest == b""  # the server closed after the hit
        assert snapshot["hits"] == 1
