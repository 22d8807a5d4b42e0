"""``POST /-/validate``: the table-driven 422 pre-check as an endpoint.

Same raw-socket harness as ``test_server.py``; the endpoint streams the
posted body through the table-driven :class:`StreamingValidator` and
answers in JSON, so the assertions cover the verdicts, the error shapes
(message/line/column/path), and the route's method/config guards.
"""

import asyncio
import json

import pytest

from repro import obs
from repro.schemas import PURCHASE_ORDER_DOCUMENT
from repro.serve import RouteTable
from tests.serve.test_server import get, raw_request, running


def _post(port: int, body: bytes, path: str = "/-/validate"):
    payload = (
        f"POST {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    ).encode() + body
    return raw_request(port, payload)


def _parse(data: bytes):
    head, _, body = data.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(body) if body.startswith(b"{") else body


@pytest.fixture
def schema(po_binding):
    return po_binding.schema


class TestValidateEndpoint:
    def test_valid_document(self, schema):
        async def scenario():
            async with running(RouteTable(), schema=schema) as server:
                return await _post(
                    server.port, PURCHASE_ORDER_DOCUMENT.encode()
                )

        status, verdict = _parse(asyncio.run(scenario()))
        assert status == 200
        assert verdict == {"valid": True, "errors": []}

    def test_invalid_document_lists_errors(self, schema):
        bad = PURCHASE_ORDER_DOCUMENT.replace(
            "<city>Mill Valley</city>", "<bogus>x</bogus>", 1
        )

        async def scenario():
            async with running(RouteTable(), schema=schema) as server:
                return await _post(server.port, bad.encode())

        status, verdict = _parse(asyncio.run(scenario()))
        assert status == 422
        assert verdict["valid"] is False
        first = verdict["errors"][0]
        assert first["kind"] == "validation"
        assert "<bogus>" in first["message"]
        assert first["line"] > 1 and first["column"] >= 1
        assert first["path"] == "/purchaseOrder/shipTo"

    def test_malformed_document_is_syntax_error(self, schema):
        async def scenario():
            async with running(RouteTable(), schema=schema) as server:
                return await _post(server.port, b"<a><b></a>")

        status, verdict = _parse(asyncio.run(scenario()))
        assert status == 422
        assert verdict["valid"] is False
        assert [error["kind"] for error in verdict["errors"]] == ["syntax"]
        assert "does not match" in verdict["errors"][0]["message"]

    def test_get_is_method_not_allowed(self, schema):
        async def scenario():
            async with running(RouteTable(), schema=schema) as server:
                return await get(server.port, "/-/validate")

        status, headers, _body = asyncio.run(scenario())
        assert status == 405
        assert headers["allow"] == "POST"

    def test_without_schema_is_not_found(self):
        async def scenario():
            async with running(RouteTable()) as server:
                return await _post(server.port, b"<a/>")

        status, body = _parse(asyncio.run(scenario()))
        assert status == 404
        assert b"no schema" in body

    def test_non_utf8_body_is_bad_request(self, schema):
        async def scenario():
            async with running(RouteTable(), schema=schema) as server:
                return await _post(server.port, b"<a>\xff\xfe</a>")

        status, body = _parse(asyncio.run(scenario()))
        assert status == 400

    def test_counted_in_stats(self, schema):
        async def scenario():
            async with running(RouteTable(), schema=schema) as server:
                await _post(server.port, PURCHASE_ORDER_DOCUMENT.encode())
                status, _headers, body = await get(server.port, "/-/stats")
                assert status == 200
                return json.loads(body)

        obs.enable(reset=True)
        try:
            snapshot = asyncio.run(scenario())
        finally:
            obs.disable()
            obs.reset()
        stats = snapshot["server"]
        assert stats["validated"] == 1
        assert stats["responses"]["200"] >= 1
        # The route the posted document took: the turbo walker.
        assert snapshot["obs"]["counters"]["xsd.stream{lane=turbo}"] == 1


class TestPooledEndpoint:
    """``--validate-pool``: the same endpoint, fanned out to workers."""

    @pytest.fixture
    def pool(self):
        from repro.ingest import ValidationPool
        from repro.schemas import PURCHASE_ORDER_SCHEMA

        with ValidationPool(PURCHASE_ORDER_SCHEMA, 1) as pool:
            yield pool

    def test_pooled_verdicts_match_inline(self, schema, pool):
        bad = PURCHASE_ORDER_DOCUMENT.replace(
            "<city>Mill Valley</city>", "<bogus>x</bogus>", 1
        )

        async def scenario(validate_pool):
            async with running(
                RouteTable(), schema=schema, validate_pool=validate_pool
            ) as server:
                return [
                    await _post(server.port, body.encode())
                    for body in (
                        PURCHASE_ORDER_DOCUMENT, bad, "<a><b></a>"
                    )
                ]

        inline = [_parse(data) for data in asyncio.run(scenario(None))]
        pooled = [_parse(data) for data in asyncio.run(scenario(pool))]
        # Status AND verdict JSON byte-identical to the inline path.
        assert pooled == inline
        assert [status for status, _ in pooled] == [200, 422, 422]

    def test_pool_activity_lands_in_stats(self, schema, pool):
        async def scenario():
            async with running(
                RouteTable(), schema=schema, validate_pool=pool
            ) as server:
                await _post(server.port, PURCHASE_ORDER_DOCUMENT.encode())
                _status, _headers, body = await get(server.port, "/-/stats")
                return json.loads(body)

        stats = asyncio.run(scenario())["server"]
        assert stats["validated"] == 1
        assert stats["pool_validated"] == 1
        assert stats["validate_pool"]["texts"] == 1
        assert stats["validate_pool"]["completed"] == 1
        assert stats["validate_pool"]["live_workers"] == 1

    def test_dead_pool_answers_503_not_crash(self, schema):
        from repro.ingest import ValidationPool
        from repro.schemas import PURCHASE_ORDER_SCHEMA

        pool = ValidationPool(PURCHASE_ORDER_SCHEMA, 1)
        pool.close()

        async def scenario():
            async with running(
                RouteTable(), schema=schema, validate_pool=pool
            ) as server:
                first = await _post(
                    server.port, PURCHASE_ORDER_DOCUMENT.encode()
                )
                # The server keeps serving after the pool failure.
                status, _headers, _body = await get(server.port, "/-/stats")
                return first, status

        first, stats_status = asyncio.run(scenario())
        status, body = _parse(first)
        assert status == 503
        assert b"validation pool unavailable" in body
        assert stats_status == 200

    def test_get_still_method_not_allowed_with_pool(self, schema, pool):
        async def scenario():
            async with running(
                RouteTable(), schema=schema, validate_pool=pool
            ) as server:
                return await get(server.port, "/-/validate")

        status, headers, _body = asyncio.run(scenario())
        assert status == 405
        assert headers["allow"] == "POST"
