"""SERVE — sustained request throughput of the HTTP tier.

The segment pipeline's promise is "guaranteed-valid markup at string
cost"; :mod:`repro.serve` puts a socket in front of it.  This
experiment measures how much of the ``render_text`` rate survives the
trip through HTTP framing — an asyncio keep-alive client hammering one
template route and reading complete, ``Content-Length``-framed
responses.

Three scenarios, all sharing the same client machinery:

* ``serve:ship_to``    — the PR 5 baseline: one small template route,
  single keep-alive connection, byte-parity against ``render_text``;
* ``serve:concurrent`` — several keep-alive connections hammering the
  same route at once; records the *aggregate* requests/sec, which is
  what a real deployment sees;
* ``serve:hot_cache``  — a deliberately render-heavy route (hundreds
  of validated holes per page) served cold (``cache_entries=0``) and
  then hot (response cache enabled, same URL repeatedly).  The ratio
  ``hot_over_cold`` is the PR 6 acceptance number, and the uncached,
  cached and directly rendered bodies must all be byte-identical — the
  cache may change *how* bytes are made, never *which* bytes.
* ``serve:verdict_cache`` — ``POST /-/validate`` with the verdict cache
  on and off, on two workloads: *fresh* bodies, every one new (the
  cache only hashes, misses, stores and evicts), and *repeated* ones
  (eight bodies over and over, nearly all hits).  The prediction is
  ``fresh_on_over_off`` near 1 and ``repeated_on_over_off`` well above
  it; both workloads must get the same verdict bytes either way.  The
  ratios are recorded, not gated.

Floors come from :mod:`benchmarks` (``floors.json``) so this module and
the CI ``bench-gate`` can never disagree about the acceptable numbers.

Environment knobs (used by the CI smoke job):

* ``REPRO_BENCH_QUICK=1``      — fewer requests, relaxed floors,
* ``REPRO_BENCH_JSON=<path>``  — where to write the JSON artifact
  (default: ``BENCH_serve_throughput.json``).
"""

import asyncio
import json
import os
import statistics
import time

import pytest

from benchmarks import bench_floor
from repro.pxml import Template
from repro.schemas import PURCHASE_ORDER_DOCUMENT
from repro.serve import ReproServer, RouteTable

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
REQUESTS = 150 if QUICK else 800
REPEATS = 2 if QUICK else 4
CONCURRENCY = 4
#: requests per run against the render-heavy route (each one evaluates
#: hundreds of validated holes, so the cold pass is genuinely slow)
HEAVY_REQUESTS = 40 if QUICK else 200

#: module-level result sink, flushed at teardown
RESULTS: dict[str, dict] = {}

SHIP_TO = """\
<shipTo country="US">
  <name>$name$</name>
  <street>123 Maple Street</street>
  <city>Mill Valley</city>
  <state>CA</state>
  <zip>90952</zip>
</shipTo>"""

TARGET = "/ship_to?name=Alice%20Smith"
HOLE_VALUES = {"name": "Alice Smith"}

#: the hot-cache workload: 150 items, each with three typed holes
#: (pattern-checked partNum, bounded quantity, decimal USPrice) —
#: 450 validations per render puts the route firmly in
#: render-dominated territory, which is exactly where a response
#: cache is supposed to pay off.
HEAVY_ITEM_COUNT = 150
HEAVY_SOURCE = "<items>{}</items>".format(
    "".join(
        f'<item partNum="$p{i}$"><productName>Widget {i}</productName>'
        f"<quantity>$q{i}$</quantity><USPrice>$u{i}$</USPrice></item>"
        for i in range(HEAVY_ITEM_COUNT)
    )
)
HEAVY_VALUES = {}
for _i in range(HEAVY_ITEM_COUNT):
    HEAVY_VALUES[f"p{_i}"] = f"{100 + _i}-AB"
    HEAVY_VALUES[f"q{_i}"] = str(1 + _i % 98)
    HEAVY_VALUES[f"u{_i}"] = f"{_i}.99"
HEAVY_QUERY = "&".join(f"{k}={v}" for k, v in HEAVY_VALUES.items())
HEAVY_TARGET = f"/order?{HEAVY_QUERY}"

#: ``POST /-/validate`` requests per pass of the verdict-cache scenario,
#: and passes per side
VERDICT_POSTS = 50 if QUICK else 100
VERDICT_PASSES = 8 if QUICK else 16
#: distinct bodies the repeated workload cycles through
VERDICT_REPEATED = 8


def _po_body(index: int) -> bytes:
    """Purchase order number *index*: distinct bytes (a trailing
    comment), every other one invalid (a ``partNum`` off its pattern)."""
    text = PURCHASE_ORDER_DOCUMENT
    if index % 2:
        text = text.replace('partNum="', 'partNum="x', 1)
    return f"{text}<!-- {index} -->\n".encode()


@pytest.fixture(scope="module", autouse=True)
def _write_json_report():
    yield
    target = os.environ.get("REPRO_BENCH_JSON", "BENCH_serve_throughput.json")
    if target and RESULTS:
        RESULTS["_meta"] = {"quick": QUICK}
        with open(target, "w", encoding="utf-8") as handle:
            json.dump(RESULTS, handle, indent=2, sort_keys=True)


def _routes(po_binding) -> RouteTable:
    table = RouteTable()
    table.add_template("/ship_to", Template(po_binding, SHIP_TO))
    return table


def _heavy_routes(po_binding) -> RouteTable:
    table = RouteTable()
    table.add_template("/order", Template(po_binding, HEAVY_SOURCE))
    return table


async def _read_response(reader) -> bytes:
    head = await reader.readuntil(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n"):
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":", 1)[1])
    return await reader.readexactly(length)


async def _client_burst(port: int, count: int, target: str = TARGET) -> bytes:
    """*count* keep-alive requests on one connection; returns last body."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = f"GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n".encode()
    body = b""
    for _ in range(count):
        writer.write(payload)
        await writer.drain()
        body = await _read_response(reader)
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    return body


async def _measure(po_binding) -> tuple[dict, bytes]:
    server = ReproServer(_routes(po_binding), port=0, request_timeout=30.0)
    await server.start()
    try:
        await _client_burst(server.port, 20)  # warmup
        rates = []
        body = b""
        for _ in range(REPEATS):
            start = time.perf_counter()
            body = await _client_burst(server.port, REQUESTS)
            elapsed = time.perf_counter() - start
            rates.append(REQUESTS / elapsed)
        result = {
            "requests_per_sec": round(max(rates), 1),
            "requests": REQUESTS,
            "repeats": REPEATS,
            "response_bytes": len(body),
            "floor_rps": bench_floor("serve_rps", QUICK),
            "served_total": server.stats["requests"],
        }
        return result, body
    finally:
        server.request_shutdown()
        await server.drain()


async def _measure_concurrent(po_binding) -> dict:
    server = ReproServer(
        _routes(po_binding),
        port=0,
        request_timeout=30.0,
        max_connections=CONCURRENCY * 2,
    )
    await server.start()
    try:
        await _client_burst(server.port, 20)  # warmup
        per_client = max(REQUESTS // CONCURRENCY, 20)
        rates = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            await asyncio.gather(
                *(
                    _client_burst(server.port, per_client)
                    for _ in range(CONCURRENCY)
                )
            )
            elapsed = time.perf_counter() - start
            rates.append(CONCURRENCY * per_client / elapsed)
        return {
            "requests_per_sec": round(max(rates), 1),
            "clients": CONCURRENCY,
            "requests_per_client": per_client,
            "repeats": REPEATS,
            "floor_rps": bench_floor("serve_concurrent_rps", QUICK),
        }
    finally:
        server.request_shutdown()
        await server.drain()


async def _measure_hot_cache(po_binding) -> tuple[dict, bytes, bytes]:
    """Cold vs hot req/s on the heavy route, plus both bodies for parity."""
    routes = _heavy_routes(po_binding)

    async def run_server(**options) -> tuple[float, bytes]:
        server = ReproServer(
            routes, port=0, request_timeout=30.0, **options
        )
        await server.start()
        try:
            await _client_burst(server.port, 5, HEAVY_TARGET)  # warmup
            best = 0.0
            body = b""
            for _ in range(REPEATS):
                start = time.perf_counter()
                body = await _client_burst(
                    server.port, HEAVY_REQUESTS, HEAVY_TARGET
                )
                elapsed = time.perf_counter() - start
                best = max(best, HEAVY_REQUESTS / elapsed)
            return best, body
        finally:
            server.request_shutdown()
            await server.drain()

    cold_rps, cold_body = await run_server(cache_entries=0)
    hot_rps, hot_body = await run_server()  # cache on (default)
    result = {
        "cold_rps": round(cold_rps, 1),
        "hot_rps": round(hot_rps, 1),
        "hot_over_cold": round(hot_rps / cold_rps, 2),
        "requests": HEAVY_REQUESTS,
        "holes_per_render": 3 * HEAVY_ITEM_COUNT,
        "response_bytes": len(cold_body),
        "floor_ratio": bench_floor("serve_hot_cache_ratio", QUICK),
    }
    return result, cold_body, hot_body


async def _post_burst(port: int, bodies: list[bytes]) -> list[bytes]:
    """POST each body to ``/-/validate`` in turn on one keep-alive
    connection; returns the verdict bodies."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    verdicts = []
    for body in bodies:
        writer.write(
            b"POST /-/validate HTTP/1.1\r\nHost: bench\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
        )
        await writer.drain()
        verdicts.append(await _read_response(reader))
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    return verdicts


async def _measure_verdict_cache(po_binding) -> tuple[dict, dict]:
    """POST req/s with the verdict cache on and off, per workload, plus
    each side's last verdicts for parity.  The two servers run side by
    side and take turns, each pass the same bodies, so a drift in
    machine speed moves both; the on/off ratio is the median of the
    passes' ratios."""

    def bodies(workload: str, repeat: int) -> list[bytes]:
        if workload == "fresh":
            first = repeat * VERDICT_POSTS
            return [_po_body(first + i) for i in range(VERDICT_POSTS)]
        return [_po_body(i % VERDICT_REPEATED) for i in range(VERDICT_POSTS)]

    result: dict = {"posts": VERDICT_POSTS, "repeats": VERDICT_PASSES}
    verdicts = {}
    for workload in ("fresh", "repeated"):
        servers = {
            side: ReproServer(
                RouteTable(),
                port=0,
                request_timeout=30.0,
                schema=po_binding.schema,
                cache_entries=entries,
            )
            for side, entries in (("off", 0), ("on", 512))
        }
        for server in servers.values():
            await server.start()
        try:
            rates: dict[str, list[float]] = {"off": [], "on": []}
            answers: dict[str, list[bytes]] = {}
            warmup = [_po_body(-1 - i) for i in range(10)]
            for server in servers.values():
                await _post_burst(server.port, warmup)
            for repeat in range(VERDICT_PASSES):
                sent = bodies(workload, repeat)
                order = ("off", "on") if repeat % 2 == 0 else ("on", "off")
                for side in order:
                    start = time.perf_counter()
                    answers[side] = await _post_burst(servers[side].port, sent)
                    elapsed = time.perf_counter() - start
                    rates[side].append(len(sent) / elapsed)
            hits = servers["on"].verdict_cache.hits
        finally:
            for server in servers.values():
                server.request_shutdown()
                await server.drain()
        verdicts[workload] = (answers["off"], answers["on"])
        ratios = [on / off for off, on in zip(rates["off"], rates["on"])]
        result[f"{workload}_off_rps"] = round(max(rates["off"]), 1)
        result[f"{workload}_on_rps"] = round(max(rates["on"]), 1)
        result[f"{workload}_on_over_off"] = round(statistics.median(ratios), 3)
        result[f"{workload}_hits"] = hits
    return result, verdicts


def test_sustained_throughput_and_byte_parity(po_binding):
    expected = Template(po_binding, SHIP_TO).render_text(**HOLE_VALUES)
    result, body = asyncio.run(_measure(po_binding))
    # Parity first: speed means nothing if the bytes are wrong.
    assert body == expected.encode("utf-8")
    RESULTS["serve:ship_to"] = result
    floor = result["floor_rps"]
    print(
        f"\nserve: {result['requests_per_sec']:.0f} req/s sustained "
        f"({result['response_bytes']} bytes/response, "
        f"floor {floor} req/s)"
    )
    assert result["requests_per_sec"] >= floor, (
        f"serving tier sustained only {result['requests_per_sec']:.0f} "
        f"req/s (floor {floor})"
    )


def test_concurrent_aggregate_throughput(po_binding):
    result = asyncio.run(_measure_concurrent(po_binding))
    RESULTS["serve:concurrent"] = result
    floor = result["floor_rps"]
    print(
        f"\nserve concurrent: {result['requests_per_sec']:.0f} req/s "
        f"aggregate across {result['clients']} connections "
        f"(floor {floor} req/s)"
    )
    assert result["requests_per_sec"] >= floor, (
        f"aggregate throughput {result['requests_per_sec']:.0f} req/s "
        f"across {result['clients']} clients (floor {floor})"
    )


def test_hot_cache_ratio_and_three_way_parity(po_binding):
    expected = Template(po_binding, HEAVY_SOURCE).render_text(**HEAVY_VALUES)
    result, cold, hot = asyncio.run(_measure_hot_cache(po_binding))
    # Three-way parity: direct render, uncached response, cached replay.
    assert cold == expected.encode("utf-8")
    assert hot == cold
    RESULTS["serve:hot_cache"] = result
    floor = result["floor_ratio"]
    print(
        f"\nserve hot cache: {result['hot_rps']:.0f} req/s hot vs "
        f"{result['cold_rps']:.0f} cold — {result['hot_over_cold']:.1f}x "
        f"({result['holes_per_render']} holes/render, floor {floor}x)"
    )
    assert result["hot_over_cold"] >= floor, (
        f"response cache bought only {result['hot_over_cold']:.1f}x over "
        f"uncached rendering (floor {floor}x)"
    )


def test_verdict_cache_on_fresh_and_repeated_bodies(po_binding):
    result, verdicts = asyncio.run(_measure_verdict_cache(po_binding))
    for off_verdicts, on_verdicts in verdicts.values():
        assert on_verdicts == off_verdicts
    assert b'"valid": false' in verdicts["fresh"][0][1]
    # Fresh bodies never hit; repeated ones hit from the second lap on.
    assert result["fresh_hits"] == 0
    assert result["repeated_hits"] >= VERDICT_PASSES * VERDICT_POSTS - 2 * (
        VERDICT_REPEATED + 10
    )
    RESULTS["serve:verdict_cache"] = result
    print(
        f"\nserve verdict cache: fresh bodies {result['fresh_on_rps']:.0f} "
        f"vs {result['fresh_off_rps']:.0f} req/s "
        f"({result['fresh_on_over_off']:.2f}x), repeated bodies "
        f"{result['repeated_on_rps']:.0f} vs {result['repeated_off_rps']:.0f} "
        f"req/s ({result['repeated_on_over_off']:.2f}x), cache on vs off"
    )
