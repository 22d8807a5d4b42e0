"""``serve``: the HTTP tier, a ``ReproServer`` in a child process.

One asyncio client (this process) on 2 keep-alive connections sends the
seeded mix of :data:`corpus.SERVE_MIX`: template GETs whose hole values
follow a Zipf draw over more names than the 512-entry response cache
holds (so both hits and renders occur), conditional GETs with a known
ETag, fresh variants of the 450-hole ``/order`` route (always misses)
and recurring ones (hits), schema-invalid holes (422, after which the server closes the connection
and the client reconnects), server-page hits, and ``POST /-/validate``
of small purchase orders, half of them invalid.

Throughput comes from a closed loop (each connection sends its next
request when the previous answer is in).  Latency comes from an open
loop at the fixed rate :data:`OPEN_RATE`, each request timed from the
moment it was due, so a stall also counts against the requests queued
behind it.  Expected bodies come from the DOM route
(``serialize(Template.render(...))``) or are predicted as text, and are
computed before the server is measured.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import resource
import time

import corpus
from common import (
    Outcome,
    median,
    peak_rss_mb,
    percentile,
    put_latencies,
    put_rates,
    remove_tree,
    slowdown,
    spawn_ready,
    stop,
    timed_setup,
    work_dir,
)

CONNECTIONS = 2
SETUP_REPEATS = 5
PLAN_REQUESTS = 60000
#: open-loop offered rate (requests/s).  The closed loop measured
#: 900-2500 requests/s on the 2-vCPU machine the benchmark was defined
#: on, depending on how busy its neighbours were, and an offered rate of
#: 500/s still tipped slow runs into queueing.  At a third of the slow
#: end the open loop measures service time and short queues, not the
#: neighbours
OPEN_RATE = 300.0
#: closed-loop and open-loop phases alternate in this many windows; each
#: metric is the median over windows, so a passing slowdown of the
#: machine moves one window, not the result.  Open-loop windows get two
#: thirds of the time: at :data:`OPEN_RATE` that is >= 1000 samples per
#: window for its p99 in a 30-second run
WINDOWS = 6


class Server:
    """The server child process, from spawn to its readiness line."""

    def __init__(self, root: str, cache_dir: str, traced: bool = False, cache_entries: int | None = None):
        env = dict(os.environ)
        env.pop("REPRO_OBS", None)
        if traced:
            env["REPRO_OBS"] = "1"
        args = [root, cache_dir] + ([] if cache_entries is None else [str(cache_entries)])
        self.process, self.info = spawn_ready("server_main.py", args, env)
        self.port = self.info["port"]

    def rss_mb(self) -> float:
        """Peak resident memory of the server; if it died, of the
        largest child process this one has waited for."""
        try:
            return peak_rss_mb(self.process.pid)
        except OSError:
            self.process.wait()
            return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def stop(self) -> None:
        """Terminate (the server drains) and wait; safe to repeat."""
        stop(self.process)


# -- expected answers ---------------------------------------------------------


class Expected:
    """Known answers for every request of a plan."""

    def __init__(self, root: str, plan: corpus.ServePlan):
        from repro import Template, bind
        from repro.dom import serialize
        from repro.serve import make_etag

        site = os.path.join(root, "examples", "site")
        sources = {}
        for name in ("purchase_order.xsd", "ship_to.pxml", "item.pxml", "legacy.page"):
            with open(os.path.join(site, name), encoding="utf-8") as handle:
                sources[name] = handle.read()
        binding = bind(sources["purchase_order.xsd"])
        ship_to = Template(binding, sources["ship_to.pxml"])
        item = Template(binding, sources["item.pxml"])
        heavy = Template(binding, corpus.HEAVY_SOURCE)
        self.templates = {"ship_to": ship_to, "item": item, "order": heavy}
        self.schema = binding.schema
        names = {r.key for r in plan.requests if r.kind == "ship_to"}
        self.ship_to = {name: serialize(ship_to.render(name=name)).encode() for name in names}
        self.item = {str(q): serialize(item.render(q=str(q))).encode() for q in range(1, 100)}
        self.etag = {q: make_etag(body) for q, body in self.item.items()}
        self.heavy_base = serialize(heavy.render(**corpus.heavy_values(0)))
        probe = serialize(heavy.render(**corpus.heavy_values(7)))
        if corpus.heavy_body(self.heavy_base, 7) != probe:
            raise ValueError("heavy-route body prediction disagrees with the DOM route")
        self.page = sources["legacy.page"]
        corpus.confirm_answers(
            binding.schema,
            [
                (f"post-{index}", text, corpus.VALID if valid else corpus.INVALID)
                for index, (text, valid) in enumerate(plan.posts)
            ],
        )
        self.post_valid = {str(index): valid for index, (_, valid) in enumerate(plan.posts)}

    def wire(self, request: corpus.Request, heavy_query: str) -> bytes:
        if request.kind == "post":
            return (
                f"POST /-/validate HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Type: application/xml\r\nContent-Length: {len(request.body)}\r\n\r\n"
            ).encode() + request.body
        path = request.path
        extra = ""
        if request.kind in ("heavy", "heavy_hit"):
            path = "/order?" + heavy_query.replace("&u0=0.99&", f"&u0={request.variant}.99&")
        elif request.kind == "conditional":
            extra = f"If-None-Match: {self.etag[request.key]}\r\n"
        return f"GET {path} HTTP/1.1\r\nHost: bench\r\n{extra}\r\n".encode()

    def check(self, request: corpus.Request, status: int, body: bytes) -> bool:
        kind = request.kind
        if kind == "ship_to":
            return status == 200 and body == self.ship_to[request.key]
        if kind == "item":
            return status == 200 and body == self.item[request.key]
        if kind == "conditional":
            return status == 304 and body == b""
        if kind in ("heavy", "heavy_hit"):
            return status == 200 and body == corpus.heavy_body(self.heavy_base, request.variant).encode()
        if kind == "invalid":
            return status == 422
        if kind == "legacy":
            return status == 200 and body == self.page.replace("<%= who %>", request.key).encode()
        valid = self.post_valid[request.key]
        if status != (200 if valid else 422):
            return False
        return json.loads(body)["valid"] is valid


def heavy_query() -> str:
    return "&".join(f"{k}={v}" for k, v in corpus.heavy_values(0).items())


# -- the client ---------------------------------------------------------------


class Connection:
    """One keep-alive connection; opened on first use and again after
    the server closes it (each re-open counts as a reconnect)."""

    def __init__(self, port: int, counters: dict):
        self.port = port
        self.counters = counters
        self.reader = self.writer = None
        self.used = False

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection("127.0.0.1", self.port)
        if self.used:
            self.counters["reconnects"] += 1
        self.used = True

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.writer = None

    async def request(self, wire: bytes) -> tuple[int, bytes]:
        if self.writer is None:
            await self.open()
        self.writer.write(wire)
        await self.writer.drain()
        head = await self.reader.readuntil(b"\r\n\r\n")
        status = int(head[9:12])
        length = 0
        close = False
        for line in head.split(b"\r\n")[1:]:
            lowered = line.lower()
            if lowered.startswith(b"content-length:"):
                length = int(line[15:])
            elif lowered.startswith(b"connection:") and b"close" in lowered:
                close = True
        body = await self.reader.readexactly(length) if length else b""
        if close:
            await self.close()
        return status, body


class Client:
    """Drives one server with a plan; counts, checks and times answers."""

    def __init__(self, port: int, plan: corpus.ServePlan, expected: Expected, wires: list[bytes], outcome: Outcome):
        self.port = port
        self.plan = plan
        self.expected = expected
        self.wires = wires
        self.outcome = outcome
        self.next_index = 0
        self.counters = {"reconnects": 0}

    def _take(self) -> int:
        index = self.next_index % len(self.wires)
        self.next_index += 1
        return index

    def _check(self, index: int, status: int, body: bytes) -> None:
        request = self.plan.requests[index]
        try:
            ok = self.expected.check(request, status, body)
        except Exception:  # an answer the checker cannot even read
            ok = False
        self.outcome.check(ok, lambda: f"{request.kind} {request.path[:60]}: status {status}")

    async def _exchange(self, connection: Connection, index: int) -> int:
        """Send request *index* and check its answer; the body's length,
        or -1 when the request failed.  A refused or reset connection,
        a truncated or unreadable response or any other exception counts
        as a failed op and drops the connection, so the next request
        connects again."""
        try:
            status, body = await connection.request(self.wires[index])
        except Exception as error:
            await connection.close()
            request = self.plan.requests[index]
            self.outcome.check(False, lambda: f"{request.kind} {request.path[:60]}: {type(error).__name__}: {error}")
            return -1
        self._check(index, status, body)
        return len(body)

    async def _connections(self) -> list[Connection]:
        """The loop's connections, opened before its clock starts; one
        that is refused here is tried again by its first request."""
        connections = [Connection(self.port, self.counters) for _ in range(CONNECTIONS)]
        for connection in connections:
            try:
                await connection.open()
            except OSError:
                pass
        return connections

    async def closed_loop(self, seconds: float) -> tuple[int, int, float, list[float]]:
        """Closed loop on every connection; ``(responses, body bytes,
        seconds, latencies)``.  Failed requests are not responses."""
        clock = time.perf_counter
        latencies: list[float] = []
        totals = [0, 0]

        async def run(connection: Connection) -> None:
            try:
                while clock() < deadline:
                    index = self._take()
                    t0 = clock()
                    size = await self._exchange(connection, index)
                    latencies.append(clock() - t0)
                    if size >= 0:
                        totals[0] += 1
                        totals[1] += size
            finally:
                await connection.close()

        connections = await self._connections()
        started = clock()
        deadline = started + seconds
        await asyncio.gather(*(run(connection) for connection in connections))
        return totals[0], totals[1], clock() - started, latencies

    async def open_loop(self, seconds: float, rate: float) -> tuple[list[float], list[float]]:
        """Open loop at *rate*; latencies and lateness from each due time.
        A failed request's latency runs until it failed."""
        clock = time.perf_counter
        total = int(rate * seconds)
        counter = itertools.count()
        latencies: list[float] = []
        lateness: list[float] = []

        async def run(connection: Connection) -> None:
            try:
                while True:
                    k = next(counter)
                    if k >= total:
                        return
                    due = started + k / rate
                    wait = due - clock()
                    if wait > 0:
                        await asyncio.sleep(wait)
                    lateness.append(clock() - due)
                    await self._exchange(connection, self._take())
                    latencies.append(clock() - due)
            finally:
                await connection.close()

        connections = await self._connections()
        started = clock() + 0.01
        await asyncio.gather(*(run(connection) for connection in connections))
        return latencies, lateness

    async def get(self, path: str) -> tuple[int, bytes]:
        connection = Connection(self.port, {"reconnects": 0})
        try:
            return await connection.request(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode())
        finally:
            await connection.close()

    async def rtt(self, wire: bytes, count: int) -> list[float]:
        connection = Connection(self.port, {"reconnects": 0})
        clock = time.perf_counter
        times = []
        try:
            for _ in range(count):
                t0 = clock()
                try:
                    status, _ = await connection.request(wire)
                except Exception as error:
                    await connection.close()
                    status = f"{type(error).__name__}: {error}"
                times.append(clock() - t0)
                self.outcome.check(status == 304, lambda: f"conditional GET answered {status}")
        finally:
            await connection.close()
        return times


def measured_rate(client: Client, seconds: float) -> float:
    """Closed-loop responses per second at reference speed."""
    before = slowdown()
    done, _, elapsed, _ = asyncio.run(client.closed_loop(seconds))
    return done / elapsed * (before + slowdown()) / 2


def start_servers(root: str, scratch: str, servers: list[Server]) -> tuple[list[float], list[float], list[dict]]:
    """Start the server :data:`SETUP_REPEATS` times from empty cache
    directories; the last one is left running.  Returns the set-up times
    at reference speed, the raw ones, and each readiness line."""
    setups, raws, infos = [], [], []
    for repeat in range(SETUP_REPEATS):
        if servers:
            servers[-1].stop()
        setup, raw, server = timed_setup(lambda: Server(root, os.path.join(scratch, f"cache-{repeat}")))
        servers.append(server)
        setups.append(setup)
        raws.append(raw)
        infos.append(server.info)
    return setups, raws, infos


def run(root: str, seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    scratch = work_dir(root)
    servers: list[Server] = []
    try:
        plan = corpus.serve_plan(seed, PLAN_REQUESTS)
        expected = Expected(root, plan)
        query = heavy_query()
        wires = [expected.wire(request, query) for request in plan.requests]
        setups, raw_setups, infos = start_servers(root, scratch, servers)
        server = servers[-1]
        client = Client(server.port, plan, expected, wires, outcome)
        asyncio.run(client.closed_loop(0.3))  # warm-up, checked too
        if trace:
            layers(root, scratch, servers, client, seconds, outcome, infos)
            return outcome
        window = seconds / 3 / WINDOWS
        closed, opened = [], []
        before = slowdown()
        for _ in range(WINDOWS):
            done, size, elapsed, _ = asyncio.run(client.closed_loop(window))
            middle = slowdown()
            closed.append((done, size, elapsed, before, middle, ()))
            latencies, _ = asyncio.run(client.open_loop(2 * window, OPEN_RATE))
            before = slowdown()
            opened.append((len(latencies), 0, 2 * window, middle, before, latencies))
        put_rates(outcome, closed)
        put_latencies(outcome, opened, per_window=True)
        outcome.put("setup_s", median(setups), "s", len(setups), median(raw_setups))
        outcome.put("peak_rss_mb", server.rss_mb(), "MB", 1)
        return outcome
    finally:
        for server in servers:
            server.stop()
        remove_tree(scratch)


def layers(root, scratch, servers, client, seconds, outcome, infos) -> None:
    """Per-layer metrics of the serve workload, the second half against
    a server started with its observability on."""
    from repro import ReproCache
    from repro.xsd import StreamingValidator

    outcome.put("serve.start_ms", median([i["listen_ms"] for i in infos]), "ms", len(infos))
    outcome.put("cache.bind_cold_ms", median([i["bind_ms"] for i in infos]), "ms", len(infos))
    outcome.put("pxml.template_compile_ms", median([i["compile_ms"] for i in infos]), "ms", len(infos))
    with open(os.path.join(root, "examples", "site", "purchase_order.xsd"), encoding="utf-8") as handle:
        schema_text = handle.read()
    warm = []
    for repeat in range(SETUP_REPEATS):
        started = time.perf_counter()
        ReproCache(os.path.join(scratch, f"cache-{repeat}")).bind(schema_text)
        warm.append(time.perf_counter() - started)
    outcome.put("cache.bind_warm_ms", median(warm) * 1000, "ms", len(warm))

    third = max(seconds / 3, 0.5)
    untraced = measured_rate(client, third)
    servers[-1].stop()
    servers.append(Server(root, os.path.join(scratch, "cache-traced"), traced=True))
    client.port = servers[-1].port
    asyncio.run(client.closed_loop(0.3))
    _, before = asyncio.run(client.get("/-/stats"))
    reconnects = client.counters["reconnects"]
    before_count = client.outcome.attempted
    traced = measured_rate(client, third)
    count = client.outcome.attempted - before_count
    _, lateness = asyncio.run(client.open_loop(third, OPEN_RATE))
    _, after = asyncio.run(client.get("/-/stats"))
    outcome.put("trace.serve_ops_per_s", traced, "1/s", count)
    outcome.put("trace.serve_overhead_pct", (untraced - traced) / untraced * 100, "%", count)
    outcome.put("serve.generator_late_ms", percentile(lateness, 99) * 1000, "ms", len(lateness))
    outcome.put("serve.reconnects", client.counters["reconnects"] - reconnects, "count", 1)

    stats = [json.loads(body)["server"] for body in (before, after)]
    hits = stats[1]["cache"]["hits"] - stats[0]["cache"]["hits"]
    misses = stats[1]["cache"]["misses"] - stats[0]["cache"]["misses"]
    outcome.put("serve.cache_hit_ratio", hits / (hits + misses), "ratio", hits + misses)
    classes = {"2xx": 0, "304": 0, "4xx": 0, "5xx": 0}
    for status in set(stats[0]["responses"]) | set(stats[1]["responses"]):
        delta = stats[1]["responses"].get(status, 0) - stats[0]["responses"].get(status, 0)
        name = "304" if status == "304" else status[0] + "xx"
        if name in classes:
            classes[name] += delta
    for name, value in classes.items():
        outcome.put(f"serve.responses_{name}", value, "count", 1)

    expected = client.expected
    wire = expected.wire(corpus.Request("conditional", "/item?q=5", "5"), "")
    times = asyncio.run(client.rtt(wire, 500))
    outcome.put("serve.not_modified_rtt_us", median(times) * 1e6, "us", len(times))

    clock = time.perf_counter
    requests = client.plan.requests[:5000]
    heavy_values = corpus.heavy_values(1)
    calls = {
        "ship_to": [{"name": r.key} for r in requests if r.kind == "ship_to"],
        "item": [{"q": r.key} for r in requests if r.kind in ("item", "conditional")],
        "order": [heavy_values] * 20,
    }
    for route, holes in calls.items():
        template = expected.templates[route]
        template.render_text(**holes[0])  # compile-on-first-use stays out of the timing
        t0 = clock()
        for values in holes:
            template.render_text(**values)
        outcome.put(f"pxml.render_text_us.{route}", (clock() - t0) * 1e6 / len(holes), "us", len(holes))
    validator = StreamingValidator(expected.schema)
    bodies = [text for text, _ in client.plan.posts]
    for text in bodies:
        validator.validate_text(text)  # warm: content tables are built on first use
    t0 = clock()
    for text in bodies:
        validator.validate_text(text)
    outcome.put("xsd.stream_validate_us", (clock() - t0) * 1e6 / len(bodies), "us", len(bodies))
