"""The asyncio HTTP server serving compiled, schema-valid pages.

``loop.create_server`` accepts connections, one :class:`asyncio.Protocol`
object each.  A connection frames requests straight out of its receive
buffer (a head bounded in time and size, then a ``Content-Length``
body), dispatches each through the
:class:`~repro.serve.routes.RouteTable` and writes one
``Content-Length``-framed response, all in the callback that completed
the request; pipelined requests are answered in order, one per
event-loop turn.  Rendering is
the segment pipeline's ``render_text`` — the same precomputed-string
path the benchmarks measure — so the serving tier adds framing, not
tree walks.

Serve v2 takes the next step, not computing a pure answer twice when it
can prove it does not have to:

* **response cache** — a bounded LRU
  (:class:`~repro.serve.cache.ResponseCache`) keyed on ``(route
  fingerprint, typed hole values)`` replays final response bytes; every
  200 carries a strong ETag (content hash), ``If-None-Match`` matches
  collapse to bodiless 304s, and the cache is explicitly invalidated
  when :meth:`ReproServer.set_routes` swaps in a rebuilt table;
* **verdict cache** — a second LRU of the same kind, keyed on the
  SHA-256 digest of a ``POST /-/validate`` body, replays the status and
  JSON of its verdict: a re-posted document costs a hash and a lookup,
  no decode, no walk and no pool round trip.  Both caches are sized by
  ``cache_entries`` and switched off with it; only pure answers (200
  pages, 200/422 verdicts) are stored.

Operational behaviour:

* **connection cap with backpressure** — at most ``max_connections``
  connections are *served* concurrently; beyond that, new connections
  are accepted, stop reading, and are admitted in arrival order as
  slots free (their bytes wait in kernel buffers) instead of being
  refused.  A served connection also stops reading while its transport
  is over the high-water mark or a pooled verdict is pending, so its
  receive buffer stays bounded;
* **per-request timeout** — one deadline per connection.  A request
  head that does not arrive within ``request_timeout`` seconds of
  admission, or of the previous response, gets a 408 and the
  connection is closed; a body gets a budget of its own.  A queued or
  blocked connection has no deadline running;
* **graceful drain** — SIGTERM (or :meth:`request_shutdown`) stops the
  listener, lets every in-flight request finish, then returns from
  :meth:`run`; responses sent while draining carry
  ``Connection: close``, idle connections end at their deadline, and
  anything still open ``request_timeout + 1`` seconds later is aborted;
* **observability** — every request counts into :mod:`repro.obs`
  (``serve.request`` by route and status, ``serve.latency`` timings,
  ``serve.fallback`` for unvalidated/missed routes) and into a
  process-local ``stats`` dict served at ``/-/stats`` so a scrape needs
  no obs opt-in.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import signal
import time
from collections import deque
from typing import Any

from repro import obs
from repro.errors import (
    PxmlError,
    ReproError,
    ValidationError,
    VdomError,
)
from repro.serve.cache import DEFAULT_MAX_ENTRIES, CachedResponse, ResponseCache
from repro.serve.http import (
    MAX_BODY_BYTES,
    MAX_HEAD_BYTES,
    HttpError,
    HttpRequest,
    build_response,
    error_response,
    etag_matches,
    make_etag,
    not_modified_response,
    parse_request,
)
from repro.serve.routes import Route, RouteTable
from repro.xsd.stream import StreamingValidator, text_verdict

#: content type of every rendered page (they are XML by construction)
PAGE_CONTENT_TYPE = "application/xml; charset=utf-8"

#: content type of the JSON answers: verdicts and ``/-/stats``
JSON_CONTENT_TYPE = "application/json; charset=utf-8"

#: the largest verdict JSON the verdict cache stores, so the cache holds
#: at most ``cache_entries`` times this many body bytes (2 MiB at the
#: default 512 entries).  An error takes about 200 bytes of JSON, so this
#: keeps every verdict of up to about 18 errors; a longer one is answered
#: but recomputed.
MAX_CACHED_VERDICT_BYTES = 4 * 1024

#: parameter-shaped failures: the request named holes that do not fit
_CLIENT_PARAM_ERRORS = (TypeError, KeyError, NameError)

#: validity-shaped failures: the value reached the schema and lost
_VALIDITY_ERRORS = (VdomError, ValidationError, PxmlError)


class ReproServer:
    """Serve a :class:`RouteTable` over HTTP/1.1."""

    def __init__(
        self,
        routes: RouteTable,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_connections: int = 64,
        request_timeout: float = 10.0,
        cache_entries: int = DEFAULT_MAX_ENTRIES,
        schema: Any = None,
        validate_pool: Any = None,
    ):
        self.routes = routes
        self.host = host
        self.port = port  # replaced by the bound port after start()
        self.max_connections = max_connections
        self.request_timeout = request_timeout
        #: bounded response cache; ``cache_entries=0`` serves uncached
        self.cache = ResponseCache(cache_entries) if cache_entries else None
        #: ``POST /-/validate`` verdicts by the SHA-256 digest of the body,
        #: sized and switched off with the page cache
        self.verdict_cache = (
            ResponseCache(cache_entries, name="verdict") if cache_entries else None
        )
        #: schema backing ``POST /-/validate`` (table-driven streaming
        #: pre-check for incoming documents); ``None`` disables the route
        self.schema = schema
        self._validator = (
            StreamingValidator(schema) if schema is not None else None
        )
        #: persistent :class:`~repro.ingest.pool.ValidationPool` backing
        #: ``POST /-/validate`` — documents fan out to warm worker
        #: processes so the validation tier scales past one core.  The
        #: caller owns the pool's lifecycle; ``None`` validates inline.
        self.validate_pool = validate_pool
        self.stats: dict[str, Any] = {
            "connections": 0,
            "requests": 0,
            "responses": {},  # status code (str, for JSON) -> count
            "active": 0,
            "peak_active": 0,
            "timeouts": 0,
            "bytes_sent": 0,
            "not_modified": 0,
            "validated": 0,
            "pool_validated": 0,
            "draining": False,
        }
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        #: every open connection, admitted or queued
        self._live: set[_Connection] = set()
        #: connections waiting for a slot, in arrival order
        self._queue: deque[_Connection] = deque()
        #: resolved by the last connection to close while draining
        self._drained: asyncio.Future | None = None
        self._shutdown_requested: asyncio.Event | None = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting (returns once listening)."""
        self._shutdown_requested = asyncio.Event()
        self._loop = asyncio.get_running_loop()
        self._server = await self._loop.create_server(
            lambda: _Connection(self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def set_routes(self, routes: RouteTable) -> None:
        """Swap in a rebuilt route table and invalidate cached responses.

        The explicit clear is the cache's correctness contract on
        rebuild: a recompiled route may produce different bytes for the
        same key shape, and stale entries must not outlive the table
        they were rendered from.  (Content-addressed route fingerprints
        are defense in depth, not a substitute.)  The verdict cache
        stays: a verdict does not depend on the routes.
        """
        self.routes = routes
        if self.cache is not None:
            self.cache.clear()

    def request_shutdown(self) -> None:
        """Ask :meth:`run` to drain and return (signal-handler safe)."""
        if self._shutdown_requested is not None:
            self._shutdown_requested.set()

    async def drain(self) -> None:
        """Stop accepting, let in-flight requests finish, close up."""
        self.stats["draining"] = True
        if self._server is not None:
            self._server.close()
        # A queued connection has no request in flight: it closes now.
        while self._queue:
            self._queue[0].close()
        if self._live:
            # Keep-alive connections close after their current response;
            # an idle one at its deadline.  Anything still open after
            # that grace window is aborted rather than holding shutdown
            # hostage.
            self._drained = self._loop.create_future()
            await asyncio.wait(
                (self._drained,), timeout=self.request_timeout + 1.0
            )
            for connection in list(self._live):
                connection.transport.abort()
            await self._drained
        if self._server is not None:
            await self._server.wait_closed()

    async def run(self, *, install_signal_handlers: bool = True) -> None:
        """Start, serve until SIGTERM/SIGINT (or
        :meth:`request_shutdown`), then drain gracefully."""
        if self._server is None:
            await self.start()
        if install_signal_handlers:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self.request_shutdown)
                except (NotImplementedError, RuntimeError):
                    # Platforms/embeddings without signal support still
                    # get programmatic shutdown.
                    break
        assert self._shutdown_requested is not None
        await self._shutdown_requested.wait()
        await self.drain()

    # -- connection slots ----------------------------------------------------

    def _opened(self, connection: _Connection) -> None:
        self.stats["connections"] += 1
        self._live.add(connection)
        if self.stats["draining"]:
            connection.close()
        elif self.stats["active"] < self.max_connections and not self._queue:
            self._admit(connection)
        else:
            # The cap: a queued connection stops reading after its first
            # bytes, so the rest of its request waits in kernel buffers
            # until a slot frees up.
            connection.queued = True
            self._queue.append(connection)

    def _admit(self, connection: _Connection) -> None:
        self.stats["active"] += 1
        self.stats["peak_active"] = max(
            self.stats["peak_active"], self.stats["active"]
        )
        connection.admitted = True
        connection.start()

    def _release(self, connection: _Connection) -> None:
        """*connection* is done with its slot (or its place in line)."""
        if connection.queued:
            connection.queued = False
            self._queue.remove(connection)
        elif connection.admitted:
            connection.admitted = False
            self.stats["active"] -= 1
            if self._queue:
                waiting = self._queue.popleft()
                waiting.queued = False
                self._admit(waiting)

    def _closed(self, connection: _Connection) -> None:
        self._release(connection)
        self._live.discard(connection)
        if not self._live and self._drained is not None:
            if not self._drained.done():
                self._drained.set_result(None)

    # -- request dispatch ----------------------------------------------------

    def _record(self, route_name: str | None, status: int) -> None:
        self.stats["requests"] += 1
        responses = self.stats["responses"]
        key = str(status)
        responses[key] = responses.get(key, 0) + 1
        obs.count(
            "serve.request", route=route_name or "-", status=status
        )

    def _respond(
        self, request: HttpRequest, keep_alive: bool, body: bytes = b""
    ) -> bytes | asyncio.Task:
        """One request to one response: its complete bytes or, for a
        pooled ``POST /-/validate`` verdict, the task computing them."""
        keep_alive = keep_alive and not self.stats["draining"]
        head_only = request.method == "HEAD"
        if request.path == "/-/validate":
            return self._validate_body(request, body, keep_alive)
        if request.method not in ("GET", "HEAD"):
            self._record(None, 405)
            body = f"405 Method Not Allowed: {request.method}\n".encode()
            return build_response(
                405,
                body,
                keep_alive=keep_alive,
                head_only=head_only,
                extra_headers=(("Allow", "GET, HEAD"),),
            )
        if request.path == "/-/stats":
            self._record("-/stats", 200)
            return build_response(
                200,
                self._stats_body(),
                JSON_CONTENT_TYPE,
                keep_alive=keep_alive,
                head_only=head_only,
            )
        if request.path == "/-/health":
            status = 503 if self.stats["draining"] else 200
            self._record("-/health", status)
            body = b"draining\n" if status == 503 else b"ok\n"
            return build_response(
                status, body, keep_alive=keep_alive, head_only=head_only
            )
        route = self.routes.resolve(request.path)
        if route is None:
            self._record(None, 404)
            obs.count("serve.fallback", route="-", reason="no-route")
            # Named as sent: the decoded path may hold a U+FFFD that
            # stands for bytes the client did not send.
            sent = request.target.partition("?")[0]
            body = f"404 Not Found: no route for {sent}\n".encode()
            return build_response(
                404, body, keep_alive=keep_alive, head_only=head_only
            )
        started = time.perf_counter()
        params = request.query
        if_none_match = request.headers.get("if-none-match")
        key = (
            route.response_key(params) if self.cache is not None else None
        )
        if key is not None:
            entry = self.cache.get(key)
            if entry is not None:
                # Replaying the stored bytes *is* the render: template
                # output is a pure function of its typed hole values.
                return self._finish(
                    route,
                    entry.body,
                    entry.etag,
                    if_none_match,
                    keep_alive=keep_alive,
                    head_only=head_only,
                )
        try:
            with obs.timeit("serve.render", route=route.name):
                text = route.render(params)
        except _VALIDITY_ERRORS as error:
            # The page would have been schema-invalid; it is refused
            # whole instead of served broken.
            self._record(route.name, 422)
            obs.count("serve.fallback", route=route.name, reason="invalid")
            return error_response(422, str(error), keep_alive=False)
        except _CLIENT_PARAM_ERRORS as error:
            self._record(route.name, 400)
            obs.count("serve.fallback", route=route.name, reason="bad-params")
            return error_response(
                400,
                f"missing or unusable page parameter ({error})",
                keep_alive=False,
            )
        except Exception as error:  # noqa: BLE001
            # Audited boundary: an arbitrary page bug must become one
            # 500, never a dropped connection or a dead server.
            self._record(route.name, 500)
            obs.count(
                "serve.fallback",
                route=route.name,
                reason=type(error).__name__,
            )
            return error_response(500, "page failed to render", keep_alive=False)
        body = text.encode("utf-8")
        etag = make_etag(body)
        if key is not None:
            self.cache.put(key, body, etag, PAGE_CONTENT_TYPE)
        self._observe_latency(route.name, time.perf_counter() - started)
        return self._finish(
            route,
            body,
            etag,
            if_none_match,
            keep_alive=keep_alive,
            head_only=head_only,
        )

    def _validate_body(
        self, request: HttpRequest, body: bytes, keep_alive: bool
    ) -> bytes | asyncio.Task:
        """``POST /-/validate``: the 422 pre-check as a service.

        The posted document streams through the table-driven
        :class:`~repro.xsd.stream.StreamingValidator` — no DOM, no typed
        tree — and the verdict comes back as JSON: 200 with
        ``{"valid": true}`` or 422 listing every validation error (or
        the one fatal syntax error) with line/column positions.

        The verdict cache answers first.  A verdict is a function of the
        body bytes and of the server's schema or pool, which is fixed for
        the server's lifetime, so an entry never needs invalidating and
        a repeated body is answered from its SHA-256 digest: no decode,
        no walk, no pool round trip.  Only a miss decodes the body (a
        non-UTF-8 body gets its 400 every time) and validates it, inline
        or, with a pool, in a task this returns for the connection to
        wait on.
        """
        if request.method != "POST":
            self._record("-/validate", 405)
            return build_response(
                405,
                b"405 Method Not Allowed: POST an XML document to validate\n",
                keep_alive=keep_alive,
                head_only=request.method == "HEAD",
                extra_headers=(("Allow", "POST"),),
            )
        if self._validator is None and self.validate_pool is None:
            self._record("-/validate", 404)
            return build_response(
                404,
                b"404 Not Found: the server has no schema to validate "
                b"against\n",
                keep_alive=keep_alive,
            )
        key = None
        if self.verdict_cache is not None:
            key = hashlib.sha256(body).digest()
            entry = self.verdict_cache.get(key)
            if entry is not None:
                return self._verdict_response(entry, keep_alive)
        try:
            text = body.decode("utf-8")
        except UnicodeDecodeError:
            self._record("-/validate", 400)
            return error_response(400, "request body is not valid UTF-8")
        if self.validate_pool is not None:
            return self._loop.create_task(
                self._validate_pooled(text, key, keep_alive)
            )
        with obs.timeit("serve.validate"):
            payload = text_verdict(self._validator, text)
        return self._new_verdict(payload, key, keep_alive)

    async def _validate_pooled(
        self, text: str, key: bytes | None, keep_alive: bool
    ) -> bytes:
        """``POST /-/validate`` through the persistent worker pool.

        Verdict JSON is byte-identical to the inline path — workers
        shape errors with the same helper — but the validation itself
        runs in another process, so N pool workers validate N posted
        documents genuinely in parallel.
        """
        try:
            with obs.timeit("serve.validate", route="pool"):
                future = self.validate_pool.submit_text(text)
                payload = await asyncio.wrap_future(future)
        except ReproError as error:
            # The pool lost every worker (or was closed under us):
            # fail the request, not the server.
            self._record("-/validate", 503)
            obs.count("serve.fallback", route="-/validate", reason="pool-down")
            return error_response(
                503, f"validation pool unavailable ({error})", keep_alive=False
            )
        self.stats["pool_validated"] += 1
        obs.count("serve.validate.pool")
        # A drain that began while the worker ran closes after this.
        keep_alive = keep_alive and not self.stats["draining"]
        return self._new_verdict(payload, key, keep_alive)

    def _new_verdict(
        self, payload: dict, key: bytes | None, keep_alive: bool
    ) -> bytes:
        """A verdict just computed: its response, stored under the
        body's *key* unless the cache is off or the JSON is too long."""
        status = 200 if payload["valid"] else 422
        body = (json.dumps(payload, indent=2) + "\n").encode()
        if key is not None and len(body) <= MAX_CACHED_VERDICT_BYTES:
            verdict = self.verdict_cache.put(
                key, body, None, JSON_CONTENT_TYPE, status
            )
        else:
            verdict = CachedResponse(body, None, JSON_CONTENT_TYPE, status)
        return self._verdict_response(verdict, keep_alive)

    def _verdict_response(self, verdict: CachedResponse, keep_alive: bool) -> bytes:
        """A ``POST /-/validate`` verdict as its 200 or 422, counted and
        framed alike whether it was computed or replayed."""
        status = verdict.status
        self.stats["validated"] += 1
        obs.count(
            "serve.validate", outcome="valid" if status == 200 else "invalid"
        )
        self._record("-/validate", status)
        return build_response(
            status, verdict.body, verdict.content_type, keep_alive=keep_alive
        )

    def _finish(
        self,
        route: Route,
        body: bytes,
        etag: str,
        if_none_match: str | None,
        *,
        keep_alive: bool,
        head_only: bool,
    ) -> bytes:
        """A 200 with its validator, or a 304 when it matches."""
        if if_none_match and etag_matches(if_none_match, etag):
            self._record(route.name, 304)
            self.stats["not_modified"] += 1
            return not_modified_response(etag, keep_alive=keep_alive)
        self._record(route.name, 200)
        return build_response(
            200,
            body,
            PAGE_CONTENT_TYPE,
            keep_alive=keep_alive,
            head_only=head_only,
            extra_headers=(("ETag", etag),),
        )

    def _observe_latency(self, route_name: str, seconds: float) -> None:
        self.stats.setdefault("render_seconds", 0.0)
        self.stats["render_seconds"] += seconds

    def _stats_body(self) -> bytes:
        snapshot = {
            "server": {
                **{
                    key: value
                    for key, value in self.stats.items()
                    if key != "responses"
                },
                "responses": dict(self.stats["responses"]),
                "routes": self.routes.paths(),
                "max_connections": self.max_connections,
                "request_timeout": self.request_timeout,
                "cache": (
                    self.cache.snapshot() if self.cache is not None else None
                ),
                "verdict_cache": (
                    self.verdict_cache.snapshot()
                    if self.verdict_cache is not None
                    else None
                ),
                "validate_pool": (
                    self.validate_pool.stats_snapshot()
                    if self.validate_pool is not None
                    else None
                ),
            },
            "obs": obs.snapshot(),
        }
        return (json.dumps(snapshot, indent=2, sort_keys=True) + "\n").encode()


class _Connection(asyncio.Protocol):
    """One client connection: frames requests straight out of its
    receive buffer and answers each in the callback that completed it.

    While queued behind ``max_connections``, or blocked (its transport
    over the high-water mark, or a pooled verdict pending), it reads
    nothing and runs no deadline.  One timer serves every deadline:
    re-arming stores a new time and the timer re-schedules itself when
    it fires early, so a request costs no task and no future, and only
    a request pipelined behind another waits an event-loop turn.
    """

    def __init__(self, server: ReproServer):
        self.server = server
        self.loop = server._loop
        self.transport: asyncio.Transport | None = None
        self.buffer = bytearray()
        #: buffer prefix already searched for the end of a head
        self.scanned = 0
        #: a parsed head whose body is still arriving, and its length
        self.request: HttpRequest | None = None
        self.length = 0
        self.queued = False
        self.admitted = False
        self.closing = False
        self.eof = False
        self.writing_paused = False
        #: the pooled ``POST /-/validate`` task this connection waits on
        self.verdict: asyncio.Task | None = None
        self.deadline: float | None = None
        self.timer: asyncio.TimerHandle | None = None

    # -- transport callbacks -------------------------------------------------

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self.server._opened(self)

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        if self.admitted:
            self._frame()
        elif self.queued:
            # Paused here rather than in connection_made: Python 3.10
            # starts reading after connection_made even when it paused.
            self.transport.pause_reading()

    def eof_received(self) -> bool:
        self.eof = True
        if self.admitted:
            self._frame()
        return True  # keep the transport open for the answer

    def pause_writing(self) -> None:
        self.writing_paused = True
        self._block()

    def resume_writing(self) -> None:
        self.writing_paused = False
        self._unblock()

    def connection_lost(self, exc: Exception | None) -> None:
        self.closing = True
        self.deadline = None
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None
        if self.verdict is not None:
            self.verdict.cancel()
        self.server._closed(self)

    # -- life cycle ----------------------------------------------------------

    def start(self) -> None:
        """Admitted: the head budget starts now."""
        self._arm()
        if self.buffer or self.eof:
            # Bytes read while queued are framed on the next loop turn,
            # so admitting a chain of queued connections never recurses.
            self.loop.call_soon(self._frame)
        else:
            self.transport.resume_reading()

    def close(self) -> None:
        """End the connection from this side: give up the slot, send
        what is buffered, close."""
        if not self.closing:
            self.closing = True
            self.deadline = None
            self.server._release(self)
            self.transport.close()

    def _block(self) -> None:
        """A response cannot go out yet: stop reading and the clock."""
        self.deadline = None
        if not self.eof:
            self.transport.pause_reading()

    def _unblock(self) -> None:
        if self.closing or self.writing_paused or self.verdict is not None:
            return
        self._arm()
        self._frame()  # resumes reading once it needs more bytes

    # -- the deadline --------------------------------------------------------

    def _arm(self) -> None:
        """Start a fresh ``request_timeout`` budget."""
        self.deadline = self.loop.time() + self.server.request_timeout
        if self.timer is None:
            self.timer = self.loop.call_at(self.deadline, self._expire)

    def _expire(self) -> None:
        self.timer = None
        if self.deadline is None or self.closing:
            return
        if self.loop.time() < self.deadline:  # re-armed since scheduled
            self.timer = self.loop.call_at(self.deadline, self._expire)
            return
        self._time_out()

    def _time_out(self) -> None:
        self.server.stats["timeouts"] += 1
        obs.count("serve.timeout")
        if self.request is None:
            self._fail(408, "request timed out")
        else:
            self._fail(408, "body timed out")

    # -- framing -------------------------------------------------------------

    def _frame(self) -> None:
        """Answer the next complete request in the buffer.

        A request buffered behind it waits one event-loop turn, with
        reading paused, so a pipelining client takes turns with the
        other connections instead of holding the loop for a whole
        receive buffer of requests.
        """
        buffer = self.buffer
        while not (self.closing or self.writing_paused or self.verdict):
            if self.request is None:
                end = buffer.find(b"\r\n\r\n", self.scanned)
                if end < 0:
                    if len(buffer) - 3 > MAX_HEAD_BYTES:
                        self._fail(431, "request head too large")
                    elif self.eof:
                        if buffer:
                            self._fail(400, "truncated request head")
                        else:
                            self.close()  # clean EOF between requests
                    else:
                        self.scanned = max(0, len(buffer) - 3)
                        self.transport.resume_reading()
                    return
                if end > MAX_HEAD_BYTES:
                    self._fail(431, "request head too large")
                    return
                head = bytes(buffer[:end])
                del buffer[: end + 4]
                self.scanned = 0
                try:
                    request = parse_request(head)
                    length = request.content_length
                    if length > MAX_BODY_BYTES:
                        raise HttpError(413, "request body too large")
                except HttpError as error:
                    self._fail(error.status, error.message)
                    return
                if length:
                    # Page serving is GET-shaped, but ``POST /-/validate``
                    # consumes its body; reading it always keeps the
                    # stream framed either way.
                    self.request, self.length = request, length
                    if len(buffer) < length:
                        self._arm()
                    continue
                body = b""
            else:
                if len(buffer) < self.length:
                    if self.eof:
                        self._time_out()
                    else:
                        self.transport.resume_reading()
                    return
                request, self.request = self.request, None
                body = bytes(buffer[: self.length])
                del buffer[: self.length]
            self._answer(request, body)
            if buffer:
                if not self.eof:
                    self.transport.pause_reading()
                self.loop.call_soon(self._frame)
                return

    def _answer(self, request: HttpRequest, body: bytes) -> None:
        response = self.server._respond(
            request, request.wants_keep_alive(), body
        )
        if isinstance(response, asyncio.Task):
            # A verdict-cache miss fanned out to a warm pool worker; the
            # event loop stays free for other connections while the
            # worker runs the table-driven streaming validator.  Later
            # pipelined requests wait for this verdict.
            self.verdict = response
            response.add_done_callback(self._deliver)
            self._block()
            return
        if not self._write(response):
            self.close()
        elif not self.writing_paused:
            self._arm()  # the next head's budget

    def _deliver(self, task: asyncio.Task) -> None:
        """The pooled verdict is in: answer it, then frame what waited."""
        self.verdict = None
        if task.cancelled():
            return  # the connection went away first
        error = task.exception()
        if error is not None:
            self.loop.call_exception_handler(
                {
                    "message": "pooled validation failed",
                    "exception": error,
                    "protocol": self,
                }
            )
            self.transport.abort()
            return
        if self.closing:
            return  # the client left while its verdict was computed
        # A drain that began while the worker ran closes here too.
        if not self._write(task.result()) or self.server.stats["draining"]:
            self.close()
        else:
            self._unblock()

    def _fail(self, status: int, message: str) -> None:
        """Answer with an error and close: the framing is lost."""
        self.server._record(None, status)
        self._write(error_response(status, message))
        self.close()

    def _write(self, response: bytes) -> bool:
        """Send *response*; whether its head lets the connection stay
        open.  A response that says ``Connection: close`` ends it."""
        self.transport.write(response)
        self.server.stats["bytes_sent"] += len(response)
        end = response.find(b"\r\n\r\n") + 2
        return response.find(b"\r\nConnection: close\r\n", 0, end) < 0
