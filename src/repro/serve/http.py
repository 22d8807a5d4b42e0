"""A minimal HTTP/1.1 message layer for :mod:`repro.serve`.

Only what a page server needs, built on the stdlib alone: parse one
request head (request line + headers) from the bytes the server's
connection framed, format one response with a ``Content-Length`` body,
and frame one response as ``Transfer-Encoding: chunked`` for the
streaming mode.  Requests with bodies are read up to a small cap,
everything else is rejected with a clear status code.

Request framing (RFC 9112 §6): a head is everything up to the first
blank line and at most :data:`MAX_HEAD_BYTES` long (longer gets 431).
A body is exactly ``Content-Length`` bytes, at most
:data:`MAX_BODY_BYTES` (more gets 413).  ``Content-Length`` must be
``1*DIGIT``; repeated field lines combine into one list, and a list
whose values differ is a 400.  A request with ``Transfer-Encoding``
gets 501: this server reads no chunked request bodies, and guessing
would misframe the requests behind it.

Validators come with the framing: strong ETags (a content hash, so two
responses carry the same tag exactly when their bytes match) and the
``If-None-Match`` comparison that turns a revalidation into a bodiless
304.  Every response carries a ``Date`` header (RFC 9110 §6.6.1),
memoized per second so the hot path formats it at most once a second.

The parser is strict where sloppiness would be ambiguous (malformed
request line, header without ``:``, a ``Content-Length`` that is not
digits) and lenient where the RFC says to be (header names are
case-insensitive, empty header values are fine).
"""

from __future__ import annotations

import hashlib
import time
from email.utils import formatdate
from urllib.parse import unquote, urlsplit

from repro.errors import ReproError

#: request-head size cap: a head whose blank line does not start
#: within this many bytes gets 431
MAX_HEAD_BYTES = 32 * 1024

#: largest request body the server will read
MAX_BODY_BYTES = 1 << 20

#: the subset of status codes this server emits
REASONS = {
    200: "OK",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Content Too Large",
    422: "Unprocessable Content",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


class HttpError(ReproError):
    """A request that cannot be served; carries the response status."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


class HttpRequest:
    """One parsed request head."""

    __slots__ = ("method", "target", "path", "query", "version", "headers")

    def __init__(
        self,
        method: str,
        target: str,
        path: str,
        query: dict[str, str],
        version: str,
        headers: dict[str, str],
    ):
        self.method = method
        self.target = target
        self.path = path
        self.query = query
        self.version = version
        self.headers = headers  # keys lower-cased

    @property
    def content_length(self) -> int:
        """The body's length; raises :class:`HttpError` when the body
        cannot be framed (RFC 9112 §6.3)."""
        headers = self.headers
        if "transfer-encoding" in headers:
            raise HttpError(
                501, "Transfer-Encoding request bodies are not supported"
            )
        raw = headers.get("content-length")
        if raw is None:
            return 0
        # One value, or a list of identical ones ("5, 5") from repeated
        # field lines; ``int`` alone would also take "+5", "-0", "0_4".
        values = {value.strip() for value in raw.split(",")}
        if len(values) == 1:
            value = values.pop()
            if value.isascii() and value.isdigit():
                return int(value)
        raise HttpError(400, f"malformed Content-Length {raw!r}")

    def wants_keep_alive(self) -> bool:
        """Connection persistence per HTTP/1.1 (default on) vs 1.0."""
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return "keep-alive" in connection
        return "close" not in connection

    def __repr__(self) -> str:
        return f"HttpRequest({self.method} {self.target})"


def parse_query(query: str) -> dict[str, str]:
    """``dict(parse_qsl(query, keep_blank_values=True))`` in one pass.

    ``parse_qsl`` replaces ``+`` and calls ``unquote`` twice for every
    pair.  Here a name or value holding neither ``%`` nor ``+`` is used
    as split, so a query of plain pairs (the common case, and the
    450-hole routes) costs one ``split`` and one ``partition`` per pair.
    """
    result: dict[str, str] = {}
    decode = "%" in query or "+" in query
    for pair in query.split("&"):
        if pair:
            name, _, value = pair.partition("=")
            if decode:
                name = _unquote_plus(name)
                value = _unquote_plus(value)
            result[name] = value
    return result


def _unquote_plus(component: str) -> str:
    if "+" in component:
        component = component.replace("+", " ")
    return unquote(component) if "%" in component else component


def parse_request(head: bytes) -> HttpRequest:
    """Parse one request head (everything up to the blank line).

    Raises :class:`HttpError` with a 400-family status on anything
    malformed; the caller turns that into the response.
    """
    try:
        text = head.decode("ascii")
    except UnicodeDecodeError:
        raise HttpError(400, "request head is not ASCII")
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3:
        raise HttpError(400, f"malformed request line {lines[0]!r}")
    method, target, version = parts
    if not method.isalpha() or method != method.upper():
        raise HttpError(400, f"malformed method {method!r}")
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise HttpError(400, f"unsupported protocol version {version!r}")
    if not target.startswith("/"):
        # Absolute-form targets (proxy requests) are out of scope.
        raise HttpError(400, f"unsupported request target {target!r}")
    split = urlsplit(target)
    path = unquote(split.path)
    query = parse_query(split.query)
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, separator, value = line.partition(":")
        if not separator or not name or name != name.strip():
            raise HttpError(400, f"malformed header line {line!r}")
        name = name.lower()
        value = value.strip()
        if name in headers:
            # Repeated field lines form one list (RFC 9110 §5.3), so a
            # second Content-Length cannot silently replace the first.
            value = f"{headers[name]}, {value}"
        headers[name] = value
    return HttpRequest(method, target, path, query, version, headers)


#: ``(whole_second, formatted)`` memo behind :func:`http_date`
_DATE_MEMO: tuple[int, str] = (0, "")


def http_date() -> str:
    """The current time as an IMF-fixdate, memoized per second."""
    global _DATE_MEMO
    now = int(time.time())
    if _DATE_MEMO[0] != now:
        _DATE_MEMO = (now, formatdate(now, usegmt=True))
    return _DATE_MEMO[1]


def make_etag(body: bytes) -> str:
    """A strong validator for *body*: quoted truncated content hash.

    Deterministic in the bytes alone, so a re-rendered (or re-cached)
    response revalidates against a tag handed out before any rebuild —
    exactly the semantics a content-addressed cache wants.
    """
    return '"' + hashlib.sha256(body).hexdigest()[:32] + '"'


def etag_matches(if_none_match: str, etag: str) -> bool:
    """Does an ``If-None-Match`` value match *etag*?

    Handles ``*``, comma-separated candidate lists, and ``W/`` weak
    prefixes (If-None-Match comparison is weak per RFC 9110 §13.1.2,
    so ``W/"x"`` matches ``"x"``).
    """
    if if_none_match.strip() == "*":
        return True
    for candidate in if_none_match.split(","):
        candidate = candidate.strip()
        if candidate.startswith("W/"):
            candidate = candidate[2:]
        if candidate == etag:
            return True
    return False


def _head_lines(
    status: int,
    content_type: str | None,
    *,
    keep_alive: bool,
    extra_headers: tuple[tuple[str, str], ...],
) -> list[str]:
    reason = REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    if content_type is not None:
        lines.append(f"Content-Type: {content_type}")
    lines += [
        f"Date: {http_date()}",
        "Server: repro-serve",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in extra_headers:
        lines.append(f"{name}: {value}")
    return lines


def build_response(
    status: int,
    body: bytes,
    content_type: str = "text/plain; charset=utf-8",
    *,
    keep_alive: bool = True,
    head_only: bool = False,
    extra_headers: tuple[tuple[str, str], ...] = (),
) -> bytes:
    """Format one complete response (status line, headers, body).

    *head_only* answers a HEAD request: full headers — including the
    ``Content-Length`` the body would have — with no body bytes.
    """
    lines = _head_lines(
        status, content_type, keep_alive=keep_alive, extra_headers=extra_headers
    )
    lines.insert(2, f"Content-Length: {len(body)}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
    if head_only:
        return head
    return head + body


def not_modified_response(
    etag: str,
    *,
    keep_alive: bool = True,
) -> bytes:
    """A 304 for a conditional request that hit: headers only, no body.

    A 304 has no body by definition, so it omits ``Content-Length``
    entirely — the connection stays correctly framed for keep-alive.
    """
    lines = _head_lines(
        304, None, keep_alive=keep_alive, extra_headers=(("ETag", etag),)
    )
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")


def start_chunked_response(
    status: int,
    content_type: str = "text/plain; charset=utf-8",
    *,
    keep_alive: bool = True,
    extra_headers: tuple[tuple[str, str], ...] = (),
) -> bytes:
    """The head of a ``Transfer-Encoding: chunked`` response.

    No ``Content-Length`` — the body follows as :func:`encode_chunk`
    frames terminated by :data:`LAST_CHUNK`, so writing can begin
    before the total size is known.
    """
    lines = _head_lines(
        status, content_type, keep_alive=keep_alive, extra_headers=extra_headers
    )
    lines.insert(2, "Transfer-Encoding: chunked")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")


def encode_chunk(data: bytes) -> bytes:
    """One chunked-transfer frame: hex size, CRLF, data, CRLF."""
    return b"%x\r\n%s\r\n" % (len(data), data)


#: the zero-length chunk that terminates a chunked body (no trailers)
LAST_CHUNK = b"0\r\n\r\n"


def error_response(
    status: int, message: str, *, keep_alive: bool = False
) -> bytes:
    """A plain-text error body; errors always close the connection by
    default (the stream state after a malformed request is unknown)."""
    body = f"{status} {REASONS.get(status, 'Unknown')}: {message}\n".encode()
    return build_response(status, body, keep_alive=keep_alive)
