"""HTTP serving tier for validated pages (:mod:`repro.serve`).

The paper's server pages exist to be *served*; this package closes the
loop with a stdlib-only asyncio HTTP server that maps URL paths to
compiled :class:`~repro.pxml.Template` /
:class:`~repro.serverpages.ServerPage` objects and answers requests
with the segment pipeline's ``render_text`` output — guaranteed-valid
markup straight to the socket, no DOM on the hot path.

Layers:

* :mod:`repro.serve.http` — minimal HTTP/1.1 request parsing,
  ``Content-Length``-framed response formatting, strong ETags and the
  ``If-None-Match`` comparison;
* :mod:`repro.serve.cache` — the bounded in-process caches of pure
  answers: pages keyed on ``(route fingerprint, typed hole values)``,
  ``POST /-/validate`` verdicts keyed on the body's SHA-256 digest;
* :mod:`repro.serve.routes` — the route table and the directory
  compiler (``*.pxml`` / ``*.page`` sources to compiled routes, keyed
  through :class:`repro.cache.ReproCache`);
* :mod:`repro.serve.server` — :class:`ReproServer`: response and
  verdict caching, conditional GETs, connection cap with backpressure,
  per-request timeouts, graceful drain on SIGTERM, and ``/-/stats``
  observability.

``vdom-generate serve <schema.xsd> <directory>`` is the CLI front end.
"""

from repro.serve.cache import CachedResponse, ResponseCache
from repro.serve.http import (
    HttpError,
    HttpRequest,
    build_response,
    error_response,
    etag_matches,
    make_etag,
    parse_request,
)
from repro.serve.routes import Route, RouteTable, build_routes
from repro.serve.server import ReproServer

__all__ = [
    "CachedResponse",
    "HttpError",
    "HttpRequest",
    "ReproServer",
    "ResponseCache",
    "Route",
    "RouteTable",
    "build_response",
    "build_routes",
    "error_response",
    "etag_matches",
    "make_etag",
    "parse_request",
]
