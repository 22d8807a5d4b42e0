"""Route table: URL paths to compiled pages.

Two kinds of route, mirroring the paper's two poles:

* a **template** route serves a P-XML :class:`~repro.pxml.Template` —
  statically checked against the schema at compile time, rendered
  through the segment pipeline, so every byte it ever emits is
  schema-valid by construction;
* a **page** route serves a JSP-style
  :class:`~repro.serverpages.ServerPage` — the paper's negative
  baseline, kept servable so the difference stays demonstrable (every
  hit on one is counted as a ``serve.fallback``).

:func:`build_routes` compiles a directory of page sources into a table:
``name.pxml`` becomes ``/name`` (``index.pxml`` also claims ``/``),
``name.page`` likewise.  Compilation goes through the same
:class:`repro.cache.ReproCache` the rest of the stack uses, so a warm
start skips the parse + static check + codegen per route and goes
straight to the stored artifact.

Query-string parameters feed template holes by name: ``/item?q=3``
renders the ``$q$`` hole with ``"3"``, which the hole's simple type
parses — a schema-invalid parameter is rejected *before* a single byte
is emitted.  Unknown parameters are ignored (query noise must not 500 a
page); missing ones surface as a client error in the server layer.
"""

from __future__ import annotations

import hashlib
import os
from typing import Any, Hashable

from repro import obs
from repro.errors import ReproError
from repro.pxml import Template
from repro.serverpages import ServerPage

#: file extensions the directory loader compiles, in kind order
TEMPLATE_SUFFIX = ".pxml"
PAGE_SUFFIX = ".page"


class Route:
    """One path bound to one compiled page."""

    __slots__ = (
        "path",
        "name",
        "kind",
        "_template",
        "_page",
        "_hole_names",
        "_ordered_holes",
        "fingerprint",
    )

    def __init__(
        self,
        path: str,
        *,
        template: Template | None = None,
        page: ServerPage | None = None,
        name: str | None = None,
    ):
        if (template is None) == (page is None):
            raise ValueError("a Route serves exactly one template or page")
        self.path = path
        self.name = name or path.lstrip("/") or "index"
        self.kind = "template" if template is not None else "page"
        self._template = template
        self._page = page
        self._hole_names = (
            frozenset(template.hole_names) if template is not None else None
        )
        # Hole order is fixed at construction so a response key is built
        # with len(holes) dict lookups, no sort on the hot path.
        self._ordered_holes = (
            tuple(template.hole_names) if template is not None else ()
        )
        # Content-addressed identity: path plus a hash of the template
        # source.  Response-cache keys embed it, so even without the
        # explicit clear-on-rebuild a route recompiled from an edited
        # source can never replay the old bytes.
        self.fingerprint = (
            f"{path}|{hashlib.sha256(template.source.encode('utf-8')).hexdigest()[:16]}"
            if template is not None
            else None
        )

    @property
    def validated(self) -> bool:
        """Does this route carry the paper's validity guarantee?"""
        return self.kind == "template"

    def render(self, params: dict[str, str]) -> str:
        """Render this route with *params* (query-string values).

        Template routes see only parameters naming one of their holes;
        page routes get the full dict as their namespace.  Exceptions
        propagate — the server layer maps them to status codes.
        """
        if self._template is not None:
            holes = self._hole_names
            values = {
                key: value for key, value in params.items() if key in holes
            }
            return self._template.render_text_mapping(values)
        obs.count("serve.fallback", route=self.name, reason="serverpage")
        return self._page.render(**params)

    def response_key(self, params: dict[str, str]) -> Hashable | None:
        """The response-cache key for *params*, or ``None``: uncacheable.

        ``(route fingerprint, typed hole values in hole order)`` — only
        parameters naming a hole participate, so query noise neither
        fragments the cache nor leaks into keys.  Server pages are never
        cached: their output is arbitrary code, not a pure function the
        checker vouches for.
        """
        if self.fingerprint is None:
            return None
        return (self.fingerprint, tuple(map(params.get, self._ordered_holes)))


class RouteTable:
    """Exact-match path lookup over :class:`Route` objects."""

    def __init__(self, routes: tuple[Route, ...] = ()):
        self._routes: dict[str, Route] = {}
        for route in routes:
            self.add(route)

    def add(self, route: Route) -> Route:
        if route.path in self._routes:
            raise ReproError(f"duplicate route for path {route.path!r}")
        self._routes[route.path] = route
        return route

    def add_template(
        self, path: str, template: Template, name: str | None = None
    ) -> Route:
        return self.add(Route(path, template=template, name=name))

    def add_page(
        self, path: str, page: ServerPage, name: str | None = None
    ) -> Route:
        return self.add(Route(path, page=page, name=name))

    def resolve(self, path: str) -> Route | None:
        return self._routes.get(path)

    def paths(self) -> list[str]:
        return sorted(self._routes)

    def __len__(self) -> int:
        return len(self._routes)

    def __iter__(self):
        return iter(self._routes.values())


def build_routes(
    binding: Any, directory: str | os.PathLike, cache: Any = None
) -> RouteTable:
    """Compile every page source under *directory* into a route table.

    ``<stem>.pxml`` (validated template, checked against *binding*'s
    schema) and ``<stem>.page`` (baseline server page) each map to
    ``/<stem>``; ``index.*`` additionally claims ``/``.  Other files are
    ignored.  *cache* is the compiled-artifact cache every route's
    compilation is keyed into; pass the same :class:`repro.cache.ReproCache`
    the binding came from and a warm start compiles nothing.

    A source that fails to compile aborts the build with the underlying
    error — a serving tier with a half-broken route table is worse than
    one that refuses to start.
    """
    directory = os.fspath(directory)
    table = RouteTable()
    entries = sorted(os.listdir(directory))
    for entry in entries:
        stem, suffix = os.path.splitext(entry)
        if suffix not in (TEMPLATE_SUFFIX, PAGE_SUFFIX):
            continue
        full = os.path.join(directory, entry)
        with open(full, encoding="utf-8") as handle:
            source = handle.read()
        with obs.timeit("serve.route_compile", route=stem):
            if suffix == TEMPLATE_SUFFIX:
                compiled = Template(binding, source, cache=cache)
                route = table.add_template(f"/{stem}", compiled, name=stem)
            else:
                compiled = ServerPage(source, name=entry, cache=cache)
                route = table.add_page(f"/{stem}", compiled, name=stem)
        if stem == "index":
            table.add(
                Route(
                    "/",
                    template=route._template,
                    page=route._page,
                    name=route.name,
                )
            )
    if not len(table):
        raise ReproError(
            f"no page sources (*{TEMPLATE_SUFFIX}, *{PAGE_SUFFIX}) "
            f"under {directory!r}"
        )
    return table
