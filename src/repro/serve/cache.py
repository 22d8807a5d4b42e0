"""Bounded in-process response caches for the serving tier.

The paper's claim is that schema-checked preparation makes runtime
serving nearly free; these caches take the last step — not computing
a pure answer twice.  The server keeps two, with one rule: store only
pure answers, the bytes of a response that is a function of its key
alone, and replay only their status and body.

* **pages** — final page bytes plus their strong ETag, keyed on
  ``(route content fingerprint, typed hole values)``: the fingerprint
  pins the template source the bytes came from, the hole values pin the
  one render they parameterize.  Because a template's output is a pure
  function of its hole values (the checker guarantees it — no clocks,
  no I/O, no per-request state), replaying the stored bytes *is* the
  render.  Keys deliberately exclude query-string noise: parameters
  that do not name a hole cannot change the body, so they must not
  fragment the cache.  Only complete 200 pages are stored.
* **verdicts** — the 200 or 422 JSON of ``POST /-/validate``, keyed on
  the SHA-256 digest of the posted body: a verdict is a function of the
  server's fixed schema and those bytes.

Errors that depend on the request rather than on the key (400, 404,
405, 503) are never stored: they are cheap to recompute and must never
be replayed stale.

Each store is a plain LRU over an :class:`~collections.OrderedDict`,
bounded by ``max_entries``; eviction, like every other outcome, counts
into both the instance stats (served at ``/-/stats``) and
:mod:`repro.obs` (``serve.cache{outcome=...}`` for pages,
``serve.cache{cache=verdict,outcome=...}`` for verdicts).  Page
invalidation is explicit: :meth:`ResponseCache.clear` is called
whenever the route table is rebuilt, because a rebuilt route may
compile different bytes for the same key shape.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable

from repro import obs

#: default entry cap — bounds memory, not correctness
DEFAULT_MAX_ENTRIES = 512


class CachedResponse:
    """One stored response: its status, the exact body bytes, their
    content type and their validator (``None`` for a verdict, which
    carries no ETag)."""

    __slots__ = ("body", "etag", "content_type", "status")

    def __init__(
        self, body: bytes, etag: str | None, content_type: str, status: int = 200
    ):
        self.body = body
        self.etag = etag
        self.content_type = content_type
        self.status = status


class ResponseCache:
    """LRU map from response keys to :class:`CachedResponse` entries.

    *name* labels the obs counters of a cache other than the page cache
    (``serve.cache{cache=NAME,outcome=...}``).
    """

    def __init__(
        self, max_entries: int = DEFAULT_MAX_ENTRIES, name: str | None = None
    ):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: OrderedDict[Hashable, CachedResponse] = OrderedDict()
        self._labels = {} if name is None else {"cache": name}
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.invalidations = 0

    def get(self, key: Hashable) -> CachedResponse | None:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            obs.count("serve.cache", outcome="miss", **self._labels)
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        obs.count("serve.cache", outcome="hit", **self._labels)
        return entry

    def put(
        self,
        key: Hashable,
        body: bytes,
        etag: str | None,
        content_type: str,
        status: int = 200,
    ) -> CachedResponse:
        entry = CachedResponse(body, etag, content_type, status)
        if key in self._entries:
            self._entries.move_to_end(key)
        else:
            while len(self._entries) >= self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
                obs.count("serve.cache", outcome="evict", **self._labels)
        self._entries[key] = entry
        self.stores += 1
        obs.count("serve.cache", outcome="store", **self._labels)
        return entry

    def clear(self) -> int:
        """Drop every entry (route-table rebuild); returns the count."""
        dropped = len(self._entries)
        self._entries.clear()
        if dropped:
            self.invalidations += dropped
            obs.count(
                "serve.cache", n=dropped, outcome="invalidate", **self._labels
            )
        return dropped

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        # Membership probe without touching recency or the counters.
        return key in self._entries

    def snapshot(self) -> dict[str, Any]:
        """The stats block ``/-/stats`` serves under ``server.cache``
        (pages) or ``server.verdict_cache`` (verdicts)."""
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }
