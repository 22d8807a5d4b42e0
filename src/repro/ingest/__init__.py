"""High-throughput ingest: fused parse-to-typed-tree + bulk validation.

Two entry points:

* :func:`parse_typed` / :func:`ingest` — one document to a typed V-DOM
  tree in a single pass.  One set of typed handlers steps the
  content-model automata while the document is read and allocates the
  tree directly (no generic DOM intermediate).  The table-driven turbo
  lane (:func:`table_parse`) feeds them from the stdlib turbo scanner
  shared with streaming validation (:func:`repro.xml.turbo.scan`),
  stepping flat integer DFA tables; documents outside its subset
  restart through :func:`fused_parse`, which feeds the same handlers
  from ``PullParser`` events and in turn falls back to the legacy
  parse → build → bind route for documents the fused walk does not
  cover;
* :func:`validate_files` — a whole corpus through a persistent
  :class:`ValidationPool` of workers warm-started from the persistent
  compilation cache, consistent-hash sharded into document batches,
  aggregated into a JSON-ready report.  The pool itself is reusable
  across runs (and backs the serve tier's ``POST /-/validate``
  fan-out).
"""

from repro.ingest.bulk import (
    auto_batch_size,
    effective_jobs,
    validate_files,
)
from repro.ingest.pool import HashRing, ValidationPool
from repro.ingest.fused import (
    IngestFallback,
    IngestResult,
    fused_parse,
    ingest,
    legacy_parse,
    parse_typed,
)
from repro.ingest.table_driven import table_parse

__all__ = [
    "HashRing",
    "IngestFallback",
    "IngestResult",
    "ValidationPool",
    "auto_batch_size",
    "effective_jobs",
    "fused_parse",
    "ingest",
    "legacy_parse",
    "parse_typed",
    "table_parse",
    "validate_files",
]
