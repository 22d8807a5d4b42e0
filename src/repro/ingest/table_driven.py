"""Table-driven turbo ingest: the turbo scanner feeds the typed walk.

:func:`fused_parse` already collapsed parse→DOM→bind into a single
pass, but it still pays the event machinery per token: an ``Event``
object with a ``Location``, an iterator round-trip, and a method call
or two for every tag in the document.  :func:`table_parse` removes that
layer for the common case: the turbo scanner
(:func:`repro.xml.turbo.scan`, shared with streaming validation) walks
the source text and calls the same typed handlers ``fused_parse`` feeds
from events, which step the flat integer
:class:`~repro.automata.tables.DfaTable` arrays and construct the tree.

Parity is guaranteed by construction, not by reimplementation:
**the turbo lane never produces its own verdicts**.  It succeeds only
on documents it can prove well-formed and schema-valid along the exact
semantics of the fused route; on *any* deviation — a construct outside
the scanner's subset (DOCTYPE, CDATA, comments, PIs, single-quoted or
reference-bearing attributes, ``\\r`` line endings, non-ASCII names), a
syntax anomaly, or a validation failure — the document is re-run
through :func:`~repro.ingest.fused.fused_parse`, which produces the
authoritative result: same tree, same exception type, same message,
same :class:`~repro.xml.events.Location`, same syntax-over-validity
error precedence.  Invalid documents therefore pay one extra (fast,
aborted) scan; valid documents — the hot serving case — skip the event
layer entirely.  ``tests/ingest/test_table_parity.py`` holds the lane
to the object-DFA fused route across the full parity corpus.
"""

from __future__ import annotations

from repro import obs
from repro.core.vdom import Binding, TypedElement
from repro.errors import VdomTypeError
from repro.ingest.fused import _TypedWalk, fused_parse
from repro.xml.turbo import _Restart, scan


def table_parse(
    binding: Binding, text: str, source: str | None = None
) -> TypedElement:
    """Parse + validate *text* through the turbo lane, fused on restart.

    Observationally identical to ``fused_parse(binding, text, source)``
    in every outcome.  Each document counts once under
    ``ingest.turbo{outcome=hit}`` or
    ``ingest.turbo{outcome=restart,reason=...}``.
    """
    binding._require_no_namespaces("table-driven ingest")
    walk = _TypedWalk(binding, use_tables=True)
    try:
        scan(text, walk)
    except _Restart as restart:
        reason = restart.reason
    except VdomTypeError:
        # The fused route decides validity verdicts (and drains the rest
        # of the document so syntax errors keep their precedence).
        reason = "validation"
    else:
        obs.count("ingest.turbo", outcome="hit")
        return walk.root
    obs.count("ingest.turbo", outcome="restart", reason=reason)
    return fused_parse(binding, text, source)
