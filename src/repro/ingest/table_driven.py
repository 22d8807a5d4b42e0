"""Table-driven turbo ingest: one regex alternation, flat DFA tables.

:func:`fused_parse` already collapsed parse→DOM→bind into a single
pass, but it still pays the event machinery per token: an ``Event``
object with a ``Location``, an iterator round-trip, and a method call
or two for every tag in the document.  This module removes that layer
for the common case.  The turbo scanner drives typed construction
straight off the source text:

* one **precompiled regex alternation** (:data:`_TOKEN`) recognizes the
  next text run, start tag (attributes included), end tag, or reference
  in a single C-level ``match`` — no chained ``find`` calls, no event
  allocation, no location bookkeeping;
* content models are stepped through the flat integer
  :class:`~repro.automata.tables.DfaTable` arrays — a symbol-id probe
  and two array indexings per child element;
* when numpy is importable (see :mod:`repro.ingest.structural`) an
  **index lane** first locates every ``<``/``>`` in one vectorized
  sweep and walks tag-body slices directly, memoizing the parse of each
  distinct tag body — repeated tags cost a dict probe.

Parity is guaranteed by construction, not by reimplementation:
**the turbo lane never produces its own verdicts**.  It succeeds only
on documents it can prove well-formed and schema-valid along the exact
semantics of the fused route; on *any* deviation — a construct outside
its subset (DOCTYPE, CDATA, comments, PIs, single-quoted or
reference-bearing attributes, ``\\r`` line endings, non-ASCII names), a
syntax anomaly, or a validation failure — it raises the internal
:class:`_Restart` and the document is re-run through
:func:`~repro.ingest.fused.fused_parse`, which produces the
authoritative result: same tree, same exception type, same message,
same :class:`~repro.xml.events.Location`, same syntax-over-validity
error precedence.  Invalid documents therefore pay one extra (fast,
aborted) scan; valid documents — the hot serving case — skip the event
layer entirely.  ``tests/ingest/test_table_parity.py`` holds both lanes
to the fused/legacy routes across the full parity corpus.
"""

from __future__ import annotations

import re

from repro import obs
from repro.core.vdom import Binding, TypedElement
from repro.errors import VdomTypeError, XmlSyntaxError
from repro.ingest import structural
from repro.ingest.fused import (
    _construct,
    _dispatch_info,
    _Frame,
    fused_parse,
)
from repro.xml.turbo import (
    _ATTR_BLOB,
    _NAME,
    _TOKEN,
    _WS,
    _attribute_pairs,
    _decode_reference,
    _Restart,
    _subset_start,
)


#: tag body for the index lane: ``/name`` (end) or ``name attrs /?``
_TAG_BODY = re.compile(rf"/({_NAME}){_WS}*|({_NAME})({_ATTR_BLOB}){_WS}*(/?)")


def table_parse(
    binding: Binding,
    text: str,
    source: str | None = None,
    *,
    lane: str = "auto",
) -> TypedElement:
    """Parse + validate *text* through the turbo lane, fused on restart.

    ``lane`` selects the tokenizer: ``"auto"`` (vectorized index when
    numpy is importable and the text is ASCII, stdlib regex otherwise),
    ``"stdlib"``, or ``"index"`` (raises :class:`ValueError` when numpy
    is unavailable — used by the parity tests to pin a lane).

    Observationally identical to ``fused_parse(binding, text, source)``
    in every outcome; restarts are counted under the
    ``ingest.turbo{outcome=restart}`` observability counter.
    """
    binding._require_no_namespaces("table-driven ingest")
    try:
        root, used = _turbo_parse(binding, text, lane)
    except _Restart as restart:
        obs.count("ingest.turbo", outcome="restart", reason=restart.reason)
        return fused_parse(binding, text, source)
    except VdomTypeError:
        # The fused route decides validity verdicts (and drains the rest
        # of the document so syntax errors keep their precedence).
        obs.count("ingest.turbo", outcome="restart", reason="validation")
        return fused_parse(binding, text, source)
    except XmlSyntaxError:
        # e.g. an out-of-range character reference; let the event parser
        # produce the error with its exact location.
        obs.count("ingest.turbo", outcome="restart", reason="syntax")
        return fused_parse(binding, text, source)
    obs.count("ingest.turbo", outcome="hit", lane=used)
    return root


def _turbo_parse(
    binding: Binding, text: str, lane: str
) -> tuple[TypedElement, str]:
    text, pos = _subset_start(text)
    if lane == "index":
        index = structural.markup_index(text, pos)
        if index is None:
            raise ValueError(
                "index lane requested but numpy is unavailable "
                "(or the document is not ASCII)"
            )
        return _scan_index(binding, text, pos, index), "index"
    if lane == "auto":
        index = structural.markup_index(text, pos)
        if index is not None:
            return _scan_index(binding, text, pos, index), "index"
    elif lane != "stdlib":
        raise ValueError(f"unknown turbo lane {lane!r}")
    return _scan_regex(binding, text, pos), "stdlib"


def _dispatch_table(binding: Binding) -> dict:
    dispatch = binding.__dict__.get("_ingest_dispatch")
    if dispatch is None:
        dispatch = {}
        binding._ingest_dispatch = dispatch
    return dispatch


def _parse_attributes(blob: str) -> list[tuple[str, str]]:
    """Attribute pairs from a regex-validated blob, ``xmlns`` filtered.

    Duplicate names are a well-formedness error even in subtrees the
    typed walk skips, so the check runs before any filtering.
    """
    return [
        pair for pair in _attribute_pairs(blob) if not pair[0].startswith("xmlns")
    ]


def _scan_regex(binding: Binding, text: str, pos: int) -> TypedElement:
    """The stdlib lane: drive construction off the master alternation."""
    schema = binding.schema
    elements = schema.elements
    class_by_declaration = binding.class_by_declaration
    dispatch = _dispatch_table(binding)
    token_match = _TOKEN.match
    length = len(text)
    stack: list[_Frame] = []
    open_names: list[str] = []
    pending: list[str] = []
    skip_depth = 0
    root: TypedElement | None = None
    while pos < length:
        match = token_match(text, pos)
        if match is None:
            raise _Restart("tokenizer")
        pos = match.end()
        kind = match.lastindex
        if kind == 1:  # text run
            pending.append(match[1])
            continue
        if kind == 6:  # reference
            if not stack:
                raise _Restart("reference outside content")
            pending.append(_decode_reference(match[6]))
            continue
        # A tag boundary: flush the accumulated run as ONE data unit —
        # the event parser emits one Characters per inter-markup run,
        # references joined in, and the fused walk's white-space
        # dropping looks at the whole run.
        if pending:
            data = pending[0] if len(pending) == 1 else "".join(pending)
            pending.clear()
            if stack:
                frame = stack[-1]
                if frame.structured:
                    if data.strip():
                        frame.children.append(data)
                else:
                    frame.text_parts.append(data)
            elif data.strip(" \t\n"):
                # Non-white-space character data outside the root (the
                # parser's white-space production, not str.strip()'s).
                raise _Restart("text outside root")
        if kind == 4:  # start tag
            name = match[2]
            blob = match[3]
            attributes = _parse_attributes(blob) if blob else []
            if stack:
                frame = stack[-1]
                if not frame.structured:
                    # Below a leaf frame: the subtree flattens to text.
                    # Attribute well-formedness was checked above; the
                    # element itself is only depth-tracked.
                    if not match[4]:
                        skip_depth += 1
                        open_names.append(name)
                    continue
                table = frame.table
                sym = table.symbol_ids.get(name)
                if sym is None:
                    raise VdomTypeError(
                        f"<{name}> is not allowed inside <{frame.tag}>"
                    )
                cell = frame.state * table.n_symbols + sym
                target = table.nxt[cell]
                if target < 0:
                    raise VdomTypeError(
                        f"<{name}> is not allowed inside <{frame.tag}>"
                    )
                frame.state = target
                declaration = table.payloads[table.pay[cell]]
            else:
                if root is not None:
                    raise _Restart("multiple root elements")
                declaration = elements.get(name)
                if declaration is None:
                    raise VdomTypeError(
                        f"<{name}> is not a global element of the schema"
                    )
            info = dispatch.get(id(declaration))
            if info is None:
                info = _dispatch_info(schema, class_by_declaration, declaration)
                dispatch[id(declaration)] = info
            new_frame = _Frame(
                name,
                info[0],
                info[1],
                None,
                info[4],
                info[2],
                info[5],
                info[6],
                info[7],
                attributes,
            )
            new_frame.memo = info[8]
            if match[4]:  # self-closing: construct immediately
                element = _construct(binding, new_frame)
                if stack:
                    parent = stack[-1]
                    parent.children.append(element)
                    parent.element_count += 1
                else:
                    root = element
            else:
                stack.append(new_frame)
                open_names.append(name)
        else:  # kind == 5: end tag
            name = match[5]
            if not open_names or open_names[-1] != name:
                raise _Restart("tag mismatch")
            open_names.pop()
            if skip_depth:
                skip_depth -= 1
                continue
            frame = stack.pop()
            element = _construct(binding, frame)
            if stack:
                parent = stack[-1]
                parent.children.append(element)
                parent.element_count += 1
            else:
                root = element
    if open_names:
        raise _Restart("unclosed element")
    if root is None:
        raise _Restart("no root element")
    if pending:
        data = "".join(pending)
        pending.clear()
        if data.strip(" \t\n"):
            raise _Restart("text outside root")
    return root


def _scan_index(
    binding: Binding,
    text: str,
    pos: int,
    index: tuple[list[int], list[int]],
) -> TypedElement:
    """The vectorized lane: walk precomputed ``<``/``>`` positions.

    Tag bodies are sliced straight out of the source and their parse
    (kind, name, attributes, self-closing flag) memoized per distinct
    body string — repeated tags, the overwhelming case in real corpora,
    cost one dict probe.  Byte-identical in every outcome to
    :func:`_scan_regex` (asserted by the parity suite): same subset,
    same restarts, same trees.
    """
    lts, gts = index
    schema = binding.schema
    elements = schema.elements
    class_by_declaration = binding.class_by_declaration
    dispatch = _dispatch_table(binding)
    tag_cache: dict[str, tuple] = {}
    tag_body = _TAG_BODY.fullmatch
    stack: list[_Frame] = []
    open_names: list[str] = []
    pending: list[str] = []
    skip_depth = 0
    root: TypedElement | None = None
    gi = 0
    n_gts = len(gts)
    prev_end = pos
    for lt in lts:
        # -- the text run before this tag ----------------------------------
        if lt > prev_end:
            run = text[prev_end:lt]
            if "&" in run:
                if not stack:
                    raise _Restart("reference outside content")
                parts = run.split("&")
                if parts[0]:
                    pending.append(parts[0])
                for part in parts[1:]:
                    semi = part.find(";")
                    if semi < 0:
                        raise _Restart("unterminated reference")
                    pending.append(_decode_reference(part[:semi]))
                    rest = part[semi + 1 :]
                    if rest:
                        pending.append(rest)
            else:
                pending.append(run)
        # -- the tag itself -------------------------------------------------
        while gi < n_gts and gts[gi] < lt:
            gi += 1
        if gi >= n_gts:
            raise _Restart("unterminated tag")
        gt = gts[gi]
        gi += 1
        prev_end = gt + 1
        body = text[lt + 1 : gt]
        parsed = tag_cache.get(body)
        if parsed is None:
            match = tag_body(body)
            if match is None:
                # Includes '>' inside an attribute value (the slice ends
                # early) and every construct outside the turbo grammar.
                raise _Restart("tokenizer")
            end_name = match[1]
            if end_name is not None:
                parsed = (end_name, None, None)
            else:
                blob = match[3]
                parsed = (
                    None,
                    match[2],
                    (
                        _parse_attributes(blob) if blob else [],
                        bool(match[4]),
                    ),
                )
            tag_cache[body] = parsed
        end_name = parsed[0]
        # -- flush the run at the boundary (one data unit per run) ---------
        if pending:
            data = pending[0] if len(pending) == 1 else "".join(pending)
            pending.clear()
            if stack:
                frame = stack[-1]
                if frame.structured:
                    if data.strip():
                        frame.children.append(data)
                else:
                    frame.text_parts.append(data)
            elif data.strip(" \t\n"):
                raise _Restart("text outside root")
        if end_name is None:  # start tag
            name = parsed[1]
            attributes, self_close = parsed[2]
            if stack:
                frame = stack[-1]
                if not frame.structured:
                    if not self_close:
                        skip_depth += 1
                        open_names.append(name)
                    continue
                table = frame.table
                sym = table.symbol_ids.get(name)
                if sym is None:
                    raise VdomTypeError(
                        f"<{name}> is not allowed inside <{frame.tag}>"
                    )
                cell = frame.state * table.n_symbols + sym
                target = table.nxt[cell]
                if target < 0:
                    raise VdomTypeError(
                        f"<{name}> is not allowed inside <{frame.tag}>"
                    )
                frame.state = target
                declaration = table.payloads[table.pay[cell]]
            else:
                if root is not None:
                    raise _Restart("multiple root elements")
                declaration = elements.get(name)
                if declaration is None:
                    raise VdomTypeError(
                        f"<{name}> is not a global element of the schema"
                    )
            info = dispatch.get(id(declaration))
            if info is None:
                info = _dispatch_info(schema, class_by_declaration, declaration)
                dispatch[id(declaration)] = info
            new_frame = _Frame(
                name,
                info[0],
                info[1],
                None,
                info[4],
                info[2],
                info[5],
                info[6],
                info[7],
                # Frames mutate nothing in the attribute list, but the
                # cached parse is shared across repeats of this body.
                attributes,
            )
            new_frame.memo = info[8]
            if self_close:
                element = _construct(binding, new_frame)
                if stack:
                    parent = stack[-1]
                    parent.children.append(element)
                    parent.element_count += 1
                else:
                    root = element
            else:
                stack.append(new_frame)
                open_names.append(name)
        else:  # end tag
            if not open_names or open_names[-1] != end_name:
                raise _Restart("tag mismatch")
            open_names.pop()
            if skip_depth:
                skip_depth -= 1
                continue
            frame = stack.pop()
            element = _construct(binding, frame)
            if stack:
                parent = stack[-1]
                parent.children.append(element)
                parent.element_count += 1
            else:
                root = element
    if open_names:
        raise _Restart("unclosed element")
    if root is None:
        raise _Restart("no root element")
    if prev_end < len(text):
        tail = text[prev_end:]
        if "&" in tail or tail.strip(" \t\n"):
            raise _Restart("text outside root")
    return root
