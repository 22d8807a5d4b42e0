"""The turbo scanner: one walk over a strict XML subset.

Two fast lanes read a document straight off its source text instead of
through :class:`~repro.xml.parser.PullParser` events: typed ingest
(:func:`repro.ingest.table_driven.table_parse`) and streaming validation
(:meth:`repro.xsd.stream.StreamingValidator.validate_text`).  Both call
:func:`scan`, which drives a sink's ``start(name, attributes, offset)``,
``end()`` and ``characters(data, offset)`` handlers — the same calls the
consumers make from ``StartElement`` / ``EndElement`` / ``Characters``
events.  Every subset decision lives here, so both lanes leave the
subset at the same places and for the same reasons: on any construct
outside it :func:`scan` raises :class:`_Restart`, and the caller re-runs
the document through the event parser, which produces the authoritative
result — same verdicts, same :class:`~repro.errors.XmlSyntaxError`, same
:class:`~repro.errors.Location`.

The subset is chosen so that everything it accepts is well-formed XML
whose events need no further processing: ASCII names, double-quoted
attribute values without references, ``<``, ``>`` or normalizable white
space, no ``\\r`` (so line/column are plain ``\\n`` counts), no DOCTYPE,
CDATA, comments or PIs, one root element, and only predefined entity
and valid character references.  A ``>`` inside an attribute value is
legal XML but ends the tag body the scanner slices, so it restarts.

The walk finds each ``<`` and the ``>`` after it with ``str.find`` and
parses each distinct tag body once per document; repeated tags cost one
dict probe.  Offsets count characters after a leading byte-order mark,
as the event parser's locations do.

This module depends on nothing beyond the XML character model, so
importing it does not load :mod:`repro.ingest`.
"""

from __future__ import annotations

import re

from repro.errors import XmlSyntaxError
from repro.xml.chars import char_class
from repro.xml.entities import PREDEFINED_ENTITIES, decode_char_reference


class _Restart(Exception):
    """Internal: the document left the turbo subset; re-run the events."""

    __slots__ = ("reason",)

    def __init__(self, reason: str):
        self.reason = reason


#: XML white space minus ``\r`` (any ``\r`` restarts: §2.11 line-ending
#: normalization is the event parser's business)
_WS = r"[ \t\n]"

#: ASCII-only strict subset of the XML Name production — any name the
#: turbo lane accepts is a valid XML Name; names outside the subset
#: simply fail to match and restart into the event route
_NAME = r"[A-Za-z_][A-Za-z0-9._:\-]*"

#: zero or more complete attributes: double-quoted values containing no
#: references, no markup delimiters, and no normalizable white space —
#: exactly the contract of the scanning parser's quick path, so raw
#: values need no further processing
_ATTR_BLOB = rf'(?:{_WS}+{_NAME}{_WS}*={_WS}*"[^"&<>\t\n\r]*")*'

#: the text between ``<`` and the next ``>``: ``/name`` (end tag, group
#: 1) or a start tag (name 2, attributes 3, self-closing flag 4)
_TAG_BODY = re.compile(rf"/({_NAME}){_WS}*|({_NAME})({_ATTR_BLOB}){_WS}*(/?)")

#: one attribute inside an already-validated blob
_ATTR = re.compile(rf'({_NAME}){_WS}*={_WS}*"([^"]*)"')

#: the character reference forms; ``decode_char_reference`` alone would
#: also take ``#X26``, ``# 38`` or ``#3_8``
_CHAR_REFERENCE = re.compile(r"#(?:[0-9]+|x[0-9A-Fa-f]+)")

#: a strict subset of the XML declaration grammar; declarations outside
#: it leave ``<?`` in the text and the hazard scan restarts
_XML_DECL = re.compile(
    rf'<\?xml{_WS}+version{_WS}*={_WS}*"1\.0"'
    rf'(?:{_WS}+encoding{_WS}*={_WS}*"[A-Za-z][A-Za-z0-9._\-]*")?'
    rf'(?:{_WS}+standalone{_WS}*={_WS}*"(?:yes|no)")?'
    rf"{_WS}*\?>"
)

#: anything that forces the event route, found in one pre-scan:
#: markup declarations / PIs / CDATA / comments (``<!``, ``<?``),
#: ``]]>`` (an error in content, legal only in constructs we restart on
#: anyway), any ``\r`` (line-ending normalization), any character
#: outside the XML Char production (identical illegality verdicts)
_HAZARD = re.compile(f"<[!?]|]]>|\r|[^{char_class()}]")

#: restart reason per hazard, most specific prefix first
_HAZARD_REASONS = (
    ("<!--", "comment"),
    ("<![CDATA[", "cdata"),
    ("<!DOCTYPE", "doctype"),
    ("<!", "markup declaration"),
    ("<?", "processing instruction"),
    ("]]>", "cdata end"),
    ("\r", "carriage return"),
)

#: tag kinds in a parsed tag body
_START, _EMPTY, _END = range(3)


def scan(text: str, sink) -> None:
    """Walk *text* into *sink*'s handlers, or raise :class:`_Restart`.

    *sink* gets ``start(name, attributes, offset)`` for every start tag
    (``attributes`` is a sequence of ``(name, value)`` pairs, shared by
    repeats of the same tag body, so handlers must not mutate it),
    ``end()`` for every end tag and right after the ``start`` of a
    self-closing tag, and ``characters(data, offset)`` for each text run
    inside the root element, references decoded and joined into the one
    run the event parser reports as a ``Characters`` event.  Offsets
    point at the ``<`` of a tag and the first character of a run.
    Exceptions raised by the handlers propagate unchanged.

    A walk that completes saw a well-formed document, so the calls made
    are the document's whole event stream; a :class:`_Restart` may come
    after any number of calls, which the caller then discards.
    """
    text, pos = _subset_start(text)
    start = sink.start
    end = sink.end
    characters = sink.characters
    find = text.find
    tags: dict[str, tuple] = {}
    open_names: list[str] = []
    seen_root = False
    while True:
        lt = find("<", pos)
        if lt < 0:
            break
        if lt > pos:
            data = text[pos:lt]
            if open_names:
                if "&" in data:
                    data = _expand_references(data)
                characters(data, pos)
            elif data.strip(" \t\n"):
                # Non-white-space character data outside the root (the
                # parser's white-space production, not str.strip()'s).
                raise _Restart("text outside root")
        gt = find(">", lt)
        if gt < 0:
            raise _Restart("unterminated tag")
        body = text[lt + 1 : gt]
        tag = tags.get(body)
        if tag is None:
            tag = tags[body] = _parse_tag(body)
        pos = gt + 1
        name, attributes, kind = tag
        if kind == _END:
            if not open_names or open_names.pop() != name:
                raise _Restart("tag mismatch")
            end()
            continue
        if not open_names:
            if seen_root:
                raise _Restart("multiple root elements")
            seen_root = True
        start(name, attributes, lt)
        if kind == _EMPTY:
            end()
        else:
            open_names.append(name)
    if open_names:
        raise _Restart("unclosed element")
    if not seen_root:
        raise _Restart("no root element")
    if text[pos:].strip(" \t\n"):
        raise _Restart("text outside root")


def _subset_start(text: str) -> tuple[str, int]:
    """Enter the turbo subset: ``(text, offset of the first token)``.

    Drops a leading byte-order mark (the event parser's locations count
    from after it too), skips an XML declaration inside the subset, and
    restarts on the first hazard anywhere in the document.
    """
    if text.startswith("\ufeff"):
        text = text[1:]
    pos = 0
    declaration = _XML_DECL.match(text)
    if declaration is not None:
        pos = declaration.end()
    hazard = _HAZARD.search(text, pos)
    if hazard is not None:
        start = hazard.start()
        for prefix, reason in _HAZARD_REASONS:
            if text.startswith(prefix, start):
                raise _Restart(reason)
        raise _Restart("illegal character")
    return text, pos


def _parse_tag(body: str) -> tuple:
    """``(name, attributes, kind)`` of the tag written ``<body>``."""
    match = _TAG_BODY.fullmatch(body)
    if match is None:
        # Every construct outside the tag grammar, including a '>'
        # inside an attribute value (the body then ends early).
        raise _Restart("tokenizer")
    if match[1] is not None:
        return match[1], None, _END
    blob = match[3]
    return (
        match[2],
        _attribute_pairs(blob) if blob else (),
        _EMPTY if match[4] else _START,
    )


def _attribute_pairs(blob: str) -> list[tuple[str, str]]:
    """``(name, value)`` pairs of a regex-validated attribute blob.

    Duplicate names are a well-formedness error, so they restart.
    """
    attributes = _ATTR.findall(blob)
    if len(attributes) > 1:
        seen = set()
        for name, _ in attributes:
            if name in seen:
                raise _Restart("duplicate attribute")
            seen.add(name)
    return attributes


def _expand_references(run: str) -> str:
    """*run* with every ``&body;`` replaced by its text."""
    parts = run.split("&")
    out = [parts[0]]
    for part in parts[1:]:
        semi = part.find(";")
        if semi < 0:
            raise _Restart("unterminated reference")
        out.append(_decode_reference(part[:semi]))
        out.append(part[semi + 1 :])
    return "".join(out)


def _decode_reference(body: str) -> str:
    """Replacement text for ``&body;`` — restart on anything the event
    parser would have to error on or expand from a DTD."""
    replacement = PREDEFINED_ENTITIES.get(body)
    if replacement is not None:
        return replacement
    if not body.startswith("#"):
        # A general entity, which only a DTD could define (and DOCTYPE is
        # outside the turbo subset), or no name at all.
        raise _Restart("entity reference")
    if _CHAR_REFERENCE.fullmatch(body) is None:
        raise _Restart("character reference")
    try:
        return decode_char_reference(body)
    except XmlSyntaxError:
        raise _Restart("character reference")
