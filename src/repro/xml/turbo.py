"""The turbo scanner: one walk over a strict XML subset.

Two fast lanes read a document straight off its source text instead of
through :class:`~repro.xml.parser.PullParser` events: typed ingest
(:func:`repro.ingest.table_driven.table_parse`) and streaming validation
(:meth:`repro.xsd.stream.StreamingValidator.validate_text`).  Both call
:func:`scan`, which drives a sink's ``start(name, attributes, offset)``,
``end(offset)`` and ``characters(data, offset)`` handlers — the same
calls the consumers make from ``StartElement`` / ``EndElement`` /
``Characters`` events — and one more, ``leaf``, that stands for all
three on the commonest shape: a childless element below the root,
written as a start tag, character data without ``&`` and its own exact
``</name>``, or as a self-closing tag.  Every subset decision lives
here, so both lanes leave the subset at the same places and for the
same reasons: on any construct outside it :func:`scan` raises
:class:`_Restart`, and the caller re-runs the document through the
event parser, which produces the authoritative result — same verdicts,
same :class:`~repro.errors.XmlSyntaxError`, same
:class:`~repro.errors.Location`.

The subset is chosen so that everything it accepts is well-formed XML
whose events need no further processing: ASCII names, double-quoted
attribute values without references, ``<``, ``>`` or normalizable white
space, no ``\\r`` (so line/column are plain ``\\n`` counts), no DOCTYPE,
CDATA, comments or PIs, one root element, and only predefined entity
and valid character references.  A ``>`` inside an attribute value is
legal XML but ends the tag body the scanner slices, so it restarts.

Admission to the subset is proved before the walk from C-level passes
only: ``str.find`` for ``<!``, ``<?`` and ``]]>`` after the XML
declaration, and one pass for ``\\r`` and any character outside
``Char`` — on ASCII text a length test after ``bytes.translate``
deletes the C0 controls other than tab and line feed, on other text
one search with a positive character class.  Only when that proof fails
does the ``_HAZARD`` alternation search the text, to find the first
hazard and name the restart after it; a document inside the subset
never pays for the regex.

The walk finds each ``<`` once, and the ``>`` after it, with
``str.find``, and parses each distinct tag body once per tag memo, a
dict the caller owns and keeps from one document to the next (a
validator, or a typed binding); repeated tags cost one dict probe.  A
memo holds at most :data:`TAG_MEMO_ENTRIES` bodies of at most
:data:`TAG_BODY_LIMIT` characters; a full memo stops inserting, and
what it holds keeps hitting.  Offsets count characters after a leading byte-order mark, as
the event parser's locations do.

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

#: a strict subset of the XML declaration grammar; declarations outside
#: it leave ``<?`` in the text and the hazard scan restarts
_XML_DECL = re.compile(
    rf'<\?xml{_WS}+version{_WS}*={_WS}*"1\.0"'
    rf'(?:{_WS}+encoding{_WS}*={_WS}*"[A-Za-z][A-Za-z0-9._\-]*")?'
    rf'(?:{_WS}+standalone{_WS}*={_WS}*"(?:yes|no)")?'
    rf"{_WS}*\?>"
)

#: anything that forces the event route: markup declarations / PIs /
#: CDATA / comments (``<!``, ``<?``), ``]]>`` (an error in content,
#: legal only in constructs we restart on anyway), any ``\r``
#: (line-ending normalization), any character outside the XML Char
#: production (identical illegality verdicts).  Searched only once
#: :func:`_hazard_free` has failed, to name the first hazard.
_HAZARD = re.compile(f"<[!?]|]]>|\r|[^{char_class()}]")

#: the bytes of ASCII text that are ``\r`` or outside ``Char``: every C0
#: control but tab and line feed.  Deleting them shortens the text
#: exactly when it holds one.
_ASCII_HAZARD_BYTES = bytes(byte for byte in range(0x20) if byte not in (0x09, 0x0A))

#: the same characters in any text: ``_HAZARD``'s ``\r`` and ``[^Char]``
#: as one positive class, which scans faster than a negated one
_CHAR_HAZARD = re.compile(r"[\x00-\x08\x0b-\x1f\ud800-\udfff\ufffe\uffff]")

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

#: parsed tag bodies one memo holds; a full one stops inserting.  A
#: document's first tags are the ones that repeat (in perfbench's
#: corpora the 32 most frequent bodies are 89-95% of all tags, and no
#: bulk family has more than 107), while a typed binding fed purchase
#: orders would fill a larger memo with one-off ``<item partNum=...>``
#: bodies that only cost memory
TAG_MEMO_ENTRIES = 128
#: the longest tag body (in characters) a memo stores
TAG_BODY_LIMIT = 256


def scan(text: str, sink, tags: dict[str, tuple]) -> None:
    """Walk *text* into *sink*'s handlers, or raise :class:`_Restart`.

    *sink* gets ``start(name, attributes, offset)`` for every start tag
    (``attributes`` is a sequence of ``(name, value)`` pairs; the memo
    hands every repeat of a body it holds the same tuple, and a body it
    does not hold gets a fresh list), ``end(offset)`` for every end tag
    and right after the ``start`` of a self-closing root, and
    ``characters(data, offset)`` for each text run inside the root
    element, references decoded and joined into the one run the event
    parser reports as a ``Characters`` event.  Offsets point at the
    ``<`` of a tag (for a self-closing tag's ``end``, its own ``<``) and
    the first character of a run.

    A leaf inside the root gets one call instead of those three:
    ``leaf(name, attributes, data, where, data_where, end_where)``.  A
    leaf is a start tag, character data holding no ``&``, and its own
    end tag written exactly ``</name>``; or a self-closing tag, whose
    *data* is empty and whose *end_where* is its own ``<``.  A sink
    must make ``leaf`` equal to ``start``, ``characters`` (when *data*
    is not empty) and ``end`` at those offsets.  Text with a reference
    takes the three calls, so a restart on the reference still comes
    before any handler sees the element's end.

    Exceptions raised by the handlers propagate unchanged.  *tags* is
    the caller's tag memo: body -> ``(name, attributes, kind, close)``,
    pure results only.

    A walk that completes saw a well-formed document, so the calls made
    are the document's whole event stream; a :class:`_Restart` may come
    after any number of calls, which the caller then discards.
    """
    text, pos = _subset_start(text)
    room = TAG_MEMO_ENTRIES - len(tags)
    start = sink.start
    end = sink.end
    characters = sink.characters
    leaf = sink.leaf
    find = text.find
    startswith = text.startswith
    open_names: list[str] = []
    seen_root = False
    lt = find("<", pos)
    while lt >= 0:
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
            tag = _parse_tag(body)
            if room > 0 and gt - lt - 1 <= TAG_BODY_LIMIT:
                if tag[1]:
                    # Every repeat gets this body's attributes: a tuple,
                    # so no handler can change them for the next one.
                    tag = (tag[0], tuple(tag[1]), tag[2], tag[3])
                tags[body] = tag
                room -= 1
        pos = gt + 1
        name, attributes, kind, close = tag
        if kind == _END:
            if not open_names or open_names.pop() != name:
                raise _Restart("tag mismatch")
            end(lt)
        elif not open_names:
            if seen_root:
                raise _Restart("multiple root elements")
            seen_root = True
            start(name, attributes, lt)
            if kind == _EMPTY:
                end(lt)
            else:
                open_names.append(name)
        elif kind == _EMPTY:
            leaf(name, attributes, "", lt, pos, lt)
        else:
            # The next '<' either closes this element as a leaf or is
            # where the walk goes on: it is found once either way.
            after = find("<", pos)
            if after >= 0 and startswith(close, after):
                data = text[pos:after]
                if "&" not in data:
                    leaf(name, attributes, data, lt, pos, after)
                    pos = after + len(close)
                    lt = find("<", pos)
                    continue
            start(name, attributes, lt)
            open_names.append(name)
            lt = after
            continue
        lt = find("<", pos)
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
    if not _hazard_free(text, pos):
        hazard = _HAZARD.search(text, pos)
        start = hazard.start()
        for prefix, reason in _HAZARD_REASONS:
            if text.startswith(prefix, start):
                raise _Restart(reason)
        raise _Restart("illegal character")
    return text, pos


def _hazard_free(text: str, pos: int) -> bool:
    """Whether ``_HAZARD.search(text, pos)`` would find nothing, from
    C-level passes only: three ``str.find`` calls and one character
    pass.  The text before *pos* is an XML declaration inside the
    subset, ASCII without control characters, so the character pass
    may cover the whole text."""
    if text.find("<!", pos) >= 0 or text.find("<?", pos) >= 0:
        return False
    if text.find("]]>", pos) >= 0:
        return False
    if text.isascii():
        kept = text.encode("ascii").translate(None, _ASCII_HAZARD_BYTES)
        return len(kept) == len(text)
    return _CHAR_HAZARD.search(text) is None


def _parse_tag(body: str) -> tuple:
    """``(name, attributes, kind, close)`` of the tag written ``<body>``;
    *close* is the exact end tag ``</name>`` of a start tag, else None."""
    match = _TAG_BODY.fullmatch(body)
    if match is None:
        # Every construct outside the tag grammar, including a '>'
        # inside an attribute value (the body then ends early).
        raise _Restart("tokenizer")
    if match[1] is not None:
        return match[1], None, _END, None
    name = match[2]
    blob = match[3]
    attributes = _attribute_pairs(blob) if blob else ()
    if match[4]:
        return name, attributes, _EMPTY, None
    return name, attributes, _START, "</" + name + ">"


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
    try:
        return decode_char_reference(body)
    except XmlSyntaxError:
        raise _Restart("character reference")
