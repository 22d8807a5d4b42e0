"""The turbo scanner's grammar: one regex alternation over a strict subset.

Two fast lanes walk a document straight off its source text instead of
through :class:`~repro.xml.parser.PullParser` events: typed ingest
(:func:`repro.ingest.table_driven.table_parse`) and streaming validation
(:meth:`repro.xsd.stream.StreamingValidator.validate_text`).  Both read
the tokens defined here, and both leave the subset the same way: on any
construct outside it they raise :class:`_Restart` and re-run the
document through the event parser, which produces the authoritative
result — same verdicts, same :class:`~repro.errors.XmlSyntaxError`, same
:class:`~repro.errors.Location`.

The subset is chosen so that everything it accepts is well-formed XML
whose events need no further processing: ASCII names, double-quoted
attribute values without references or normalizable white space, no
``\\r`` (so line/column are plain ``\\n`` counts), no DOCTYPE, CDATA,
comments or PIs, and only predefined entity and valid character
references.

This module depends on nothing beyond the XML character model, so
importing it loads neither numpy nor :mod:`repro.ingest`.
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
#: references, no ``<``, and no normalizable white space — exactly the
#: contract of the scanning parser's quick path, so raw values need no
#: further processing
_ATTR_BLOB = rf'(?:{_WS}+{_NAME}{_WS}*={_WS}*"[^"&<\t\n\r]*")*'

#: the master tokenizer: one alternation, one C-level ``match`` per
#: token.  ``lastindex`` dispatches: 1 = text run, 4 = start tag
#: (2 = name, 3 = attribute blob, 4 = self-closing flag), 5 = end tag,
#: 6 = reference body.
_TOKEN = re.compile(
    rf"([^<&]+)"
    rf"|<({_NAME})({_ATTR_BLOB}){_WS}*(/?)>"
    rf"|</({_NAME}){_WS}*>"
    rf"|&(#[0-9]+|#x[0-9A-Fa-f]+|{_NAME});"
)

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


def _decode_reference(body: str) -> str:
    """Replacement text for ``&body;`` — restart on anything the event
    parser would have to error on or expand from a DTD."""
    if body[0] == "#":
        try:
            return decode_char_reference(body)
        except XmlSyntaxError:
            raise _Restart("character reference")
    replacement = PREDEFINED_ENTITIES.get(body)
    if replacement is None:
        # A general entity: only a DTD could define it, and DOCTYPE is
        # outside the turbo subset.
        raise _Restart("entity reference")
    return replacement


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
