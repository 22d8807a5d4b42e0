"""A well-formedness-checking pull parser for XML 1.0.

The parser is a generator of :mod:`repro.xml.events` values.  It enforces
the well-formedness constraints the paper's Sect. 2 distinguishes from
validity: balanced tags, a single root element, unique attributes, legal
names and characters, resolvable entity references.  Validity — the
stronger property — is checked by the layers above (DTD, XSD, V-DOM).

The hot loops scan in bulk: character-data runs, names, and white space
are consumed as slices located by compiled regexes and ``str.find``
rather than per-character stepping, and line/column positions are
computed lazily by the :class:`~repro.xml.reader.Reader`.  The
character-stepping original survives as
:mod:`repro.xml.reference` — the oracle the parity tests hold this
implementation to, event for event and error for error.
"""

from __future__ import annotations

import re
import sys

from collections.abc import Iterator

from repro.errors import Location, XmlSyntaxError
from repro.xml.chars import (
    ILLEGAL_CHAR,
    illegal_char,
    name_char_class,
    name_start_class,
)
from repro.xml.entities import decode_char_reference, resolve_reference
from repro.xml.events import (
    Characters,
    Comment,
    DoctypeDecl,
    EndElement,
    Event,
    ProcessingInstruction,
    StartElement,
    XmlDeclaration,
)
from repro.xml.reader import Reader

_MAX_ENTITY_DEPTH = 16

#: total characters of entity replacement text one document may produce.
#: Depth alone does not bound *amplification*: ten levels of ten
#: references each stay well under ``_MAX_ENTITY_DEPTH`` while expanding
#: to 10**10 characters (the "billion laughs" shape).  Exceeding the
#: budget fails fast with an :class:`XmlSyntaxError` instead of
#: exhausting memory.
_MAX_ENTITY_EXPANSION = 1 << 20

#: the next markup or reference inside a character-data run
# One alternation finds the next structural stop — markup/reference
# delimiter or a stray CDATA terminator — in a single compiled scan
# instead of chained ``search`` + ``str.find`` passes over the run.
_TEXT_STOP = re.compile(r"[<&]|]]>")

#: XML 1.0 §2.11: a literal ``\r\n`` pair or a bare ``\r`` in parsed text
#: is passed to the application as a single ``\n``.  Characters arriving
#: via character references (``&#13;``) are *not* normalized — reference
#: resolution happens after end-of-line handling in the spec's model.
_LINE_BREAKS = re.compile("\r\n?")

#: attribute values containing none of these need no normalization at
#: all — no references to resolve, no white space to fold, no '<' error
_ATTR_SPECIAL = re.compile(r"[&<\t\n\r]")

#: one complete, already-normalized attribute: leading space, a Name, '=',
#: a double-quoted value containing nothing _ATTR_SPECIAL matches.  One
#: C-level match consumes the whole attribute; anything else (single
#: quotes, references, errors) drops to the generic loop for exact parity.
_ATTR_QUICK = re.compile(
    f"[ \\t\\r\\n]+([{name_start_class()}][{name_char_class()}]*)"
    '[ \\t\\r\\n]*=[ \\t\\r\\n]*"([^"&<\\t\\n\\r]*)"'
)

_intern = sys.intern


def _normalize_line_endings(text: str) -> str:
    """Apply §2.11 end-of-line normalization to one literal text run."""
    if "\r" not in text:
        return text
    return _LINE_BREAKS.sub("\n", text)


class PullParser:
    """Parse *text* into an event stream.

    Usage::

        for event in PullParser(text):
            ...

    The iterator raises :class:`~repro.errors.XmlSyntaxError` on the first
    well-formedness violation.  General entities declared in an internal
    DTD subset are honoured for content and attribute values.
    """

    def __init__(self, text: str, source: str | None = None):
        if text.startswith("﻿"):
            text = text[1:]
        self._reader = Reader(text, source)
        self._entities: dict[str, str] = {}
        self._expansion_total = 0

    def _charge_expansion(self, amount: int, location: Location) -> None:
        """Count *amount* characters of replacement text against the
        per-document amplification budget."""
        self._expansion_total += amount
        if self._expansion_total > _MAX_ENTITY_EXPANSION:
            raise XmlSyntaxError(
                "entity expansion exceeds "
                f"{_MAX_ENTITY_EXPANSION} characters "
                "(entity amplification attack?)",
                location,
            )

    def __iter__(self) -> Iterator[Event]:
        return self._parse_document()

    # -- document structure -------------------------------------------------

    def _parse_document(self) -> Iterator[Event]:
        reader = self._reader
        declaration = self._parse_xml_declaration()
        if declaration is not None:
            yield declaration
        seen_doctype = False
        seen_root = False
        while not reader.at_end():
            if reader.looking_at("<"):
                if reader.looking_at("<?"):
                    yield self._parse_processing_instruction()
                elif reader.looking_at("<!--"):
                    yield self._parse_comment()
                elif reader.looking_at("<!DOCTYPE"):
                    if seen_doctype:
                        raise XmlSyntaxError(
                            "multiple DOCTYPE declarations", reader.location()
                        )
                    if seen_root:
                        raise XmlSyntaxError(
                            "DOCTYPE after the root element", reader.location()
                        )
                    seen_doctype = True
                    yield self._parse_doctype()
                elif reader.looking_at("<!"):
                    raise XmlSyntaxError(
                        "markup declaration outside DOCTYPE", reader.location()
                    )
                else:
                    if seen_root:
                        raise XmlSyntaxError(
                            "document has more than one root element",
                            reader.location(),
                        )
                    seen_root = True
                    yield from self._parse_element()
            else:
                location = reader.location()
                if not reader.skip_space():
                    raise XmlSyntaxError(
                        "character data outside the root element", location
                    )
        if not seen_root:
            raise XmlSyntaxError("document has no root element", reader.location())

    def _parse_xml_declaration(self) -> XmlDeclaration | None:
        reader = self._reader
        if not reader.looking_at("<?xml") or (
            len(reader.peek(6)) == 6 and not reader.peek(6)[5].isspace()
        ):
            return None
        location = reader.location()
        reader.advance(5)
        attributes = self._parse_pseudo_attributes("in the XML declaration")
        reader.expect("?>", "to close the XML declaration")
        allowed = {"version", "encoding", "standalone"}
        unknown = [name for name, _ in attributes if name not in allowed]
        if unknown:
            raise XmlSyntaxError(
                f"unknown XML declaration attribute '{unknown[0]}'", location
            )
        values = dict(attributes)
        version = values.get("version")
        if version is None:
            raise XmlSyntaxError("XML declaration lacks 'version'", location)
        if not version.startswith("1."):
            raise XmlSyntaxError(f"unsupported XML version '{version}'", location)
        standalone: bool | None = None
        if "standalone" in values:
            if values["standalone"] not in ("yes", "no"):
                raise XmlSyntaxError(
                    "standalone must be 'yes' or 'no'", location
                )
            standalone = values["standalone"] == "yes"
        return XmlDeclaration(version, values.get("encoding"), standalone, location)

    def _parse_pseudo_attributes(self, context: str) -> list[tuple[str, str]]:
        reader = self._reader
        attributes: list[tuple[str, str]] = []
        while True:
            had_space = reader.skip_space()
            if reader.looking_at("?>") or reader.at_end():
                return attributes
            if not had_space:
                raise XmlSyntaxError(
                    f"expected white space {context}", reader.location()
                )
            name = reader.read_name(context)
            reader.skip_space()
            reader.expect("=", context)
            reader.skip_space()
            attributes.append((name, reader.read_quoted(context)))

    # -- miscellaneous markup ------------------------------------------------

    def _parse_comment(self) -> Comment:
        reader = self._reader
        location = reader.location()
        reader.expect("<!--", "to open a comment")
        body = reader.read_until("-->", "comment")
        if "--" in body:
            raise XmlSyntaxError("'--' is not allowed inside a comment", location)
        self._check_chars(body, location)
        return Comment(body, location)

    def _parse_processing_instruction(self) -> ProcessingInstruction:
        reader = self._reader
        location = reader.location()
        reader.expect("<?", "to open a processing instruction")
        target = reader.read_name("as a processing instruction target")
        if target.lower() == "xml":
            raise XmlSyntaxError(
                "processing instruction target 'xml' is reserved", location
            )
        if reader.looking_at("?>"):
            reader.advance(2)
            return ProcessingInstruction(target, "", location)
        reader.require_space("after the processing instruction target")
        data = reader.read_until("?>", "processing instruction")
        self._check_chars(data, location)
        return ProcessingInstruction(target, data, location)

    def _parse_doctype(self) -> DoctypeDecl:
        reader = self._reader
        location = reader.location()
        reader.expect("<!DOCTYPE", "to open the DOCTYPE declaration")
        reader.require_space("after '<!DOCTYPE'")
        name = reader.read_name("as the document type name")
        public_id: str | None = None
        system_id: str | None = None
        reader.skip_space()
        if reader.looking_at("PUBLIC"):
            reader.advance(len("PUBLIC"))
            reader.require_space("after 'PUBLIC'")
            public_id = reader.read_quoted("as a public identifier")
            reader.require_space("between public and system identifiers")
            system_id = reader.read_quoted("as a system identifier")
        elif reader.looking_at("SYSTEM"):
            reader.advance(len("SYSTEM"))
            reader.require_space("after 'SYSTEM'")
            system_id = reader.read_quoted("as a system identifier")
        reader.skip_space()
        internal_subset: str | None = None
        if reader.looking_at("["):
            reader.advance(1)
            internal_subset = self._read_internal_subset()
            self._declare_subset_entities(internal_subset, location)
        reader.skip_space()
        reader.expect(">", "to close the DOCTYPE declaration")
        return DoctypeDecl(name, public_id, system_id, internal_subset, location)

    def _read_internal_subset(self) -> str:
        """Consume text up to the ']' closing the internal subset.

        Quoted literals and comments inside the subset may contain ']', so
        a small scanner is needed rather than a plain find.
        """
        reader = self._reader
        start = reader.offset
        while not reader.at_end():
            char = reader.peek()
            if char == "]":
                subset = reader.text[start : reader.offset]
                reader.advance(1)
                return subset
            if char in ("'", '"'):
                reader.advance(1)
                reader.read_until(char, "literal in the internal subset")
            elif reader.looking_at("<!--"):
                reader.advance(4)
                reader.read_until("-->", "comment in the internal subset")
            else:
                reader.advance(1)
        raise XmlSyntaxError(
            "unterminated internal DTD subset", reader.location()
        )

    def _declare_subset_entities(self, subset: str, location: Location) -> None:
        """Extract ``<!ENTITY name "value">`` declarations for later use."""
        inner = Reader(subset)
        while not inner.at_end():
            if inner.looking_at("<!ENTITY"):
                inner.advance(len("<!ENTITY"))
                inner.require_space("after '<!ENTITY'")
                if inner.looking_at("%"):
                    # Parameter entities only matter inside the DTD itself;
                    # the DTD package handles them.
                    inner.read_until(">", "parameter entity declaration")
                    continue
                name = inner.read_name("as an entity name")
                inner.require_space("after the entity name")
                if inner.looking_at("SYSTEM") or inner.looking_at("PUBLIC"):
                    # External entities are not fetched (no I/O here).
                    inner.read_until(">", "external entity declaration")
                    continue
                value = inner.read_quoted("as an entity value")
                inner.skip_space()
                inner.expect(">", "to close the entity declaration")
                # First declaration binds (XML 1.0 Sect. 4.2).
                self._entities.setdefault(
                    name, self._expand_entity_value(value, location)
                )
            elif inner.looking_at("<!--"):
                inner.advance(4)
                inner.read_until("-->", "comment in the internal subset")
            else:
                inner.advance(1)

    def _expand_entity_value(self, value: str, location: Location) -> str:
        """Resolve character references inside an entity value now.

        General-entity references inside the value stay textual and are
        expanded at use time, which lets us detect recursion.
        """
        pieces: list[str] = []
        index = 0
        while True:
            amp = value.find("&#", index)
            if amp < 0:
                pieces.append(value[index:])
                return "".join(pieces)
            semi = value.find(";", amp)
            if semi < 0:
                raise XmlSyntaxError(
                    "unterminated character reference in entity value", location
                )
            pieces.append(value[index:amp])
            pieces.append(resolve_reference(value[amp + 1 : semi], None, location))
            index = semi + 1

    # -- elements ------------------------------------------------------------

    def _parse_element(self) -> Iterator[Event]:
        """Parse one element and all of its content, iteratively.

        Depth is tracked with an explicit ``open_tags`` stack (never the
        Python call stack), so nesting is bounded by memory alone — the
        10,000-deep regression test in ``tests/xml`` pins that down.
        Dispatch looks at the next one or two characters directly
        instead of running a ``looking_at`` ladder per content item.
        """
        reader = self._reader
        text = reader.text
        length = len(text)
        open_tags: list[str] = []
        while True:
            offset = reader.offset
            if offset >= length:
                raise XmlSyntaxError(
                    f"unexpected end of input; <{open_tags[-1]}> is not "
                    "closed" if open_tags else "unexpected end of input",
                    reader.location(),
                )
            if text[offset] != "<":
                if not open_tags:
                    raise XmlSyntaxError(
                        "expected an element", reader.location()
                    )
                yield self._parse_characters()
                continue
            after = text[offset + 1] if offset + 1 < length else ""
            if after == "/":
                location = reader.location()
                reader.offset = offset + 2
                name = reader.read_name("in an end tag")
                reader.skip_space()
                reader.expect(">", "to close the end tag")
                if not open_tags:
                    raise XmlSyntaxError(
                        f"unexpected end tag </{name}>", location
                    )
                expected = open_tags.pop()
                if name != expected:
                    raise XmlSyntaxError(
                        f"end tag </{name}> does not match <{expected}>", location
                    )
                yield EndElement(name, location)
                if not open_tags:
                    return
            elif after == "!":
                if text.startswith("<!--", offset):
                    yield self._parse_comment()
                elif text.startswith("<![CDATA[", offset):
                    yield self._parse_cdata()
                else:
                    raise XmlSyntaxError(
                        "markup declaration inside element content",
                        reader.location(),
                    )
            elif after == "?":
                yield self._parse_processing_instruction()
            else:
                start, end = self._parse_start_tag()
                yield start
                if end is not None:
                    yield end
                    if not open_tags:
                        return
                else:
                    open_tags.append(start.name)

    def _parse_start_tag(self) -> tuple[StartElement, EndElement | None]:
        reader = self._reader
        text = reader.text
        length = len(text)
        location = reader.location()
        # Callers dispatch on a literal '<' before calling, so consuming it
        # is a plain offset bump.
        reader.offset += 1
        name = reader.read_name("in a start tag")
        attributes: list[tuple[str, str]] = []
        seen: set[str] = set()
        while True:
            match = _ATTR_QUICK.match(text, reader.offset)
            if match is not None:
                attr_name = match.group(1)
                value = match.group(2)
                if attr_name not in seen and ILLEGAL_CHAR.search(value) is None:
                    seen.add(attr_name)
                    attributes.append((_intern(attr_name), value))
                    reader.offset = match.end()
                    continue
                # Duplicate name or illegal character: re-walk this
                # attribute through the generic path below so the error
                # (type, message, location) matches the reference parser.
            had_space = reader.skip_space()
            offset = reader.offset
            char = text[offset] if offset < length else ""
            if char == ">":
                reader.offset = offset + 1
                return StartElement(name, tuple(attributes), False, location), None
            if char == "/" and text.startswith("/>", offset):
                reader.offset = offset + 2
                start = StartElement(name, tuple(attributes), True, location)
                return start, EndElement(name, location)
            if offset >= length:
                raise XmlSyntaxError(f"unterminated start tag <{name}>", location)
            if not had_space:
                raise XmlSyntaxError(
                    "expected white space between attributes", reader.location()
                )
            attr_location = reader.location()
            attr_name = reader.read_name("as an attribute name")
            if attr_name in seen:
                raise XmlSyntaxError(
                    f"duplicate attribute '{attr_name}' on <{name}>", attr_location
                )
            seen.add(attr_name)
            reader.skip_space()
            reader.expect("=", f"after attribute name '{attr_name}'")
            reader.skip_space()
            raw = reader.read_quoted(f"as the value of '{attr_name}'")
            attributes.append(
                (attr_name, self._normalize_attribute(raw, attr_location))
            )

    def _normalize_attribute(
        self, raw: str, location: Location, depth: int = 0
    ) -> str:
        """Resolve references and apply attribute-value normalization.

        Per XML 1.0 §3.3.3, literal white space becomes a space, but
        characters arriving via *character references* are appended
        verbatim (``&#10;`` stays a newline), and a ``<`` smuggled in
        through an entity is a well-formedness error just like a
        literal one.
        """
        if depth > _MAX_ENTITY_DEPTH:
            raise XmlSyntaxError(
                "entity expansion nested too deeply (recursive entity?)",
                location,
            )
        if _ATTR_SPECIAL.search(raw) is None:
            # Common case: nothing to resolve or normalize.  The value is
            # returned as-is after the same legality scan the slow path runs.
            self._check_chars(raw, location)
            return raw
        if "<" in raw:
            raise XmlSyntaxError("'<' is not allowed in attribute values", location)
        self._check_chars(raw, location)
        pieces: list[str] = []
        index = 0
        length = len(raw)
        while index < length:
            char = raw[index]
            if char == "&":
                semi = raw.find(";", index + 1)
                if semi < 0:
                    raise XmlSyntaxError(
                        "unterminated reference (missing ';')", location
                    )
                body = raw[index + 1 : semi]
                if body.startswith("#"):
                    pieces.append(decode_char_reference(body, location))
                else:
                    replacement = resolve_reference(
                        body, self._entities, location
                    )
                    if body in self._entities:
                        self._charge_expansion(len(replacement), location)
                        # Entity replacement text is processed recursively,
                        # with its own literal whitespace normalized.
                        pieces.append(
                            self._normalize_attribute(
                                replacement, location, depth + 1
                            )
                        )
                    else:
                        pieces.append(replacement)
                index = semi + 1
            elif char == "\r":
                # §2.11 end-of-line handling runs before attribute-value
                # normalization, so a literal "\r\n" pair is one line
                # break and becomes one space, not two.
                if index + 1 < length and raw[index + 1] == "\n":
                    index += 1
                pieces.append(" ")
                index += 1
            elif char in "\t\n":
                pieces.append(" ")
                index += 1
            else:
                pieces.append(char)
                index += 1
        return "".join(pieces)

    def _parse_characters(self) -> Characters:
        """Consume one character-data run up to the next ``<``.

        The run is eaten in whole slices between markup/reference
        delimiters; the next ``<``, ``&``, or stray ``]]>`` is found by
        a *single* precompiled alternation (:data:`_TEXT_STOP`), with an
        illegal-character scan over just the accepted slice.  Whichever
        problem occurs first in document order is reported — exactly as
        the character-stepping reference parser would.
        """
        reader = self._reader
        text = reader.text
        length = len(text)
        location = reader.location()
        offset = reader.offset
        stop_match = _TEXT_STOP.search(text, offset)
        found = stop_match.group() if stop_match is not None else ""
        if found != "&":
            # Single-slice run with no references — the overwhelmingly
            # common case (indentation and plain text between tags).
            stop = stop_match.start() if stop_match is not None else length
            run = text[offset:stop]
            # The run ends at the first structural stop, so any illegal
            # character inside it necessarily precedes a ``]]>`` stop.
            bad = ILLEGAL_CHAR.search(run)
            if bad is not None:
                reader.offset = offset + bad.start()
                raise XmlSyntaxError(
                    f"illegal character U+{ord(bad.group()):04X}",
                    reader.location(),
                )
            if found == "]]>":
                reader.offset = stop
                raise XmlSyntaxError(
                    "']]>' is not allowed in character data", reader.location()
                )
            reader.offset = stop
            return Characters(_normalize_line_endings(run), False, location)
        pieces: list[str] = []
        while offset < length:
            char = text[offset]
            if char == "<":
                break
            if char == "&":
                reader.offset = offset + 1
                body = reader.read_until(";", "reference")
                pieces.append(self._resolve_general(body, location, depth=0))
                offset = reader.offset
                continue
            stop_match = _TEXT_STOP.search(text, offset)
            found = stop_match.group() if stop_match is not None else ""
            stop = stop_match.start() if stop_match is not None else length
            run = text[offset:stop]
            bad = ILLEGAL_CHAR.search(run)
            if bad is not None:
                reader.offset = offset + bad.start()
                raise XmlSyntaxError(
                    f"illegal character U+{ord(bad.group()):04X}",
                    reader.location(),
                )
            if found == "]]>":
                reader.offset = stop
                raise XmlSyntaxError(
                    "']]>' is not allowed in character data", reader.location()
                )
            pieces.append(_normalize_line_endings(run))
            offset = stop
        reader.offset = offset
        return Characters("".join(pieces), False, location)

    def _parse_cdata(self) -> Characters:
        reader = self._reader
        location = reader.location()
        reader.expect("<![CDATA[", "to open a CDATA section")
        body = reader.read_until("]]>", "CDATA section")
        self._check_chars(body, location)
        return Characters(_normalize_line_endings(body), True, location)

    # -- reference expansion ---------------------------------------------------

    def _resolve_general(self, body: str, location: Location, depth: int) -> str:
        if depth > _MAX_ENTITY_DEPTH:
            raise XmlSyntaxError(
                f"entity expansion nested deeper than {_MAX_ENTITY_DEPTH} "
                "(recursive entity?)",
                location,
            )
        replacement = resolve_reference(body, self._entities, location)
        if body.startswith("#") or body not in self._entities:
            return replacement
        self._charge_expansion(len(replacement), location)
        # Replacement text of a declared entity may itself contain references.
        return self._expand_references(replacement, location, depth + 1)

    def _expand_references(self, text: str, location: Location, depth: int) -> str:
        if "&" not in text:
            return text
        pieces: list[str] = []
        index = 0
        while True:
            amp = text.find("&", index)
            if amp < 0:
                pieces.append(text[index:])
                return "".join(pieces)
            semi = text.find(";", amp + 1)
            if semi < 0:
                raise XmlSyntaxError("unterminated reference (missing ';')", location)
            pieces.append(text[index:amp])
            pieces.append(self._resolve_general(text[amp + 1 : semi], location, depth))
            index = semi + 1

    def _check_chars(self, text: str, location: Location) -> None:
        problem = illegal_char(text)
        if problem is not None:
            raise XmlSyntaxError(problem, location)


def iter_events(text: str, source: str | None = None) -> Iterator[Event]:
    """Iterate parse events lazily — nothing is materialized up front.

    This is the form every streaming consumer should use (and what
    :func:`repro.dom.builder.parse_document` and the streaming schema
    validator do): each event is produced on demand, so a consumer that
    stops early never pays for the rest of the document.
    """
    return iter(PullParser(text, source))


def parse_events(text: str, source: str | None = None) -> list[Event]:
    """Parse *text* completely and return the materialized event list.

    Convenience for tests and tools that need random access; hot paths
    iterate :class:`PullParser` (or :func:`iter_events`) directly.
    """
    return list(PullParser(text, source))
