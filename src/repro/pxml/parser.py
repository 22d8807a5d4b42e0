"""Parser for P-XML constructor text.

The grammar is the XML element grammar extended with holes:

* ``$name$`` / ``$name:annotation$`` in element content,
* the same inside attribute values,
* ``$$`` escapes a literal dollar sign.

Entity references, CDATA sections, and comments work as in XML.
Comments are dropped (they are developer notes in templates).
"""

from __future__ import annotations

import keyword

from repro.errors import PxmlSyntaxError, XmlSyntaxError
from repro.xml.chars import is_xml_char
from repro.xml.entities import resolve_reference
from repro.xml.reader import Reader
from repro.pxml.ast import (
    AttrPart,
    Hole,
    TemplateAttribute,
    TemplateElement,
    TemplateText,
)


#: Names the generated DOM-route ``render(factory, *, hole, ...)`` (and the
#: preprocessor's calls to it) use next to its hole parameters; a hole of
#: that name would shadow or duplicate one of them.
RESERVED_HOLE_NAMES = frozenset({"factory", "_lex", "_hole_specs"})


def parse_template(source: str, origin: str | None = None) -> TemplateElement:
    """Parse one XML constructor; returns its root element."""
    parser = _TemplateParser(source, origin)
    root = parser.parse()
    return root


class _TemplateParser:
    def __init__(self, source: str, origin: str | None):
        self._reader = Reader(source, origin)

    def parse(self) -> TemplateElement:
        reader = self._reader
        reader.skip_space()
        if not reader.looking_at("<"):
            raise PxmlSyntaxError(
                "an XML constructor must start with an element",
                reader.location(),
            )
        try:
            root = self._parse_element()
        except XmlSyntaxError as error:
            raise PxmlSyntaxError(error.message, error.location)
        reader.skip_space()
        if not reader.at_end():
            raise PxmlSyntaxError(
                f"trailing content after the constructor: {reader.peek(20)!r}",
                reader.location(),
            )
        return root

    # -- elements ----------------------------------------------------------------

    def _parse_element(self) -> TemplateElement:
        reader = self._reader
        location = reader.location()
        reader.expect("<", "to open a start tag")
        name = reader.read_name("in a start tag")
        element = TemplateElement(name, location=location)
        seen: set[str] = set()
        while True:
            had_space = reader.skip_space()
            if reader.looking_at("/>"):
                reader.advance(2)
                return element
            if reader.looking_at(">"):
                reader.advance(1)
                break
            if reader.at_end():
                raise PxmlSyntaxError(f"unterminated start tag <{name}>", location)
            if not had_space:
                raise PxmlSyntaxError(
                    "expected white space between attributes", reader.location()
                )
            attribute = self._parse_attribute()
            if attribute.name in seen:
                raise PxmlSyntaxError(
                    f"duplicate attribute '{attribute.name}' on <{name}>",
                    attribute.location,
                )
            seen.add(attribute.name)
            element.attributes.append(attribute)
        self._parse_content(element)
        return element

    def _parse_attribute(self) -> TemplateAttribute:
        reader = self._reader
        location = reader.location()
        name = reader.read_name("as an attribute name")
        reader.skip_space()
        reader.expect("=", f"after attribute name '{name}'")
        reader.skip_space()
        quote = reader.peek()
        if quote not in ("'", '"'):
            raise PxmlSyntaxError(
                f"expected a quoted value for '{name}'", reader.location()
            )
        reader.advance(1)
        parts: list[AttrPart] = []
        literal: list[str] = []

        def flush() -> None:
            if literal:
                parts.append("".join(literal))
                literal.clear()

        while True:
            char = reader.peek()
            if not char:
                raise PxmlSyntaxError(
                    f"unterminated value for attribute '{name}'", location
                )
            if char == quote:
                reader.advance(1)
                break
            if char == "$":
                hole = self._parse_hole()
                if hole is None:
                    literal.append("$")
                else:
                    flush()
                    parts.append(hole)
            elif char == "&":
                reader.advance(1)
                body = reader.read_until(";", "reference")
                literal.append(resolve_reference(body, None, reader.location()))
            elif char == "<":
                raise PxmlSyntaxError(
                    "'<' is not allowed in attribute values", reader.location()
                )
            else:
                literal.append(reader.advance(1))
        flush()
        return TemplateAttribute(name, parts, location)

    # -- content ------------------------------------------------------------------

    def _parse_content(self, element: TemplateElement) -> None:
        reader = self._reader
        text: list[str] = []
        text_location = reader.location()

        def flush() -> None:
            nonlocal text_location
            if text:
                element.children.append(
                    TemplateText("".join(text), location=text_location)
                )
                text.clear()
            text_location = reader.location()

        while True:
            char = reader.peek()
            if not char:
                raise PxmlSyntaxError(
                    f"missing end tag </{element.name}>", element.location
                )
            if reader.looking_at("</"):
                flush()
                location = reader.location()
                reader.advance(2)
                name = reader.read_name("in an end tag")
                reader.skip_space()
                reader.expect(">", "to close the end tag")
                if name != element.name:
                    raise PxmlSyntaxError(
                        f"end tag </{name}> does not match <{element.name}>",
                        location,
                    )
                return
            if reader.looking_at("<!--"):
                flush()
                reader.advance(4)
                reader.read_until("-->", "comment")
            elif reader.looking_at("<![CDATA["):
                location = reader.location()
                reader.advance(len("<![CDATA["))
                body = reader.read_until("]]>", "CDATA section")
                flush()
                element.children.append(
                    TemplateText(body, cdata=True, location=location)
                )
            elif char == "<":
                flush()
                element.children.append(self._parse_element())
            elif char == "$":
                hole = self._parse_hole()
                if hole is None:
                    text.append("$")
                else:
                    flush()
                    element.children.append(hole)
            elif char == "&":
                reader.advance(1)
                body = reader.read_until(";", "reference")
                text.append(resolve_reference(body, None, reader.location()))
            else:
                if not is_xml_char(char):
                    raise PxmlSyntaxError(
                        f"illegal character U+{ord(char):04X}",
                        reader.location(),
                    )
                text.append(reader.advance(1))

    def _parse_hole(self) -> Hole | None:
        """Parse a ``$...$`` hole; ``None`` for the ``$$`` escape."""
        reader = self._reader
        location = reader.location()
        reader.expect("$", "to open a hole")
        if reader.looking_at("$"):
            reader.advance(1)
            return None
        body = reader.read_until("$", "parameter hole")
        name, colon, annotation = body.partition(":")
        name = name.strip()
        annotation = annotation.strip() if colon else None
        if not name.isidentifier():
            raise PxmlSyntaxError(
                f"hole name '{name}' is not a valid identifier", location
            )
        if keyword.iskeyword(name):
            raise PxmlSyntaxError(
                f"hole name '{name}' is a Python keyword", location
            )
        if name in RESERVED_HOLE_NAMES:
            raise PxmlSyntaxError(
                f"hole name '{name}' is reserved by the generated render "
                "function",
                location,
            )
        if colon and not annotation:
            raise PxmlSyntaxError(
                f"empty annotation in hole '${body}$'", location
            )
        return Hole(name, annotation, location)
