"""XML 1.0 substrate: character model, lexing, pull parsing, serialization.

This package is the bottom layer of the reproduction.  Everything above it
(DOM, DTD, XML Schema, V-DOM, P-XML) consumes either the event stream
produced by :class:`repro.xml.parser.PullParser` or the escaping and
name-checking primitives defined here.
"""

from repro.xml.chars import is_name, is_name_char, is_name_start_char, is_nmtoken
from repro.xml.entities import escape_attribute, escape_text, unescape
from repro.xml.events import (
    Characters,
    Comment,
    DoctypeDecl,
    EndElement,
    ProcessingInstruction,
    StartElement,
    XmlDeclaration,
)
from repro.xml.parser import PullParser, iter_events, parse_events
from repro.xml.qname import split_qname
from repro.xml.serializer import attribute_string, start_tag

__all__ = [
    "Characters",
    "Comment",
    "DoctypeDecl",
    "EndElement",
    "ProcessingInstruction",
    "PullParser",
    "StartElement",
    "XmlDeclaration",
    "attribute_string",
    "escape_attribute",
    "escape_text",
    "is_name",
    "is_name_char",
    "is_name_start_char",
    "is_nmtoken",
    "iter_events",
    "parse_events",
    "split_qname",
    "start_tag",
    "unescape",
]
