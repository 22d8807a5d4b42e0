"""Build a DOM :class:`~repro.dom.document.Document` from parser events."""

from __future__ import annotations

import weakref

from repro.errors import XmlSyntaxError
from repro.xml.events import (
    Characters,
    Comment as CommentEvent,
    DoctypeDecl,
    EndElement,
    ProcessingInstruction,
    StartElement,
    XmlDeclaration,
)
from repro.xml.parser import PullParser
from repro.dom.attr import trusted_attr
from repro.dom.document import Document, DocumentType
from repro.dom.node import Node


def parse_document(
    text: str,
    source: str | None = None,
    keep_comments: bool = True,
    keep_pis: bool = True,
) -> Document:
    """Parse *text* into a freshly created document tree.

    CDATA sections become :class:`~repro.dom.charnodes.CDATASection`
    nodes so the original notation round-trips through the serializer.

    Events are consumed lazily, one at a time, straight off the pull
    parser — no event list is ever materialized.  Attribute names come
    from the parser's Name production (the same check ``Attr`` runs), so
    they are installed through the trusted fast path.  Every inserted
    node is childless, so no insertion walks the ancestors: the build is
    linear in the document's depth.
    """
    document = Document()
    open_nodes: list[Node] = [document]
    for event in PullParser(text, source):
        current = open_nodes[-1]
        if isinstance(event, StartElement):
            element = document.create_element(event.name)
            if event.attributes:
                attrs = element._attrs
                owner_ref = weakref.ref(element)
                for name, value in event.attributes:
                    attrs[name] = trusted_attr(name, value, owner_ref, document)
            current.append_child(element)
            open_nodes.append(element)
        elif isinstance(event, EndElement):
            open_nodes.pop()
        elif isinstance(event, Characters):
            if event.cdata:
                current.append_child(document.create_cdata_section(event.data))
            elif event.data:
                current.append_child(document.create_text_node(event.data))
        elif isinstance(event, CommentEvent):
            if keep_comments:
                current.append_child(document.create_comment(event.data))
        elif isinstance(event, ProcessingInstruction):
            if keep_pis:
                current.append_child(
                    document.create_processing_instruction(event.target, event.data)
                )
        elif isinstance(event, DoctypeDecl):
            doctype = DocumentType(
                event.name,
                event.public_id,
                event.system_id,
                event.internal_subset,
                document,
            )
            current.append_child(doctype)
        elif isinstance(event, XmlDeclaration):
            pass  # declarations carry no tree content
    if len(open_nodes) != 1:  # pragma: no cover - parser guarantees balance
        raise XmlSyntaxError("unbalanced document")
    return document
