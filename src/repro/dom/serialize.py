"""Serialize DOM trees back to markup text.

Two write paths share this module:

* :func:`write_node` — the non-pretty hot path.  It walks the tree with
  an explicit stack (no recursion limit), memoizes start/end tag text
  per generated V-DOM class (schema-guaranteed names) or per tag name
  (names already validated by ``Element.__init__``/``Attr.__init__``),
  and never re-runs ``is_name`` on the serving path.  The P-XML
  render-to-text pipeline appends element-hole subtrees through it.
* :func:`_write` — the pretty-printing walk, also iterative.  Subtrees
  whose indent policy collapses to ``None`` (``preserve_mixed``) are
  delegated to :func:`write_node`, so there is exactly one
  implementation of the non-pretty byte format.
"""

from __future__ import annotations

from repro.errors import DomError
from repro.xml import serializer as markup
from repro.xml.entities import escape_attribute, escape_text
from repro.dom.charnodes import CDATASection, Comment, Text
from repro.dom.document import (
    Document,
    DocumentFragment,
    DocumentType,
    ProcessingInstructionNode,
)
from repro.dom.element import Element
from repro.dom.node import Node

#: start/end tag text memoized per tag name for untyped elements
#: (V-DOM classes carry ``_TAG_PARTS`` precomputed at bind time);
#: bounded: cleared when pathological inputs mint too many names.
_NAME_TAG_PARTS: dict[str, tuple[str, str]] = {}
_NAME_TAG_LIMIT = 4096


def _tag_parts(element: Element) -> tuple[str, str]:
    """``("<name", "</name>")`` for *element*, without re-validating.

    The element name was checked by ``Element.__init__`` (and for V-DOM
    classes it is the schema declaration's name), so serialization can
    skip ``is_name`` entirely.
    """
    cls = element.__class__
    parts = getattr(cls, "_TAG_PARTS", None)
    if parts is not None:  # V-DOM class: precomputed at bind time
        return parts
    tag = element.tag_name
    parts = _NAME_TAG_PARTS.get(tag)
    if parts is None:
        if len(_NAME_TAG_PARTS) >= _NAME_TAG_LIMIT:
            _NAME_TAG_PARTS.clear()
        parts = _NAME_TAG_PARTS[tag] = ("<" + tag, "</" + tag + ">")
    return parts


def write_node(node: Node, pieces: list[str]) -> None:
    """Append the non-pretty serialization of *node* to *pieces*.

    Iterative (explicit stack): a 10,000-deep element chain serializes
    without touching the interpreter's recursion limit.
    """
    append = pieces.append
    stack: list[Node | str] = [node]
    pop = stack.pop
    while stack:
        current = pop()
        if type(current) is str:  # pre-rendered end tag
            append(current)
            continue
        if isinstance(current, Element):
            open_prefix, end_tag = _tag_parts(current)
            append(open_prefix)
            for name, attr in current._attrs.items():
                append(f' {name}="{escape_attribute(attr.value)}"')
            children = current._children
            if children:
                append(">")
                stack.append(end_tag)
                stack.extend(reversed(children))
            else:
                append("/>")
            continue
        if isinstance(current, CDATASection):
            append(markup.cdata_section(current.data))
            continue
        if isinstance(current, Text):
            append(escape_text(current.data))
            continue
        if isinstance(current, Comment):
            append(markup.comment(current.data))
            continue
        if isinstance(current, ProcessingInstructionNode):
            append(markup.processing_instruction(current.target, current.data))
            continue
        if isinstance(current, (Document, DocumentFragment)):
            stack.extend(reversed(current._children))
            continue
        if isinstance(current, DocumentType):
            append(_doctype_string(current))
            append("\n")
            continue
        raise DomError(f"cannot serialize node of type {type(current).__name__}")


def serialize(
    node: Node,
    pretty: bool = False,
    indent: str = "  ",
    xml_declaration: bool = False,
) -> str:
    """Render *node* (usually a document or element) as markup text."""
    pieces: list[str] = []
    if xml_declaration:
        pieces.append(markup.xml_declaration())
        if not pretty:
            pieces.append("\n")
    if pretty:
        _write(node, pieces, markup.IndentPolicy(indent), depth=0)
    else:
        write_node(node, pieces)
    text = "".join(pieces)
    if pretty and text.startswith("\n"):
        text = text[1:]
    return text


def _write(
    node: Node,
    pieces: list[str],
    policy: markup.IndentPolicy | None,
    depth: int,
) -> None:
    """Pretty-capable walk, iterative via an explicit work stack.

    Stack entries are either ``(node, policy, depth)`` work items or
    literal strings (already-rendered closing markup).
    """
    stack: list[tuple[Node, markup.IndentPolicy | None, int] | str] = [
        (node, policy, depth)
    ]
    while stack:
        entry = stack.pop()
        if type(entry) is str:
            pieces.append(entry)
            continue
        current, current_policy, current_depth = entry
        if current_policy is None:
            write_node(current, pieces)
            continue
        if isinstance(current, (Document, DocumentFragment)):
            for child in reversed(list(current.child_nodes)):
                stack.append((child, current_policy, current_depth))
            continue
        if isinstance(current, Element):
            _push_element(current, pieces, stack, current_policy, current_depth)
            continue
        if isinstance(current, CDATASection):
            pieces.append(markup.cdata_section(current.data))
            continue
        if isinstance(current, Text):
            pieces.append(escape_text(current.data))
            continue
        if isinstance(current, Comment):
            pieces.append(current_policy.prefix(current_depth))
            pieces.append(markup.comment(current.data))
            continue
        if isinstance(current, ProcessingInstructionNode):
            pieces.append(current_policy.prefix(current_depth))
            pieces.append(
                markup.processing_instruction(current.target, current.data)
            )
            continue
        if isinstance(current, DocumentType):
            pieces.append(_doctype_string(current))
            continue
        raise DomError(f"cannot serialize node of type {type(current).__name__}")


def _push_element(
    element: Element,
    pieces: list[str],
    stack: list,
    policy: markup.IndentPolicy,
    depth: int,
) -> None:
    attrs = element.attributes.items()
    children = list(element.child_nodes)
    if not children:
        pieces.append(policy.prefix(depth))
        pieces.append(markup.start_tag(element.tag_name, attrs, self_closing=True))
        return
    mixed = any(isinstance(child, Text) for child in children)
    indent_children = not (mixed and policy.preserve_mixed)
    pieces.append(policy.prefix(depth))
    pieces.append(markup.start_tag(element.tag_name, attrs))
    child_policy = policy if indent_children else None
    closing = markup.end_tag(element.tag_name)
    if indent_children:
        closing = policy.prefix(depth) + closing
    stack.append(closing)
    for child in reversed(children):
        stack.append((child, child_policy, depth + 1))


def _doctype_string(doctype: DocumentType) -> str:
    pieces = [f"<!DOCTYPE {doctype.name}"]
    if doctype.public_id is not None:
        pieces.append(f' PUBLIC "{doctype.public_id}" "{doctype.system_id or ""}"')
    elif doctype.system_id is not None:
        pieces.append(f" SYSTEM \"{doctype.system_id}\"")
    if doctype.internal_subset:
        pieces.append(f" [{doctype.internal_subset}]")
    pieces.append(">")
    return "".join(pieces)
