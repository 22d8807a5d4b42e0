"""The generic :class:`Element` — the "unspecific interface" of the paper.

Every element of every markup language is an instance of this one class;
that genericity is exactly what V-DOM replaces with schema-derived
subclasses.  V-DOM's :class:`~repro.core.vdom.TypedElement` therefore
*extends* this class, as the paper requires ("each interface extends the
Element-interface of the Document Object Model").
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.errors import DomError, XmlError
from repro.xml.chars import is_name
from repro.dom.attr import Attr, NamedNodeMap
from repro.dom.node import Node, NodeType, relink

if TYPE_CHECKING:  # pragma: no cover
    from repro.dom.document import Document


class Element(Node):
    """An XML element with attributes and mixed content.

    The element owns its name→:class:`Attr` dict (``_attrs``);
    :attr:`attributes` returns a :class:`NamedNodeMap` view built on
    access, as :attr:`child_nodes` does for the children.
    """

    _allowed_children = frozenset(
        {
            NodeType.ELEMENT,
            NodeType.TEXT,
            NodeType.CDATA_SECTION,
            NodeType.COMMENT,
            NodeType.PROCESSING_INSTRUCTION,
        }
    )

    def __init__(self, tag_name: str, owner_document: Document | None = None):
        if not is_name(tag_name):
            raise XmlError(f"'{tag_name}' is not a legal element name")
        super().__init__(owner_document)
        self._tag_name = tag_name
        self._attrs: dict[str, Attr] = {}

    @property
    def node_type(self) -> NodeType:
        return NodeType.ELEMENT

    @property
    def node_name(self) -> str:
        return self._tag_name

    @property
    def tag_name(self) -> str:
        return self._tag_name

    @property
    def attributes(self) -> NamedNodeMap:
        return NamedNodeMap(self)

    # -- attribute convenience API (DOM Level 1) -----------------------------

    def get_attribute(self, name: str) -> str:
        """Return the value of *name*, or '' when absent (per DOM L1)."""
        attr = self._attrs.get(name)
        return attr.value if attr is not None else ""

    def has_attribute(self, name: str) -> bool:
        return name in self._attrs

    def set_attribute(self, name: str, value: str) -> None:
        attr = self._attrs.get(name)
        if attr is not None:
            attr.value = str(value)
            return
        NamedNodeMap(self).set_named_item(Attr(name, value, self._owner_document))

    def remove_attribute(self, name: str) -> None:
        """Remove *name* if present (silently ignores absence, per DOM)."""
        if name in self._attrs:
            NamedNodeMap(self).remove_named_item(name)

    def get_attribute_node(self, name: str) -> Attr | None:
        return self._attrs.get(name)

    def set_attribute_node(self, attr: Attr) -> Attr | None:
        return NamedNodeMap(self).set_named_item(attr)

    def remove_attribute_node(self, attr: Attr) -> Attr:
        """Remove *attr*, which must be this element's own node: another
        node of the same name is the DOM's NOT_FOUND error, and the
        element keeps its attribute."""
        if self._attrs.get(attr.name) is not attr:
            raise DomError(
                f"'{attr.name}' is not an attribute node of <{self._tag_name}>"
            )
        return NamedNodeMap(self).remove_named_item(attr.name)

    # -- element queries --------------------------------------------------------

    def get_elements_by_tag_name(self, name: str) -> list[Element]:
        """All descendant elements with tag *name* ('*' matches any)."""
        result: list[Element] = []
        for node in self.iter_descendants():
            if isinstance(node, Element) and (name == "*" or node.tag_name == name):
                result.append(node)
        return result

    def child_elements(self) -> list[Element]:
        """Direct element children, in document order."""
        return [node for node in self._children if isinstance(node, Element)]

    def iter_children(self) -> Iterator[Node]:
        return iter(list(self._children))

    # -- cloning ------------------------------------------------------------------

    def _clone_shallow(self) -> Element:
        clone = Element(self._tag_name, self._owner_document)
        for name, attr in self._attrs.items():
            clone.set_attribute(name, attr.value)
        return clone

    def __setstate__(self, state: dict) -> None:
        super().__setstate__(state)
        relink(self._attrs.values(), "_owner_ref", self)

    def __repr__(self) -> str:
        return f"<Element <{self._tag_name}> attrs={len(self._attrs)}>"
