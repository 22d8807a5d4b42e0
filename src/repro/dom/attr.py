"""Attribute nodes and the NamedNodeMap view over an element's attributes."""

from __future__ import annotations

import weakref
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.errors import DomError, XmlError
from repro.xml.chars import is_name
from repro.dom.node import Node, NodeType

if TYPE_CHECKING:  # pragma: no cover
    from repro.dom.document import Document
    from repro.dom.element import Element


class Attr(Node):
    """An attribute; per DOM it is a node but never a tree child.

    Its element owns it; the link back (``_owner_ref``) is a
    :func:`weakref.ref`, so an attribute whose element is gone reports
    no :attr:`owner_element`.
    """

    def __init__(
        self, name: str, value: str = "", owner_document: Document | None = None
    ):
        if not is_name(name):
            raise XmlError(f"'{name}' is not a legal attribute name")
        super().__init__(owner_document)
        self._name = name
        self.value = str(value)
        self._owner_ref: weakref.ref[Element] | None = None

    @property
    def node_type(self) -> NodeType:
        return NodeType.ATTRIBUTE

    @property
    def node_name(self) -> str:
        return self._name

    @property
    def name(self) -> str:
        return self._name

    @property
    def node_value(self) -> str:
        return self.value

    @property
    def owner_element(self) -> Element | None:
        ref = self._owner_ref
        return ref() if ref is not None else None

    def _clone_shallow(self) -> Attr:
        return Attr(self._name, self.value, self._owner_document)

    def __getstate__(self) -> dict:
        state = super().__getstate__()
        state.pop("_owner_ref", None)
        return state

    def __setstate__(self, state: dict) -> None:
        # Restored after its element, as a child is after its parent.
        self.__dict__.setdefault("_owner_ref", None)
        super().__setstate__(state)

    def __repr__(self) -> str:
        return f"<Attr {self._name}={self.value!r}>"


def trusted_attr(
    name: str,
    value: str,
    owner_ref: weakref.ref[Element],
    owner_document: Document | None,
) -> Attr:
    """A fresh attribute of the element behind *owner_ref*, unchecked.

    For builders whose *name* already passed the parser's Name
    production (identical to ``is_name``) and is not yet present on the
    element: skips ``Attr.__init__``'s name validation and the
    displacement and ownership logic of
    :meth:`NamedNodeMap.set_named_item`.  The caller stores the result
    in the element's ``_attrs`` under *name*.  *owner_document* is the
    element's document, as :meth:`Element.set_attribute` would give it.
    """
    attr = Attr.__new__(Attr)
    attr._owner_document = owner_document
    attr._parent_ref = None
    attr._children = ()
    attr._name = name
    attr.value = value
    attr._owner_ref = owner_ref
    return attr


class NamedNodeMap:
    """Ordered name→:class:`Attr` view over one element's attributes.

    The element owns the mapping (``Element._attrs``); a view is built
    on each access of :attr:`Element.attributes` and stored nowhere, so
    it makes no reference cycle.
    """

    __slots__ = ("_element",)

    def __init__(self, element: Element):
        self._element = element

    def __len__(self) -> int:
        return len(self._element._attrs)

    def __iter__(self) -> Iterator[Attr]:
        return iter(list(self._element._attrs.values()))

    def __contains__(self, name: str) -> bool:
        return name in self._element._attrs

    def item(self, index: int) -> Attr | None:
        values = list(self._element._attrs.values())
        if 0 <= index < len(values):
            return values[index]
        return None

    def get_named_item(self, name: str) -> Attr | None:
        return self._element._attrs.get(name)

    def set_named_item(self, attr: Attr) -> Attr | None:
        """Attach *attr*, returning any attribute it displaced."""
        element = self._element
        owner = attr.owner_element
        if owner is not None and owner is not element:
            raise DomError("attribute is already in use by another element")
        if (
            attr.owner_document is not None
            and element.owner_document is not None
            and attr.owner_document is not element.owner_document
        ):
            raise DomError("attribute belongs to a different document")
        attrs = element._attrs
        previous = attrs.get(attr.name)
        if previous is not None:
            previous._owner_ref = None
        attr._owner_ref = weakref.ref(element)
        attrs[attr.name] = attr
        return previous

    def remove_named_item(self, name: str) -> Attr:
        try:
            attr = self._element._attrs.pop(name)
        except KeyError:
            raise DomError(f"no attribute named '{name}'")
        attr._owner_ref = None
        return attr

    def names(self) -> list[str]:
        return list(self._element._attrs)

    def items(self) -> list[tuple[str, str]]:
        return [(attr.name, attr.value) for attr in self._element._attrs.values()]

    def __repr__(self) -> str:
        return f"NamedNodeMap({self.items()!r})"
