"""The DOM :class:`Node` base class and live :class:`NodeList` views."""

from __future__ import annotations

import enum
import weakref
from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING

from repro.errors import DomError, HierarchyRequestError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.dom.document import Document


class NodeType(enum.IntEnum):
    """DOM node type codes (DOM Level 1 numbering)."""

    ELEMENT = 1
    ATTRIBUTE = 2
    TEXT = 3
    CDATA_SECTION = 4
    PROCESSING_INSTRUCTION = 7
    COMMENT = 8
    DOCUMENT = 9
    DOCUMENT_TYPE = 10
    DOCUMENT_FRAGMENT = 11


class NodeList:
    """A *live* sequence view over a parent node's children.

    DOM requires node lists to reflect later tree mutations; this view
    holds a reference to the parent's child list rather than a snapshot.
    """

    def __init__(self, backing: list[Node]):
        self._backing = backing

    def __len__(self) -> int:
        return len(self._backing)

    def __iter__(self) -> Iterator[Node]:
        return iter(list(self._backing))

    def __getitem__(self, index: int) -> Node:
        return self._backing[index]

    def item(self, index: int) -> Node | None:
        """DOM-style indexed access: ``None`` when out of range."""
        if 0 <= index < len(self._backing):
            return self._backing[index]
        return None

    def __repr__(self) -> str:
        return f"NodeList({self._backing!r})"


class Node:
    """Common behaviour of every tree node: children, siblings, mutation.

    A tree is owned from the top: the links that point down (a node's
    children, an element's attributes) are strong, the links that point
    up (``_parent_ref``, an attribute's ``_owner_ref``) are weak
    references (:func:`weakref.ref`).  A tree without an owner document is
    therefore no reference cycle, and reference counting frees it as
    soon as its last outside reference goes.  Nodes keep their
    ``_owner_document`` strongly, so a generic document and its nodes
    stay one cycle, alive while any of its nodes is.
    """

    #: Node types acceptable as children; leaf classes leave this empty
    #: and share an immutable ``()`` as their child list.
    _allowed_children: frozenset[NodeType] = frozenset()

    def __init__(self, owner_document: Document | None):
        self._owner_document = owner_document
        self._parent_ref: weakref.ref[Node] | None = None
        self._children: list[Node] | tuple[()] = (
            [] if self._allowed_children else ()
        )

    # -- identification ------------------------------------------------------

    @property
    def node_type(self) -> NodeType:
        raise NotImplementedError

    @property
    def node_name(self) -> str:
        raise NotImplementedError

    @property
    def node_value(self) -> str | None:
        return None

    @property
    def owner_document(self) -> Document | None:
        return self._owner_document

    # -- navigation -----------------------------------------------------------

    @property
    def parent_node(self) -> Node | None:
        ref = self._parent_ref
        return ref() if ref is not None else None

    @property
    def child_nodes(self) -> NodeList:
        return NodeList(self._children)

    @property
    def first_child(self) -> Node | None:
        return self._children[0] if self._children else None

    @property
    def last_child(self) -> Node | None:
        return self._children[-1] if self._children else None

    @property
    def previous_sibling(self) -> Node | None:
        parent = self.parent_node
        if parent is None:
            return None
        siblings = parent._children
        index = siblings.index(self)
        return siblings[index - 1] if index > 0 else None

    @property
    def next_sibling(self) -> Node | None:
        parent = self.parent_node
        if parent is None:
            return None
        siblings = parent._children
        index = siblings.index(self)
        return siblings[index + 1] if index + 1 < len(siblings) else None

    def has_child_nodes(self) -> bool:
        return bool(self._children)

    def iter_descendants(self) -> Iterator[Node]:
        """Depth-first pre-order walk of this node's descendants."""
        stack = list(reversed(self._children))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node._children))

    def ancestors(self) -> Iterator[Node]:
        ref = self._parent_ref
        while ref is not None:
            node = ref()
            if node is None:
                return
            yield node
            ref = node._parent_ref

    # -- text ------------------------------------------------------------------

    @property
    def text_content(self) -> str:
        """Concatenated character data of all descendants."""
        pieces: list[str] = []
        for node in self.iter_descendants():
            value = node.node_value
            if value is not None and node.node_type in (
                NodeType.TEXT,
                NodeType.CDATA_SECTION,
            ):
                pieces.append(value)
        return "".join(pieces)

    # -- mutation ----------------------------------------------------------------

    def _check_insertion(self, node: Node) -> None:
        if node.node_type not in self._allowed_children:
            raise HierarchyRequestError(
                f"a {node.node_type.name} node may not be a child of "
                f"a {self.node_type.name} node"
            )
        # A childless node contains no ancestor of this one, so only a
        # node with children costs a walk: building a tree top-down, as
        # the parser does, stays linear in its depth.
        if node is self or (
            node._children and any(above is node for above in self.ancestors())
        ):
            raise HierarchyRequestError("a node may not contain itself")
        if (
            node._owner_document is not None
            and self._owner_document is not None
            and node._owner_document is not self._owner_document
            and self.node_type is not NodeType.DOCUMENT
        ):
            raise DomError("node belongs to a different document")

    def _adopt(self, node: Node) -> None:
        ref = node._parent_ref
        if ref is not None:
            old_parent = ref()
            if old_parent is not None:
                old_parent._children.remove(node)
        node._parent_ref = weakref.ref(self)

    def _insert(self, node: Node, index: int) -> None:
        from repro.dom.document import DocumentFragment

        if isinstance(node, DocumentFragment):
            for child in list(node._children):
                self._insert(child, index)
                index += 1
            return
        self._check_insertion(node)
        self._adopt(node)
        self._children.insert(index, node)

    def append_child(self, node: Node) -> Node:
        """Add *node* (or a fragment's children) at the end; return it."""
        self._insert(node, len(self._children))
        return node

    def insert_before(self, node: Node, reference: Node | None) -> Node:
        """Insert *node* immediately before *reference* (or append)."""
        if reference is None:
            self._insert(node, len(self._children))
            return node
        try:
            index = self._children.index(reference)
        except ValueError:
            raise DomError("reference node is not a child of this node")
        self._insert(node, index)
        return node

    def remove_child(self, node: Node) -> Node:
        """Detach *node*; return it."""
        try:
            index = self._children.index(node)
        except ValueError:
            raise DomError("node to remove is not a child of this node")
        del self._children[index]
        node._parent_ref = None
        return node

    def replace_child(self, new: Node, old: Node) -> Node:
        """Replace *old* with *new*; return *old*.

        Uses the low-level list operations directly so subclasses that
        validate on mutation (V-DOM) see only the final state, never the
        invalid intermediate one.
        """
        try:
            index = self._children.index(old)
        except ValueError:
            raise DomError("node to replace is not a child of this node")
        del self._children[index]
        old._parent_ref = None
        self._insert(new, index)
        return old

    def normalize(self) -> None:
        """Merge adjacent text nodes and drop empty ones, recursively."""
        from repro.dom.charnodes import Text

        if not self._children:  # a leaf's shared () is immutable
            return
        merged: list[Node] = []
        for child in list(self._children):
            if (
                type(child) is Text
                and merged
                and type(merged[-1]) is Text
            ):
                merged[-1].data += child.data  # type: ignore[attr-defined]
                child._parent_ref = None
            elif type(child) is Text and not child.data:  # type: ignore[attr-defined]
                child._parent_ref = None
            else:
                merged.append(child)
                child.normalize()
        self._children[:] = merged

    # -- cloning ------------------------------------------------------------------

    def clone_node(self, deep: bool = False) -> Node:
        """Return a copy of this node, optionally with its subtree."""
        clone = self._clone_shallow()
        if deep:
            for child in self._children:
                clone.append_child(child.clone_node(True))
        return clone

    def _clone_shallow(self) -> Node:
        raise NotImplementedError

    # -- pickle and copy ------------------------------------------------------------

    def __getstate__(self) -> dict:
        """The instance dict minus the weak upward links: a weakref does
        not pickle, and a deep copy would share it with the original."""
        state = self.__dict__.copy()
        state.pop("_parent_ref", None)
        return state

    def __setstate__(self, state: dict) -> None:
        # A node reached through its owner document is restored after
        # its parent, which has already linked it: keep that link.
        self.__dict__.setdefault("_parent_ref", None)
        self.__dict__.update(state)
        relink(self._children, "_parent_ref", self)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.node_name!r}>"


def relink(nodes: Iterable[Node], link: str, owner: Node) -> None:
    """Point the weak *link* of each of *nodes* that has none at *owner*.

    Restoring a pickle or a deep copy gives each copied node no link
    (:meth:`Node.__getstate__` drops them), so its restored owner links
    it here.  A shallow copy shares its original's nodes, whose links to
    the original stay.
    """
    for node in nodes:
        if node.__dict__.get(link) is None:
            setattr(node, link, weakref.ref(owner))
