"""Document, DocumentFragment, DocumentType, and PI nodes."""

from __future__ import annotations

from repro.errors import HierarchyRequestError, XmlError
from repro.xml.chars import is_name
from repro.dom.attr import Attr
from repro.dom.charnodes import CDATASection, Comment, Text
from repro.dom.element import Element
from repro.dom.node import Node, NodeType


class ProcessingInstructionNode(Node):
    """``<?target data?>`` as a tree node."""

    def __init__(self, target: str, data: str, owner_document: Document | None = None):
        if not is_name(target) or target.lower() == "xml":
            raise XmlError(f"'{target}' is not a legal PI target")
        super().__init__(owner_document)
        self.target = target
        self.data = data

    @property
    def node_type(self) -> NodeType:
        return NodeType.PROCESSING_INSTRUCTION

    @property
    def node_name(self) -> str:
        return self.target

    @property
    def node_value(self) -> str:
        return self.data

    def _clone_shallow(self) -> ProcessingInstructionNode:
        return ProcessingInstructionNode(self.target, self.data, self._owner_document)


class DocumentType(Node):
    """The DOCTYPE declaration as a (childless) tree node."""

    def __init__(
        self,
        name: str,
        public_id: str | None = None,
        system_id: str | None = None,
        internal_subset: str | None = None,
        owner_document: Document | None = None,
    ):
        super().__init__(owner_document)
        self.name = name
        self.public_id = public_id
        self.system_id = system_id
        self.internal_subset = internal_subset

    @property
    def node_type(self) -> NodeType:
        return NodeType.DOCUMENT_TYPE

    @property
    def node_name(self) -> str:
        return self.name

    def _clone_shallow(self) -> DocumentType:
        return DocumentType(
            self.name,
            self.public_id,
            self.system_id,
            self.internal_subset,
            self._owner_document,
        )


class DocumentFragment(Node):
    """A lightweight container whose children are inserted in its place."""

    _allowed_children = Element._allowed_children

    def __init__(self, owner_document: Document | None = None):
        super().__init__(owner_document)

    @property
    def node_type(self) -> NodeType:
        return NodeType.DOCUMENT_FRAGMENT

    @property
    def node_name(self) -> str:
        return "#document-fragment"

    def _clone_shallow(self) -> DocumentFragment:
        return DocumentFragment(self._owner_document)


class Document(Node):
    """The document node: factory for all other nodes, single root rule."""

    _allowed_children = frozenset(
        {
            NodeType.ELEMENT,
            NodeType.COMMENT,
            NodeType.PROCESSING_INSTRUCTION,
            NodeType.DOCUMENT_TYPE,
        }
    )

    def __init__(self) -> None:
        super().__init__(None)
        self._owner_document = self

    @property
    def node_type(self) -> NodeType:
        return NodeType.DOCUMENT

    @property
    def node_name(self) -> str:
        return "#document"

    @property
    def owner_document(self) -> Document | None:
        """Per DOM, the document's own owner is ``None``."""
        return None

    @property
    def document_element(self) -> Element | None:
        for child in self._children:
            if isinstance(child, Element):
                return child
        return None

    @property
    def doctype(self) -> DocumentType | None:
        for child in self._children:
            if isinstance(child, DocumentType):
                return child
        return None

    def _check_insertion(self, node: Node) -> None:
        super()._check_insertion(node)
        if node.node_type is NodeType.ELEMENT and self.document_element is not None:
            raise HierarchyRequestError("document already has a root element")
        if node.node_type is NodeType.DOCUMENT_TYPE and self.doctype is not None:
            raise HierarchyRequestError("document already has a DOCTYPE")

    # -- factories ------------------------------------------------------------

    def create_element(self, tag_name: str) -> Element:
        return Element(tag_name, self)

    def create_text_node(self, data: str) -> Text:
        return Text(data, self)

    def create_cdata_section(self, data: str) -> CDATASection:
        return CDATASection(data, self)

    def create_comment(self, data: str) -> Comment:
        return Comment(data, self)

    def create_processing_instruction(
        self, target: str, data: str = ""
    ) -> ProcessingInstructionNode:
        return ProcessingInstructionNode(target, data, self)

    def create_attribute(self, name: str, value: str = "") -> Attr:
        return Attr(name, value, self)

    def create_document_fragment(self) -> DocumentFragment:
        return DocumentFragment(self)

    # -- queries ---------------------------------------------------------------

    def get_elements_by_tag_name(self, name: str) -> list[Element]:
        root = self.document_element
        if root is None:
            return []
        matches = root.get_elements_by_tag_name(name)
        if name == "*" or root.tag_name == name:
            matches.insert(0, root)
        return matches

    def import_node(self, node: Node, deep: bool = True) -> Node:
        """Copy a node from another document into this one."""
        clone = node.clone_node(deep)
        self._reown(clone)
        return clone

    def _reown(self, node: Node) -> None:
        node._owner_document = self
        if isinstance(node, Element):
            for attr in node._attrs.values():
                attr._owner_document = self
        for child in node._children:
            self._reown(child)

    def _clone_shallow(self) -> Document:
        return Document()

    def __repr__(self) -> str:
        root = self.document_element
        root_name = root.tag_name if root is not None else None
        return f"<Document root={root_name!r}>"
