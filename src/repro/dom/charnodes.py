"""Character data nodes: Text, CDATASection, Comment."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import DomError
from repro.dom.node import Node, NodeType

if TYPE_CHECKING:  # pragma: no cover
    from repro.dom.document import Document


class CharacterData(Node):
    """Shared behaviour of nodes whose value is a mutable string."""

    def __init__(self, data: str, owner_document: Document | None = None):
        super().__init__(owner_document)
        self.data = str(data)

    @property
    def node_value(self) -> str:
        return self.data

    @property
    def length(self) -> int:
        return len(self.data)

    def substring_data(self, offset: int, count: int) -> str:
        self._check_offset(offset)
        return self.data[offset : offset + count]

    def append_data(self, text: str) -> None:
        self.data += text

    def insert_data(self, offset: int, text: str) -> None:
        self._check_offset(offset)
        self.data = self.data[:offset] + text + self.data[offset:]

    def delete_data(self, offset: int, count: int) -> None:
        self._check_offset(offset)
        self.data = self.data[:offset] + self.data[offset + count :]

    def replace_data(self, offset: int, count: int, text: str) -> None:
        self._check_offset(offset)
        self.data = self.data[:offset] + text + self.data[offset + count :]

    def _check_offset(self, offset: int) -> None:
        if not 0 <= offset <= len(self.data):
            raise DomError(
                f"offset {offset} outside data of length {len(self.data)}"
            )

    def __repr__(self) -> str:
        preview = self.data if len(self.data) <= 30 else self.data[:27] + "..."
        return f"<{type(self).__name__} {preview!r}>"


class Text(CharacterData):
    """A run of character data in element content."""

    @property
    def node_type(self) -> NodeType:
        return NodeType.TEXT

    @property
    def node_name(self) -> str:
        return "#text"

    def split_text(self, offset: int) -> Text:
        """Split at *offset*; the tail becomes the next sibling."""
        self._check_offset(offset)
        tail = type(self)(self.data[offset:], self._owner_document)
        self.data = self.data[:offset]
        parent = self.parent_node
        if parent is not None:
            parent.insert_before(tail, self.next_sibling)
        return tail

    def _clone_shallow(self) -> Text:
        return type(self)(self.data, self._owner_document)


class CDATASection(Text):
    """Text originating from (and serialized as) a CDATA section."""

    @property
    def node_type(self) -> NodeType:
        return NodeType.CDATA_SECTION

    @property
    def node_name(self) -> str:
        return "#cdata-section"


class Comment(CharacterData):
    """``<!-- ... -->``"""

    @property
    def node_type(self) -> NodeType:
        return NodeType.COMMENT

    @property
    def node_name(self) -> str:
        return "#comment"

    def _clone_shallow(self) -> Comment:
        return Comment(self.data, self._owner_document)
