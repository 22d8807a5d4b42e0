"""Element attribute APIs and NamedNodeMap behaviour."""

import pytest

from repro.errors import DomError, XmlError
from repro.dom import Document, parse_document


@pytest.fixture
def doc():
    return Document()


class TestAttributeConvenience:
    def test_set_get(self, doc):
        element = doc.create_element("a")
        element.set_attribute("x", "1")
        assert element.get_attribute("x") == "1"
        assert element.has_attribute("x")

    def test_get_missing_returns_empty_string(self, doc):
        assert doc.create_element("a").get_attribute("x") == ""

    def test_overwrite_keeps_one(self, doc):
        element = doc.create_element("a")
        element.set_attribute("x", "1")
        element.set_attribute("x", "2")
        assert element.get_attribute("x") == "2"
        assert len(element.attributes) == 1

    def test_remove_is_silent_when_absent(self, doc):
        element = doc.create_element("a")
        element.remove_attribute("x")  # no error

    def test_remove(self, doc):
        element = doc.create_element("a")
        element.set_attribute("x", "1")
        element.remove_attribute("x")
        assert not element.has_attribute("x")

    def test_illegal_attribute_name(self, doc):
        element = doc.create_element("a")
        with pytest.raises(XmlError):
            element.set_attribute("bad name", "v")


class TestAttrNodes:
    def test_set_attribute_node(self, doc):
        element = doc.create_element("a")
        attr = doc.create_attribute("x", "1")
        displaced = element.set_attribute_node(attr)
        assert displaced is None
        assert element.get_attribute_node("x") is attr
        assert attr.owner_element is element

    def test_displacement_returns_previous(self, doc):
        element = doc.create_element("a")
        first = doc.create_attribute("x", "1")
        second = doc.create_attribute("x", "2")
        element.set_attribute_node(first)
        displaced = element.set_attribute_node(second)
        assert displaced is first
        assert first.owner_element is None

    def test_attr_in_use_elsewhere_rejected(self, doc):
        a, b = doc.create_element("a"), doc.create_element("b")
        attr = doc.create_attribute("x", "1")
        a.set_attribute_node(attr)
        with pytest.raises(DomError):
            b.set_attribute_node(attr)

    def test_remove_attribute_node(self, doc):
        element = doc.create_element("a")
        attr = doc.create_attribute("x", "1")
        element.set_attribute_node(attr)
        removed = element.remove_attribute_node(attr)
        assert removed is attr
        assert not element.has_attribute("x")

    def test_remove_foreign_attribute_node_is_not_found(self, doc):
        """Only the element's own node goes: another node of the same
        name, loose or owned by another element, is the DOM's NOT_FOUND."""
        a, b = doc.create_element("a"), doc.create_element("b")
        a.set_attribute("x", "1")
        b.set_attribute("x", "2")
        own = a.get_attribute_node("x")
        for foreign in (doc.create_attribute("x", "9"), b.get_attribute_node("x")):
            with pytest.raises(DomError, match="'x' is not an attribute node of <a>"):
                a.remove_attribute_node(foreign)
        assert a.get_attribute_node("x") is own and own.owner_element is a
        assert b.get_attribute_node("x").owner_element is b
        assert b.get_attribute("x") == "2"

    def test_named_node_map_iteration_order(self, doc):
        element = doc.create_element("a")
        for name in ("x", "y", "z"):
            element.set_attribute(name, name.upper())
        assert element.attributes.names() == ["x", "y", "z"]
        assert element.attributes.items() == [
            ("x", "X"), ("y", "Y"), ("z", "Z")
        ]


class TestParsedAttributes:
    def test_a_parsed_attribute_knows_its_document(self):
        document = parse_document('<a x="1"/>')
        attr = document.document_element.get_attribute_node("x")
        assert attr.owner_document is document
        other = Document().create_element("b")
        with pytest.raises(DomError, match="belongs to a different document"):
            other.attributes.set_named_item(
                document.document_element.remove_attribute_node(attr)
            )


class TestAttributesView:
    """``attributes`` is a view built on each access over the element's
    own attributes: everything but its identity behaves as a stored map."""

    def test_each_access_is_a_fresh_view(self, doc):
        element = doc.create_element("a")
        assert element.attributes is not element.attributes

    def test_view_reads_the_element_live(self, doc):
        element = doc.create_element("a")
        view = element.attributes
        element.set_attribute("x", "1")
        element.set_attribute("y", "2")
        assert len(view) == 2
        assert view.names() == ["x", "y"]
        assert view.items() == [("x", "1"), ("y", "2")]
        assert "x" in view and "z" not in view
        assert [attr.name for attr in view] == ["x", "y"]
        assert view.item(1).value == "2" and view.item(2) is None
        assert view.get_named_item("x").owner_element is element

    def test_set_named_item_through_a_view(self, doc):
        element = doc.create_element("a")
        first = doc.create_attribute("x", "1")
        second = doc.create_attribute("x", "2")
        assert element.attributes.set_named_item(first) is None
        assert first.owner_element is element
        assert element.attributes.set_named_item(second) is first
        assert first.owner_element is None
        assert second.owner_element is element
        assert element.get_attribute("x") == "2"
        with pytest.raises(DomError, match="already in use by another element"):
            doc.create_element("b").attributes.set_named_item(second)

    def test_remove_named_item_through_a_view(self, doc):
        element = doc.create_element("a")
        element.set_attribute("x", "1")
        attr = element.get_attribute_node("x")
        assert element.attributes.remove_named_item("x") is attr
        assert attr.owner_element is None
        assert len(element.attributes) == 0
        with pytest.raises(DomError, match="no attribute named 'x'"):
            element.attributes.remove_named_item("x")

    def test_removed_attribute_may_move(self, doc):
        a, b = doc.create_element("a"), doc.create_element("b")
        a.set_attribute("x", "1")
        attr = a.remove_attribute_node(a.get_attribute_node("x"))
        b.set_attribute_node(attr)
        assert attr.owner_element is b
        assert b.attributes.items() == [("x", "1")] and len(a.attributes) == 0


class TestElementQueries:
    def test_get_elements_by_tag_name(self, doc):
        root = doc.create_element("root")
        doc.append_child(root)
        for __ in range(3):
            root.append_child(doc.create_element("item"))
        nested = doc.create_element("box")
        nested.append_child(doc.create_element("item"))
        root.append_child(nested)
        assert len(root.get_elements_by_tag_name("item")) == 4

    def test_wildcard_matches_all(self, doc):
        root = doc.create_element("root")
        root.append_child(doc.create_element("a"))
        root.append_child(doc.create_element("b"))
        assert len(root.get_elements_by_tag_name("*")) == 2

    def test_document_level_search_includes_root(self, doc):
        root = doc.create_element("item")
        doc.append_child(root)
        root.append_child(doc.create_element("item"))
        assert len(doc.get_elements_by_tag_name("item")) == 2

    def test_child_elements_skips_text(self, doc):
        root = doc.create_element("root")
        root.append_child(doc.create_text_node("t"))
        root.append_child(doc.create_element("a"))
        assert [e.tag_name for e in root.child_elements()] == ["a"]
