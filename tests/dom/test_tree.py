"""DOM tree structure and mutation semantics."""

import gc
import time

import pytest

from repro.errors import DomError, HierarchyRequestError
from repro.dom import Document, DocumentType, Node, NodeType, parse_document


@pytest.fixture
def doc():
    return Document()


class TestFactoriesAndIdentity:
    def test_create_element(self, doc):
        element = doc.create_element("a")
        assert element.tag_name == "a"
        assert element.node_type is NodeType.ELEMENT
        assert element.owner_document is doc

    def test_document_owner_is_none(self, doc):
        assert doc.owner_document is None

    def test_node_names(self, doc):
        assert doc.node_name == "#document"
        assert doc.create_text_node("x").node_name == "#text"
        assert doc.create_comment("x").node_name == "#comment"
        assert doc.create_cdata_section("x").node_name == "#cdata-section"


class TestInsertion:
    def test_append_and_navigate(self, doc):
        root = doc.create_element("root")
        doc.append_child(root)
        a, b = doc.create_element("a"), doc.create_element("b")
        root.append_child(a)
        root.append_child(b)
        assert root.first_child is a
        assert root.last_child is b
        assert a.next_sibling is b
        assert b.previous_sibling is a
        assert a.parent_node is root

    def test_insert_before(self, doc):
        root = doc.create_element("root")
        a, b = doc.create_element("a"), doc.create_element("b")
        root.append_child(b)
        root.insert_before(a, b)
        assert [child.node_name for child in root.child_nodes] == ["a", "b"]

    def test_insert_before_none_appends(self, doc):
        root = doc.create_element("root")
        a = doc.create_element("a")
        root.insert_before(a, None)
        assert root.last_child is a

    def test_reinsertion_moves_node(self, doc):
        root = doc.create_element("root")
        a, b = doc.create_element("a"), doc.create_element("b")
        root.append_child(a)
        root.append_child(b)
        root.append_child(a)  # move a to the end
        assert [child.node_name for child in root.child_nodes] == ["b", "a"]

    def test_remove_child(self, doc):
        root = doc.create_element("root")
        a = doc.create_element("a")
        root.append_child(a)
        returned = root.remove_child(a)
        assert returned is a
        assert a.parent_node is None
        assert not root.has_child_nodes()

    def test_remove_nonchild_raises(self, doc):
        root = doc.create_element("root")
        with pytest.raises(DomError):
            root.remove_child(doc.create_element("a"))

    def test_replace_child(self, doc):
        root = doc.create_element("root")
        a, b = doc.create_element("a"), doc.create_element("b")
        root.append_child(a)
        old = root.replace_child(b, a)
        assert old is a
        assert root.first_child is b

    def test_document_fragment_splices(self, doc):
        root = doc.create_element("root")
        fragment = doc.create_document_fragment()
        fragment.append_child(doc.create_element("a"))
        fragment.append_child(doc.create_element("b"))
        root.append_child(fragment)
        assert [child.node_name for child in root.child_nodes] == ["a", "b"]
        assert not fragment.has_child_nodes()


class TestHierarchyRules:
    def test_single_root_enforced(self, doc):
        doc.append_child(doc.create_element("a"))
        with pytest.raises(HierarchyRequestError):
            doc.append_child(doc.create_element("b"))

    def test_no_text_directly_in_document(self, doc):
        with pytest.raises(HierarchyRequestError):
            doc.append_child(doc.create_text_node("loose"))

    def test_no_self_containment(self, doc):
        a = doc.create_element("a")
        with pytest.raises(HierarchyRequestError):
            a.append_child(a)

    def test_no_ancestor_cycle(self, doc):
        a, b = doc.create_element("a"), doc.create_element("b")
        a.append_child(b)
        with pytest.raises(HierarchyRequestError):
            b.append_child(a)

    def test_no_distant_ancestor_cycle(self, doc):
        chain = [doc.create_element(f"e{n}") for n in range(5)]
        for parent, child in zip(chain, chain[1:]):
            parent.append_child(child)
        with pytest.raises(HierarchyRequestError, match="may not contain itself"):
            chain[-1].append_child(chain[0])
        with pytest.raises(HierarchyRequestError, match="may not contain itself"):
            chain[-1].insert_before(chain[1], None)
        assert [e.parent_node for e in chain[1:]] == chain[:-1]

    def test_cross_document_insert_rejected(self, doc):
        other = Document()
        foreign = other.create_element("f")
        root = doc.create_element("root")
        doc.append_child(root)
        with pytest.raises(DomError):
            root.append_child(foreign)

    def test_import_node_enables_transfer(self, doc):
        other = Document()
        foreign = other.create_element("f")
        foreign.set_attribute("x", "1")
        foreign.append_child(other.create_text_node("t"))
        imported = doc.import_node(foreign)
        root = doc.create_element("root")
        doc.append_child(root)
        root.append_child(imported)
        assert imported.owner_document is doc
        assert imported.get_attribute("x") == "1"
        assert imported.text_content == "t"


class TestLiveNodeList:
    def test_node_list_is_live(self, doc):
        root = doc.create_element("root")
        children = root.child_nodes
        assert len(children) == 0
        root.append_child(doc.create_element("a"))
        assert len(children) == 1

    def test_item_out_of_range_is_none(self, doc):
        root = doc.create_element("root")
        assert root.child_nodes.item(0) is None
        root.append_child(doc.create_element("a"))
        assert root.child_nodes.item(0).node_name == "a"


class TestCloneAndNormalize:
    def test_shallow_clone_drops_children(self, doc):
        root = doc.create_element("root")
        root.set_attribute("x", "1")
        root.append_child(doc.create_element("a"))
        clone = root.clone_node(deep=False)
        assert clone.get_attribute("x") == "1"
        assert not clone.has_child_nodes()
        assert clone.parent_node is None

    def test_deep_clone_copies_subtree(self, doc):
        root = doc.create_element("root")
        child = doc.create_element("a")
        child.append_child(doc.create_text_node("t"))
        root.append_child(child)
        clone = root.clone_node(deep=True)
        assert clone.text_content == "t"
        assert clone.first_child is not child

    def test_normalize_merges_text(self, doc):
        root = doc.create_element("root")
        root.append_child(doc.create_text_node("a"))
        root.append_child(doc.create_text_node("b"))
        root.append_child(doc.create_text_node(""))
        root.normalize()
        assert len(root.child_nodes) == 1
        assert root.text_content == "ab"

    def test_text_content_spans_descendants(self, doc):
        root = doc.create_element("root")
        a = doc.create_element("a")
        a.append_child(doc.create_text_node("x"))
        root.append_child(a)
        root.append_child(doc.create_text_node("y"))
        assert root.text_content == "xy"


#: One factory per leaf class: the classes whose nodes take no children.
LEAVES = {
    "Text": lambda doc: doc.create_text_node("t"),
    "CDATASection": lambda doc: doc.create_cdata_section("c"),
    "Comment": lambda doc: doc.create_comment("c"),
    "ProcessingInstructionNode": lambda doc: doc.create_processing_instruction("pi", "d"),
    "DocumentType": lambda doc: DocumentType("root", owner_document=doc),
    "Attr": lambda doc: doc.create_attribute("a", "v"),
}


@pytest.mark.parametrize("kind", sorted(LEAVES))
class TestLeafMutations:
    """Every child mutation of a leaf node fails as it always has."""

    def _refused(self, error, message, action):
        with pytest.raises(error) as raised:
            action()
        assert type(raised.value) is error
        assert str(raised.value) == message

    def test_append_and_insert_refused(self, doc, kind):
        leaf = LEAVES[kind](doc)
        message = (
            f"a ELEMENT node may not be a child of a {leaf.node_type.name} node"
        )
        element = doc.create_element("e")
        self._refused(HierarchyRequestError, message, lambda: leaf.append_child(element))
        self._refused(
            HierarchyRequestError, message, lambda: leaf.insert_before(element, None)
        )
        fragment = doc.create_document_fragment()
        fragment.append_child(doc.create_element("f"))
        self._refused(HierarchyRequestError, message, lambda: leaf.append_child(fragment))
        assert not leaf.has_child_nodes() and element.parent_node is None

    def test_reference_and_removal_refused(self, doc, kind):
        leaf = LEAVES[kind](doc)
        stranger = doc.create_element("s")
        element = doc.create_element("e")
        self._refused(
            DomError,
            "reference node is not a child of this node",
            lambda: leaf.insert_before(element, stranger),
        )
        self._refused(
            DomError,
            "node to remove is not a child of this node",
            lambda: leaf.remove_child(stranger),
        )
        self._refused(
            DomError,
            "node to replace is not a child of this node",
            lambda: leaf.replace_child(element, stranger),
        )

    def test_harmless_mutations_succeed(self, doc, kind):
        leaf = LEAVES[kind](doc)
        empty = doc.create_document_fragment()
        assert leaf.append_child(empty) is empty
        assert leaf.normalize() is None
        assert leaf.clone_node(deep=True).node_name == leaf.node_name
        assert len(leaf.child_nodes) == 0 and leaf.first_child is None


class TestLinearBuild:
    """``parse_document`` inserts only childless nodes, so no insertion
    walks the ancestors and the build is linear in depth."""

    def test_hundred_thousand_levels(self):
        depth = 100_000
        started = time.perf_counter()
        document = parse_document("<a>" * depth + "</a>" * depth)
        elapsed = time.perf_counter() - started
        # A walk per insertion would take minutes at this depth.
        assert elapsed < 30.0, f"{elapsed:.1f} s for {depth} levels"
        node, levels = document.document_element, 1
        while node.first_child is not None:
            node, levels = node.first_child, levels + 1
        assert levels == depth
        assert node.parent_node.parent_node.tag_name == "a"
        del document, node
        gc.collect()

    def test_builder_never_walks_the_ancestors(self, monkeypatch):
        walks = []
        ancestors = Node.ancestors

        def spy(self):
            walks.append(self)
            return ancestors(self)

        monkeypatch.setattr(Node, "ancestors", spy)
        document = parse_document(
            '<?xml version="1.0"?><!DOCTYPE r []><!--c--><r a="1"><?p d?>'
            "<s><t>text<![CDATA[cdata]]></t><!--c--></s><u/></r>"
        )
        assert document.document_element.tag_name == "r"
        assert walks == []
