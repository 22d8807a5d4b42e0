"""Trees are owned from the top, so a dropped tree is freed at once.

Links that point down (a node's children, an element's attributes) are
strong; links that point up (``parent_node``, ``Attr.owner_element``)
are weak references.  A typed tree is therefore no reference cycle:
reference counting frees it as soon as its last outside reference goes,
without the cyclic collector.  The tests here that drop trees run with
that collector switched off, so only reference counting can free them.
"""

import copy
import gc
import pickle
import weakref

import pytest

from repro.core import bind
from repro.dom import Element, Text, parse_document, serialize
from repro.errors import VdomTypeError
from repro.ingest import fused_parse, legacy_parse, parse_typed, table_parse
from repro.pxml import Template
from repro.query import Rule, TransformProgram
from repro.schemas import PURCHASE_ORDER_DOCUMENT, XHTML_SUBSET_SCHEMA

SHIP_TO_TEMPLATE = (
    '<shipTo country="US">$n$<street>123 Maple Street</street>'
    "<city>Mill Valley</city><state>CA</state><zip>90952</zip></shipTo>"
)

ITEM = (
    '<item partNum="{n:03d}-AA"><productName>Part {n}</productName>'
    "<quantity>{q}</quantity><USPrice>{n}.95</USPrice>"
    "<comment>note {n}</comment></item>"
)


def purchase_order(items: int) -> str:
    """The Fig. 1 purchase order with *items* generated items."""
    head, _, _ = PURCHASE_ORDER_DOCUMENT.partition("<items>")
    body = "".join(ITEM.format(n=n, q=n % 98 + 1) for n in range(items))
    return f"{head}<items>{body}</items></purchaseOrder>"


def xhtml_page(rows: int) -> str:
    """An XHTML-subset page with mixed content, links and lists."""
    blocks = "".join(
        f"<h2>Section {n}</h2><p>Paragraph <b>{n}</b> with <i>mixed</i> "
        f'content and a <a href="/item/{n}">link</a>.<br/></p>'
        "<ul><li>first</li><li>second &amp; third</li></ul>"
        for n in range(rows)
    )
    return (
        '<html><head><title>page</title><meta name="generator" '
        f'content="tests"/></head><body>{blocks}</body></html>'
    )


@pytest.fixture(scope="module")
def xhtml_binding():
    return bind(XHTML_SUBSET_SCHEMA)


@pytest.fixture
def program(po_binding, wml_binding):
    return TransformProgram(
        po_binding,
        wml_binding,
        "purchaseOrder",
        [
            Rule("items/item/productName", '<option value="p">$n:text$</option>', "n"),
            Rule("items/item/@partNum", "<option>$sku:text$</option>", "sku"),
        ],
    )


@pytest.fixture
def no_collector():
    """Run a test with the cyclic collector off, restoring it after."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def first_text(root) -> Text:
    return next(node for node in root.iter_descendants() if isinstance(node, Text))


def assert_freed_on_drop(trees: list) -> None:
    """Drop every tree of *trees*; each root and one of its leaf Text
    nodes must die right away."""
    refs = []
    for tree in trees:
        refs.append(weakref.ref(tree))
        refs.append(weakref.ref(first_text(tree)))
    del tree
    trees.clear()
    assert [ref() for ref in refs] == [None] * len(refs)


def build_with_factory(factory):
    f = factory

    def address(kind):
        return kind(
            f.create_name("Alice Smith"),
            f.create_street("123 Maple Street"),
            f.create_city("Mill Valley"),
            f.create_state("CA"),
            f.create_zip("90952"),
        )

    return f.create_purchase_order(
        address(f.create_ship_to),
        address(f.create_bill_to),
        f.create_items(
            f.create_item(
                f.create_product_name("Lawnmower"),
                f.create_quantity(1),
                f.create_us_price("148.95"),
                part_num="872-AA",
            )
        ),
        order_date="1999-10-20",
    )


@pytest.mark.usefixtures("no_collector")
class TestTreesFreedWhenDropped:
    @pytest.mark.parametrize(
        "route",
        [
            parse_typed,
            table_parse,
            fused_parse,
            lambda binding, text: fused_parse(binding, text, use_tables=False),
            legacy_parse,
        ],
        ids=["parse_typed", "table_parse", "fused_tables", "fused_reference", "legacy_parse"],
    )
    def test_ingest_routes(self, po_binding, xhtml_binding, route):
        assert_freed_on_drop(
            [
                route(po_binding, PURCHASE_ORDER_DOCUMENT),
                route(xhtml_binding, xhtml_page(3)),
            ]
        )

    def test_factory_construction(self, po_binding):
        assert_freed_on_drop([build_with_factory(po_binding.factory)])

    def test_template_render(self, po_binding):
        template = Template(po_binding, SHIP_TO_TEMPLATE)
        trees = [template.render(n=po_binding.factory.create_name("Alice Smith"))]
        hole_ref = weakref.ref(trees[0].name)
        assert_freed_on_drop(trees)
        assert hole_ref() is None

    def test_transform_program_apply(self, po_binding, program):
        trees = [parse_typed(po_binding, PURCHASE_ORDER_DOCUMENT)]
        trees += program.apply(trees[0])
        assert len(trees) == 5
        assert_freed_on_drop(trees)

    def test_attributes_die_with_their_element(self, po_binding):
        root = parse_typed(po_binding, PURCHASE_ORDER_DOCUMENT)
        attr_ref = weakref.ref(root.get_attribute_node("orderDate"))
        del root
        assert attr_ref() is None


class TestNoCyclicGarbage:
    def test_ingest_loop_leaves_nothing_to_collect(
        self, po_binding, xhtml_binding, program, no_collector
    ):
        orders = [purchase_order(n) for n in (1, 10, 100)]
        pages = [xhtml_page(n) for n in (1, 10, 30)]
        factory = po_binding.factory
        gc.collect()  # what setting up the program left behind
        for _ in range(3):
            for text in orders:
                root = parse_typed(po_binding, text)
                program.transform_text(root)
                item = root.items.item_list[0]
                with pytest.raises(VdomTypeError):
                    item.quantity = factory.create_quantity(100)
                item.quantity = factory.create_quantity(7)
                serialize(root)
            for page in pages:
                parse_typed(xhtml_binding, page)
        del root, item
        assert gc.collect() == 0


class TestDetachedSubtree:
    """A node does not keep its ancestors alive."""

    def test_parent_node_is_none_once_the_root_is_gone(self, po_binding):
        item = parse_typed(po_binding, PURCHASE_ORDER_DOCUMENT).items.item_list[0]
        assert item.parent_node is None
        assert item.previous_sibling is None and item.next_sibling is None
        assert list(item.ancestors()) == []

    def test_serializes_to_the_same_bytes(self, po_binding):
        root = parse_typed(po_binding, PURCHASE_ORDER_DOCUMENT)
        expected = serialize(root.items.item_list[0])
        del root
        item = parse_typed(po_binding, PURCHASE_ORDER_DOCUMENT).items.item_list[0]
        assert serialize(item) == expected

    def test_may_be_appended_elsewhere(self, po_binding):
        item = parse_typed(po_binding, PURCHASE_ORDER_DOCUMENT).items.item_list[0]
        target = parse_typed(po_binding, PURCHASE_ORDER_DOCUMENT)
        target.items.append_child(item)
        assert item.parent_node is target.items
        assert len(target.items.item_list) == 3
        target.check_valid_deep()

    def test_a_live_source_tree_still_refuses_the_theft(self, po_binding):
        source = parse_typed(po_binding, PURCHASE_ORDER_DOCUMENT)
        ship_to = source.ship_to
        target = parse_typed(po_binding, PURCHASE_ORDER_DOCUMENT)
        with pytest.raises(VdomTypeError, match="would invalidate"):
            target.replace_child(ship_to, target.ship_to)
        assert source.ship_to is ship_to
        assert ship_to.parent_node is source

    def test_deepcopy_of_a_subtree_has_no_parent(self, po_binding):
        root = parse_typed(po_binding, PURCHASE_ORDER_DOCUMENT)
        assert copy.deepcopy(root.items).parent_node is None

    def test_attr_of_a_dropped_element(self, po_binding):
        attr = (
            parse_typed(po_binding, PURCHASE_ORDER_DOCUMENT)
            .items.item_list[0]
            .get_attribute_node("partNum")
        )
        assert attr.owner_element is None
        element = Element("x")
        assert element.set_attribute_node(attr) is None
        assert attr.owner_element is element
        assert element.get_attribute("partNum") == "872-AA"

    def test_generic_nodes_keep_their_document_alive(self):
        node = parse_document(PURCHASE_ORDER_DOCUMENT).document_element.first_child
        assert node.parent_node.tag_name == "purchaseOrder"
        assert node.parent_node.parent_node is node.owner_document


def nodes_of(top) -> list:
    return [top, *top.iter_descendants()]


def assert_links_inside(top, original) -> None:
    """Every parent and owner link of the copy *top* stays inside it."""
    inside = {id(node) for node in nodes_of(top)}
    outside = {id(node) for node in nodes_of(original)}
    for node in nodes_of(top)[1:]:
        assert id(node.parent_node) in inside
    for node in nodes_of(top):
        if isinstance(node, Element):
            for attr in node.attributes:
                assert attr.owner_element is node
                assert id(attr) not in outside
    assert not inside & outside


class TestCopies:
    def test_pickle_round_trip_of_a_generic_document(self):
        document = parse_document(PURCHASE_ORDER_DOCUMENT)
        restored = pickle.loads(pickle.dumps(document))
        assert serialize(restored) == serialize(document)
        assert_links_inside(restored, document)
        assert restored.document_element.parent_node is restored

    def test_pickle_of_a_node_inside_a_document(self):
        document = parse_document(PURCHASE_ORDER_DOCUMENT)
        ship_to = document.document_element.child_elements()[0]
        restored = pickle.loads(pickle.dumps(ship_to))
        assert serialize(restored) == serialize(ship_to)
        parent = restored.parent_node
        assert parent is restored.owner_document.document_element
        assert parent is not document.document_element
        assert parent.child_elements()[0] is restored

    def test_deepcopy_of_a_generic_tree(self):
        document = parse_document(PURCHASE_ORDER_DOCUMENT)
        clone = copy.deepcopy(document)
        assert serialize(clone) == serialize(document)
        assert_links_inside(clone, document)

    def test_deepcopy_of_a_typed_tree(self, po_binding):
        root = parse_typed(po_binding, PURCHASE_ORDER_DOCUMENT)
        clone = copy.deepcopy(root)
        assert type(clone) is type(root)
        assert serialize(clone) == serialize(root)
        assert clone.parent_node is None
        assert_links_inside(clone, root)
        clone.items.item_list[0].quantity = po_binding.factory.create_quantity(5)
        assert root.items.item_list[0].quantity.content == "1"

    def test_deepcopy_of_a_typed_subtree(self, po_binding):
        root = parse_typed(po_binding, PURCHASE_ORDER_DOCUMENT)
        clone = copy.deepcopy(root.items)
        assert clone.parent_node not in nodes_of(root)
        assert_links_inside(clone, root)

    def test_shallow_copy_leaves_the_original_links_alone(self):
        document = parse_document(PURCHASE_ORDER_DOCUMENT)
        root = document.document_element
        copy.copy(root)
        for child in root.child_nodes:
            assert child.parent_node is root
        for attr in root.attributes:
            assert attr.owner_element is root
        assert root.parent_node is document
