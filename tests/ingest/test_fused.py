"""The fused parse-to-typed-tree path against the legacy three-pass route.

The contract: ``fused_parse`` is observationally identical to
``binding.from_dom(parse_document(text).document_element)`` — same
classes, same tree bytes, same rejections with the same messages, same
post-parse mutation behavior — just without the generic-DOM intermediate
and the second validation pass.
"""

import pytest

from repro.core import bind
from repro.dom.serialize import serialize
from repro.errors import UnsupportedFeatureError, VdomTypeError, XmlSyntaxError
from repro.ingest import fused_parse, legacy_parse, parse_typed, table_parse
from repro.schemas import (
    PURCHASE_ORDER_DOCUMENT,
    PURCHASE_ORDER_SCHEMA,
    XHTML_SUBSET_SCHEMA,
)
from repro.schemas.purchase_order import PURCHASE_ORDER_INVALID_DOCUMENTS
from repro.schemas.variants import ADDRESS_EXTENSION_SCHEMA
from tests.xsd.test_xsi_type import BASE_ENTRY, US_ENTRY

XHTML_DOCUMENT = """\
<html>
  <head>
    <title>Fused ingest</title>
    <meta name="author" content="nobody"/>
  </head>
  <body>
    <h1>Heading <b>bold</b> tail</h1>
    <p>Mixed <i>content</i> with a <a href="http://example.com">link</a>,
       a break<br/> and <![CDATA[literal <markup>]]>.</p>
    <ul><li>one</li><li>two &amp; three</li></ul>
    <table><tr><td>cell</td></tr></table>
  </body>
</html>
"""


@pytest.fixture(scope="module")
def po_binding():
    return bind(PURCHASE_ORDER_SCHEMA)


@pytest.fixture(scope="module")
def xhtml_binding():
    return bind(XHTML_SUBSET_SCHEMA)


class TestValidDocuments:
    def test_purchase_order_identical(self, po_binding):
        legacy = legacy_parse(po_binding, PURCHASE_ORDER_DOCUMENT)
        fused = fused_parse(po_binding, PURCHASE_ORDER_DOCUMENT)
        assert type(fused) is type(legacy)
        assert serialize(fused) == serialize(legacy)

    def test_xhtml_identical(self, xhtml_binding):
        legacy = legacy_parse(xhtml_binding, XHTML_DOCUMENT)
        fused = fused_parse(xhtml_binding, XHTML_DOCUMENT)
        assert type(fused) is type(legacy)
        assert serialize(fused) == serialize(legacy)

    def test_tree_shape_matches(self, po_binding):
        legacy = legacy_parse(po_binding, PURCHASE_ORDER_DOCUMENT)
        fused = fused_parse(po_binding, PURCHASE_ORDER_DOCUMENT)

        def shape(element):
            return (
                type(element).__name__,
                element.tag_name,
                dict(element.attributes.items()),
                [shape(child) for child in element.child_elements()],
            )

        assert shape(fused) == shape(legacy)

    def test_parse_typed_returns_root(self, po_binding):
        root = parse_typed(po_binding, PURCHASE_ORDER_DOCUMENT)
        assert root.tag_name == "purchaseOrder"

    def test_attribute_defaults_and_fixed_applied(self, po_binding):
        # country is fixed="US"; omitting it must still materialize it.
        text = PURCHASE_ORDER_DOCUMENT.replace(' country="US"', "")
        legacy = legacy_parse(po_binding, text)
        fused = fused_parse(po_binding, text)
        ship_to = fused.child_elements()[0]
        assert ship_to.attributes.items() == [("country", "US")]
        assert serialize(fused) == serialize(legacy)


#: a simpleContent type, which no bundled schema declares
PRICE_SCHEMA = """\
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="price" type="Price"/>
  <xsd:complexType name="Price">
    <xsd:simpleContent>
      <xsd:extension base="xsd:decimal">
        <xsd:attribute name="currency" type="xsd:string"/>
      </xsd:extension>
    </xsd:simpleContent>
  </xsd:complexType>
</xsd:schema>
"""

#: every typed route, the object-DFA reference included
TYPED_ROUTES = (
    legacy_parse,
    fused_parse,
    lambda binding, text: fused_parse(binding, text, use_tables=False),
    table_parse,
    parse_typed,
)

#: an element child inside a leaf element -> (schema, document, message)
LEAF_CHILDREN = {
    "simple-type": (
        PURCHASE_ORDER_SCHEMA,
        PURCHASE_ORDER_DOCUMENT.replace(
            "<quantity>1</quantity>", "<quantity><b>1</b></quantity>"
        ),
        "<b> is not allowed inside <quantity>",
    ),
    "simple-type-between-text": (
        PURCHASE_ORDER_SCHEMA,
        PURCHASE_ORDER_DOCUMENT.replace(
            "<name>Alice Smith</name>",
            "<name>Alice <zip>x</zip>Smith</name>",
        ),
        "<zip> is not allowed inside <name>",
    ),
    "empty-content": (
        XHTML_SUBSET_SCHEMA,
        "<html><head><title>t</title></head>"
        "<body><p>a<br><b>x</b></br></p></body></html>",
        "<b> is not allowed inside <br>",
    ),
    "simple-content": (
        PRICE_SCHEMA,
        '<price currency="USD">1<b>4</b>.99</price>',
        "<b> is not allowed inside <price>",
    ),
}


class TestInvalidDocuments:
    @pytest.mark.parametrize("name", sorted(LEAF_CHILDREN))
    def test_leaf_refuses_child_elements(self, name):
        schema, text, message = LEAF_CHILDREN[name]
        binding = bind(schema)
        for route in TYPED_ROUTES:
            with pytest.raises(VdomTypeError) as caught:
                route(binding, text)
            assert str(caught.value) == message

    @pytest.mark.parametrize("name", sorted(PURCHASE_ORDER_INVALID_DOCUMENTS))
    def test_same_rejection(self, po_binding, name):
        text = PURCHASE_ORDER_INVALID_DOCUMENTS[name]
        with pytest.raises(VdomTypeError) as legacy:
            legacy_parse(po_binding, text)
        with pytest.raises(VdomTypeError) as fused:
            fused_parse(po_binding, text)
        assert str(fused.value) == str(legacy.value)

    def test_unknown_root(self, po_binding):
        for route in (legacy_parse, fused_parse):
            with pytest.raises(VdomTypeError, match="not a global element"):
                route(po_binding, "<unknown/>")

    def test_missing_required_attribute_xhtml(self, xhtml_binding):
        text = XHTML_DOCUMENT.replace(' href="http://example.com"', "")
        with pytest.raises(VdomTypeError) as legacy:
            legacy_parse(xhtml_binding, text)
        with pytest.raises(VdomTypeError) as fused:
            fused_parse(xhtml_binding, text)
        assert str(fused.value) == str(legacy.value)

    def test_syntax_error_outranks_validity_error(self, po_binding):
        # The validity problem (comment out of order) appears *before* the
        # syntax problem (unclosed root), but the legacy route parses the
        # whole document first — so both routes must report the syntax
        # error.
        text = (
            "<purchaseOrder><comment>early</comment><shipTo>"  # invalid
        )  # ... and unterminated
        with pytest.raises(XmlSyntaxError) as legacy:
            legacy_parse(po_binding, text)
        with pytest.raises(XmlSyntaxError) as fused:
            fused_parse(po_binding, text)
        assert str(fused.value) == str(legacy.value)


ANY_TYPE_SCHEMA = """\
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="any" type="xsd:anyType"/>
</xsd:schema>
"""

_XSI = 'xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"'
_ANY_REFUSAL = (
    "typed ingest does not hold the child elements or attributes of <any>, "
    "an xs:anyType element"
)

#: documents both validators accept and the typed tree cannot hold ->
#: (schema, document, refusal)
REFUSED = {
    "any-type-child": (ANY_TYPE_SCHEMA, "<any><x>1</x></any>", _ANY_REFUSAL),
    "any-type-children-and-text": (
        ANY_TYPE_SCHEMA,
        '<any>a<y b="c"><z/></y></any>',
        _ANY_REFUSAL,
    ),
    "any-type-attribute": (ANY_TYPE_SCHEMA, '<any a="b"/>', _ANY_REFUSAL),
    "xsi-type-derived": (
        ADDRESS_EXTENSION_SCHEMA,
        US_ENTRY,
        "typed ingest does not unmarshal xsi:type: <entry> names type "
        "'USAddress'",
    ),
    "xsi-type-declared": (
        ADDRESS_EXTENSION_SCHEMA,
        BASE_ENTRY.replace("<entry>", f'<entry {_XSI} xsi:type="Address">'),
        "typed ingest does not unmarshal xsi:type: <entry> names type "
        "'Address'",
    ),
}

#: an ``xsi:type`` the validators reject -> (document, typed message)
XSI_TYPE_INVALID = {
    "unknown": (
        US_ENTRY.replace("USAddress", "MartianAddress"),
        "<state> is not allowed inside <entry>",
    ),
    "underived": (
        BASE_ENTRY.replace("<entry>", f'<entry {_XSI} xsi:type="AddressBook">'),
        "<entry> has no attribute 'xsi:type' (known: none)",
    ),
}


class TestRefusals:
    """What the typed tree cannot hold is refused, never misjudged."""

    @pytest.mark.parametrize("name", sorted(REFUSED))
    def test_every_route_refuses(self, name):
        schema, text, message = REFUSED[name]
        binding = bind(schema)
        for route in TYPED_ROUTES:
            with pytest.raises(UnsupportedFeatureError) as caught:
                route(binding, text)
            assert str(caught.value) == message

    @pytest.mark.parametrize("name", sorted(XSI_TYPE_INVALID))
    def test_rejected_xsi_type_stays_invalid(self, name):
        text, message = XSI_TYPE_INVALID[name]
        binding = bind(ADDRESS_EXTENSION_SCHEMA)
        for route in TYPED_ROUTES:
            with pytest.raises(VdomTypeError) as caught:
                route(binding, text)
            assert str(caught.value) == message

    def test_plain_any_type_content_is_held(self):
        binding = bind(ANY_TYPE_SCHEMA)
        for route in TYPED_ROUTES:
            assert serialize(route(binding, "<any>text</any>")) == "<any>text</any>"

    def test_syntax_error_outranks_a_refusal(self):
        binding = bind(ANY_TYPE_SCHEMA)
        for route in TYPED_ROUTES:
            with pytest.raises(XmlSyntaxError):
                route(binding, "<any><x>1</x>")


class TestDoctype:
    """A DOCTYPE is transparent to the typed walk: ``PullParser`` has
    already expanded the internal subset, so every route builds the
    tree ``legacy_parse`` builds."""

    @pytest.mark.parametrize(
        "text",
        [
            "<!DOCTYPE purchaseOrder>\n" + PURCHASE_ORDER_DOCUMENT,
            "<!DOCTYPE purchaseOrder [<!ATTLIST item partNum CDATA #IMPLIED>]>\n"
            + PURCHASE_ORDER_DOCUMENT,
            '<!DOCTYPE purchaseOrder [<!ENTITY who "Alice">]>\n'
            + PURCHASE_ORDER_DOCUMENT.replace("Alice Smith", "&who; Smith"),
        ],
        ids=["plain", "attlist", "entity"],
    )
    def test_tree_equals_legacy(self, po_binding, text):
        golden = serialize(legacy_parse(po_binding, text))
        for route in TYPED_ROUTES[1:]:
            assert serialize(route(po_binding, text)) == golden


class TestValidationToggle:
    def test_value_errors_ignored_without_validation(self):
        binding = bind(PURCHASE_ORDER_SCHEMA, validate_on_mutate=False)
        text = PURCHASE_ORDER_INVALID_DOCUMENTS["bad-quantity"]
        legacy = legacy_parse(binding, text)
        fused = fused_parse(binding, text)
        assert serialize(fused) == serialize(legacy)

    def test_structural_errors_still_caught(self):
        # Child attribution *is* the construction algorithm; it rejects
        # misplaced elements on both routes even with validation off.
        binding = bind(PURCHASE_ORDER_SCHEMA, validate_on_mutate=False)
        text = PURCHASE_ORDER_INVALID_DOCUMENTS["wrong-element-order"]
        with pytest.raises(VdomTypeError) as legacy:
            legacy_parse(binding, text)
        with pytest.raises(VdomTypeError) as fused:
            fused_parse(binding, text)
        assert str(fused.value) == str(legacy.value)


class TestPostParseMutation:
    def test_fast_append_state_is_primed(self, po_binding):
        fused = fused_parse(po_binding, PURCHASE_ORDER_DOCUMENT)
        items = fused.child_elements()[-1]
        assert items.tag_name == "items"
        assert items._content_state is not None

    def test_valid_append_accepted(self, po_binding):
        fused = fused_parse(po_binding, PURCHASE_ORDER_DOCUMENT)
        legacy = legacy_parse(po_binding, PURCHASE_ORDER_DOCUMENT)
        factory = po_binding.factory
        for tree in (fused, legacy):
            items = tree.child_elements()[-1]
            items.append_child(
                factory.create_item(
                    factory.create_product_name("Shovel"),
                    factory.create_quantity(2),
                    factory.create_us_price("19.99"),
                    part_num="123-AB",
                )
            )
        assert serialize(fused) == serialize(legacy)

    def test_invalid_append_rejected_identically(self, po_binding):
        fused = fused_parse(po_binding, PURCHASE_ORDER_DOCUMENT)
        legacy = legacy_parse(po_binding, PURCHASE_ORDER_DOCUMENT)
        factory = po_binding.factory
        errors = []
        for tree in (fused, legacy):
            items = tree.child_elements()[-1]
            with pytest.raises(VdomTypeError) as excinfo:
                items.append_child(factory.create_comment("not allowed here"))
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1]

    def test_attribute_mutation_guarded(self, po_binding):
        fused = fused_parse(po_binding, PURCHASE_ORDER_DOCUMENT)
        with pytest.raises(VdomTypeError):
            fused.set_attribute("orderDate", "not a date")
        fused.set_attribute("orderDate", "2001-02-03")
        assert fused.get_attribute("orderDate") == "2001-02-03"
