"""The bind-time class tables every typed builder reads.

``bind`` gives each generated class its attribute-spelling map
(``_ATTRIBUTE_KEYS``), its fixed and default values in field order
(``_ATTRIBUTE_DEFAULTS``) and its abstract refusal (``_ABSTRACT``).  The
typed constructor, typed ingest and the P-XML segment builder read the
same tables, so each decision comes out the same from every builder:
the same refusal, the same attributes in the same order, and the same
"has no attribute" message.
"""

import pytest

from repro.core import bind
from repro.dom import parse_document
from repro.dom.serialize import serialize
from repro.errors import VdomTypeError
from repro.ingest import fused_parse, legacy_parse, parse_typed
from repro.pxml import Template
from repro.schemas import PURCHASE_ORDER_DOCUMENT, PURCHASE_ORDER_SCHEMA
from repro.schemas.variants import ABSTRACT_HEAD_SCHEMA
from repro.xsd import SchemaValidator, StreamingValidator

ABSTRACT_TYPE_SCHEMA = """\
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="shape" type="Shape"/>
  <xsd:element name="shapes">
    <xsd:complexType>
      <xsd:sequence>
        <xsd:element name="item" type="Shape" maxOccurs="unbounded"/>
      </xsd:sequence>
    </xsd:complexType>
  </xsd:element>
  <xsd:complexType name="Shape" abstract="true">
    <xsd:attribute name="id" type="xsd:string"/>
  </xsd:complexType>
</xsd:schema>
"""

LABEL_SCHEMA = """\
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="label">
    <xsd:complexType>
      <xsd:simpleContent>
        <xsd:extension base="xsd:string">
          <xsd:attribute name="lineStyle" type="xsd:string" default="solid"/>
          <xsd:attribute name="width" type="xsd:integer"/>
          <xsd:attribute name="unit" type="xsd:NMTOKEN" fixed="mm"/>
        </xsd:extension>
      </xsd:simpleContent>
    </xsd:complexType>
  </xsd:element>
</xsd:schema>
"""

#: two local declarations of one name and type that differ in their
#: fixed value
SHARED_NAME_SCHEMA = """\
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="r">
    <xsd:complexType>
      <xsd:sequence>
        <xsd:element name="p">
          <xsd:complexType><xsd:sequence>
            <xsd:element name="v" type="xsd:string" fixed="a"/>
          </xsd:sequence></xsd:complexType>
        </xsd:element>
        <xsd:element name="q">
          <xsd:complexType><xsd:sequence>
            <xsd:element name="v" type="xsd:string"/>
          </xsd:sequence></xsd:complexType>
        </xsd:element>
      </xsd:sequence>
    </xsd:complexType>
  </xsd:element>
</xsd:schema>
"""

#: the same pair under one owner (legal: XSD's Element Declarations
#: Consistent asks only for one type)
ONE_OWNER_SCHEMA = """\
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="r">
    <xsd:complexType>
      <xsd:sequence>
        <xsd:element name="v" type="xsd:string" fixed="a"/>
        <xsd:element name="v" type="xsd:string"/>
      </xsd:sequence>
    </xsd:complexType>
  </xsd:element>
</xsd:schema>
"""

#: every typed ingest route, the object-DFA reference included
INGEST_ROUTES = {
    "legacy_parse": legacy_parse,
    "fused_parse": fused_parse,
    "fused_parse-reference": lambda binding, text: fused_parse(
        binding, text, use_tables=False
    ),
    "parse_typed": parse_typed,
}

#: case -> (schema, factory method, its arguments, document, refusal)
ABSTRACT = {
    "abstract-head-root": (
        ABSTRACT_HEAD_SCHEMA,
        "create_comment",
        (("b",), {}),
        "<comment>b</comment>",
        "element 'comment' is abstract; construct a member of its "
        "substitution group instead",
    ),
    "abstract-type-root": (
        ABSTRACT_TYPE_SCHEMA,
        "create_shape",
        ((), {"id": "s"}),
        '<shape id="s"/>',
        "type 'Shape' of element 'shape' is abstract",
    ),
    "abstract-type-leaf": (
        ABSTRACT_TYPE_SCHEMA,
        "create_item",
        ((), {}),
        "<shapes><item/></shapes>",
        "type 'Shape' of element 'item' is abstract",
    ),
}


@pytest.mark.parametrize("case", sorted(ABSTRACT))
def test_abstract_refusal_is_the_same_from_every_builder(case):
    schema, method, (children, attributes), text, refusal = ABSTRACT[case]
    binding = bind(schema)
    with pytest.raises(VdomTypeError) as caught:
        getattr(binding.factory, method)(*children, **attributes)
    assert str(caught.value) == refusal
    for name, route in INGEST_ROUTES.items():
        with pytest.raises(VdomTypeError) as caught:
            route(binding, text)
        assert str(caught.value) == refusal, name


class TestAttributeOrder:
    """Fixed and default values come first, in field order; an explicit
    value replaces a default where it stands."""

    EXPECTED = '<label lineStyle="dashed" unit="mm" width="3">x</label>'

    @pytest.fixture(scope="class")
    def binding(self):
        return bind(LABEL_SCHEMA)

    def test_constructor_in_either_spelling(self, binding):
        create = binding.factory.create_label
        assert serialize(create("x", width=3, line_style="dashed")) == self.EXPECTED
        assert serialize(create("x", width="3", lineStyle="dashed")) == self.EXPECTED

    @pytest.mark.parametrize("route", sorted(INGEST_ROUTES))
    def test_typed_ingest(self, binding, route):
        text = '<label width="3" lineStyle="dashed">x</label>'
        assert serialize(INGEST_ROUTES[route](binding, text)) == self.EXPECTED

    def test_template(self, binding):
        template = Template(binding, '<label width="$w$" lineStyle="dashed">x</label>')
        assert template.render_text(w=3) == self.EXPECTED
        assert serialize(template.render(w=3)) == self.EXPECTED

    def test_defaults_alone(self, binding):
        expected = '<label lineStyle="solid" unit="mm">x</label>'
        assert serialize(binding.factory.create_label("x")) == expected
        assert serialize(parse_typed(binding, "<label>x</label>")) == expected
        assert Template(binding, "<label>x</label>").render_text() == expected


class TestPurchaseOrderAttributes:
    @pytest.fixture(scope="class")
    def binding(self):
        return bind(PURCHASE_ORDER_SCHEMA)

    @pytest.mark.parametrize("spelling", ["order_date", "orderDate"])
    def test_root_attribute_in_either_spelling(self, binding, spelling):
        ingested = parse_typed(binding, PURCHASE_ORDER_DOCUMENT)
        built = binding.factory.create_purchase_order(
            *(child.clone_node(True) for child in ingested.child_elements()),
            **{spelling: "1999-10-20"},
        )
        assert serialize(built) == serialize(ingested)

    def test_fixed_country_from_every_builder(self, binding):
        address = (
            "<name>Alice Smith</name><street>123 Maple Street</street>"
            "<city>Mill Valley</city><state>CA</state><zip>90952</zip>"
        )
        expected = f'<shipTo country="US">{address}</shipTo>'
        factory = binding.factory
        children = [
            factory.create_name("Alice Smith"),
            factory.create_street("123 Maple Street"),
            factory.create_city("Mill Valley"),
            factory.create_state("CA"),
            factory.create_zip(90952),
        ]
        assert serialize(factory.create_ship_to(*children)) == expected
        for explicit in (f"<shipTo>{address}</shipTo>", expected):
            template = Template(binding, explicit)
            assert template.render_text() == expected
            assert serialize(template.render()) == expected
        ingested = parse_typed(binding, PURCHASE_ORDER_DOCUMENT)
        ship_to = ingested.child_elements()[0]
        assert serialize(ship_to) == expected


@pytest.mark.parametrize("spelling", ["colour", "line-style"])
def test_undeclared_attribute_message_is_the_same(spelling):
    binding = bind(LABEL_SCHEMA)
    message = (
        f"<label> has no attribute '{spelling}' (known: line_style, unit, width)"
    )
    with pytest.raises(VdomTypeError) as caught:
        binding.factory.create_label("x", **{spelling: "red"})
    assert str(caught.value) == message
    for name, route in INGEST_ROUTES.items():
        with pytest.raises(VdomTypeError) as caught:
            route(binding, f'<label {spelling}="red">x</label>')
        assert str(caught.value) == message, name


def test_local_declarations_keep_their_own_fixed_value():
    """A class is shared only by declarations that agree on name, type
    and fixed value, so the constructor and typed ingest hold each
    element to its own declaration's fixed value, as the validators do."""
    binding = bind(SHARED_NAME_SCHEMA)
    valid = "<r><p><v>a</v></p><q><v>b</v></q></r>"
    invalid = "<r><p><v>b</v></p><q><v>a</v></q></r>"
    validator = StreamingValidator(binding.schema)
    assert validator.validate_text(valid) == []
    assert len(validator.validate_text(invalid)) == 1
    for name, route in INGEST_ROUTES.items():
        assert serialize(route(binding, valid)) == valid, name
        with pytest.raises(VdomTypeError) as caught:
            route(binding, invalid)
        assert str(caught.value) == "element 'v' must have the fixed value 'a'", name


def test_one_owner_keeps_each_declarations_fixed_value():
    """Two declarations of one name and type under one owner that differ
    in their fixed value get a class each, both registered, so every
    typed builder accepts and refuses what the validators do."""
    binding = bind(ONE_OWNER_SCHEMA)
    factory = binding.factory
    valid = ["<r><v>a</v><v>b</v></r>", "<r><v>a</v><v>a</v></r>"]
    invalid = "<r><v>b</v><v>a</v></r>"
    refusal = "element 'v' must have the fixed value 'a'"
    streaming = StreamingValidator(binding.schema)
    dom = SchemaValidator(binding.schema)
    for document in valid:
        assert streaming.validate_text(document) == [], document
        assert dom.validate(parse_document(document)) == [], document
        for name, route in INGEST_ROUTES.items():
            assert serialize(route(binding, document)) == document, name
    assert len(streaming.validate_text(invalid)) == 1
    assert len(dom.validate(parse_document(invalid))) == 1
    for name, route in INGEST_ROUTES.items():
        with pytest.raises(VdomTypeError) as caught:
            route(binding, invalid)
        assert str(caught.value) == refusal, name
    second = factory.create_r_type_type_v
    for document, last in zip(valid, ("b", "a")):
        built = factory.create_r(factory.create_v("a"), second(last))
        assert serialize(built) == document
    with pytest.raises(VdomTypeError) as caught:
        factory.create_r(factory.create_v("b"), second("a"))
    assert str(caught.value) == refusal
    with pytest.raises(VdomTypeError) as caught:
        factory.create_r(second("b"), factory.create_v("a"))
    assert str(caught.value) == (
        "child <v> of <r> was built for a different declaration of that name"
    )


def test_one_owner_third_declaration_gets_its_own_factory_method():
    """A third such declaration under the owner takes a numbered factory
    method instead of replacing the second one's."""
    binding = bind(
        ONE_OWNER_SCHEMA.replace(
            '<xsd:element name="v" type="xsd:string"/>',
            '<xsd:element name="v" type="xsd:string"/>'
            '<xsd:element name="v" type="xsd:string" fixed="c"/>',
        )
    )
    factory = binding.factory
    document = "<r><v>a</v><v>b</v><v>c</v></r>"
    built = factory.create_r(
        factory.create_v("a"),
        factory.create_r_type_type_v("b"),
        factory.create_r_type_type_v2("c"),
    )
    assert serialize(built) == document
    for name, route in INGEST_ROUTES.items():
        assert serialize(route(binding, document)) == document, name
        with pytest.raises(VdomTypeError) as caught:
            route(binding, "<r><v>a</v><v>b</v><v>b</v></r>")
        assert str(caught.value) == "element 'v' must have the fixed value 'c'"
