"""An empty ``fixed`` or ``default`` value is a value constraint.

``fixed=""`` requires the empty string, and ``default=""`` supplies it.
The schema parser reads a constraint by the attribute's presence, so an
empty one is kept, and every verdict producer holds a document to it:
both validators, both routes of the streaming validator, and every
typed ingest route.
"""

import pytest

from repro.core import bind
from repro.dom import parse_document
from repro.dom.serialize import serialize
from repro.errors import SchemaError, VdomTypeError
from repro.ingest import fused_parse, legacy_parse, parse_typed
from repro.xsd import SchemaValidator, StreamingValidator, parse_schema

SCHEMA = """\
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="r">
    <xsd:complexType>
      <xsd:sequence>
        <xsd:element name="f" type="xsd:string" fixed=""/>
        <xsd:element name="s" minOccurs="0" fixed="">
          <xsd:complexType>
            <xsd:simpleContent>
              <xsd:extension base="xsd:string">
                <xsd:attribute name="u" type="xsd:string"/>
              </xsd:extension>
            </xsd:simpleContent>
          </xsd:complexType>
        </xsd:element>
        <xsd:element name="m" minOccurs="0" fixed="">
          <xsd:complexType mixed="true"/>
        </xsd:element>
      </xsd:sequence>
      <xsd:attribute name="a" type="xsd:string" fixed=""/>
    </xsd:complexType>
  </xsd:element>
</xsd:schema>
"""

VALID = "<r><f/></r>"

#: document -> (message of the validators, message of typed ingest)
BROKEN = {
    "<r><f>x</f></r>": (
        "element 'f' must have the fixed value ''",
        "element 'f' must have the fixed value ''",
    ),
    '<r a="y"><f/></r>': (
        "attribute 'a' must have the fixed value '', found 'y'",
        "attribute 'a' of <r> must have the fixed value ''",
    ),
    "<r><f/><s>x</s></r>": (
        "element 's' must have the fixed value ''",
        "element 's' must have the fixed value ''",
    ),
    '<r><f/><s u="1">x</s></r>': (
        "element 's' must have the fixed value ''",
        "element 's' must have the fixed value ''",
    ),
    "<r><f/><m>x</m></r>": (
        "element 'm' must have the fixed value ''",
        "element 'm' must have the fixed value ''",
    ),
}

VALIDATORS = {
    "dom": lambda schema, text: SchemaValidator(schema).validate(
        parse_document(text)
    ),
    "stream-turbo": lambda schema, text: StreamingValidator(schema).validate_text(
        text
    ),
    "stream-reference": lambda schema, text: StreamingValidator(
        schema, use_tables=False
    ).validate_text(text),
}

TYPED_ROUTES = {
    "legacy_parse": legacy_parse,
    "fused_parse": fused_parse,
    "fused_parse-reference": lambda binding, text: fused_parse(
        binding, text, use_tables=False
    ),
    "parse_typed": parse_typed,
}


@pytest.fixture(scope="module")
def schema():
    return parse_schema(SCHEMA)


@pytest.fixture(scope="module")
def binding():
    return bind(SCHEMA)


@pytest.mark.parametrize("route", sorted(VALIDATORS))
@pytest.mark.parametrize("text", sorted(BROKEN))
def test_validators_refuse(schema, route, text):
    errors = VALIDATORS[route](schema, text)
    assert len(errors) == 1
    assert errors[0].message.startswith(BROKEN[text][0])


@pytest.mark.parametrize("route", sorted(VALIDATORS))
def test_validators_accept_the_empty_value(schema, route):
    assert VALIDATORS[route](schema, VALID) == []
    assert VALIDATORS[route](schema, '<r><f/><s u="1"/><m/></r>') == []


@pytest.mark.parametrize("route", sorted(TYPED_ROUTES))
@pytest.mark.parametrize("text", sorted(BROKEN))
def test_typed_routes_refuse(binding, route, text):
    with pytest.raises(VdomTypeError) as caught:
        TYPED_ROUTES[route](binding, text)
    assert str(caught.value) == BROKEN[text][1]


@pytest.mark.parametrize("route", sorted(TYPED_ROUTES))
def test_typed_routes_fill_the_empty_fixed_attribute(binding, route):
    assert serialize(TYPED_ROUTES[route](binding, VALID)) == '<r a=""><f/></r>'
    text = '<r><f/><s u="1"/><m/></r>'
    assert serialize(TYPED_ROUTES[route](binding, text)) == '<r a="">' + text[3:]


def _attribute_schema(attributes: str, uses: str) -> str:
    return f"""\
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  {attributes}
  <xsd:element name="r">
    <xsd:complexType>{uses}</xsd:complexType>
  </xsd:element>
</xsd:schema>
"""


def _use(schema_text: str):
    schema = parse_schema(schema_text)
    (use,) = schema.elements["r"].resolved_type().effective_attribute_uses().values()
    return use


class TestParsedConstraints:
    def test_empty_default_is_kept(self):
        use = _use(
            _attribute_schema("", '<xsd:attribute name="a" default=""/>')
        )
        assert (use.default, use.fixed) == ("", None)

    def test_global_empty_fixed_is_kept(self):
        use = _use(
            _attribute_schema(
                '<xsd:attribute name="a" fixed=""/>',
                '<xsd:attribute ref="a"/>',
            )
        )
        assert (use.default, use.fixed) == (None, "")

    def test_reference_replaces_the_declarations_pair(self):
        use = _use(
            _attribute_schema(
                '<xsd:attribute name="a" default="d"/>',
                '<xsd:attribute ref="a" fixed=""/>',
            )
        )
        assert (use.default, use.fixed) == (None, "")

    def test_reference_may_not_loosen_a_fixed_value(self):
        with pytest.raises(SchemaError, match="must keep its declaration's fixed"):
            parse_schema(
                _attribute_schema(
                    '<xsd:attribute name="a" fixed="x"/>',
                    '<xsd:attribute ref="a" default=""/>',
                )
            )

    @pytest.mark.parametrize(
        "use",
        [
            '<xsd:attribute name="a" default="" fixed=""/>',
            '<xsd:attribute name="a" use="required" default=""/>',
            '<xsd:attribute name="a" type="xsd:int" fixed=""/>',
            '<xsd:attribute name="a" type="xsd:int" default=""/>',
        ],
    )
    def test_conflicting_or_ill_typed_empty_values_are_refused(self, use):
        with pytest.raises(SchemaError):
            parse_schema(_attribute_schema("", use))

    def test_global_ill_typed_empty_fixed_is_refused(self):
        with pytest.raises(SchemaError):
            parse_schema(
                _attribute_schema(
                    '<xsd:attribute name="a" type="xsd:int" fixed=""/>', ""
                )
            )
