"""Known answers for digits and white space, through every producer.

Lane-against-lane parity cannot see a deviation every lane shares, so
each case here carries its answer from XML Schema Part 2 and XML 1.0:

* ``totalDigits`` counts every digit of the value: ``100`` has three
  (§4.3.11), so ``totalDigits="2"`` refuses ``100``, ``120``, ``1000``
  and ``100.0``;
* the numeric and date/time lexical spaces spell digits ``[0-9]``, so
  ``'٣'`` is no integer and ``'٢٠٢٠-01-01'`` no date;
* XML white space is ``#x20 | #x9 | #xD | #xA`` (production [3]): NBSP
  and U+3000 are text, so ``a\\xa0b`` is no ``a b`` after collapsing and
  ``<root>\\xa0</root>`` has text in element-only content.

Producers: ``SimpleType.parse``, ``StreamingValidator`` on its turbo
and its event route, the DOM ``SchemaValidator``, ``parse_typed``,
``fused_parse`` and ``legacy_parse``; for content, also V-DOM
construction, the P-XML checker and the DTD validator.
"""

import pytest

from repro.core import bind
from repro.dom import parse_document
from repro.dtd import DtdValidator, parse_dtd
from repro.errors import PxmlStaticError, ReproError
from repro.ingest import fused_parse, legacy_parse, parse_typed
from repro.pxml import Template
from repro.xsd import SchemaValidator, StreamingValidator, parse_schema

SCHEMA = """\
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:simpleType name="V">{restriction}</xsd:simpleType>
  <xsd:element name="root">
    <xsd:complexType>
      <xsd:sequence>
        <xsd:element name="v" type="V" minOccurs="0" maxOccurs="unbounded"/>
      </xsd:sequence>
    </xsd:complexType>
  </xsd:element>
</xsd:schema>
"""

TOTAL2_INTEGER = (
    '<xsd:restriction base="xsd:integer"><xsd:totalDigits value="2"/>'
    "</xsd:restriction>"
)
TOTAL2_DECIMAL = (
    '<xsd:restriction base="xsd:decimal"><xsd:totalDigits value="2"/>'
    "</xsd:restriction>"
)
INTEGER = '<xsd:restriction base="xsd:integer"/>'
POSITIVE = '<xsd:restriction base="xsd:positiveInteger"/>'
DATE = '<xsd:restriction base="xsd:date"/>'
TOKEN_A_B = (
    '<xsd:restriction base="xsd:token"><xsd:enumeration value="a b"/>'
    "</xsd:restriction>"
)
NMTOKENS = '<xsd:restriction base="xsd:NMTOKENS"/>'

#: (restriction, literal, valid?)
CASES = [
    (TOTAL2_INTEGER, "99", True),
    (TOTAL2_INTEGER, "-99", True),
    (TOTAL2_INTEGER, " 010 ", True),
    (TOTAL2_INTEGER, "100", False),
    (TOTAL2_INTEGER, "120", False),
    (TOTAL2_INTEGER, "1000", False),
    (TOTAL2_DECIMAL, "9.9", True),
    (TOTAL2_DECIMAL, "1.00", True),
    (TOTAL2_DECIMAL, "100.0", False),
    (TOTAL2_DECIMAL, "100", False),
    (INTEGER, "3", True),
    (INTEGER, "٣", False),
    (POSITIVE, "5", True),
    (POSITIVE, "５", False),
    (DATE, "2020-01-01", True),
    (DATE, "٢٠٢٠-01-01", False),
    (TOKEN_A_B, "a b", True),
    (TOKEN_A_B, "\ta \n b ", True),
    (TOKEN_A_B, "a\xa0b", False),
    (TOKEN_A_B, "a\u3000b", False),
    (NMTOKENS, "a b", True),
    (NMTOKENS, "a\xa0b", False),
]


def _ids(case):
    restriction, literal, valid = case
    base = restriction.split('"')[1]
    return f"{base}-{literal!r}-{'valid' if valid else 'invalid'}"


def schema_verdicts(schema_text, document):
    """``{producer: valid?}`` for one document against one schema."""
    schema = parse_schema(schema_text)
    binding = bind(schema_text)
    verdicts = {
        "stream-turbo": not StreamingValidator(schema).validate_text(document),
        "stream-events": not StreamingValidator(
            schema, use_tables=False
        ).validate_text(document),
        "dom": not SchemaValidator(schema).validate(parse_document(document)),
    }
    for name, parse in (
        ("parse_typed", parse_typed),
        ("fused_parse", fused_parse),
        ("legacy_parse", legacy_parse),
    ):
        try:
            parse(binding, document)
        except ReproError:
            verdicts[name] = False
        else:
            verdicts[name] = True
    return verdicts


class TestLiterals:
    @pytest.mark.parametrize("case", CASES, ids=[_ids(case) for case in CASES])
    def test_every_producer_gives_the_known_answer(self, case):
        restriction, literal, valid = case
        schema_text = SCHEMA.format(restriction=restriction)
        simple_type = parse_schema(schema_text).type_definition("V")
        assert simple_type.is_valid(literal) is valid
        document = f"<root><v>{literal}</v></root>"
        verdicts = schema_verdicts(schema_text, document)
        assert verdicts == dict.fromkeys(verdicts, valid)

    @pytest.mark.parametrize(
        "literal, valid", [("99", True), ("100", False), ("٣", False)]
    )
    def test_template_holes_give_the_known_answer(self, literal, valid):
        binding = bind(SCHEMA.format(restriction=TOTAL2_INTEGER))
        template = Template(binding, "<root><v>$x$</v></root>")
        for render in (template.render, template.render_text):
            if valid:
                render(x=literal)
            else:
                with pytest.raises(ReproError):
                    render(x=literal)


ELEMENT_ONLY = SCHEMA.format(restriction=INTEGER)
DTD = "<!ELEMENT root (v*)>\n<!ELEMENT v (#PCDATA)>\n<!ATTLIST v k NMTOKENS #IMPLIED>"


class TestWhiteSpaceInContent:
    @pytest.mark.parametrize(
        "content, valid",
        [
            (" \n\t\r ", True),
            ("", True),
            ("\xa0", False),
            ("\u3000", False),
            (" \u2028 ", False),
            ("\x85", False),
        ],
    )
    def test_element_only_content(self, content, valid):
        document = f"<root>{content}<v>1</v>{content}</root>"
        verdicts = schema_verdicts(ELEMENT_ONLY, document)
        assert verdicts == dict.fromkeys(verdicts, valid)
        dtd_errors = DtdValidator(parse_dtd(DTD, root_name="root")).validate(
            parse_document(document)
        )
        assert (not dtd_errors) is valid

    @pytest.mark.parametrize(
        "content, valid", [(" \n\t ", True), ("\xa0", False), ("\u3000", False)]
    )
    def test_vdom_and_template_content(self, content, valid):
        binding = bind(ELEMENT_ONLY)
        one = binding.factory.create_v("1")
        source = f"<root>{content}<v>1</v></root>"
        if valid:
            assert binding.factory.create_root(content, one) is not None
            template = Template(binding, source)
            assert template.render_text() == "<root><v>1</v></root>"
            return
        with pytest.raises(ReproError):
            binding.factory.create_root(content, one)
        with pytest.raises(PxmlStaticError):
            Template(binding, source)

    @pytest.mark.parametrize(
        "tokens, valid", [("a b", True), ("a\tb", True), ("a\xa0b", False)]
    )
    def test_dtd_token_lists(self, tokens, valid):
        document = parse_document(f'<root><v k="{tokens}">1</v></root>')
        errors = DtdValidator(parse_dtd(DTD, root_name="root")).validate(document)
        assert (not errors) is valid
