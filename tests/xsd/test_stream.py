"""Streaming validation: agreement with the DOM walk, constant state."""

import pytest

from repro.dom import parse_document
from repro.xsd import SchemaValidator, StreamingValidator, parse_schema
from repro.schemas import (
    PURCHASE_ORDER_DOCUMENT,
    PURCHASE_ORDER_INVALID_DOCUMENTS,
    PURCHASE_ORDER_SCHEMA,
    WML_DIRECTORY_DOCUMENT,
    WML_SCHEMA,
)
from repro.schemas.variants import (
    ABSTRACT_HEAD_SCHEMA,
    SUBSTITUTION_GROUP_SCHEMA,
)


@pytest.fixture(scope="module")
def stream_validator():
    return StreamingValidator(parse_schema(PURCHASE_ORDER_SCHEMA))


@pytest.fixture(scope="module")
def dom_validator():
    return SchemaValidator(parse_schema(PURCHASE_ORDER_SCHEMA))


class TestAgreementWithDomWalk:
    def test_valid_document(self, stream_validator):
        assert stream_validator.validate_text(PURCHASE_ORDER_DOCUMENT) == []
        assert stream_validator.is_valid(PURCHASE_ORDER_DOCUMENT)

    @pytest.mark.parametrize("fault", sorted(PURCHASE_ORDER_INVALID_DOCUMENTS))
    def test_every_fault_detected(self, stream_validator, fault):
        errors = stream_validator.validate_text(
            PURCHASE_ORDER_INVALID_DOCUMENTS[fault]
        )
        assert errors, f"{fault} passed the streaming validator"

    @pytest.mark.parametrize("fault", sorted(PURCHASE_ORDER_INVALID_DOCUMENTS))
    def test_verdict_agreement(self, stream_validator, dom_validator, fault):
        text = PURCHASE_ORDER_INVALID_DOCUMENTS[fault]
        stream_verdict = bool(stream_validator.validate_text(text))
        dom_verdict = bool(dom_validator.validate(parse_document(text)))
        assert stream_verdict == dom_verdict


class TestStreamingSpecifics:
    def test_wml_document(self):
        validator = StreamingValidator(parse_schema(WML_SCHEMA))
        assert validator.validate_text(WML_DIRECTORY_DOCUMENT) == []

    def test_unknown_root(self, stream_validator):
        errors = stream_validator.validate_text("<unknown/>")
        assert any("not a global element" in str(e) for e in errors)

    def test_recovery_after_unknown_subtree(self, stream_validator):
        """An unexpected child is reported once; its subtree is skipped
        and validation resumes at the right place."""
        text = PURCHASE_ORDER_DOCUMENT.replace(
            "<items>",
            "<bogus><deeply><nested>x</nested></deeply></bogus><items>",
        )
        errors = stream_validator.validate_text(text)
        assert len(errors) == 1
        assert "bogus" in str(errors[0])

    def test_errors_carry_locations(self, stream_validator):
        errors = stream_validator.validate_text(
            PURCHASE_ORDER_INVALID_DOCUMENTS["undeclared-element"]
        )
        assert any(error.location is not None for error in errors)

    def test_substitution_groups_stream(self):
        validator = StreamingValidator(parse_schema(SUBSTITUTION_GROUP_SCHEMA))
        assert validator.validate_text(
            "<notes><shipComment>x</shipComment><comment>y</comment></notes>"
        ) == []

    def test_abstract_head_stream(self):
        validator = StreamingValidator(parse_schema(ABSTRACT_HEAD_SCHEMA))
        assert validator.validate_text(
            "<notes><comment>x</comment></notes>"
        )
        assert validator.validate_text(
            "<notes><customerComment>x</customerComment></notes>"
        ) == []

    def test_fixed_element_value_stream(self):
        schema = parse_schema(
            '<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">'
            '<xsd:element name="version" type="xsd:string" fixed="1.0"/>'
            "</xsd:schema>"
        )
        validator = StreamingValidator(schema)
        assert validator.validate_text("<version>1.0</version>") == []
        assert validator.validate_text("<version>2.0</version>")

    def test_text_split_across_events(self, stream_validator):
        """Entities split character data into several events; the
        accumulated text must still be validated as one literal."""
        text = PURCHASE_ORDER_DOCUMENT.replace(
            "<zip>90952</zip>", "<zip>909&#53;2</zip>", 1
        )
        assert stream_validator.validate_text(text) == []


#: content errors found at an end tag: a model that ends too early, a
#: facet, a fixed value
END_TAG_SCHEMA = """
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="r">
    <xsd:complexType>
      <xsd:sequence>
        <xsd:element name="a">
          <xsd:complexType>
            <xsd:sequence><xsd:element name="c" type="xsd:string"/></xsd:sequence>
          </xsd:complexType>
        </xsd:element>
        <xsd:element name="b" type="xsd:positiveInteger"/>
        <xsd:element name="f" type="xsd:string" fixed="x"/>
      </xsd:sequence>
    </xsd:complexType>
  </xsd:element>
</xsd:schema>
"""

END_TAG_DOCUMENT = "<r>\n  <a/>\n  <b>0</b>\n  <f>y</f>\n</r>\n"


class TestEndTagErrorsArePositioned:
    @pytest.mark.parametrize("use_tables", [True, False])
    def test_errors_point_at_the_end_tag(self, use_tables):
        """``<a/>`` is located at its own ``<``, ``</b>`` and ``</f>`` at
        theirs — on the turbo scanner and on the event feeder alike."""
        validator = StreamingValidator(
            parse_schema(END_TAG_SCHEMA), use_tables=use_tables
        )
        assert [str(error) for error in validator.validate_text(END_TAG_DOCUMENT)] == [
            "2:3: content of <a> ends too early; expected <c> (at /r/a)",
            "3:7: content of <b>: '0' is below minInclusive 1 (at /r/b)",
            "4:7: element 'f' must have the fixed value 'x' (at /r/f)",
        ]
