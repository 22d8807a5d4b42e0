"""Memos that outlive a document give every document a fresh answer.

A table-route ``StreamingValidator`` keeps the turbo scanner's tag
bodies, its interned namespace scopes with their resolved names and the
attribute sets that checked clean from one document to the next, and
every simple type remembers the literals it accepted; typed ingest keeps
a tag memo per binding.  None of it may change an answer: a long-lived
validator (or binding) gives each document of any sequence exactly what
a fresh one gives.  Every memo stays within its entry cap and never
stores an over-long key, and the reference routes, the DOM oracle and
the P-XML hole checker never reach the memoized ``SimpleType.check``.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import bind
from repro.dom import parse_document
from repro.dom.serialize import serialize
from repro.errors import ReproError
from repro.ingest import fused_parse, legacy_parse, parse_typed, table_parse
from repro.pxml import Template
from repro.schemas import (
    PURCHASE_ORDER_DOCUMENT,
    PURCHASE_ORDER_INVALID_DOCUMENTS,
    PURCHASE_ORDER_SCHEMA,
)
from repro.xml.turbo import TAG_BODY_LIMIT, TAG_MEMO_ENTRIES
from repro.xsd import SchemaValidator, StreamingValidator, parse_schema
from repro.xsd.simple import SimpleType
from repro.xsd.stream import (
    CLEAN_MEMO_ENTRIES,
    MEMO_KEY_LENGTH,
    NAME_MEMO_ENTRIES,
    SCOPE_MEMO_ENTRIES,
)
from tests.xsd.test_stream_turbo import (
    HAZARDS,
    MUTATIONS,
    REBINDINGS,
    SCHEMAS,
    _gauntlet_instances,
    documents,
    outcome,
    purchase_orders,
)

ANY_SCHEMA = parse_schema(
    '<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">'
    '<xsd:element name="any" type="xsd:anyType"/></xsd:schema>'
)


def _fresh(family, text):
    return outcome(StreamingValidator(SCHEMAS[family]), text)


# -- one validator, many documents -------------------------------------------------


class TestLongLivedValidator:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(documents(), min_size=1, max_size=8))
    def test_each_document_gets_a_fresh_validators_errors(self, sequence):
        validators = {family: StreamingValidator(SCHEMAS[family]) for family in SCHEMAS}
        for family, text in sequence:
            assert outcome(validators[family], text) == _fresh(family, text), text

    @pytest.mark.parametrize("order", ["in order", "shuffled"])
    def test_fixed_corpora_through_one_validator(self, order):
        cases = [param.values for param in _gauntlet_instances()]
        cases += [("po", PURCHASE_ORDER_DOCUMENT)]
        cases += [("po", text) for text in PURCHASE_ORDER_INVALID_DOCUMENTS.values()]
        cases = cases * 2
        if order == "shuffled":
            random.Random(7).shuffle(cases)
        validators = {family: StreamingValidator(SCHEMAS[family]) for family in SCHEMAS}
        for family, text in cases:
            assert outcome(validators[family], text) == _fresh(family, text), text


_SECREPORT = (
    '<r:report xmlns:r="http://example.org/secreport" '
    'xmlns:c="http://example.org/common" generated="nightly">'
    '<r:finding id="f0" c:severity="low"><c:note>n</c:note></r:finding>'
    "</r:report>"
)
_REBOUND = _SECREPORT.replace(
    'xmlns:c="http://example.org/common"', 'xmlns:c="http://example.org/other"'
)


def test_a_scope_is_its_parents_bindings_plus_its_own():
    """The same attributes, and the same ``xmlns`` declarations, under a
    root that binds ``c`` elsewhere resolve against that root: a memo
    keyed without the enclosing scope would answer from the first."""
    declared = '<r:finding xmlns:x="urn:x" '
    sequence = [
        _SECREPORT,
        _REBOUND,
        _SECREPORT.replace("<r:finding ", declared),
        _REBOUND.replace("<r:finding ", declared),
        _SECREPORT,
        _REBOUND.replace("<r:finding ", declared),
    ]
    validator = StreamingValidator(SCHEMAS["secreport"])
    for text in sequence:
        assert outcome(validator, text) == _fresh("secreport", text), text
    assert _fresh("secreport", _SECREPORT) == ("errors", [])
    assert _fresh("secreport", _REBOUND) != ("errors", [])


def _typed(binding, text):
    try:
        return ("ok", serialize(parse_typed(binding, text)))
    except ReproError as error:
        return (
            type(error).__name__,
            getattr(error, "message", str(error)),
            getattr(error, "location", None),
        )


@st.composite
def typed_documents(draw):
    text = draw(purchase_orders())
    for name in draw(st.lists(st.sampled_from(sorted(MUTATIONS["po"])), max_size=2)):
        text = MUTATIONS["po"][name](text)
    rebinding = draw(st.none() | st.sampled_from(sorted(REBINDINGS["po"])))
    if rebinding is not None:
        text = REBINDINGS["po"][rebinding](text)
    hazard = draw(st.none() | st.sampled_from(sorted(HAZARDS)))
    if hazard is not None:
        text = HAZARDS[hazard](text, draw(st.integers(0, 40)))
    return text


class TestLongLivedBinding:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(typed_documents(), min_size=1, max_size=6))
    def test_each_document_gets_a_fresh_bindings_answer(self, sequence):
        binding = bind(PURCHASE_ORDER_SCHEMA)
        for text in sequence:
            assert _typed(binding, text) == _typed(bind(PURCHASE_ORDER_SCHEMA), text)


# -- every memo is bounded ---------------------------------------------------------

COUNT = 10_000


class TestBounds:
    def test_tag_memo(self):
        validator = StreamingValidator(ANY_SCHEMA)
        body = "".join(f"<n{index}/>" for index in range(COUNT))
        assert validator.validate_text(f"<any>{body}</any>") == []
        assert len(validator._tags) <= TAG_MEMO_ENTRIES
        fresh = StreamingValidator(ANY_SCHEMA)
        long = "n" * TAG_BODY_LIMIT
        assert fresh.validate_text(f"<any><{long}/></any>") == []
        assert f"{long}/" not in fresh._tags
        assert "any" in fresh._tags

    def test_binding_tag_memo(self):
        binding = bind(PURCHASE_ORDER_SCHEMA)
        items = "".join(
            f'<item partNum="{index:03d}-AA"><productName>p</productName>'
            "<quantity>1</quantity><USPrice>1.00</USPrice></item>"
            for index in range(1000)
        )
        for start in range(0, COUNT // 1000):
            text = PURCHASE_ORDER_DOCUMENT.replace("<items>", f"<items>{items}", 1)
            table_parse(binding, text.replace("-AA", f"-A{chr(65 + start)}"))
        assert len(binding._ingest_tags) <= TAG_MEMO_ENTRIES

    def test_element_and_attribute_name_memos(self):
        validator = StreamingValidator(ANY_SCHEMA)
        body = "".join(f'<n{index} a{index}="v"/>' for index in range(COUNT))
        assert validator.validate_text(f"<any>{body}</any>") == []
        root = validator._root
        assert len(root.elements) <= NAME_MEMO_ENTRIES
        assert len(root.attributes) <= NAME_MEMO_ENTRIES
        fresh = StreamingValidator(ANY_SCHEMA)
        long = "n" * (MEMO_KEY_LENGTH + 1)
        assert fresh.validate_text(f"<any><{long}/></any>") == []
        assert long not in fresh._root.elements

    def test_scope_memo(self):
        validator = StreamingValidator(SCHEMAS["scanner"])
        for index in range(COUNT):
            validator.validate_text(f'<a xmlns:p="urn:{index}"/>')
        assert len(validator._scopes) <= SCOPE_MEMO_ENTRIES
        fresh = StreamingValidator(SCHEMAS["scanner"])
        uri = "urn:" + "x" * MEMO_KEY_LENGTH
        assert fresh.validate_text(f'<a xmlns:p="{uri}"/>') == []
        assert fresh._scopes == {}

    def test_clean_attribute_memo(self):
        validator = StreamingValidator(SCHEMAS["scanner"])
        for index in range(COUNT):
            assert validator.validate_text(f'<a x="v{index}"/>') == []
        assert len(validator._clean) <= CLEAN_MEMO_ENTRIES
        fresh = StreamingValidator(SCHEMAS["scanner"])
        assert fresh.validate_text(f'<a y="{"v" * MEMO_KEY_LENGTH}"/>') == []
        assert fresh._clean == set()
        assert fresh.validate_text('<a y="short"/>') == []
        assert len(fresh._clean) == 1

    def test_the_reference_route_keeps_nothing(self):
        validator = StreamingValidator(SCHEMAS["scanner"], use_tables=False)
        assert validator.validate_text('<a xmlns:p="urn:p" x="v"/>') == []
        assert validator._tags == {}
        assert validator._scopes is None and validator._clean is None


# -- who calls the memoized check ------------------------------------------------------


@pytest.fixture()
def check_calls(monkeypatch):
    """Every literal passed to ``SimpleType.check`` while the test runs."""
    calls = []
    original = SimpleType.check

    def spy(self, raw):
        calls.append(raw)
        return original(self, raw)

    monkeypatch.setattr(SimpleType, "check", spy)
    return calls


#: a schema whose own types start with empty memos
FRESH_TYPES_SCHEMA = """
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="r">
    <xsd:complexType>
      <xsd:sequence>
        <xsd:element name="q" type="Small" maxOccurs="unbounded"/>
      </xsd:sequence>
      <xsd:attribute name="code" type="Code"/>
    </xsd:complexType>
  </xsd:element>
  <xsd:simpleType name="Small">
    <xsd:restriction base="xsd:positiveInteger">
      <xsd:maxExclusive value="100"/>
    </xsd:restriction>
  </xsd:simpleType>
  <xsd:simpleType name="Code">
    <xsd:restriction base="xsd:token">
      <xsd:pattern value="[A-Z]{2}"/>
    </xsd:restriction>
  </xsd:simpleType>
</xsd:schema>
"""
FRESH_TYPES_DOCUMENT = '<r code="AB"><q>5</q><q>5</q><q>7</q></r>'


class TestWhoCallsCheck:
    def test_reference_routes_and_the_hole_checker_never_do(self, check_calls):
        schema = parse_schema(FRESH_TYPES_SCHEMA)
        binding = bind(FRESH_TYPES_SCHEMA)
        po_binding = bind(PURCHASE_ORDER_SCHEMA)
        documents = [FRESH_TYPES_DOCUMENT, FRESH_TYPES_DOCUMENT.replace("7", "700")]
        for text in documents:
            StreamingValidator(schema, use_tables=False).validate_text(text)
            SchemaValidator(schema).validate(parse_document(text))
            for route in (
                lambda b, t: fused_parse(b, t, use_tables=False),
                legacy_parse,
                lambda b, t: b.from_dom(parse_document(t).document_element),
            ):
                try:
                    route(binding, text)
                except ReproError:
                    pass
        # V-DOM constructors and the P-XML hole checker.
        po_binding.factory.create_quantity(12)
        po_binding.factory.create_item(
            po_binding.factory.create_product_name("p"),
            po_binding.factory.create_quantity(3),
            po_binding.factory.create_us_price("1.50"),
            part_num="123-AB",
        )
        template = Template(po_binding, "<quantity>$q$</quantity>")
        assert template.render_text(q=12) == "<quantity>12</quantity>"
        assert check_calls == []

    def test_the_table_routes_do(self, check_calls):
        StreamingValidator(parse_schema(FRESH_TYPES_SCHEMA)).validate_text(
            FRESH_TYPES_DOCUMENT
        )
        # Each distinct literal is checked once; the repeated 5 hits.
        assert sorted(check_calls) == ["5", "7", "AB"]
        check_calls.clear()
        table_parse(bind(FRESH_TYPES_SCHEMA), FRESH_TYPES_DOCUMENT)
        assert sorted(check_calls) == ["5", "7"]
