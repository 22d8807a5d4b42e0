"""The turbo-fed streaming validator against the event reference route.

``StreamingValidator.validate_text`` walks documents straight off the
turbo scanner's tokens and re-runs anything outside the turbo subset
through ``PullParser`` events; ``use_tables=False`` always takes the
events and the object DFAs.  Both must give the same verdict for every
document — the same ``error_entry`` list and ``str(error)``, or the same
``XmlSyntaxError`` (type, message, line, column) — on the fixed corpora
and on generated documents with mutations, scanner hazards and
namespace rebinding.
"""

import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import obs
from repro.core.vdom import bind
from repro.errors import ReproError, XmlSyntaxError
from repro.ingest.table_driven import table_parse
from repro.schemas import (
    PURCHASE_ORDER_DOCUMENT,
    PURCHASE_ORDER_INVALID_DOCUMENTS,
    PURCHASE_ORDER_SCHEMA,
)
from repro.xml import turbo
from repro.xsd import StreamingValidator, parse_schema, parse_schema_file
from repro.xsd.stream import _Walk, error_entry
from tests.integration import corpus_runner
from tests.xml.test_line_endings import CRLF_PURCHASE_ORDER, GOLDEN, TestAttributeValues
from tests.xml.test_scanner_parity import ILL_FORMED, WELL_FORMED

XSI = "http://www.w3.org/2001/XMLSchema-instance"

#: a small permissive schema for the scanner-parity documents, whose
#: roots are mostly ``<a>``: their errors then come from content,
#: attributes and text rather than one "unknown root" line
SCANNER_SCHEMA = """
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="a">
    <xsd:complexType mixed="true">
      <xsd:sequence>
        <xsd:element name="b" type="xsd:string"
                     minOccurs="0" maxOccurs="unbounded"/>
      </xsd:sequence>
      <xsd:attribute name="x" type="xsd:NMTOKEN"/>
      <xsd:attribute name="y" type="xsd:string"/>
    </xsd:complexType>
  </xsd:element>
</xsd:schema>
"""


#: a schema whose elements take each branch of the scanner's leaf call:
#: simple types with and without a facet, a fixed value, empty and
#: simple content with fixed, defaulted and required attributes,
#: element-only content with and without required children, mixed and
#: ``anyType`` content, ``xsi:type`` derivation and an abstract type.
#: ``x`` has empty content and a fixed value, which both validators
#: compare with the text that content admits: none.
LEAF_SCHEMA = """
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="doc">
    <xsd:complexType>
      <xsd:choice minOccurs="0" maxOccurs="unbounded">
        <xsd:element name="n" type="small"/>
        <xsd:element name="s" type="xsd:string"/>
        <xsd:element name="d" type="xsd:date"/>
        <xsd:element name="f" type="xsd:string" fixed="on"/>
        <xsd:element name="e" type="emptyType"/>
        <xsd:element name="k" type="measured"/>
        <xsd:element name="r" type="required"/>
        <xsd:element name="g" type="group"/>
        <xsd:element name="o" type="optionalGroup"/>
        <xsd:element name="m" type="mixedGroup"/>
        <xsd:element name="w" type="xsd:anyType"/>
        <xsd:element name="t" type="base"/>
        <xsd:element name="a" type="abstractType"/>
        <xsd:element name="x" type="emptyType" fixed="y"/>
      </xsd:choice>
    </xsd:complexType>
  </xsd:element>
  <xsd:element name="n" type="small"/>
  <xsd:simpleType name="small">
    <xsd:restriction base="xsd:integer">
      <xsd:minInclusive value="0"/>
      <xsd:maxInclusive value="99"/>
    </xsd:restriction>
  </xsd:simpleType>
  <xsd:complexType name="emptyType"/>
  <xsd:complexType name="measured">
    <xsd:simpleContent>
      <xsd:extension base="small">
        <xsd:attribute name="unit" type="xsd:string" fixed="m"/>
        <xsd:attribute name="scale" type="xsd:integer" default="1"/>
      </xsd:extension>
    </xsd:simpleContent>
  </xsd:complexType>
  <xsd:complexType name="required">
    <xsd:attribute name="id" type="xsd:NMTOKEN" use="required"/>
  </xsd:complexType>
  <xsd:complexType name="group">
    <xsd:sequence>
      <xsd:element name="n" type="small"/>
      <xsd:element name="s" type="xsd:string" minOccurs="0"/>
    </xsd:sequence>
  </xsd:complexType>
  <xsd:complexType name="optionalGroup">
    <xsd:sequence>
      <xsd:element name="n" type="small" minOccurs="0"/>
    </xsd:sequence>
  </xsd:complexType>
  <xsd:complexType name="mixedGroup" mixed="true">
    <xsd:sequence>
      <xsd:element name="n" type="small" minOccurs="0" maxOccurs="unbounded"/>
    </xsd:sequence>
  </xsd:complexType>
  <xsd:complexType name="base">
    <xsd:simpleContent>
      <xsd:extension base="xsd:string"/>
    </xsd:simpleContent>
  </xsd:complexType>
  <xsd:complexType name="derived">
    <xsd:simpleContent>
      <xsd:extension base="base">
        <xsd:attribute name="note" type="xsd:string"/>
      </xsd:extension>
    </xsd:simpleContent>
  </xsd:complexType>
  <xsd:complexType name="abstractType" abstract="true"/>
</xsd:schema>
"""


def _family_schema(family):
    return parse_schema_file(
        os.path.join(corpus_runner.CORPUS_DIR, family, "schema", "main.xsd")
    )


SCHEMAS = {
    "po": parse_schema(PURCHASE_ORDER_SCHEMA),
    "scanner": parse_schema(SCANNER_SCHEMA),
    "leaf": parse_schema(LEAF_SCHEMA),
    **{family: _family_schema(family) for family, _ in corpus_runner.iter_cases()},
}
TURBO = {name: StreamingValidator(schema) for name, schema in SCHEMAS.items()}
REFERENCE = {
    name: StreamingValidator(schema, use_tables=False)
    for name, schema in SCHEMAS.items()
}


def outcome(validator, text):
    try:
        errors = validator.validate_text(text)
    except XmlSyntaxError as error:
        location = error.location
        return ("syntax", type(error), error.message, location.line, location.column)
    return ("errors", [(error_entry(error), str(error)) for error in errors])


def assert_parity(schema, text):
    """The turbo route gives the reference route's verdict, and each of
    the scanner's ``leaf`` calls gives what its three calls give."""
    turbo = outcome(TURBO[schema], text)
    assert turbo == outcome(REFERENCE[schema], text), text
    assert_leaf_calls_split(schema, text)
    return turbo


# -- (a) the fixed corpora -----------------------------------------------------


def _gauntlet_instances():
    for family, case_dir in corpus_runner.iter_cases():
        for name, path, _ in corpus_runner.iter_instances(case_dir):
            with open(path, encoding="utf-8") as handle:
                yield pytest.param(family, handle.read(), id=f"{family}/{name}")


class TestFixedCorpora:
    @pytest.mark.parametrize("fault", sorted(PURCHASE_ORDER_INVALID_DOCUMENTS))
    def test_invalid_purchase_orders(self, fault):
        verdict = assert_parity("po", PURCHASE_ORDER_INVALID_DOCUMENTS[fault])
        assert verdict != ("errors", [])

    def test_valid_purchase_order(self):
        assert assert_parity("po", PURCHASE_ORDER_DOCUMENT) == ("errors", [])

    @pytest.mark.parametrize("family, text", list(_gauntlet_instances()))
    def test_gauntlet_instances(self, family, text):
        assert_parity(family, text)

    @pytest.mark.parametrize("schema", ["po", "scanner"])
    @pytest.mark.parametrize(
        "text",
        [
            pytest.param(text, id=name)
            for name, text in sorted({**WELL_FORMED, **ILL_FORMED}.items())
        ],
    )
    def test_scanner_parity_documents(self, schema, text):
        assert_parity(schema, text)

    @pytest.mark.parametrize(
        "text",
        [CRLF_PURCHASE_ORDER, CRLF_PURCHASE_ORDER.replace("1999", "19x9")]
        + [document for document, _ in GOLDEN.values()]
        + sorted(TestAttributeValues.CASES),
    )
    def test_crlf_documents(self, text):
        assert_parity("po", text)
        assert_parity("scanner", text)

    def test_text_run_split_by_references_is_one_run(self):
        """Text and references up to the next tag are one run, located
        at its first character — as the event parser's ``Characters``."""
        text = PURCHASE_ORDER_DOCUMENT.replace(
            "<items>", "<items>\n    stray &amp; text&#33; here"
        )
        kind, errors = assert_parity("po", text)
        assert kind == "errors"
        assert "contains text" in errors[0][1]

    def test_errors_locate_like_the_event_parser(self):
        """A turbo-walked verdict carries the reader's exact locations,
        also behind a leading BOM."""
        text = "\ufeff" + PURCHASE_ORDER_INVALID_DOCUMENTS["undeclared-element"]
        validator = TURBO["po"]
        obs.enable(reset=True)
        try:
            errors = validator.validate_text(text)
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
            obs.reset()
        assert counters["xsd.stream{lane=turbo}"] == 1
        reference = REFERENCE["po"].validate_text(text)
        assert [error.location for error in errors] == [
            error.location for error in reference
        ]
        assert any(error.location is not None for error in errors)


# -- lane counters ---------------------------------------------------------------

_PO_ROOT = '<purchaseOrder orderDate="1999-10-20">'

RESTARTS = {
    "comment": PURCHASE_ORDER_DOCUMENT.replace(
        "<items>", "<items><!-- picked -->"
    ),
    "cdata": PURCHASE_ORDER_DOCUMENT.replace(
        "Lawnmower", "<![CDATA[Lawnmower]]>"
    ),
    "carriage return": PURCHASE_ORDER_DOCUMENT.replace("\n", "\r\n"),
    "doctype": "<!DOCTYPE purchaseOrder>\n" + PURCHASE_ORDER_DOCUMENT,
    "tokenizer": PURCHASE_ORDER_DOCUMENT.replace(
        _PO_ROOT, _PO_ROOT.replace('"', "'")
    ),
    "duplicate attribute": PURCHASE_ORDER_DOCUMENT.replace(
        _PO_ROOT, _PO_ROOT[:-1] + ' orderDate="1999-10-21">'
    ),
    "processing instruction": PURCHASE_ORDER_DOCUMENT.replace(
        "<items>", "<items><?picker fast?>"
    ),
    "markup declaration": PURCHASE_ORDER_DOCUMENT.replace(
        "<items>", "<items><!ELEMENT x ANY>"
    ),
    "cdata end": PURCHASE_ORDER_DOCUMENT.replace("Lawnmower", "Lawn]]>mower"),
    "illegal character": PURCHASE_ORDER_DOCUMENT.replace("Lawnmower", "Lawn\x01mower"),
}

_HURRY = "<comment>Hurry"

#: turbo-scanner edge cases -> (document, the restart reason, or None
#: when the scanner walks the whole document).  A ``>`` inside an
#: attribute value is legal XML, but it ends the tag body the scanner
#: slices, so it restarts.
SCANNER_EDGES = {
    "gt in attribute value": (
        PURCHASE_ORDER_DOCUMENT.replace('country="US"', 'country="U>S"', 1),
        "tokenizer",
    ),
    "empty reference": (_PO_ROOT + "&;</purchaseOrder>", "entity reference"),
    "empty character reference": (
        PURCHASE_ORDER_DOCUMENT.replace(_HURRY, _HURRY + "&#;"),
        "character reference",
    ),
    "empty hex character reference": (
        PURCHASE_ORDER_DOCUMENT.replace(_HURRY, _HURRY + "&#x;"),
        "character reference",
    ),
    "unterminated reference": (
        PURCHASE_ORDER_DOCUMENT.replace(_HURRY, _HURRY + " &amp"),
        "unterminated reference",
    ),
    "reference before a tag": (
        PURCHASE_ORDER_DOCUMENT.replace("wild</comment>", "wild&amp;</comment>"),
        None,
    ),
    "bom and xml declaration": (
        '\ufeff<?xml version="1.0" encoding="UTF-8"?>\n'
        + PURCHASE_ORDER_DOCUMENT.replace("1999-10-20", "1999-13-20"),
        None,
    ),
    "self-closing root": (_PO_ROOT[:-1] + "/>", None),
    "trailing white space": (PURCHASE_ORDER_DOCUMENT + "\n \t\n", None),
    "trailing text": (PURCHASE_ORDER_DOCUMENT + "trailing", "text outside root"),
    "lone surrogate": (
        PURCHASE_ORDER_DOCUMENT.replace("Lawnmower", "Lawn\ud800mower"),
        "illegal character",
    ),
    "noncharacter U+FFFE": (
        PURCHASE_ORDER_DOCUMENT.replace("Lawnmower", "Lawn\ufffemower"),
        "illegal character",
    ),
    "non-ASCII text": (
        PURCHASE_ORDER_DOCUMENT.replace("Lawnmower", "Rasenmäher ☀ \U0001f33f"),
        None,
    ),
    "delete character": (
        PURCHASE_ORDER_DOCUMENT.replace("Lawnmower", "Lawn\x7fmower"),
        None,
    ),
}


def _counters(action):
    obs.enable(reset=True)
    try:
        action()
        return obs.snapshot()["counters"]
    finally:
        obs.disable()
        obs.reset()


class TestLaneCounters:
    def test_turbo_documents_are_counted(self):
        counters = _counters(lambda: TURBO["po"].validate_text(PURCHASE_ORDER_DOCUMENT))
        assert counters["xsd.stream{lane=turbo}"] == 1
        assert not [key for key in counters if "outcome=restart" in key]

    @pytest.mark.parametrize("reason", sorted(RESTARTS))
    def test_each_restart_reports_its_reason(self, reason):
        text = RESTARTS[reason]
        assert text != PURCHASE_ORDER_DOCUMENT
        counters = _counters(lambda: outcome(TURBO["po"], text))
        restarts = {
            key: value for key, value in counters.items()
            if key.startswith("xsd.stream{")
        }
        assert restarts == {f"xsd.stream{{outcome=restart,reason={reason}}}": 1}
        assert_parity("po", text)

    @pytest.mark.parametrize("reason", sorted(RESTARTS))
    def test_reasons_match_typed_ingest(self, reason):
        """``xsd.stream`` and ``ingest.turbo`` name a restart alike."""
        binding = bind(PURCHASE_ORDER_SCHEMA)

        def ingest():
            try:
                table_parse(binding, RESTARTS[reason])
            except XmlSyntaxError:
                pass  # only the restart counter is of interest here

        counters = _counters(ingest)
        assert counters[f"ingest.turbo{{outcome=restart,reason={reason}}}"] == 1

    def test_typed_ingest_counts_one_outcome_per_document(self):
        binding = bind(PURCHASE_ORDER_SCHEMA)

        def routes(text):
            counters = _counters(lambda: table_parse(binding, text))
            return {
                key: value for key, value in counters.items()
                if key.startswith("ingest.turbo{")
            }

        assert routes(PURCHASE_ORDER_DOCUMENT) == {"ingest.turbo{outcome=hit}": 1}
        assert routes(RESTARTS["comment"]) == {
            "ingest.turbo{outcome=restart,reason=comment}": 1
        }


class TestScannerEdges:
    @pytest.mark.parametrize("name", sorted(SCANNER_EDGES))
    def test_parity(self, name):
        text, _ = SCANNER_EDGES[name]
        assert_parity("po", text)
        assert_parity("scanner", text)

    @pytest.mark.parametrize("name", sorted(SCANNER_EDGES))
    def test_routes(self, name):
        """Both lanes leave the subset at the same edge cases, for the
        same reason; the validator walks the rest to the end."""
        text, reason = SCANNER_EDGES[name]
        counters = _counters(lambda: outcome(TURBO["po"], text))
        routes = {
            key: value for key, value in counters.items()
            if key.startswith("xsd.stream{")
        }
        if reason is None:
            assert routes == {"xsd.stream{lane=turbo}": 1}
            return
        assert routes == {f"xsd.stream{{outcome=restart,reason={reason}}}": 1}
        binding = bind(PURCHASE_ORDER_SCHEMA)

        def ingest():
            try:
                table_parse(binding, text)
            except ReproError:
                pass  # only the restart counter is of interest here

        counters = _counters(ingest)
        assert counters[f"ingest.turbo{{outcome=restart,reason={reason}}}"] == 1


# -- the scanner's leaf call ------------------------------------------------------

#: one document per boundary of the leaf call -> the restart reason the
#: turbo lane gives it (None when the scanner walks it to the end)
LEAF_CASES = {
    "empty pair": ("<doc>\n  <n></n><s></s><e></e>\n</doc>", None),
    "white space under element-only content": (
        "<doc>\n  <o> \n </o><o>\n</o><o>x</o><e> </e>\n</doc>",
        None,
    ),
    "predefined and character references": (
        "<doc><s>a&amp;b</s><n>&#53;</n><n>&#x35;0</n><f>o&#110;</f></doc>",
        None,
    ),
    "undeclared entity": ("<doc><n>500</n><s>&nbsp;</s></doc>", "entity reference"),
    "end tag with a space": (
        "<doc><n>5</n ><n>500</n\n><s>x</s\t></doc>",
        None,
    ),
    "self-closing": ("<doc>\n  <n/><s/><e/><f/><o/><k/><t/>\n</doc>", None),
    "childless root": ("<n>77</n>", None),
    "childless root out of range": ("<n>777</n>", None),
    "empty root pair": ("<doc></doc>", None),
    "self-closing root": ("<doc/>", None),
    "under a skipped parent": (
        "<doc><zz><n>x</n><s/></zz><w><n>500</n><q/></w><w/></doc>",
        None,
    ),
    "children required": ("<doc>\n  <g></g>\n  <g/>\n  <g><n>1</n></g>\n</doc>", None),
    "namespace declarations": (
        '<doc><n xmlns="">5</n><s xmlns:p="urn:p">x</s><n xmlns="urn:x">5</n></doc>',
        None,
    ),
    "xsi:type": (
        f'<doc xmlns:xsi="{XSI}"><t xsi:type="derived">x</t>'
        '<t xsi:type="base"/><t xsi:type="nope">y</t>'
        '<n xsi:type="small">5</n><s xsi:type="small">x</s></doc>',
        None,
    ),
    "undeclared xsi prefix": ('<doc><t xsi:type="derived" note="n">x</t></doc>', None),
    "fixed and default attributes": (
        '<doc><k>5</k><k unit="m" scale="2">7</k><k unit="q">9</k>'
        '<k scale="x">1</k><f>on</f><f>off</f><f/></doc>',
        None,
    ),
    "fixed value": ("<doc><f>on</f><f>off</f><f/></doc>", None),
    "facets": ("<doc>\n<n>500</n>\n<d>2001-13-01</d><k>-1</k><n> 7 </n></doc>", None),
    "abstract, required and undeclared attributes": (
        '<doc><a></a><r/><r id="x"></r><r id="a b"/><n bogus="1">5</n></doc>',
        None,
    ),
    "text in empty content": (
        '<doc><e>x</e><r id="i">y</r><g>z</g><x>y</x><x> </x><x/></doc>',
        None,
    ),
    "padded values": (
        "<doc><n> 7 </n><s> x </s><d>\n2001-02-03 </d><k> 5</k><f>on</f></doc>",
        None,
    ),
    "leaf under simple content": ("<doc><n><s/></n><k>1<n>2</n></k></doc>", None),
    "leaves in mixed content": ("<doc><m>a<n>1</n>b<n></n><n>100</n>c</m></doc>", None),
    "unclosed leaf": ("<doc><n>5</doc>", "tag mismatch"),
    "leaf at the end of the text": ("<doc><n>5", "unclosed element"),
}


class SplitLeaves:
    """A sink that takes each leaf as the ``start``, ``characters`` and
    ``end`` calls it stands for: the scanner's calls without ``leaf``."""

    def __init__(self, sink):
        self.start = sink.start
        self.characters = sink.characters
        self.end = sink.end

    def leaf(self, name, attributes, data, where, data_where, end_where):
        self.start(name, attributes, where)
        if data:
            self.characters(data, data_where)
        self.end(end_where)


def walk_outcome(schema, text, split=False):
    """One turbo walk of *text*, without the event route behind it: its
    errors, or the reason it left the subset."""
    walk = _Walk(TURBO[schema], text)
    try:
        turbo.scan(text, SplitLeaves(walk) if split else walk, {})
    except turbo._Restart as restart:
        return ("restart", restart.reason)
    return ("errors", [(error_entry(error), str(error)) for error in walk.errors])


def assert_leaf_calls_split(schema, text):
    """The ``leaf`` call gives what its three calls give: the same
    errors (message, line, column, path), or the same restart."""
    whole = walk_outcome(schema, text)
    assert whole == walk_outcome(schema, text, split=True), text
    return whole


class TestLeafPath:
    @pytest.mark.parametrize("name", sorted(LEAF_CASES))
    def test_parity(self, name):
        assert_parity("leaf", LEAF_CASES[name][0])

    @pytest.mark.parametrize("name", sorted(LEAF_CASES))
    def test_routes(self, name):
        """The turbo lane leaves the subset at the same place, for the
        same reason, whether a leaf is one call or three."""
        text, reason = LEAF_CASES[name]
        counters = _counters(lambda: outcome(TURBO["leaf"], text))
        routes = {
            key: value for key, value in counters.items()
            if key.startswith("xsd.stream{")
        }
        if reason is None:
            assert routes == {"xsd.stream{lane=turbo}": 1}
        else:
            assert routes == {f"xsd.stream{{outcome=restart,reason={reason}}}": 1}
            assert walk_outcome("leaf", text, split=True) == ("restart", reason)

    def test_cases_reach_each_branch(self):
        """Guard the fixed cases: they hold errors from the leaf's text,
        attribute, content-model and skip branches."""
        messages = " ".join(
            message
            for text, reason in LEAF_CASES.values()
            if reason is None
            for _, message in walk_outcome("leaf", text)[1]
        )
        for fragment in (
            "is above maxInclusive",
            "must have the fixed value 'on'",
            "has empty content but contains text",
            "has element-only content but contains text",
            "ends too early",
            "is abstract",
            "required attribute 'id' missing",
            "of simple type may not carry attributes",
            "xsi:type names unknown type",
            "is not allowed here inside <doc>",
            "<s> is not allowed inside <n>",
        ):
            assert fragment in messages, fragment


#: text a generated leaf holds: literals in and out of its type's
#: lexical space, white space, and every kind of reference
_LEAF_TEXT = st.sampled_from(
    ["", " ", "\n  ", "5", "42", "500", "-1", " 7 ", "x", "on", "off",
     "2001-02-03", "2001-13-01", "a&amp;b", "&#53;", "&#x35;&#x30;", "&lt;",
     "&nbsp;", "&;"]
)
_LEAF_ATTRIBUTES = st.sampled_from(
    ["", "", "", ' unit="m"', ' unit="q"', ' scale="2"', ' id="x"',
     ' xmlns=""', ' xmlns:p="urn:p"', ' xsi:type="derived"', ' xsi:type="small"',
     f' xmlns:xsi="{XSI}" xsi:type="derived"', ' note="n"', ' bogus="1"']
)


@st.composite
def _leaf(draw):
    name = draw(st.sampled_from("nsdfekrgomwtaxz"))
    attributes = draw(_LEAF_ATTRIBUTES)
    shape = draw(st.sampled_from(["pair", "pair", "self-closing", "spaced end"]))
    if shape == "self-closing":
        return f"<{name}{attributes}/>"
    end = f"</{name} >" if shape == "spaced end" else f"</{name}>"
    return f"<{name}{attributes}>{draw(_LEAF_TEXT)}{end}"


@st.composite
def leaf_documents(draw):
    """``LEAF_SCHEMA`` documents made mostly of childless elements, some
    under a mixed, ``anyType``, element-only, simple-content or
    undeclared parent."""
    separator = draw(st.sampled_from(["", "\n  "]))
    children = []
    for _ in range(draw(st.integers(0, 8))):
        leaves = separator.join(draw(st.lists(_leaf(), min_size=1, max_size=3)))
        parent = draw(
            st.sampled_from([None, None, None, "m", "w", "g", "o", "k", "zz"])
        )
        children.append(leaves if parent is None else f"<{parent}>{leaves}</{parent}>")
    if not children and draw(st.booleans()):
        return draw(_leaf().filter(lambda leaf: leaf.startswith(("<n>", "<n/", "<n "))))
    return f"<doc>{separator}{separator.join(children)}{separator}</doc>"


#: the characters and strings the admission proof looks for, the ones
#: next to them, and ASCII markup around them
_ADMISSION_PIECES = st.sampled_from(
    ["<!", "<?", "]]>", "]]", "]>", "<", "!", "?", "\r", "\r\n", "\t", "\n",
     "\x00", "\x01", "\x08", "\x0b", "\x0c", "\x0e", "\x1f", "\x7f",
     "\ud800", "\udbff", "\udc00", "\udfff", "\ufffd", "\ufffe", "\uffff",
     "\U00010000", "é", "ß", "中", " ", "<a>", "</a>", '<b x="1"/>', "text",
     "&amp;", '<?xml version="1.0"?>']
)


class TestAdmissionProof:
    @settings(max_examples=500, deadline=None)
    @given(
        declaration=st.sampled_from(
            ["", '<?xml version="1.0"?>', '<?xml version="1.0" encoding="UTF-8"?>\n']
        ),
        pieces=st.lists(_ADMISSION_PIECES, max_size=16),
    )
    def test_proof_agrees_with_the_hazard_search(self, declaration, pieces):
        """``_hazard_free`` says hazard-free exactly when ``_HAZARD``
        finds nothing after the declaration, on ASCII and other text."""
        text = declaration + "".join(pieces)
        match = turbo._XML_DECL.match(text)
        pos = match.end() if match is not None else 0
        expected = turbo._HAZARD.search(text, pos) is None
        assert turbo._hazard_free(text, pos) == expected, repr(text)


# -- (b) generated documents -------------------------------------------------------

_word = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJ0123456789 .,-",
    min_size=1,
    max_size=12,
).map(str.strip).filter(bool)
_token = st.from_regex(r"[a-z][a-z0-9\-]{0,8}", fullmatch=True)


@st.composite
def purchase_orders(draw):
    items = []
    for _ in range(draw(st.integers(0, 6))):
        sku = draw(st.from_regex(r"[0-9]{3}-[A-Z]{2}", fullmatch=True))
        price = f"{draw(st.integers(0, 9999))}.{draw(st.integers(10, 99))}"
        items.append(
            f'    <item partNum="{sku}">\n'
            f"      <productName>{draw(_word)}</productName>\n"
            f"      <quantity>{draw(st.integers(1, 99))}</quantity>\n"
            f"      <USPrice>{price}</USPrice>\n"
            "    </item>\n"
        )
    address = "".join(
        f"    <{tag}>{draw(_word)}</{tag}>\n"
        for tag in ("name", "street", "city", "state")
    ) + f"    <zip>{draw(st.integers(10000, 99999))}</zip>\n"
    comment = f"  <comment>{draw(_word)}</comment>\n" if draw(st.booleans()) else ""
    return (
        '<?xml version="1.0"?>\n'
        '<purchaseOrder orderDate="1999-10-20">\n'
        f'  <shipTo country="US">\n{address}  </shipTo>\n'
        f'  <billTo country="US">\n{address}  </billTo>\n'
        f"{comment}  <items>\n{''.join(items)}  </items>\n"
        "</purchaseOrder>\n"
    )


@st.composite
def techdocs(draw):
    blocks = []
    for _ in range(draw(st.integers(1, 12))):
        texts = "".join(
            f"<text>{draw(_word)}</text>" for _ in range(draw(st.integers(0, 3)))
        )
        if draw(st.booleans()):
            severity = draw(st.sampled_from(["caution", "danger"]))
            blocks.append(f'  <warning severity="{severity}">{texts}</warning>\n')
        else:
            blocks.append(f"  <para>{texts}</para>\n" if texts else "  <para/>\n")
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<manual xmlns="http://example.org/techdoc" lang="de">\n'
        f"  <title>{draw(_word)}</title>\n{''.join(blocks)}</manual>\n"
    )


@st.composite
def secreports(draw):
    findings = []
    for index in range(draw(st.integers(1, 8))):
        notes = "".join(
            f"<c:note>{draw(_word)}</c:note>" for _ in range(draw(st.integers(0, 3)))
        )
        severity = draw(st.sampled_from(["low", "medium", "high"]))
        head = f'<r:finding id="f{index}" c:severity="{severity}"'
        findings.append(
            f"  {head}>{notes}</r:finding>\n" if notes else f"  {head}/>\n"
        )
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<r:report xmlns:r="http://example.org/secreport"\n'
        '          xmlns:c="http://example.org/common" generated="nightly">\n'
        f"{''.join(findings)}</r:report>\n"
    )


@st.composite
def cmdb_items(draw):
    relations = "".join(
        f'  <relation kind="{draw(_token)}"><target>{draw(_word)}</target></relation>\n'
        for _ in range(draw(st.integers(0, 8)))
    )
    if draw(st.booleans()):
        return (
            f'<cm:item xmlns:cm="http://example.org/cmdb" xmlns:xsi="{XSI}"\n'
            '         xsi:type="cm:SoftwareType">\n'
            f"  <name>{draw(_word)}</name>\n{relations}"
            f"  <version>{draw(_word)}</version>\n</cm:item>\n"
        )
    return (
        '<cm:item xmlns:cm="http://example.org/cmdb">\n'
        f"  <name>{draw(_word)}</name>\n{relations}</cm:item>\n"
    )


def _first(pattern, replacement):
    return lambda text: re.sub(pattern, replacement, text, count=1)


def _xsi_type(root, value):
    """Set the root's ``xsi:type``, declaring the prefix when needed."""

    def edit(text):
        if "xsi:type=" in text:
            return re.sub(r'xsi:type="[^"]*"', f'xsi:type="{value}"', text, count=1)
        return text.replace(
            f"<{root} ", f'<{root} xmlns:xsi="{XSI}" xsi:type="{value}" ', 1
        )

    return edit


#: per family: name -> text mutation making the document schema-invalid
MUTATIONS = {
    "po": {
        "facet": _first(r"<quantity>\d+", "<quantity>100"),
        "missing child": _first(r"\s*<city>[^<]*</city>", ""),
        "undeclared element": _first(r"<items>", "<items><bogus/>"),
        "unknown xsi:type": _xsi_type("purchaseOrder", "Nope"),
        "non-derived xsi:type": _xsi_type("purchaseOrder", "USAddress"),
    },
    "techdoc": {
        "facet": _first(r'severity="\w+"', 'severity="grave"'),
        "missing child": _first(r"<title>[^<]*</title>", ""),
        "undeclared element": _first(r"</title>", "</title><figure/>"),
        "abstract head": _first(
            r"<para(/>|>.*?</para>)",
            lambda match: "<block" + match[1].replace("</para>", "</block>"),
        ),
        "unknown xsi:type": _first(
            "<title>", f'<title xmlns:xsi="{XSI}" xsi:type="Missing">'
        ),
    },
    "secreport": {
        "facet": _first(r'c:severity="\w+"', 'c:severity="urgent"'),
        "missing attribute": _first(r' id="\w+"', ""),
        "undeclared element": _first(r"<c:note>", "<c:remark/><c:note>"),
        "wrong namespace": _first(r"<c:note>([^<]*)</c:note>", r"<r:note>\1</r:note>"),
    },
    "cmdb": {
        "missing child": _first(r"<name>[^<]*</name>", ""),
        "unknown xsi:type": _xsi_type("cm:item", "cm:HardwareType"),
        "non-derived xsi:type": _xsi_type("cm:item", "cm:RelationType"),
        "facet": _first(r'kind="[^"]*"', 'kind="9 lives"'),
    },
}

#: namespace rebinding, per family
REBINDINGS = {
    "po": {
        "fake xsi prefix": _first(
            "<purchaseOrder ",
            f'<purchaseOrder xmlns:inst="{XSI}" inst:type="PurchaseOrderType" ',
        ),
        "rebound xsi prefix": _first(
            "<purchaseOrder ", '<purchaseOrder xmlns:xsi="urn:not-xsi" xsi:type="x" '
        ),
    },
    "techdoc": {
        "default namespace undeclared": _first(r"<para", '<para xmlns=""'),
        "default namespace rebound": _first(
            r"<warning", '<warning xmlns="http://example.org/techdoc"'
        ),
    },
    "secreport": {
        "prefix rebound on a child": _first(
            r"<r:finding", '<r:finding xmlns:c="http://example.org/other"'
        ),
        "prefix renamed on a child": _first(
            r"<r:finding ([^>]*?)c:severity",
            r'<r:finding xmlns:s="http://example.org/common" \1s:severity',
        ),
        "default namespace on a child": _first(
            r"<c:note>([^<]*)</c:note>",
            r'<note xmlns="http://example.org/common">\1</note>',
        ),
    },
    "cmdb": {
        "rebound xsi prefix": lambda text: text.replace(
            f'xmlns:xsi="{XSI}"', 'xmlns:xsi="urn:elsewhere"', 1
        ),
        "fake xsi prefix": lambda text: text.replace(
            f'xmlns:xsi="{XSI}"\n         xsi:type',
            f'xmlns:xsi="urn:elsewhere" xmlns:i="{XSI}"\n         i:type',
            1,
        ),
    },
}


def _after_tag(text, index):
    """Offset just after the *index*-th start tag (wrapping)."""
    ends = [match.end() for match in re.finditer(r"<[A-Za-z][^>]*>", text)]
    return ends[index % len(ends)]


def _insert(snippet):
    return lambda text, index: (
        text[: _after_tag(text, index)] + snippet + text[_after_tag(text, index) :]
    )


def _anywhere(edit):
    return lambda text, _: edit(text)


#: scanner hazards: name -> (text, position) -> text
HAZARDS = {
    "comment": _insert("<!-- note -->"),
    "cdata": _insert("<![CDATA[x <y> & z]]>"),
    "crlf": lambda text, _: text.replace("\n", "\r\n"),
    "bom": lambda text, _: "\ufeff" + text,
    "character reference": _insert("&#65;&#x20;"),
    "predefined entity": _insert("&amp;&lt;"),
    "undefined entity": _insert("&nbsp;"),
    "tab in attribute value": _anywhere(_first(r'(<[A-Za-z][^>]*?=")', "\\1\t")),
    "duplicate attribute": _anywhere(
        _first(r'(<[A-Za-z][^>]*?)( [\w:]+="[^"]*")', r"\1\2\2")
    ),
    "mismatched tag": lambda text, index: re.sub(
        r"</([\w:]+)>", r"</\1x>", text, count=1 + index % 3
    ),
    "unclosed tag": lambda text, _: text[: text.rstrip().rfind("</")],
    "text after root": lambda text, _: text + "trailing",
}

GENERATORS = {
    "po": purchase_orders(),
    "techdoc": techdocs(),
    "secreport": secreports(),
    "cmdb": cmdb_items(),
}


@st.composite
def documents(draw):
    family = draw(st.sampled_from(sorted(GENERATORS)))
    text = draw(GENERATORS[family])
    for name in draw(st.lists(st.sampled_from(sorted(MUTATIONS[family])), max_size=2)):
        text = MUTATIONS[family][name](text)
    rebinding = draw(st.none() | st.sampled_from(sorted(REBINDINGS[family])))
    if rebinding is not None:
        text = REBINDINGS[family][rebinding](text)
    hazard = draw(st.none() | st.sampled_from(sorted(HAZARDS)))
    if hazard is not None:
        text = HAZARDS[hazard](text, draw(st.integers(0, 40)))
    return family, text


class TestGeneratedDocuments:
    @settings(max_examples=200, deadline=None)
    @given(documents() | leaf_documents().map(lambda text: ("leaf", text)))
    def test_turbo_route_matches_reference_route(self, document):
        family, text = document
        assert_parity(family, text)

    @pytest.mark.parametrize("family", sorted(MUTATIONS))
    def test_every_edit_applies(self, family):
        """Guard the generators: each edit changes its family's document,
        and each mutation makes it schema-invalid (not malformed)."""
        base = {
            "po": '<?xml version="1.0"?>\n' + PURCHASE_ORDER_DOCUMENT,
            "techdoc": '<manual xmlns="http://example.org/techdoc" lang="de">\n'
            '  <title>t</title>\n  <para><text>x</text></para>\n'
            '  <warning severity="danger"/>\n</manual>\n',
            "secreport": '<r:report xmlns:r="http://example.org/secreport"\n'
            '          xmlns:c="http://example.org/common" generated="nightly">\n'
            '  <r:finding id="f0" c:severity="low"><c:note>n</c:note></r:finding>\n'
            "</r:report>\n",
            "cmdb": f'<cm:item xmlns:cm="http://example.org/cmdb" xmlns:xsi="{XSI}"\n'
            '         xsi:type="cm:SoftwareType">\n  <name>n</name>\n'
            '  <relation kind="hosts"><target>t</target></relation>\n'
            "  <version>1</version>\n</cm:item>\n",
        }[family]
        assert assert_parity(family, base) == ("errors", [])
        for name, edit in {**MUTATIONS[family], **REBINDINGS[family]}.items():
            assert edit(base) != base, name
            assert_parity(family, edit(base))
        for name, mutation in MUTATIONS[family].items():
            kind, errors = outcome(TURBO[family], mutation(base))[:2]
            assert kind == "errors" and errors, name


# -- (c) the import boundary ---------------------------------------------------------


def test_streaming_validation_does_not_load_ingest_or_numpy():
    """The serve tier and the validator reach the turbo scanner without
    importing :mod:`repro.ingest`, and typed ingest runs on the stdlib:
    neither loads numpy."""
    probe = (
        "import sys, repro.serve, repro.xsd.stream\n"
        "loaded = [name for name in ('numpy', 'repro.ingest.table_driven')"
        " if name in sys.modules]\n"
        "import repro.ingest\n"
        "from repro.core import bind\n"
        "from repro.schemas import PURCHASE_ORDER_SCHEMA, PURCHASE_ORDER_DOCUMENT\n"
        "repro.ingest.parse_typed(bind(PURCHASE_ORDER_SCHEMA),"
        " PURCHASE_ORDER_DOCUMENT)\n"
        "loaded += ['numpy (typed ingest)'] if 'numpy' in sys.modules else []\n"
        "print(','.join(loaded))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    assert result.stdout.strip() == ""
