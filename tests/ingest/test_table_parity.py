"""The table-driven turbo lane against the object-DFA golden reference.

The turbo lane's contract is *observational equality* with
``fused_parse(use_tables=False)`` — the object-DFA route preserved as
the golden reference: identical trees (byte-identical serialization)
for accepted documents, identical exception type, message, location,
and path for rejected ones.  It earns that equality either by handling
a document inside its subset bit-for-bit, or by restarting into
``fused_parse`` and letting the reference produce the verdict — so the
property must hold over *hostile* corpora (the scanner-parity golden
set, CRLF documents, expansion bombs, the turbo scanner's edge cases),
not just clean ones.
"""

import pytest

from repro.core import bind
from repro.dom.serialize import serialize
from repro.errors import ReproError, XmlSyntaxError
from repro.ingest import (
    IngestFallback,
    fused_parse,
    legacy_parse,
    parse_typed,
    table_parse,
    validate_files,
)
from repro.schemas import (
    PURCHASE_ORDER_DOCUMENT,
    PURCHASE_ORDER_SCHEMA,
    XHTML_SUBSET_SCHEMA,
)
from repro.schemas.purchase_order import PURCHASE_ORDER_INVALID_DOCUMENTS
from repro.xsd import StreamingValidator, parse_schema
from tests.xml.test_line_endings import CRLF_PURCHASE_ORDER, GOLDEN
from tests.xml.test_parser import _expansion_bomb
from tests.xml.test_scanner_parity import ILL_FORMED, WELL_FORMED
from tests.xsd.test_stream_turbo import SCANNER_EDGES

XHTML_DOCUMENT = """\
<html>
  <head><title>turbo</title><meta name="k" content="v"/></head>
  <body>
    <h1>Heading <b>bold</b> tail</h1>
    <p>Mixed <i>content</i>, a <a href="/x">link</a>,<br/> &amp; more.</p>
    <ul><li>one</li><li>two</li></ul>
  </body>
</html>
"""


@pytest.fixture(scope="module")
def po_binding():
    return bind(PURCHASE_ORDER_SCHEMA)


@pytest.fixture(scope="module")
def xhtml_binding():
    return bind(XHTML_SUBSET_SCHEMA)


def _outcome(route, binding, text):
    """Collapse a parse to a comparable verdict tuple."""
    try:
        tree = route(binding, text)
    except (ReproError, IngestFallback) as error:
        return (
            type(error).__name__,
            getattr(error, "message", str(error)),
            getattr(error, "location", None),
            getattr(error, "path", None),
        )
    return ("ok", serialize(tree))


def _assert_parity(binding, text):
    golden = _outcome(
        lambda b, t: fused_parse(b, t, use_tables=False), binding, text
    )
    assert _outcome(table_parse, binding, text) == golden


class TestScannerParityCorpus:
    """The 60+ golden scanner documents, most far outside the PO schema:
    every one must produce the same verdict through both routes."""

    @pytest.mark.parametrize("name", sorted(WELL_FORMED))
    def test_well_formed(self, po_binding, name):
        _assert_parity(po_binding, WELL_FORMED[name])

    @pytest.mark.parametrize("name", sorted(ILL_FORMED))
    def test_ill_formed(self, po_binding, name):
        _assert_parity(po_binding, ILL_FORMED[name])


class TestLineEndingCorpus:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_line_endings(self, po_binding, name):
        document, _expected = GOLDEN[name]
        _assert_parity(po_binding, document)

    def test_crlf_purchase_order(self, po_binding):
        _assert_parity(po_binding, CRLF_PURCHASE_ORDER)
        # ...and the accepted tree equals the legacy route's, i.e. the
        # CRLF normalization survived the turbo lane's restart.
        assert serialize(table_parse(po_binding, CRLF_PURCHASE_ORDER)) == (
            serialize(legacy_parse(po_binding, CRLF_PURCHASE_ORDER))
        )


class TestHostileDocuments:
    @pytest.mark.parametrize("where", ["content", "attribute"])
    def test_expansion_bomb(self, po_binding, where):
        _assert_parity(po_binding, _expansion_bomb(where=where))

    def test_unknown_root(self, po_binding):
        _assert_parity(po_binding, "<unknown><x/></unknown>")

    def test_doctype_document(self, po_binding):
        # DOCTYPE is outside the *fused* subset too: both routes must
        # raise the same IngestFallback signal.
        _assert_parity(
            po_binding, "<!DOCTYPE purchaseOrder><purchaseOrder/>"
        )


class TestSchemaVerdicts:
    @pytest.mark.parametrize("name", sorted(PURCHASE_ORDER_INVALID_DOCUMENTS))
    def test_invalid_documents(self, po_binding, name):
        _assert_parity(po_binding, PURCHASE_ORDER_INVALID_DOCUMENTS[name])

    def test_valid_purchase_order(self, po_binding):
        _assert_parity(po_binding, PURCHASE_ORDER_DOCUMENT)
        assert serialize(table_parse(
            po_binding, PURCHASE_ORDER_DOCUMENT
        )) == serialize(legacy_parse(po_binding, PURCHASE_ORDER_DOCUMENT))

    def test_valid_xhtml(self, xhtml_binding):
        _assert_parity(xhtml_binding, XHTML_DOCUMENT)

    def test_non_ascii_document(self, po_binding):
        # Non-ASCII text is inside the turbo subset (only names are
        # ASCII-only), so offsets are string indices throughout.
        text = PURCHASE_ORDER_DOCUMENT.replace(
            "Mill Valley", "Mill Vällé\U0001f600"
        )
        _assert_parity(po_binding, text)


class TestScannerEdges:
    @pytest.mark.parametrize("name", sorted(SCANNER_EDGES))
    def test_edge_case(self, po_binding, name):
        _assert_parity(po_binding, SCANNER_EDGES[name][0])

    def test_empty_reference_is_one_syntax_error(self, po_binding, tmp_path):
        """``&;`` leaves the turbo subset; every route reports the event
        parser's syntax error, and a bulk run records one failed verdict."""
        text = '<purchaseOrder orderDate="1999-10-20">&;</purchaseOrder>'
        message = "malformed entity reference '&;'"
        with pytest.raises(XmlSyntaxError, match=message):
            parse_typed(po_binding, text)
        with pytest.raises(XmlSyntaxError, match=message):
            StreamingValidator(parse_schema(PURCHASE_ORDER_SCHEMA)).validate_text(text)
        path = tmp_path / "empty-reference.xml"
        path.write_text(text, encoding="utf-8")
        report = validate_files(
            PURCHASE_ORDER_SCHEMA, [path], jobs=1, use_verdict_cache=False
        )
        assert report["summary"]["documents"] == 1
        assert report["summary"]["invalid"] == 1
        (record,) = report["files"]
        assert record["error_type"] == "XmlSyntaxError"
        assert message in record["error"]
