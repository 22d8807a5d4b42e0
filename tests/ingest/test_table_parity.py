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
from hypothesis import given, settings

from repro.core import bind
from repro.dom.serialize import serialize
from repro.errors import (
    ReproError,
    UnsupportedFeatureError,
    VdomTypeError,
    XmlSyntaxError,
)
from repro.ingest import (
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
from repro.ingest.fused import _TypedWalk
from repro.schemas.purchase_order import PURCHASE_ORDER_INVALID_DOCUMENTS
from repro.xml import turbo
from repro.xsd import StreamingValidator, parse_schema
from tests.xml.test_line_endings import CRLF_PURCHASE_ORDER, GOLDEN
from tests.xml.test_parser import _expansion_bomb
from tests.xml.test_scanner_parity import ILL_FORMED, WELL_FORMED
from tests.xsd.test_stream_turbo import (
    LEAF_CASES,
    LEAF_SCHEMA,
    SCANNER_EDGES,
    SplitLeaves,
    _counters,
    leaf_documents,
    purchase_orders,
)

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
    except ReproError as error:
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
    assert_leaf_calls_split(binding, text)


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
        # DOCTYPE is outside the turbo subset: the table route restarts
        # and both routes give the same verdict.
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


# -- the scanner's leaf call ---------------------------------------------------------

BINDINGS = {"po": bind(PURCHASE_ORDER_SCHEMA), "leaf": bind(LEAF_SCHEMA)}


def typed_walk_outcome(binding, text, split=False):
    """One turbo walk of *text* into the typed handlers, without the
    fused route behind it: the tree with each element's class and
    incremental-append state, the refusal, or the restart."""
    walk = _TypedWalk(binding, use_tables=True)
    try:
        turbo.scan(text, SplitLeaves(walk) if split else walk, {})
    except turbo._Restart as restart:
        return ("restart", restart.reason)
    except (VdomTypeError, UnsupportedFeatureError) as error:
        return (type(error).__name__, str(error))
    elements = [walk.root, *walk.root.iter_descendants()]
    return (
        "ok",
        serialize(walk.root),
        [
            (type(node).__name__, node._content_state)
            for node in elements
            if hasattr(node, "_content_state")
        ],
    )


def assert_leaf_calls_split(binding, text):
    """The typed ``leaf`` call gives what its three calls give: the
    same tree, the same exception and message, or the same restart."""
    whole = typed_walk_outcome(binding, text)
    assert whole == typed_walk_outcome(binding, text, split=True), text
    return whole


class TestLeafPath:
    @pytest.mark.parametrize("name", sorted(LEAF_CASES))
    def test_parity(self, name):
        _assert_parity(BINDINGS["leaf"], LEAF_CASES[name][0])

    @pytest.mark.parametrize("name", sorted(LEAF_CASES))
    def test_restart_reasons(self, name):
        """``ingest.turbo`` counts the walk's outcome: a hit, the
        restart ``xsd.stream`` names, or a validation restart when a
        typed check refused the document before the scanner left its
        subset."""
        text, reason = LEAF_CASES[name]
        binding = BINDINGS["leaf"]

        def ingest():
            try:
                table_parse(binding, text)
            except ReproError:
                pass  # only the lane counter is of interest here

        routes = {
            key: value for key, value in _counters(ingest).items()
            if key.startswith("ingest.turbo{")
        }
        kind, detail = assert_leaf_calls_split(binding, text)[:2]
        if kind == "ok":
            assert reason is None
            assert routes == {"ingest.turbo{outcome=hit}": 1}
        elif kind == "restart":
            assert detail == reason
            assert routes == {f"ingest.turbo{{outcome=restart,reason={reason}}}": 1}
        else:
            assert routes == {"ingest.turbo{outcome=restart,reason=validation}": 1}

    def test_cases_reach_the_typed_leaf(self):
        """Guard the fixed cases: typed leaves are built, refused on
        their value and fixed value, and refused as misplaced."""
        outcomes = [
            assert_leaf_calls_split(BINDINGS["leaf"], text)
            for text, _ in LEAF_CASES.values()
        ]
        messages = " ".join(str(outcome[1]) for outcome in outcomes)
        assert any(outcome[:2] == ("ok", "<n>77</n>") for outcome in outcomes)
        for fragment in (
            "is above maxInclusive",
            "must have the fixed value 'on'",
            "is not a valid integer literal",
            "is not allowed inside <n>",
        ):
            assert fragment in messages, fragment


class TestGeneratedDocuments:
    @settings(max_examples=150, deadline=None)
    @given(
        purchase_orders().map(lambda text: ("po", text))
        | leaf_documents().map(lambda text: ("leaf", text))
    )
    def test_table_route_matches_reference_route(self, document):
        kind, text = document
        _assert_parity(BINDINGS[kind], text)
