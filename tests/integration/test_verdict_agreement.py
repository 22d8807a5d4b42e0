"""Every ``validate`` entry point gives a document the same verdict.

``StreamingValidator.validate_text`` is the one verdict walker.
``validate_files`` (inline and pooled), single-document
``vdom-generate validate`` and the same command over several documents
all answer through it, so a document's verdict cannot depend on how it
was submitted.  The records and the CLI output carry the walker's own
errors.  The DOM ``SchemaValidator`` stays an independent oracle for
the valid/invalid bit; it is recursive, so the 3,000-deep page is left
out of that comparison.  Typed ingest (``parse_typed``) gives the same
bit, or refuses with ``UnsupportedFeatureError`` what its typed tree
cannot hold: namespaced schemas, ``xsi:type`` and the content of
``xs:anyType`` elements.
"""

import contextlib
import io

import pytest

from repro.cli import main
from repro.core import bind
from repro.dom import parse_document
from repro.errors import ReproError, UnsupportedFeatureError, XmlSyntaxError
from repro.ingest import parse_typed, validate_files
from repro.schemas import (
    PURCHASE_ORDER_DOCUMENT,
    PURCHASE_ORDER_SCHEMA,
    XHTML_SUBSET_SCHEMA,
)
from repro.schemas.purchase_order import PURCHASE_ORDER_INVALID_DOCUMENTS
from repro.schemas.variants import ADDRESS_EXTENSION_SCHEMA
from repro.xsd import SchemaValidator, StreamingValidator, parse_schema
from tests.ingest.test_namespaced_bulk import INVALID as NS_INVALID
from tests.ingest.test_namespaced_bulk import NS_SCHEMA
from tests.ingest.test_namespaced_bulk import VALID as NS_VALID
from tests.xsd.test_xsi_type import BASE_ENTRY, US_ENTRY

ANY_TYPE_SCHEMA = """\
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="any" type="xsd:anyType"/>
</xsd:schema>
"""

DEPTH = 3000

DEEP_PAGE = (
    "<html><head><title>deep</title></head><body><p>"
    + "<b>" * DEPTH
    + "x"
    + "</b>" * DEPTH
    + "</p></body></html>"
)

#: schema name -> (schema text, a document valid against it)
SCHEMAS = {
    "po": (PURCHASE_ORDER_SCHEMA, PURCHASE_ORDER_DOCUMENT),
    "address": (ADDRESS_EXTENSION_SCHEMA, BASE_ENTRY),
    "any": (ANY_TYPE_SCHEMA, "<any/>"),
    "xhtml": (
        XHTML_SUBSET_SCHEMA,
        "<html><head><title>t</title></head><body/></html>",
    ),
    "ns": (NS_SCHEMA, NS_VALID),
}

#: case -> (schema name, document, known answer: valid?)
CASES = {
    "po-valid": ("po", PURCHASE_ORDER_DOCUMENT, True),
    **{
        f"po-{name}": ("po", text, False)
        for name, text in PURCHASE_ORDER_INVALID_DOCUMENTS.items()
    },
    "po-child-in-simple-leaf": (
        "po",
        PURCHASE_ORDER_DOCUMENT.replace(
            "<quantity>1</quantity>", "<quantity><b>1</b></quantity>"
        ),
        False,
    ),
    "po-child-between-text": (
        "po",
        PURCHASE_ORDER_DOCUMENT.replace(
            "<name>Alice Smith</name>", "<name>Alice <zip>x</zip>Smith</name>"
        ),
        False,
    ),
    "po-doctype-entity": (
        "po",
        '<!DOCTYPE purchaseOrder [<!ENTITY who "Alice">]>\n'
        + PURCHASE_ORDER_DOCUMENT.replace("Alice Smith", "&who; Smith"),
        True,
    ),
    "po-truncated": (
        "po",
        PURCHASE_ORDER_DOCUMENT[: len(PURCHASE_ORDER_DOCUMENT) // 2],
        False,
    ),
    "xsi-type-base": ("address", BASE_ENTRY, True),
    "xsi-type-us-address": ("address", US_ENTRY, True),
    "xsi-type-unknown": (
        "address",
        US_ENTRY.replace("USAddress", "MartianAddress"),
        False,
    ),
    "any-type-children": ("any", '<any><x>1</x><y a="b"><z/></y></any>', True),
    "xhtml-deep": ("xhtml", DEEP_PAGE, True),
    "ns-good": ("ns", NS_VALID, True),
    "ns-bad": ("ns", NS_INVALID, False),
}

#: too deep for the recursive DOM walk
NO_DOM_ORACLE = {"xhtml-deep"}

#: valid documents whose typed tree typed ingest cannot build
TYPED_REFUSALS = {"xsi-type-us-address", "any-type-children"}


def _walker(schema, text):
    """The walker's errors, or ``[syntax error]``."""
    try:
        return StreamingValidator(schema).validate_text(text)
    except XmlSyntaxError as error:
        return [error]


def _typed(binding, text):
    """``parse_typed``'s answer: valid?, or ``"refused"``."""
    try:
        parse_typed(binding, text)
    except UnsupportedFeatureError:
        return "refused"
    except ReproError:
        return False
    return True


def _dom_valid(schema, text):
    try:
        document = parse_document(text)
    except XmlSyntaxError:
        return False
    return not SchemaValidator(schema).validate(document)


def _cli(argv):
    """``(exit code, stdout, stderr)`` of one in-process CLI run; an
    escaping exception stands in for the exit code, so a crash fails
    its own case rather than the whole module."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as error:  # noqa: BLE001 - a crash is the answer
            code = repr(error)[:200]
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def answers(tmp_path_factory):
    """Every producer's answer for every case, one pass per schema."""
    results = {}
    for schema_name, (schema_text, companion_text) in SCHEMAS.items():
        directory = tmp_path_factory.mktemp(schema_name)
        xsd = directory / "schema.xsd"
        xsd.write_text(schema_text, encoding="utf-8")
        companion = directory / "companion.xml"
        companion.write_text(companion_text, encoding="utf-8")
        schema = parse_schema(schema_text)
        binding = bind(schema_text)
        names = [name for name, case in CASES.items() if case[0] == schema_name]
        paths = []
        for name in names:
            path = directory / f"{name}.xml"
            path.write_text(CASES[name][1], encoding="utf-8")
            paths.append(str(path))
        inline = validate_files(schema_text, paths)["files"]
        pooled = validate_files(schema_text, paths, jobs=2, clamp_jobs=False)[
            "files"
        ]
        for name, path, inline_record, pooled_record in zip(
            names, paths, inline, pooled
        ):
            text = CASES[name][1]
            results[name] = {
                "walker": _walker(schema, text),
                "inline": inline_record,
                "pooled": pooled_record,
                "cli": _cli(["--no-cache", "validate", str(xsd), path]),
                "cli_two": _cli(
                    ["--no-cache", "validate", str(xsd), path, str(companion)]
                ),
                "dom": (
                    None if name in NO_DOM_ORACLE else _dom_valid(schema, text)
                ),
                "typed": _typed(binding, text),
                "path": path,
            }
    return results


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_producer_agrees(answers, name):
    expected = CASES[name][2]
    answer = answers[name]
    assert (not answer["walker"]) is expected
    assert answer["inline"]["valid"] is expected
    assert answer["pooled"]["valid"] is expected
    code, _out, _err = answer["cli"]
    assert (code == 0) is expected
    code, out, _err = answer["cli_two"]
    assert (code == 0) is expected
    status = "ok  " if expected else "FAIL"
    assert any(
        line.startswith(f"{status} {answer['path']}") for line in out.splitlines()
    )
    if answer["dom"] is not None:
        assert answer["dom"] is expected


@pytest.mark.parametrize("name", sorted(CASES))
def test_messages_are_the_walkers(answers, name):
    answer = answers[name]
    errors = answer["walker"]
    first = str(errors[0]) if errors else None
    for record in (answer["inline"], answer["pooled"]):
        assert record["error"] == first
    code, out, err = answer["cli"]
    if errors and isinstance(errors[0], XmlSyntaxError):
        assert (out, err) == ("", f"error: {errors[0]}\n")
    else:
        assert out.splitlines() == [
            *(str(error) for error in errors),
            f"{len(errors)} error(s)",
        ]


@pytest.mark.parametrize("name", sorted(CASES))
def test_typed_ingest_agrees_or_refuses(answers, name):
    schema_name, _text, expected = CASES[name]
    if schema_name == "ns" or name in TYPED_REFUSALS:
        assert answers[name]["typed"] == "refused"
    else:
        assert answers[name]["typed"] is expected
