"""Counted work: Python-level calls per ``validate_text``.

A call count has no timing noise, so it can hold a hot path in place
where a timing pair cannot.  Each document here is validated by a warm
validator (every memo filled by two earlier walks of the same text),
and ``sys.setprofile`` counts the ``call`` events of the third walk:
Python functions only, not C functions, so the counts are the same on
CPython 3.10, 3.11 and 3.12.

:data:`CALLS` holds the counts of the turbo walk with the scanner's
``leaf`` call (one call per childless element).  A change that adds
work to the walk fails here once a count grows more than
:data:`TOLERANCE` above its entry; a change that adds work on purpose
raises the entry in the same diff and says why.
"""

import os
import sys

import pytest

from repro import obs
from repro.schemas import PURCHASE_ORDER_DOCUMENT, PURCHASE_ORDER_SCHEMA
from repro.xsd import StreamingValidator, parse_schema, parse_schema_file
from tests.integration import corpus_runner

#: document -> Python-level calls of one warm ``validate_text``
CALLS = {
    "po": 132,
    "cmdb/valid-plain.xml": 38,
    "cmdb/valid-xsi-type.xml": 46,
    "secreport/valid-rebound-prefixes.xml": 35,
    "secreport/valid-report.xml": 49,
    "techdoc/valid-manual.xml": 60,
    "techdoc/valid-prefixed.xml": 38,
}

#: how far above its entry a count may rise
TOLERANCE = 0.02


def _documents():
    yield "po", parse_schema(PURCHASE_ORDER_SCHEMA), PURCHASE_ORDER_DOCUMENT
    for family, case_dir in corpus_runner.iter_cases():
        schema = parse_schema_file(os.path.join(case_dir, "schema", "main.xsd"))
        for name, path, valid in corpus_runner.iter_instances(case_dir):
            if valid:
                with open(path, encoding="utf-8") as handle:
                    yield f"{family}/{name}", schema, handle.read()


DOCUMENTS = {name: (schema, text) for name, schema, text in _documents()}


def warm_calls(function, *args) -> int:
    """Python-level calls of ``function(*args)``, after two calls that
    fill every memo it keeps, with observation off."""
    was_enabled = obs.enabled()
    obs.disable()
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    try:
        function(*args)
        function(*args)
        sys.setprofile(profile)
        try:
            function(*args)
        finally:
            sys.setprofile(previous)
    finally:
        if was_enabled:
            obs.enable()
    return calls


def python_calls(validator: StreamingValidator, text: str) -> int:
    """Python-level calls of one warm ``validate_text`` of *text*."""
    assert validator.validate_text(text) == []
    return warm_calls(validator.validate_text, text)


def test_every_valid_instance_is_counted():
    assert sorted(DOCUMENTS) == sorted(CALLS)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_calls_per_document_stay_in_place(name):
    schema, text = DOCUMENTS[name]
    calls = python_calls(StreamingValidator(schema), text)
    assert calls <= CALLS[name] * (1 + TOLERANCE), (
        f"{name}: {calls} Python-level calls per validate_text, "
        f"committed {CALLS[name]}"
    )
