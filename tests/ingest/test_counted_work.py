"""Counted work: Python-level calls per ``parse_typed``.

The method of ``tests/xsd/test_counted_work.py``: each document is
ingested by a warm binding (its memos filled by two earlier parses of
the same text), and ``sys.setprofile`` counts the ``call`` events of the
third parse with observation off.  Python functions only, so the counts
are the same on CPython 3.10, 3.11 and 3.12.

:data:`CALLS` holds the counts of the turbo lane, with each frame
holding the verdict walker's facts and each class its bind-time
attribute tables.  A change that adds work to typed ingest fails here
once a count grows more than ``TOLERANCE`` above its entry; a change
that adds work on purpose raises the entry in the same diff and says
why.
"""

import pytest

from repro.core import bind
from repro.ingest import parse_typed
from repro.schemas import (
    PURCHASE_ORDER_DOCUMENT,
    PURCHASE_ORDER_SCHEMA,
    WML_DIRECTORY_DOCUMENT,
    WML_SCHEMA,
)
from tests.xsd.test_counted_work import TOLERANCE, warm_calls

#: document -> Python-level calls of one warm ``parse_typed``
CALLS = {
    "purchase-order": 227,
    "wml-directory": 152,
}

DOCUMENTS = {
    "purchase-order": (PURCHASE_ORDER_SCHEMA, PURCHASE_ORDER_DOCUMENT),
    "wml-directory": (WML_SCHEMA, WML_DIRECTORY_DOCUMENT),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_calls_per_document_stay_in_place(name):
    schema, text = DOCUMENTS[name]
    calls = warm_calls(parse_typed, bind(schema), text)
    assert calls <= CALLS[name] * (1 + TOLERANCE), (
        f"{name}: {calls} Python-level calls per parse_typed, "
        f"committed {CALLS[name]}"
    )
