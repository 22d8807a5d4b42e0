"""One-pass query parsing: ``parse_query`` is ``dict(parse_qsl(...))``.

``parse_request`` feeds template holes from the query string.  Its
parser splits on ``&`` and partitions on the first ``=``, and decodes
only a name or value that holds ``%`` or ``+``; hypothesis holds it to
``dict(parse_qsl(query, keep_blank_values=True, errors="strict"))`` for
every query, and to a 400 wherever that raises: an escape that is not
UTF-8 never reaches a hole as U+FFFD.
"""

from urllib.parse import parse_qsl

import pytest
from hypothesis import given, settings, strategies as st

from repro.serve import http
from repro.serve.http import HttpError, parse_query, parse_request

#: the characters that steer query parsing, plus escapes good and bad
_PIECES = st.one_of(
    st.sampled_from(
        ["&", "=", "+", "%", "%20", "%2B", "%26", "%3D", "%e2%82%ac", "%ff",
         "%zz", "%4", "a", "b", "q0", "x y", "é", "€", ";"]
    ),
    st.text(max_size=3),
)
QUERIES = st.lists(_PIECES, max_size=12).map("".join)


def expected(query):
    """The strict ``parse_qsl`` answer, or :class:`HttpError` where it
    raises."""
    try:
        return dict(parse_qsl(query, keep_blank_values=True, errors="strict"))
    except UnicodeDecodeError:
        return HttpError


def parsed(query):
    try:
        return parse_query(query)
    except HttpError as error:
        assert error.status == 400, error
        return HttpError


class TestParity:
    @settings(max_examples=500, deadline=None)
    @given(query=QUERIES)
    def test_equals_parse_qsl(self, query):
        assert parsed(query) == expected(query)

    @pytest.mark.parametrize(
        "query",
        ["", "&", "a", "a=", "=a", "a=1&a=2", "a=1&&b", "a+b=c+d",
         "a%20b=%2B", "x=%", "x=%zz&y=%e2%82%AC", "k=v=w", "name=%FF",
         "%c3=1", "a=%e2%82"],
    )
    def test_edge_cases(self, query):
        assert parsed(query) == expected(query)


class TestCost:
    def test_plain_pairs_never_unquote(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            http,
            "unquote",
            lambda text, errors="replace": calls.append(text) or text,
        )
        query = "&".join(f"p{i}={100 + i}-AB&q{i}={i}" for i in range(450))
        request = parse_request(f"GET /order?{query} HTTP/1.1".encode())
        assert len(request.query) == 900
        assert request.query["p449"] == "549-AB"
        # Only the (plain) path went through unquote.
        assert calls == ["/order"]

    def test_only_escaped_components_unquote(self, monkeypatch):
        calls = []
        real = http.unquote

        def unquote(text, errors="replace"):
            calls.append(text)
            return real(text, errors=errors)

        monkeypatch.setattr(http, "unquote", unquote)
        assert parse_query("a=1&b=x%20y&c+d=2") == {
            "a": "1", "b": "x y", "c d": "2"
        }
        assert calls == ["x%20y"]
