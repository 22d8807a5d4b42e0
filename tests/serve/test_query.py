"""One-pass query parsing: ``parse_query`` is ``dict(parse_qsl(...))``.

``parse_request`` feeds template holes from the query string.  Its
parser splits on ``&`` and partitions on the first ``=``, and decodes
only a name or value that holds ``%`` or ``+``; hypothesis holds it to
``dict(parse_qsl(query, keep_blank_values=True))`` for every query.
"""

from urllib.parse import parse_qsl

import pytest
from hypothesis import given, settings, strategies as st

from repro.serve import http
from repro.serve.http import parse_query, parse_request

#: the characters that steer query parsing, plus escapes good and bad
_PIECES = st.one_of(
    st.sampled_from(
        ["&", "=", "+", "%", "%20", "%2B", "%26", "%3D", "%e2%82%ac", "%ff",
         "%zz", "%4", "a", "b", "q0", "x y", "é", "€", ";"]
    ),
    st.text(max_size=3),
)
QUERIES = st.lists(_PIECES, max_size=12).map("".join)


class TestParity:
    @settings(max_examples=500, deadline=None)
    @given(query=QUERIES)
    def test_equals_parse_qsl(self, query):
        assert parse_query(query) == dict(
            parse_qsl(query, keep_blank_values=True)
        )

    @pytest.mark.parametrize(
        "query",
        ["", "&", "a", "a=", "=a", "a=1&a=2", "a=1&&b", "a+b=c+d",
         "a%20b=%2B", "x=%", "x=%zz&y=%e2%82%AC", "k=v=w"],
    )
    def test_edge_cases(self, query):
        assert parse_query(query) == dict(
            parse_qsl(query, keep_blank_values=True)
        )


class TestCost:
    def test_plain_pairs_never_unquote(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            http, "unquote", lambda text: calls.append(text) or text
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
        monkeypatch.setattr(
            http, "unquote", lambda text: calls.append(text) or real(text)
        )
        assert parse_query("a=1&b=x%20y&c+d=2") == {
            "a": "1", "b": "x y", "c d": "2"
        }
        assert calls == ["x%20y"]
