"""The HTTP/1.1 message layer: strict parsing, exact framing."""

import pytest

from repro.errors import ReproError
from repro.serve.http import (
    HttpError,
    build_response,
    error_response,
    parse_request,
)


def _parse(text: str):
    return parse_request(text.encode())


class TestParseRequest:
    def test_basic_get(self):
        request = _parse("GET /page HTTP/1.1\r\nHost: localhost")
        assert request.method == "GET"
        assert request.path == "/page"
        assert request.query == {}
        assert request.version == "HTTP/1.1"
        assert request.headers["host"] == "localhost"

    def test_query_string_decodes(self):
        request = _parse("GET /ship_to?name=Alice%20Smith&x=&y=1 HTTP/1.1")
        assert request.path == "/ship_to"
        assert request.query == {"name": "Alice Smith", "x": "", "y": "1"}

    def test_percent_encoded_path(self):
        assert _parse("GET /a%20b HTTP/1.1").path == "/a b"

    @pytest.mark.parametrize(
        "target, path, query",
        [
            ("//evil/ship_to?name=A", "//evil/ship_to", {"name": "A"}),
            ("//x/-/stats", "//x/-/stats", {}),
            ("//ship_to", "//ship_to", {}),
            ("//[x/ship_to", "//[x/ship_to", {}),
            ("/ship_to?next=//evil/x", "/ship_to", {"next": "//evil/x"}),
            ("/a?b=1#part", "/a", {"b": "1"}),
            ("/a#part?b=1", "/a", {}),
        ],
    )
    def test_origin_form_target_splits_at_the_first_question_mark(
        self, target, path, query
    ):
        """The path is the target up to its first '?', so a leading
        ``//`` is part of it, not an authority; a fragment is dropped."""
        request = _parse(f"GET {target} HTTP/1.1")
        assert (request.path, request.query) == (path, query)
        assert request.target == target

    def test_header_names_lowercase_values_stripped(self):
        request = _parse("GET / HTTP/1.1\r\nX-ThInG:   padded value  ")
        assert request.headers["x-thing"] == "padded value"

    def test_http_10_accepted(self):
        assert _parse("GET / HTTP/1.0").version == "HTTP/1.0"

    @pytest.mark.parametrize(
        "head",
        [
            "GET /",  # two-part request line
            "GET / HTTP/1.1 extra",  # four-part
            "get / HTTP/1.1",  # lowercase method
            "G3T / HTTP/1.1",  # non-alpha method
            "GET / HTTP/2",  # unsupported version
            "GET http://example.com/ HTTP/1.1",  # absolute-form target
            "GET / HTTP/1.1\r\nno-colon-here",  # header without ':'
            "GET / HTTP/1.1\r\n Name: leading-space",  # padded name
        ],
    )
    def test_malformed_heads_raise_400(self, head):
        with pytest.raises(HttpError) as info:
            _parse(head)
        assert info.value.status == 400

    def test_non_ascii_head_raises_400(self):
        with pytest.raises(HttpError) as info:
            parse_request("GET /café HTTP/1.1".encode("utf-8"))
        assert info.value.status == 400

    def test_http_error_is_a_repro_error(self):
        with pytest.raises(ReproError):
            _parse("GET /")


class TestContentLength:
    def test_absent_means_zero(self):
        assert _parse("GET / HTTP/1.1").content_length == 0

    def test_parsed(self):
        request = _parse("POST / HTTP/1.1\r\nContent-Length: 42")
        assert request.content_length == 42

    @pytest.mark.parametrize(
        "value", ["nan", "-1", "1.5", "", "+5", "-0", "0_4", "5, 50"]
    )
    def test_malformed_raises_400(self, value):
        request = _parse(f"POST / HTTP/1.1\r\nContent-Length: {value}")
        with pytest.raises(HttpError) as info:
            request.content_length
        assert info.value.status == 400

    def test_differing_repeated_values_raise_400(self):
        request = _parse(
            "POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 50"
        )
        assert request.headers["content-length"] == "5, 50"
        with pytest.raises(HttpError) as info:
            request.content_length
        assert info.value.status == 400

    def test_identical_repeated_values_are_one_length(self):
        request = _parse(
            "POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5"
        )
        assert request.content_length == 5

    @pytest.mark.parametrize("length", ["", "\r\nContent-Length: 4"])
    def test_transfer_encoding_raises_501(self, length):
        request = _parse(
            f"POST / HTTP/1.1\r\nTransfer-Encoding: chunked{length}"
        )
        with pytest.raises(HttpError) as info:
            request.content_length
        assert info.value.status == 501


class TestKeepAlive:
    @pytest.mark.parametrize(
        ("head", "expected"),
        [
            ("GET / HTTP/1.1", True),  # 1.1 defaults on
            ("GET / HTTP/1.1\r\nConnection: close", False),
            ("GET / HTTP/1.1\r\nConnection: Close", False),
            ("GET / HTTP/1.0", False),  # 1.0 defaults off
            ("GET / HTTP/1.0\r\nConnection: keep-alive", True),
        ],
    )
    def test_matrix(self, head, expected):
        assert _parse(head).wants_keep_alive() is expected


class TestBuildResponse:
    def test_framing(self):
        response = build_response(200, b"hello", "text/plain")
        head, _, body = response.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        assert lines[0] == b"HTTP/1.1 200 OK"
        assert b"Content-Length: 5" in lines
        assert b"Content-Type: text/plain" in lines
        assert b"Connection: keep-alive" in lines
        assert body == b"hello"

    def test_head_only_keeps_content_length_drops_body(self):
        response = build_response(200, b"hello", head_only=True)
        assert b"Content-Length: 5" in response
        assert not response.endswith(b"hello")
        assert response.endswith(b"\r\n\r\n")

    def test_extra_headers(self):
        response = build_response(
            405, b"", extra_headers=(("Allow", "GET, HEAD"),)
        )
        assert b"Allow: GET, HEAD\r\n" in response

    def test_error_response_closes_by_default(self):
        response = error_response(400, "bad")
        assert b"Connection: close" in response
        assert b"400 Bad Request: bad\n" in response


class TestValidatorsAndDate:
    def test_every_builder_emits_a_date_header(self):
        from repro.serve.http import not_modified_response

        for response in (
            build_response(200, b"x"),
            error_response(400, "bad"),
            not_modified_response('"e"'),
        ):
            assert b"\r\nDate: " in response
            assert response.split(b"\r\nDate: ")[1].split(b"\r\n")[0].endswith(
                b" GMT"
            )

    def test_http_date_memoizes_within_a_second(self):
        from repro.serve import http as http_module

        first = http_module.http_date()
        assert http_module.http_date() is first  # same object: memo hit

    def test_not_modified_has_no_body_and_no_content_length(self):
        from repro.serve.http import not_modified_response

        response = not_modified_response('"abc"', keep_alive=True)
        assert response.startswith(b"HTTP/1.1 304 Not Modified\r\n")
        assert b"Content-Length" not in response
        assert b'ETag: "abc"\r\n' in response
        assert response.endswith(b"\r\n\r\n")
