"""Property-based tests on the simple-type system."""

import decimal

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimpleTypeError
from repro.xsd.regex import compile_pattern
from repro.xsd.simple import builtin_type, list_of, restrict

#: XML 1.0 production [2], ``Char``: the characters a document may hold
XML_CHARS = st.one_of(
    st.sampled_from("\t\n\r"),
    st.characters(min_codepoint=0x20, max_codepoint=0xD7FF),
    st.characters(min_codepoint=0xE000, max_codepoint=0xFFFD),
    st.characters(min_codepoint=0x10000, max_codepoint=0x10FFFF),
)

#: every code point outside ``Char``: C0 controls other than tab, line
#: feed and carriage return, the surrogates, U+FFFE and U+FFFF
NON_XML_CHARS = st.one_of(
    st.integers(0x0, 0x8),
    st.integers(0xB, 0xC),
    st.integers(0xE, 0x1F),
    st.integers(0xD800, 0xDFFF),
    st.integers(0xFFFE, 0xFFFF),
).map(chr)


class TestIntegerHierarchy:
    @settings(max_examples=200, deadline=None)
    @given(value=st.integers(min_value=-(10**20), max_value=10**20))
    def test_integer_roundtrip(self, value):
        assert builtin_type("integer").parse(str(value)) == value

    @settings(max_examples=200, deadline=None)
    @given(value=st.integers(min_value=-(10**6), max_value=10**6))
    def test_bounded_types_agree_with_their_ranges(self, value):
        for name, low, high in (
            ("byte", -128, 127),
            ("short", -32768, 32767),
            ("unsignedByte", 0, 255),
            ("positiveInteger", 1, None),
            ("nonPositiveInteger", None, 0),
        ):
            simple_type = builtin_type(name)
            in_range = (low is None or value >= low) and (
                high is None or value <= high
            )
            assert simple_type.is_valid(str(value)) == in_range


class TestDecimal:
    @settings(max_examples=200, deadline=None)
    @given(
        value=st.decimals(
            allow_nan=False, allow_infinity=False, places=6,
            min_value=decimal.Decimal("-1e12"),
            max_value=decimal.Decimal("1e12"),
        )
    )
    def test_decimal_roundtrip(self, value):
        literal = format(value, "f")
        assert builtin_type("decimal").parse(literal) == value

    @settings(max_examples=100, deadline=None)
    @given(
        bound=st.integers(-1000, 1000), value=st.integers(-1000, 1000)
    )
    def test_max_inclusive_boundary(self, bound, value):
        restricted = restrict(
            builtin_type("integer"), None, max_inclusive=str(bound)
        )
        assert restricted.is_valid(str(value)) == (value <= bound)


class TestWhitespaceInvariants:
    @settings(max_examples=100, deadline=None)
    @given(value=st.integers(0, 10**6), pads=st.text(alphabet=" \t\n", max_size=4))
    def test_collapse_types_ignore_padding(self, value, pads):
        literal = f"{pads}{value}{pads}"
        assert builtin_type("integer").parse(literal) == value
        assert builtin_type("token").parse(literal) == str(value)

    @settings(max_examples=100, deadline=None)
    @given(text=st.text(alphabet=XML_CHARS, max_size=30))
    def test_string_preserves_exactly(self, text):
        assert builtin_type("string").parse(text) == text

    @settings(max_examples=100, deadline=None)
    @given(
        head=st.text(alphabet=XML_CHARS, max_size=10),
        bad=NON_XML_CHARS,
        tail=st.text(max_size=10),
    )
    def test_string_refuses_non_char_text(self, head, bad, tail):
        # XSD Part 2: the value space of string is sequences of XML Char.
        literal = head + bad + tail
        for name in ("string", "normalizedString", "token", "anyURI"):
            with pytest.raises(SimpleTypeError) as raised:
                builtin_type(name).parse(literal)
            assert raised.value.message == (
                f"illegal character U+{ord(bad):04X}"
            )


class TestListTypes:
    @settings(max_examples=100, deadline=None)
    @given(items=st.lists(st.integers(0, 999), max_size=10))
    def test_list_roundtrip(self, items):
        list_type = list_of(builtin_type("integer"))
        literal = " ".join(str(item) for item in items)
        assert list_type.parse(literal) == tuple(items)

    @settings(max_examples=100, deadline=None)
    @given(items=st.lists(st.integers(0, 999), min_size=1, max_size=10))
    def test_list_length_facet_agreement(self, items):
        list_type = restrict(
            list_of(builtin_type("integer")), None, max_length=5
        )
        literal = " ".join(str(item) for item in items)
        assert list_type.is_valid(literal) == (len(items) <= 5)


class TestPatternAgreement:
    @settings(max_examples=200, deadline=None)
    @given(text=st.text(alphabet="0123456789-ABZ", max_size=8))
    def test_sku_pattern_agrees_with_translated_regex(self, text):
        sku = restrict(
            builtin_type("string"), None, patterns=(r"\d{3}-[A-Z]{2}",)
        )
        regex = compile_pattern(r"\d{3}-[A-Z]{2}")
        assert sku.is_valid(text) == (regex.fullmatch(text) is not None)


class TestUnionOrder:
    @settings(max_examples=100, deadline=None)
    @given(value=st.integers(-(10**6), 10**6))
    def test_union_prefers_first_member(self, value):
        from repro.xsd.simple import union_of

        union = union_of((builtin_type("integer"), builtin_type("string")))
        parsed = union.parse(str(value))
        assert parsed == value
        assert isinstance(parsed, int)
