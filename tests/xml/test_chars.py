"""XML character classes and name productions."""


from repro.xml.chars import (
    _NAME_EXTRA_RANGES,
    _NAME_START_RANGES,
    collapse_whitespace,
    is_name,
    is_name_char,
    is_name_start_char,
    is_ncname,
    is_nmtoken,
    is_space,
    is_xml_char,
    replace_whitespace,
    split_whitespace,
)


class TestNameStartChar:
    def test_ascii_letters_start_names(self):
        assert is_name_start_char("a")
        assert is_name_start_char("Z")
        assert is_name_start_char("_")
        assert is_name_start_char(":")

    def test_digits_do_not_start_names(self):
        assert not is_name_start_char("0")
        assert not is_name_start_char("9")

    def test_punctuation_does_not_start_names(self):
        for char in "-.!@ <>":
            assert not is_name_start_char(char)

    def test_unicode_letters_start_names(self):
        assert is_name_start_char("é")
        assert is_name_start_char("Ω")
        assert is_name_start_char("中")


class TestNameChar:
    def test_continuation_extras(self):
        for char in "-.0123456789·":
            assert is_name_char(char)

    def test_space_is_not_a_name_char(self):
        assert not is_name_char(" ")


class TestName:
    def test_simple_names(self):
        assert is_name("purchaseOrder")
        assert is_name("xsd:element")
        assert is_name("_private")
        assert is_name("a-b.c")

    def test_rejects_bad_names(self):
        assert not is_name("")
        assert not is_name("1abc")
        assert not is_name("-abc")
        assert not is_name("a b")

    def test_ncname_rejects_colon(self):
        assert is_ncname("local")
        assert not is_ncname("pre:local")


class TestNmtoken:
    def test_nmtoken_may_start_with_digit(self):
        assert is_nmtoken("123")
        assert is_nmtoken("-x")

    def test_empty_is_not_nmtoken(self):
        assert not is_nmtoken("")

    def test_space_breaks_nmtoken(self):
        assert not is_nmtoken("a b")


class TestCharClasses:
    def test_control_chars_are_illegal(self):
        assert not is_xml_char("\x00")
        assert not is_xml_char("\x0b")

    def test_whitespace_controls_are_legal(self):
        for char in "\t\n\r":
            assert is_xml_char(char)

    def test_space_production(self):
        assert is_space(" ")
        assert is_space("\t")
        assert not is_space("x")

    def test_supplementary_plane_is_legal(self):
        assert is_xml_char("\U0001F600")

    def test_surrogate_gap_is_illegal(self):
        assert not is_xml_char("\ud800")


class TestWhitespaceNormalization:
    def test_collapse(self):
        assert collapse_whitespace("  a \t b\n c  ") == "a b c"

    def test_collapse_empty(self):
        assert collapse_whitespace(" \n\t ") == ""

    def test_replace_keeps_length(self):
        text = "a\tb\nc\rd"
        assert replace_whitespace(text) == "a b c d"
        assert len(replace_whitespace(text)) == len(text)

    def test_only_production_s_is_white_space(self):
        # NBSP, U+3000, U+2028 and NEL are characters, not XML white space.
        for other in ("\xa0", "\u3000", "\u2028", "\x85", "\x0b"):
            text = f" a{other}b \t"
            assert collapse_whitespace(text) == f"a{other}b"
            assert replace_whitespace(other) == other
            assert split_whitespace(f"a {other} b") == ["a", other, "b"]

    def test_split(self):
        assert split_whitespace("  a \t b\r\n c  ") == ["a", "b", "c"]
        assert split_whitespace(" \n ") == []


def _name_by_chars(text: str) -> bool:
    """The Name production, one character at a time."""
    return (
        bool(text)
        and is_name_start_char(text[0])
        and all(is_name_char(char) for char in text[1:])
    )


def _nmtoken_by_chars(text: str) -> bool:
    return bool(text) and all(is_name_char(char) for char in text)


class TestCompiledNamePatterns:
    """The regex-backed name checks agree with the per-character
    predicates the reference parser steps through."""

    @staticmethod
    def _assert_agree(text: str) -> None:
        assert is_name(text) == _name_by_chars(text), repr(text)
        assert is_ncname(text) == (_name_by_chars(text) and ":" not in text), (
            repr(text)
        )
        assert is_nmtoken(text) == _nmtoken_by_chars(text), repr(text)

    def test_every_bmp_code_point(self):
        for codepoint in range(0x10000):
            char = chr(codepoint)
            self._assert_agree(char)
            self._assert_agree("a" + char)

    def test_range_boundaries_and_astral_code_points(self):
        probes = {0x10000, 0x1F600, 0x2A6D6, 0xEFFFF, 0xF0000, 0x10FFFF}
        for low, high in _NAME_START_RANGES + _NAME_EXTRA_RANGES:
            probes.update((low - 1, low, high, high + 1))
        for codepoint in sorted(probes):
            char = chr(codepoint)
            for text in (char, "a" + char, char + "a", "_" + char + "-"):
                self._assert_agree(text)

    def test_trailing_newline_is_not_a_name(self):
        for text in ("name\n", "pre:local\n", "123\n"):
            assert not is_name(text)
            assert not is_ncname(text)
            assert not is_nmtoken(text)
            self._assert_agree(text)

    def test_empty_string(self):
        assert not is_name("")
        assert not is_ncname("")
        assert not is_nmtoken("")
