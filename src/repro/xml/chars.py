"""XML 1.0 character classes and name productions.

Implements the productions the rest of the stack relies on:

* ``Char``      (production 2)  — legal document characters,
* ``S``         (production 3)  — white space,
* ``NameStartChar`` / ``NameChar`` (productions 4/4a, 5th edition),
* ``Name``, ``Names``, ``Nmtoken`` (productions 5–8).

The ranges are transcribed from the specification rather than approximated
with :mod:`re` categories so that validity decisions are exact and
independent of the Python unicode database version.
"""

from __future__ import annotations

import functools
import re

# NameStartChar ranges, XML 1.0 5th edition production [4].
_NAME_START_RANGES: tuple[tuple[int, int], ...] = (
    (ord(":"), ord(":")),
    (ord("A"), ord("Z")),
    (ord("_"), ord("_")),
    (ord("a"), ord("z")),
    (0xC0, 0xD6),
    (0xD8, 0xF6),
    (0xF8, 0x2FF),
    (0x370, 0x37D),
    (0x37F, 0x1FFF),
    (0x200C, 0x200D),
    (0x2070, 0x218F),
    (0x2C00, 0x2FEF),
    (0x3001, 0xD7FF),
    (0xF900, 0xFDCF),
    (0xFDF0, 0xFFFD),
    (0x10000, 0xEFFFF),
)

# Additional NameChar ranges, production [4a].
_NAME_EXTRA_RANGES: tuple[tuple[int, int], ...] = (
    (ord("-"), ord("-")),
    (ord("."), ord(".")),
    (ord("0"), ord("9")),
    (0xB7, 0xB7),
    (0x300, 0x36F),
    (0x203F, 0x2040),
)

# Legal document characters, production [2].
_CHAR_RANGES: tuple[tuple[int, int], ...] = (
    (0x9, 0xA),
    (0xD, 0xD),
    (0x20, 0xD7FF),
    (0xE000, 0xFFFD),
    (0x10000, 0x10FFFF),
)

WHITESPACE = "\t\n\r "


def _in_ranges(codepoint: int, ranges: tuple[tuple[int, int], ...]) -> bool:
    for low, high in ranges:
        if low <= codepoint <= high:
            return True
    return False


def is_xml_char(char: str) -> bool:
    """Return ``True`` if *char* may appear anywhere in an XML document."""
    return _in_ranges(ord(char), _CHAR_RANGES)


def is_space(char: str) -> bool:
    """Return ``True`` for the XML ``S`` production characters."""
    return char in WHITESPACE


def is_name_start_char(char: str) -> bool:
    """Return ``True`` if *char* may start an XML Name."""
    return _in_ranges(ord(char), _NAME_START_RANGES)


def is_name_char(char: str) -> bool:
    """Return ``True`` if *char* may continue an XML Name."""
    codepoint = ord(char)
    return _in_ranges(codepoint, _NAME_START_RANGES) or _in_ranges(
        codepoint, _NAME_EXTRA_RANGES
    )


def is_name(text: str) -> bool:
    """Return ``True`` if *text* matches the ``Name`` production."""
    return _NAME_MATCH(text) is not None


def is_ncname(text: str) -> bool:
    """Return ``True`` for a Name with no colon (Namespaces production 4)."""
    return _NAME_MATCH(text) is not None and ":" not in text


def is_nmtoken(text: str) -> bool:
    """Return ``True`` if *text* matches the ``Nmtoken`` production."""
    return _NMTOKEN_MATCH(text) is not None


def _ranges_to_class(ranges: tuple[tuple[int, int], ...]) -> str:
    pieces: list[str] = []
    for low, high in ranges:
        if low == high:
            pieces.append(re_escape_char(chr(low)))
        else:
            pieces.append(f"{re_escape_char(chr(low))}-{re_escape_char(chr(high))}")
    return "".join(pieces)


def re_escape_char(char: str) -> str:
    """Escape one character for use inside a :mod:`re` character class."""
    if char in r"\^]-[":
        return "\\" + char
    return char


@functools.lru_cache(maxsize=None)
def name_start_class() -> str:
    """Regex-class body matching ``NameStartChar`` (for ``\\i``)."""
    return _ranges_to_class(_NAME_START_RANGES)


@functools.lru_cache(maxsize=None)
def name_char_class() -> str:
    """Regex-class body matching ``NameChar`` (for ``\\c``)."""
    return _ranges_to_class(_NAME_START_RANGES) + _ranges_to_class(
        _NAME_EXTRA_RANGES
    )


@functools.lru_cache(maxsize=None)
def char_class() -> str:
    """Regex-class body matching the ``Char`` production (legal chars)."""
    return _ranges_to_class(_CHAR_RANGES)


#: whole-string matchers for the name productions, compiled once from the
#: same ranges as the per-character predicates above (``fullmatch``, so a
#: trailing newline never passes the way ``$`` would let it)
_NAME_MATCH = re.compile(f"[{name_start_class()}][{name_char_class()}]*").fullmatch
_NMTOKEN_MATCH = re.compile(f"[{name_char_class()}]+").fullmatch

#: any character outside the ``Char`` production (one C-level scan
#: replaces the per-character ``is_xml_char`` loop)
ILLEGAL_CHAR = re.compile(f"[^{char_class()}]")


def illegal_char(text: str) -> str | None:
    """``"illegal character U+XXXX"`` for the first character of *text*
    outside ``Char``, or ``None`` when every character may appear in a
    document.  The parser reports the same words for such a character,
    so text built outside it (template holes, typed values) is refused
    as a document containing it would be."""
    bad = ILLEGAL_CHAR.search(text)
    if bad is None:
        return None
    return f"illegal character U+{ord(bad.group()):04X}"


# White space is exactly ``WHITESPACE`` (production [3]).  Python's own
# ``str.split()``/``str.strip()``/``str.isspace()`` also take NBSP,
# U+2028, U+3000 and the other Unicode spaces, so every "is this only
# white space" test strips ``WHITESPACE`` explicitly and every list
# split goes through :func:`split_whitespace`.


def replace_whitespace(text: str) -> str:
    """Apply the schema ``whiteSpace=replace`` normalization."""
    if "\t" in text or "\n" in text or "\r" in text:
        return text.replace("\t", " ").replace("\n", " ").replace("\r", " ")
    return text


def split_whitespace(text: str) -> list[str]:
    """The words of *text* between runs of XML white space."""
    return [word for word in replace_whitespace(text).split(" ") if word]


def collapse_whitespace(text: str) -> str:
    """Apply the schema ``whiteSpace=collapse`` normalization."""
    text = replace_whitespace(text)
    if "  " in text or text[:1] == " " or text[-1:] == " ":
        return " ".join(split_whitespace(text))
    return text
