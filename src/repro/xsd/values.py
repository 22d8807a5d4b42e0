"""Value-space parsing for the XML Schema primitive types.

Each ``parse_*`` function maps a whitespace-normalized literal to a Python
value, raising :class:`~repro.errors.SimpleTypeError` when the literal is
outside the type's lexical space.  Canonical-form writers (``canonical_*``)
support round-tripping and enumeration comparison.
"""

from __future__ import annotations

import datetime
import decimal
import re
from dataclasses import dataclass

from repro.errors import SimpleTypeError
from repro.xml.chars import ILLEGAL_CHAR, illegal_char, is_name, is_ncname, is_nmtoken

_BOOLEAN_VALUES = {"true": True, "1": True, "false": False, "0": False}

# Digits are spelled ``[0-9]``: ``\d`` would take every Unicode digit,
# and ``int``/``Decimal``/``datetime`` then read ``'٣'`` as 3, while the
# lexical spaces of XML Schema Part 2 allow ASCII digits only.

_DECIMAL_RE = re.compile(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)\Z")
_INTEGER_RE = re.compile(r"[+-]?[0-9]+\Z")
_FLOAT_RE = re.compile(
    r"([+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?|[+-]?INF|NaN)\Z"
)
_DATE_RE = re.compile(
    r"(?P<sign>-?)(?P<year>[0-9]{4,})-(?P<month>[0-9]{2})-(?P<day>[0-9]{2})"
    r"(?P<tz>Z|[+-][0-9]{2}:[0-9]{2})?\Z"
)
_TIME_RE = re.compile(
    r"(?P<hour>[0-9]{2}):(?P<minute>[0-9]{2}):(?P<second>[0-9]{2})"
    r"(?P<fraction>\.[0-9]+)?(?P<tz>Z|[+-][0-9]{2}:[0-9]{2})?\Z"
)
_DATETIME_RE = re.compile(
    r"(?P<sign>-?)(?P<year>[0-9]{4,})-(?P<month>[0-9]{2})-(?P<day>[0-9]{2})"
    r"T(?P<hour>[0-9]{2}):(?P<minute>[0-9]{2}):(?P<second>[0-9]{2})"
    r"(?P<fraction>\.[0-9]+)?(?P<tz>Z|[+-][0-9]{2}:[0-9]{2})?\Z"
)
_GYEAR_RE = re.compile(r"-?[0-9]{4,}(Z|[+-][0-9]{2}:[0-9]{2})?\Z")
_GYEARMONTH_RE = re.compile(
    r"-?[0-9]{4,}-[0-9]{2}(Z|[+-][0-9]{2}:[0-9]{2})?\Z"
)
_GMONTHDAY_RE = re.compile(
    r"--[0-9]{2}-[0-9]{2}(Z|[+-][0-9]{2}:[0-9]{2})?\Z"
)
_GDAY_RE = re.compile(r"---[0-9]{2}(Z|[+-][0-9]{2}:[0-9]{2})?\Z")
_GMONTH_RE = re.compile(r"--[0-9]{2}(Z|[+-][0-9]{2}:[0-9]{2})?\Z")
_DURATION_RE = re.compile(
    r"(?P<sign>-?)P"
    r"(?:(?P<years>[0-9]+)Y)?(?:(?P<months>[0-9]+)M)?(?:(?P<days>[0-9]+)D)?"
    r"(?:T(?:(?P<hours>[0-9]+)H)?(?:(?P<minutes>[0-9]+)M)?"
    r"(?:(?P<seconds>[0-9]+(\.[0-9]+)?)S)?)?\Z"
)
_HEX_RE = re.compile(r"([0-9a-fA-F]{2})*\Z")
_BASE64_RE = re.compile(r"[A-Za-z0-9+/]*={0,2}\Z")
_LANGUAGE_RE = re.compile(r"[a-zA-Z]{1,8}(-[a-zA-Z0-9]{1,8})*\Z")
#: bound once: the string kernel runs for every typed hole and value
_find_illegal_char = ILLEGAL_CHAR.search


@dataclass(frozen=True, order=True)
class Duration:
    """An ``xsd:duration`` value, kept in its two partial components.

    Durations only partially order in general; this model compares by
    (months, seconds), which is exact for values used in facets as long
    as both components move in the same direction — sufficient here.
    """

    months: int = 0
    seconds: decimal.Decimal = decimal.Decimal(0)

    def __str__(self) -> str:
        if self.months == 0 and self.seconds == 0:
            return "PT0S"
        sign = "-" if (self.months < 0 or self.seconds < 0) else ""
        months = abs(self.months)
        seconds = abs(self.seconds)
        pieces = [sign, "P"]
        years, months = divmod(months, 12)
        if years:
            pieces.append(f"{years}Y")
        if months:
            pieces.append(f"{months}M")
        days, rest = divmod(seconds, 86400)
        hours, rest = divmod(rest, 3600)
        minutes, rest = divmod(rest, 60)
        if days:
            pieces.append(f"{int(days)}D")
        if hours or minutes or rest:
            pieces.append("T")
            if hours:
                pieces.append(f"{int(hours)}H")
            if minutes:
                pieces.append(f"{int(minutes)}M")
            if rest:
                pieces.append(f"{rest.normalize()}S")
        return "".join(pieces)


def _fail(type_name: str, literal: str) -> SimpleTypeError:
    return SimpleTypeError(
        f"'{literal}' is not a valid {type_name} literal"
    )


def parse_string(literal: str) -> str:
    # XSD Part 2 §3.2.1: the value space of string is the finite
    # sequences of XML ``Char``s, so a literal no document could carry
    # is refused here rather than written out as ill-formed markup.
    if _find_illegal_char(literal) is not None:
        raise SimpleTypeError(illegal_char(literal))
    return literal


def parse_boolean(literal: str) -> bool:
    if literal not in _BOOLEAN_VALUES:
        raise _fail("boolean", literal)
    return _BOOLEAN_VALUES[literal]


def parse_decimal(literal: str) -> decimal.Decimal:
    if not _DECIMAL_RE.match(literal):
        raise _fail("decimal", literal)
    return decimal.Decimal(literal)


def parse_integer(literal: str) -> int:
    if not _INTEGER_RE.match(literal):
        raise _fail("integer", literal)
    return int(literal)


def parse_float(literal: str) -> float:
    if not _FLOAT_RE.match(literal):
        raise _fail("float", literal)
    if literal == "INF":
        return float("inf")
    if literal == "-INF":
        return float("-inf")
    if literal == "NaN":
        return float("nan")
    return float(literal)


def _parse_timezone(token: str | None) -> datetime.timezone | None:
    if token is None:
        return None
    if token == "Z":
        return datetime.timezone.utc
    sign = 1 if token[0] == "+" else -1
    hours = int(token[1:3])
    minutes = int(token[4:6])
    if hours > 14 or minutes > 59:
        raise SimpleTypeError(f"'{token}' is not a valid timezone offset")
    return datetime.timezone(sign * datetime.timedelta(hours=hours, minutes=minutes))


def parse_date(literal: str) -> datetime.date:
    match = _DATE_RE.match(literal)
    if not match or match.group("sign"):
        raise _fail("date", literal)
    _parse_timezone(match.group("tz"))  # check form; date value drops it
    try:
        return datetime.date(
            int(match.group("year")),
            int(match.group("month")),
            int(match.group("day")),
        )
    except ValueError:
        raise _fail("date", literal)


def parse_time(literal: str) -> datetime.time:
    match = _TIME_RE.match(literal)
    if not match:
        raise _fail("time", literal)
    fraction = match.group("fraction") or ""
    microsecond = int(round(float("0" + fraction) * 1_000_000)) if fraction else 0
    try:
        return datetime.time(
            int(match.group("hour")),
            int(match.group("minute")),
            int(match.group("second")),
            microsecond,
            tzinfo=_parse_timezone(match.group("tz")),
        )
    except ValueError:
        raise _fail("time", literal)


def parse_datetime(literal: str) -> datetime.datetime:
    match = _DATETIME_RE.match(literal)
    if not match or match.group("sign"):
        raise _fail("dateTime", literal)
    fraction = match.group("fraction") or ""
    microsecond = int(round(float("0" + fraction) * 1_000_000)) if fraction else 0
    try:
        return datetime.datetime(
            int(match.group("year")),
            int(match.group("month")),
            int(match.group("day")),
            int(match.group("hour")),
            int(match.group("minute")),
            int(match.group("second")),
            microsecond,
            tzinfo=_parse_timezone(match.group("tz")),
        )
    except ValueError:
        raise _fail("dateTime", literal)


def parse_duration(literal: str) -> Duration:
    match = _DURATION_RE.match(literal)
    if not match or literal.endswith("P") or literal.endswith("T"):
        raise _fail("duration", literal)
    fields = match.groupdict()
    if not any(fields[name] for name in
               ("years", "months", "days", "hours", "minutes", "seconds")):
        raise _fail("duration", literal)
    sign = -1 if fields["sign"] else 1
    months = sign * (int(fields["years"] or 0) * 12 + int(fields["months"] or 0))
    seconds = sign * (
        decimal.Decimal(fields["days"] or 0) * 86400
        + decimal.Decimal(fields["hours"] or 0) * 3600
        + decimal.Decimal(fields["minutes"] or 0) * 60
        + decimal.Decimal(fields["seconds"] or 0)
    )
    return Duration(months, seconds)


def parse_hex_binary(literal: str) -> bytes:
    if not _HEX_RE.match(literal):
        raise _fail("hexBinary", literal)
    return bytes.fromhex(literal)


def parse_base64_binary(literal: str) -> bytes:
    import base64

    compact = literal.replace(" ", "")
    if not _BASE64_RE.match(compact) or len(compact) % 4:
        raise _fail("base64Binary", literal)
    try:
        return base64.b64decode(compact, validate=True)
    except ValueError:
        raise _fail("base64Binary", literal)


def parse_any_uri(literal: str) -> str:
    # Per the spec the anyURI lexical space is extremely permissive; reject
    # only characters that can never appear in a URI reference, and, as
    # for string, characters that can never appear in a document.
    if _find_illegal_char(literal) is not None:
        raise SimpleTypeError(illegal_char(literal))
    if any(char in literal for char in " <>{}|\\^`\"") and "%20" not in literal:
        for char in " <>{}|\\^`\"":
            if char in literal:
                raise _fail("anyURI", literal)
    return literal


def parse_qname_literal(literal: str) -> str:
    prefix, colon, local = literal.partition(":")
    if colon:
        if not (is_ncname(prefix) and is_ncname(local)):
            raise _fail("QName", literal)
    elif not is_ncname(literal):
        raise _fail("QName", literal)
    return literal


def parse_name(literal: str) -> str:
    if not is_name(literal):
        raise _fail("Name", literal)
    return literal


def parse_ncname(literal: str) -> str:
    if not is_ncname(literal):
        raise _fail("NCName", literal)
    return literal


def parse_nmtoken(literal: str) -> str:
    if not is_nmtoken(literal):
        raise _fail("NMTOKEN", literal)
    return literal


def parse_language(literal: str) -> str:
    if not _LANGUAGE_RE.match(literal):
        raise _fail("language", literal)
    return literal


def parse_gregorian(kind: str, literal: str) -> str:
    """gYear/gYearMonth/gMonthDay/gDay/gMonth — validated lexically."""
    patterns = {
        "gYear": _GYEAR_RE,
        "gYearMonth": _GYEARMONTH_RE,
        "gMonthDay": _GMONTHDAY_RE,
        "gDay": _GDAY_RE,
        "gMonth": _GMONTH_RE,
    }
    if not patterns[kind].match(literal):
        raise _fail(kind, literal)
    return literal


def canonical_boolean(value: bool) -> str:
    return "true" if value else "false"


def canonical_decimal(value: decimal.Decimal) -> str:
    text = format(value.normalize(), "f")
    return text if "." in text else text + ".0"


def canonical_float(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "INF"
    if value == float("-inf"):
        return "-INF"
    return repr(value).upper().replace("+", "")
