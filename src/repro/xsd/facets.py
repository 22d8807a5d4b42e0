"""Constraining facets for simple type restriction.

Each facet validates a (literal, value) pair; a :class:`FacetSet` is the
merged, inheritance-resolved collection attached to one simple type.
Fixed-facet and restriction-consistency rules are enforced when a derived
type is built (:mod:`repro.xsd.simple`).
"""

from __future__ import annotations

import decimal
import operator
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.errors import SchemaError, SimpleTypeError
from repro.xsd.regex import compile_pattern


class WhiteSpace:
    """The three whiteSpace normalization modes."""

    PRESERVE = "preserve"
    REPLACE = "replace"
    COLLAPSE = "collapse"

    ORDER = {PRESERVE: 0, REPLACE: 1, COLLAPSE: 2}


@dataclass(frozen=True)
class Pattern:
    """One ``xsd:pattern`` facet value."""

    source: str

    def matches(self, literal: str) -> bool:
        return compile_pattern(self.source).fullmatch(literal) is not None


def decimal_digits(value: decimal.Decimal) -> tuple[int, int]:
    """``(total, fraction)`` digits of a finite decimal value.

    The value is ``i × 10^-n`` with ``n >= 0`` as small as possible; it
    has ``n`` fraction digits and ``max(digits of i, n)`` total digits
    (XSD Part 2 §4.3.11-12).  Read off the coefficient, not through
    ``normalize()``: that strips trailing integer zeros into a positive
    exponent (``100`` becomes ``1E+2``, one digit) and rounds to the
    context precision.
    """
    _, digits, exponent = value.as_tuple()
    if not any(digits):
        return 1, 0
    if exponent >= 0:
        return len(digits) + exponent, 0
    fraction = -exponent
    end = len(digits)
    while fraction and digits[end - 1] == 0:
        end -= 1
        fraction -= 1
    return max(end, fraction), fraction


def _value_length(value: Any) -> int:
    """Facet 'length' counts characters, list items, or bytes."""
    return len(value)


# -- compiled value steps (see ``FacetSet.compiled_value_steps``) --------------


def _length_step(length: int) -> Callable[[Any, str], None]:
    def step(value: Any, literal: str) -> None:
        if len(value) != length:
            raise SimpleTypeError(
                f"'{literal}' has length {len(value)}, "
                f"facet requires exactly {length}"
            )

    return step


def _min_length_step(min_length: int) -> Callable[[Any, str], None]:
    def step(value: Any, literal: str) -> None:
        if len(value) < min_length:
            raise SimpleTypeError(
                f"'{literal}' is shorter than minLength {min_length}"
            )

    return step


def _max_length_step(max_length: int) -> Callable[[Any, str], None]:
    def step(value: Any, literal: str) -> None:
        if len(value) > max_length:
            raise SimpleTypeError(
                f"'{literal}' is longer than maxLength {max_length}"
            )

    return step


def _bound_step(
    bound: Any, outside: Callable[[Any, Any], bool], message: str
) -> Callable[[Any, str], None]:
    def step(value: Any, literal: str) -> None:
        try:
            if outside(value, bound):
                raise SimpleTypeError(f"'{literal}' {message}")
        except TypeError:
            raise SchemaError(
                f"range facet value is not comparable with '{literal}'"
            )

    return step


def _int_digits_step(
    total_digits: int, check_digits: Callable[[Any, str], None]
) -> Callable[[Any, str], None]:
    # For t >= 1, |i| < 10^t is "at most t digits".  Every value has at
    # least one digit, so for t <= 0 the limit 0 passes none of them.
    limit = 10**total_digits if total_digits > 0 else 0

    def step(value: Any, literal: str) -> None:
        if type(value) is int and -limit < value < limit:
            return
        check_digits(value, literal)

    return step


def _enumeration_step(enumeration: tuple[Any, ...]) -> Callable[[Any, str], None]:
    allowed = ", ".join(repr(item) for item in enumeration)
    members: Any
    try:
        members = frozenset(enumeration)
    except TypeError:  # an unhashable value: compare one by one
        members = enumeration

    def step(value: Any, literal: str) -> None:
        if value not in members:
            raise SimpleTypeError(
                f"'{literal}' is not among the enumerated values: {allowed}"
            )

    return step


@dataclass
class FacetSet:
    """The effective facets of one simple type (base facets merged in)."""

    white_space: str = WhiteSpace.PRESERVE
    length: int | None = None
    min_length: int | None = None
    max_length: int | None = None
    #: patterns from *different* derivation steps must all match;
    #: patterns within one step are alternatives.  We keep one entry per
    #: derivation step, each a tuple of alternatives.
    patterns: tuple[tuple[Pattern, ...], ...] = ()
    #: enumeration: parsed values allowed (None = unconstrained)
    enumeration: tuple[Any, ...] | None = None
    min_inclusive: Any = None
    max_inclusive: Any = None
    min_exclusive: Any = None
    max_exclusive: Any = None
    total_digits: int | None = None
    fraction_digits: int | None = None
    #: facet names fixed="true" in some ancestor (cannot be changed below)
    fixed: frozenset[str] = frozenset()

    # -- validation -------------------------------------------------------------

    def check_lexical(self, literal: str) -> None:
        """Pattern facets apply to the (normalized) literal."""
        for alternatives in self.patterns:
            if not any(pattern.matches(literal) for pattern in alternatives):
                sources = " | ".join(p.source for p in alternatives)
                raise SimpleTypeError(
                    f"'{literal}' does not match pattern '{sources}'"
                )

    def check_value(self, value: Any, literal: str) -> None:
        """Value-space facets apply to the parsed value."""
        if self.length is not None and _value_length(value) != self.length:
            raise SimpleTypeError(
                f"'{literal}' has length {_value_length(value)}, "
                f"facet requires exactly {self.length}"
            )
        if self.min_length is not None and _value_length(value) < self.min_length:
            raise SimpleTypeError(
                f"'{literal}' is shorter than minLength {self.min_length}"
            )
        if self.max_length is not None and _value_length(value) > self.max_length:
            raise SimpleTypeError(
                f"'{literal}' is longer than maxLength {self.max_length}"
            )
        self._check_bounds(value, literal)
        self._check_digits(value, literal)
        if self.enumeration is not None and not self._in_enumeration(value):
            allowed = ", ".join(repr(item) for item in self.enumeration)
            raise SimpleTypeError(
                f"'{literal}' is not among the enumerated values: {allowed}"
            )

    def _in_enumeration(self, value: Any) -> bool:
        assert self.enumeration is not None
        for allowed in self.enumeration:
            if type(allowed) is type(value) or isinstance(value, type(allowed)):
                if allowed == value:
                    return True
            elif allowed == value:
                return True
        return False

    def _check_bounds(self, value: Any, literal: str) -> None:
        try:
            if self.min_inclusive is not None and value < self.min_inclusive:
                raise SimpleTypeError(
                    f"'{literal}' is below minInclusive {self.min_inclusive}"
                )
            if self.max_inclusive is not None and value > self.max_inclusive:
                raise SimpleTypeError(
                    f"'{literal}' is above maxInclusive {self.max_inclusive}"
                )
            if self.min_exclusive is not None and value <= self.min_exclusive:
                raise SimpleTypeError(
                    f"'{literal}' is not above minExclusive {self.min_exclusive}"
                )
            if self.max_exclusive is not None and value >= self.max_exclusive:
                raise SimpleTypeError(
                    f"'{literal}' is not below maxExclusive {self.max_exclusive}"
                )
        except TypeError:
            raise SchemaError(
                f"range facet value is not comparable with '{literal}'"
            )

    def _check_digits(self, value: Any, literal: str) -> None:
        if self.total_digits is None and self.fraction_digits is None:
            return
        as_decimal = (
            value
            if isinstance(value, decimal.Decimal)
            else decimal.Decimal(value)
            if isinstance(value, int)
            else None
        )
        if as_decimal is None or not as_decimal.is_finite():
            return
        total, fraction = decimal_digits(as_decimal)
        if self.total_digits is not None and total > self.total_digits:
            raise SimpleTypeError(
                f"'{literal}' has {total} digits, totalDigits allows "
                f"{self.total_digits}"
            )
        if self.fraction_digits is not None and fraction > self.fraction_digits:
            raise SimpleTypeError(
                f"'{literal}' has {fraction} fraction digits, "
                f"fractionDigits allows {self.fraction_digits}"
            )

    # -- compiled checks ----------------------------------------------------------
    #
    # ``check_lexical`` and ``check_value`` walk every facet for every
    # literal; they define the semantics and stay as the test oracle.  A
    # simple type compiles its facets once (``SimpleType.parse``) into
    # the pieces below: the same checks in the same order with the same
    # messages, for only the facets the set actually carries.

    def compiled_patterns(
        self,
    ) -> tuple[tuple[tuple[Callable[[str], Any], ...], str], ...]:
        """Per derivation step: the alternatives' precompiled
        ``fullmatch`` functions, and the sources its message names."""
        return tuple(
            (
                tuple(compile_pattern(p.source).fullmatch for p in alternatives),
                " | ".join(p.source for p in alternatives),
            )
            for alternatives in self.patterns
        )

    def compiled_value_steps(
        self, int_values: bool
    ) -> tuple[Callable[[Any, str], None], ...]:
        """``check_value`` as one ``step(value, literal)`` per facet.

        *int_values* promises every value is an ``int`` (the types
        derived from ``xs:integer``).  An int has 0 fraction digits, so
        it gets no fraction-digits step, and ``totalDigits`` becomes an
        integer range test.
        """
        steps: list[Callable[[Any, str], None]] = []
        if self.length is not None:
            steps.append(_length_step(self.length))
        if self.min_length is not None:
            steps.append(_min_length_step(self.min_length))
        if self.max_length is not None:
            steps.append(_max_length_step(self.max_length))
        for bound, outside, message in (
            (self.min_inclusive, operator.lt, "is below minInclusive"),
            (self.max_inclusive, operator.gt, "is above maxInclusive"),
            (self.min_exclusive, operator.le, "is not above minExclusive"),
            (self.max_exclusive, operator.ge, "is not below maxExclusive"),
        ):
            if bound is not None:
                steps.append(_bound_step(bound, outside, f"{message} {bound}"))
        if int_values and (self.fraction_digits or 0) >= 0:
            if self.total_digits is not None:
                steps.append(
                    _int_digits_step(self.total_digits, self._check_digits)
                )
        elif self.total_digits is not None or self.fraction_digits is not None:
            steps.append(self._check_digits)
        if self.enumeration is not None:
            steps.append(_enumeration_step(self.enumeration))
        return tuple(steps)

    # -- derivation -------------------------------------------------------------

    def derive(
        self,
        *,
        parse: Callable[[str], Any],
        white_space: str | None = None,
        length: int | None = None,
        min_length: int | None = None,
        max_length: int | None = None,
        patterns: tuple[str, ...] = (),
        enumeration: tuple[str, ...] | None = None,
        min_inclusive: str | None = None,
        max_inclusive: str | None = None,
        min_exclusive: str | None = None,
        max_exclusive: str | None = None,
        total_digits: int | None = None,
        fraction_digits: int | None = None,
        fixed_names: frozenset[str] = frozenset(),
    ) -> FacetSet:
        """Return the facet set of a restriction step over this one.

        Raw facet literals are parsed with *parse* (the base type's own
        parser) so range and enumeration facets live in the value space.
        """
        def pick(name: str, new: Any, old: Any) -> Any:
            if new is None:
                return old
            if name in self.fixed and new != old:
                raise SchemaError(
                    f"facet '{name}' is fixed in the base type and cannot "
                    "be changed"
                )
            return new

        if white_space is not None:
            if WhiteSpace.ORDER[white_space] < WhiteSpace.ORDER[self.white_space]:
                raise SchemaError(
                    f"whiteSpace cannot weaken from '{self.white_space}' "
                    f"to '{white_space}'"
                )

        new_patterns = self.patterns
        if patterns:
            new_patterns = new_patterns + (
                tuple(Pattern(source) for source in patterns),
            )

        new_enumeration = self.enumeration
        if enumeration is not None:
            parsed_enum = tuple(parse(literal) for literal in enumeration)
            new_enumeration = parsed_enum

        def parse_bound(literal: str | None) -> Any:
            return parse(literal) if literal is not None else None

        derived = FacetSet(
            white_space=pick("whiteSpace", white_space, self.white_space),
            length=pick("length", length, self.length),
            min_length=pick("minLength", min_length, self.min_length),
            max_length=pick("maxLength", max_length, self.max_length),
            patterns=new_patterns,
            enumeration=new_enumeration,
            min_inclusive=pick(
                "minInclusive", parse_bound(min_inclusive), self.min_inclusive
            ),
            max_inclusive=pick(
                "maxInclusive", parse_bound(max_inclusive), self.max_inclusive
            ),
            min_exclusive=pick(
                "minExclusive", parse_bound(min_exclusive), self.min_exclusive
            ),
            max_exclusive=pick(
                "maxExclusive", parse_bound(max_exclusive), self.max_exclusive
            ),
            total_digits=pick("totalDigits", total_digits, self.total_digits),
            fraction_digits=pick(
                "fractionDigits", fraction_digits, self.fraction_digits
            ),
            fixed=self.fixed | fixed_names,
        )
        derived._check_consistency()
        return derived

    def _check_consistency(self) -> None:
        if (
            self.length is not None
            and self.min_length is not None
            and self.length < self.min_length
        ):
            raise SchemaError("length is smaller than minLength")
        if (
            self.length is not None
            and self.max_length is not None
            and self.length > self.max_length
        ):
            raise SchemaError("length is larger than maxLength")
        if (
            self.min_length is not None
            and self.max_length is not None
            and self.min_length > self.max_length
        ):
            raise SchemaError("minLength is larger than maxLength")
        if (
            self.total_digits is not None
            and self.fraction_digits is not None
            and self.fraction_digits > self.total_digits
        ):
            raise SchemaError("fractionDigits exceeds totalDigits")
        try:
            if (
                self.min_inclusive is not None
                and self.max_inclusive is not None
                and self.min_inclusive > self.max_inclusive
            ):
                raise SchemaError("minInclusive is above maxInclusive")
            if (
                self.min_exclusive is not None
                and self.max_exclusive is not None
                and self.min_exclusive >= self.max_exclusive
            ):
                raise SchemaError("minExclusive is not below maxExclusive")
        except TypeError:
            raise SchemaError("range facets of incomparable types")
        if self.min_inclusive is not None and self.min_exclusive is not None:
            raise SchemaError("minInclusive and minExclusive are both present")
        if self.max_inclusive is not None and self.max_exclusive is not None:
            raise SchemaError("maxInclusive and maxExclusive are both present")
