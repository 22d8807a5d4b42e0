"""Simple types: the built-in hierarchy plus restriction, list, union.

A :class:`SimpleType` owns a *kernel* (lexical→value parser inherited
from its primitive ancestor or overridden by a built-in derived type), a
merged :class:`~repro.xsd.facets.FacetSet`, and a base pointer used for
derivation checks.  ``BUILTIN_TYPES`` holds the complete built-in
hierarchy of XML Schema Part 2 that the paper's schemas draw from.
"""

from __future__ import annotations

import datetime
import decimal
import enum
from collections.abc import Callable
from typing import Any

from repro.errors import SchemaError, SimpleTypeError
from repro.xml.chars import (
    collapse_whitespace,
    replace_whitespace,
    split_whitespace,
)
from repro.xsd import values
from repro.xsd.facets import FacetSet, WhiteSpace


class Variety(enum.Enum):
    """The three simple-type varieties."""

    ATOMIC = "atomic"
    LIST = "list"
    UNION = "union"


Kernel = Callable[[str], Any]

#: literals one type's accepted-literal memo holds; a full one stops
#: inserting (typed ingest's per-declaration memo had the same cap)
ACCEPTED_LITERALS = 4096
#: the longest literal that memo stores; a longer one is checked afresh
ACCEPTED_LITERAL_LENGTH = 64


class SimpleType:
    """A simple type definition (built-in or schema-derived)."""

    def __init__(
        self,
        name: str | None,
        variety: Variety,
        base: SimpleType | None,
        kernel: Kernel | None = None,
        facets: FacetSet | None = None,
        item_type: SimpleType | None = None,
        member_types: tuple[SimpleType, ...] = (),
        python_type: type | None = None,
    ):
        self.name = name
        self.variety = variety
        self.base = base
        self._kernel = kernel if kernel is not None else (
            base._kernel if base is not None else values.parse_string
        )
        self.facets = facets if facets is not None else (
            base.facets if base is not None else FacetSet()
        )
        self.item_type = item_type
        self.member_types = member_types
        self.python_type = python_type or (
            base.python_type if base is not None else str
        )
        #: literals :meth:`check` accepted; callers on the fast routes
        #: probe it inline before calling :meth:`check`
        self.accepted: set[str] = set()

    # -- identity ------------------------------------------------------------

    def __repr__(self) -> str:
        label = self.name or "<anonymous>"
        return f"SimpleType({label}, {self.variety.value})"

    # -- pickling (the persistent compilation cache) ---------------------------

    def __reduce_ex__(self, protocol):
        # Built-in types are process-wide singletons (some with closure
        # kernels that cannot be pickled); serialize them as a name
        # lookup so a cached schema rehydrates to the same objects.
        name = self.name
        if name is not None and BUILTIN_TYPES.get(name) is self:
            return (_restore_builtin, (name,))
        return super().__reduce_ex__(protocol)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        # The chain holds closures; a warm start compiles it again.
        state.pop("_chain", None)
        # The memo is run-time state: the artifact stays as it was.
        state.pop("accepted", None)
        # A derived type usually shares its base's kernel object; that
        # reference may be an unpicklable closure (the Gregorian
        # builtins).  Mark it inherited and re-resolve after load.
        if self.base is not None and state["_kernel"] is self.base._kernel:
            state["_kernel"] = _INHERITED_KERNEL
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.accepted = set()
        if isinstance(self._kernel, str):  # the inherited-kernel marker
            self._kernel = (
                self.base._kernel if self.base is not None else values.parse_string
            )

    def is_derived_from(self, other: SimpleType) -> bool:
        """True when *other* appears on this type's base chain (or is it)."""
        current: SimpleType | None = self
        while current is not None:
            if current is other or (
                other.name is not None and current.name == other.name
            ):
                return True
            current = current.base
        return False

    def primitive(self) -> SimpleType:
        """The primitive ancestor (self for primitives/list/union)."""
        current = self
        while current.base is not None and current.base.base is not None:
            current = current.base
        return current

    # -- parsing ---------------------------------------------------------------

    def normalize(self, raw: str) -> str:
        normalizer = _NORMALIZERS[self.facets.white_space]
        return raw if normalizer is None else normalizer(raw)

    #: the compiled check chain, built on the first ``parse``
    _chain: Callable[[str], Any] | None = None

    def parse(self, raw: str) -> Any:
        """Map a raw literal to its value, enforcing every facet.

        Runs this type's check chain, compiled from its facets on first
        use: white-space normalization, pattern facets, the kernel, then
        the value facets (``FacetSet.compiled_value_steps``).  The chain
        gives the values and ``SimpleTypeError`` messages of the
        interpreted walk over ``FacetSet.check_lexical`` and
        ``check_value``.
        """
        chain = self._chain
        if chain is None:
            chain = self._chain = self._compile()
        return chain(raw)

    def check(self, raw: str) -> None:
        """Raise :class:`SimpleTypeError` unless *raw* is a valid literal.

        The check-only entry point of the fast routes (the streaming
        walker's table route and typed ingest's table route): it runs
        the chain of :meth:`parse` and remembers each literal it
        accepted in :attr:`accepted`, so a repeat costs one set probe.
        A rejection is never remembered, so its error is raised afresh
        every time.  The memo holds at most :data:`ACCEPTED_LITERALS`
        literals of at most :data:`ACCEPTED_LITERAL_LENGTH` characters;
        a full memo stops inserting, and what it holds keeps hitting.
        Validity is a pure function of the literal, so the memo changes
        time, never an answer.
        """
        accepted = self.accepted
        if raw in accepted:
            return
        chain = self._chain
        if chain is None:
            chain = self._chain = self._compile()
        chain(raw)
        if len(accepted) < ACCEPTED_LITERALS and len(raw) <= ACCEPTED_LITERAL_LENGTH:
            accepted.add(raw)

    def accepts_everything(self) -> bool:
        """True when the compiled chain is the bare ``xs:string`` kernel.

        That kernel refuses only characters outside XML's ``Char``
        production, and the XML parser has already refused those in
        every literal it lets through, so the fast routes (the walker's
        and typed ingest's table routes) skip both the check and the
        memo for parsed text."""
        chain = self._chain
        if chain is None:
            chain = self._chain = self._compile()
        return chain is values.parse_string

    def _compile(self) -> Callable[[str], Any]:
        facets = self.facets
        if self.variety is Variety.ATOMIC:
            kernel = self._kernel
        elif self.variety is Variety.LIST:
            assert self.item_type is not None
            kernel = _list_kernel(self.item_type.parse)
        else:
            kernel = self._parse_union
        return _build_chain(
            _NORMALIZERS[facets.white_space],
            facets.compiled_patterns(),
            kernel,
            facets.compiled_value_steps(
                int_values=self.variety is Variety.ATOMIC
                and self.python_type is int
            ),
        )

    def _parse_union(self, literal: str) -> Any:
        failures: list[str] = []
        for member in self.member_types:
            try:
                return member.parse(literal)
            except SimpleTypeError as error:
                failures.append(f"{member.name or '<anonymous>'}: {error.message}")
        raise SimpleTypeError(
            f"'{literal}' matches no member of union "
            f"{self.name or '<anonymous>'} ({'; '.join(failures)})"
        )

    def validate(self, raw: str) -> None:
        """Parse and discard (raises on invalid literals)."""
        self.parse(raw)

    def is_valid(self, raw: str) -> bool:
        try:
            self.parse(raw)
        except SimpleTypeError:
            return False
        return True


_NORMALIZERS: dict[str, Callable[[str], str] | None] = {
    WhiteSpace.PRESERVE: None,
    WhiteSpace.REPLACE: replace_whitespace,
    WhiteSpace.COLLAPSE: collapse_whitespace,
}


def _list_kernel(parse_item: Callable[[str], Any]) -> Kernel:
    def parse_list(literal: str) -> tuple[Any, ...]:
        return tuple([parse_item(item) for item in split_whitespace(literal)])

    return parse_list


def _build_chain(
    normalize: Callable[[str], str] | None,
    patterns: tuple[tuple[tuple[Callable[[str], Any], ...], str], ...],
    kernel: Kernel,
    steps: tuple[Callable[[Any, str], None], ...],
) -> Callable[[str], Any]:
    """One type's checks as one function: normalize, match, parse, check."""
    if not patterns and not steps:
        if normalize is None:
            return kernel

        def normalize_and_parse(raw: str) -> Any:
            return kernel(normalize(raw))

        return normalize_and_parse

    def check(raw: str) -> Any:
        literal = raw if normalize is None else normalize(raw)
        for matchers, sources in patterns:
            for match in matchers:
                if match(literal) is not None:
                    break
            else:
                raise SimpleTypeError(
                    f"'{literal}' does not match pattern '{sources}'"
                )
        value = kernel(literal)
        for step in steps:
            step(value, literal)
        return value

    return check


#: primitives whose value space is ordered (range facets applicable)
_ORDERED_PRIMITIVES = frozenset(
    {
        "decimal", "float", "double", "duration", "dateTime", "time",
        "date", "gYearMonth", "gYear", "gMonthDay", "gDay", "gMonth",
    }
)

#: primitives with a length (length facets applicable); lists always have
_LENGTHED_PRIMITIVES = frozenset(
    {
        "string", "anyURI", "QName", "NOTATION", "hexBinary",
        "base64Binary", "anySimpleType",
    }
)

_RANGE_FACETS = ("min_inclusive", "max_inclusive", "min_exclusive",
                 "max_exclusive")
_LENGTH_FACETS = ("length", "min_length", "max_length")
_DIGIT_FACETS = ("total_digits", "fraction_digits")


def _check_facet_applicability(
    base: SimpleType, facet_arguments: dict[str, Any]
) -> None:
    """Reject facets the base type's primitive cannot carry (XSD Part 2
    applicability tables)."""
    if base.variety is Variety.LIST:
        for facet in _RANGE_FACETS + _DIGIT_FACETS:
            if facet_arguments.get(facet) is not None:
                raise SchemaError(
                    f"facet '{facet}' is not applicable to a list type"
                )
        return
    primitive = base.primitive().name or "anySimpleType"
    ordered = primitive in _ORDERED_PRIMITIVES
    lengthed = primitive in _LENGTHED_PRIMITIVES
    for facet in _RANGE_FACETS:
        if facet_arguments.get(facet) is not None and not ordered:
            raise SchemaError(
                f"facet '{facet}' is not applicable to types derived "
                f"from '{primitive}' (unordered value space)"
            )
    for facet in _LENGTH_FACETS:
        if facet_arguments.get(facet) is not None and not lengthed:
            raise SchemaError(
                f"facet '{facet}' is not applicable to types derived "
                f"from '{primitive}'"
            )
    for facet in _DIGIT_FACETS:
        if facet_arguments.get(facet) is not None and primitive != "decimal":
            raise SchemaError(
                f"facet '{facet}' only applies to decimal-derived types, "
                f"not '{primitive}'"
            )


def restrict(
    base: SimpleType,
    name: str | None = None,
    **facet_arguments: Any,
) -> SimpleType:
    """Derive a new simple type from *base* by restriction.

    Facet keyword arguments mirror ``FacetSet.derive``; range and
    enumeration literals are interpreted by *base* so they live in its
    value space (exactly how ``maxExclusive value="100"`` on the paper's
    ``quantity`` element is handled).  Facets inapplicable to the base's
    primitive (a range on a string, digits on a float) are rejected.
    """
    if base.variety is Variety.UNION and any(
        key not in ("patterns", "enumeration") for key in facet_arguments
    ):
        raise SchemaError(
            "a union type only supports pattern and enumeration facets"
        )
    _check_facet_applicability(base, facet_arguments)
    facets = base.facets.derive(parse=base.parse, **facet_arguments)
    return SimpleType(
        name,
        base.variety,
        base,
        kernel=base._kernel,
        facets=facets,
        item_type=base.item_type,
        member_types=base.member_types,
        python_type=base.python_type,
    )


def list_of(item_type: SimpleType, name: str | None = None) -> SimpleType:
    """Construct a list simple type (``<xsd:list itemType=.../>``)."""
    if item_type.variety is Variety.LIST:
        raise SchemaError("the item type of a list may not itself be a list")
    return SimpleType(
        name,
        Variety.LIST,
        BUILTIN_TYPES["anySimpleType"],
        facets=FacetSet(white_space=WhiteSpace.COLLAPSE),
        item_type=item_type,
        python_type=tuple,
    )


def union_of(
    member_types: tuple[SimpleType, ...], name: str | None = None
) -> SimpleType:
    """Construct a union simple type (``<xsd:union memberTypes=.../>``)."""
    if not member_types:
        raise SchemaError("a union needs at least one member type")
    return SimpleType(
        name,
        Variety.UNION,
        BUILTIN_TYPES["anySimpleType"],
        facets=FacetSet(white_space=WhiteSpace.COLLAPSE),
        member_types=tuple(member_types),
        python_type=object,
    )


# ---------------------------------------------------------------------------
# Built-in hierarchy
# ---------------------------------------------------------------------------

BUILTIN_TYPES: dict[str, SimpleType] = {}

#: pickle placeholder for "same kernel object as the base type"
_INHERITED_KERNEL = "__kernel-inherited-from-base__"


def _restore_builtin(name: str) -> SimpleType:
    return BUILTIN_TYPES[name]


def _register(simple_type: SimpleType) -> SimpleType:
    assert simple_type.name is not None
    BUILTIN_TYPES[simple_type.name] = simple_type
    return simple_type


def _primitive(
    name: str,
    kernel: Kernel,
    python_type: type,
    white_space: str = WhiteSpace.COLLAPSE,
) -> SimpleType:
    facets = FacetSet(white_space=white_space)
    if white_space == WhiteSpace.COLLAPSE:
        facets = FacetSet(
            white_space=WhiteSpace.COLLAPSE, fixed=frozenset({"whiteSpace"})
        )
    return _register(
        SimpleType(
            name,
            Variety.ATOMIC,
            _ANY_SIMPLE,
            kernel=kernel,
            facets=facets,
            python_type=python_type,
        )
    )


def _derived(
    name: str,
    base: SimpleType,
    kernel: Kernel | None = None,
    python_type: type | None = None,
    **facet_arguments: Any,
) -> SimpleType:
    facets = base.facets.derive(parse=base.parse, **facet_arguments)
    return _register(
        SimpleType(
            name,
            Variety.ATOMIC,
            base,
            kernel=kernel if kernel is not None else base._kernel,
            facets=facets,
            python_type=python_type or base.python_type,
        )
    )


_ANY_SIMPLE = _register(
    SimpleType("anySimpleType", Variety.ATOMIC, None, kernel=values.parse_string)
)

_STRING = _primitive(
    "string", values.parse_string, str, white_space=WhiteSpace.PRESERVE
)
_BOOLEAN = _primitive("boolean", values.parse_boolean, bool)
_DECIMAL = _primitive("decimal", values.parse_decimal, decimal.Decimal)
_FLOAT = _primitive("float", values.parse_float, float)
_DOUBLE = _primitive("double", values.parse_float, float)
_DURATION = _primitive("duration", values.parse_duration, values.Duration)
_DATETIME = _primitive("dateTime", values.parse_datetime, datetime.datetime)
_TIME = _primitive("time", values.parse_time, datetime.time)
_DATE = _primitive("date", values.parse_date, datetime.date)
for _gregorian in ("gYearMonth", "gYear", "gMonthDay", "gDay", "gMonth"):
    _primitive(
        _gregorian,
        (lambda kind: lambda literal: values.parse_gregorian(kind, literal))(
            _gregorian
        ),
        str,
    )
_HEX = _primitive("hexBinary", values.parse_hex_binary, bytes)
_BASE64 = _primitive("base64Binary", values.parse_base64_binary, bytes)
_ANYURI = _primitive("anyURI", values.parse_any_uri, str)
_QNAME = _primitive("QName", values.parse_qname_literal, str)
_NOTATION = _primitive("NOTATION", values.parse_qname_literal, str)

_NORMALIZED = _register(
    SimpleType(
        "normalizedString",
        Variety.ATOMIC,
        _STRING,
        facets=FacetSet(white_space=WhiteSpace.REPLACE),
    )
)
_TOKEN = _register(
    SimpleType(
        "token",
        Variety.ATOMIC,
        _NORMALIZED,
        facets=FacetSet(white_space=WhiteSpace.COLLAPSE),
    )
)
_LANGUAGE = _derived("language", _TOKEN, kernel=values.parse_language)
_NMTOKEN = _derived("NMTOKEN", _TOKEN, kernel=values.parse_nmtoken)
_NAME = _derived("Name", _TOKEN, kernel=values.parse_name)
_NCNAME = _derived("NCName", _NAME, kernel=values.parse_ncname)
_ID = _derived("ID", _NCNAME)
_IDREF = _derived("IDREF", _NCNAME)
_ENTITY = _derived("ENTITY", _NCNAME)

for _list_name, _item in (
    ("NMTOKENS", _NMTOKEN),
    ("IDREFS", _IDREF),
    ("ENTITIES", _ENTITY),
):
    _list_base = list_of(_item)
    _register(
        SimpleType(
            _list_name,
            Variety.LIST,
            _list_base,
            facets=_list_base.facets.derive(parse=_list_base.parse, min_length=1),
            item_type=_item,
            python_type=tuple,
        )
    )

_INTEGER = _derived(
    "integer",
    _DECIMAL,
    kernel=values.parse_integer,
    python_type=int,
    fraction_digits=0,
    fixed_names=frozenset({"fractionDigits"}),
)
_NON_POSITIVE = _derived("nonPositiveInteger", _INTEGER, max_inclusive="0")
_NEGATIVE = _derived("negativeInteger", _NON_POSITIVE, max_inclusive="-1")
_LONG = _derived(
    "long",
    _INTEGER,
    min_inclusive="-9223372036854775808",
    max_inclusive="9223372036854775807",
)
_INT = _derived(
    "int", _LONG, min_inclusive="-2147483648", max_inclusive="2147483647"
)
_SHORT = _derived("short", _INT, min_inclusive="-32768", max_inclusive="32767")
_BYTE = _derived("byte", _SHORT, min_inclusive="-128", max_inclusive="127")
_NON_NEGATIVE = _derived("nonNegativeInteger", _INTEGER, min_inclusive="0")
_UNSIGNED_LONG = _derived(
    "unsignedLong", _NON_NEGATIVE, max_inclusive="18446744073709551615"
)
_UNSIGNED_INT = _derived("unsignedInt", _UNSIGNED_LONG, max_inclusive="4294967295")
_UNSIGNED_SHORT = _derived("unsignedShort", _UNSIGNED_INT, max_inclusive="65535")
_UNSIGNED_BYTE = _derived("unsignedByte", _UNSIGNED_SHORT, max_inclusive="255")
_POSITIVE = _derived("positiveInteger", _NON_NEGATIVE, min_inclusive="1")


def builtin_type(name: str) -> SimpleType:
    """Look up a built-in type by its local name (e.g. ``'decimal'``)."""
    try:
        return BUILTIN_TYPES[name]
    except KeyError:
        raise SchemaError(f"'{name}' is not a built-in XML Schema type")
