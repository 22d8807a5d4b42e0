"""The interpreted simple-type walk: the oracle for ``SimpleType.parse``.

``SimpleType.parse`` runs a check chain compiled once per type.  This is
the walk it replaced, kept to define the answer: normalize, every
pattern step through ``FacetSet.check_lexical``, the kernel (item by
item for a list, member by member for a union, each through this same
walk), then every value facet through ``FacetSet.check_value``.
"""

from __future__ import annotations

from typing import Any

from repro.errors import SimpleTypeError
from repro.xml.chars import split_whitespace
from repro.xsd.simple import SimpleType, Variety


def interpreted_parse(simple_type: SimpleType, raw: str) -> Any:
    literal = simple_type.normalize(raw)
    simple_type.facets.check_lexical(literal)
    if simple_type.variety is Variety.ATOMIC:
        value = simple_type._kernel(literal)
    elif simple_type.variety is Variety.LIST:
        value = tuple(
            interpreted_parse(simple_type.item_type, item)
            for item in split_whitespace(literal)
        )
    else:
        value = _interpreted_union(simple_type, literal)
    simple_type.facets.check_value(value, literal)
    return value


def _interpreted_union(simple_type: SimpleType, literal: str) -> Any:
    failures: list[str] = []
    for member in simple_type.member_types:
        try:
            return interpreted_parse(member, literal)
        except SimpleTypeError as error:
            failures.append(f"{member.name or '<anonymous>'}: {error.message}")
    raise SimpleTypeError(
        f"'{literal}' matches no member of union "
        f"{simple_type.name or '<anonymous>'} ({'; '.join(failures)})"
    )

