"""Object model for Document Type Definitions."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.automata import Alternation, Epsilon, Regex, Repetition, Sequence, Symbol
from repro.automata.rex import UNBOUNDED


class ParticleKind(enum.Enum):
    """Kinds of nodes in a ``children`` content particle."""

    NAME = "name"
    SEQUENCE = "sequence"
    CHOICE = "choice"


@dataclass
class DtdParticle:
    """A node of a DTD ``children`` content model.

    ``occurrence`` is one of ``''``, ``'?'``, ``'*'``, ``'+'`` — exactly
    the "regular expressions [that are] rather limited" of the paper's
    introduction, compared with schema min/maxOccurs.
    """

    kind: ParticleKind
    name: str | None = None
    children: list[DtdParticle] = field(default_factory=list)
    occurrence: str = ""

    def to_regex(self) -> Regex:
        """Translate to the shared automaton regex AST."""
        if self.kind is ParticleKind.NAME:
            base: Regex = Symbol(self.name)
        elif self.kind is ParticleKind.SEQUENCE:
            base = Sequence([child.to_regex() for child in self.children])
        else:
            base = Alternation([child.to_regex() for child in self.children])
        if self.occurrence == "?":
            return Repetition(base, 0, 1)
        if self.occurrence == "*":
            return Repetition(base, 0, UNBOUNDED)
        if self.occurrence == "+":
            return Repetition(base, 1, UNBOUNDED)
        return base

    def element_names(self) -> set[str]:
        """All element names referenced by this particle."""
        if self.kind is ParticleKind.NAME:
            return {self.name} if self.name else set()
        names: set[str] = set()
        for child in self.children:
            names |= child.element_names()
        return names

    def __str__(self) -> str:
        if self.kind is ParticleKind.NAME:
            return f"{self.name}{self.occurrence}"
        separator = ", " if self.kind is ParticleKind.SEQUENCE else " | "
        inner = separator.join(str(child) for child in self.children)
        return f"({inner}){self.occurrence}"


class ContentKind(enum.Enum):
    """The four DTD content-specification forms."""

    EMPTY = "EMPTY"
    ANY = "ANY"
    MIXED = "mixed"
    CHILDREN = "children"


@dataclass
class ContentModel:
    """A content specification for one element type."""

    kind: ContentKind
    #: element names allowed in MIXED content
    mixed_names: frozenset[str] = frozenset()
    #: root particle for CHILDREN content
    particle: DtdParticle | None = None

    def to_regex(self) -> Regex:
        """Regex over child-element names (text handled separately)."""
        if self.kind in (ContentKind.EMPTY, ContentKind.ANY):
            return Epsilon()
        if self.kind is ContentKind.MIXED:
            if not self.mixed_names:
                return Epsilon()
            return Repetition(
                Alternation([Symbol(name) for name in sorted(self.mixed_names)]),
                0,
                UNBOUNDED,
            )
        assert self.particle is not None
        return self.particle.to_regex()

    def __str__(self) -> str:
        if self.kind is ContentKind.EMPTY:
            return "EMPTY"
        if self.kind is ContentKind.ANY:
            return "ANY"
        if self.kind is ContentKind.MIXED:
            if self.mixed_names:
                names = " | ".join(sorted(self.mixed_names))
                return f"(#PCDATA | {names})*"
            return "(#PCDATA)"
        return str(self.particle)


class AttType(enum.Enum):
    """DTD attribute types."""

    CDATA = "CDATA"
    ID = "ID"
    IDREF = "IDREF"
    IDREFS = "IDREFS"
    ENTITY = "ENTITY"
    ENTITIES = "ENTITIES"
    NMTOKEN = "NMTOKEN"
    NMTOKENS = "NMTOKENS"
    NOTATION = "NOTATION"
    ENUMERATION = "enumeration"


class AttDefault(enum.Enum):
    """DTD attribute default kinds."""

    REQUIRED = "#REQUIRED"
    IMPLIED = "#IMPLIED"
    FIXED = "#FIXED"
    DEFAULT = "default"


@dataclass
class AttributeDefinition:
    """One row of an ATTLIST declaration."""

    name: str
    att_type: AttType
    default_kind: AttDefault
    default_value: str | None = None
    enumeration: tuple[str, ...] = ()


@dataclass
class ElementDeclaration:
    """``<!ELEMENT name content>``"""

    name: str
    content: ContentModel


@dataclass
class Dtd:
    """A parsed DTD: element types, attribute lists, general entities."""

    root_name: str | None = None
    elements: dict[str, ElementDeclaration] = field(default_factory=dict)
    attributes: dict[str, dict[str, AttributeDefinition]] = field(
        default_factory=dict
    )
    entities: dict[str, str] = field(default_factory=dict)

    def attribute_definitions(self, element_name: str) -> dict[str, AttributeDefinition]:
        return self.attributes.get(element_name, {})
