"""The eight transformation rules: normalized schema → interface model.

Paper, Sect. 3:

1. element declarations → interfaces (one ``content`` attribute),
2. type definitions → interfaces,
3. group definitions → interfaces,
4. sequence content → one attribute per sequence member,
5. list content (maxOccurs > 1) → attributes of a generated list
   interface (occurrence bounds checked at runtime, as the paper notes),
6. choice content → an attribute typed by the common supertype of all
   alternatives (inheritance), or a union type under the Fig. 5 strategy,
7. XML attributes → attributes of suitable type,
8. simple types → primitive types.

Plus the XML-Schema-specific mappings: type extension → inheritance,
type restriction → inheritance with runtime checks, substitution groups
→ inheritance, abstract elements/types → abstract interfaces.
"""

from __future__ import annotations

import enum

from repro.errors import GenerationError
from repro.xsd.components import (
    ANY_TYPE,
    ComplexType,
    Compositor,
    DerivationMethod,
    ElementDeclaration,
    GroupDefinition,
    GroupReference,
    ModelGroup,
    Particle,
    Schema,
    TypeDefinition,
)
from repro.xsd.simple import BUILTIN_TYPES, SimpleType
from repro.core.model import (
    Field,
    FieldKind,
    Interface,
    InterfaceKind,
    InterfaceModel,
    TypeRef,
    UnionAlternative,
)


class ChoiceStrategy(enum.Enum):
    """How choice groups are reflected (paper compares both).

    ``UNION`` is the Fig. 5 approach the paper *rejects* for its
    extension problems; ``INHERITANCE`` is the Fig. 6 approach it adopts.
    Both are implemented so the extension experiment can show the
    difference.
    """

    UNION = "union"
    INHERITANCE = "inheritance"


def generate_interfaces(
    schema: Schema,
    choice_strategy: ChoiceStrategy = ChoiceStrategy.INHERITANCE,
) -> InterfaceModel:
    """Apply the transformation rules to a *normalized* schema."""
    return _Generator(schema, choice_strategy).run()


class _Generator:
    def __init__(self, schema: Schema, choice_strategy: ChoiceStrategy):
        self._schema = schema
        self._strategy = choice_strategy
        self._model = InterfaceModel(schema)
        self._type_keys: dict[int, str] = {}
        self._group_keys: dict[int, str] = {}
        self._element_keys: dict[int, str] = {}
        #: (element name, type identity, fixed value) -> interface key,
        #: for local declaration deduplication
        self._local_by_signature: dict[tuple[str, int, str | None], str] = {}

    def run(self) -> InterfaceModel:
        for name in self._schema.types:
            definition = self._schema.types[name]
            if isinstance(definition, SimpleType):
                self._simple_interface(definition)
            else:
                self._type_interface(definition)
        for name in self._schema.groups:
            self._group_interface(self._schema.groups[name])
        for name in self._schema.elements:
            self._element_interface(self._schema.elements[name], owner_key=None)
        return self._model

    # -- rule 8: simple types --------------------------------------------------

    _PRIMITIVE_NAMES = {
        "string": "string",
        "normalizedString": "string",
        "token": "string",
        "language": "string",
        "Name": "string",
        "NCName": "string",
        "NMTOKEN": "NMToken",
        "ID": "string",
        "IDREF": "string",
        "ENTITY": "string",
        "anyURI": "string",
        "QName": "string",
        "NOTATION": "string",
        "boolean": "boolean",
        "decimal": "decimal",
        "float": "float",
        "double": "double",
        "duration": "Duration",
        "dateTime": "DateTime",
        "date": "Date",
        "time": "Time",
        "gYear": "string",
        "gYearMonth": "string",
        "gMonthDay": "string",
        "gDay": "string",
        "gMonth": "string",
        "hexBinary": "binary",
        "base64Binary": "binary",
        "anySimpleType": "string",
    }

    def _primitive_ref(self, simple_type: SimpleType) -> TypeRef:
        """Map a built-in simple type to a primitive TypeRef."""
        current: SimpleType | None = simple_type
        while current is not None:
            name = current.name
            if name in self._PRIMITIVE_NAMES:
                return TypeRef(self._PRIMITIVE_NAMES[name], primitive=True)
            if name is not None and name in BUILTIN_TYPES:
                # integer hierarchy and friends keep their own names
                return TypeRef(name, primitive=True)
            current = current.base
        return TypeRef("string", primitive=True)

    def _simple_ref(self, simple_type: SimpleType) -> tuple[TypeRef, str | None]:
        """(TypeRef, target interface key) for any simple type."""
        if simple_type.name and simple_type.name in BUILTIN_TYPES:
            return self._primitive_ref(simple_type), None
        if simple_type.name and simple_type.name in self._schema.types:
            interface = self._simple_interface(simple_type)
            return TypeRef(interface.name), interface.key
        # Anonymous simple type that survived normalization (e.g. an
        # attribute's inline type): fall back to its primitive.
        return self._primitive_ref(simple_type), None

    def _simple_interface(self, simple_type: SimpleType) -> Interface:
        assert simple_type.name is not None
        key = simple_type.name
        if key in self._model:
            return self._model[key]
        base = simple_type.base
        extends: list[str] = []
        base_primitive: TypeRef | None = None
        if (
            base is not None
            and base.name
            and base.name in self._schema.types
            and base.name not in BUILTIN_TYPES
        ):
            extends.append(self._simple_interface(base).key)
        else:
            base_primitive = self._primitive_ref(simple_type)
        interface = Interface(
            key=key,
            name=simple_type.name,
            kind=InterfaceKind.SIMPLE,
            extends=extends,
            base_primitive=base_primitive,
            type_definition=simple_type,
            doc=f"simple type '{simple_type.name}'",
        )
        return self._model.add(interface)

    # -- rule 2 (+ extension/restriction/abstract): complex types -----------------

    def _type_interface(self, complex_type: ComplexType) -> Interface:
        cache_key = id(complex_type)
        if cache_key in self._type_keys:
            return self._model[self._type_keys[cache_key]]
        if complex_type is ANY_TYPE:
            raise GenerationError("anyType cannot be generated as an interface")
        if not complex_type.name:
            raise GenerationError(
                "anonymous complex type reached the generator; "
                "normalize the schema first"
            )
        key = f"{complex_type.name}Type"
        interface = Interface(
            key=key,
            name=key,
            kind=InterfaceKind.TYPE,
            abstract=complex_type.abstract,
            mixed=complex_type.content_type.value == "mixed",
            type_definition=complex_type,
            doc=f"complex type '{complex_type.name}'",
        )
        self._type_keys[cache_key] = key
        self._model.add(interface)
        base = complex_type.base
        if isinstance(base, ComplexType) and base is not ANY_TYPE:
            base_interface = self._type_interface(base)
            interface.extends.append(base_interface.key)
            if complex_type.derivation is DerivationMethod.RESTRICTION:
                interface.doc += " (restriction: runtime value checks apply)"
        self._fill_type_fields(interface, complex_type)
        return interface

    def _fill_type_fields(
        self, interface: Interface, complex_type: ComplexType
    ) -> None:
        if complex_type.simple_content is not None:
            ref, target = self._simple_ref(complex_type.simple_content)
            interface.fields.append(
                Field(
                    "content",
                    ref,
                    FieldKind.SIMPLE_CONTENT,
                    target_key=target,
                    simple_type=complex_type.simple_content,
                    doc="text content (simpleContent)",
                )
            )
        elif complex_type.content is not None:
            self._content_fields(interface, complex_type.content)
        for use in complex_type.attribute_uses.values():
            ref, target = self._simple_ref(use.declaration.resolved_type())
            interface.fields.append(
                Field(
                    use.name,
                    ref,
                    FieldKind.ATTRIBUTE,
                    optional=not use.required,
                    required=use.required,
                    fixed=use.fixed,
                    default=use.default,
                    xml_name=use.name,
                    target_key=target,
                    simple_type=use.declaration.resolved_type(),
                )
            )

    def _content_fields(self, interface: Interface, content: Particle) -> None:
        term = content.term
        if isinstance(term, ModelGroup):
            if term.compositor is Compositor.CHOICE:
                # A top-level choice: reflect through an implicit group.
                group_name = term.name or f"{interface.name}C"
                definition = GroupDefinition(group_name, term)
                group_interface = self._group_interface(definition)
                interface.fields.append(
                    self._group_field(group_name, group_interface, content)
                )
                return
            for particle in term.particles:
                self._member_field(interface, particle)
            return
        self._member_field(interface, content)

    def _member_field(self, interface: Interface, particle: Particle) -> None:
        """Rule 4/5/6 for one member of a (top-level) sequence."""
        term = particle.term
        if isinstance(term, ElementDeclaration):
            target = self._element_interface(
                term, owner_key=None if term.is_global else interface.key
            )
            ref = TypeRef(target.name)
            if particle.is_list():
                interface.fields.append(
                    Field(
                        f"{term.name}List",
                        TypeRef.list_of(ref),
                        FieldKind.LIST,
                        xml_name=term.name,
                        min_occurs=particle.min_occurs,
                        max_occurs=particle.max_occurs,
                        target_key=target.key,
                    )
                )
            else:
                interface.fields.append(
                    Field(
                        term.name,
                        ref,
                        FieldKind.CHILD,
                        optional=particle.is_optional(),
                        xml_name=term.name,
                        min_occurs=particle.min_occurs,
                        max_occurs=particle.max_occurs,
                        target_key=target.key,
                    )
                )
            return
        if isinstance(term, GroupReference):
            definition = term.definition or self._schema.group(term.ref)
            group_interface = self._group_interface(definition)
            interface.fields.append(
                self._group_field(definition.name, group_interface, particle)
            )
            return
        raise GenerationError(
            "nested anonymous group reached the generator; "
            "normalize the schema first"
        )

    def _group_field(
        self,
        group_name: str,
        group_interface: Interface,
        particle: Particle,
    ) -> Field:
        is_choice = (
            group_interface.type_definition is not None
            and isinstance(group_interface.type_definition, ModelGroup)
            and group_interface.type_definition.compositor is Compositor.CHOICE
        )
        kind = FieldKind.CHOICE if is_choice else FieldKind.GROUP
        ref = TypeRef(group_interface.name)
        if particle.is_list():
            return Field(
                f"{group_name}List",
                TypeRef.list_of(ref),
                FieldKind.LIST,
                min_occurs=particle.min_occurs,
                max_occurs=particle.max_occurs,
                target_key=group_interface.key,
            )
        return Field(
            group_name,
            ref,
            kind,
            optional=particle.is_optional(),
            min_occurs=particle.min_occurs,
            max_occurs=particle.max_occurs,
            target_key=group_interface.key,
        )

    # -- rule 3 + rule 6: group definitions ----------------------------------------

    def _group_interface(self, definition: GroupDefinition) -> Interface:
        cache_key = id(definition.model_group)
        if cache_key in self._group_keys:
            return self._model[self._group_keys[cache_key]]
        key = f"{definition.name}Group"
        group = definition.model_group
        is_choice = group.compositor is Compositor.CHOICE
        interface = Interface(
            key=key,
            name=key,
            kind=InterfaceKind.GROUP,
            abstract=is_choice and self._strategy is ChoiceStrategy.INHERITANCE,
            type_definition=group,  # type: ignore[arg-type]
            doc=f"{group.compositor.value} group '{definition.name}'",
        )
        self._group_keys[cache_key] = key
        self._model.add(interface)
        if is_choice:
            self._fill_choice_group(interface, group)
        else:
            for particle in group.particles:
                self._member_field(interface, particle)
        return interface

    def _fill_choice_group(self, interface: Interface, group: ModelGroup) -> None:
        alternatives: list[UnionAlternative] = []
        for particle in group.particles:
            term = particle.term
            if isinstance(term, ElementDeclaration):
                target = self._element_interface(
                    term,
                    owner_key=None if term.is_global else interface.key,
                )
                if self._strategy is ChoiceStrategy.INHERITANCE:
                    if interface.key not in target.extends:
                        target.extends.append(interface.key)
                else:
                    alternatives.append(
                        UnionAlternative(term.name, target.key, TypeRef(target.name))
                    )
            elif isinstance(term, GroupReference):
                definition = term.definition or self._schema.group(term.ref)
                nested = self._group_interface(definition)
                if self._strategy is ChoiceStrategy.INHERITANCE:
                    if interface.key not in nested.extends:
                        nested.extends.append(interface.key)
                else:
                    alternatives.append(
                        UnionAlternative(
                            definition.name, nested.key, TypeRef(nested.name)
                        )
                    )
            else:
                raise GenerationError(
                    "anonymous group inside a choice; normalize first"
                )
        if self._strategy is ChoiceStrategy.UNION:
            interface.union = alternatives
            interface.abstract = False

    # -- rule 1 (+ substitution groups, abstract): element declarations -----------

    def _element_interface(
        self, declaration: ElementDeclaration, owner_key: str | None
    ) -> Interface:
        cache_key = id(declaration)
        if cache_key in self._element_keys:
            return self._model[self._element_keys[cache_key]]
        if declaration.is_global and declaration.key in self._schema.elements:
            # Use the canonical global declaration object.
            canonical = self._schema.elements[declaration.key]
            if canonical is not declaration:
                return self._element_interface(canonical, owner_key=None)
        if owner_key is not None and declaration.type_definition is not None:
            # Deduplicate local declarations that agree on name, type
            # and fixed value (e.g. WML's <br> inside several choice
            # groups): one interface, one class, one factory method.
            signature = (
                declaration.name,
                id(declaration.type_definition),
                declaration.fixed,
            )
            existing_key = self._local_by_signature.get(signature)
            if existing_key is not None:
                existing = self._model[existing_key]
                existing.extra_declarations.append(declaration)
                self._element_keys[cache_key] = existing_key
                return existing
        short_name = f"{declaration.name}Element"
        prefix = "" if owner_key is None else f"{owner_key}."
        key = prefix + short_name
        counter = 2
        while key in self._model:
            # Another element of this name under one owner that differs
            # in type or fixed value: it gets its own interface and class.
            short_name = f"{declaration.name}{counter}Element"
            key = prefix + short_name
            counter += 1
        interface = Interface(
            key=key,
            name=short_name,
            kind=InterfaceKind.ELEMENT,
            abstract=declaration.abstract,
            nested_in=owner_key,
            declaration=declaration,
            doc=f"element '{declaration.name}'",
        )
        self._element_keys[cache_key] = key
        self._model.add(interface)
        if owner_key is not None and declaration.type_definition is not None:
            self._local_by_signature[
                declaration.name, id(declaration.type_definition), declaration.fixed
            ] = key
        if declaration.substitution_group:
            head = self._schema.element(declaration.substitution_group)
            head_interface = self._element_interface(head, owner_key=None)
            interface.extends.append(head_interface.key)
        definition = declaration.resolved_type()
        interface.type_definition = definition
        self._add_content_field(interface, definition)
        return interface

    def _add_content_field(
        self, interface: Interface, definition: TypeDefinition
    ) -> None:
        if isinstance(definition, SimpleType):
            ref, target = self._simple_ref(definition)
            interface.fields.append(
                Field("content", ref, FieldKind.CONTENT, target_key=target)
            )
            return
        if definition is ANY_TYPE:
            interface.fields.append(
                Field(
                    "content",
                    TypeRef("any", primitive=True),
                    FieldKind.CONTENT,
                    doc="ur-type content (anyType)",
                )
            )
            return
        type_interface = self._type_interface(definition)
        interface.fields.append(
            Field(
                "content",
                TypeRef(type_interface.name),
                FieldKind.CONTENT,
                target_key=type_interface.key,
            )
        )
