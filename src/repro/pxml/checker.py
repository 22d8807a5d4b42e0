"""Static validation of P-XML constructors against a V-DOM binding.

This is the reproduction of the paper's generated preprocessor front end
(Fig. 9): every constructor is parsed and "validate[d] against the
underlying document description … statically without having to run the
Java program".  The checker walks the template with the same content
DFAs the validator uses and types every ``$hole$``:

* a hole in an attribute value or in simple content is a **text hole**;
  its value is parsed by that position's simple type at render time,
* a hole in element content is an **element hole**; the checker proves
  that *every* element its annotation admits is acceptable at that
  position ("a variable is allowed only in places where the
  corresponding element is intended for").

Holes annotated with a choice-group name make the walk multi-state (the
set of DFA states reachable under any alternative); a template is only
accepted if every continuation stays valid — the conservative reading
that preserves the paper's guarantee in full.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Any

from repro.errors import PxmlStaticError, SimpleTypeError, VdomStateError
from repro.xml.chars import WHITESPACE
from repro.xsd.components import ANY_TYPE, ComplexType, ContentType, ElementDeclaration
from repro.xsd.simple import SimpleType
from repro.core.vdom import Binding, TypedElement, VdomGroup
from repro.pxml.ast import Hole, TemplateElement, TemplateText
from repro.pxml.parser import parse_template


@dataclass
class HoleSpec:
    """Resolved type of one hole."""

    name: str
    kind: str  # 'element' | 'text'
    #: acceptable classes for element holes (singleton unless group-typed)
    classes: tuple[type, ...] = ()
    #: simple type parsing the value, for text holes (None = free text)
    simple_type: SimpleType | None = None

    def accepts(self, value: Any) -> None:
        """Runtime check applied to a hole value at render time."""
        if self.kind == "element":
            if not isinstance(value, self.classes):
                allowed = ", ".join(cls.__name__ for cls in self.classes)
                raise PxmlStaticError(
                    f"hole '{self.name}' expects an instance of {allowed}, "
                    f"got {type(value).__name__}"
                )
            return
        # Text holes accept anything lexicalizable; the simple type check
        # happens inside the typed constructor.

    def compatible_with(self, other: HoleSpec) -> bool:
        if self.kind != other.kind:
            return False
        if self.kind == "element":
            return set(self.classes) == set(other.classes)
        return True


@dataclass
class CheckedTemplate:
    """A template that passed the static check."""

    binding: Binding
    root: TemplateElement
    root_class: type
    holes: dict[str, HoleSpec] = dataclass_field(default_factory=dict)
    #: id(TemplateElement) -> resolved generated class, for the compiler
    element_classes: dict[int, type] = dataclass_field(default_factory=dict)

    def hole_names(self) -> list[str]:
        return sorted(self.holes)

    def class_of(self, node: TemplateElement) -> type:
        return self.element_classes[id(node)]


def check_template(
    binding: Binding,
    template: TemplateElement | str,
    param_types: dict[str, Any] | None = None,
) -> CheckedTemplate:
    """Statically check *template* against *binding*'s schema."""
    if isinstance(template, str):
        template = parse_template(template)
    return _Checker(binding, param_types or {}).check(template)


class _Checker:
    def __init__(self, binding: Binding, param_types: dict[str, Any]):
        self._binding = binding
        self._param_types = param_types
        self._holes: dict[str, HoleSpec] = {}
        self._element_classes: dict[int, type] = {}

    # -- entry ------------------------------------------------------------------

    def check(self, root: TemplateElement) -> CheckedTemplate:
        root_class = self._class_for_element_name(root.name, root)
        self._check_element(root, root_class)
        return CheckedTemplate(
            self._binding,
            root,
            root_class,
            self._holes,
            self._element_classes,
        )

    def _class_for_element_name(
        self, name: str, node: TemplateElement
    ) -> type:
        candidates = self._binding.declarations_by_name.get(name, [])
        if not candidates:
            raise PxmlStaticError(
                f"element <{name}> is not declared in the schema",
                node.location,
            )
        if len(candidates) > 1:
            raise PxmlStaticError(
                f"element name '{name}' is declared more than once in the "
                "schema; start the template from an unambiguous element",
                node.location,
            )
        return candidates[0]

    # -- hole specs ----------------------------------------------------------------

    def _record(self, spec: HoleSpec, hole: Hole) -> None:
        existing = self._holes.get(spec.name)
        if existing is not None and not existing.compatible_with(spec):
            raise PxmlStaticError(
                f"hole '{spec.name}' is used with conflicting types",
                hole.location,
            )
        if existing is None:
            self._holes[spec.name] = spec

    def _annotation_of(self, hole: Hole) -> Any:
        if hole.name in self._param_types:
            return self._param_types[hole.name]
        return hole.annotation

    def _resolve_element_annotation(
        self, annotation: Any, hole: Hole
    ) -> tuple[type, ...] | None:
        """Classes admitted by an element/group annotation, or None."""
        if isinstance(annotation, type):
            if issubclass(annotation, TypedElement):
                return (annotation,)
            if issubclass(annotation, VdomGroup):
                return self._group_members(annotation)
            return None
        if not isinstance(annotation, str) or annotation == "text":
            return None
        candidates = self._binding.declarations_by_name.get(annotation)
        if candidates:
            if len(candidates) > 1:
                raise PxmlStaticError(
                    f"annotation '{annotation}' on hole '{hole.name}' is "
                    "ambiguous (several declarations share the name)",
                    hole.location,
                )
            return (candidates[0],)
        # Try a generated class name (element or group marker).  Only the
        # "no such class" signal means "not an element annotation" — a
        # blanket except here used to swallow real lookup bugs too.
        try:
            cls = self._binding.class_named(annotation)
        except VdomStateError:
            return None
        if issubclass(cls, TypedElement):
            return (cls,)
        if issubclass(cls, VdomGroup):
            return self._group_members(cls)
        return None

    def _group_members(self, group_class: type) -> tuple[type, ...]:
        members = tuple(
            cls
            for cls in self._binding.classes.values()
            if isinstance(cls, type)
            and issubclass(cls, TypedElement)
            and issubclass(cls, group_class)
            and not cls._DECLARATION.abstract
        )
        if not members:
            raise PxmlStaticError(
                f"choice group {group_class.__name__} has no concrete members"
            )
        return members

    # -- element walk ------------------------------------------------------------------

    def _check_element(self, node: TemplateElement, cls: type) -> None:
        self._element_classes[id(node)] = cls
        declaration: ElementDeclaration = cls._DECLARATION
        if declaration.abstract:
            raise PxmlStaticError(
                f"element '{declaration.name}' is abstract and cannot be "
                "constructed",
                node.location,
            )
        type_definition = cls._TYPE
        if isinstance(type_definition, ComplexType) and type_definition.abstract:
            raise PxmlStaticError(
                f"type '{type_definition.name}' of <{declaration.name}> is "
                "abstract",
                node.location,
            )
        if isinstance(type_definition, SimpleType):
            if node.attributes:
                raise PxmlStaticError(
                    f"<{node.name}> has a simple type and may not carry "
                    f"attributes ('{node.attributes[0].name}' is not "
                    "declared)",
                    node.attributes[0].location,
                )
            self._check_simple_element(node, type_definition)
            return
        if type_definition is ANY_TYPE:
            self._check_anytype_element(node)
            return
        assert isinstance(type_definition, ComplexType)
        self._check_attributes(node, type_definition)
        content_type = type_definition.content_type
        if content_type is ContentType.EMPTY:
            self._check_empty(node)
            return
        if content_type is ContentType.SIMPLE:
            assert type_definition.simple_content is not None
            self._check_simple_element(node, type_definition.simple_content)
            return
        self._check_children(
            node, type_definition, mixed=content_type is ContentType.MIXED
        )

    def _check_empty(self, node: TemplateElement) -> None:
        for child in node.children:
            if isinstance(child, TemplateText) and not child.data.strip(WHITESPACE):
                continue
            raise PxmlStaticError(
                f"<{node.name}> must be empty",
                getattr(child, "location", node.location),
            )

    def _check_anytype_element(self, node: TemplateElement) -> None:
        """anyType content: recurse only for declared names; holes need
        explicit annotations."""
        for child in node.children:
            if isinstance(child, TemplateElement):
                candidates = self._binding.declarations_by_name.get(child.name)
                if candidates and len(candidates) == 1:
                    self._check_element(child, candidates[0])
            elif isinstance(child, Hole):
                annotation = self._annotation_of(child)
                classes = self._resolve_element_annotation(annotation, child)
                if classes:
                    self._record(
                        HoleSpec(child.name, "element", classes), child
                    )
                else:
                    self._record(HoleSpec(child.name, "text"), child)

    def _check_simple_element(
        self, node: TemplateElement, simple_type: SimpleType
    ) -> None:
        static_parts: list[str] = []
        has_hole = False
        for child in node.children:
            if isinstance(child, TemplateText):
                static_parts.append(child.data)
            elif isinstance(child, Hole):
                has_hole = True
                annotation = self._annotation_of(child)
                if annotation not in (None, "text"):
                    raise PxmlStaticError(
                        f"hole '{child.name}' sits in simple content and "
                        "must be text",
                        child.location,
                    )
                self._record(
                    HoleSpec(child.name, "text", simple_type=simple_type),
                    child,
                )
            else:
                raise PxmlStaticError(
                    f"<{node.name}> has simple content and may not contain "
                    f"<{child.name}>",
                    child.location,
                )
        if not has_hole:
            literal = "".join(static_parts)
            try:
                simple_type.parse(literal)
            except SimpleTypeError as error:
                raise PxmlStaticError(
                    f"content of <{node.name}>: {error.message}",
                    node.location,
                )

    # -- attributes ----------------------------------------------------------------------

    def _check_attributes(
        self, node: TemplateElement, complex_type: ComplexType
    ) -> None:
        uses = complex_type.effective_attribute_uses()
        present: set[str] = set()
        for attribute in node.attributes:
            use = uses.get(attribute.name)
            if use is None:
                raise PxmlStaticError(
                    f"attribute '{attribute.name}' is not declared on "
                    f"<{node.name}>",
                    attribute.location,
                )
            present.add(attribute.name)
            attr_type = use.declaration.resolved_type()
            if attribute.is_static():
                value = attribute.static_value()
                if use.fixed is not None and value != use.fixed:
                    raise PxmlStaticError(
                        f"attribute '{attribute.name}' must have the fixed "
                        f"value {use.fixed!r}",
                        attribute.location,
                    )
                try:
                    attr_type.parse(value)
                except SimpleTypeError as error:
                    raise PxmlStaticError(
                        f"attribute '{attribute.name}' of <{node.name}>: "
                        f"{error.message}",
                        attribute.location,
                    )
            else:
                for part in attribute.parts:
                    if isinstance(part, Hole):
                        annotation = self._annotation_of(part)
                        if annotation not in (None, "text"):
                            raise PxmlStaticError(
                                f"hole '{part.name}' sits in an attribute "
                                "value and must be text",
                                part.location,
                            )
                        self._record(
                            HoleSpec(part.name, "text", simple_type=attr_type),
                            part,
                        )
        for name, use in uses.items():
            if use.required and name not in present:
                raise PxmlStaticError(
                    f"required attribute '{name}' missing on <{node.name}>",
                    node.location,
                )

    # -- children ----------------------------------------------------------------------------

    def _check_children(
        self, node: TemplateElement, complex_type: ComplexType, mixed: bool
    ) -> None:
        dfa = self._binding.schema.content_dfa(complex_type)
        states: set[int] = {dfa.start_state}

        def expected_in(current: set[int]) -> str:
            names = sorted({key for s in current for key in dfa.transitions[s]})
            return ", ".join(f"<{k}>" for k in names) or "nothing"

        def step_all(
            current: set[int], name: str, location
        ) -> tuple[set[int], list[ElementDeclaration]]:
            """Advance every state on *name*; all must succeed (soundness)."""
            payloads: list[ElementDeclaration] = []
            next_states: set[int] = set()
            for state in current:
                entry = dfa.transitions[state].get(name)
                if entry is None:
                    raise PxmlStaticError(
                        f"<{name}> is not allowed here inside <{node.name}>; "
                        f"expected {expected_in(current)}",
                        location,
                    )
                target, payload = entry
                next_states.add(target)
                payloads.append(payload)
            return next_states, payloads

        for child in node.children:
            if isinstance(child, TemplateText):
                if child.data.strip(WHITESPACE) and not mixed:
                    raise PxmlStaticError(
                        f"<{node.name}> has element-only content and may "
                        "not contain text",
                        child.location,
                    )
                continue
            if isinstance(child, TemplateElement):
                states, payloads = step_all(states, child.name, child.location)
                child_classes = {
                    self._binding.class_by_declaration.get(id(payload))
                    for payload in payloads
                }
                child_classes.discard(None)
                if len(child_classes) != 1:
                    raise PxmlStaticError(
                        f"<{child.name}> resolves to more than one "
                        "declaration here; restructure the template",
                        child.location,
                    )
                self._check_element(child, child_classes.pop())
                continue
            # A hole in element content.
            annotation = self._annotation_of(child)
            classes = self._resolve_element_annotation(annotation, child)
            if classes is None and annotation in (None, "text"):
                if annotation == "text":
                    if not mixed:
                        raise PxmlStaticError(
                            f"text hole '{child.name}' is not allowed in "
                            f"element-only content of <{node.name}>",
                            child.location,
                        )
                    self._record(HoleSpec(child.name, "text"), child)
                    continue
                if mixed:
                    raise PxmlStaticError(
                        f"hole '{child.name}' sits in mixed content and "
                        f"could be text or an element; annotate it as "
                        f"${child.name}:text$ or ${child.name}:<element>$",
                        child.location,
                    )
                classes = self._infer_element(node, child, dfa, states)
            if classes is None:
                raise PxmlStaticError(
                    f"annotation '{annotation}' on hole '{child.name}' "
                    "names no element, group, or 'text'",
                    child.location,
                )
            # Each alternative must be acceptable from the *current*
            # states; the walk continues from the union of their targets.
            union_states: set[int] = set()
            for cls in classes:
                targets, payloads = step_all(
                    states, cls._DECLARATION.name, child.location
                )
                union_states |= targets
                for payload in payloads:
                    expected_cls = self._binding.class_by_declaration.get(
                        id(payload)
                    )
                    if (
                        expected_cls is not None
                        and expected_cls is not cls
                        and not issubclass(cls, expected_cls)
                    ):
                        raise PxmlStaticError(
                            f"hole '{child.name}' would insert a "
                            f"<{payload.name}> built for a different "
                            "declaration of that name",
                            child.location,
                        )
            states = union_states
            self._record(HoleSpec(child.name, "element", tuple(classes)), child)
        if not all(state in dfa.accepting for state in states):
            expected = sorted(
                {key for s in states for key in dfa.transitions[s]}
            )
            shown = ", ".join(f"<{k}>" for k in expected)
            raise PxmlStaticError(
                f"content of <{node.name}> is incomplete; expected {shown}",
                node.location,
            )

    def _infer_element(
        self, node, hole, dfa, states: set[int]
    ) -> tuple[type, ...]:
        """Infer the single acceptable element for an unannotated hole."""
        per_state = [set(dfa.transitions[s]) for s in states]
        common = set.intersection(*per_state) if per_state else set()
        if len(common) != 1:
            options = ", ".join(sorted(str(n) for n in common)) or "none"
            raise PxmlStaticError(
                f"hole '{hole.name}' is ambiguous here (acceptable elements: "
                f"{options}); annotate it as $"
                f"{hole.name}:<element>$ or ${hole.name}:text$",
                hole.location,
            )
        name = common.pop()
        candidates = self._binding.declarations_by_name.get(name, [])
        if len(candidates) != 1:
            raise PxmlStaticError(
                f"hole '{hole.name}': element name '{name}' is declared "
                "more than once; annotate explicitly",
                hole.location,
            )
        return (candidates[0],)
