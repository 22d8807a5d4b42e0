"""Runtime validation of DOM trees against a schema.

This is the *baseline* path of the paper's comparison: a generic DOM tree
is built first, then walked and checked — "invalid documents usually
cannot be detected until runtime requiring extensive testing" (Sect. 2).
V-DOM makes this walk unnecessary for generated documents; the benchmarks
measure exactly the cost this module represents.

Namespace handling follows the Namespaces-in-XML rules: element and
attribute names resolve against the in-scope ``xmlns`` bindings and are
matched by *expanded name* against the schema's component keys, so a
document may bind any prefix (or the default namespace) to the schema's
target namespace.  Attributes are classified by resolved namespace —
``xmlns`` declarations and XSI attributes are recognized no matter what
prefix they use; an attribute merely *spelled* ``xsi:…`` whose prefix is
bound elsewhere is treated as the ordinary attribute it is.  For
documents written without namespace declarations, an undeclared ``xsi:``
prefix keeps its conventional meaning so schema-free instances validate
exactly as before.
"""

from __future__ import annotations

from repro.errors import SimpleTypeError, ValidationError
from repro.dom.charnodes import Text
from repro.dom.document import Document
from repro.dom.element import Element
from repro.xml.chars import WHITESPACE
from repro.xml.qname import XML_NAMESPACE, XSI_NAMESPACE
from repro.xsd.components import (
    ANY_TYPE,
    ComplexType,
    ContentType,
    ElementDeclaration,
    Schema,
    TypeDefinition,
    expanded_name,
)
from repro.xsd.simple import SimpleType


class SchemaValidator:
    """Validate documents or elements against one :class:`Schema`."""

    def __init__(self, schema: Schema):
        self._schema = schema
        self._namespaced = schema.uses_namespaces
        #: id(element) -> in-scope prefix bindings, reset per entry point
        self._ns_memo: dict[int, dict[str, str]] = {}

    # -- entry points --------------------------------------------------------

    def validate(self, document: Document) -> list[ValidationError]:
        """Validate a whole document; returns all violations found."""
        self._ns_memo = {}
        root = document.document_element
        if root is None:
            return [ValidationError("document has no root element")]
        declaration = self._schema.elements.get(self._element_key(root))
        if declaration is None:
            return [
                ValidationError(
                    f"root element <{self._display(root)}> is not a global "
                    "element of the schema"
                )
            ]
        return self._validate_element(root, declaration)

    def validate_element(
        self, element: Element, declaration: ElementDeclaration
    ) -> list[ValidationError]:
        """Validate *element* against a specific declaration."""
        self._ns_memo = {}
        return self._validate_element(element, declaration)

    def _validate_element(
        self, element: Element, declaration: ElementDeclaration
    ) -> list[ValidationError]:
        errors: list[ValidationError] = []
        if declaration.abstract:
            errors.append(
                ValidationError(
                    f"element '{declaration.key}' is abstract; only members "
                    "of its substitution group may appear",
                    path="/" + self._display(element),
                )
            )
        self._check_element(
            element, declaration, "/" + self._display(element), errors
        )
        return errors

    def assert_valid(self, document: Document) -> None:
        errors = self.validate(document)
        if errors:
            raise errors[0]

    def is_valid(self, document: Document) -> bool:
        return not self.validate(document)

    # -- namespace resolution --------------------------------------------------

    def _bindings(self, element: Element) -> dict[str, str]:
        """In-scope prefix -> namespace bindings at *element* (memoized)."""
        cached = self._ns_memo.get(id(element))
        if cached is not None:
            return cached
        parent = element.parent_node
        base = (
            self._bindings(parent)
            if isinstance(parent, Element)
            else {"xml": XML_NAMESPACE}
        )
        overrides: dict[str, str] | None = None
        for name, value in element.attributes.items():
            if name == "xmlns":
                overrides = overrides or {}
                overrides[""] = value
            elif name.startswith("xmlns:"):
                overrides = overrides or {}
                overrides[name[len("xmlns:") :]] = value
        bindings = {**base, **overrides} if overrides else base
        self._ns_memo[id(element)] = bindings
        return bindings

    def _element_key(self, element: Element) -> str:
        """The expanded name *element* matches schema components under.

        For namespace-free schemas this stays the lexical tag name —
        the pre-namespace behavior, byte for byte.  An undeclared prefix
        also falls back to the lexical name rather than failing, so the
        schema's "no such element" diagnostics do the explaining.
        """
        if not self._namespaced:
            return element.tag_name
        prefix, colon, local = element.tag_name.partition(":")
        bindings = self._bindings(element)
        if not colon:
            return expanded_name(bindings.get("") or None, element.tag_name)
        uri = bindings.get(prefix)
        if uri is None:
            return element.tag_name
        return expanded_name(uri, local)

    def _display(self, element: Element) -> str:
        """Element name as shown in diagnostics: Clark when namespaced."""
        return self._element_key(element)

    def _attribute_uri(self, element: Element, prefix: str) -> str | None:
        return self._bindings(element).get(prefix)

    def _attribute_items(
        self, element: Element
    ) -> list[tuple[str, str, str]]:
        """(lexical name, matching key, value) for schema-checked attributes.

        Namespace declarations and XSI attributes — identified by their
        *resolved* namespace, whatever prefix they wear — are filtered
        out.  An undeclared ``xsi:`` prefix keeps its conventional
        meaning (legacy documents); any other undeclared prefix leaves
        the attribute matched by its lexical name, where the
        "not declared" diagnostic will name it verbatim.
        """
        items: list[tuple[str, str, str]] = []
        for name, value in element.attributes.items():
            if name == "xmlns" or name.startswith("xmlns:"):
                continue
            prefix, colon, local = name.partition(":")
            if not colon:
                # Unprefixed attributes are in *no* namespace — the
                # default namespace does not apply to attribute names.
                items.append((name, name, value))
                continue
            uri = self._attribute_uri(element, prefix)
            if uri is None:
                if prefix == "xsi":
                    continue
                items.append((name, name, value))
                continue
            if uri == XSI_NAMESPACE:
                continue
            items.append((name, expanded_name(uri, local), value))
        return items

    def _xsi_type_value(self, element: Element) -> str | None:
        """The value of the XSI ``type`` attribute on *element*, if any."""
        for name, value in element.attributes.items():
            prefix, colon, local = name.partition(":")
            if not colon or local != "type" or prefix == "xmlns":
                continue
            uri = self._attribute_uri(element, prefix)
            if uri == XSI_NAMESPACE or (uri is None and prefix == "xsi"):
                return value
        return None

    def _xsi_type_key(self, type_name: str, element: Element) -> str:
        """Resolve the QName *value* of ``xsi:type`` to a type key."""
        if not self._namespaced:
            # Pre-namespace behavior: strip any prefix, look up locally.
            return type_name.rpartition(":")[2]
        prefix, colon, local = type_name.partition(":")
        bindings = self._bindings(element)
        if not colon:
            return expanded_name(bindings.get("") or None, type_name)
        uri = bindings.get(prefix)
        if uri is None:
            return local
        return expanded_name(uri, local)

    # -- element dispatch ------------------------------------------------------

    def _check_element(
        self,
        element: Element,
        declaration: ElementDeclaration,
        path: str,
        errors: list[ValidationError],
    ) -> None:
        type_definition = declaration.resolved_type()
        override = self._xsi_type_value(element)
        if override is not None:
            type_definition = self._resolve_xsi_type(
                override, element, type_definition, path, errors
            )
        if isinstance(type_definition, ComplexType) and type_definition.abstract:
            errors.append(
                ValidationError(
                    f"type '{type_definition.name}' of element "
                    f"'{declaration.key}' is abstract",
                    path=path,
                )
            )
        if declaration.fixed is not None:
            text = element.text_content
            if text != declaration.fixed:
                errors.append(
                    ValidationError(
                        f"element '{declaration.key}' must have the fixed "
                        f"value {declaration.fixed!r}, found {text!r}",
                        path=path,
                    )
                )
        if isinstance(type_definition, SimpleType):
            self._check_simple_element(element, type_definition, path, errors)
            return
        self._check_complex_element(element, type_definition, path, errors)

    def _resolve_xsi_type(
        self,
        type_name: str,
        element: Element,
        declared: TypeDefinition,
        path: str,
        errors: list[ValidationError],
    ) -> TypeDefinition:
        """``xsi:type`` substitutes a *derived* type for the declared one
        — the instance-document face of "type extension … reflected by
        inheritance" (paper Sect. 3)."""
        key = self._xsi_type_key(type_name, element)
        candidate = self._schema.types.get(key)
        if candidate is None:
            errors.append(
                ValidationError(
                    f"xsi:type names unknown type '{type_name}'", path=path
                )
            )
            return declared
        compatible = (
            declared is ANY_TYPE
            or (
                isinstance(candidate, ComplexType)
                and isinstance(declared, ComplexType)
                and candidate.is_derived_from(declared)
            )
            or (
                isinstance(candidate, SimpleType)
                and isinstance(declared, SimpleType)
                and candidate.is_derived_from(declared)
            )
        )
        if not compatible:
            declared_name = getattr(declared, "name", None) or "<anonymous>"
            errors.append(
                ValidationError(
                    f"xsi:type '{type_name}' is not derived from the "
                    f"declared type '{declared_name}'",
                    path=path,
                )
            )
            return declared
        if isinstance(candidate, ComplexType) and candidate.abstract:
            errors.append(
                ValidationError(
                    f"xsi:type names the abstract type '{type_name}'",
                    path=path,
                )
            )
        return candidate

    def _check_simple_element(
        self,
        element: Element,
        simple_type: SimpleType,
        path: str,
        errors: list[ValidationError],
    ) -> None:
        if element.child_elements():
            errors.append(
                ValidationError(
                    f"element <{self._display(element)}> has simple type "
                    f"'{simple_type.name}' but contains child elements",
                    path=path,
                )
            )
            return
        plain_attributes = [
            label if self._namespaced else name
            for name, label, __ in self._attribute_items(element)
        ]
        if plain_attributes:
            errors.append(
                ValidationError(
                    f"element <{self._display(element)}> of simple type may "
                    f"not carry attributes ({', '.join(plain_attributes)})",
                    path=path,
                )
            )
        try:
            simple_type.parse(element.text_content)
        except SimpleTypeError as error:
            errors.append(
                ValidationError(
                    f"content of <{self._display(element)}>: {error.message}",
                    path=path,
                )
            )

    # -- complex types ---------------------------------------------------------------

    def _check_complex_element(
        self,
        element: Element,
        complex_type: ComplexType,
        path: str,
        errors: list[ValidationError],
    ) -> None:
        if complex_type is ANY_TYPE:
            return  # the ur-type accepts anything
        self._check_attributes(element, complex_type, path, errors)
        content_type = complex_type.content_type
        child_elements = element.child_elements()
        has_text = any(
            isinstance(node, Text) and node.data.strip(WHITESPACE)
            for node in element.iter_children()
        )
        if content_type is ContentType.EMPTY:
            if child_elements or has_text:
                errors.append(
                    ValidationError(
                        f"element <{self._display(element)}> must be empty",
                        path=path,
                    )
                )
            return
        if content_type is ContentType.SIMPLE:
            if child_elements:
                errors.append(
                    ValidationError(
                        f"element <{self._display(element)}> has simple "
                        "content but contains child elements",
                        path=path,
                    )
                )
                return
            assert complex_type.simple_content is not None
            try:
                complex_type.simple_content.parse(element.text_content)
            except SimpleTypeError as error:
                errors.append(
                    ValidationError(
                        f"content of <{self._display(element)}>: "
                        f"{error.message}",
                        path=path,
                    )
                )
            return
        if content_type is ContentType.ELEMENT_ONLY and has_text:
            errors.append(
                ValidationError(
                    f"element <{self._display(element)}> has element-only "
                    "content but contains text",
                    path=path,
                )
            )
        self._check_children(element, complex_type, child_elements, path, errors)

    def _check_children(
        self,
        element: Element,
        complex_type: ComplexType,
        child_elements: list[Element],
        path: str,
        errors: list[ValidationError],
    ) -> None:
        dfa = self._schema.content_dfa(complex_type)
        matcher = dfa.matcher()
        for index, child in enumerate(child_elements):
            matched = matcher.step(self._element_key(child))
            if matched is None:
                expected = ", ".join(
                    f"<{key}>" for key in matcher.expected()
                ) or "no further elements"
                errors.append(
                    ValidationError(
                        f"child {index + 1} of <{self._display(element)}> is "
                        f"<{self._display(child)}>; expected {expected}",
                        path=path,
                    )
                )
                return
            child_path = f"{path}/{self._display(child)}[{index}]"
            assert isinstance(matched, ElementDeclaration)
            self._check_element(child, matched, child_path, errors)
        if not matcher.at_accepting_state():
            expected = ", ".join(f"<{key}>" for key in matcher.expected())
            errors.append(
                ValidationError(
                    f"content of <{self._display(element)}> ends too early; "
                    f"expected {expected}",
                    path=path,
                )
            )

    # -- attributes -------------------------------------------------------------------

    def _check_attributes(
        self,
        element: Element,
        complex_type: ComplexType,
        path: str,
        errors: list[ValidationError],
    ) -> None:
        uses = complex_type.effective_attribute_uses()
        present: set[str] = set()
        for name, key, value in self._attribute_items(element):
            present.add(key)
            label = key if self._namespaced else name
            use = uses.get(key)
            if use is None:
                errors.append(
                    ValidationError(
                        f"attribute '{label}' is not declared on "
                        f"<{self._display(element)}>",
                        path=path,
                    )
                )
                continue
            if use.fixed is not None and value != use.fixed:
                errors.append(
                    ValidationError(
                        f"attribute '{label}' must have the fixed value "
                        f"{use.fixed!r}, found {value!r}",
                        path=path,
                    )
                )
                continue
            try:
                use.declaration.resolved_type().parse(value)
            except SimpleTypeError as error:
                errors.append(
                    ValidationError(
                        f"attribute '{label}' of <{self._display(element)}>: "
                        f"{error.message}",
                        path=path,
                    )
                )
        for key, use in uses.items():
            if use.required and key not in present:
                errors.append(
                    ValidationError(
                        f"required attribute '{key}' missing on "
                        f"<{self._display(element)}>",
                        path=path,
                    )
                )


def validate(
    document: Document, schema: Schema
) -> list[ValidationError]:
    """One-shot validation convenience."""
    return SchemaValidator(schema).validate(document)
