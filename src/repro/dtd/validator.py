"""Validate DOM documents against a DTD.

This is the prior-generation validity check (the paper's reference [14]
setting): purely regular content models, coarse attribute typing.  The
XML Schema validator in :mod:`repro.xsd.validator` supersedes it, and the
two share the automaton machinery so their costs are comparable in the
benchmarks.
"""

from __future__ import annotations

from repro.errors import DtdValidationError
from repro.xml.chars import WHITESPACE, is_name, is_nmtoken, split_whitespace
from repro.automata import Dfa, build_dfa
from repro.dom.charnodes import Text
from repro.dom.document import Document
from repro.dom.element import Element
from repro.dtd.model import (
    AttDefault,
    AttType,
    AttributeDefinition,
    ContentKind,
    Dtd,
)


class DtdValidator:
    """Compile a :class:`~repro.dtd.model.Dtd` once, validate many trees."""

    def __init__(self, dtd: Dtd, require_deterministic: bool = True):
        self._dtd = dtd
        self._dfas: dict[str, Dfa] = {}
        for name, declaration in dtd.elements.items():
            self._dfas[name] = build_dfa(
                declaration.content.to_regex(),
                require_deterministic=require_deterministic,
            )

    # -- public API -------------------------------------------------------------

    def validate(self, document: Document) -> list[DtdValidationError]:
        """Return every validity violation found (empty list = valid)."""
        errors: list[DtdValidationError] = []
        root = document.document_element
        if root is None:
            errors.append(DtdValidationError("document has no root element"))
            return errors
        expected_root = self._dtd.root_name
        if expected_root is not None and root.tag_name != expected_root:
            errors.append(
                DtdValidationError(
                    f"root element is <{root.tag_name}>, DOCTYPE declares "
                    f"'{expected_root}'"
                )
            )
        self._validate_element(root, "/" + root.tag_name, errors)
        self._check_id_constraints(document, errors)
        return errors

    def assert_valid(self, document: Document) -> None:
        """Raise the first violation, if any."""
        errors = self.validate(document)
        if errors:
            raise errors[0]

    # -- element checks -----------------------------------------------------------

    def _validate_element(
        self, element: Element, path: str, errors: list[DtdValidationError]
    ) -> None:
        declaration = self._dtd.elements.get(element.tag_name)
        if declaration is None:
            errors.append(
                DtdValidationError(
                    f"element type '{element.tag_name}' is not declared",
                    path=path,
                )
            )
            # Children may still be declared types; recurse for coverage.
            for index, child in enumerate(element.child_elements()):
                self._validate_element(
                    child, f"{path}/{child.tag_name}[{index}]", errors
                )
            return

        self._validate_content(element, declaration.content.kind, path, errors)
        self._validate_attributes(element, path, errors)
        for index, child in enumerate(element.child_elements()):
            self._validate_element(child, f"{path}/{child.tag_name}[{index}]", errors)

    def _validate_content(
        self,
        element: Element,
        kind: ContentKind,
        path: str,
        errors: list[DtdValidationError],
    ) -> None:
        child_elements = element.child_elements()
        has_text = any(
            isinstance(node, Text) and node.data.strip(WHITESPACE)
            for node in element.iter_children()
        )
        if kind is ContentKind.EMPTY:
            if element.has_child_nodes() and (child_elements or has_text):
                errors.append(
                    DtdValidationError(
                        f"element '{element.tag_name}' is declared EMPTY but "
                        "has content",
                        path=path,
                    )
                )
            return
        if kind is ContentKind.ANY:
            for child in child_elements:
                if child.tag_name not in self._dtd.elements:
                    errors.append(
                        DtdValidationError(
                            f"ANY content allows only declared types; "
                            f"'{child.tag_name}' is undeclared",
                            path=path,
                        )
                    )
            return
        if kind is ContentKind.CHILDREN and has_text:
            errors.append(
                DtdValidationError(
                    f"element '{element.tag_name}' has element content but "
                    "contains text",
                    path=path,
                )
            )
        dfa = self._dfas[element.tag_name]
        matcher = dfa.matcher()
        for position, child in enumerate(child_elements):
            if matcher.step(child.tag_name) is None:
                expected = ", ".join(str(key) for key in matcher.expected()) or "nothing"
                errors.append(
                    DtdValidationError(
                        f"child {position + 1} of '{element.tag_name}' is "
                        f"<{child.tag_name}>, expected one of: {expected}",
                        path=path,
                    )
                )
                return
        if not matcher.at_accepting_state():
            expected = ", ".join(str(key) for key in matcher.expected()) or "nothing"
            errors.append(
                DtdValidationError(
                    f"content of '{element.tag_name}' ends too early; "
                    f"expected one of: {expected}",
                    path=path,
                )
            )

    # -- attribute checks -----------------------------------------------------------

    def _validate_attributes(
        self, element: Element, path: str, errors: list[DtdValidationError]
    ) -> None:
        definitions = self._dtd.attribute_definitions(element.tag_name)
        for name, _value in element.attributes.items():
            if name not in definitions:
                errors.append(
                    DtdValidationError(
                        f"attribute '{name}' is not declared for element "
                        f"'{element.tag_name}'",
                        path=path,
                    )
                )
        for name, definition in definitions.items():
            present = element.has_attribute(name)
            if not present:
                if definition.default_kind is AttDefault.REQUIRED:
                    errors.append(
                        DtdValidationError(
                            f"required attribute '{name}' missing on "
                            f"'{element.tag_name}'",
                            path=path,
                        )
                    )
                continue
            value = element.get_attribute(name)
            self._validate_attribute_value(
                element.tag_name, definition, value, path, errors
            )

    def _validate_attribute_value(
        self,
        element_name: str,
        definition: AttributeDefinition,
        value: str,
        path: str,
        errors: list[DtdValidationError],
    ) -> None:
        def complain(reason: str) -> None:
            errors.append(
                DtdValidationError(
                    f"attribute '{definition.name}' of '{element_name}' "
                    f"{reason} (value {value!r})",
                    path=path,
                )
            )

        if (
            definition.default_kind is AttDefault.FIXED
            and value != definition.default_value
        ):
            complain(f"must have the fixed value {definition.default_value!r}")
            return
        att_type = definition.att_type
        if att_type in (AttType.ID, AttType.IDREF, AttType.ENTITY):
            if not is_name(value):
                complain("must be a Name")
        elif att_type in (AttType.IDREFS, AttType.ENTITIES):
            tokens = split_whitespace(value)
            if not tokens or not all(is_name(token) for token in tokens):
                complain("must be one or more Names")
        elif att_type is AttType.NMTOKEN:
            if not is_nmtoken(value):
                complain("must be an NMTOKEN")
        elif att_type is AttType.NMTOKENS:
            tokens = split_whitespace(value)
            if not tokens or not all(is_nmtoken(token) for token in tokens):
                complain("must be one or more NMTOKENs")
        elif att_type in (AttType.ENUMERATION, AttType.NOTATION):
            if value not in definition.enumeration:
                allowed = ", ".join(definition.enumeration)
                complain(f"must be one of: {allowed}")

    def _check_id_constraints(
        self, document: Document, errors: list[DtdValidationError]
    ) -> None:
        """IDs unique; IDREF/IDREFS must point at an existing ID."""
        seen_ids: set[str] = set()
        references: list[tuple[str, str]] = []
        root = document.document_element
        if root is None:
            return
        elements = [root] + [
            node for node in root.iter_descendants() if isinstance(node, Element)
        ]
        for element in elements:
            definitions = self._dtd.attribute_definitions(element.tag_name)
            for name, definition in definitions.items():
                if not element.has_attribute(name):
                    continue
                value = element.get_attribute(name)
                if definition.att_type is AttType.ID:
                    if value in seen_ids:
                        errors.append(
                            DtdValidationError(f"duplicate ID value '{value}'")
                        )
                    seen_ids.add(value)
                elif definition.att_type is AttType.IDREF:
                    references.append((value, element.tag_name))
                elif definition.att_type is AttType.IDREFS:
                    references.extend(
                        (token, element.tag_name) for token in split_whitespace(value)
                    )
        for value, element_name in references:
            if value not in seen_ids:
                errors.append(
                    DtdValidationError(
                        f"IDREF '{value}' on '{element_name}' does not match "
                        "any ID in the document"
                    )
                )


def validate_against_dtd(document: Document, dtd: Dtd) -> list[DtdValidationError]:
    """One-shot validation convenience."""
    return DtdValidator(dtd).validate(document)
