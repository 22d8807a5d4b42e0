"""Parse XML Schema documents into the component model.

The parser walks DOMs built by :mod:`repro.dom` in two phases: first it
indexes the global definitions (elements, types, groups, attributes,
attribute groups) of the root document and of every document reached
through ``xsd:include``/``xsd:import``, then it resolves references on
demand with cycle detection, so forward references — ubiquitous in real
schemas, including the paper's purchase order schema — just work.

Namespaces are handled with real QName resolution: every reference
attribute (``type=``, ``ref=``, ``base=``, ``substitutionGroup=``,
``memberTypes=``, ``itemType=``) is resolved against the in-scope
``xmlns`` bindings of the element carrying it, and every global
component is keyed by its *expanded name* — Clark notation
(``{uri}local``) when the schema has a ``targetNamespace``, the bare
local name otherwise, so namespace-free schemas keep exactly the
component keys they always had.  ``elementFormDefault`` /
``attributeFormDefault`` / ``form`` decide whether local declarations
are qualified.

Multi-document schemas compose through ``xsd:include`` (same or absent
— chameleon — target namespace) and ``xsd:import`` (different target
namespace), with ``schemaLocation`` resolved relative to the including
document and already-loaded documents skipped, which also makes
include/import cycles terminate.  Wildcards, identity constraints and
``xsd:redefine`` still raise
:class:`~repro.errors.UnsupportedFeatureError`.
"""

from __future__ import annotations

import hashlib
import os
from typing import Callable

from repro.errors import SchemaError, SimpleTypeError, UnsupportedFeatureError
from repro.xml.chars import split_whitespace
from repro.xml.qname import XML_NAMESPACE, XSD_NAMESPACE
from repro.dom import Element, parse_document
from repro.automata.rex import UNBOUNDED
from repro.xsd.components import (
    AttributeDeclaration,
    AttributeUse,
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
    expanded_name,
)
from repro.xsd.simple import (
    BUILTIN_TYPES,
    SimpleType,
    list_of,
    restrict,
    union_of,
)

#: resolver(location, base_location) -> (document text, resolved location)
SchemaResolver = Callable[[str, "str | None"], "tuple[str, str]"]

_UNSUPPORTED = {
    "any": "wildcards (xsd:any)",
    "anyAttribute": "attribute wildcards (xsd:anyAttribute)",
    "key": "identity constraints (xsd:key)",
    "keyref": "identity constraints (xsd:keyref)",
    "unique": "identity constraints (xsd:unique)",
    "redefine": "schema composition (xsd:redefine)",
}

_FACET_NAMES = {
    "length",
    "minLength",
    "maxLength",
    "pattern",
    "enumeration",
    "whiteSpace",
    "minInclusive",
    "maxInclusive",
    "minExclusive",
    "maxExclusive",
    "totalDigits",
    "fractionDigits",
}

_FORMS = ("qualified", "unqualified")


def _optional(node: Element, name: str) -> str | None:
    """Attribute *name* of *node*, or None when absent: an empty value
    (``fixed=""``) is a value."""
    return node.get_attribute(name) if node.has_attribute(name) else None


def _resolve_schema_location(location: str, base: str | None) -> tuple[str, str]:
    """Default resolver: *location* as a path relative to *base*'s directory."""
    candidate = location
    if not os.path.isabs(candidate):
        directory = os.path.dirname(base) if base else os.getcwd()
        candidate = os.path.join(directory, candidate)
    candidate = os.path.normpath(candidate)
    try:
        with open(candidate, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        raise SchemaError(f"cannot load schema document '{location}': {error}")
    return text, candidate


def parse_schema(
    text: str,
    source: str | None = None,
    *,
    location: str | None = None,
    resolver: SchemaResolver | None = None,
) -> Schema:
    """Parse schema-document *text* into a resolved :class:`Schema`.

    Relative ``schemaLocation`` values on ``xsd:include``/``xsd:import``
    resolve against *location* (falling back to *source* when it looks
    like where the text came from), via *resolver* — by default the
    filesystem.
    """
    document = parse_document(text, source)
    root = document.document_element
    if root is None:
        raise SchemaError("schema document has no root element")
    return parse_schema_document(
        root, location=location if location is not None else source,
        resolver=resolver,
    )


def parse_schema_file(
    path: "str | os.PathLike[str]", *, resolver: SchemaResolver | None = None
) -> Schema:
    """Parse the schema document at *path*, following include/import."""
    path = os.fspath(path)
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        raise SchemaError(f"cannot load schema document '{path}': {error}")
    return parse_schema(
        text, source=path, location=os.path.abspath(path), resolver=resolver
    )


def parse_schema_document(
    root: Element,
    *,
    location: str | None = None,
    resolver: SchemaResolver | None = None,
) -> Schema:
    """Parse a DOM whose root is ``<xsd:schema>``."""
    return _SchemaLoader(resolver).load(root, location)


class _SchemaLoader:
    """Shared component pools across every document of one schema.

    One loader builds one :class:`Schema`; each schema *document* (the
    root plus everything reached through include/import) gets its own
    :class:`_DocParser` carrying that document's namespace context, and
    registers its globals here under expanded-name keys.
    """

    def __init__(self, resolver: SchemaResolver | None):
        self._resolver = resolver or _resolve_schema_location
        self.schema: Schema = Schema()
        #: expanded key -> (owning document, DOM node), per component kind
        self.type_nodes: dict[str, tuple[_DocParser, Element]] = {}
        self.group_nodes: dict[str, tuple[_DocParser, Element]] = {}
        self.attribute_group_nodes: dict[str, tuple[_DocParser, Element]] = {}
        self.element_nodes: dict[str, tuple[_DocParser, Element]] = {}
        self.attribute_nodes: dict[str, tuple[_DocParser, Element]] = {}
        self._resolving: set[str] = set()
        #: (particle, ref text, owning doc, node) for <element ref="..."/>
        self.element_ref_patches: list[
            tuple[Particle, str, _DocParser, Element]
        ] = []
        #: (resolved location, adopted namespace) of every loaded
        #: document — re-including one is a no-op, which is what makes
        #: include/import cycles terminate
        self._seen_documents: set[tuple[str, str | None]] = set()
        #: resolved location -> content digest of every include/import
        #: target, so caches can tell when a related document changed
        self._related_documents: dict[str, str] = {}

    # -- document loading --------------------------------------------------------

    def load(self, root: Element, location: str | None) -> Schema:
        target = root.get_attribute("targetNamespace") or None
        self.schema = Schema(target)
        if location is not None:
            self._seen_documents.add((os.path.normpath(location), target))
        document = _DocParser(self, root, location, target)
        document.register_globals()
        self._resolve_all()
        self.schema.related_documents = tuple(
            sorted(self._related_documents.items())
        )
        return self.schema

    def load_related(
        self,
        location: str,
        base: str | None,
        namespace: str | None,
        directive: str,
    ) -> None:
        """Load one include/import target into the shared pools."""
        text, resolved = self._resolver(location, base)
        self._related_documents[resolved] = hashlib.sha256(
            text.encode("utf-8")
        ).hexdigest()
        dom = parse_document(text, resolved)
        root = dom.document_element
        if root is None:
            raise SchemaError(f"schema document '{resolved}' has no root element")
        declared = root.get_attribute("targetNamespace") or None
        if directive == "include":
            if declared is None:
                # Chameleon include: the document adopts the including
                # schema's target namespace.
                adopted = namespace
            elif declared != namespace:
                raise SchemaError(
                    f"included schema '{resolved}' declares targetNamespace "
                    f"'{declared}' but the including schema's is "
                    f"'{namespace or '(none)'}'"
                )
            else:
                adopted = declared
        else:
            if declared != namespace:
                raise SchemaError(
                    f"imported schema '{resolved}' declares targetNamespace "
                    f"'{declared or '(none)'}' but the xsd:import expects "
                    f"'{namespace or '(none)'}'"
                )
            adopted = declared
        dedup_key = (os.path.normpath(resolved), adopted)
        if dedup_key in self._seen_documents:
            return
        self._seen_documents.add(dedup_key)
        document = _DocParser(
            self,
            root,
            resolved,
            adopted,
            chameleon=declared is None and adopted is not None,
        )
        document.register_globals()

    # -- resolution --------------------------------------------------------------

    def _resolve_all(self) -> None:
        for key in list(self.type_nodes):
            self.resolve_type(key)
        for key in list(self.group_nodes):
            self.resolve_group(key)
        for key in list(self.attribute_nodes):
            self.resolve_attribute(key)
        for key in list(self.element_nodes):
            self.resolve_element(key)
        self._patch_element_references()
        self._close_substitution_groups()

    def _guard(self, kind: str, key: str) -> str:
        guard = f"{kind}:{key}"
        if guard in self._resolving:
            raise SchemaError(f"circular {kind} definition involving '{key}'")
        self._resolving.add(guard)
        return guard

    def resolve_type(self, key: str) -> TypeDefinition | None:
        if key in self.schema.types:
            return self.schema.types[key]
        entry = self.type_nodes.get(key)
        if entry is None:
            return None
        guard = self._guard("type", key)
        try:
            document, node = entry
            if document._local_name(node) == "simpleType":
                definition: TypeDefinition = document._parse_simple_type(
                    node, key
                )
                self.schema.types[key] = definition
            else:
                # Register the shell first so recursive content models
                # (a Tree containing Tree children) resolve to it.
                shell = document._complex_type_shell(node, key)
                self.schema.types[key] = shell
                document._fill_complex_type(node, shell)
                definition = shell
            return definition
        finally:
            self._resolving.discard(guard)

    def resolve_group(self, key: str) -> GroupDefinition:
        if key in self.schema.groups:
            return self.schema.groups[key]
        entry = self.group_nodes.get(key)
        if entry is None:
            raise SchemaError(f"reference to undefined group '{key}'")
        guard = self._guard("group", key)
        try:
            document, node = entry
            children = document._xsd_children(node)
            if len(children) != 1 or children[0][0] not in (
                "sequence",
                "choice",
                "all",
            ):
                raise SchemaError(
                    f"group '{key}' must contain exactly one model group"
                )
            model_group = document._parse_model_group(
                children[0][1], children[0][0]
            )
            model_group.name = key
            definition = GroupDefinition(key, model_group)
            self.schema.groups[key] = definition
            return definition
        finally:
            self._resolving.discard(guard)

    def resolve_attribute_group(self, key: str) -> list[AttributeUse]:
        if key in self.schema.attribute_groups:
            return self.schema.attribute_groups[key]
        entry = self.attribute_group_nodes.get(key)
        if entry is None:
            raise SchemaError(f"reference to undefined attribute group '{key}'")
        guard = self._guard("attribute group", key)
        try:
            document, node = entry
            uses: list[AttributeUse] = []
            for local, child in document._xsd_children(node):
                if local == "attribute":
                    use = document._parse_attribute_use(child)
                    if use is not None:
                        uses.append(use)
                elif local == "attributeGroup":
                    reference = child.get_attribute("ref")
                    uses.extend(
                        self.resolve_attribute_group(
                            document._reference_key(
                                reference, child, "attributeGroup reference"
                            )
                        )
                    )
                else:
                    raise SchemaError(
                        f"unexpected xsd:{local} in attribute group '{key}'"
                    )
            self.schema.attribute_groups[key] = uses
            return uses
        finally:
            self._resolving.discard(guard)

    def resolve_element(self, key: str) -> ElementDeclaration | None:
        if key in self.schema.elements:
            return self.schema.elements[key]
        entry = self.element_nodes.get(key)
        if entry is None:
            return None
        guard = self._guard("element", key)
        try:
            document, node = entry
            declaration = document._parse_element_declaration(
                node, is_global=True
            )
            self.schema.elements[key] = declaration
            return declaration
        finally:
            self._resolving.discard(guard)

    def resolve_attribute(self, key: str) -> AttributeDeclaration | None:
        if key in self.schema.attributes:
            return self.schema.attributes[key]
        entry = self.attribute_nodes.get(key)
        if entry is None:
            return None
        guard = self._guard("attribute", key)
        try:
            document, node = entry
            declaration = document._parse_global_attribute(node)
            self.schema.attributes[key] = declaration
            return declaration
        finally:
            self._resolving.discard(guard)

    def _patch_element_references(self) -> None:
        for particle, reference, document, node in self.element_ref_patches:
            key = document._reference_key(reference, node, "element reference")
            declaration = self.resolve_element(key)
            if declaration is None:
                raise SchemaError(
                    f"element reference '{reference}' has no global declaration"
                )
            particle.term = declaration

    def _close_substitution_groups(self) -> None:
        """Build the transitive member lists for every head element.

        ``substitution_group`` holds the head's already-resolved
        expanded key by the time declarations land in the pool.
        """
        direct: dict[str, list[ElementDeclaration]] = {}
        for declaration in self.schema.elements.values():
            head = declaration.substitution_group
            if head is None:
                continue
            if head not in self.schema.elements:
                raise SchemaError(
                    f"substitutionGroup head '{head}' of element "
                    f"'{declaration.name}' is not a global element"
                )
            direct.setdefault(head, []).append(declaration)

        def members(head: str, seen: frozenset[str]) -> list[ElementDeclaration]:
            if head in seen:
                raise SchemaError(
                    f"circular substitution group through '{head}'"
                )
            result: list[ElementDeclaration] = []
            for member in direct.get(head, ()):
                result.append(member)
                result.extend(members(member.key, seen | {head}))
            return result

        for head in direct:
            self.schema.substitution_members[head] = members(head, frozenset())


class _DocParser:
    """One schema *document*: its DOM plus its namespace context."""

    def __init__(
        self,
        loader: _SchemaLoader,
        root: Element,
        location: str | None,
        target_namespace: str | None,
        chameleon: bool = False,
    ):
        self._loader = loader
        self._root = root
        self._location = location
        self.target_namespace = target_namespace
        #: a chameleon include adopted the includer's namespace, and its
        #: unprefixed references follow the components there
        self._chameleon = chameleon
        # Tolerate schemas written without any XSD namespace declaration
        # (common in teaching material, incl. the paper's snippets):
        # unprefixed schema elements and the conventional xsd:/xs:
        # prefixes are then treated as the XSD namespace.
        self._legacy = not any(
            (name == "xmlns" or name.startswith("xmlns:"))
            and value == XSD_NAMESPACE
            for name, value in root.attributes.items()
        )
        self._base_bindings: dict[str, str] = {"xml": XML_NAMESPACE}
        if self._legacy:
            self._base_bindings["xsd"] = XSD_NAMESPACE
            self._base_bindings["xs"] = XSD_NAMESPACE
        self._ns_memo: dict[int, dict[str, str]] = {}
        if self._local_name(root) != "schema":
            raise SchemaError(
                f"root element is <{root.tag_name}>, expected an xsd:schema"
            )
        self.element_form_default = self._form_attribute(
            root, "elementFormDefault"
        )
        self.attribute_form_default = self._form_attribute(
            root, "attributeFormDefault"
        )
        if target_namespace:
            loader.schema.namespaces.add(target_namespace)

    @staticmethod
    def _form_attribute(root: Element, attribute: str) -> str:
        value = root.get_attribute(attribute) or "unqualified"
        if value not in _FORMS:
            raise SchemaError(f"bad {attribute} '{value}'")
        return value

    # -- namespace handling -----------------------------------------------------

    def _bindings(self, element: Element) -> dict[str, str]:
        """In-scope prefix -> namespace bindings at *element* (memoized)."""
        cached = self._ns_memo.get(id(element))
        if cached is not None:
            return cached
        parent = element.parent_node
        base = (
            self._bindings(parent)
            if isinstance(parent, Element)
            else self._base_bindings
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

    def _local_name(self, element: Element) -> str | None:
        """Local name if *element* is an XSD-namespace element else None."""
        prefix, colon, local = element.tag_name.partition(":")
        bindings = self._bindings(element)
        if not colon:
            default = bindings.get("")
            if default:
                return element.tag_name if default == XSD_NAMESPACE else None
            return element.tag_name if self._legacy else None
        return local if bindings.get(prefix) == XSD_NAMESPACE else None

    def _resolve_qname(
        self, reference: str, node: Element, what: str
    ) -> tuple[str | None, str]:
        """Resolve QName *reference* at *node* to (namespace, local name).

        Per the QName rules, an unprefixed reference takes the in-scope
        *default* namespace (unlike unprefixed attribute names).
        """
        prefix, colon, local = reference.partition(":")
        if not colon:
            default = self._bindings(node).get("") or None
            if default is None and self._chameleon:
                # Chameleon transformation: unqualified references track
                # the components into the adopted target namespace.
                return self.target_namespace, reference
            return default, reference
        uri = self._bindings(node).get(prefix)
        if not uri:
            raise SchemaError(
                f"{what} '{reference}' uses undeclared namespace "
                f"prefix '{prefix}'"
            )
        return uri, local

    def _reference_key(self, reference: str, node: Element, what: str) -> str:
        uri, local = self._resolve_qname(reference, node, what)
        return expanded_name(uri, local)

    # -- child iteration ----------------------------------------------------------

    def _xsd_children(self, element: Element) -> list[tuple[str, Element]]:
        children: list[tuple[str, Element]] = []
        for child in element.child_elements():
            local = self._local_name(child)
            if local is None:
                raise SchemaError(
                    f"foreign element <{child.tag_name}> inside the schema"
                )
            if local in _UNSUPPORTED:
                raise UnsupportedFeatureError(
                    f"{_UNSUPPORTED[local]} are not supported "
                    "(the paper's V-DOM does not handle them)"
                )
            if local in ("annotation", "notation"):
                continue
            children.append((local, child))
        return children

    # -- top level -------------------------------------------------------------------

    def register_globals(self) -> None:
        loader = self._loader
        for local, child in self._xsd_children(self._root):
            if local == "include":
                self._handle_include(child)
                continue
            if local == "import":
                self._handle_import(child)
                continue
            name = child.get_attribute("name")
            key = expanded_name(self.target_namespace, name)
            if local in ("complexType", "simpleType"):
                self._require_name(name, local)
                if key in loader.type_nodes or (
                    self.target_namespace is None and name in BUILTIN_TYPES
                ):
                    raise SchemaError(f"duplicate type definition '{key}'")
                loader.type_nodes[key] = (self, child)
            elif local == "element":
                self._require_name(name, local)
                if key in loader.element_nodes:
                    raise SchemaError(f"duplicate global element '{key}'")
                loader.element_nodes[key] = (self, child)
            elif local == "group":
                self._require_name(name, local)
                if key in loader.group_nodes:
                    raise SchemaError(f"duplicate group definition '{key}'")
                loader.group_nodes[key] = (self, child)
            elif local == "attributeGroup":
                self._require_name(name, local)
                if key in loader.attribute_group_nodes:
                    raise SchemaError(f"duplicate attribute group '{key}'")
                loader.attribute_group_nodes[key] = (self, child)
            elif local == "attribute":
                self._require_name(name, local)
                if key in loader.attribute_nodes:
                    raise SchemaError(
                        f"duplicate global attribute declaration '{key}'"
                    )
                loader.attribute_nodes[key] = (self, child)
            else:
                raise SchemaError(f"unexpected top-level xsd:{local}")

    def _handle_include(self, node: Element) -> None:
        location = node.get_attribute("schemaLocation")
        if not location:
            raise SchemaError("xsd:include needs a schemaLocation")
        self._loader.load_related(
            location, self._location, self.target_namespace, "include"
        )

    def _handle_import(self, node: Element) -> None:
        namespace = node.get_attribute("namespace") or None
        if namespace == self.target_namespace:
            raise SchemaError(
                "xsd:import may not import the schema's own target "
                "namespace; use xsd:include"
            )
        location = node.get_attribute("schemaLocation")
        if not location:
            # Location-less import just asserts the namespace exists;
            # its components must arrive from elsewhere.
            return
        self._loader.load_related(location, self._location, namespace, "import")

    @staticmethod
    def _require_name(name: str, what: str) -> None:
        if not name:
            raise SchemaError(f"top-level xsd:{what} needs a 'name' attribute")

    # -- reference resolution -------------------------------------------------------

    def _resolve_type_reference(
        self, reference: str, node: Element
    ) -> TypeDefinition:
        uri, local = self._resolve_qname(reference, node, "type reference")
        if uri == XSD_NAMESPACE:
            if ":" not in reference:
                # The *default* namespace is XSD: schema-local types
                # still shadow the built-ins, matching how the paper's
                # xmlns="…XMLSchema" examples have always resolved here.
                own = self._loader.resolve_type(
                    expanded_name(self.target_namespace, local)
                )
                if own is not None:
                    return own
            if local == "anyType":
                return ANY_TYPE
            if local in BUILTIN_TYPES:
                return BUILTIN_TYPES[local]
            raise SchemaError(f"unknown built-in type '{reference}'")
        key = expanded_name(uri, local)
        resolved = self._loader.resolve_type(key)
        if resolved is not None:
            return resolved
        if uri is None:
            # No default namespace in scope: after the no-namespace
            # pool, tolerate bare built-in names (teaching schemas).
            if local == "anyType":
                return ANY_TYPE
            if local in BUILTIN_TYPES:
                return BUILTIN_TYPES[local]
            raise SchemaError(f"reference to undefined type '{reference}'")
        raise SchemaError(
            f"reference to undefined type '{key}' (written '{reference}'); "
            f"namespace '{uri}' is not the XML Schema namespace, so "
            "built-ins do not apply"
        )

    def _resolve_simple_type_reference(
        self, reference: str, node: Element
    ) -> SimpleType:
        resolved = self._resolve_type_reference(reference, node)
        if not isinstance(resolved, SimpleType):
            raise SchemaError(f"'{reference}' is not a simple type")
        return resolved

    # -- element declarations ------------------------------------------------------

    def _parse_element_declaration(
        self, node: Element, is_global: bool
    ) -> ElementDeclaration:
        name = node.get_attribute("name")
        if not name:
            raise SchemaError("element declaration needs a 'name'")
        form = node.get_attribute("form") or None
        if form is not None and form not in _FORMS:
            raise SchemaError(f"bad form '{form}' on element '{name}'")
        if is_global:
            target = self.target_namespace
        else:
            effective = form or self.element_form_default
            target = (
                self.target_namespace if effective == "qualified" else None
            )
        head_reference = node.get_attribute("substitutionGroup") or None
        head_key: str | None = None
        if head_reference:
            if not is_global:
                raise SchemaError(
                    f"local element '{name}' may not join a substitution group"
                )
            head_key = self._reference_key(
                head_reference, node, f"substitutionGroup of element '{name}'"
            )
        declaration = ElementDeclaration(
            name,
            type_name=node.get_attribute("type") or None,
            is_global=is_global,
            abstract=node.get_attribute("abstract") == "true",
            substitution_group=head_key,
            default=_optional(node, "default"),
            fixed=_optional(node, "fixed"),
            target_namespace=target,
        )
        inline_children = self._xsd_children(node)
        inline_type = [
            (local, child)
            for local, child in inline_children
            if local in ("complexType", "simpleType")
        ]
        if declaration.type_name and inline_type:
            raise SchemaError(
                f"element '{name}' has both a type attribute and an inline type"
            )
        if declaration.type_name:
            declaration.type_definition = self._resolve_type_reference(
                declaration.type_name, node
            )
        elif inline_type:
            local, child = inline_type[0]
            if local == "simpleType":
                declaration.type_definition = self._parse_simple_type(child, None)
            else:
                declaration.type_definition = self._parse_complex_type(child, None)
        elif head_key:
            # Per spec the type defaults to the head's type.
            head = self._loader.resolve_element(head_key)
            if head is None:
                raise SchemaError(
                    f"substitutionGroup head '{head_key}' of element "
                    f"'{name}' is not a global element"
                )
            declaration.type_definition = head.resolved_type()
        else:
            declaration.type_definition = ANY_TYPE
        return declaration

    def _parse_content_particle(self, node: Element, local: str) -> Particle:
        """A particle inside a model group: element / group ref / nested group."""
        min_occurs, max_occurs = self._parse_occurs(node)
        if local == "element":
            reference = node.get_attribute("ref")
            if reference:
                uri, ref_local = self._resolve_qname(
                    reference, node, "element reference"
                )
                placeholder = ElementDeclaration(
                    ref_local, is_global=True, target_namespace=uri
                )
                particle = Particle(placeholder, min_occurs, max_occurs)
                self._loader.element_ref_patches.append(
                    (particle, reference, self, node)
                )
                return particle
            declaration = self._parse_element_declaration(node, is_global=False)
            return Particle(declaration, min_occurs, max_occurs)
        if local == "group":
            reference = node.get_attribute("ref")
            if not reference:
                raise SchemaError("nested xsd:group must use ref=")
            key = self._reference_key(reference, node, "group reference")
            definition = self._loader.resolve_group(key)
            return Particle(
                GroupReference(key, definition), min_occurs, max_occurs
            )
        model_group = self._parse_model_group(node, local)
        return Particle(model_group, min_occurs, max_occurs)

    def _parse_model_group(self, node: Element, local: str) -> ModelGroup:
        compositor = Compositor(local)
        group = ModelGroup(compositor)
        for child_local, child in self._xsd_children(node):
            if child_local not in ("element", "sequence", "choice", "all", "group"):
                raise SchemaError(
                    f"unexpected xsd:{child_local} inside xsd:{local}"
                )
            if compositor is Compositor.ALL and child_local != "element":
                raise SchemaError("xsd:all may contain only element particles")
            group.particles.append(
                self._parse_content_particle(child, child_local)
            )
        return group

    @staticmethod
    def _parse_occurs(node: Element) -> tuple[int, int]:
        raw_min = node.get_attribute("minOccurs") or "1"
        raw_max = node.get_attribute("maxOccurs") or "1"
        try:
            min_occurs = int(raw_min)
        except ValueError:
            raise SchemaError(f"bad minOccurs '{raw_min}'")
        if raw_max == "unbounded":
            max_occurs = UNBOUNDED
        else:
            try:
                max_occurs = int(raw_max)
            except ValueError:
                raise SchemaError(f"bad maxOccurs '{raw_max}'")
            if max_occurs < min_occurs:
                raise SchemaError(
                    f"maxOccurs {max_occurs} is below minOccurs {min_occurs}"
                )
        if min_occurs < 0:
            raise SchemaError("minOccurs may not be negative")
        return min_occurs, max_occurs

    # -- complex types -----------------------------------------------------------------

    def _complex_type_shell(self, node: Element, name: str | None) -> ComplexType:
        return ComplexType(
            name=name,
            abstract=node.get_attribute("abstract") == "true",
            mixed=node.get_attribute("mixed") == "true",
        )

    def _parse_complex_type(self, node: Element, name: str | None) -> ComplexType:
        complex_type = self._complex_type_shell(node, name)
        self._fill_complex_type(node, complex_type)
        return complex_type

    def _fill_complex_type(self, node: Element, complex_type: ComplexType) -> None:
        children = self._xsd_children(node)
        content_children = [
            (local, child)
            for local, child in children
            if local in ("sequence", "choice", "all", "group")
        ]
        wrapper = [
            (local, child)
            for local, child in children
            if local in ("simpleContent", "complexContent")
        ]
        if wrapper and content_children:
            raise SchemaError(
                "complexType cannot mix simpleContent/complexContent with "
                "a direct model group"
            )
        if wrapper:
            local, child = wrapper[0]
            if local == "simpleContent":
                self._parse_simple_content(child, complex_type)
            else:
                self._parse_complex_content(child, complex_type)
        else:
            if len(content_children) > 1:
                raise SchemaError("complexType has more than one model group")
            if content_children:
                local, child = content_children[0]
                complex_type.content = self._parse_content_particle(child, local)
            self._parse_attribute_uses(children, complex_type)

    def _parse_attribute_uses(
        self,
        children: list[tuple[str, Element]],
        complex_type: ComplexType,
    ) -> None:
        for local, child in children:
            if local == "attribute":
                use = self._parse_attribute_use(child)
                if use is not None:
                    if use.key in complex_type.attribute_uses:
                        raise SchemaError(
                            f"duplicate attribute '{use.key}' on complex type "
                            f"'{complex_type.name}'"
                        )
                    complex_type.attribute_uses[use.key] = use
            elif local == "attributeGroup":
                reference = child.get_attribute("ref")
                if not reference:
                    raise SchemaError("nested xsd:attributeGroup must use ref=")
                key = self._reference_key(
                    reference, child, "attributeGroup reference"
                )
                for use in self._loader.resolve_attribute_group(key):
                    complex_type.attribute_uses[use.key] = use

    def _parse_attribute_use(self, node: Element) -> AttributeUse | None:
        use_kind = node.get_attribute("use") or "optional"
        if use_kind == "prohibited":
            return None
        reference = node.get_attribute("ref") or None
        if reference:
            if node.get_attribute("name"):
                raise SchemaError(
                    "attribute may not carry both 'name' and 'ref'"
                )
            key = self._reference_key(reference, node, "attribute reference")
            declaration = self._loader.resolve_attribute(key)
            if declaration is None:
                raise SchemaError(
                    f"attribute reference '{reference}' has no global "
                    f"declaration ('{key}')"
                )
            # A use's own default or fixed value replaces the
            # declaration's pair, but may not loosen a fixed value.
            default = _optional(node, "default")
            fixed = _optional(node, "fixed")
            if default is None and fixed is None:
                default, fixed = declaration.default, declaration.fixed
            elif declaration.fixed not in (None, fixed):
                raise SchemaError(
                    f"attribute reference '{reference}' must keep its "
                    f"declaration's fixed value {declaration.fixed!r}"
                )
            return self._build_attribute_use(
                declaration, use_kind, default, fixed
            )
        name = node.get_attribute("name")
        if not name:
            raise SchemaError("attribute declaration needs a 'name'")
        form = node.get_attribute("form") or None
        if form is not None and form not in _FORMS:
            raise SchemaError(f"bad form '{form}' on attribute '{name}'")
        effective = form or self.attribute_form_default
        declaration = AttributeDeclaration(
            name,
            type_name=node.get_attribute("type") or None,
            target_namespace=(
                self.target_namespace if effective == "qualified" else None
            ),
        )
        self._fill_attribute_type(declaration, node)
        default = _optional(node, "default")
        fixed = _optional(node, "fixed")
        return self._build_attribute_use(declaration, use_kind, default, fixed)

    def _build_attribute_use(
        self,
        declaration: AttributeDeclaration,
        use_kind: str,
        default: str | None,
        fixed: str | None,
    ) -> AttributeUse:
        name = declaration.name
        if default is not None and fixed is not None:
            raise SchemaError(
                f"attribute '{name}' has both a default and a fixed value"
            )
        if use_kind == "required" and default is not None:
            raise SchemaError(
                f"required attribute '{name}' may not carry a default"
            )
        for kind, constant in (("default", default), ("fixed", fixed)):
            if constant is not None:
                try:
                    declaration.resolved_type().validate(constant)
                except SimpleTypeError as error:
                    raise SchemaError(
                        f"{kind} value {constant!r} of attribute '{name}' "
                        f"does not satisfy its type: {error}"
                    )
        return AttributeUse(
            declaration,
            required=use_kind == "required",
            default=default,
            fixed=fixed,
        )

    def _fill_attribute_type(
        self, declaration: AttributeDeclaration, node: Element
    ) -> None:
        inline = [
            child
            for local, child in self._xsd_children(node)
            if local == "simpleType"
        ]
        if declaration.type_name and inline:
            raise SchemaError(
                f"attribute '{declaration.name}' has both a type attribute "
                "and an inline type"
            )
        if declaration.type_name:
            declaration.type_definition = self._resolve_simple_type_reference(
                declaration.type_name, node
            )
        elif inline:
            declaration.type_definition = self._parse_simple_type(inline[0], None)
        else:
            declaration.type_definition = BUILTIN_TYPES["anySimpleType"]

    def _parse_global_attribute(self, node: Element) -> AttributeDeclaration:
        name = node.get_attribute("name")
        if node.get_attribute("ref"):
            raise SchemaError(
                f"top-level attribute '{name or ''}' may not use ref="
            )
        if node.get_attribute("use"):
            raise SchemaError(
                f"top-level attribute '{name}' may not constrain 'use'"
            )
        # Global attribute declarations are always qualified.
        declaration = AttributeDeclaration(
            name,
            type_name=node.get_attribute("type") or None,
            target_namespace=self.target_namespace,
        )
        self._fill_attribute_type(declaration, node)
        declaration.default = _optional(node, "default")
        declaration.fixed = _optional(node, "fixed")
        if declaration.default is not None and declaration.fixed is not None:
            raise SchemaError(
                f"attribute '{name}' has both a default and a fixed value"
            )
        for kind, constant in (
            ("default", declaration.default),
            ("fixed", declaration.fixed),
        ):
            if constant is not None:
                try:
                    declaration.resolved_type().validate(constant)
                except SimpleTypeError as error:
                    raise SchemaError(
                        f"{kind} value {constant!r} of attribute '{name}' "
                        f"does not satisfy its type: {error}"
                    )
        return declaration

    def _parse_simple_content(self, node: Element, complex_type: ComplexType) -> None:
        children = self._xsd_children(node)
        if len(children) != 1 or children[0][0] not in ("extension", "restriction"):
            raise SchemaError(
                "simpleContent must contain one extension or restriction"
            )
        local, child = children[0]
        base_reference = child.get_attribute("base")
        if not base_reference:
            raise SchemaError(f"simpleContent {local} needs a 'base'")
        base = self._resolve_type_reference(base_reference, child)
        complex_type.base_name = base_reference
        complex_type.derivation = (
            DerivationMethod.EXTENSION
            if local == "extension"
            else DerivationMethod.RESTRICTION
        )
        if isinstance(base, SimpleType):
            complex_type.base = base
            simple_base = base
        elif isinstance(base, ComplexType) and base.simple_content is not None:
            complex_type.base = base
            simple_base = base.simple_content
        else:
            raise SchemaError(
                f"simpleContent base '{base_reference}' has no simple content"
            )
        grand_children = self._xsd_children(child)
        facet_nodes = [
            (grand_local, grand)
            for grand_local, grand in grand_children
            if grand_local in _FACET_NAMES
        ]
        if local == "restriction" and facet_nodes:
            simple_base = self._apply_facets(simple_base, facet_nodes, None)
        complex_type.simple_content = simple_base
        self._parse_attribute_uses(grand_children, complex_type)

    def _parse_complex_content(self, node: Element, complex_type: ComplexType) -> None:
        if node.get_attribute("mixed") == "true":
            complex_type.mixed = True
        children = self._xsd_children(node)
        if len(children) != 1 or children[0][0] not in ("extension", "restriction"):
            raise SchemaError(
                "complexContent must contain one extension or restriction"
            )
        local, child = children[0]
        base_reference = child.get_attribute("base")
        if not base_reference:
            raise SchemaError(f"complexContent {local} needs a 'base'")
        base = self._resolve_type_reference(base_reference, child)
        if not isinstance(base, ComplexType):
            raise SchemaError(
                f"complexContent base '{base_reference}' is not a complex type"
            )
        complex_type.base_name = base_reference
        complex_type.base = base
        complex_type.derivation = (
            DerivationMethod.EXTENSION
            if local == "extension"
            else DerivationMethod.RESTRICTION
        )
        grand_children = self._xsd_children(child)
        content_children = [
            (grand_local, grand)
            for grand_local, grand in grand_children
            if grand_local in ("sequence", "choice", "all", "group")
        ]
        if len(content_children) > 1:
            raise SchemaError("derivation has more than one model group")
        if content_children:
            grand_local, grand = content_children[0]
            complex_type.content = self._parse_content_particle(grand, grand_local)
        self._parse_attribute_uses(grand_children, complex_type)

    # -- simple types --------------------------------------------------------------------

    def _parse_simple_type(self, node: Element, name: str | None) -> SimpleType:
        children = self._xsd_children(node)
        if len(children) != 1:
            raise SchemaError(
                "simpleType must contain exactly one restriction/list/union"
            )
        local, child = children[0]
        if local == "restriction":
            return self._parse_simple_restriction(child, name)
        if local == "list":
            return self._parse_simple_list(child, name)
        if local == "union":
            return self._parse_simple_union(child, name)
        raise SchemaError(f"unexpected xsd:{local} inside simpleType")

    def _parse_simple_restriction(
        self, node: Element, name: str | None
    ) -> SimpleType:
        base_reference = node.get_attribute("base")
        children = self._xsd_children(node)
        inline_base = [child for local, child in children if local == "simpleType"]
        if base_reference and inline_base:
            raise SchemaError(
                "restriction has both a base attribute and an inline base"
            )
        if base_reference:
            base = self._resolve_simple_type_reference(base_reference, node)
        elif inline_base:
            base = self._parse_simple_type(inline_base[0], None)
        else:
            raise SchemaError("restriction needs a base type")
        facet_nodes = [
            (local, child) for local, child in children if local in _FACET_NAMES
        ]
        return self._apply_facets(base, facet_nodes, name)

    def _apply_facets(
        self,
        base: SimpleType,
        facet_nodes: list[tuple[str, Element]],
        name: str | None,
    ) -> SimpleType:
        facet_arguments: dict[str, object] = {}
        patterns: list[str] = []
        enumeration: list[str] = []
        fixed_names: set[str] = set()

        def scalar(key: str, value: str, convert=lambda v: v) -> None:
            if key in facet_arguments:
                raise SchemaError(f"facet '{key}' given twice")
            facet_arguments[key] = convert(value)

        for local, child in facet_nodes:
            value = child.get_attribute("value")
            if child.get_attribute("fixed") == "true":
                fixed_names.add(local)
            if local == "pattern":
                patterns.append(value)
            elif local == "enumeration":
                enumeration.append(value)
            elif local == "whiteSpace":
                scalar("white_space", value)
            elif local in ("length", "minLength", "maxLength",
                           "totalDigits", "fractionDigits"):
                snake = {
                    "length": "length",
                    "minLength": "min_length",
                    "maxLength": "max_length",
                    "totalDigits": "total_digits",
                    "fractionDigits": "fraction_digits",
                }[local]
                scalar(snake, value, int)
            else:
                snake = {
                    "minInclusive": "min_inclusive",
                    "maxInclusive": "max_inclusive",
                    "minExclusive": "min_exclusive",
                    "maxExclusive": "max_exclusive",
                }[local]
                scalar(snake, value)
        if patterns:
            facet_arguments["patterns"] = tuple(patterns)
        if enumeration:
            facet_arguments["enumeration"] = tuple(enumeration)
        if fixed_names:
            facet_arguments["fixed_names"] = frozenset(fixed_names)
        return restrict(base, name, **facet_arguments)

    def _parse_simple_list(self, node: Element, name: str | None) -> SimpleType:
        item_reference = node.get_attribute("itemType")
        children = self._xsd_children(node)
        inline = [child for local, child in children if local == "simpleType"]
        if item_reference and inline:
            raise SchemaError("list has both itemType and an inline item type")
        if item_reference:
            item_type = self._resolve_simple_type_reference(item_reference, node)
        elif inline:
            item_type = self._parse_simple_type(inline[0], None)
        else:
            raise SchemaError("list needs an item type")
        return list_of(item_type, name)

    def _parse_simple_union(self, node: Element, name: str | None) -> SimpleType:
        members: list[SimpleType] = []
        member_references = split_whitespace(node.get_attribute("memberTypes"))
        for reference in member_references:
            members.append(self._resolve_simple_type_reference(reference, node))
        for local, child in self._xsd_children(node):
            if local == "simpleType":
                members.append(self._parse_simple_type(child, None))
        if not members:
            raise SchemaError("union needs at least one member type")
        return union_of(tuple(members), name)
