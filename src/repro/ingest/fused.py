"""Fused parse-to-typed-tree: one walk drives typed construction directly.

The legacy ingest route is three passes over the data::

    PullParser events -> generic DOM -> Binding.from_dom -> typed tree
                         (builder)      (DFA walk #1)       (DFA walk #2
                                                             in check_valid)

This module collapses them into one: the content-model DFAs are stepped
*while the document is being read*, and ``TypedElement`` nodes are
allocated directly — no generic DOM is ever built and no second
validation pass runs.  One set of typed handlers (:class:`_TypedWalk`:
frame building, one content-model matcher per frame, and
:func:`_construct`) does that work for both feeders: :func:`fused_parse`
drives it from ``PullParser`` events, and
:func:`~repro.ingest.table_driven.table_parse` from the turbo scanner
(:func:`repro.xml.turbo.scan`).  The observable behaviour is identical
to ``binding.from_dom(parse_document(text).document_element)``:

* the same typed classes are instantiated for the same declarations,
* the same tree shape results (text-node granularity, CDATA flattening,
  whitespace dropping, ``xmlns`` attribute filtering, attribute defaults),
* every document the legacy route rejects is rejected with the same
  exception type and message, and syntax errors keep their precedence
  over validity errors (the legacy route parses fully before binding),
* post-parse mutation behaves identically, including the
  ``_content_state`` incremental-append cache.

Documents using features the fused walk cannot prove (an internal DTD
subset, whose entity/default machinery the DOM route may interpret) fall
back to the legacy route transparently via :func:`ingest`.

``tests/ingest/test_fused.py`` holds the two routes to the same answers,
valid and invalid alike.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.errors import SimpleTypeError, VdomTypeError
from repro.dom.attr import NamedNodeMap
from repro.dom.builder import parse_document
from repro.dom.charnodes import Text
from repro.core.vdom import Binding, TypedElement
from repro.xml.events import Characters, DoctypeDecl, EndElement, StartElement
from repro.xml.parser import PullParser
from repro.xsd.components import ANY_TYPE, ComplexType, ContentType
from repro.xsd.simple import SimpleType

_STRUCTURED = (ContentType.ELEMENT_ONLY, ContentType.MIXED)

#: per-declaration cap on the accepted-leaf-value memo (table route):
#: high-cardinality corpora stop inserting once full instead of growing
#: without bound, and hits keep working for the values already seen
_VALUE_MEMO_LIMIT = 4096


class IngestFallback(Exception):
    """Raised internally when a document needs the legacy parse route."""


class _Frame:
    """One open element during a typed walk."""

    __slots__ = (
        "tag",
        "cls",
        "type_definition",
        "matcher",
        "structured",
        "content_type",
        "has_required",
        "cinfo",
        "memo",
        "children",
        "text_parts",
        "attributes",
        "element_count",
    )

    def __init__(self, tag, info, attributes, use_tables):
        (
            cls,
            type_definition,
            structured,
            dfa,
            table,
            content_type,
            has_required,
            cinfo,
            memo,
        ) = info
        self.tag = tag
        self.cls = cls
        self.type_definition = type_definition
        # The content-model matcher of a structured frame: flat tables,
        # or the object DFA on the golden reference route.
        if structured:
            self.matcher = table.matcher() if use_tables else dfa.matcher()
        else:
            self.matcher = None
        self.structured = structured
        self.content_type = content_type  # None for simple-typed elements
        self.has_required = has_required  # any required attribute use?
        self.cinfo = cinfo  # class-derived constants for _construct
        # Accepted-leaf-value memo; the reference route checks every
        # value afresh.
        self.memo = memo if use_tables else None
        self.children = []  # str | TypedElement, in document order
        self.text_parts = []  # all character data in the subtree (leaf only)
        self.attributes = attributes  # as read, ``xmlns`` pairs included
        self.element_count = 0


class _TypedWalk:
    """The typed handlers: frames, content-model steps, construction.

    ``start(name, attributes, where)``, ``end()`` and
    ``characters(data, where)`` take ``PullParser`` events
    (:func:`fused_parse`) and the turbo scanner's calls
    (:func:`~repro.ingest.table_driven.table_parse`) alike; positions
    are not needed, since typed-tree errors carry none.  After the last
    ``end`` the typed tree is :attr:`root`.
    """

    __slots__ = (
        "root",
        "_binding",
        "_schema",
        "_classes",
        "_dispatch",
        "_use_tables",
        "_stack",
        "_skip_depth",
    )

    def __init__(self, binding: Binding, use_tables: bool):
        self.root: TypedElement | None = None
        self._binding = binding
        self._schema = binding.schema
        self._classes = binding.class_by_declaration
        # Per-declaration dispatch info (see _dispatch_info), computed
        # once per binding: declarations are interned in the schema, so
        # ``id`` keys are stable for its lifetime.
        dispatch = binding.__dict__.get("_ingest_dispatch")
        if dispatch is None:
            dispatch = {}
            binding._ingest_dispatch = dispatch
        self._dispatch = dispatch
        self._use_tables = use_tables
        self._stack: list[_Frame] = []
        # Elements below a leaf (non-structured) frame are not typed at
        # all — ``from_dom`` flattens that subtree to its text content —
        # so they are only counted, and their character data accrues to
        # the leaf frame.
        self._skip_depth = 0

    def start(self, name: str, attributes, where) -> None:
        stack = self._stack
        if stack:
            frame = stack[-1]
            if not frame.structured:
                self._skip_depth += 1
                return
            declaration = frame.matcher.step(name)
            if declaration is None:
                raise VdomTypeError(f"<{name}> is not allowed inside <{frame.tag}>")
        else:
            declaration = self._schema.elements.get(name)
            if declaration is None:
                raise VdomTypeError(
                    f"<{name}> is not a global element of the schema"
                )
        info = self._dispatch.get(id(declaration))
        if info is None:
            info = _dispatch_info(self._schema, self._classes, declaration)
            self._dispatch[id(declaration)] = info
        stack.append(_Frame(name, info, attributes, self._use_tables))

    def end(self) -> None:
        if self._skip_depth:
            self._skip_depth -= 1
            return
        stack = self._stack
        element = _construct(self._binding, stack.pop())
        if stack:
            parent = stack[-1]
            parent.children.append(element)
            parent.element_count += 1
        else:
            self.root = element

    def characters(self, data: str, where) -> None:
        frame = self._stack[-1]
        if frame.structured:
            if data.strip():
                frame.children.append(data)
        else:
            frame.text_parts.append(data)


@dataclass
class IngestResult:
    """Outcome of :func:`ingest`: the typed root plus route taken."""

    root: TypedElement
    fused: bool  #: False when the legacy parse->build->bind fallback ran


def legacy_parse(binding: Binding, text: str, source: str | None = None):
    """The original three-pass route: parse -> DOM -> ``from_dom``."""
    document = parse_document(text, source)
    return binding.from_dom(document.document_element)


def parse_typed(binding: Binding, text: str, source: str | None = None):
    """Parse *text* into a typed tree, fused when possible.

    This is the drop-in replacement for
    ``binding.from_dom(parse_document(text).document_element)``.
    """
    return ingest(binding, text, source).root


def ingest(binding: Binding, text: str, source: str | None = None) -> IngestResult:
    """Like :func:`parse_typed` but reporting which route ran."""
    # Function-level import: table_driven builds on this module.
    from repro.ingest.table_driven import table_parse

    try:
        result = IngestResult(table_parse(binding, text, source), True)
    except IngestFallback as fallback:
        obs.count(
            "ingest.route", route="legacy", reason=str(fallback) or "unknown"
        )
        return IngestResult(legacy_parse(binding, text, source), False)
    obs.count("ingest.route", route="fused")
    return result


def fused_parse(
    binding: Binding,
    text: str,
    source: str | None = None,
    *,
    use_tables: bool = True,
) -> TypedElement:
    """Single-pass parse + validate + typed construction.

    Raises :class:`IngestFallback` on documents the fused walk does not
    cover (DOCTYPE declarations); callers wanting transparency use
    :func:`ingest` / :func:`parse_typed`.

    With ``use_tables`` (the default) content models are stepped through
    flat integer transition tables — one dict probe and two array
    indexings per child element — and leaf values a declaration has
    already accepted skip re-validation.  ``use_tables=False`` steps the
    object DFAs and checks every value instead; it is the golden
    reference the table route is held to (and the baseline the
    ``ingest:table_driven`` benchmark floor is measured against).
    """
    binding._require_no_namespaces("fused ingest")
    walk = _TypedWalk(binding, use_tables)
    start = walk.start
    end = walk.end
    characters = walk.characters
    events = iter(PullParser(text, source))
    try:
        for event in events:
            kind = event.__class__
            if kind is Characters:
                characters(event.data, event.location)
            elif kind is StartElement:
                start(event.name, event.attributes, event.location)
            elif kind is EndElement:
                end()
            elif kind is DoctypeDecl:
                raise IngestFallback("internal DTD subset")
            # XML declarations, comments, and processing instructions
            # carry no typed content (from_dom ignores them).
    except VdomTypeError:
        # The legacy route parses the *whole* document before binding, so
        # a syntax error anywhere outranks any validity error.  Drain the
        # remaining events to surface one before re-raising.
        for _ in events:
            pass
        raise
    assert walk.root is not None  # the parser guarantees a root element
    return walk.root


def _dispatch_info(schema, class_by_declaration, declaration) -> tuple:
    """Build one per-declaration dispatch entry: ``(cls, type_definition,
    structured, dfa, table, content_type, has_required, cinfo, memo)``.

    Entries live in ``binding._ingest_dispatch`` keyed on
    ``id(declaration)``, shared by both routes of the typed walk.
    """
    cls = class_by_declaration.get(id(declaration))
    if cls is None:
        raise VdomTypeError(
            f"no generated class for declaration '{declaration.name}'"
        )
    type_definition = declaration.resolved_type()
    if isinstance(type_definition, ComplexType):
        content_type = type_definition.content_type
        structured = content_type in _STRUCTURED
        has_required = any(
            use.required
            for use in type_definition.effective_attribute_uses().values()
        )
    else:
        content_type = None
        structured = False
        has_required = False
    return (
        cls,
        type_definition,
        structured,
        schema.content_dfa(type_definition) if structured else None,
        schema.content_table(type_definition) if structured else None,
        content_type,
        has_required,
        _construct_info(cls),
        # Accepted-leaf-value memo, used by the table route only: a
        # bounded set of raw text contents this declaration's simple
        # type has already accepted, so repeated values skip the
        # facet/lexical re-validation.  Validation is pure, so caching
        # acceptance is observationally free; rejections are never
        # cached (the error path re-raises identically every time).
        {},
    )


def _construct_info(cls) -> tuple:
    """Class-derived constants ``_construct`` would otherwise re-derive
    per element: the tag, the pre-rendered abstractness rejection (or
    None), the declared type and its two fast-path classifications, the
    element-level ``fixed`` value, and the attribute tables."""
    declaration = cls._DECLARATION
    type_definition = cls._TYPE
    abstract_error = None
    if declaration.abstract:
        abstract_error = (
            f"element '{declaration.name}' is abstract; construct a "
            "member of its substitution group instead"
        )
    elif isinstance(type_definition, ComplexType) and type_definition.abstract:
        abstract_error = (
            f"type '{type_definition.name}' of element "
            f"'{declaration.name}' is abstract"
        )
    lookup, defaults = cls.__dict__.get("_INGEST_ATTRS") or _build_attr_tables(cls)
    return (
        declaration.name,
        abstract_error,
        type_definition,
        isinstance(type_definition, SimpleType),
        type_definition is ANY_TYPE,
        declaration.fixed,
        lookup,
        defaults,
    )


def _construct(binding: Binding, frame: _Frame) -> TypedElement:
    """Allocate the typed element for a completed frame.

    Mirrors ``TypedElement.__init__`` as driven by ``Binding.from_dom``
    — same checks, same messages, same ordering — but allocates
    directly: names were already validated by the parser (or come from
    the schema), and the content-model DFA was stepped during parsing,
    so neither is re-run.
    """
    cls = frame.cls
    (
        tag,
        abstract_error,
        type_definition,
        is_simple,
        is_any,
        fixed,
        lookup,
        defaults,
    ) = frame.cinfo
    if abstract_error is not None:
        raise VdomTypeError(abstract_error)
    element = cls.__new__(cls)
    element._owner_document = None
    element._parent = None
    element._tag_name = tag
    attribute_map = NamedNodeMap(element)
    element._attributes = attribute_map

    nodes = []
    has_text = False
    data = ""
    if frame.structured:
        for child in frame.children:
            if child.__class__ is str:
                node = Text(child, None)
                node._parent = element
                nodes.append(node)
                has_text = True
            else:
                child._parent = element
                nodes.append(child)
    else:
        data = "".join(frame.text_parts)
        if data:
            node = Text(data, None)
            node._parent = element
            nodes.append(node)
    element._children = nodes

    # Fixed/defaulted attributes first, explicit values second — the
    # explicit value overwrites in place, keeping the default's position,
    # exactly as repeated set_attribute calls would.  Both tables derive
    # from ``_ATTRIBUTE_FIELDS`` once per class: ``lookup`` maps every
    # accepted spelling (python name, XML name) to the install key with
    # ``_attribute_field``'s precedence, ``defaults`` lists the
    # fixed/defaulted keys in field order.
    attrs = attribute_map._attrs
    for key, literal in defaults:
        attribute_map._install(key, literal)
    for name, value in frame.attributes:
        if name.startswith("xmlns"):
            continue
        key = lookup.get(name)
        if key is None:
            element._attribute_field(name)  # raises "has no attribute"
        existing = attrs.get(key)
        if existing is not None:
            existing.value = value
        else:
            attribute_map._install(key, value)

    if binding.validate_on_mutate:
        if is_simple:
            # Leaf frame: child elements were flattened into *data*, so
            # only the attribute and value checks of ``_check_simple``
            # can fire.
            if attrs:
                raise VdomTypeError(
                    f"<{tag}> has a simple type and may not "
                    "carry attributes"
                )
            memo = frame.memo
            if memo is None or data not in memo:
                try:
                    type_definition.parse(data)
                except SimpleTypeError as error:
                    raise VdomTypeError(
                        f"content of <{tag}>: {error.message}"
                    )
                if memo is not None and len(memo) < _VALUE_MEMO_LIMIT:
                    memo[data] = True
        elif not is_any:
            matcher = frame.matcher
            if matcher is not None and type_definition is frame.type_definition:
                # The live automaton already accepted every child in
                # order; only the checks it cannot subsume remain.  With
                # no attributes present and none required, the attribute
                # check is a proven no-op.
                if attrs or frame.has_required:
                    element._check_attributes(type_definition)
                if (
                    frame.content_type is ContentType.ELEMENT_ONLY
                    and has_text
                ):
                    raise VdomTypeError(
                        f"<{tag}> has element-only content and "
                        "may not contain text"
                    )
                if not matcher.at_accepting_state():
                    expected = ", ".join(
                        f"<{key}>" for key in matcher.expected()
                    )
                    raise VdomTypeError(
                        f"content of <{tag}> is incomplete; "
                        f"expected {expected}"
                    )
                # Table and object DFAs share state numbering, so the
                # incremental-append cache resumes either way.
                element._content_state = (
                    frame.element_count,
                    len(nodes),
                    matcher.state,
                )
            elif not frame.structured and type_definition is frame.type_definition:
                # Leaf complex frame (EMPTY or SIMPLE content): the checks
                # of ``_check_complex`` specialized to a childless element
                # whose text is *data*.
                if attrs or frame.has_required:
                    element._check_attributes(type_definition)
                if frame.content_type is ContentType.EMPTY:
                    if data.strip():
                        raise VdomTypeError(
                            f"<{tag}> must be empty"
                        )
                else:  # ContentType.SIMPLE
                    memo = frame.memo
                    if memo is None or data not in memo:
                        try:
                            type_definition.simple_content.parse(data)
                        except SimpleTypeError as error:
                            raise VdomTypeError(
                                f"content of <{tag}>: "
                                f"{error.message}"
                            )
                        if memo is not None and len(memo) < _VALUE_MEMO_LIMIT:
                            memo[data] = True
            else:
                # A class whose declared type differs from the matched
                # declaration's: run the full check, exactly as the typed
                # constructor would.
                element._check_complex(type_definition)
        if fixed is not None:
            content = data if not frame.structured else element.text_content
            if content != fixed:
                raise VdomTypeError(
                    f"element '{tag}' must have the fixed "
                    f"value {fixed!r}"
                )
    return element


def _build_attr_tables(cls) -> tuple[dict[str, str], tuple[tuple[str, str], ...]]:
    """Derive and cache the per-class attribute tables on *cls*.

    ``lookup`` replicates ``TypedElement._attribute_field``'s precedence:
    python names win outright; XML spellings fall to the first field (in
    declaration order) accepting them.
    """
    fields = cls._ATTRIBUTE_FIELDS
    lookup: dict[str, str] = {}
    for python_name, attr_field in fields.items():
        lookup[python_name] = attr_field.xml_name or attr_field.name
    for attr_field in fields.values():
        install_key = attr_field.xml_name or attr_field.name
        for spelling in (attr_field.xml_name, attr_field.name):
            if spelling:
                lookup.setdefault(spelling, install_key)
    defaults = tuple(
        (
            attr_field.xml_name or attr_field.name,
            attr_field.fixed if attr_field.fixed is not None else attr_field.default,
        )
        for attr_field in fields.values()
        if attr_field.fixed is not None or attr_field.default is not None
    )
    cls._INGEST_ATTRS = (lookup, defaults)
    return cls._INGEST_ATTRS
