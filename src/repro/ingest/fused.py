"""Fused parse-to-typed-tree: one walk drives typed construction directly.

The legacy ingest route is three passes over the data::

    PullParser events -> generic DOM -> Binding.from_dom -> typed tree
                         (builder)      (DFA walk #1)       (DFA walk #2
                                                             in check_valid)

This module collapses them into one: the content-model DFAs are stepped
*while the document is being read*, and ``TypedElement`` nodes are
allocated directly — no generic DOM is ever built and no second
validation pass runs.  One set of typed handlers (:class:`_TypedWalk`:
frame building, one content-model matcher per structured frame, and
:func:`_construct`) does that work for both feeders: :func:`fused_parse`
drives it from ``PullParser`` events, and
:func:`~repro.ingest.table_driven.table_parse` from the turbo scanner
(:func:`repro.xml.turbo.scan`).  The scanner hands a childless element
below the root (``<a>text</a>`` without ``&``, or ``<a/>``) to one
``leaf`` call; an attribute-free one of a simple type is built whole by
:func:`_simple_element`, the branch :func:`_construct` takes for simple
types, with no frame, and any other leaf goes through ``start`` /
``characters`` / ``end``.  The event feeder makes only those three
calls, so it stays the reference.  The observable behaviour is identical
to ``binding.from_dom(parse_document(text).document_element)``:

* the same typed classes are instantiated for the same declarations,
* the same tree shape results (text-node granularity, CDATA flattening,
  whitespace dropping, ``xmlns`` attribute filtering, attribute defaults),
* every document the legacy route rejects is rejected with the same
  exception type and message, and syntax errors keep their precedence
  over validity errors (the legacy route parses fully before binding),
* post-parse mutation behaves identically, including the
  ``_content_state`` incremental-append cache.

A DOCTYPE declaration is transparent, like comments and processing
instructions: ``PullParser`` has already expanded the internal subset's
entities, and the DOM route adds nothing but a ``DocumentType`` node.

``tests/ingest/test_fused.py`` holds the two routes to the same answers,
valid and invalid alike.
"""

from __future__ import annotations

import weakref

from repro.errors import SimpleTypeError, UnsupportedFeatureError, VdomTypeError
from repro.dom.attr import trusted_attr
from repro.dom.builder import parse_document
from repro.dom.charnodes import Text
from repro.core.vdom import Binding, TypedElement, any_type_refusal, refuse_xsi_type
from repro.xml.chars import WHITESPACE
from repro.xml.events import Characters, EndElement, StartElement
from repro.xml.parser import PullParser
from repro.xsd.components import ANY_TYPE, ComplexType, ContentType
from repro.xsd.simple import SimpleType

_STRUCTURED = (ContentType.ELEMENT_ONLY, ContentType.MIXED)


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
        self.children = []  # str | TypedElement, in document order
        self.text_parts = []  # all character data in the subtree (leaf only)
        self.attributes = attributes  # as read, ``xmlns`` pairs included
        self.element_count = 0


class _TypedWalk:
    """The typed handlers: frames, content-model steps, construction.

    ``start(name, attributes, where)``, ``end(where)`` and
    ``characters(data, where)`` take ``PullParser`` events
    (:func:`fused_parse`) and the turbo scanner's calls
    (:func:`~repro.ingest.table_driven.table_parse`) alike, and ``leaf``
    takes the scanner's childless elements; positions are not needed,
    since typed-tree errors carry none.  After the last ``end`` the
    typed tree is :attr:`root`.

    What the typed tree cannot hold is refused with
    :class:`~repro.errors.UnsupportedFeatureError`, where both
    validators accept: an ``xsi:type`` naming a type that may stand for
    the declared one, and child elements or attributes of an
    ``xs:anyType`` element.
    """

    __slots__ = (
        "root",
        "_binding",
        "_schema",
        "_classes",
        "_dispatch",
        "_use_tables",
        "_stack",
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

    def start(self, name: str, attributes, where) -> None:
        stack = self._stack
        if stack:
            frame = stack[-1]
            # A leaf frame (simple, EMPTY or simpleContent) has no
            # content model, so it admits no child element at all.
            declaration = frame.matcher.step(name) if frame.structured else None
            if declaration is None:
                raise _misplaced(frame, name)
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
        if attributes:
            for attribute, value in attributes:
                if attribute == "xsi:type":  # info[1]: the declared type
                    refuse_xsi_type(self._schema, info[1], name, value)
        stack.append(_Frame(name, info, attributes, self._use_tables))

    def end(self, where) -> None:
        stack = self._stack
        element = _construct(self._binding, stack.pop(), self._use_tables)
        if stack:
            parent = stack[-1]
            parent.children.append(element)
            parent.element_count += 1
        else:
            self.root = element

    def characters(self, data: str, where) -> None:
        frame = self._stack[-1]
        if frame.structured:
            if data.strip(WHITESPACE):
                frame.children.append(data)
        else:
            frame.text_parts.append(data)

    def leaf(
        self, name: str, attributes, data: str, where, data_where, end_where
    ) -> None:
        """``start``, ``characters`` (when *data* is not empty) and
        ``end`` of one childless element below the root, in one call.

        An element without attributes whose class has a simple type is
        built whole by :func:`_simple_element`, the branch
        :func:`_construct` takes for such a frame, with no frame of its
        own; every other leaf goes through the general handlers.
        """
        if attributes:
            self.start(name, attributes, where)
            if data:
                self.characters(data, data_where)
            self.end(end_where)
            return
        stack = self._stack
        frame = stack[-1]
        declaration = frame.matcher.step(name) if frame.structured else None
        if declaration is None:
            raise _misplaced(frame, name)
        info = self._dispatch.get(id(declaration))
        if info is None:
            info = _dispatch_info(self._schema, self._classes, declaration)
            self._dispatch[id(declaration)] = info
        cinfo = info[7]
        if cinfo[3]:  # a simple type
            frame.children.append(
                _simple_element(
                    self._binding, info[0], cinfo, data, (), self._use_tables
                )
            )
            frame.element_count += 1
            return
        stack.append(_Frame(name, info, attributes, self._use_tables))
        if data:
            self.characters(data, data_where)
        self.end(end_where)


def _misplaced(frame: _Frame, name: str) -> Exception:
    """Why no child <name> may stand inside *frame*."""
    if frame.type_definition is ANY_TYPE:
        return UnsupportedFeatureError(any_type_refusal(frame.tag))
    return VdomTypeError(f"<{name}> is not allowed inside <{frame.tag}>")


def legacy_parse(binding: Binding, text: str, source: str | None = None):
    """The original three-pass route: parse -> DOM -> ``from_dom``."""
    document = parse_document(text, source)
    return binding.from_dom(document.document_element)


def parse_typed(binding: Binding, text: str, source: str | None = None):
    """Parse *text* into a typed tree: the turbo lane, fused on restart.

    This is the drop-in replacement for
    ``binding.from_dom(parse_document(text).document_element)``.
    """
    # Function-level import: table_driven builds on this module.
    from repro.ingest.table_driven import table_parse

    return table_parse(binding, text, source)


def fused_parse(
    binding: Binding,
    text: str,
    source: str | None = None,
    *,
    use_tables: bool = True,
) -> TypedElement:
    """Single-pass parse + validate + typed construction.

    With ``use_tables`` (the default) content models are stepped through
    flat integer transition tables — one dict probe and two array
    indexings per child element — and a leaf value its simple type has
    already accepted (:meth:`SimpleType.check`) skips re-validation.
    ``use_tables=False`` steps the object DFAs and checks every value
    instead; it is the golden reference the table route is held to (and
    the baseline the ``ingest:table_driven`` benchmark floor is measured
    against).
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
                end(event.location)
            # XML and DOCTYPE declarations, comments, and processing
            # instructions carry no typed content (from_dom ignores them).
    except (VdomTypeError, UnsupportedFeatureError):
        # The legacy route parses the *whole* document before binding, so
        # a syntax error anywhere outranks any validity error or refusal.
        # Drain the remaining events to surface one before re-raising.
        for _ in events:
            pass
        raise
    assert walk.root is not None  # the parser guarantees a root element
    return walk.root


def _dispatch_info(schema, class_by_declaration, declaration) -> tuple:
    """Build one per-declaration dispatch entry: ``(cls, type_definition,
    structured, dfa, table, content_type, has_required, cinfo)``.

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
    )


def _construct_info(cls) -> tuple:
    """Class-derived constants ``_construct`` would otherwise re-derive
    per element: the tag, the pre-rendered abstractness rejection (or
    None), the declared type and its two fast-path classifications, the
    element-level ``fixed`` value, the attribute tables, and the simple
    type checking the element's text with that type's accepted-literal
    memo (None when the type accepts every literal)."""
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
    leaf = (
        type_definition
        if isinstance(type_definition, SimpleType)
        else type_definition.simple_content
    )
    accepted = None
    if leaf is not None and not leaf.accepts_everything():
        accepted = leaf.accepted
    return (
        declaration.name,
        abstract_error,
        type_definition,
        isinstance(type_definition, SimpleType),
        type_definition is ANY_TYPE,
        declaration.fixed,
        lookup,
        defaults,
        leaf,
        accepted,
    )


def _construct(binding: Binding, frame: _Frame, use_tables: bool) -> TypedElement:
    """Allocate the typed element for a completed frame.

    Mirrors ``TypedElement.__init__`` as driven by ``Binding.from_dom``
    — same checks, same messages, same ordering — but allocates
    directly: names were already validated by the parser (or come from
    the schema), and the content-model DFA was stepped during parsing,
    so neither is re-run.  On the table route a leaf value that its
    type accepted before (or any value of a type accepting everything)
    is not checked again, without a call; the reference route checks
    every value.

    The element's one ``weakref.ref`` is the upward link of all its
    children, text nodes and attributes, so the finished tree is no
    reference cycle.
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
        leaf,
        accepted,
    ) = frame.cinfo
    if is_simple:
        return _simple_element(
            binding,
            cls,
            frame.cinfo,
            "".join(frame.text_parts),
            frame.attributes,
            use_tables,
        )
    if abstract_error is not None:
        raise VdomTypeError(abstract_error)
    element = cls.__new__(cls)
    element._owner_document = None
    element._parent_ref = None
    element._tag_name = tag
    attrs = element._attrs = {}
    ref = weakref.ref(element)

    nodes = []
    has_text = False
    data = ""
    if frame.structured:
        for child in frame.children:
            if child.__class__ is str:
                node = Text(child, None)
                node._parent_ref = ref
                nodes.append(node)
                has_text = True
            else:
                child._parent_ref = ref
                nodes.append(child)
    else:
        data = "".join(frame.text_parts)
        if data:
            node = Text(data, None)
            node._parent_ref = ref
            nodes.append(node)
    element._children = nodes

    # Fixed/defaulted attributes first, explicit values second — the
    # explicit value overwrites in place, keeping the default's position,
    # exactly as repeated set_attribute calls would.  Both tables derive
    # from ``_ATTRIBUTE_FIELDS`` once per class: ``lookup`` maps every
    # accepted spelling (python name, XML name) to the install key with
    # ``_attribute_field``'s precedence, ``defaults`` lists the
    # fixed/defaulted keys in field order.
    for key, literal in defaults:
        attrs[key] = trusted_attr(key, literal, ref, None)
    for name, value in frame.attributes:
        if name.startswith("xmlns"):
            continue
        key = lookup.get(name)
        if key is None:
            if is_any and not name.startswith("xsi:"):
                raise UnsupportedFeatureError(any_type_refusal(tag))
            element._attribute_field(name)  # raises "has no attribute"
        existing = attrs.get(key)
        if existing is not None:
            existing.value = value
        else:
            attrs[key] = trusted_attr(key, value, ref, None)

    if binding.validate_on_mutate:
        if not is_any:
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
                    if data.strip(WHITESPACE):
                        raise VdomTypeError(
                            f"<{tag}> must be empty"
                        )
                elif not use_tables or (
                    accepted is not None and data not in accepted
                ):  # ContentType.SIMPLE
                    try:
                        (leaf.check if use_tables else leaf.parse)(data)
                    except SimpleTypeError as error:
                        raise VdomTypeError(
                            f"content of <{tag}>: "
                            f"{error.message}"
                        )
            else:
                # A class whose declared type differs from the matched
                # declaration's: run the full check, exactly as the typed
                # constructor would.
                element._check_complex(type_definition)
        if fixed is not None:
            content = data if not frame.structured else element.text_content
            if content != fixed:
                raise _not_fixed(tag, fixed)
    return element


def _simple_element(
    binding: Binding, cls, cinfo: tuple, data: str, attributes, use_tables: bool
) -> TypedElement:
    """The typed element of a simple type holding text *data*.

    :func:`_construct`'s branch for such a frame, and what
    :meth:`_TypedWalk.leaf` builds an attribute-free leaf with: ``start``
    refused child elements, so only the checks of ``_check_simple`` on
    attributes and value, and the fixed value, can fire.  A simple type
    declares no attribute, so any attribute but a namespace declaration
    is refused as the typed constructor refuses it.
    """
    tag, abstract_error, _, _, _, fixed, _, _, leaf, accepted = cinfo
    if abstract_error is not None:
        raise VdomTypeError(abstract_error)
    element = cls.__new__(cls)
    element._owner_document = None
    element._parent_ref = None
    element._tag_name = tag
    element._attrs = {}
    if data:
        node = Text(data, None)
        node._parent_ref = weakref.ref(element)
        element._children = [node]
    else:
        element._children = []
    for name, _ in attributes:
        if not name.startswith("xmlns"):
            element._attribute_field(name)  # raises "has no attribute"
    if binding.validate_on_mutate:
        if not use_tables or (accepted is not None and data not in accepted):
            try:
                (leaf.check if use_tables else leaf.parse)(data)
            except SimpleTypeError as error:
                raise VdomTypeError(f"content of <{tag}>: {error.message}")
        if fixed is not None and data != fixed:
            raise _not_fixed(tag, fixed)
    return element


def _not_fixed(tag: str, fixed: str) -> VdomTypeError:
    return VdomTypeError(f"element '{tag}' must have the fixed value {fixed!r}")


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
