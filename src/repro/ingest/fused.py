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
calls, so it stays the reference.

Nothing a declaration asks of an element is derived here.  Each frame
holds the verdict walker's facts of its declaration
(:class:`repro.xsd.stream._Facts`: content model, text check with its
accepted-literal memo, required attributes, fixed value, the
``xs:anyType`` skip), derived once per declaration and route and
memoized on the binding beside the declaration's class; each generated
class carries the bind-time tables the typed constructor reads too:
attribute spellings, fixed and default values in order, and the
abstract refusal.  The observable behaviour is identical to
``binding.from_dom(parse_document(text).document_element)``:

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
from repro.core.vdom import (
    Binding,
    TypedElement,
    any_type_refusal,
    refuse_xsi_type,
    unknown_attribute,
)
from repro.xml.chars import WHITESPACE
from repro.xml.events import Characters, EndElement, StartElement
from repro.xml.parser import PullParser
from repro.xsd.stream import _Facts


class _Frame:
    """One open element during a typed walk."""

    __slots__ = (
        "tag",
        "cls",
        "facts",
        "matcher",
        "structured",
        "children",
        "text_parts",
        "attributes",
        "element_count",
    )

    def __init__(self, tag, cls, facts: _Facts, attributes):
        self.tag = tag
        self.cls = cls
        self.facts = facts
        # The content-model matcher of element or mixed content: flat
        # tables, or the object DFA on the golden reference route.
        model = facts.model
        self.matcher = None if model is None else model.matcher()
        # ``xs:anyType`` keeps its text as mixed content does, one node
        # per run that is not blank; its child elements are refused.
        self.structured = model is not None or facts.skip
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
        "_facts",
        "_use_tables",
        "_stack",
    )

    def __init__(self, binding: Binding, use_tables: bool):
        self.root: TypedElement | None = None
        self._binding = binding
        self._schema = binding.schema
        # id(declaration) -> (class, facts), one memo per route:
        # declarations are interned in the schema, so ``id`` keys are
        # stable for its lifetime.
        memos = binding.__dict__.get("_ingest_facts")
        if memos is None:
            memos = binding._ingest_facts = ({}, {})
        self._facts = memos[use_tables]
        self._use_tables = use_tables
        self._stack: list[_Frame] = []

    def _learn(self, declaration) -> tuple:
        """The class and facts of *declaration*, memoized on first sight."""
        cls = self._binding.class_by_declaration.get(id(declaration))
        if cls is None:
            raise VdomTypeError(
                f"no generated class for declaration '{declaration.name}'"
            )
        type_definition = declaration.resolved_type()
        facts = _Facts(declaration, type_definition, self._schema, self._use_tables)
        entry = self._facts[id(declaration)] = (cls, facts)
        return entry

    def start(self, name: str, attributes, where) -> None:
        stack = self._stack
        if stack:
            frame = stack[-1]
            # A frame with no content model (simple, EMPTY or
            # simpleContent, or xs:anyType) admits no child element.
            matcher = frame.matcher
            declaration = None if matcher is None else matcher.step(name)
            if declaration is None:
                raise _misplaced(frame, name)
        else:
            declaration = self._schema.elements.get(name)
            if declaration is None:
                raise VdomTypeError(
                    f"<{name}> is not a global element of the schema"
                )
        entry = self._facts.get(id(declaration))
        if entry is None:
            entry = self._learn(declaration)
        cls, facts = entry
        if attributes:
            for attribute, value in attributes:
                if attribute == "xsi:type":
                    refuse_xsi_type(
                        self._schema, facts.type_definition, name, value
                    )
        stack.append(_Frame(name, cls, facts, attributes))

    def end(self, where) -> None:
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
            if data.strip(WHITESPACE):
                frame.children.append(data)
        else:
            frame.text_parts.append(data)

    def leaf(
        self, name: str, attributes, data: str, where, data_where, end_where
    ) -> None:
        """``start``, ``characters`` (when *data* is not empty) and
        ``end`` of one childless element below the root, in one call.

        An element without attributes of a simple type is built whole
        by :func:`_simple_element`, the branch :func:`_construct` takes
        for such a frame, with no frame of its own; every other leaf
        goes through the general handlers.
        """
        if attributes:
            self.start(name, attributes, where)
            if data:
                self.characters(data, data_where)
            self.end(end_where)
            return
        stack = self._stack
        frame = stack[-1]
        matcher = frame.matcher
        declaration = None if matcher is None else matcher.step(name)
        if declaration is None:
            raise _misplaced(frame, name)
        entry = self._facts.get(id(declaration))
        if entry is None:
            entry = self._learn(declaration)
        cls, facts = entry
        if facts.simple is facts.type_definition:  # a simple type
            frame.children.append(
                _simple_element(self._binding, cls, facts, name, data, ())
            )
            frame.element_count += 1
            return
        stack.append(_Frame(name, cls, facts, attributes))
        if data:
            self.characters(data, data_where)
        self.end(end_where)


def _misplaced(frame: _Frame, name: str) -> Exception:
    """Why no child <name> may stand inside *frame*."""
    if frame.facts.skip:  # xs:anyType
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


def _construct(binding: Binding, frame: _Frame) -> TypedElement:
    """Allocate the typed element for a completed frame.

    Mirrors ``TypedElement.__init__`` as driven by ``Binding.from_dom``
    — same checks, same messages, same ordering — but allocates
    directly: names were already validated by the parser (or come from
    the schema), and the content-model DFA was stepped during parsing,
    so neither is re-run.  The frame's facts say what is left to check;
    on the table route a leaf value that its type accepted before (or
    any value of a type accepting everything) is not checked again,
    without a call, and the reference route checks every value.

    The element's one ``weakref.ref`` is the upward link of all its
    children, text nodes and attributes, so the finished tree is no
    reference cycle.
    """
    cls = frame.cls
    facts = frame.facts
    tag = frame.tag
    if facts.simple is facts.type_definition:  # a simple type
        return _simple_element(
            binding, cls, facts, tag, "".join(frame.text_parts), frame.attributes
        )
    if cls._ABSTRACT is not None:
        raise VdomTypeError(cls._ABSTRACT)
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
    # exactly as repeated set_attribute calls would.  Both tables are the
    # class's own, built at bind time.
    for key, literal in cls._ATTRIBUTE_DEFAULTS:
        attrs[key] = trusted_attr(key, literal, ref, None)
    for name, value in frame.attributes:
        if name.startswith("xmlns"):
            continue
        key = cls._ATTRIBUTE_KEYS.get(name)
        if key is None:
            if facts.skip and not name.startswith("xsi:"):
                raise UnsupportedFeatureError(any_type_refusal(tag))
            raise unknown_attribute(cls, name)
        existing = attrs.get(key)
        if existing is not None:
            existing.value = value
        else:
            attrs[key] = trusted_attr(key, value, ref, None)

    if binding.validate_on_mutate:
        type_definition = cls._TYPE
        if type_definition is not facts.type_definition:
            # A class whose declared type differs from the matched
            # declaration's: run the full check, exactly as the typed
            # constructor would.
            element._check_complex(type_definition)
        elif not facts.skip:  # xs:anyType content is not checked
            # With no attributes present and none required, the
            # attribute check is a proven no-op.
            if attrs or facts.required:
                element._check_attributes(type_definition)
            matcher = frame.matcher
            if matcher is not None:
                # The live automaton already accepted every child in
                # order; only the checks it cannot subsume remain.
                if has_text and facts.text_kind is not None:
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
            elif facts.text_kind is not None:  # empty content
                if data.strip(WHITESPACE):
                    raise VdomTypeError(f"<{tag}> must be empty")
            else:  # simple content
                check = facts.check
                if check is not None and (
                    facts.accepted is None or data not in facts.accepted
                ):
                    try:
                        check(data)
                    except SimpleTypeError as error:
                        raise VdomTypeError(
                            f"content of <{tag}>: {error.message}"
                        )
        fixed = facts.fixed
        if fixed is not None:
            content = data if not frame.structured else element.text_content
            if content != fixed:
                raise _not_fixed(tag, fixed)
    return element


def _simple_element(
    binding: Binding, cls, facts: _Facts, tag: str, data: str, attributes
) -> TypedElement:
    """The typed element of a simple type holding text *data*.

    :func:`_construct`'s branch for such a frame, and what
    :meth:`_TypedWalk.leaf` builds an attribute-free leaf with: ``start``
    refused child elements, so only the checks of ``_check_simple`` on
    attributes and value, and the fixed value, can fire.  A simple type
    declares no attribute, so any attribute but a namespace declaration
    is refused as the typed constructor refuses it.
    """
    if cls._ABSTRACT is not None:
        raise VdomTypeError(cls._ABSTRACT)
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
            raise unknown_attribute(cls, name)
    if binding.validate_on_mutate:
        check = facts.check
        if check is not None and (
            facts.accepted is None or data not in facts.accepted
        ):
            try:
                check(data)
            except SimpleTypeError as error:
                raise VdomTypeError(f"content of <{tag}>: {error.message}")
        fixed = facts.fixed
        if fixed is not None and data != fixed:
            raise _not_fixed(tag, fixed)
    return element


def _not_fixed(tag: str, fixed: str) -> VdomTypeError:
    return VdomTypeError(f"element '{tag}' must have the fixed value {fixed!r}")
