"""Streaming schema validation: one verdict walker, two feeders.

Validates a document without building a DOM — memory stays
proportional to element depth rather than document size.  Functionally
equivalent to :class:`repro.xsd.validator.SchemaValidator` on the
supported feature set (the benchmarks assert agreement); it is the
validation mode a server uses for *incoming* documents before
unmarshalling, and an ablation partner for the DOM-based walk.

One walker does the validity work: the ``start`` / ``characters`` /
``end`` handlers of a per-document ``_Walk`` take a lexical name,
attribute pairs and a position, keep the namespace scopes and the open
frames, and with the validator's ``_push`` hold every validity check
and every message once.  A fourth handler, ``leaf``, takes a childless
element below the root in one call (the turbo scanner's shape for
``<a>text</a>`` without ``&`` and for ``<a/>``): it steps the parent's
content model, and when the element has no attributes and its facts
leave only the text to check (``_Facts.text_only``), it checks the text
against the accepted-literal memo and the fixed value with no frame and
no scope pushed; any other leaf goes through the three handlers.  Two
feeders drive the walker:

* **the turbo feeder** (:meth:`StreamingValidator.validate_text`) is
  the turbo scanner, :func:`repro.xml.turbo.scan` (shared with typed
  ingest): it reads the source text directly — no ``Event``, no
  ``Location``, no iterator round-trip per token.  Positions are plain
  offsets; a :class:`~repro.errors.Location` and an instance path are
  only built when an error is recorded.  A document that leaves the
  turbo subset (a hazard, a malformed tag or reference, a tag mismatch,
  a duplicate attribute, stray text) raises the internal restart: its
  partial verdict is discarded and it is re-run through the event
  feeder, so syntax errors and their precedence over validity errors
  stay exactly as :class:`~repro.xml.parser.PullParser` reports them.
* **the event feeder** (:meth:`StreamingValidator.validate_events`)
  turns any ``PullParser`` event stream into ``start`` / ``characters``
  / ``end`` calls; it never calls ``leaf``, so it stays the reference
  the turbo feeder is held to.

Schema facts — content type, content model, effective attribute uses,
the simple type checking the text, the fixed value, the abstract flag —
are derived once per (declaration, effective type) pair, not per
element.

On the table route a validator also keeps what it learns from one
document for the next: the turbo scanner's parsed tag bodies, the
namespace scopes (interned by parent scope and ``xmlns`` declarations,
each with its resolved element and attribute names), the attribute sets
that checked clean under a scope and declaration, and — on each simple
type — the literals it accepted (:meth:`SimpleType.check`).  Every memo
holds pure results only, has an entry cap (a full memo stops inserting,
and what it holds keeps hitting) and a length limit on what it stores,
so a long-lived validator gives each document exactly a fresh
validator's errors.  The reference route (``use_tables=False``) keeps
nothing between documents and checks every literal afresh.

Namespaces are tracked as a stack of in-scope ``xmlns`` bindings pushed
per start tag: element and attribute names resolve to expanded names and
match the schema's component keys, XSI attributes are recognized by
resolved namespace whatever prefix they use (an undeclared ``xsi:``
prefix keeps its conventional meaning for legacy documents), and
diagnostics for namespaced schemas name elements in Clark notation.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro import obs
from repro.errors import SimpleTypeError, ValidationError, XmlSyntaxError
from repro.xml.chars import WHITESPACE
from repro.xml.events import (
    Characters,
    EndElement,
    Event,
    StartElement,
)
from repro.xml.parser import PullParser
from repro.xml.qname import XML_NAMESPACE, XSI_NAMESPACE
from repro.xml.reader import Reader
from repro.xml.turbo import _Restart, scan
from repro.xsd.components import (
    ANY_TYPE,
    ComplexType,
    ContentType,
    ElementDeclaration,
    Schema,
    derives_from,
    expanded_name,
)
from repro.xsd.simple import SimpleType

#: attribute classes besides "schema-checked under this key":
#: namespace declarations and XSI attributes other than ``xsi:type``
_IGNORED = object()
#: an attribute naming ``xsi:type`` (by resolved namespace)
_XSI_TYPE = object()

#: interned namespace scopes a validator keeps (table route)
SCOPE_MEMO_ENTRIES = 256
#: lexical element or attribute names one scope remembers resolving
NAME_MEMO_ENTRIES = 512
#: attribute sets a validator remembers as clean under a scope and
#: declaration (table route)
CLEAN_MEMO_ENTRIES = 1024
#: the longest name, ``xmlns`` declaration set or attribute value total
#: (in characters) that any of these memos stores
MEMO_KEY_LENGTH = 256


class _Facts:
    """What one (declaration, effective type) pair asks of an element.

    None of it depends on the instance, so it is derived once per pair
    and memoized on the validator.
    """

    __slots__ = (
        "name",
        "type_definition",
        "skip",
        "abstract",
        "model",
        "uses",
        "required",
        "simple",
        "check",
        "accepted",
        "fixed",
        "collects",
        "text_kind",
        "text_only",
    )

    def __init__(
        self,
        declaration: ElementDeclaration,
        type_definition,
        schema: Schema,
        use_tables: bool,
    ):
        #: the declaration's expanded name, as diagnostics print it
        self.name = declaration.key
        self.type_definition = type_definition
        #: inside anyType: accept everything below
        self.skip = type_definition is ANY_TYPE
        self.abstract = False
        #: content model (DfaTable, or object Dfa) for element/mixed content
        self.model = None
        #: attribute key -> (fixed value, check of its literal) over the
        #: effective attribute uses; ``None`` for simple types
        self.uses = None
        self.required: tuple[str, ...] = ()
        #: the simple type the element's text must satisfy
        self.simple: SimpleType | None = None
        self.fixed = declaration.fixed
        #: "element-only content" / "empty content" when text is an error
        self.text_kind: str | None = None
        if isinstance(type_definition, ComplexType):
            if not self.skip:
                self.abstract = type_definition.abstract
                content_type = type_definition.content_type
                if content_type in (ContentType.ELEMENT_ONLY, ContentType.MIXED):
                    self.model = (
                        schema.content_table(type_definition)
                        if use_tables
                        else schema.content_dfa(type_definition)
                    )
                if content_type is ContentType.ELEMENT_ONLY:
                    self.text_kind = "element-only content"
                elif content_type is ContentType.EMPTY:
                    self.text_kind = "empty content"
                elif content_type is ContentType.SIMPLE:
                    assert type_definition.simple_content is not None
                    self.simple = type_definition.simple_content
                uses = type_definition.effective_attribute_uses()
                self.uses = {
                    key: (
                        use.fixed,
                        _literal_check(use.declaration.resolved_type(), use_tables),
                    )
                    for key, use in uses.items()
                }
                self.required = tuple(
                    key for key, use in uses.items() if use.required
                )
        else:
            self.simple = type_definition
        #: the check of the element's text (None when any text is valid)
        #: and, on the table route, its type's accepted-literal memo
        self.check = None
        self.accepted = None
        if self.simple is not None:
            self.check = _literal_check(self.simple, use_tables)
            if use_tables and self.check is not None:
                self.accepted = self.simple.accepted
        self.collects = self.check is not None or self.fixed is not None
        #: an element of these facts with no attributes and no children
        #: has nothing left to check but its text: no content model, no
        #: required attribute, no abstract type, nothing skipped
        self.text_only = not (
            self.model is not None or self.required or self.abstract or self.skip
        )


def _literal_check(simple: SimpleType, use_tables: bool):
    """How a route checks a literal of *simple*: the memoized
    :meth:`SimpleType.check` on the table route (None when the type
    accepts everything), a fresh :meth:`SimpleType.parse` on the
    reference route."""
    if not use_tables:
        return simple.parse
    return None if simple.accepts_everything() else simple.check


class _Frame:
    """Validation state for one open element."""

    __slots__ = ("key", "facts", "matcher", "text")

    def __init__(self, key: str, facts: _Facts):
        self.key = key
        self.facts = facts
        #: content-model matcher (table or object DFA) for element/mixed content
        self.matcher = None if facts.model is None else facts.model.matcher()
        self.text: list[str] | None = [] if facts.collects else None


#: stands for an unexpected or ``anyType`` element and everything below
#: it: nothing there is checked, so nothing about it is kept (its slots
#: stay unset — the handlers test identity before touching a frame)
_SKIP = _Frame.__new__(_Frame)


class _Scope:
    """In-scope ``xmlns`` bindings of one element, with name memos.

    Elements without declarations share their parent's scope, and on
    the table route the validator interns scopes across documents
    (:meth:`StreamingValidator._enter`), so each distinct name resolves
    once per validator; the reference route makes fresh scopes for
    every document.
    """

    __slots__ = ("bindings", "elements", "attributes")

    def __init__(self, bindings: dict[str, str]):
        self.bindings = bindings
        #: lexical element name -> key it matches schema components under
        self.elements: dict[str, str] = {}
        #: lexical attribute name -> key, ``_IGNORED`` or ``_XSI_TYPE``
        self.attributes: dict[str, object] = {}


def _remember(memo: dict, key: str, value) -> None:
    """Store a resolved name in a scope's bounded memo."""
    if len(memo) < NAME_MEMO_ENTRIES and len(key) <= MEMO_KEY_LENGTH:
        memo[key] = value


class _Walk:
    """One document's walk: the verdict handlers both feeders drive.

    ``start`` / ``characters`` / ``end`` push and pop the in-scope
    namespace bindings, step the open frames' content models and record
    errors; schema facts and name resolution come from the validator.
    A position is the event's :class:`~repro.errors.Location` on the
    event feeder and a plain offset into *text* on the turbo feeder; the
    offset becomes a ``Location`` only when an error is recorded,
    through the same :class:`~repro.xml.reader.Reader` arithmetic the
    event parser uses.
    """

    __slots__ = ("stack", "errors", "_validator", "_scopes", "_text", "_reader")

    def __init__(self, validator: StreamingValidator, text: str | None = None):
        self.stack: list[_Frame] = []
        self.errors: list[ValidationError] = []
        self._validator = validator
        self._scopes = [validator._root_scope()]
        self._text = text
        self._reader: Reader | None = None

    def start(self, name: str, attributes, where) -> None:
        validator = self._validator
        scope = self._scopes[-1]
        if attributes:
            scope = validator._enter(scope, attributes)
        self._scopes.append(scope)
        key = scope.elements.get(name)
        if key is None:
            key = validator._element_key(name, scope.bindings)
            _remember(scope.elements, name, key)
        stack = self.stack
        if not stack:
            declaration = validator._schema.elements.get(key)
            if declaration is None:
                self.error(
                    f"root element <{key}> is not a global element of the schema",
                    where,
                )
                stack.append(_SKIP)
                return
            if declaration.abstract:
                self.error(f"element '{key}' is abstract", where)
            validator._push(declaration, key, attributes, where, scope, self)
            return
        parent = stack[-1]
        if parent is _SKIP:
            stack.append(_SKIP)
            return
        matcher = parent.matcher
        matched = None if matcher is None else matcher.step(key)
        if matched is None:
            self._misplaced(key, parent, where)
            stack.append(_SKIP)
            return
        assert isinstance(matched, ElementDeclaration)
        validator._push(matched, key, attributes, where, scope, self)

    def leaf(
        self, name: str, attributes, data: str, where, data_where, end_where
    ) -> None:
        """``start``, ``characters`` (when *data* is not empty) and
        ``end`` of one childless element below the root, in one call.

        The parent's content model steps here.  An element without
        attributes whose facts are ``text_only`` has nothing left to
        check but its text: that is checked at once, against the
        accepted-literal memo first, with no frame and no scope pushed.
        Every other leaf goes through the general handlers.
        """
        parent = self.stack[-1]
        if parent is _SKIP:
            return
        if attributes:
            self.start(name, attributes, where)
            if data:
                self.characters(data, data_where)
            self.end(end_where)
            return
        validator = self._validator
        scope = self._scopes[-1]
        key = scope.elements.get(name)
        if key is None:
            key = validator._element_key(name, scope.bindings)
            _remember(scope.elements, name, key)
        matcher = parent.matcher
        matched = None if matcher is None else matcher.step(key)
        if matched is None:
            self._misplaced(key, parent, where)
            return
        facts = validator._facts.get(id(matched))
        if facts is None or not facts.text_only:
            self._scopes.append(scope)
            validator._push(matched, key, attributes, where, scope, self)
            if data:
                self.characters(data, data_where)
            self.end(end_where)
            return
        if facts.text_kind is not None and data.strip(WHITESPACE):
            self._refuse_text(facts, data_where, self.path(key))
            data = ""
        if facts.collects:
            accepted = facts.accepted
            if facts.fixed is not None or accepted is None or data not in accepted:
                self._check_text(facts, key, data, end_where)

    def _misplaced(self, key: str, parent: _Frame, where) -> None:
        """Record that no child <key> may stand here inside *parent*
        (whose matcher, if any, refused the step and kept its state)."""
        matcher = parent.matcher
        if matcher is None:
            # Parent has empty or simple content: no child allowed.
            message = f"<{key}> is not allowed inside <{parent.facts.name}>"
        else:
            expected = (
                ", ".join(f"<{key_}>" for key_ in matcher.expected())
                or "no further elements"
            )
            message = (
                f"<{key}> is not allowed here inside <{parent.facts.name}>; "
                f"expected {expected}"
            )
        self.error(message, where, self.path())

    def characters(self, data: str, where) -> None:
        stack = self.stack
        if not stack:
            return
        frame = stack[-1]
        if frame is _SKIP:
            return
        facts = frame.facts
        if facts.text_kind is not None and data.strip(WHITESPACE):
            self._refuse_text(facts, where, self.path())
            return
        if facts.collects:
            frame.text.append(data)

    def _refuse_text(self, facts: _Facts, where, path: str) -> None:
        """Record text inside an element whose content admits none."""
        self.error(
            f"<{facts.name}> has {facts.text_kind} but contains text", where, path
        )

    def end(self, where) -> None:
        """Close the innermost element; *where* is its end tag (the tag
        itself for ``<a/>``), where content errors are located."""
        self._scopes.pop()
        frame = self.stack.pop()
        if frame is _SKIP:
            return
        facts = frame.facts
        matcher = frame.matcher
        if matcher is not None and not matcher.at_accepting_state():
            expected = ", ".join(f"<{key}>" for key in matcher.expected())
            self.error(
                f"content of <{facts.name}> ends too early; expected {expected}",
                where,
                self.path(frame.key),
            )
        if facts.collects:
            self._check_text(facts, frame.key, "".join(frame.text), where)

    def _check_text(self, facts: _Facts, key: str, text: str, where) -> None:
        """The end-of-element check of an element's whole *text*: its
        simple type (skipped for a literal the type accepted before)
        and its fixed value; *where* is the end tag."""
        check = facts.check
        if check is not None:
            accepted = facts.accepted
            if accepted is None or text not in accepted:
                try:
                    check(text)
                except SimpleTypeError as error:
                    self.error(
                        f"content of <{facts.name}>: {error.message}",
                        where,
                        self.path(key),
                    )
        if facts.fixed is not None and text != facts.fixed:
            self.error(
                f"element '{facts.name}' must have the "
                f"fixed value {facts.fixed!r}",
                where,
                self.path(key),
            )

    def path(self, leaf: str | None = None) -> str:
        """Instance path of the open elements (plus *leaf*)."""
        keys = [frame.key for frame in self.stack]
        if leaf is not None:
            keys.append(leaf)
        return "/" + "/".join(keys)

    def error(self, message: str, where=None, path: str | None = None) -> None:
        if where is not None and self._text is not None:
            reader = self._reader
            if reader is None:
                # The scanner's offsets, like the parser's locations,
                # count from after a byte-order mark.
                reader = self._reader = Reader(self._text.removeprefix("\ufeff"))
            reader.offset = where
            where = reader.location()
        self.errors.append(ValidationError(message, where, path=path))


class StreamingValidator:
    """Validate documents or event streams against one schema.

    Content models are stepped through flat integer transition tables
    (:class:`repro.automata.DfaTable`) off the turbo scanner by default;
    ``use_tables=False`` selects the reference route instead: every
    document through :class:`~repro.xml.parser.PullParser` events and
    the object-DFA matchers.  Both routes produce identical verdicts,
    messages, locations, and orderings (the parity suite holds them
    together) — the flag exists so tests can pin the golden reference
    route.
    """

    def __init__(self, schema: Schema, *, use_tables: bool = True):
        self._schema = schema
        self._use_tables = use_tables
        self._namespaced = schema.uses_namespaces
        #: id(declaration), or (id(declaration), id(xsi:type)) -> facts
        self._facts: dict[object, _Facts] = {}
        # The memos that outlive a document (table route only; see the
        # module docstring): the scanner's tag bodies, the root scope and
        # its interned descendants, and the clean attribute sets.
        self._tags: dict[str, tuple] = {}
        self._root: _Scope | None = None
        self._scopes: dict[tuple, _Scope] | None = None
        self._clean: set[tuple] | None = None
        if use_tables:
            self._root = _Scope({"xml": XML_NAMESPACE})
            self._scopes = {}
            self._clean = set()

    # -- entry points ---------------------------------------------------------

    def validate_text(self, text: str) -> list[ValidationError]:
        """Parse and validate in one streaming pass.

        Raises :class:`~repro.errors.XmlSyntaxError` for a document that
        is not well-formed, exactly as the event parser would.
        """
        if not self._use_tables:
            return self.validate_events(PullParser(text))
        with obs.span("xsd.stream.validate"):
            walk = _Walk(self, text)
            try:
                scan(text, walk, self._tags)
            except _Restart as restart:
                obs.count("xsd.stream", outcome="restart", reason=restart.reason)
                errors = self._walk_events(PullParser(text))
            else:
                obs.count("xsd.stream", lane="turbo")
                errors = walk.errors
        return _counted(errors)

    def validate_events(self, events: Iterable[Event]) -> list[ValidationError]:
        """Validate a :class:`~repro.xml.parser.PullParser` event stream."""
        with obs.span("xsd.stream.validate"):
            errors = self._walk_events(events)
        return _counted(errors)

    def is_valid(self, text: str) -> bool:
        return not self.validate_text(text)

    # -- the event feeder -------------------------------------------------------

    def _walk_events(self, events: Iterable[Event]) -> list[ValidationError]:
        walk = _Walk(self)
        start = walk.start
        end = walk.end
        characters = walk.characters
        for event in events:
            if isinstance(event, StartElement):
                start(event.name, event.attributes, event.location)
            elif isinstance(event, EndElement):
                end(event.location)
            elif isinstance(event, Characters):
                characters(event.data, event.location)
            # comments / PIs / doctype / declarations are transparent
        return walk.errors

    # -- namespace resolution ---------------------------------------------------

    def _root_scope(self) -> _Scope:
        """The scope a document starts in: the validator's own on the
        table route, a fresh one per document on the reference route."""
        root = self._root
        return _Scope({"xml": XML_NAMESPACE}) if root is None else root

    def _enter(self, scope: _Scope, attributes) -> _Scope:
        """The scope of an element carrying *attributes* inside *scope*.

        A child scope is keyed by its parent and its ``xmlns``
        declarations, so on the table route the same declarations under
        the same parent give the same scope, with its resolved names,
        in every document.
        """
        declarations = None
        size = 0
        for name, value in attributes:
            if name[:5] != "xmlns":
                continue
            if name == "xmlns":
                prefix = ""
            elif name[5:6] == ":":
                prefix = name[6:]
            else:
                continue
            if declarations is None:
                declarations = []
            declarations.append((prefix, value))
            size += len(name) + len(value)
        if declarations is None:
            return scope
        key = (scope, tuple(declarations))
        scopes = self._scopes
        if scopes is not None:
            child = scopes.get(key)
            if child is not None:
                return child
        child = _Scope({**scope.bindings, **dict(declarations)})
        if (
            scopes is not None
            and size <= MEMO_KEY_LENGTH
            and len(scopes) < SCOPE_MEMO_ENTRIES
        ):
            scopes[key] = child
        return child

    def _element_key(self, name: str, bindings: dict[str, str]) -> str:
        """Expanded name an element matches schema components under.

        Lexical tag name for namespace-free schemas (the pre-namespace
        behavior, byte for byte) and for undeclared prefixes, where the
        schema's "no such element" diagnostics do the explaining.
        """
        if not self._namespaced:
            return name
        prefix, colon, local = name.partition(":")
        if not colon:
            return expanded_name(bindings.get("") or None, name)
        uri = bindings.get(prefix)
        if uri is None:
            return name
        return expanded_name(uri, local)

    @staticmethod
    def _attribute_class(name: str, bindings: dict[str, str]) -> object:
        """Key a lexical attribute name is checked under, or its class.

        Namespace declarations and XSI attributes are filtered by
        *resolved* namespace; an undeclared ``xsi:`` prefix keeps its
        conventional meaning, any other undeclared prefix leaves the
        attribute matched (and reported) by its lexical name.
        """
        if name == "xmlns" or name.startswith("xmlns:"):
            return _IGNORED
        prefix, colon, local = name.partition(":")
        if not colon:
            return name
        uri = bindings.get(prefix)
        if uri is None:
            if prefix != "xsi":
                return name
        elif uri != XSI_NAMESPACE:
            return expanded_name(uri, local)
        return _XSI_TYPE if local == "type" else _IGNORED

    def _xsi_type_key(self, type_name: str, bindings: dict[str, str]) -> str:
        """Resolve the QName *value* of ``xsi:type`` to a type key."""
        if not self._namespaced:
            return type_name.rpartition(":")[2]
        prefix, colon, local = type_name.partition(":")
        if not colon:
            return expanded_name(bindings.get("") or None, type_name)
        uri = bindings.get(prefix)
        if uri is None:
            return local
        return expanded_name(uri, local)

    # -- schema facts for the walk ---------------------------------------------------

    def _push(
        self,
        declaration: ElementDeclaration,
        key: str,
        attributes,
        where,
        scope: _Scope,
        walk: _Walk,
    ) -> None:
        facts = self._facts.get(id(declaration))
        if facts is None:
            facts = self._facts[id(declaration)] = _Facts(
                declaration, declaration.resolved_type(), self._schema, self._use_tables
            )
        items: list[tuple[str, str, str]] = []
        override = None
        clean = self._clean
        if attributes:
            if (
                clean is not None
                and attributes.__class__ is tuple
                and (scope, facts, attributes) in clean
            ):
                # These attributes checked clean here before.
                walk.stack.append(_Frame(key, facts))
                return
            memo = scope.attributes
            for name, value in attributes:
                kind = memo.get(name)
                if kind is None:
                    kind = self._attribute_class(name, scope.bindings)
                    _remember(memo, name, kind)
                if kind is _IGNORED:
                    continue
                if kind is _XSI_TYPE:
                    if override is None:
                        override = value
                    continue
                items.append((name, kind, value))
            if override is not None:
                facts = self._override(
                    declaration, facts, override, key, where, scope, walk
                )
        if facts.skip:
            walk.stack.append(_SKIP)
            return
        # Only a tuple can be a key: the scanner's one-off bodies (those
        # its memo does not hold) come as lists and are not remembered.
        memoize = (
            clean is not None
            and attributes.__class__ is tuple
            and attributes
            and override is None
        )
        if memoize:
            errors = len(walk.errors)
        if facts.abstract:
            walk.error(
                f"type '{facts.type_definition.name}' of element "
                f"'{facts.name}' is abstract",
                where,
                walk.path(key),
            )
        if facts.uses is not None:
            if items or facts.required:
                self._check_attributes(items, facts, key, where, walk)
        elif items:
            walk.error(
                f"element <{key}> of simple type may not carry attributes",
                where,
                walk.path(key),
            )
        if memoize and len(walk.errors) == errors:
            _remember_clean(clean, (scope, facts, attributes))
        walk.stack.append(_Frame(key, facts))

    def _override(
        self,
        declaration: ElementDeclaration,
        facts: _Facts,
        override: str,
        key: str,
        where,
        scope: _Scope,
        walk: _Walk,
    ) -> _Facts:
        """Facts under the ``xsi:type`` named *override*, if it applies."""
        candidate = self._schema.types.get(self._xsi_type_key(override, scope.bindings))
        if candidate is None:
            walk.error(
                f"xsi:type names unknown type '{override}'", where, walk.path(key)
            )
            return facts
        if not derives_from(candidate, facts.type_definition):
            walk.error(
                f"xsi:type '{override}' is not derived from the declared type",
                where,
                walk.path(key),
            )
            return facts
        if candidate is facts.type_definition:
            return facts
        memo_key = (id(declaration), id(candidate))
        derived = self._facts.get(memo_key)
        if derived is None:
            derived = self._facts[memo_key] = _Facts(
                declaration, candidate, self._schema, self._use_tables
            )
        return derived

    def _check_attributes(
        self,
        items: list[tuple[str, str, str]],
        facts: _Facts,
        display: str,
        where,
        walk: _Walk,
    ) -> None:
        uses = facts.uses
        seen: set[str] = set()
        for name, key, value in items:
            seen.add(key)
            label = key if self._namespaced else name
            use = uses.get(key)
            if use is None:
                walk.error(
                    f"attribute '{label}' is not declared on <{display}>",
                    where,
                    walk.path(display),
                )
                continue
            fixed, check = use
            if fixed is not None and value != fixed:
                walk.error(
                    f"attribute '{label}' must have the fixed value "
                    f"{fixed!r}, found {value!r}",
                    where,
                    walk.path(display),
                )
                continue
            if check is None:
                continue
            try:
                check(value)
            except SimpleTypeError as error:
                walk.error(
                    f"attribute '{label}' of <{display}>: {error.message}",
                    where,
                    walk.path(display),
                )
        for key in facts.required:
            if key not in seen:
                walk.error(
                    f"required attribute '{key}' missing on <{display}>",
                    where,
                    walk.path(display),
                )


def _counted(errors: list[ValidationError]) -> list[ValidationError]:
    obs.count("xsd.stream.documents")
    if errors:
        obs.count("xsd.stream.errors", n=len(errors))
    return errors


def _remember_clean(clean: set[tuple], key: tuple) -> None:
    """Store a ``(scope, facts, attributes)`` that checked clean, unless
    the memo is full or its attributes are too long to keep."""
    if len(clean) >= CLEAN_MEMO_ENTRIES:
        return
    size = 0
    for name, value in key[2]:
        size += len(name) + len(value)
    if size <= MEMO_KEY_LENGTH:
        clean.add(key)


def text_verdict(validator: StreamingValidator, text: str) -> dict:
    """One posted document's JSON verdict: ``{"valid", "errors"}``.

    A document that is not well-formed has its syntax error as the one
    entry.  Shared by the serve tier's inline ``POST /-/validate`` and
    the pool's text workers, so a pooled verdict is byte-identical to
    the inline one.
    """
    try:
        errors = validator.validate_text(text)
    except XmlSyntaxError as error:
        errors = [error]
    return {"valid": not errors, "errors": [error_entry(error) for error in errors]}


def error_entry(error: Exception) -> dict:
    """JSON shape for one validation/syntax error verdict."""
    entry: dict = {
        "message": getattr(error, "message", str(error)),
        "kind": (
            "syntax" if isinstance(error, XmlSyntaxError) else "validation"
        ),
    }
    location = getattr(error, "location", None)
    if location is not None:
        entry["line"] = location.line
        entry["column"] = location.column
    path = getattr(error, "path", None)
    if path:
        entry["path"] = path
    return entry
