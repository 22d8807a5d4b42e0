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
and every message once.  Two feeders drive it:

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
  turns any ``PullParser`` event stream into the same calls.

Schema facts — content type, content model, effective attribute uses,
the simple type checking the text, the fixed value, the abstract flag —
are derived once per (declaration, effective type) pair, not per
element.

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
from repro.errors import SimpleTypeError, ValidationError
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
    expanded_name,
)
from repro.xsd.simple import SimpleType

#: attribute classes besides "schema-checked under this key":
#: namespace declarations and XSI attributes other than ``xsi:type``
_IGNORED = object()
#: an attribute naming ``xsi:type`` (by resolved namespace)
_XSI_TYPE = object()


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
        "fixed",
        "collects",
        "text_kind",
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
                self.uses = type_definition.effective_attribute_uses()
                self.required = tuple(
                    key for key, use in self.uses.items() if use.required
                )
        else:
            self.simple = type_definition
        self.collects = self.simple is not None or self.fixed is not None


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

    Elements without declarations share their parent's scope, so the
    common case (namespace-free documents, or declarations only on the
    root) resolves each distinct name once per document.
    """

    __slots__ = ("bindings", "elements", "attributes")

    def __init__(self, bindings: dict[str, str]):
        self.bindings = bindings
        #: lexical element name -> key it matches schema components under
        self.elements: dict[str, str] = {}
        #: lexical attribute name -> key, ``_IGNORED`` or ``_XSI_TYPE``
        self.attributes: dict[str, object] = {}

    def enter(self, attributes) -> _Scope:
        """The scope of an element carrying *attributes*."""
        overrides: dict[str, str] | None = None
        for name, value in attributes:
            if name == "xmlns":
                overrides = overrides or {}
                overrides[""] = value
            elif name.startswith("xmlns:"):
                overrides = overrides or {}
                overrides[name[len("xmlns:") :]] = value
        if overrides is None:
            return self
        return _Scope({**self.bindings, **overrides})


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
        self._scopes = [_Scope({"xml": XML_NAMESPACE})]
        self._text = text
        self._reader: Reader | None = None

    def start(self, name: str, attributes, where) -> None:
        scope = self._scopes[-1]
        if attributes:
            scope = scope.enter(attributes)
        self._scopes.append(scope)
        validator = self._validator
        key = scope.elements.get(name)
        if key is None:
            key = scope.elements[name] = validator._element_key(name, scope.bindings)
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
        if parent.matcher is None:
            # Parent has empty or simple content: no child allowed.
            self.error(
                f"<{key}> is not allowed inside <{parent.facts.name}>",
                where,
                self.path(),
            )
            stack.append(_SKIP)
            return
        matched = parent.matcher.step(key)
        if matched is None:
            expected = (
                ", ".join(f"<{key_}>" for key_ in parent.matcher.expected())
                or "no further elements"
            )
            self.error(
                f"<{key}> is not allowed here inside <{parent.facts.name}>; "
                f"expected {expected}",
                where,
                self.path(),
            )
            stack.append(_SKIP)
            return
        assert isinstance(matched, ElementDeclaration)
        validator._push(matched, key, attributes, where, scope, self)

    def characters(self, data: str, where) -> None:
        stack = self.stack
        if not stack:
            return
        frame = stack[-1]
        if frame is _SKIP:
            return
        facts = frame.facts
        if facts.text_kind is not None and data.strip():
            self.error(
                f"<{facts.name}> has {facts.text_kind} but contains text",
                where,
                self.path(),
            )
            return
        if facts.collects:
            frame.text.append(data)

    def end(self) -> None:
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
                path=self.path(frame.key),
            )
        if not facts.collects:
            return
        text = "".join(frame.text)
        if facts.simple is not None:
            try:
                facts.simple.parse(text)
            except SimpleTypeError as error:
                self.error(
                    f"content of <{facts.name}>: {error.message}",
                    path=self.path(frame.key),
                )
        if facts.fixed is not None and text != facts.fixed:
            self.error(
                f"element '{facts.name}' must have the "
                f"fixed value {facts.fixed!r}",
                path=self.path(frame.key),
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
                scan(text, walk)
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
                end()
            elif isinstance(event, Characters):
                characters(event.data, event.location)
            # comments / PIs / doctype / declarations are transparent
        return walk.errors

    # -- namespace resolution ---------------------------------------------------

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
        if attributes:
            override = None
            memo = scope.attributes
            for name, value in attributes:
                kind = memo.get(name)
                if kind is None:
                    kind = memo[name] = self._attribute_class(name, scope.bindings)
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
        if not _derives_from(candidate, facts.type_definition):
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
            if use.fixed is not None and value != use.fixed:
                walk.error(
                    f"attribute '{label}' must have the fixed value "
                    f"{use.fixed!r}, found {value!r}",
                    where,
                    walk.path(display),
                )
                continue
            try:
                use.declaration.resolved_type().parse(value)
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


def _derives_from(candidate, declared) -> bool:
    if declared is ANY_TYPE:
        return True
    if isinstance(candidate, ComplexType) and isinstance(declared, ComplexType):
        return candidate.is_derived_from(declared)
    if isinstance(candidate, SimpleType) and isinstance(declared, SimpleType):
        return candidate.is_derived_from(declared)
    return False


def error_entry(error: Exception) -> dict:
    """JSON shape for one validation/syntax error verdict.

    Shared by the serve tier's ``POST /-/validate`` endpoint and the
    bulk pool's text-validation workers, so a pooled verdict is
    byte-identical to the inline one.
    """
    from repro.errors import XmlSyntaxError

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
