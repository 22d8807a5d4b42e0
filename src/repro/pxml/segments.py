"""Segment compilation: checked templates → precomputed markup runs.

The paper puts validation at *preparation time*; this module moves the
rest of the serving cost there too.  A checked template is partitioned
into three kinds of segments:

* **static strings** — markup the checker already proved: start/end
  tags, defaulted/fixed attributes, literal text.  They are
  name-validated, escaped, and concatenated *once*, at compile time;
* **runs** — dynamic character data (a text hole, or simple content /
  an attribute value mixing literals with holes).  A run remembers the
  simple type and fixed-value constraint of its slot so render-time
  validation matches the typed constructors byte for byte;
* **element holes** — typed subtrees passed in by the caller,
  serialized through :func:`repro.dom.serialize.write_node` (valid by
  the V-DOM invariant, so no re-validation).

``compile_segments`` returns ``None`` whenever any construct falls
outside what the partitioner proves equivalent to the DOM route
(anyType oddities, element-level fixed values); callers then fall back
to ``serialize(render(...))``, so the fast path can never change
output — only speed.
"""

from __future__ import annotations

from typing import Any, Callable

from repro import obs
from repro.errors import SimpleTypeError, VdomTypeError
from repro.xsd.components import ComplexType, ContentType
from repro.xsd.simple import SimpleType
from repro.core.vdom import lexicalize
from repro.xml.chars import ILLEGAL_CHAR, WHITESPACE, illegal_char
from repro.xml.entities import escape_attribute, escape_text
from repro.dom.serialize import write_node
from repro.pxml.ast import Hole, TemplateElement, TemplateText
from repro.pxml.checker import CheckedTemplate, HoleSpec


class _Unsupported(Exception):
    """Internal: this template shape must use the DOM fallback.

    Always raised with a short reason string — it becomes the label on
    the ``pxml.segments`` fallback counter, so a perf regression caused
    by templates quietly leaving the fast path is attributable.
    """


#: A run part: ``("lit", text)`` or ``("hole", name)``.
RunPart = tuple[str, str]


def _resolve_slot(
    owner: type, slot: Any
) -> tuple[SimpleType | None, str | None, str]:
    """``(simple_type, fixed, context)`` constraining a run's value.

    ``slot`` is ``"content"`` (element character data) or
    ``("attr", xml_name)``.  Resolved from the *live* class so cache
    rehydration never trusts pickled type objects.
    """
    tag = owner._DECLARATION.name
    type_definition = owner._TYPE
    if slot == "content":
        context = f"content of <{tag}>"
        if isinstance(type_definition, SimpleType):
            return type_definition, None, context
        if (
            isinstance(type_definition, ComplexType)
            and type_definition.content_type is ContentType.SIMPLE
        ):
            return type_definition.simple_content, None, context
        return None, None, context  # mixed/anyType text: any string goes
    kind, xml_name = slot
    assert kind == "attr"
    context = f"attribute '{xml_name}' of <{tag}>"
    if not isinstance(type_definition, ComplexType):
        return None, None, context
    use = type_definition.effective_attribute_uses().get(xml_name)
    if use is None:
        return None, None, context
    return use.declaration.resolved_type(), use.fixed, context


def _make_checker(
    simple_type: SimpleType | None, fixed: str | None, context: str
) -> Callable[[str], None]:
    """Render-time validator matching the typed constructors' errors.

    A slot with no simple type (mixed or ``anyType`` text) still takes
    only ``Char`` text, as ``TypedElement._append_value`` does: any
    other character would make the rendered page ill-formed.
    """
    if simple_type is None and fixed is None:
        find_illegal_char = ILLEGAL_CHAR.search

        def check_chars(value: str) -> None:
            if find_illegal_char(value) is not None:
                raise VdomTypeError(f"{context}: {illegal_char(value)}")

        return check_chars

    def check(value: str) -> None:
        if fixed is not None and value != fixed:
            raise VdomTypeError(
                f"{context} must have the fixed value {fixed!r}"
            )
        if simple_type is not None:
            try:
                simple_type.parse(value)
            except SimpleTypeError as error:
                raise VdomTypeError(f"{context}: {error.message}")

    return check


class Run:
    """One dynamic character-data slot with its validation closure."""

    __slots__ = ("parts", "escape", "owner", "slot", "checker")

    def __init__(
        self, parts: tuple[RunPart, ...], escape: str, owner: type, slot: Any
    ):
        self.parts = parts
        self.escape = escape  # 'text' | 'attr'
        self.owner = owner
        self.slot = slot
        self.checker = _make_checker(*_resolve_slot(owner, slot))

    def value(self, values: dict[str, Any]) -> str:
        parts = self.parts
        if len(parts) == 1:
            kind, payload = parts[0]
            return payload if kind == "lit" else lexicalize(values[payload])
        return "".join(
            payload if kind == "lit" else lexicalize(values[payload])
            for kind, payload in parts
        )

    def emit(self, values: dict[str, Any], check: bool) -> str:
        literal = self.value(values)
        if check:
            self.checker(literal)
        if self.escape == "text":
            return escape_text(literal)
        return escape_attribute(literal)


class ElementHole:
    """A typed-subtree slot, serialized via the iterative fast path."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class SegmentProgram:
    """The compiled segment list plus the hole registry."""

    __slots__ = ("segments", "hole_specs")

    def __init__(
        self, segments: list[Any], hole_specs: dict[str, HoleSpec]
    ):
        self.segments = segments
        self.hole_specs = hole_specs

    @property
    def hole_names(self) -> list[str]:
        return sorted(self.hole_specs)

    @property
    def element_hole_names(self) -> list[str]:
        return sorted(
            name
            for name, spec in self.hole_specs.items()
            if spec.kind == "element"
        )

    def render(self, values: dict[str, Any], check: bool) -> str:
        """Interpreted twin of the generated ``render_text`` function.

        Static segments are emitted as compiled, runs are validated when
        *check*, and element holes are serialized through the iterative
        fast path.
        """
        pieces: list[str] = []
        for segment in self.segments:
            if type(segment) is str:
                pieces.append(segment)
            elif type(segment) is ElementHole:
                write_node(values[segment.name], pieces)
            else:
                pieces.append(segment.emit(values, check))
        return "".join(pieces)

    def static_ratio(self) -> float:
        """Fraction of segments precomputed (for stats/inspection)."""
        if not self.segments:
            return 1.0
        static = sum(1 for s in self.segments if type(s) is str)
        return static / len(self.segments)


def compile_segments(checked: CheckedTemplate) -> SegmentProgram | None:
    """Partition *checked* into segments, or ``None`` when unsupported.

    Only :class:`_Unsupported` — the partitioner's own "this shape stays
    on the DOM route" signal — is caught, and every such fallback is
    counted with its reason (``pxml.segments{outcome=fallback,...}``).
    Anything else is a real compiler bug and propagates: a blanket
    ``except Exception`` here once turned those into silent DOM-route
    perf regressions.
    """
    try:
        builder = _SegmentBuilder(checked)
        builder.element(checked.root)
    except _Unsupported as unsupported:
        obs.count(
            "pxml.segments",
            outcome="fallback",
            reason=str(unsupported) or "unsupported shape",
        )
        return None
    obs.count("pxml.segments", outcome="compiled")
    return SegmentProgram(builder.finish(), dict(checked.holes))


class _SegmentBuilder:
    def __init__(self, checked: CheckedTemplate):
        self._checked = checked
        self._segments: list[Any] = []
        self._buffer: list[str] = []

    # -- assembly -----------------------------------------------------------

    def _lit(self, text: str) -> None:
        self._buffer.append(text)

    def _flush(self) -> None:
        if self._buffer:
            self._segments.append("".join(self._buffer))
            self._buffer.clear()

    def _run(self, parts: list[RunPart], escape: str, owner: type, slot) -> None:
        self._flush()
        self._segments.append(Run(tuple(parts), escape, owner, slot))

    def _hole(self, name: str) -> None:
        self._flush()
        self._segments.append(ElementHole(name))

    def finish(self) -> list[Any]:
        self._flush()
        return self._segments

    # -- the walk -----------------------------------------------------------

    def element(self, node: TemplateElement) -> None:
        cls = self._checked.element_classes.get(id(node))
        if cls is None:  # unchecked child (anyType content)
            raise _Unsupported("unchecked anyType child")
        declaration = cls._DECLARATION
        if declaration.fixed is not None:
            # Element-level fixed values need the full text_content
            # comparison; rare enough to leave on the DOM route.
            raise _Unsupported("element-level fixed value")
        tag = declaration.name
        self._lit("<" + tag)
        self._attributes(node, cls)
        kept = self._kept_children(node)
        if not kept:
            self._lit("/>")
            return
        self._lit(">")
        type_definition = cls._TYPE
        if isinstance(type_definition, SimpleType) or (
            isinstance(type_definition, ComplexType)
            and type_definition.content_type is ContentType.SIMPLE
        ):
            self._simple_content(kept, cls)
        else:
            self._generic_content(kept, cls)
        self._lit("</" + tag + ">")

    def _kept_children(self, node: TemplateElement) -> list[Any]:
        """Children the typed constructors actually materialize."""
        kept: list[Any] = []
        for child in node.children:
            if isinstance(child, TemplateText):
                if child.data.strip(WHITESPACE) or child.cdata:
                    kept.append(child)
                # pure-whitespace layout text is dropped, as in compiled
                # factory-call code
            else:
                kept.append(child)
        return kept

    def _simple_content(self, kept: list[Any], cls: type) -> None:
        """One run covering the element's whole character data."""
        parts: list[RunPart] = []
        dynamic = False
        for child in kept:
            if isinstance(child, TemplateText):
                parts.append(("lit", child.data))
            elif isinstance(child, Hole):
                spec = self._checked.holes[child.name]
                if spec.kind != "text":
                    raise _Unsupported("element hole in simple content")
                parts.append(("hole", child.name))
                dynamic = True
            else:
                raise _Unsupported("nested element in simple content")
        if not dynamic:
            # Fully static simple content: the checker parsed it already.
            self._lit(
                escape_text("".join(payload for _, payload in parts))
            )
            return
        self._run(parts, "text", cls, "content")

    def _generic_content(self, kept: list[Any], cls: type) -> None:
        for child in kept:
            if isinstance(child, TemplateText):
                self._lit(escape_text(child.data))
            elif isinstance(child, Hole):
                spec = self._checked.holes[child.name]
                if spec.kind == "element":
                    self._hole(child.name)
                else:
                    self._run([("hole", child.name)], "text", cls, "content")
            else:
                self.element(child)

    # -- attributes ---------------------------------------------------------

    def _attributes(self, node: TemplateElement, cls: type) -> None:
        keys = cls._ATTRIBUTE_KEYS
        # dict assignment mirrors Element.set_attribute: a template value
        # overriding a default keeps the default's position.
        ordered: dict[str, list[RunPart]] = {
            key: [("lit", literal)] for key, literal in cls._ATTRIBUTE_DEFAULTS
        }
        for attribute in node.attributes:
            key = keys.get(attribute.name)
            if key is None:
                # Undeclared attribute: render() raises a matching error.
                raise _Unsupported("undeclared template attribute")
            ordered[key] = [
                ("lit", part) if isinstance(part, str) else ("hole", part.name)
                for part in attribute.parts
            ]
        for xml_name, parts in ordered.items():
            self._lit(f' {xml_name}="')
            if all(kind == "lit" for kind, _ in parts):
                self._lit(
                    escape_attribute(
                        "".join(payload for _, payload in parts)
                    )
                )
            else:
                self._run(parts, "attr", cls, ("attr", xml_name))
            self._lit('"')


# -- cache (de)hydration -------------------------------------------------------


def program_to_record(program: SegmentProgram, binding) -> list[Any]:
    """Reduce segments to picklable data (classes become interface keys)."""
    key_by_class = {cls: key for key, cls in binding.classes.items()}
    record: list[Any] = []
    for segment in program.segments:
        if type(segment) is str:
            record.append(("s", segment))
        elif type(segment) is ElementHole:
            record.append(("h", segment.name))
        else:
            owner_key = key_by_class.get(segment.owner)
            if owner_key is None:
                raise LookupError(
                    "segment owner class is outside the binding"
                )
            record.append(
                ("r", segment.parts, segment.escape, owner_key, segment.slot)
            )
    return record


def program_from_record(
    record: list[Any], binding, hole_specs: dict[str, HoleSpec]
) -> SegmentProgram:
    """Rebuild a program against the *live* binding (raises on staleness)."""
    segments: list[Any] = []
    for entry in record:
        tag = entry[0]
        if tag == "s":
            segments.append(entry[1])
        elif tag == "h":
            segments.append(ElementHole(entry[1]))
        elif tag == "r":
            _, parts, escape, owner_key, slot = entry
            owner = binding.classes[owner_key]  # KeyError -> stale
            if isinstance(slot, list):  # survived a JSON-ish round trip
                slot = tuple(slot)
            segments.append(Run(tuple(map(tuple, parts)), escape, owner, slot))
        else:
            raise LookupError(f"unknown segment record tag {tag!r}")
    return SegmentProgram(segments, hole_specs)


def build_text_namespace(program: SegmentProgram, binding) -> dict[str, Any]:
    """Execution namespace for generated ``render_text`` source."""
    namespace: dict[str, Any] = {
        "_lex": lexicalize,
        "_esc_t": escape_text,
        "_esc_a": escape_attribute,
        "_w": write_node,
        "_b": binding,
        "_hole_specs": program.hole_specs,
    }
    for index, segment in enumerate(program.segments):
        if type(segment) is Run:
            namespace[f"_ck{index}"] = segment.checker
    return namespace
