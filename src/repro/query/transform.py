"""Typed query-to-document transforms (the full Sect. 8 vision).

The paper's outlook: "a query which is applied to appropriate
VDOM-objects can be guaranteed to result only in documents which are
valid according to an underlying Xml schema."  This module carries that
guarantee in two sizes:

* :class:`TypedTransform` wires one compiled
  :class:`~repro.query.Query` into one P-XML
  :class:`~repro.pxml.Template` hole — and checks **at definition time**
  that the query's statically known result type is acceptable for that
  hole.
* :class:`TransformProgram` is the top-down generalization: an ordered
  set of ``(query → template/hole)`` :class:`Rule`\\ s applied over a
  V-DOM tree.  Every rule is checked at definition time against *both*
  schemas — the query side against the input schema (impossible paths
  are :class:`~repro.errors.QueryError`\\ s before any document exists)
  and the hole side against the output schema (the template checker plus
  the result-class/hole compatibility proof).  A program that constructs
  is a proof: whatever it emits, over whatever input document, is valid.

Both carry a **segment route**: ``apply_text`` renders each query hit
straight to final markup through the PR 2 segment machinery
(``Template.render_text``), skipping the intermediate ``TypedElement``
tree, byte-identical to ``serialize(render(...))``; templates whose
shape the segment compiler declines transparently take the DOM route,
counted per hit in ``repro.obs`` (``query.transform{route=...}``).
"""

from __future__ import annotations

from typing import Any, Callable

from repro import obs
from repro.errors import QueryError
from repro.core.vdom import Binding, TypedElement
from repro.dom.serialize import serialize
from repro.pxml.checker import HoleSpec
from repro.pxml.template import Template
from repro.query.path import Query


def _render_hit_text(template: Template, values: dict[str, Any]) -> str:
    """One hit to markup text, counting which route served it.

    ``render_text`` is byte-identical to ``serialize(render(...))`` by
    the PR 2 contract whichever route it takes internally; the counter
    records whether the segment machinery (compiled function or
    interpreted program) did the work or the hit fell back to building
    a DOM tree.
    """
    if template._render_text is not None or template._segments is not None:
        obs.count("query.transform", route="segment")
    else:
        obs.count("query.transform", route="dom", reason="no-segment-program")
    return template.render_text_mapping(values)


class TypedTransform:
    """Render a template once per query result, statically type-checked.

    ::

        transform = TypedTransform(
            binding_out=wml_binding,
            query=Query(po_binding, "purchaseOrder", "items/item/productName"),
            template="<option value='x'>$hit:text$</option>",
            hole="hit",
            extract=lambda element: element.text_content,
        )
        options = transform.apply(purchase_order)   # list of valid <option>s

    For element holes (``extract`` omitted), the query's result classes
    must all be acceptable for the hole — checked here, not when some
    document flows through.  Attribute-value queries (``.../@name``)
    yield strings and feed text holes directly.
    """

    def __init__(
        self,
        binding_out: Binding,
        query: Query,
        template: Template | str,
        hole: str,
        extract: Callable[[Any], Any] | None = None,
        cache: Any = None,
    ):
        self.query = query
        self.template = (
            template
            if isinstance(template, Template)
            else Template(binding_out, template, cache=cache)
        )
        self.hole = hole
        self.extract = extract
        spec = self.template.checked_holes().get(hole)
        if spec is None:
            raise QueryError(
                f"template has no hole named '{hole}' "
                f"(holes: {', '.join(self.template.hole_names) or 'none'})"
            )
        self._check_compatibility(spec)

    def _check_compatibility(self, spec: HoleSpec) -> None:
        if spec.kind == "text":
            if self.extract is None:
                if self.query.result_kind == "attribute-values":
                    # Attribute-value hits are already strings.
                    self.extract = lambda value: value
                else:
                    # Text holes receive element text content by default.
                    self.extract = lambda element: element.text_content
            return
        if self.extract is not None:
            raise QueryError(
                "an element hole cannot take an extract function; the "
                "query results are inserted directly"
            )
        if self.query.result_kind == "attribute-values":
            raise QueryError(
                f"hole '{self.hole}' is an element hole, but the query "
                "selects attribute values (strings) — rejected statically"
            )
        result_classes = self.query.result_classes
        if not result_classes:
            raise QueryError(
                "the query's result type has no generated classes; "
                "it cannot feed an element hole"
            )
        for result_class in result_classes:
            if not issubclass(result_class, spec.classes):
                allowed = ", ".join(cls.__name__ for cls in spec.classes)
                raise QueryError(
                    f"query can yield {result_class.__name__}, but hole "
                    f"'{self.hole}' only accepts {allowed} — the transform "
                    "could emit an invalid document, rejected statically"
                )

    def _hole_values(self, hit: Any, other_holes: dict[str, Any]):
        value = self.extract(hit) if self.extract is not None else hit
        return {self.hole: value, **other_holes}

    def apply(
        self, root: TypedElement, **other_holes: Any
    ) -> list[TypedElement]:
        """Run the query on *root*, render one fragment per hit."""
        return [
            self.template.render(**self._hole_values(hit, other_holes))
            for hit in self.query.apply(root)
        ]

    def apply_text(self, root: TypedElement, **other_holes: Any) -> list[str]:
        """Run the query on *root*, emit final markup text per hit.

        Byte-identical to ``[serialize(fragment) for fragment in
        apply(root, ...)]``, but each hit goes through the segment
        pipeline when the template compiled one — no intermediate
        ``TypedElement`` tree is built (and, unlike the DOM route,
        element-hole hits are *not* adopted out of the source tree).
        """
        return [
            _render_hit_text(
                self.template, self._hole_values(hit, other_holes)
            )
            for hit in self.query.apply(root)
        ]


class Rule:
    """One ``(query → template/hole)`` rule of a transform program.

    *path* is compiled against the program's input schema from its root
    element; *template* (source text or a prebuilt
    :class:`~repro.pxml.Template`) is checked against the output schema;
    *hole* names the slot each query hit fills.  ``extract`` maps a hit
    to the hole value (defaults: identity for attribute-value queries,
    ``text_content`` for text holes, the hit element itself for element
    holes).
    """

    __slots__ = ("path", "template", "hole", "extract", "label")

    def __init__(
        self,
        path: str,
        template: Template | str,
        hole: str,
        extract: Callable[[Any], Any] | None = None,
        label: str | None = None,
    ):
        self.path = path
        self.template = template
        self.hole = hole
        self.extract = extract
        self.label = label


class TransformProgram:
    """An ordered set of rules, each a typed query feeding a typed hole.

    Applying the program to an input tree runs every rule's query
    (top-down from the program's root) and renders one output fragment
    per hit, in rule order then document order — the XML→XML view /
    database-style projection workload.  Construction fails with a
    :class:`~repro.errors.QueryError` naming the offending rule if any
    query is impossible under the input schema or any hole would accept
    a result type the output schema forbids; a program that exists
    cannot emit an invalid fragment.
    """

    def __init__(
        self,
        binding_in: Binding,
        binding_out: Binding,
        root_element: str,
        rules: list[Rule],
        cache: Any = None,
    ):
        if not rules:
            raise QueryError("a transform program needs at least one rule")
        self.binding_in = binding_in
        self.binding_out = binding_out
        self.root_element = root_element
        self.rules: list[tuple[str, TypedTransform]] = []
        for position, rule in enumerate(rules, 1):
            label = rule.label or f"rule {position}"
            try:
                query = Query(binding_in, root_element, rule.path)
                compiled = TypedTransform(
                    binding_out,
                    query,
                    rule.template,
                    rule.hole,
                    rule.extract,
                    cache=cache,
                )
            except QueryError as error:
                raise QueryError(f"{label} ({rule.path!r}): {error}")
            self.rules.append((label, compiled))

    @property
    def rule_labels(self) -> list[str]:
        return [label for label, _ in self.rules]

    def result_classes(self) -> tuple[type, ...]:
        """Statically known union of every rule's output root class."""
        classes: dict[type, None] = {}
        for _, compiled in self.rules:
            root_class = compiled.template.checked_root_class()
            if root_class is not None:
                classes[root_class] = None
        return tuple(classes)

    def apply(
        self, root: TypedElement, **other_holes: Any
    ) -> list[TypedElement]:
        """DOM route: one typed (valid) fragment per hit, rule order."""
        fragments: list[TypedElement] = []
        for _, compiled in self.rules:
            fragments.extend(compiled.apply(root, **other_holes))
        return fragments

    def apply_text(self, root: TypedElement, **other_holes: Any) -> list[str]:
        """Segment route: final markup text per hit, rule order.

        Byte-identical per hit to serializing :meth:`apply`'s fragments;
        hits whose template has no segment program transparently take
        the DOM route (counted in ``query.transform{route=dom}``).
        """
        pieces: list[str] = []
        for _, compiled in self.rules:
            pieces.extend(compiled.apply_text(root, **other_holes))
        return pieces

    def transform_text(
        self, root: TypedElement, separator: str = "", **other_holes: Any
    ) -> str:
        """The :meth:`apply_text` pieces joined into one string."""
        return separator.join(self.apply_text(root, **other_holes))

    def __repr__(self) -> str:
        return (
            f"TransformProgram(<{self.root_element}>, "
            f"{len(self.rules)} rule(s))"
        )


def transform(
    binding_out: Binding,
    query: Query,
    template: str,
    hole: str,
    extract: Callable[[Any], Any] | None = None,
) -> TypedTransform:
    """Convenience constructor mirroring :class:`TypedTransform`."""
    return TypedTransform(binding_out, query, template, hole, extract)
