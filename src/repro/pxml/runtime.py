"""Interpreted template rendering (ablation partner of the compiler).

Walks the checked AST directly, constructing typed elements without any
generated code.  Same output, same guarantees — the benchmarks compare
its per-render cost against the compiled path to quantify what the
paper's preprocessing step buys at runtime.
"""

from __future__ import annotations

from typing import Any

from repro.errors import PxmlStaticError
from repro.core.vdom import TypedElement, lexicalize
from repro.xml.chars import WHITESPACE
from repro.pxml.ast import Hole, TemplateElement, TemplateText
from repro.pxml.checker import CheckedTemplate


def _check_hole_values(checked: CheckedTemplate, values: dict[str, Any]) -> None:
    """Shared render-entry validation: names present, names known, types."""
    missing = [name for name in checked.holes if name not in values]
    if missing:
        raise PxmlStaticError(
            f"missing values for holes: {', '.join(sorted(missing))}"
        )
    unexpected = [name for name in values if name not in checked.holes]
    if unexpected:
        raise PxmlStaticError(
            f"unknown holes: {', '.join(sorted(unexpected))}"
        )
    for name, spec in checked.holes.items():
        spec.accepts(values[name])


def render_interpreted(
    checked: CheckedTemplate, /, **values: Any
) -> TypedElement:
    """Render *checked* with hole *values* by direct AST interpretation."""
    _check_hole_values(checked, values)
    return _build_element(checked, checked.root, values)


_UNCOMPILED = object()  # sentinel: segments not attempted yet for a template


def render_text_interpreted(
    checked: CheckedTemplate, /, **values: Any
) -> str:
    """Interpreted twin of the segment-compiled ``render_text``.

    Lazily partitions the checked AST into a :class:`SegmentProgram`
    (memoized on *checked*) and renders it directly to text; templates
    the partitioner declines fall back to building and serializing the
    typed tree, so output is always byte-identical to
    ``serialize(render_interpreted(...))``.
    """
    from repro import obs
    from repro.pxml.segments import compile_segments

    _check_hole_values(checked, values)
    program = checked.__dict__.get("_segment_program", _UNCOMPILED)
    if program is _UNCOMPILED:
        program = compile_segments(checked)
        checked._segment_program = program
    if program is None:
        obs.count("render.route", route="dom", reason="segment fallback")
        from repro.dom.serialize import serialize

        return serialize(_build_element(checked, checked.root, values))
    obs.count("render.route", route="segment")
    return program.render(values, checked.binding.validate_on_mutate)


def _build_element(
    checked: CheckedTemplate,
    node: TemplateElement,
    values: dict[str, Any],
) -> TypedElement:
    cls = checked.class_of(node)
    children: list[Any] = []
    for child in node.children:
        if isinstance(child, TemplateText):
            if child.data.strip(WHITESPACE) or child.cdata:
                children.append(child.data)
        elif isinstance(child, Hole):
            spec = checked.holes[child.name]
            value = values[child.name]
            if spec.kind == "element":
                children.append(value)
            else:
                children.append(lexicalize(value))
        else:
            children.append(_build_element(checked, child, values))
    attributes: dict[str, Any] = {}
    for attribute in node.attributes:
        pieces: list[str] = []
        for part in attribute.parts:
            if isinstance(part, str):
                pieces.append(part)
            else:
                pieces.append(lexicalize(values[part.name]))
        attributes[attribute.name] = "".join(pieces)
    return cls(*children, **attributes)
