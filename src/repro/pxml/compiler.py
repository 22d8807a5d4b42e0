"""Compile checked templates to V-DOM factory-call code (Fig. 11).

The paper's preprocessor substitutes every XML constructor with "suitable
V-DOM code … V-DOM constructors and content setting method calls".  This
compiler does exactly that: a checked template becomes the source of a
Python function whose body is nested ``factory.create_*`` calls, hole
variables appearing as function parameters.  Compiling the source once
yields a render callable; the source itself is the reviewable artifact
(benchmarks compare it against the interpreted renderer).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.vdom import lexicalize
from repro.xml.chars import WHITESPACE
from repro.pxml.ast import (
    Hole,
    TemplateAttribute,
    TemplateElement,
    TemplateText,
)
from repro.pxml.checker import CheckedTemplate
from repro.pxml.segments import (
    ElementHole,
    Run,
    SegmentProgram,
    build_text_namespace,
    compile_segments,
)


def compile_template(
    checked: CheckedTemplate, function_name: str = "render"
) -> tuple[str, Callable[..., Any]]:
    """Return ``(source, callable)`` for *checked*.

    The callable's signature is ``render(factory, *, hole1, hole2, ...)``;
    it returns the constructed root element (a typed V-DOM object).
    """
    source = compile_template_source(checked, function_name)
    namespace: dict[str, Any] = {
        "_lex": lexicalize,
        "_hole_specs": checked.holes,
    }
    exec(compile(source, f"<pxml:{function_name}>", "exec"), namespace)
    return source, namespace[function_name]


def compile_text_template(
    checked: CheckedTemplate, function_name: str = "render_text"
) -> tuple[SegmentProgram, str, Callable[..., str]] | tuple[None, None, None]:
    """Segment-compile *checked* to a direct-to-text render function.

    Returns ``(program, source, callable)``; the callable's signature is
    ``render_text(values)``, one mapping from hole name to value, and it
    returns the serialized markup string — identical bytes to
    ``serialize(render(...))`` — with no ``TypedElement`` tree in
    between.  The callable trusts ``values`` to hold exactly the holes
    (:meth:`repro.pxml.Template.render_text_mapping` checks that).
    Returns ``(None, None, None)`` when the template's shape is not
    segment-compilable (the caller keeps the DOM route).
    """
    program = compile_segments(checked)
    if program is None:
        return None, None, None
    source, render_text = compile_text_source(
        program, checked.binding, function_name
    )
    return program, source, render_text


def compile_text_source(
    program: SegmentProgram,
    binding: Any,
    function_name: str = "render_text",
) -> tuple[str, Callable[..., str]]:
    """Generate and compile the text-render source for *program*."""
    source = emit_text_source(program, function_name)
    namespace = build_text_namespace(program, binding)
    exec(compile(source, f"<pxml:{function_name}>", "exec"), namespace)
    return source, namespace[function_name]


def emit_text_source(
    program: SegmentProgram, function_name: str = "render_text"
) -> str:
    """Just the generated text-render source (reviewable artifact).

    Hole values arrive as one mapping and each hole is read as
    ``values['name']``.  Hole names never become Python identifiers
    here, so a hole may share its name with a local of this function,
    and a call costs one lookup per hole, however many holes there are.
    """
    lines = [f"def {function_name}(values):"]
    for name in program.element_hole_names:
        lines.append(f"    _hole_specs[{name!r}].accepts(values[{name!r}])")
    segments = program.segments
    if len(segments) == 1 and type(segments[0]) is str:
        lines.append(f"    return {segments[0]!r}")
        return "\n".join(lines) + "\n"
    if any(type(segment) is Run for segment in segments):
        lines.append("    _check = _b.validate_on_mutate")
    lines.append("    _p = []")
    lines.append("    _a = _p.append")
    for index, segment in enumerate(segments):
        if type(segment) is str:
            lines.append(f"    _a({segment!r})")
        elif type(segment) is ElementHole:
            lines.append(f"    _w(values[{segment.name!r}], _p)")
        else:
            escape = "_esc_t" if segment.escape == "text" else "_esc_a"
            lines.append(f"    _v{index} = {_run_expression(segment)}")
            lines.append("    if _check:")
            lines.append(f"        _ck{index}(_v{index})")
            lines.append(f"    _a({escape}(_v{index}))")
    lines.append("    return ''.join(_p)")
    return "\n".join(lines) + "\n"


def _run_expression(run: Run) -> str:
    pieces = [
        repr(payload) if kind == "lit" else f"_lex(values[{payload!r}])"
        for kind, payload in run.parts
    ]
    return " + ".join(pieces) if pieces else "''"


def compile_template_source(
    checked: CheckedTemplate,
    function_name: str = "render",
    spec_prefix: str = "",
) -> str:
    """Just the generated source (for inspection and the preprocessor).

    ``spec_prefix`` namespaces the ``_hole_specs`` lookups so several
    generated functions can share one registry (the preprocessor case).
    """
    return _Compiler(checked).emit(function_name, spec_prefix)


class _Compiler:
    def __init__(self, checked: CheckedTemplate):
        self._checked = checked
        self._binding = checked.binding

    def emit(self, function_name: str, spec_prefix: str = "") -> str:
        holes = self._checked.hole_names()
        parameters = "".join(f", {name}" for name in holes)
        signature = f"def {function_name}(factory"
        if holes:
            signature += f", *{parameters}"
        signature += "):"
        lines = [signature]
        for name, spec in sorted(self._checked.holes.items()):
            if spec.kind == "element":
                lines.append(
                    f"    _hole_specs[{spec_prefix + name!r}].accepts({name})"
                )
        expression = self._element_expression(self._checked.root, depth=1)
        lines.append(f"    return {expression}")
        return "\n".join(lines) + "\n"

    # -- expressions -----------------------------------------------------------

    def _element_expression(self, node: TemplateElement, depth: int) -> str:
        cls = self._class_for(node)
        method = self._binding.factory_method_by_class[cls]
        indent = "    " * (depth + 1)
        arguments: list[str] = []
        for child in node.children:
            if isinstance(child, TemplateText):
                if child.data.strip(WHITESPACE) or child.cdata:
                    arguments.append(repr(child.data))
                # pure-whitespace literals between elements are layout
            elif isinstance(child, Hole):
                spec = self._checked.holes[child.name]
                if spec.kind == "element":
                    arguments.append(child.name)
                else:
                    arguments.append(f"_lex({child.name})")
            else:
                arguments.append(self._element_expression(child, depth + 1))
        attribute_items: list[str] = []
        for attribute in node.attributes:
            attribute_items.append(
                f"{attribute.name!r}: {self._attribute_expression(attribute)}"
            )
        if attribute_items:
            arguments.append("**{" + ", ".join(attribute_items) + "}")
        if not arguments:
            return f"factory.{method}()"
        joined = f",\n{indent}".join(arguments)
        closing_indent = "    " * depth
        return f"factory.{method}(\n{indent}{joined},\n{closing_indent})"

    def _attribute_expression(self, attribute: TemplateAttribute) -> str:
        pieces: list[str] = []
        for part in attribute.parts:
            if isinstance(part, str):
                pieces.append(repr(part))
            else:
                pieces.append(f"_lex({part.name})")
        if not pieces:
            return "''"
        if len(pieces) == 1:
            piece = pieces[0]
            return piece if piece.startswith("_lex") else piece
        return " + ".join(pieces)

    def _class_for(self, node: TemplateElement) -> type:
        """The class the checker proved for this element node."""
        return self._checked.class_of(node)
