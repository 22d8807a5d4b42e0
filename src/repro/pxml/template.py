"""The public P-XML entry point: parse + check once, render many."""

from __future__ import annotations

from typing import Any, Callable

from repro import obs
from repro.core.vdom import Binding, TypedElement
from repro.pxml.checker import CheckedTemplate, check_template
from repro.pxml.compiler import compile_template, compile_text_template
from repro.pxml.parser import parse_template
from repro.pxml.runtime import render_interpreted, render_text_interpreted


class Template:
    """A statically validated XML constructor.

    ::

        template = Template(binding, '''
            <shipTo country="US">
              <name>$n$</name>
              <street>123 Maple Street</street>
              ...
            </shipTo>''')
        ship_to = template.render(n="Alice Smith")

    Checking happens in ``__init__`` — the paper's "compile time".  A
    ``Template`` that exists can only render schema-valid fragments.

    With a :class:`repro.cache.ReproCache` (and a binding produced by a
    cached :func:`repro.bind`), the checked + compiled form is reused
    across processes: a warm start skips parsing, the static check, and
    code generation, going straight to the generated render function.
    The guarantee is preserved — the cached artifact exists only because
    the checker accepted exactly this source against exactly this
    schema, and both are part of the cache key.
    """

    def __init__(
        self,
        binding: Binding,
        source: str,
        param_types: dict[str, Any] | None = None,
        compiled: bool = True,
        cache: Any = None,
    ):
        self.binding = binding
        self.source = source
        self.checked: CheckedTemplate | None = None
        self._render: Callable[..., TypedElement] | None = None
        self._render_text: Callable[..., str] | None = None
        self.generated_source: str | None = None
        self.text_source: str | None = None
        self._segments = None
        self._hole_names: list[str] = []
        self._hole_set: frozenset[str] = frozenset()
        self._hole_specs: dict[str, Any] = {}
        self._root_name: str | None = None
        cache_key = self._cache_key(cache, source, param_types, compiled)
        if cache_key is not None and self._load_cached(cache, cache_key):
            return
        self.ast = parse_template(source)
        self._root_name = self.ast.name
        self.checked = check_template(binding, self.ast, param_types)
        self._hole_names = self.checked.hole_names()
        self._hole_set = frozenset(self._hole_names)
        self._hole_specs = self.checked.holes
        if compiled:
            self.generated_source, self._render = compile_template(self.checked)
            self._segments, self.text_source, self._render_text = (
                compile_text_template(self.checked)
            )
            # Seed the interpreted twin's memo so a mixed usage pattern
            # never re-partitions the same checked AST.
            self.checked._segment_program = self._segments
        if cache_key is not None and compiled:
            self._store_cached(cache, cache_key)

    # -- cache plumbing ---------------------------------------------------------

    def _cache_key(
        self,
        cache: Any,
        source: str,
        param_types: dict[str, Any] | None,
        compiled: bool,
    ) -> str | None:
        """Chained fingerprint, or ``None`` when caching cannot apply."""
        if cache is None or not compiled:
            return None
        base = self.binding.cache_fingerprint
        if base is None:
            # An unfingerprinted binding gives no stable schema identity
            # to key on; skip caching rather than risk a wrong reuse.
            return None
        from repro.cache.fingerprint import combine

        annotations = (
            sorted((name, str(value)) for name, value in param_types.items())
            if param_types
            else ()
        )
        return combine(base, "template", source, param_types=annotations)

    def _load_cached(self, cache: Any, key: str) -> bool:
        from repro.cache.artifacts import ArtifactError, load_template
        from repro.core.vdom import lexicalize

        payload = cache.get_bytes("template", key)
        if payload is None:
            return False
        try:
            record = load_template(payload, self.binding)
        except ArtifactError:
            cache.stats.record_corrupt("template")
            cache.invalidate(key)
            return False
        self.ast = None
        self._root_name = record["root"]
        self.generated_source = record["generated_source"]
        self._hole_names = sorted(record["holes"])
        self._hole_set = frozenset(self._hole_names)
        self._hole_specs = record["holes"]
        namespace: dict[str, Any] = {
            "_lex": lexicalize,
            "_hole_specs": record["holes"],
        }
        exec(
            compile(self.generated_source, "<pxml:render>", "exec"), namespace
        )
        self._render = namespace["render"]
        self._segments = record.get("program")
        self.text_source = record.get("text_source")
        if self._segments is not None and self.text_source is not None:
            from repro.pxml.segments import build_text_namespace

            text_namespace = build_text_namespace(self._segments, self.binding)
            exec(
                compile(self.text_source, "<pxml:render_text>", "exec"),
                text_namespace,
            )
            self._render_text = text_namespace["render_text"]
        return True

    def _store_cached(self, cache: Any, key: str) -> None:
        from repro.cache.artifacts import ArtifactError, dump_template

        assert self.checked is not None and self.generated_source is not None
        try:
            payload = dump_template(
                self.binding,
                self.generated_source,
                self._root_name or "",
                self.checked.holes,
                text_source=self.text_source,
                segment_program=self._segments,
            )
        except ArtifactError:
            return
        cache.put_bytes("template", key, payload)

    # -- public surface ----------------------------------------------------------

    @property
    def hole_names(self) -> list[str]:
        return self._hole_names

    def checked_holes(self) -> dict[str, Any]:
        """Hole name → :class:`~repro.pxml.checker.HoleSpec`.

        Unlike ``self.checked.holes`` this also works on a
        cache-rehydrated template, whose ``checked`` AST never existed
        in this process — the specs ride in the cached artifact.
        """
        if self.checked is not None:
            return self.checked.holes
        return self._hole_specs

    def checked_root_class(self) -> type | None:
        """The generated class of the template's root element.

        ``None`` only for a cache-rehydrated template whose root name is
        ambiguous in the binding (several local declarations share it).
        """
        if self.checked is not None:
            return self.checked.root_class
        candidates = self.binding.declarations_by_name.get(
            self._root_name or "", []
        )
        return candidates[0] if len(candidates) == 1 else None

    def render(self, /, **values: Any) -> TypedElement:
        """Instantiate the template; returns a typed (valid) element."""
        if self._render is not None:
            return self._render(self.binding.factory, **values)
        assert self.checked is not None
        return render_interpreted(self.checked, **values)

    def render_text(self, /, **values: Any) -> str:
        """Render directly to serialized markup, skipping the DOM.

        Byte-identical to ``serialize(self.render(**values))`` but emits
        the string from precomputed segments; the static check in
        ``__init__`` (plus per-hole validation at render time) preserves
        the validity guarantee without materializing a tree.  Templates
        whose shape the segment compiler declines transparently take the
        render-then-serialize route.
        """
        return self.render_text_mapping(values)

    def render_text_mapping(self, values: dict[str, Any]) -> str:
        """:meth:`render_text` with the hole values as one dict.

        For a caller that already holds the values in a dict (the serve
        tier's query parameters): nothing is unpacked into keywords, so
        the cost is linear in the holes.  A missing or unknown hole
        raises the ``TypeError`` a keyword call would.
        """
        if self._render_text is not None:
            obs.count("render.route", route="segment")
            if values.keys() != self._hole_set:
                raise _hole_mismatch(values, self._hole_names)
            return self._render_text(values)
        if self.checked is not None:
            return render_text_interpreted(self.checked, **values)
        # A cached template whose segment program did not survive
        # rehydration: the only remaining route is render-then-serialize.
        obs.count("render.route", route="dom", reason="no segment program")
        from repro.dom.serialize import serialize

        return serialize(self.render(**values))

    def render_document(self, /, **values: Any):
        """Render and wrap in a document (root must be global)."""
        return self.binding.document(self.render(**values))

    def __repr__(self) -> str:
        mode = "compiled" if self._render is not None else "interpreted"
        return (
            f"Template(<{self._root_name}>, holes={self.hole_names}, {mode})"
        )


def _hole_mismatch(values: dict[str, Any], hole_names: list[str]) -> TypeError:
    """The ``TypeError`` CPython raises for a keyword-only ``render_text``
    called with *values*: the first unknown name wins, else every
    missing name is listed in hole order."""
    holes = set(hole_names)
    for name in values:
        if name not in holes:
            return TypeError(
                f"render_text() got an unexpected keyword argument '{name}'"
            )
    missing = [repr(name) for name in hole_names if name not in values]
    if len(missing) == 1:
        names = missing[0]
    elif len(missing) == 2:
        names = f"{missing[0]} and {missing[1]}"
    else:
        names = ", ".join(missing[:-1]) + f", and {missing[-1]}"
    plural = "" if len(missing) == 1 else "s"
    return TypeError(
        f"render_text() missing {len(missing)} required keyword-only "
        f"argument{plural}: {names}"
    )


def template_for(binding: Binding, source: str, **kwargs: Any) -> Template:
    """Convenience: ``template_for(binding, "<a>...</a>")``."""
    return Template(binding, source, **kwargs)
