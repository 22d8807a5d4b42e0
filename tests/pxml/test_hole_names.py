"""Hole names are data, not Python identifiers.

The generated ``render_text`` reads every hole as ``values['name']``, so
a hole may share its name with anything the generated code uses
(``_check``, ``_p``, ``_a``, ``_esc_t``, ``_b``, ...) and still render
the bytes the DOM route renders.  The DOM-route ``render(factory, *,
hole, ...)`` keeps one parameter per hole (the paper's Fig. 11 factory
call), so Python keywords and that function's own names are refused
when the template is parsed, with a ``PxmlSyntaxError``.
"""

import pytest

from repro.dom import serialize
from repro.errors import PxmlSyntaxError, ReproError
from repro.pxml import Template

#: names the generated text-render code or the render entry points use
GENERATED_NAMES = (
    "_check", "_p", "_a", "_esc_t", "_esc_a", "_b", "_w", "_v1", "_ck1",
    "_v0", "values", "render_text", "self", "checked",
)

ITEM = (
    '<item partNum="{part}"><productName>{name}</productName>'
    "<quantity>{quantity}</quantity><USPrice>{price}</USPrice></item>"
)


def assert_routes_agree(binding, source, values):
    """render_text (compiled and interpreted) equals serialize(render)."""
    template = Template(binding, source)
    expected = serialize(template.render(**values))
    assert template.text_source is not None
    assert template.render_text(**values) == expected
    assert template.render_text_mapping(dict(values)) == expected
    interpreted = Template(binding, source, compiled=False)
    assert interpreted.render_text(**values) == expected
    return expected


class TestGeneratedNamesAreData:
    @pytest.mark.parametrize("name", GENERATED_NAMES)
    def test_text_hole(self, po_binding, name):
        source = f"<comment>${name}$</comment>"
        rendered = assert_routes_agree(po_binding, source, {name: "hello"})
        assert rendered == "<comment>hello</comment>"

    @pytest.mark.parametrize("name", GENERATED_NAMES)
    def test_attribute_hole(self, po_binding, name):
        source = ITEM.format(
            part=f"${name}$", name="Lawnmower", quantity="1", price="148.95"
        )
        rendered = assert_routes_agree(po_binding, source, {name: "872-AA"})
        assert rendered.startswith('<item partNum="872-AA">')

    @pytest.mark.parametrize("name", GENERATED_NAMES)
    def test_element_hole(self, po_binding, po_factory, name):
        item = Template(
            po_binding,
            ITEM.format(part="926-AA", name="Monitor", quantity="1", price="9.99"),
        ).render()
        source = f"<items>${name}:item$</items>"
        rendered = assert_routes_agree(po_binding, source, {name: item})
        assert rendered == f"<items>{serialize(item)}</items>"

    @pytest.mark.parametrize("name", GENERATED_NAMES)
    def test_invalid_value_fails_alike(self, po_binding, name):
        template = Template(po_binding, f"<quantity>${name}$</quantity>")
        with pytest.raises(ReproError) as dom:
            template.render(**{name: "100"})
        with pytest.raises(ReproError) as text:
            template.render_text(**{name: "100"})
        assert type(text.value) is type(dom.value)
        assert str(text.value) == str(dom.value)


class TestRefusedNames:
    @pytest.mark.parametrize("name", ["class", "None", "True", "lambda", "if"])
    def test_python_keywords(self, po_binding, name):
        with pytest.raises(PxmlSyntaxError, match="is a Python keyword"):
            Template(po_binding, f"<comment>${name}$</comment>")

    @pytest.mark.parametrize("name", ["factory", "_lex", "_hole_specs"])
    def test_names_of_the_generated_render(self, po_binding, name):
        with pytest.raises(PxmlSyntaxError, match="reserved"):
            Template(po_binding, f"<comment>${name}$</comment>")

    def test_refused_in_attribute_values_too(self, po_binding):
        source = ITEM.format(
            part="$factory$", name="Lawnmower", quantity="1", price="148.95"
        )
        with pytest.raises(PxmlSyntaxError, match="reserved"):
            Template(po_binding, source)


class TestOneMapping:
    def test_text_source_takes_one_mapping(self, po_binding):
        template = Template(
            po_binding,
            ITEM.format(part="$p$", name="$n$", quantity="$q$", price="$u$"),
        )
        source = template.text_source
        assert source.startswith("def render_text(values):\n")
        for name in ("p", "n", "q", "u"):
            assert f"values[{name!r}]" in source

    def test_450_holes_with_runtime_built_keys(self, po_binding):
        count = 150
        source = "<items>{}</items>".format(
            "".join(
                ITEM.format(
                    part=f"$p{i}$", name=f"Widget {i}", quantity=f"$q{i}$",
                    price=f"$u{i}$",
                )
                for i in range(count)
            )
        )
        template = Template(po_binding, source)
        assert len(template.hole_names) == 450
        # Keys made at run time, as a query parser makes them: equal to
        # the hole names but not the interned identifier objects.
        values = {}
        for i in range(count):
            values["".join(["p", str(i)])] = f"{100 + i}-AB"
            values["".join(["q", str(i)])] = str(1 + i % 98)
            values["".join(["u", str(i)])] = f"{i}.99"
        expected = serialize(template.render(**values))
        assert template.render_text_mapping(values) == expected
        assert template.render_text(**values) == expected

    def test_mapping_misfits_raise_the_keyword_errors(self, po_binding):
        template = Template(po_binding, "<comment>$c$</comment>")
        with pytest.raises(TypeError) as mapped:
            template.render_text_mapping({})
        with pytest.raises(TypeError) as keyword:
            template.render_text()
        assert str(mapped.value) == str(keyword.value) == (
            "render_text() missing 1 required keyword-only argument: 'c'"
        )
        with pytest.raises(TypeError, match="unexpected keyword argument 'x'"):
            template.render_text_mapping({"c": "1", "x": "2"})

    def test_missing_names_are_listed_in_hole_order(self, po_binding):
        template = Template(
            po_binding,
            ITEM.format(part="$p$", name="$n$", quantity="$q$", price="$u$"),
        )
        with pytest.raises(TypeError) as error:
            template.render_text(n="x")
        assert str(error.value) == (
            "render_text() missing 3 required keyword-only arguments: "
            "'p', 'q', and 'u'"
        )
        with pytest.raises(TypeError) as error:
            template.render_text(n="x", p="926-AA")
        assert str(error.value) == (
            "render_text() missing 2 required keyword-only arguments: "
            "'q' and 'u'"
        )
