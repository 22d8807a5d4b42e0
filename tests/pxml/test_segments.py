"""Segment compilation and the ``render_text`` fast path.

The invariant under test everywhere: for every template and every hole
assignment, ``template.render_text(**values)`` is byte-identical to
``serialize(template.render(**values))`` — including which exception is
raised, with which message, when a value is invalid.
"""

import importlib.util
import pathlib
import random

import pytest

from repro.core import bind
from repro.dom import serialize
from repro.errors import PxmlStaticError, VdomTypeError
from repro.pxml import Template, compile_segments, render_text_interpreted
from repro.pxml.segments import program_from_record, program_to_record
from repro.schemas import PURCHASE_ORDER_SCHEMA
from repro.schemas.xhtml import XHTML_SUBSET_SCHEMA
from repro.xsd import parse_schema

FIXED_ELEMENT_SCHEMA = """\
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="doc">
    <xsd:complexType>
      <xsd:sequence>
        <xsd:element name="version" type="xsd:string" fixed="1.0"/>
        <xsd:element name="body" type="xsd:string"/>
      </xsd:sequence>
    </xsd:complexType>
  </xsd:element>
</xsd:schema>
"""


@pytest.fixture(scope="module")
def xhtml_binding():
    return bind(XHTML_SUBSET_SCHEMA)


class TestSegmentCompilation:
    def test_fully_static_template_collapses_to_one_segment(self, po_binding):
        template = Template(po_binding, "<city>Mill Valley</city>")
        program = template._segments
        assert program is not None
        assert program.segments == ["<city>Mill Valley</city>"]
        assert program.static_ratio() == 1.0
        # The generated function short-circuits to a constant return.
        assert "return '<city>Mill Valley</city>'" in template.text_source

    def test_text_hole_template_mostly_static(self, po_binding):
        template = Template(
            po_binding,
            "<item partNum=\"872-AA\"><productName>$p$</productName>"
            "<quantity>1</quantity><USPrice>9.99</USPrice></item>",
        )
        program = template._segments
        assert program is not None
        assert 0.0 < program.static_ratio() < 1.0
        assert program.hole_names == ["p"]
        assert program.element_hole_names == []

    def test_hole_names_sorted(self, po_binding):
        template = Template(
            po_binding,
            "<shipTo country=\"US\"><name>$z$</name><street>$a$</street>"
            "<city>X</city><state>CA</state><zip>90952</zip></shipTo>",
        )
        assert template._segments.hole_names == ["a", "z"]

    def test_element_hole_recognized(self, po_binding):
        template = Template(po_binding, "<items>$one:item$</items>")
        assert template._segments.element_hole_names == ["one"]

    def test_fixed_element_falls_back_to_dom(self):
        binding = bind(parse_schema(FIXED_ELEMENT_SCHEMA))
        template = Template(
            binding, "<doc><version>1.0</version><body>$b$</body></doc>"
        )
        # Element-level fixed values are outside the partitioner's proof.
        assert compile_segments(template.checked) is None
        assert template.text_source is None
        # ...but render_text still works, through the DOM fallback.
        assert template.render_text(b="hi") == serialize(
            template.render(b="hi")
        )


class TestRenderTextEquivalence:
    def test_text_hole(self, po_binding):
        template = Template(po_binding, "<comment>$c$</comment>")
        for value in ("plain", "a < b & c", 'quote " here', "line\nbreak"):
            assert template.render_text(c=value) == serialize(
                template.render(c=value)
            )

    def test_attribute_hole_concatenation(self, wml_binding):
        template = Template(
            wml_binding, '<option value="/base/$d$">x</option>'
        )
        for value in ("audio", 'x"y', "a&b", "p<q"):
            assert template.render_text(d=value) == serialize(
                template.render(d=value)
            )

    def test_simple_content_lexicalization(self, po_binding):
        template = Template(po_binding, "<quantity>$q$</quantity>")
        assert template.render_text(q=7) == serialize(template.render(q=7))

    def test_element_hole(self, po_binding):
        item = Template(
            po_binding,
            '<item partNum="872-AA"><productName>Mower</productName>'
            "<quantity>1</quantity><USPrice>9.99</USPrice></item>",
        )
        items = Template(po_binding, "<items>$one:item$</items>")
        # Fresh subtrees per route: adopting a rendered element steals it
        # from its previous tree, so sharing one across renders is illegal
        # for an ``item+`` parent.
        assert items.render_text(one=item.render()) == serialize(
            items.render(one=item.render())
        )

    def test_mixed_content_with_element_hole(self, xhtml_binding):
        link = Template(
            xhtml_binding, '<a href="/log">log</a>'
        )
        template = Template(
            xhtml_binding, "<p>see <b>$w:text$</b> and $l:a$ now</p>"
        )
        fast = template.render_text(w="here", l=link.render())
        slow = serialize(template.render(w="here", l=link.render()))
        assert fast == slow

    def test_interpreted_twin_matches(self, po_binding):
        template = Template(
            po_binding, "<comment>$c$</comment>", compiled=False
        )
        assert template._render_text is None
        value = "via the interpreter < & >"
        assert template.render_text(c=value) == serialize(
            template.render(c=value)
        )

    def test_interpreted_function_directly(self, po_binding):
        template = Template(po_binding, "<comment>$c$</comment>")
        assert render_text_interpreted(
            template.checked, c="x & y"
        ) == template.render_text(c="x & y")


class TestErrorParity:
    """The fast path must fail exactly like the typed constructors."""

    def _both_errors(self, template, exception, **values):
        with pytest.raises(exception) as dom_error:
            serialize(template.render(**values))
        with pytest.raises(exception) as text_error:
            template.render_text(**values)
        assert str(text_error.value) == str(dom_error.value)

    def test_facet_violation_message_identical(self, po_binding):
        template = Template(po_binding, "<quantity>$q$</quantity>")
        self._both_errors(template, VdomTypeError, q=100)

    def test_attribute_pattern_violation(self, po_binding):
        template = Template(
            po_binding,
            '<item partNum="$pn$"><productName>x</productName>'
            "<quantity>1</quantity><USPrice>1.00</USPrice></item>",
        )
        self._both_errors(template, VdomTypeError, pn="bogus")

    def test_missing_hole_rejected(self, po_binding):
        # Compiled: keyword-only parameters reject it, same as render().
        template = Template(po_binding, "<comment>$c$</comment>")
        with pytest.raises(TypeError, match="required keyword-only"):
            template.render_text()
        # Interpreted: an explicit static-check error.
        interpreted = Template(
            po_binding, "<comment>$c$</comment>", compiled=False
        )
        with pytest.raises(PxmlStaticError, match="missing values"):
            interpreted.render_text()

    def test_unknown_hole_rejected(self, po_binding):
        template = Template(po_binding, "<comment>$c$</comment>")
        with pytest.raises(TypeError, match="unexpected keyword"):
            template.render_text(c="x", extra="y")
        interpreted = Template(
            po_binding, "<comment>$c$</comment>", compiled=False
        )
        with pytest.raises(PxmlStaticError, match="unknown holes"):
            interpreted.render_text(c="x", extra="y")

    def test_wrong_element_class_rejected(self, po_binding, po_factory):
        template = Template(po_binding, "<items>$one:item$</items>")
        with pytest.raises(PxmlStaticError, match="expects an instance"):
            template.render_text(one=po_factory.create_comment("nope"))


class TestValidationGating:
    def test_validate_on_mutate_off_skips_checks_on_both_routes(self):
        binding = bind(PURCHASE_ORDER_SCHEMA, validate_on_mutate=False)
        template = Template(binding, "<quantity>$q$</quantity>")
        # 100 violates maxExclusive, but checking is off — both routes
        # accept it and still agree on the bytes.
        assert template.render_text(q=100) == serialize(
            template.render(q=100)
        )

    def test_validate_on_mutate_on_is_the_default(self, po_binding):
        template = Template(po_binding, "<quantity>$q$</quantity>")
        with pytest.raises(VdomTypeError):
            template.render_text(q=100)


class TestRecordRoundTrip:
    def test_program_survives_record_round_trip(self, po_binding):
        template = Template(
            po_binding,
            '<item partNum="$pn$"><productName>$p$</productName>'
            "<quantity>$q$</quantity><USPrice>1.00</USPrice></item>",
        )
        program = template._segments
        record = program_to_record(program, po_binding)
        rebuilt = program_from_record(record, po_binding, program.hole_specs)
        values = {"pn": "872-AA", "p": "Mower & Sons", "q": 3}
        assert rebuilt.render(values, check=True) == program.render(
            values, check=True
        )

    def test_rebuilt_program_still_validates(self, po_binding):
        template = Template(po_binding, "<quantity>$q$</quantity>")
        program = template._segments
        rebuilt = program_from_record(
            program_to_record(program, po_binding),
            po_binding,
            program.hole_specs,
        )
        with pytest.raises(VdomTypeError, match="maxExclusive"):
            rebuilt.render({"q": 100}, check=True)


def _load_demo_templates():
    path = (
        pathlib.Path(__file__).resolve().parents[2]
        / "examples"
        / "render_text_demo.py"
    )
    spec = importlib.util.spec_from_file_location("render_text_demo", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.DEMO_TEMPLATES


class TestExampleCorpusEquivalence:
    """Acceptance sweep: examples/ templates plus randomized hole values."""

    def test_demo_templates_byte_identical(self):
        for schema, source, values in _load_demo_templates():
            binding = bind(schema)
            template = Template(binding, source)
            assert template.render_text(**values) == serialize(
                template.render(**values)
            ), source

    def test_randomized_hole_values(self, po_binding):
        rng = random.Random(20260805)
        alphabet = (
            "abc XYZ 0123 <>&\"' \t\n\r ]]> -- é漢 &amp; <tag attr=\"v\">"
        )
        template = Template(
            po_binding,
            "<shipTo country=\"US\"><name>$n$</name><street>$s$</street>"
            "<city>X</city><state>CA</state><zip>90952</zip></shipTo>",
        )
        for _ in range(50):
            values = {
                hole: "".join(
                    rng.choice(alphabet)
                    for _ in range(rng.randrange(0, 40))
                )
                for hole in ("n", "s")
            }
            assert template.render_text(**values) == serialize(
                template.render(**values)
            ), values


class TestFallbackAccounting:
    """``compile_segments`` swallows only ``_Unsupported`` — and counts it.

    The old blanket ``except Exception: return None`` turned compiler
    bugs into silent DOM fallbacks; now a real bug propagates, and every
    legitimate fallback is visible in ``repro.obs`` with its reason.
    """

    @pytest.fixture()
    def collecting(self):
        from repro import obs

        obs.enable(reset=True)
        yield obs
        obs.disable()
        obs.reset()

    def test_successful_compile_is_counted(self, po_binding, collecting):
        template = Template(po_binding, "<comment>$c$</comment>")
        assert compile_segments(template.checked) is not None
        counters = collecting.snapshot()["counters"]
        assert counters["pxml.segments{outcome=compiled}"] >= 1

    def test_unsupported_shape_counts_reason(self, collecting):
        binding = bind(parse_schema(FIXED_ELEMENT_SCHEMA))
        template = Template(
            binding, "<doc><version>1.0</version><body>$b$</body></doc>"
        )
        assert compile_segments(template.checked) is None
        counters = collecting.snapshot()["counters"]
        key = (
            "pxml.segments"
            "{outcome=fallback,reason=element-level fixed value}"
        )
        assert counters[key] >= 1

    def test_injected_unsupported_falls_back_counted(
        self, po_binding, collecting, monkeypatch
    ):
        from repro.pxml import segments as segments_module

        template = Template(po_binding, "<comment>$c$</comment>")

        def explode(self, element):
            raise segments_module._Unsupported("injected fault")

        monkeypatch.setattr(
            segments_module._SegmentBuilder, "element", explode
        )
        assert compile_segments(template.checked) is None
        counters = collecting.snapshot()["counters"]
        assert counters[
            "pxml.segments{outcome=fallback,reason=injected fault}"
        ] == 1

    def test_real_bugs_propagate(self, po_binding, monkeypatch):
        from repro.pxml import segments as segments_module

        template = Template(po_binding, "<comment>$c$</comment>")

        def explode(self, element):
            raise RuntimeError("builder bug")

        monkeypatch.setattr(
            segments_module._SegmentBuilder, "element", explode
        )
        with pytest.raises(RuntimeError, match="builder bug"):
            compile_segments(template.checked)
