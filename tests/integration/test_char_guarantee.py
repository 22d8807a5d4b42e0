"""Checked templates and V-DOM write only ``Char`` text.

XML 1.0 production [2] names the characters a document may hold, and
XML Schema Part 2 (§3.2.1) defines the value space of ``string`` as
finite sequences of them.  A value outside it — a C0 control, U+FFFE,
a lone surrogate — is refused where it enters, with the parser's words
for it, instead of being written out as markup that ``parse_document``
rejects:

* by the ``string`` kernel, so a typed hole, a typed attribute and a
  simple-typed V-DOM element refuse it;
* by free text, which no simple type checks: a P-XML text or attribute
  run with no simple type, and V-DOM mixed or ``anyType`` text, however
  it is added;
* by the serve tier, which answers 422.

The table routes of the walker and of typed ingest still skip plain
``xs:string`` text (``SimpleType.accepts_everything``): parsed text is
already ``Char``-clean.
"""

import asyncio
import re

import pytest

from repro import bind
from repro.dom import parse_document
from repro.dom.charnodes import Text
from repro.dom.serialize import serialize
from repro.errors import VdomTypeError, XmlSyntaxError
from repro.pxml import Template
from repro.schemas import WML_SCHEMA
from repro.serve import RouteTable
from tests.serve.test_server import SHIP_TO, get, running

#: a C0 control, vertical tab, a noncharacter and a lone surrogate,
#: each under the code point it carries
PROBES = {
    "U+0001": "a\x01b",
    "U+000B": "a\x0bb",
    "U+FFFE": "a\ufffeb",
    "U+D800": "a\ud800b",  # a lone surrogate
}


@pytest.fixture(params=sorted(PROBES))
def probe(request):
    """``(code, value)``: a value holding one character outside Char;
    *code* is escaped for ``pytest.raises(match=...)``."""
    return re.escape(request.param), PROBES[request.param]


def test_the_parser_refuses_each_probe(probe):
    code, value = probe
    with pytest.raises(XmlSyntaxError, match=f"illegal character {code}"):
        parse_document(f"<comment>{value}</comment>")


class TestTypedText:
    """``comment`` is an ``xs:string`` element of the purchase order."""

    def test_render_text_refuses(self, po_binding, probe):
        code, value = probe
        template = Template(po_binding, "<comment>$c$</comment>")
        with pytest.raises(
            VdomTypeError, match=f"^content of <comment>: illegal character {code}$"
        ):
            template.render_text(c=value)

    def test_render_refuses(self, po_binding, probe):
        code, value = probe
        template = Template(po_binding, "<comment>$c$</comment>")
        with pytest.raises(
            VdomTypeError, match=f"^content of <comment>: illegal character {code}$"
        ):
            serialize(template.render(c=value))

    def test_factory_refuses(self, po_factory, probe):
        code, value = probe
        with pytest.raises(
            VdomTypeError, match=f"^content of <comment>: illegal character {code}$"
        ):
            po_factory.create_comment(value)

    def test_char_text_still_renders_and_parses(self, po_binding):
        value = "tab\there, \xe9, \U0001d11e and U+FFFD \ufffd"
        template = Template(po_binding, "<comment>$c$</comment>")
        text = template.render_text(c=value)
        assert text == serialize(template.render(c=value))
        assert parse_document(text).document_element.text_content == value


class TestFreeText:
    """WML's ``option`` has mixed content, an ``xs:string`` ``value``
    and an ``xs:anyURI`` ``onpick``."""

    def test_mixed_content_hole_refuses_on_both_routes(self, wml_binding, probe):
        code, value = probe
        template = Template(wml_binding, '<option value="p">$name:text$</option>')
        message = f"^content of <option>: illegal character {code}$"
        with pytest.raises(VdomTypeError, match=message):
            template.render_text(name=value)
        with pytest.raises(VdomTypeError, match=message):
            template.render(name=value)

    @pytest.mark.parametrize("attribute", ["value", "onpick"])
    def test_attribute_hole_refuses_on_both_routes(
        self, wml_binding, probe, attribute
    ):
        code, value = probe
        template = Template(wml_binding, f'<option {attribute}="$v$">x</option>')
        message = f"^attribute '{attribute}' of <option>: illegal character {code}$"
        with pytest.raises(VdomTypeError, match=message):
            template.render_text(v=value)
        with pytest.raises(VdomTypeError, match=message):
            template.render(v=value)

    def test_mixed_content_construction_refuses(self, wml_binding, probe):
        code, value = probe
        factory = wml_binding.factory
        with pytest.raises(
            VdomTypeError, match=f"^content of <option>: illegal character {code}$"
        ):
            factory.create_option(value, value="p")
        option = factory.create_option("x", value="p")
        with pytest.raises(VdomTypeError, match="illegal character"):
            option.add(value)
        assert option.text_content == "x"

    @pytest.mark.parametrize("mutation", ["append", "insert", "replace"])
    def test_mixed_content_text_node_refuses(self, wml_binding, probe, mutation):
        code, value = probe
        option = wml_binding.factory.create_option("x", value="p")
        node = Text(value, None)
        with pytest.raises(
            VdomTypeError, match=f"^content of <option>: illegal character {code}$"
        ):
            if mutation == "append":
                option.append_child(node)
            elif mutation == "insert":
                option.insert_before(node, option.first_child)
            else:
                option.replace_child(node, option.first_child)
        assert serialize(option) == '<option value="p">x</option>'

    def test_any_type_text_refuses(self, probe):
        code, value = probe
        binding = bind(ANY_TYPE_SCHEMA)
        message = f"^content of <any>: illegal character {code}$"
        with pytest.raises(VdomTypeError, match=message):
            binding.factory.create_any(value)
        element = binding.factory.create_any("x")
        with pytest.raises(VdomTypeError, match=message):
            element.append_child(Text(value, None))
        assert serialize(element) == "<any>x</any>"

    def test_unchecked_binding_defers_to_check_valid(self, probe):
        """With ``validate_on_mutate=False`` free text is checked where
        every other constraint is: by an explicit ``check_valid``."""
        code, value = probe
        option = bind(WML_SCHEMA, validate_on_mutate=False).factory.create_option(
            value, value="p"
        )
        with pytest.raises(VdomTypeError, match=f"illegal character {code}$"):
            option.check_valid()


#: an element with no type is of ``anyType``
ANY_TYPE_SCHEMA = """\
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="any"/>
</xs:schema>
"""


class TestServe:
    """A page whose hole value holds a non-Char character is refused
    whole.  A query string cannot carry a lone surrogate: ``unquote``
    turns ill-formed UTF-8 into U+FFFD, which is a Char."""

    @pytest.mark.parametrize(
        "quoted, code",
        [("a%01b", "U+0001"), ("a%0Bb", "U+000B"), ("a%EF%BF%BEb", "U+FFFE")],
    )
    def test_a_non_char_hole_value_gets_422(self, po_binding, quoted, code):
        routes = RouteTable()
        routes.add_template("/ship_to", Template(po_binding, SHIP_TO))

        async def scenario():
            async with running(routes) as server:
                return await get(server.port, f"/ship_to?name={quoted}")

        status, _headers, body = asyncio.run(scenario())
        assert status == 422
        assert f"content of <name>: illegal character {code}".encode() in body
