"""The V-DOM runtime: typed construction, enforcement, rollback."""

import datetime
import decimal

import pytest

from repro.core import bind
from repro.core.vdom import TypedElement, VdomGroup, snake_case
from repro.dom import Attr, Comment, Element, ProcessingInstructionNode, serialize
from repro.errors import DomError, VdomStateError, VdomTypeError
from repro.ingest import parse_typed
from repro.xsd import SchemaValidator
from repro.schemas import PURCHASE_ORDER_DOCUMENT, PURCHASE_ORDER_SCHEMA


class TestSnakeCase:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("purchaseOrder", "purchase_order"),
            ("USPrice", "us_price"),
            ("shipTo", "ship_to"),
            ("partNum", "part_num"),
            ("a", "a"),
            ("class", "class_"),
        ],
    )
    def test_conversion(self, name, expected):
        assert snake_case(name) == expected


class TestTypedConstruction:
    def test_classes_extend_dom_element(self, po_binding):
        """The paper's core requirement: interfaces extend DOM Element."""
        cls = po_binding.element_class("purchaseOrder")
        assert issubclass(cls, TypedElement)
        assert issubclass(cls, Element)

    def test_simple_element_from_string(self, po_factory):
        name = po_factory.create_name("Alice")
        assert name.tag_name == "name"
        assert name.content == "Alice"

    def test_simple_element_from_python_value(self, po_factory):
        quantity = po_factory.create_quantity(5)
        assert quantity.value == 5
        zip_element = po_factory.create_zip(decimal.Decimal("90952"))
        assert zip_element.value == decimal.Decimal("90952")

    def test_attribute_from_python_value(self, po_factory, full_po):
        assert full_po.order_date == datetime.date(1999, 10, 20)

    def test_fixed_attribute_auto_filled(self, po_factory):
        ship_to = po_factory.create_ship_to(
            po_factory.create_name("x"),
            po_factory.create_street("x"),
            po_factory.create_city("x"),
            po_factory.create_state("x"),
            po_factory.create_zip("1"),
        )
        assert ship_to.get_attribute("country") == "US"

    def test_full_document_serializes_valid(self, po_binding, full_po):
        document = po_binding.document(full_po)
        validator = SchemaValidator(po_binding.schema)
        assert validator.validate(document) == []

    def test_serialization_roundtrip(self, po_binding, full_po):
        from repro.dom import parse_document

        text = serialize(po_binding.document(full_po))
        reparsed = parse_document(text)
        assert SchemaValidator(po_binding.schema).validate(reparsed) == []

    def test_none_children_skipped(self, po_factory):
        item = po_factory.create_item(
            po_factory.create_product_name("x"),
            po_factory.create_quantity(1),
            po_factory.create_us_price("1.0"),
            None,  # the optional comment is simply absent
            part_num="123-AB",
        )
        assert len(item.child_elements()) == 3

    def test_iterable_children_flattened(self, po_factory):
        items = po_factory.create_items(
            [
                po_factory.create_item(
                    po_factory.create_product_name("x"),
                    po_factory.create_quantity(1),
                    po_factory.create_us_price("1.0"),
                    part_num="123-AB",
                )
                for __ in range(3)
            ]
        )
        assert len(items.item_list) == 3


class TestConstructionRejections:
    def test_wrong_child_order(self, po_factory):
        with pytest.raises(VdomTypeError, match="expected <name>"):
            po_factory.create_ship_to(
                po_factory.create_street("s"),
                po_factory.create_name("n"),
                po_factory.create_city("c"),
                po_factory.create_state("st"),
                po_factory.create_zip("1"),
            )

    def test_incomplete_content(self, po_factory):
        with pytest.raises(VdomTypeError, match="incomplete"):
            po_factory.create_ship_to(po_factory.create_name("n"))

    def test_facet_violation(self, po_factory):
        with pytest.raises(VdomTypeError, match="maxExclusive"):
            po_factory.create_quantity(100)

    def test_pattern_violation_on_attribute(self, po_factory):
        with pytest.raises(VdomTypeError, match="pattern"):
            po_factory.create_item(
                po_factory.create_product_name("x"),
                po_factory.create_quantity(1),
                po_factory.create_us_price("1.0"),
                part_num="no-good",
            )

    def test_missing_required_attribute(self, po_factory):
        with pytest.raises(VdomTypeError, match="required attribute"):
            po_factory.create_item(
                po_factory.create_product_name("x"),
                po_factory.create_quantity(1),
                po_factory.create_us_price("1.0"),
            )

    def test_undeclared_attribute(self, po_factory):
        with pytest.raises(VdomTypeError, match="no attribute"):
            po_factory.create_comment("x", color="red")

    def test_fixed_attribute_conflict(self, po_factory):
        with pytest.raises(VdomTypeError, match="fixed"):
            po_factory.create_ship_to(
                po_factory.create_name("n"),
                po_factory.create_street("s"),
                po_factory.create_city("c"),
                po_factory.create_state("st"),
                po_factory.create_zip("1"),
                country="DE",
            )

    def test_untyped_dom_element_rejected(self, po_factory, po_binding):
        from repro.dom import Document

        plain = Document().create_element("name")
        with pytest.raises(VdomTypeError, match="typed"):
            po_factory.create_ship_to(plain)

    def test_text_in_element_only_content(self, po_factory):
        with pytest.raises(VdomTypeError):
            po_factory.create_items("loose text")

    def test_child_from_wrong_declaration(self, po_binding, wml_binding):
        """A 'name'-named element from another schema is rejected."""
        foreign_binding = bind(PURCHASE_ORDER_SCHEMA)
        foreign_name = foreign_binding.factory.create_name("evil")
        f = po_binding.factory
        with pytest.raises(VdomTypeError, match="different declaration"):
            f.create_ship_to(
                foreign_name,
                f.create_street("s"),
                f.create_city("c"),
                f.create_state("st"),
                f.create_zip("1"),
            )


class TestMutation:
    def test_add_returns_self_for_chaining(self, po_factory):
        items = po_factory.create_items()
        item = po_factory.create_item(
            po_factory.create_product_name("x"),
            po_factory.create_quantity(1),
            po_factory.create_us_price("1.0"),
            part_num="123-AB",
        )
        assert items.add(item) is items
        assert len(items.item_list) == 1

    def test_invalid_add_rolls_back(self, po_factory):
        items = po_factory.create_items()
        with pytest.raises(VdomTypeError):
            items.add(po_factory.create_comment("wrong"))
        assert len(items.child_elements()) == 0

    def test_invalid_attribute_set_rolls_back(self, full_po):
        with pytest.raises(VdomTypeError):
            full_po.set_attribute("orderDate", "not a date")
        assert full_po.get_attribute("orderDate") == "1999-10-20"

    def test_remove_required_child_rolls_back(self, full_po):
        ship_to = full_po.ship_to
        with pytest.raises(VdomTypeError):
            full_po.remove_child(ship_to)
        assert full_po.ship_to is ship_to
        assert ship_to.parent_node is full_po

    def test_refused_attribute_removal_keeps_its_owner(self, full_po):
        item = full_po.items.item_list[0]
        attr = item.get_attribute_node("partNum")
        with pytest.raises(VdomTypeError, match="required attribute 'partNum'"):
            item.remove_attribute("partNum")
        assert item.get_attribute_node("partNum") is attr
        assert attr.owner_element is item

    def test_attribute_node_mutations_are_guarded(self, full_po):
        item = full_po.items.item_list[0]
        part_num = item.get_attribute_node("partNum")
        bogus = Attr("bogus", "x")
        with pytest.raises(VdomTypeError, match="required attribute 'partNum'"):
            item.remove_attribute_node(part_num)
        with pytest.raises(VdomTypeError, match="'bogus' is not declared"):
            item.set_attribute_node(bogus)
        with pytest.raises(VdomTypeError, match="required attribute 'partNum'"):
            item.attributes.remove_named_item("partNum")
        with pytest.raises(VdomTypeError, match="'bogus' is not declared"):
            item.attributes.set_named_item(bogus)
        with pytest.raises(VdomTypeError, match="does not match pattern"):
            item.set_attribute_node(Attr("partNum", "not-a-part"))
        # Each refusal rolled back: the element is still valid as it was.
        item.check_valid()
        assert item.get_attribute_node("partNum") is part_num
        assert part_num.owner_element is item
        assert bogus.owner_element is None
        assert item.attributes.names() == ["partNum"]

    def test_foreign_attribute_node_is_not_removed(self, full_po):
        """The guard reaches the generic identity check: an equal node
        that is not the element's own is NOT_FOUND, and nothing moves."""
        own = full_po.get_attribute_node("orderDate")
        with pytest.raises(
            DomError, match="'orderDate' is not an attribute node of <purchaseOrder>"
        ):
            full_po.remove_attribute_node(Attr("orderDate", "1999-10-20"))
        assert full_po.get_attribute_node("orderDate") is own
        assert own.owner_element is full_po
        assert full_po.order_date == datetime.date(1999, 10, 20)
        full_po.check_valid()

    @pytest.mark.parametrize("through", ["element", "view"])
    def test_a_valid_attribute_node_replaces(self, full_po, through):
        item = full_po.items.item_list[0]
        old = item.get_attribute_node("partNum")
        new = Attr("partNum", "123-XY")
        if through == "element":
            assert item.set_attribute_node(new) is old
        else:
            assert item.attributes.set_named_item(new) is old
        assert item.part_num == "123-XY"
        assert new.owner_element is item and old.owner_element is None
        item.check_valid()

    def test_remove_optional_child_succeeds(self, full_po):
        comment = full_po.comment
        assert comment is not None
        full_po.remove_child(comment)
        assert full_po.comment is None

    def test_replace_child_checked(self, po_factory, full_po):
        new_ship_to = po_factory.create_ship_to(
            po_factory.create_name("New"),
            po_factory.create_street("s"),
            po_factory.create_city("c"),
            po_factory.create_state("st"),
            po_factory.create_zip("2"),
        )
        full_po.replace_child(new_ship_to, full_po.ship_to)
        assert full_po.ship_to.name.content == "New"

    def test_property_setter_replaces(self, po_factory, full_po):
        full_po.comment = po_factory.create_comment("updated")
        assert full_po.comment.content == "updated"

    def test_attribute_property_setter(self, full_po):
        full_po.order_date = datetime.date(2000, 1, 1)
        assert full_po.get_attribute("orderDate") == "2000-01-01"

    def test_attribute_property_delete_via_none(self, full_po):
        full_po.order_date = None
        assert not full_po.has_attribute("orderDate")
        full_po.order_date = "1999-10-20"


class TestAdoptionSafety:
    """Re-parenting must not invalidate the source tree either."""

    def test_stealing_required_child_rejected(self, po_factory, full_po):
        ship_to = full_po.ship_to
        other_items = po_factory.create_items()
        # shipTo is not allowed in items anyway; use a fresh purchase
        # order slot to attempt the theft:
        with pytest.raises(VdomTypeError, match="would invalidate"):
            po_factory.create_purchase_order(
                ship_to,  # stolen from full_po!
                po_factory.create_bill_to(
                    po_factory.create_name("n"),
                    po_factory.create_street("s"),
                    po_factory.create_city("c"),
                    po_factory.create_state("st"),
                    po_factory.create_zip("1"),
                ),
                other_items,
            )
        # The source tree kept its shipTo and stays valid.
        assert full_po.ship_to is ship_to
        full_po.check_valid_deep()

    def test_stealing_optional_child_allowed(self, po_factory, full_po):
        comment = full_po.comment
        items = full_po.items.item_list
        item_without_comment = items[1]
        # The item's content model is ...USPrice, comment?, shipDate? —
        # the moved comment must land before the shipDate.
        item_without_comment.insert_before(
            comment, item_without_comment.ship_date
        )
        assert full_po.comment is None
        assert item_without_comment.comment is comment
        full_po.check_valid_deep()

    def test_deferred_binding_allows_theft(self):
        binding = bind(PURCHASE_ORDER_SCHEMA, validate_on_mutate=False)
        factory = binding.factory
        ship_to = factory.create_ship_to(
            factory.create_name("n"), factory.create_street("s"),
            factory.create_city("c"), factory.create_state("st"),
            factory.create_zip("1"),
        )
        po = factory.create_purchase_order(ship_to)
        second = factory.create_purchase_order(ship_to)
        assert ship_to.parent_node is second
        with pytest.raises(VdomTypeError):
            po.check_valid()  # deferred check still finds the hole


class TestCloning:
    """A clone is built by its source's own class, so the constructor's
    checks hold for it and it keeps the generated API."""

    @staticmethod
    def classes(node):
        return [type(node)] + [
            kind for child in node.child_nodes for kind in TestCloning.classes(child)
        ]

    def test_deep_clone_keeps_every_class(self, po_binding):
        po = parse_typed(po_binding, PURCHASE_ORDER_DOCUMENT)
        # Nodes the constructor does not take, and a default taken off.
        ship_to = po.ship_to
        ship_to.remove_attribute("country")
        ship_to.insert_before(Comment(" note "), ship_to.street)
        ship_to.append_child(ProcessingInstructionNode("app", "x"))
        clone = po.clone_node(True)
        assert clone is not po
        assert self.classes(clone) == self.classes(po)
        assert type(clone).__name__ == "PurchaseOrderElement"
        assert serialize(clone) == serialize(po)
        assert not clone.ship_to.has_attribute("country")
        clone.check_valid_deep()

    def test_shallow_clone_of_a_simple_element_is_typed(self, po_binding):
        po = parse_typed(po_binding, PURCHASE_ORDER_DOCUMENT)
        clone = po.comment.clone_node()
        assert type(clone) is po_binding.element_class("comment")
        assert serialize(clone) == "<comment/>"

    def test_shallow_clone_of_an_item_needs_its_children(self, po_binding):
        po = parse_typed(po_binding, PURCHASE_ORDER_DOCUMENT)
        with pytest.raises(VdomTypeError, match="incomplete"):
            po.items.item_list[0].clone_node()


class TestTypedAccess:
    def test_child_properties(self, full_po):
        assert full_po.ship_to.tag_name == "shipTo"
        assert full_po.items.tag_name == "items"
        assert full_po.ship_to.name.content == "Alice Smith"

    def test_list_property(self, full_po):
        items = full_po.items.item_list
        assert [item.product_name.content for item in items] == [
            "Lawnmower",
            "Baby Monitor",
        ]

    def test_typed_attribute_values(self, full_po):
        item = full_po.items.item_list[0]
        assert item.part_num == "872-AA"
        assert item.us_price.value == decimal.Decimal("148.95")
        assert item.quantity.value == 1

    def test_value_on_complex_element_raises(self, full_po):
        with pytest.raises(VdomStateError):
            full_po.items.value

    def test_deep_check(self, full_po):
        full_po.check_valid_deep()


class TestAttributeDefaults:
    SCHEMA = """\
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="widget" type="WidgetType"/>
  <xsd:complexType name="WidgetType">
    <xsd:sequence/>
    <xsd:attribute name="color" type="xsd:string" default="blue"/>
    <xsd:attribute name="size" type="xsd:int"/>
  </xsd:complexType>
</xsd:schema>
"""

    def test_default_auto_filled(self):
        binding = bind(self.SCHEMA)
        widget = binding.factory.create_widget()
        assert widget.get_attribute("color") == "blue"

    def test_default_overridable(self):
        binding = bind(self.SCHEMA)
        widget = binding.factory.create_widget(color="red")
        assert widget.get_attribute("color") == "red"

    def test_xml_name_accepted_as_kwarg(self, po_factory):
        item = po_factory.create_item(
            po_factory.create_product_name("x"),
            po_factory.create_quantity(1),
            po_factory.create_us_price("1.0"),
            partNum="123-AB",  # XML name instead of part_num
        )
        assert item.part_num == "123-AB"

    def test_optional_typed_attribute(self):
        binding = bind(self.SCHEMA)
        widget = binding.factory.create_widget(size=5)
        assert widget.size == 5
        bare = binding.factory.create_widget()
        assert bare.size is None


class TestBindingLookups:
    def test_element_class_lookup(self, po_binding):
        assert po_binding.element_class("comment").__name__ == "CommentElement"

    def test_unknown_element_class(self, po_binding):
        with pytest.raises(VdomStateError):
            po_binding.element_class("ghost")

    def test_class_named(self, po_binding):
        cls = po_binding.class_named("PurchaseOrderElement")
        assert cls is po_binding.element_class("purchaseOrder")

    def test_document_requires_global_root(self, po_binding, po_factory):
        with pytest.raises(VdomTypeError):
            po_binding.document(po_factory.create_name("local"))

    def test_factory_names_are_stable(self, po_binding):
        assert "create_purchase_order" in po_binding.factory_names()
        assert "create_us_price" in po_binding.factory_names()

    def test_binding_idl_convenience(self, po_binding):
        idl = po_binding.idl()
        assert "interface purchaseOrderElement {" in idl


class TestChoiceGroups:
    def test_marker_class_isinstance(self, choice_binding):
        factory = choice_binding.factory
        sing = factory.create_sing_addr(
            factory.create_name("n"),
            factory.create_street("s"),
            factory.create_city("c"),
            factory.create_state("st"),
            factory.create_zip("1"),
        )
        group = choice_binding.class_named("PurchaseOrderTypeCC1Group")
        assert issubclass(group, VdomGroup)
        assert isinstance(sing, group)

    def test_either_alternative_accepted(self, choice_binding):
        factory = choice_binding.factory
        sing = factory.create_sing_addr(
            factory.create_name("n"), factory.create_street("s"),
            factory.create_city("c"), factory.create_state("st"),
            factory.create_zip("1"),
        )
        po = factory.create_purchase_order(sing, factory.create_items())
        assert po.purchase_order_type_cc1 is sing

    def test_wrong_element_in_choice_rejected(self, choice_binding):
        factory = choice_binding.factory
        with pytest.raises(VdomTypeError):
            factory.create_purchase_order(
                factory.create_comment("not an address"),
                factory.create_items(),
            )


class TestSubstitutionGroups:
    def test_member_subclasses_head(self, subst_binding):
        head = subst_binding.element_class("comment")
        member = subst_binding.element_class("shipComment")
        assert issubclass(member, head)

    def test_member_usable_for_head(self, subst_binding):
        factory = subst_binding.factory
        notes = factory.create_notes(
            factory.create_ship_comment("by sea"),
            factory.create_comment("plain"),
        )
        assert len(notes.child_elements()) == 2


class TestExtension:
    def test_inherited_properties_visible(self, extension_binding):
        factory = extension_binding.factory
        entry = factory.create_entry(
            factory.create_name("n"),
            factory.create_street("s"),
            factory.create_city("c"),
        )
        assert entry.name.content == "n"
        assert entry.city.content == "c"


class TestDeferredValidationMode:
    def test_deferred_mode_allows_intermediate_states(self):
        binding = bind(PURCHASE_ORDER_SCHEMA, validate_on_mutate=False)
        factory = binding.factory
        # An incomplete shipTo is representable in deferred mode...
        partial = factory.create_ship_to(factory.create_name("n"))
        # ...but an explicit check still finds the problem.
        with pytest.raises(VdomTypeError):
            partial.check_valid()
