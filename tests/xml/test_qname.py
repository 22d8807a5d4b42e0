"""Splitting qualified names."""

import pytest

from repro.errors import XmlSyntaxError
from repro.xml.qname import split_qname


class TestSplitQName:
    def test_unprefixed(self):
        assert split_qname("local") == (None, "local")

    def test_prefixed(self):
        assert split_qname("xsd:element") == ("xsd", "element")

    def test_bad_names(self):
        with pytest.raises(XmlSyntaxError):
            split_qname("a:b:c")
        with pytest.raises(XmlSyntaxError):
            split_qname(":x")
        with pytest.raises(XmlSyntaxError):
            split_qname("1x")
