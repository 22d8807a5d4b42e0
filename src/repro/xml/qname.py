"""Namespace names and qualified-name splitting (Namespaces in XML 1.0).

The paper's schemas use the ``xsd:`` prefix for the schema namespace and
unprefixed names for the target language.  This module holds the
namespace URIs and the name check the readers share; the readers (the
schema parser and the validators) resolve prefixes themselves.
"""

from __future__ import annotations

from repro.errors import XmlSyntaxError
from repro.xml.chars import is_ncname

XML_NAMESPACE = "http://www.w3.org/XML/1998/namespace"
XSD_NAMESPACE = "http://www.w3.org/2001/XMLSchema"
XSI_NAMESPACE = "http://www.w3.org/2001/XMLSchema-instance"


def split_qname(name: str) -> tuple[str | None, str]:
    """Split ``prefix:local`` into its parts, checking both are NCNames."""
    prefix, colon, local = name.partition(":")
    if not colon:
        if not is_ncname(name):
            raise XmlSyntaxError(f"'{name}' is not a valid unprefixed name")
        return None, name
    if not is_ncname(prefix) or not is_ncname(local):
        raise XmlSyntaxError(f"'{name}' is not a valid qualified name")
    return prefix, local
