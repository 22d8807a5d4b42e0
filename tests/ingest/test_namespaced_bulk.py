"""Namespaced schemas through the bulk/pool lanes and the typed-layer
feature boundary.

The typed V-DOM layer matches by local name, so namespaced schemas bind
(interfaces, IDL, pool workers) but route instance validation through
the streaming validator; ``from_dom``/fused/table ingest refuse with a
clear :class:`UnsupportedFeatureError` instead of silently matching the
wrong names.  Lazy bulk mode sniffs instance roots and binds a
per-subset artifact, falling back to the full bind when any document is
unsniffable.
"""

import os

import pytest

from repro.core.vdom import bind
from repro.errors import UnsupportedFeatureError
from repro.ingest import validate_files
from repro.ingest.fused import fused_parse
from repro.ingest.table_driven import table_parse

NS_SCHEMA = """
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema"
            xmlns:po="urn:ns-po"
            targetNamespace="urn:ns-po"
            elementFormDefault="qualified">
  <xsd:element name="order">
    <xsd:complexType>
      <xsd:sequence>
        <xsd:element name="sku" type="xsd:NMTOKEN" maxOccurs="unbounded"/>
      </xsd:sequence>
    </xsd:complexType>
  </xsd:element>
  <xsd:element name="refund">
    <xsd:complexType>
      <xsd:sequence>
        <xsd:element name="sku" type="xsd:NMTOKEN"/>
      </xsd:sequence>
    </xsd:complexType>
  </xsd:element>
</xsd:schema>
"""

VALID = '<o xmlns="urn:ns-po"><sku>A1</sku></o>'.replace("<o ", "<order ").replace(
    "</o>", "</order>"
)
INVALID = '<order xmlns="urn:ns-po"><bogus/></order>'


class TestTypedLayerBoundary:
    def test_bind_succeeds_and_exposes_interfaces(self):
        binding = bind(NS_SCHEMA)
        assert binding.schema.uses_namespaces
        assert "{urn:ns-po}order" in binding.schema.elements
        assert binding.idl()

    def test_from_dom_refuses_namespaced_schemas(self):
        binding = bind(NS_SCHEMA)
        with pytest.raises(UnsupportedFeatureError) as excinfo:
            binding.from_dom(VALID)
        assert "streaming" in str(excinfo.value)

    def test_fused_and_table_ingest_refuse_namespaced_schemas(self):
        binding = bind(NS_SCHEMA)
        with pytest.raises(UnsupportedFeatureError):
            fused_parse(binding, VALID)
        with pytest.raises(UnsupportedFeatureError):
            table_parse(binding, VALID)


def _write_corpus(tmp_path, documents):
    paths = []
    for name, text in documents:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        paths.append(path)
    return paths


class TestNamespacedBulk:
    def test_bulk_routes_through_streaming(self, tmp_path):
        paths = _write_corpus(
            tmp_path, [("good.xml", VALID), ("bad.xml", INVALID)]
        )
        report = validate_files(NS_SCHEMA, paths)
        summary = report["summary"]
        assert summary["documents"] == 2
        assert summary["valid"] == 1
        assert summary["invalid"] == 1
        # Streaming verdicts are neither fused nor fallback.
        assert summary["fused"] == 0
        by_name = {
            os.path.basename(record["path"]): record
            for record in report["files"]
        }
        assert by_name["good.xml"]["valid"] is True
        assert by_name["good.xml"]["fused"] is None
        assert "{urn:ns-po}" in by_name["bad.xml"]["error"]

    def test_bulk_parallel_agrees_with_inline(self, tmp_path):
        paths = _write_corpus(
            tmp_path, [("good.xml", VALID), ("bad.xml", INVALID)]
        )
        inline = validate_files(NS_SCHEMA, paths)
        parallel = validate_files(NS_SCHEMA, paths, jobs=2)
        strip = lambda report: [
            {k: r[k] for k in ("valid", "error", "error_type")}
            for r in sorted(report["files"], key=lambda r: r["path"])
        ]
        assert strip(inline) == strip(parallel)


class TestLazyBulk:
    def test_lazy_single_root_subset(self, tmp_path):
        from repro import obs

        paths = _write_corpus(
            tmp_path,
            [("a.xml", VALID), ("b.xml", VALID), ("bad.xml", INVALID)],
        )
        obs.reset()
        obs.enable()
        try:
            report = validate_files(NS_SCHEMA, paths, lazy=True)
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
            obs.reset()
        summary = report["summary"]
        assert summary["valid"] == 2
        assert summary["invalid"] == 1
        assert counters.get("ingest.bulk.lazy{outcome=subset,roots=1}") == 1
        # The report's obs section names each document's route.
        assert report["obs"]["counters"]["xsd.stream{lane=turbo}"] == 3

    def test_lazy_verdicts_match_full_bind(self, tmp_path):
        paths = _write_corpus(
            tmp_path, [("good.xml", VALID), ("bad.xml", INVALID)]
        )
        full = validate_files(NS_SCHEMA, paths)
        lazy = validate_files(NS_SCHEMA, paths, lazy=True)
        strip = lambda report: [
            {k: r[k] for k in ("valid", "error", "error_type")}
            for r in sorted(report["files"], key=lambda r: r["path"])
        ]
        assert strip(full) == strip(lazy)

    def test_unsniffable_document_falls_back_to_full_bind(self, tmp_path):
        from repro import obs

        paths = _write_corpus(
            tmp_path,
            [("good.xml", VALID), ("junk.xml", "not xml at all")],
        )
        obs.reset()
        obs.enable()
        try:
            report = validate_files(NS_SCHEMA, paths, lazy=True)
            lazy_counters = [
                key
                for key in obs.snapshot()["counters"]
                if key.startswith("ingest.bulk.lazy")
            ]
        finally:
            obs.disable()
            obs.reset()
        assert lazy_counters
        assert all("outcome=full" in key for key in lazy_counters)
        assert report["summary"]["valid"] == 1
        assert report["summary"]["invalid"] == 1
