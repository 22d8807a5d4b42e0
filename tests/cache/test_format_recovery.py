"""Cache format versioning: entries written by an older format are never
served — the fingerprint changes, so a current reader simply recompiles
past a directory full of v4 artifacts."""

import importlib

from repro.cache.fingerprint import CACHE_FORMAT_VERSION, fingerprint

fingerprint_module = importlib.import_module("repro.cache.fingerprint")
from repro.cache.manager import ReproCache

SCHEMA = """
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="root">
    <xsd:complexType>
      <xsd:sequence>
        <xsd:element name="item" type="xsd:string" maxOccurs="unbounded"/>
      </xsd:sequence>
    </xsd:complexType>
  </xsd:element>
</xsd:schema>
"""


def test_format_version_is_eight():
    # 6: the generated ``render_text`` takes one mapping of hole values.
    # 7: it checks every run, untyped text holes for ``Char`` included.
    # 8: schema artifacts keep an empty ``fixed`` or ``default`` value.
    assert CACHE_FORMAT_VERSION == 8


def test_fingerprint_changes_with_format_version(monkeypatch):
    before = fingerprint("binding", SCHEMA)
    monkeypatch.setattr(fingerprint_module, "CACHE_FORMAT_VERSION", 4)
    assert fingerprint("binding", SCHEMA) != before


def test_v4_entries_are_invisible_to_a_v5_reader(tmp_path, monkeypatch):
    """A directory populated by a v4 writer neither satisfies nor breaks
    a v5 reader: the stale entry is never looked up, the binding is
    recompiled, and a second v5 cache then starts warm."""
    with monkeypatch.context() as patch:
        patch.setattr(fingerprint_module, "CACHE_FORMAT_VERSION", 4)
        stale_writer = ReproCache(tmp_path)
        stale_writer.bind(SCHEMA)
        assert stale_writer.stats.stores >= 1

    fresh = ReproCache(tmp_path)
    binding = fresh.bind(SCHEMA)
    assert fresh.stats.misses >= 1
    root = binding.factory.create_root(binding.factory.create_item("x"))
    assert root.item_list[0].content == "x"

    warm = ReproCache(tmp_path)
    warm.bind(SCHEMA)
    assert warm.stats.misses == 0
    assert warm.stats.hits >= 1


def test_lazy_roots_key_separate_entries(tmp_path):
    cache = ReproCache(tmp_path)
    full = cache.bind(SCHEMA)
    lazy = cache.bind(SCHEMA, lazy_roots=("root",))
    assert full is not lazy
    assert lazy.schema.subset_roots == ("root",)
    assert full.schema.subset_roots == ()

    # Each variant round-trips from disk under its own key.
    rewarmed = ReproCache(tmp_path)
    assert rewarmed.bind(SCHEMA, lazy_roots=("root",)).schema.subset_roots == (
        "root",
    )
    assert rewarmed.stats.misses == 0
