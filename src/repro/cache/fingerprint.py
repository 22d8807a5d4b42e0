"""Stable fingerprints keying compiled artifacts.

A fingerprint must change whenever *anything* that shaped the artifact
changes: the schema (or template/page) source text, the compilation
options, the on-disk artifact format, the library version that produced
it, and the interpreter that will unpickle it.  All of those are hashed
together, so invalidation is purely content-addressed — a stale entry is
simply never looked up again and is eventually pruned.
"""

from __future__ import annotations

import hashlib
import platform
import sys
from typing import Any

#: Bump whenever the pickled artifact layout changes incompatibly.
#: 2: template records gained ``text_source`` + ``segments`` (the
#: render-to-text fast path).
#: 3: ``Location`` and the parse events grew ``__slots__``;
#: ``ComplexType`` gained the attribute-use memo field.
#: 4: bindings ship prewarmed flat DFA transition tables
#: (``Schema._table_cache`` of ``DfaTable``) next to the object DFAs.
#: 5: schemas are namespace-aware — global maps keyed by expanded
#: (Clark) names, declarations carry ``target_namespace``, schemas
#: record ``related_documents`` (include/import manifest) and
#: ``subset_roots`` (lazy per-subset binding artifacts).
#: 6: a template's generated ``text_source`` takes its hole values as one
#: mapping, ``render_text(values)``, instead of one keyword per hole.
#: 7: every run of a generated ``text_source`` calls its checker: text
#: holes with no simple type (mixed or ``anyType`` content) are checked
#: for characters outside XML's ``Char``, so a format-6 source, which
#: wrote them unchecked, must not be replayed.
#: 8: an empty ``fixed`` or ``default`` value (``fixed=""``) is kept as a
#: constraint; a format-7 schema artifact holds ``None`` for it.
CACHE_FORMAT_VERSION = 8


def _library_version() -> str:
    # Imported lazily: ``repro.cache`` loads before ``repro.__version__``
    # is assigned when the package itself is being imported.
    try:
        import repro

        return getattr(repro, "__version__", "unversioned")
    except ImportError:  # pragma: no cover - only during partial init
        return "unversioned"


def environment_tag() -> str:
    """The part of every fingerprint tied to this process's toolchain."""
    return "|".join(
        (
            f"format={CACHE_FORMAT_VERSION}",
            f"python={sys.version_info.major}.{sys.version_info.minor}",
            f"impl={platform.python_implementation()}",
            f"repro={_library_version()}",
            f"pickle={__import__('pickle').HIGHEST_PROTOCOL}",
        )
    )


def fingerprint(kind: str, source: str, **options: Any) -> str:
    """Content hash for one artifact.

    ``kind`` partitions the key space ("binding", "schema", "template",
    "serverpage"); ``source`` is the exact input text; ``options`` are
    the compilation knobs that change the output (choice strategy,
    naming scheme, ...).  Option values are reduced to ``repr`` — callers
    pass strings/enum values, never live objects.
    """
    hasher = hashlib.sha256()
    hasher.update(environment_tag().encode("utf-8"))
    hasher.update(b"\x00")
    hasher.update(kind.encode("utf-8"))
    hasher.update(b"\x00")
    hasher.update(source.encode("utf-8"))
    for name in sorted(options):
        hasher.update(b"\x00")
        hasher.update(name.encode("utf-8"))
        hasher.update(b"=")
        hasher.update(repr(options[name]).encode("utf-8"))
    return hasher.hexdigest()


def combine(base_fingerprint: str, kind: str, source: str, **options: Any) -> str:
    """Fingerprint an artifact derived from an already-fingerprinted one.

    Templates and server pages compile *against* a schema binding; their
    keys chain off the binding's fingerprint so a schema edit invalidates
    every downstream template artifact automatically.
    """
    return fingerprint(kind, source, _base=base_fingerprint, **options)
