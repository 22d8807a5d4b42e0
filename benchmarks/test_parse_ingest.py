"""INGEST — parse + validate to a typed tree, seed vs fused pipeline.

The seed route is three passes: the character-stepping reference parser
(preserved verbatim in ``repro.xml.reference``) feeds a generic DOM
build, then ``Binding.from_dom`` walks that DOM stepping the content
DFAs and walks the result again in ``check_valid``.  The fused route
(``repro.ingest``) is one pass: the scanning tokenizer's events step the
DFAs *during* parsing and allocate ``TypedElement`` nodes directly.

Measured here:

* **seed**   — reference parser -> DOM -> ``from_dom`` (the pre-PR path),
* **legacy** — scanning parser -> DOM -> ``from_dom`` (tokenizer win only),
* **fused**  — ``fused_parse`` (the full pipeline win),
* **fused (object DFAs)** — ``fused_parse(use_tables=False)``: the
  golden-reference route and the denominator for the table-driven floor,
* **turbo**  — ``table_parse``: flat integer DFA tables stepped off the
  turbo scanner (``repro.xml.turbo.scan``),
* **tokenizer** — event iteration alone, both parsers,
* **bulk**   — ``validate_files`` through the persistent
  ``ValidationPool`` (warm workers, sharded batches), when cores allow.

Acceptance floors (the ISSUEs' criteria): fused must clear **3x** the
seed pipeline on the purchase-order and XHTML corpora (1.5x under
``REPRO_BENCH_QUICK``); the table-driven turbo lane must clear **2x**
the object-DFA fused route on both corpora (``ingest:table_driven:*``
in floors.json); and ``--jobs 4`` must clear **2.5x** ``--jobs 1``
over a 100-document corpus (``ingest:bulk_scaling``) — the latter only
on machines with at least four CPUs; elsewhere the timings are still
recorded but the artifact carries a ``floor_skipped`` marker that
``scripts/check_bench.py`` honors (a process pool cannot beat inline
execution without cores to run on).

Environment knobs (used by the CI smoke job):

* ``REPRO_BENCH_QUICK=1``      — fewer iterations, relaxed floor,
* ``REPRO_BENCH_JSON=<path>``  — where to write the JSON artifact
  (default: ``BENCH_parse_ingest.json``).
"""

import json
import multiprocessing
import os
import time

import pytest

from benchmarks import bench_floor
from benchmarks.conftest import purchase_order_text
from repro.core import bind
from repro.dom.document import Document
from repro.ingest import fused_parse, legacy_parse, table_parse, validate_files
from repro.schemas import PURCHASE_ORDER_SCHEMA, XHTML_SUBSET_SCHEMA
from repro.xml.events import Characters, EndElement, StartElement
from repro.xml.parser import PullParser
from repro.xml.reference import ReferencePullParser

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
REPEATS = 3 if QUICK else 7
ITEMS = 100 if QUICK else 300
BULK_DOCUMENTS = 40 if QUICK else 100
#: the ISSUE's acceptance criterion (relaxed under quick mode), shared
#: with the CI bench-gate via benchmarks/floors.json
FLOOR = bench_floor("ingest_po_speedup", QUICK)
#: the table-driven turbo lane vs the object-DFA fused route (PR 7)
TABLE_FLOOR = bench_floor("ingest:table_driven:po", QUICK)
#: the persistent-pool scaling criterion (PR 8); the artifact records a
#: ``floor_skipped`` marker instead of asserting when the machine has
#: too few cores for a pool to beat inline execution
SCALING_FLOOR = bench_floor("ingest:bulk_scaling", QUICK)

#: module-level result sink, flushed at teardown
RESULTS: dict[str, dict] = {}


@pytest.fixture(scope="module", autouse=True)
def _write_json_report():
    yield
    target = os.environ.get("REPRO_BENCH_JSON", "BENCH_parse_ingest.json")
    if target and RESULTS:
        RESULTS["_meta"] = {"quick": QUICK}
        with open(target, "w", encoding="utf-8") as handle:
            json.dump(RESULTS, handle, indent=2, sort_keys=True)


def xhtml_page_text(rows: int) -> str:
    """A valid XHTML-subset page: mixed content, links, lists, a table."""
    blocks = []
    for index in range(rows):
        blocks.append(
            f"<h2>Section {index}</h2>"
            f"<p>Paragraph <b>{index}</b> with <i>mixed</i> content and "
            f'a <a href="/item/{index}">link {index}</a>.<br/></p>'
            f"<ul><li>first {index}</li><li>second &amp; third</li></ul>"
        )
        if index % 10 == 0:
            blocks.append(
                "<table>"
                + "".join(
                    f"<tr><td>cell {index}.{row}</td><td>more</td></tr>"
                    for row in range(3)
                )
                + "</table>"
            )
    return (
        "<html><head><title>benchmark page</title>"
        '<meta name="generator" content="bench"/></head>'
        "<body>" + "".join(blocks) + "</body></html>"
    )


def _best_seconds_interleaved(actions, repeats=REPEATS):
    """Best-of-*repeats* for each action, measured round-robin.

    Interleaving means a load spike on a shared runner degrades every
    pipeline's round rather than one pipeline's entire measurement, so
    the *ratios* (which the floors assert on) stay stable even when the
    absolute numbers wobble.
    """
    best = [None] * len(actions)
    for _ in range(repeats):
        for index, action in enumerate(actions):
            start = time.perf_counter()
            action()
            elapsed = time.perf_counter() - start
            if best[index] is None or elapsed < best[index]:
                best[index] = elapsed
    return best


def _seed_pipeline(binding, text):
    """The seed ingest: reference parse -> generic DOM -> ``from_dom``."""
    document = Document()
    stack = [document]
    for event in ReferencePullParser(text):
        kind = type(event)
        if kind is StartElement:
            element = document.create_element(event.name)
            for name, value in event.attributes:
                element.set_attribute(name, value)
            stack[-1].append_child(element)
            stack.append(element)
        elif kind is EndElement:
            stack.pop()
        elif kind is Characters:
            stack[-1].append_child(document.create_text_node(event.data))
    return binding.from_dom(document.document_element)


def _drain(parser_cls, text):
    for _ in parser_cls(text):
        pass


def _measure_corpus(label, schema_text, text):
    binding = bind(schema_text)
    # Correctness precedes speed: every route must build the same tree.
    from repro.dom.serialize import serialize

    golden = serialize(_seed_pipeline(binding, text))
    assert serialize(fused_parse(binding, text)) == golden
    assert serialize(fused_parse(binding, text, use_tables=False)) == golden
    assert serialize(table_parse(binding, text)) == golden
    actions = [
        lambda: _seed_pipeline(binding, text),
        lambda: legacy_parse(binding, text),
        lambda: fused_parse(binding, text),
        lambda: fused_parse(binding, text, use_tables=False),
        lambda: table_parse(binding, text),
        lambda: _drain(ReferencePullParser, text),
        lambda: _drain(PullParser, text),
    ]
    (seed, legacy, fused, fused_object, turbo, reference_scan,
     fast_scan) = _best_seconds_interleaved(actions)
    result = {
        "document_bytes": len(text),
        "seed_ms": round(seed * 1000, 2),
        "legacy_ms": round(legacy * 1000, 2),
        "fused_ms": round(fused * 1000, 2),
        "fused_object_ms": round(fused_object * 1000, 2),
        "turbo_ms": round(turbo * 1000, 2),
        "reference_tokenize_ms": round(reference_scan * 1000, 2),
        "fast_tokenize_ms": round(fast_scan * 1000, 2),
        "tokenizer_speedup": round(reference_scan / fast_scan, 2),
        "fused_vs_seed": round(seed / fused, 2),
        "fused_vs_legacy": round(legacy / fused, 2),
        "turbo_vs_fused_object": round(fused_object / turbo, 2),
        "turbo_vs_seed": round(seed / turbo, 2),
        "repeats": REPEATS,
    }
    RESULTS[label] = result
    print(
        f"\n{label}: seed {result['seed_ms']}ms  legacy {result['legacy_ms']}ms  "
        f"fused {result['fused_ms']}ms  -> {result['fused_vs_seed']}x vs seed "
        f"(tokenizer alone {result['tokenizer_speedup']}x)\n"
        f"{label}: turbo {result['turbo_ms']}ms "
        f"-> {result['turbo_vs_fused_object']}x vs object-DFA fused, "
        f"{result['turbo_vs_seed']}x vs seed"
    )
    return result


def test_purchase_order_ingest(capsys):
    """The headline floors: fused >= 3x seed, turbo >= 2x object fused."""
    text = purchase_order_text(ITEMS)
    result = _measure_corpus("purchase_order", PURCHASE_ORDER_SCHEMA, text)
    assert result["fused_vs_seed"] >= FLOOR, (
        f"fused ingest is only {result['fused_vs_seed']:.2f}x the seed "
        f"pipeline (need >= {FLOOR}x)"
    )
    assert result["turbo_vs_fused_object"] >= TABLE_FLOOR, (
        f"table-driven ingest is only "
        f"{result['turbo_vs_fused_object']:.2f}x the object-DFA fused "
        f"route (need >= {TABLE_FLOOR}x)"
    )


def test_xhtml_ingest(capsys):
    """The same floors on mixed-content XHTML."""
    text = xhtml_page_text(ITEMS)
    result = _measure_corpus("xhtml", XHTML_SUBSET_SCHEMA, text)
    assert result["fused_vs_seed"] >= FLOOR, (
        f"fused ingest is only {result['fused_vs_seed']:.2f}x the seed "
        f"pipeline (need >= {FLOOR}x)"
    )
    assert result["turbo_vs_fused_object"] >= TABLE_FLOOR, (
        f"table-driven ingest is only "
        f"{result['turbo_vs_fused_object']:.2f}x the object-DFA fused "
        f"route (need >= {TABLE_FLOOR}x)"
    )


def test_bulk_scaling(tmp_path, capsys):
    """``--jobs 4`` must be >= 2.5x ``--jobs 1`` over 100 documents.

    The parallel run goes through the persistent :class:`ValidationPool`
    (workers warm-started once, batches sharded by consistent hash), so
    this floor measures the pool, not per-task spawn cost.  On machines
    with fewer than four cores the timings are still recorded but the
    floor assertion is replaced by a ``floor_skipped`` marker in the
    artifact — ``scripts/check_bench.py`` honors the marker, so the CI
    gate distinguishes "skipped for lack of cores" from "regressed".
    A 1-CPU container cannot exhibit process-pool scaling at all; its
    jobs=4 request clamps to a single worker.
    """
    cores = multiprocessing.cpu_count()
    corpus = []
    for index in range(BULK_DOCUMENTS):
        path = tmp_path / f"doc{index}.xml"
        path.write_text(
            purchase_order_text(30, seed=index), encoding="utf-8"
        )
        corpus.append(path)
    cache_dir = str(tmp_path / "cache")
    # Pre-warm the compilation cache so workers measure ingest, not XSD
    # compilation; disable the verdict cache so documents are re-parsed.
    validate_files(
        PURCHASE_ORDER_SCHEMA, corpus[:1], cache_dir=cache_dir,
        use_verdict_cache=False,
    )

    def run(jobs):
        start = time.perf_counter()
        report = validate_files(
            PURCHASE_ORDER_SCHEMA, corpus, jobs=jobs,
            cache_dir=cache_dir, use_verdict_cache=False,
        )
        elapsed = time.perf_counter() - start
        assert report["summary"]["invalid"] == 0
        return elapsed, report

    serial = min(run(1)[0] for _ in range(2))
    parallel, parallel_report = run(4)
    retry, retry_report = run(4)
    if retry < parallel:
        parallel, parallel_report = retry, retry_report
    floor_skipped = cores < 4
    skip_reason = (
        f"parallel-scaling floor needs >= 4 CPUs (have {cores})"
        if floor_skipped
        else None
    )
    result = {
        "documents": BULK_DOCUMENTS,
        "cpu_count": cores,
        "jobs1_ms": round(serial * 1000, 2),
        "jobs4_ms": round(parallel * 1000, 2),
        "jobs4_effective": parallel_report["jobs"],
        "batch_size": parallel_report["batch_size"],
        "scaling": round(serial / parallel, 2),
        "floor_skipped": floor_skipped,
        "floor_skip_reason": skip_reason,
    }
    RESULTS["bulk_scaling"] = result
    print(
        f"\nbulk: jobs=1 {result['jobs1_ms']}ms  jobs=4 {result['jobs4_ms']}ms"
        f" ({result['jobs4_effective']} effective, "
        f"batches of {result['batch_size']})"
        f"  -> {result['scaling']}x on {cores} cores"
    )
    if floor_skipped:
        pytest.skip(f"{skip_reason}; timings recorded without the floor")
    assert result["scaling"] >= SCALING_FLOOR, (
        f"--jobs 4 is only {result['scaling']:.2f}x --jobs 1 "
        f"(need >= {SCALING_FLOOR}x on {cores} cores)"
    )
