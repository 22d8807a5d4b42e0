"""``ingest``: the library read/write path, inline and closed-loop.

One operation is one document: ``parse_typed``; for a valid purchase
order also the two-rule ``TransformProgram.transform_text``; for a
seeded 20% of the valid orders also a typed update through a generated
property (an out-of-range quantity must be refused first) and
``serialize``.  The corpus is un-namespaced, so the turbo lane, its
restart into ``fused_parse``, the DFA tables and the simple-type checks
do the work; the streaming validator, the pool, P-XML pages and the
HTTP tier do none.
"""

from __future__ import annotations

import time

import corpus
from common import (
    Outcome,
    child_setups,
    median,
    peak_rss_mb,
    put_latencies,
    put_rates,
    remove_tree,
    slowdown,
    window_rate,
    work_dir,
)

SETUP_REPEATS = 5


def prepare(cache_dir: str):
    """Cold-bind every schema the workload uses and compile the
    transform's templates, starting from an empty cache directory."""
    from repro import ReproCache
    from repro.query import Rule, TransformProgram
    from repro.schemas import PURCHASE_ORDER_SCHEMA, WML_SCHEMA
    from repro.schemas.xhtml import XHTML_SUBSET_SCHEMA

    cache = ReproCache(cache_dir)
    started = time.perf_counter()
    po = cache.bind(PURCHASE_ORDER_SCHEMA)
    wml = cache.bind(WML_SCHEMA)
    xhtml = cache.bind(XHTML_SUBSET_SCHEMA)
    bound = time.perf_counter()
    program = TransformProgram(
        po,
        wml,
        "purchaseOrder",
        [
            Rule("items/item/productName", corpus.OPTION_TEMPLATE, "name"),
            Rule("items/item/@partNum", corpus.SKU_TEMPLATE, "sku"),
        ],
        cache=cache,
    )
    done = time.perf_counter()
    return {"po": po, "xhtml": xhtml, "program": program}, bound - started, done - bound


def operate(ctx, doc: corpus.IngestDoc):
    """One operation; returns what the checker compares."""
    from repro.dom import serialize
    from repro.errors import ReproError, VdomTypeError, XmlSyntaxError
    from repro.ingest import parse_typed

    binding = ctx["po"] if doc.kind == "po" else ctx["xhtml"]
    try:
        root = parse_typed(binding, doc.text)
    except XmlSyntaxError:
        return corpus.MALFORMED, None, None, None
    except ReproError:
        return corpus.INVALID, None, None, None
    if doc.kind != "po":
        return corpus.VALID, root.tag_name, None, None
    transformed = ctx["program"].transform_text(root)
    if doc.update is None:
        return corpus.VALID, transformed, None, None
    index, quantity = doc.update
    factory = binding.factory
    item = root.items.item_list[index]
    try:
        item.quantity = factory.create_quantity(100)
        refused = False
    except VdomTypeError:
        refused = True
    item.quantity = factory.create_quantity(quantity)
    return corpus.VALID, transformed, refused, serialize(root)


def check(outcome: Outcome, doc: corpus.IngestDoc, result) -> None:
    answer, payload, refused, serialized = result
    ok = answer == doc.answer
    if ok and answer == corpus.VALID:
        if doc.kind == "xhtml":
            ok = payload == "html"
        else:
            ok = payload == doc.transform
            if doc.update is not None:
                ok = ok and refused is True and serialized == doc.serialized
    outcome.check(ok, lambda: f"{doc.name}: got {answer}, expected {doc.answer}")


def confirm(ctx, docs: list[corpus.IngestDoc]) -> None:
    """Check every known answer against the DOM validator."""
    for kind, binding in (("po", ctx["po"]), ("xhtml", ctx["xhtml"])):
        corpus.confirm_answers(
            binding.schema,
            [(doc.name, doc.text, doc.answer) for doc in docs if doc.kind == kind],
        )


def run_passes(ctx, docs, seconds: float, outcome: Outcome) -> list[tuple]:
    """Whole passes over *docs* until *seconds* have gone by; one
    ``(documents, bytes, seconds, slowdown before, slowdown after,
    per-document seconds)`` entry per pass."""
    clock = time.perf_counter
    size = sum(len(doc.text.encode()) for doc in docs)
    passes = []
    started = clock()
    before = slowdown()
    while True:
        latencies = []
        pass_started = clock()
        for doc in docs:
            t0 = clock()
            try:
                result = operate(ctx, doc)
            except Exception as error:  # counted as a failed op
                result = (f"raised {type(error).__name__}: {error}", None, None, None)
            latencies.append(clock() - t0)
            check(outcome, doc, result)
        elapsed = clock() - pass_started
        after = slowdown()
        passes.append((len(docs), size, elapsed, before, after, latencies))
        before = after
        if clock() - started >= seconds:
            return passes


def run(root: str, seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    scratch = work_dir(root)
    try:
        setups, raw_setups, infos = child_setups("ingest", root, scratch, SETUP_REPEATS)
        ctx, _, _ = prepare(f"{scratch}/cache-main")
        docs = corpus.ingest_corpus(seed)
        run_passes(ctx, docs, 0.0, Outcome())  # warm-up pass, unmeasured
        if trace:
            layers(ctx, docs, seconds, outcome, infos, scratch)
        else:
            passes = run_passes(ctx, docs, seconds, outcome)
            put_rates(outcome, passes)
            put_latencies(outcome, passes)
            outcome.put("setup_s", median(setups), "s", len(setups), median(raw_setups))
            # Read before the DOM validator below allocates its trees.
            outcome.put("peak_rss_mb", peak_rss_mb(), "MB", 1)
        confirm(ctx, docs)
        return outcome
    finally:
        remove_tree(scratch)


# -- the traced run -----------------------------------------------------------


def _walk(schema, element, tables: list, simples: list) -> None:
    """Collect ``(DfaTable, child keys)`` and ``(SimpleType, literal)``
    pairs for *element*'s subtree, the inputs the table and simple-type
    layers see when this document is ingested."""
    from repro.xsd import ComplexType

    stack = [(element, schema.elements[element.tag_name])]
    while stack:
        node, declaration = stack.pop()
        kind = declaration.resolved_type()
        if not isinstance(kind, ComplexType):
            simples.append((kind, node.text_content))
            continue
        for name, use in kind.effective_attribute_uses().items():
            if node.has_attribute(name):
                simples.append((use.declaration.type_definition, node.get_attribute(name)))
        if kind.simple_content is not None:
            simples.append((kind.simple_content, node.text_content))
            continue
        table = schema.content_table(kind)
        children = node.child_elements()
        tables.append((table, [child.tag_name for child in children]))
        state = 0
        for child in children:
            state, child_declaration = table.step(state, child.tag_name)
            stack.append((child, child_declaration))


def _mean_ms(action, items, repeat: int) -> tuple[float, int]:
    clock = time.perf_counter
    total = 0.0
    for _ in range(repeat):
        for item in items:
            t0 = clock()
            action(item)
            total += clock() - t0
    calls = repeat * len(items)
    return total * 1000 / calls, calls


def layers(ctx, docs, seconds, outcome, infos, scratch) -> None:
    """Per-layer metrics: each layer's public calls timed on the corpus,
    plus the program's own counters and the tracing overhead."""
    from repro import ReproCache, obs
    from repro.dom import parse_document, serialize
    from repro.errors import ReproError
    from repro.ingest import parse_typed
    from repro.schemas import PURCHASE_ORDER_SCHEMA

    # Each set-up bound three schemas and compiled two templates.
    binds = [info["bind_ms"] / 3 for info in infos]
    outcome.put("cache.bind_cold_ms", median(binds), "ms", len(binds) * 3)
    warm = []
    for repeat in range(len(infos)):
        # A second cache object over a populated directory: the warm start.
        started = time.perf_counter()
        ReproCache(f"{scratch}/cache-{repeat}").bind(PURCHASE_ORDER_SCHEMA)
        warm.append(time.perf_counter() - started)
    outcome.put("cache.bind_warm_ms", median(warm) * 1000, "ms", len(warm))
    compiles = [info["compile_ms"] / 2 for info in infos]
    outcome.put("pxml.template_compile_ms", median(compiles), "ms", len(compiles) * 2)

    # Untraced and traced halves of the same closed loop.
    half = max(seconds / 2, 0.5)
    plain = Outcome()
    untraced = window_rate(run_passes(ctx, docs, half, plain))
    obs.reset()
    obs.enable()
    try:
        passes = run_passes(ctx, docs, half, outcome)
        counters = obs.snapshot()["counters"]
    finally:
        obs.disable()
    traced = window_rate(passes)
    count = sum(p[0] for p in passes)
    outcome.attempted += plain.attempted
    outcome.failed += plain.failed
    outcome.put("trace.ingest_ops_per_s", traced, "1/s", count)
    outcome.put("trace.ingest_overhead_pct", (untraced - traced) / untraced * 100, "%", count)
    restarts = sum(v for k, v in counters.items() if k.startswith("ingest.turbo{") and "outcome=restart" in k)
    outcome.put("ingest.turbo_restart_ratio", restarts / count, "ratio", count)

    valid = [doc for doc in docs if doc.answer == corpus.VALID]
    bindings = {"po": ctx["po"], "xhtml": ctx["xhtml"]}

    def parse(doc):
        try:
            parse_typed(bindings[doc.kind], doc.text)
        except ReproError:
            pass

    ms, calls = _mean_ms(parse, docs, 3)
    outcome.put("ingest.parse_typed_ms", ms, "ms", calls)

    tables: list = []
    simples: list = []
    for doc in valid:
        schema = bindings[doc.kind].schema
        _walk(schema, parse_document(doc.text).document_element, tables, simples)
    steps = sum(len(keys) for _, keys in tables)
    clock = time.perf_counter
    t0 = clock()
    for table, keys in tables:
        if not table.accepts(keys):
            outcome.check(False, lambda: "DfaTable.accepts refused a valid child sequence")
    step_s = clock() - t0
    outcome.put("automata.steps", steps, "count", 1)
    outcome.put("automata.step_ns", step_s * 1e9 / steps, "ns", steps)
    t0 = clock()
    for simple_type, literal in simples:
        simple_type.validate(literal)
    check_s = clock() - t0
    outcome.put("xsd.simple_checks", len(simples), "count", 1)
    outcome.put("xsd.simple_check_ns", check_s * 1e9 / len(simples), "ns", len(simples))

    orders = [(doc, parse_typed(ctx["po"], doc.text)) for doc in valid if doc.kind == "po"]
    program = ctx["program"]
    ms, calls = _mean_ms(lambda pair: program.transform_text(pair[1]), orders, 3)
    outcome.put("query.transform_ms", ms, "ms", calls)
    outcome.put("query.hits", sum(2 * len(doc.order.items) for doc, _ in orders), "count", 1)
    updates = [(doc, tree) for doc, tree in orders if doc.update is not None]
    factory = ctx["po"].factory

    def update(pair):
        doc, tree = pair
        tree.items.item_list[doc.update[0]].quantity = factory.create_quantity(doc.update[1])

    ms, calls = _mean_ms(update, updates, 5)
    outcome.put("core.update_ms", ms, "ms", calls)
    ms, calls = _mean_ms(lambda pair: serialize(pair[1]), updates, 3)
    outcome.put("dom.serialize_ms", ms, "ms", calls)
