"""Where the time of each workload goes, by input class.

Usage, from the root of a checkout::

    python3 perfbench/shares.py --seed 1 --seconds 10 --requests 15000

Prints three tables, the measurements behind the fixed shares in
``corpus.py`` (see "Why these shares" in ``README.md``):

- ``serve``: each request kind's share of the requests and of the time,
  from the seeded mix replayed against a server on one keep-alive
  connection, so every request's round trip is its own cost.  The
  ``above 304`` column is the part of a kind's time beyond the 304 round
  trip, the HTTP tier's floor: what its own layer (rendering, the cache,
  the server page, validation) costs.  The server's response-cache hit
  ratio over the same requests follows, and how much longer the same
  requests take from a server without a response cache: the part of the
  time the cache carries.
- ``ingest``: each document class's share of the documents and of the
  time of one ingest operation (parse_typed, transform, update).
- ``bulk_validate``: each gauntlet family's share of the files, bytes and
  ``StreamingValidator`` time, the work the pool's workers do.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def table(title: str, header: tuple[str, ...], rows: list[tuple]) -> None:
    print(f"\n{title}")
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    for row in rows:
        print("| " + " | ".join(row) + " |")


def pct(part: float, whole: float) -> str:
    return f"{100 * part / whole:.1f}%"


SERVE_WARMUP = 3000  # requests replayed before measuring: fills the cache


def serve_replay(root: str, scratch: str, plan, expected, wires, count: int, cache_entries: int | None):
    """Replay requests ``SERVE_WARMUP .. SERVE_WARMUP + count`` of *plan*
    on one connection to a fresh server; ``(seconds per kind, server
    cache stats before and after, outcome)``."""
    import serve_workload
    from common import Outcome

    server = serve_workload.Server(root, os.path.join(scratch, f"cache-{cache_entries}"), cache_entries=cache_entries)
    outcome = Outcome()
    client = serve_workload.Client(server.port, plan, expected, wires, outcome)

    async def replay(start: int, stop: int, costs) -> None:
        connection = serve_workload.Connection(server.port, client.counters)
        clock = time.perf_counter
        try:
            for index in range(start, stop):
                t0 = clock()
                await client._exchange(connection, index)
                costs[plan.requests[index].kind].append(clock() - t0)
        finally:
            await connection.close()

    try:
        asyncio.run(replay(0, SERVE_WARMUP, defaultdict(list)))
        _, before = asyncio.run(client.get("/-/stats"))
        costs: dict[str, list[float]] = defaultdict(list)
        asyncio.run(replay(SERVE_WARMUP, SERVE_WARMUP + count, costs))
        _, after = asyncio.run(client.get("/-/stats"))
    finally:
        server.stop()
    return costs, [json.loads(body)["server"]["cache"] for body in (before, after)], outcome


def serve_shares(seed: int, count: int) -> None:
    import corpus
    import serve_workload
    from common import remove_tree, work_dir

    scratch = work_dir(ROOT)
    try:
        plan = corpus.serve_plan(seed, SERVE_WARMUP + count)
        expected = serve_workload.Expected(ROOT, plan)
        query = serve_workload.heavy_query()
        wires = [expected.wire(request, query) for request in plan.requests]
        costs, stats, outcome = serve_replay(ROOT, scratch, plan, expected, wires, count, None)
        uncached, _, outcome_uncached = serve_replay(ROOT, scratch, plan, expected, wires, count, 0)
    finally:
        remove_tree(scratch)
    floor = sum(costs["conditional"]) / len(costs["conditional"])
    total = sum(sum(times) for times in costs.values())
    total_uncached = sum(sum(times) for times in uncached.values())
    rows = []
    for kind, _share in corpus.SERVE_MIX:
        times = costs[kind]
        spent = sum(times)
        rows.append(
            (
                kind,
                pct(len(times), count),
                f"{spent / len(times) * 1e6:.0f}",
                pct(spent, total),
                pct(spent - floor * len(times), total),
                f"{sum(uncached[kind]) / len(uncached[kind]) * 1e6:.0f}",
            )
        )
    table(
        f"serve: {count} requests on one connection, seed {seed}",
        ("kind", "requests", "mean us", "time", "above 304", "mean us uncached"),
        rows,
    )
    print(f"HTTP floor (304 round trip x every request): {pct(floor * count, total)} of the time")
    hits = stats[1]["hits"] - stats[0]["hits"]
    misses = stats[1]["misses"] - stats[0]["misses"]
    print(f"response cache: {hits} hits, {misses} misses, hit ratio {hits / (hits + misses):.3f}")
    print(f"the same requests served uncached take {pct(total_uncached - total, total)} more time")
    print(f"failed checks: {outcome.failed + outcome_uncached.failed} of {outcome.attempted + outcome_uncached.attempted}")


def ingest_shares(seed: int, seconds: float) -> None:
    import corpus
    import ingest_workload
    from common import Outcome, remove_tree, work_dir

    scratch = work_dir(ROOT)
    try:
        ctx, _, _ = ingest_workload.prepare(os.path.join(scratch, "cache"))
        docs = corpus.ingest_corpus(seed)
        ingest_workload.run_passes(ctx, docs, 0.0, Outcome())  # warm-up
        spent: dict[str, float] = defaultdict(float)
        counts: dict[str, int] = defaultdict(int)
        sizes: dict[str, int] = defaultdict(int)
        clock = time.perf_counter
        started = clock()
        passes = 0
        while clock() - started < seconds:
            for doc in docs:
                group = "mutant" if doc.name.startswith("mutant") else doc.name.split("-")[0]
                t0 = clock()
                ingest_workload.operate(ctx, doc)
                spent[group] += clock() - t0
                if passes == 0:
                    counts[group] += 1
                    sizes[group] += len(doc.text.encode())
            passes += 1
        total = sum(spent.values())
        rows = [
            (
                group,
                str(counts[group]),
                pct(counts[group], len(docs)),
                f"{sizes[group] / counts[group] / 1000:.1f}",
                f"{spent[group] / passes / counts[group] * 1000:.3f}",
                pct(spent[group], total),
            )
            for group in ("po10", "po100", "po1000", "xhtml", "mutant")
        ]
        table(
            f"ingest: {passes} passes over {len(docs)} documents, seed {seed}",
            ("class", "docs", "docs share", "mean KB", "mean ms", "time"),
            rows,
        )
    finally:
        remove_tree(scratch)


def bulk_shares(seed: int, seconds: float) -> None:
    import corpus
    from repro.xsd import StreamingValidator, parse_schema_file

    spent: dict[str, float] = {}
    sizes: dict[str, int] = {}
    clock = time.perf_counter
    for family in corpus.FAMILIES:
        validator = StreamingValidator(parse_schema_file(corpus.family_schema_path(ROOT, family)))
        texts = [doc.text(0) for doc in corpus.family_corpus(seed, family)]
        for text in texts:
            validator.validate_text(text)  # warm: content tables are built on first use
        sizes[family] = sum(len(text.encode()) for text in texts)
        rounds = 0
        t0 = clock()
        while clock() - t0 < seconds / len(corpus.FAMILIES):
            for text in texts:
                validator.validate_text(text)
            rounds += 1
        spent[family] = (clock() - t0) / rounds
    total = sum(spent.values())
    rows = [
        (
            family,
            str(corpus.BULK_FILES),
            f"{sizes[family] / corpus.BULK_FILES / 1000:.1f}",
            pct(sizes[family], sum(sizes.values())),
            f"{spent[family] / corpus.BULK_FILES * 1000:.2f}",
            pct(spent[family], total),
        )
        for family in corpus.FAMILIES
    ]
    table(
        f"bulk_validate: StreamingValidator over each family's files, seed {seed}",
        ("family", "files", "mean KB", "bytes", "mean ms", "time"),
        rows,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time of ingest and bulk_validate")
    parser.add_argument("--requests", type=int, default=15000, help="serve requests replayed")
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    serve_shares(args.seed, args.requests)
    ingest_shares(args.seed, args.seconds)
    bulk_shares(args.seed, args.seconds)


if __name__ == "__main__":
    main()
