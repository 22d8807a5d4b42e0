"""``bulk_validate``: the operator path, ``validate_files(..., pool=...)``.

Each of the three namespaced gauntlet families under
``tests/integration/corpus/`` gets an on-disk corpus of scaled instances
(30% invalid) and its own caller-owned warm ``ValidationPool`` with the
verdict cache on.  Before every measured pass a seeded 25% of each
family's files are rewritten (new bytes, same verdict), so the verdict
cache answers a fixed share and the streaming validator the rest.
Namespaced schemas validate through ``StreamingValidator``, so the
pull parser, namespace resolution, pool IPC and the verdict cache carry
this workload; the typed-ingest lanes do nothing.
"""

from __future__ import annotations

import multiprocessing
import os
import random
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
CHANGED_SHARE = 0.25


def workers() -> int:
    return min(2, os.cpu_count() or 1)


def read_schema(root: str, name: str) -> tuple[str, str]:
    """``(path, text)`` of gauntlet family *name*'s schema."""
    path = corpus.family_schema_path(root, name)
    with open(path, encoding="utf-8") as handle:
        return path, handle.read()


class Family:
    """One gauntlet family: schema, on-disk corpus, and its pool."""

    def __init__(self, root: str, name: str, seed: int, directory: str):
        self.name = name
        self.schema_path, self.schema_text = read_schema(root, name)
        self.docs = corpus.family_corpus(seed, name)
        self.directory = directory
        self.paths = [os.path.join(directory, doc.name) for doc in self.docs]
        self.revs = [0] * len(self.docs)
        self.pool = None

    def write(self, index: int) -> None:
        with open(self.paths[index], "w", encoding="utf-8") as handle:
            handle.write(self.docs[index].text(self.revs[index]))

    def size(self) -> int:
        return sum(os.path.getsize(path) for path in self.paths)


def start_pool(name: str, schema_text: str, schema_path: str, cache_dir: str, collect_obs: bool = False):
    """A warm pool for family *name*: forked, every worker bound and
    answering."""
    from repro.ingest import ValidationPool

    pool = ValidationPool(
        schema_text,
        workers(),
        cache_dir=cache_dir,
        schema_location=schema_path,
        collect_obs=collect_obs,
    )
    probe = corpus.family_probe(name)
    seen: set[int] = set()
    futures = []
    for k in range(1000):
        key = f"warm-{k}"
        shard = pool.shard_of(key)
        if shard not in seen:
            seen.add(shard)
            futures.append(pool.submit_text(probe, key=key))
        if len(seen) == pool.workers:
            break
    for future in futures:
        future.result(timeout=60)
    return pool


def prepare(root: str, cache_dir: str) -> tuple[dict, list[float], list[float]]:
    """Cold-bind each family's schema from an empty cache directory and
    start its pool; returns the pools by family, the bind times and the
    pool-start times."""
    from repro import ReproCache

    pools, binds, starts = {}, [], []
    for name in corpus.FAMILIES:
        path, text = read_schema(root, name)
        started = time.perf_counter()
        ReproCache(cache_dir).bind(text, location=path)
        bound = time.perf_counter()
        pools[name] = start_pool(name, text, path, cache_dir)
        starts.append(time.perf_counter() - bound)
        binds.append(bound - started)
    return pools, binds, starts


def close_pools(families: list[Family]) -> None:
    for family in families:
        if family.pool is not None:
            family.pool.close()
            family.pool = None


def one_pass(family: Family, cache_dir: str, outcome: Outcome):
    """One ``validate_files`` pass over *family*; ``(report, seconds)``.
    A pass that raises counts every file as failed and has no report."""
    from repro.ingest import validate_files

    started = time.perf_counter()
    try:
        report = validate_files(
            family.schema_text,
            family.paths,
            pool=family.pool,
            cache_dir=cache_dir,
            schema_location=family.schema_path,
            schema_label=family.name,
        )
    except Exception as error:
        for doc in family.docs:
            outcome.check(False, lambda: f"{family.name}/{doc.name}: pass raised {type(error).__name__}: {error}")
        return None, time.perf_counter() - started
    elapsed = time.perf_counter() - started
    for doc, record in zip(family.docs, report["files"]):
        outcome.check(
            record["valid"] == doc.valid,
            lambda: f"{family.name}/{doc.name}: valid={record['valid']}, expected {doc.valid}",
        )
    return report, elapsed


def run_passes(families, cache_dir, seconds, rng, outcome, reports) -> list[tuple]:
    """Rounds (one pass over every family) until *seconds* of validation
    time have gone by; one ``(documents, bytes, seconds, slowdown
    before, slowdown after, per-document seconds)`` entry per round."""
    rounds = []
    busy = 0.0
    before = slowdown()
    while busy < seconds:
        count = size = 0
        elapsed_sum = 0.0
        latencies = []
        for family in families:
            for index in rng.sample(range(len(family.docs)), round(len(family.docs) * CHANGED_SHARE)):
                family.revs[index] += 1
                family.write(index)
            report, elapsed = one_pass(family, cache_dir, outcome)
            elapsed_sum += elapsed
            count += len(family.docs)
            size += family.size()
            if report is None:
                latencies.extend([elapsed / len(family.docs)] * len(family.docs))
            else:
                latencies.extend(record["ms"] / 1000 for record in report["files"])
                reports.append((family, report, elapsed))
        after = slowdown()
        busy += elapsed_sum
        rounds.append((count, size, elapsed_sum, before, after, latencies))
        before = after
    return rounds


def build(root: str, seed: int, scratch: str) -> list[Family]:
    families = []
    for name in corpus.FAMILIES:
        directory = os.path.join(scratch, "corpus", name)
        os.makedirs(directory)
        family = Family(root, name, seed, directory)
        for index in range(len(family.docs)):
            family.write(index)
        families.append(family)
    return families


def confirm(families: list[Family]) -> None:
    """Check every known answer against the DOM validator."""
    from repro.xsd import parse_schema_file

    answers = {True: corpus.VALID, False: corpus.INVALID}
    for family in families:
        corpus.confirm_answers(
            parse_schema_file(family.schema_path),
            [(doc.name, doc.text(0), answers[doc.valid]) for doc in family.docs],
        )


def workers_rss_mb() -> float:
    return sum(peak_rss_mb(child.pid) for child in multiprocessing.active_children())


def run(root: str, seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    scratch = work_dir(root)
    families: list[Family] = []
    try:
        families = build(root, seed, scratch)
        setups, raw_setups, infos = child_setups("bulk_validate", root, scratch, SETUP_REPEATS)
        cache_dir = os.path.join(scratch, "cache-main")
        pools, _, _ = prepare(root, cache_dir)
        for family in families:
            family.pool = pools[family.name]
        rng = random.Random(f"{seed}:changes")
        for family in families:
            one_pass(family, cache_dir, Outcome())  # warm-up: every verdict computed once
        if trace:
            layers(families, cache_dir, seconds, rng, outcome, infos)
        else:
            rounds = run_passes(families, cache_dir, seconds, rng, outcome, [])
            put_rates(outcome, rounds)
            put_latencies(outcome, rounds)
            rss = peak_rss_mb() + workers_rss_mb()
            outcome.put("setup_s", median(setups), "s", len(setups), median(raw_setups))
            outcome.put("peak_rss_mb", rss, "MB", 1 + len(families) * workers())
        close_pools(families)
        confirm(families)  # after the pools: the DOM validator's memory is not theirs
        return outcome
    finally:
        close_pools(families)
        remove_tree(scratch)


def layers(families, cache_dir, seconds, rng, outcome, infos) -> None:
    from repro import ReproCache, obs
    from repro.xml import PullParser
    from repro.xsd import StreamingValidator, parse_schema_file

    binds = [ms for info in infos for ms in info["bind_ms"]]
    outcome.put("cache.bind_cold_ms", median(binds), "ms", len(binds))
    warm = []
    for family in families:
        started = time.perf_counter()
        ReproCache(cache_dir).bind(family.schema_text, location=family.schema_path)
        warm.append(time.perf_counter() - started)
    outcome.put("cache.bind_warm_ms", median(warm) * 1000, "ms", len(warm))
    starts = [ms for info in infos for ms in info["start_ms"]]
    outcome.put("ingest.pool_start_ms", median(starts), "ms", len(starts))

    half = max(seconds / 2, 0.5)
    plain = Outcome()
    untraced = window_rate(run_passes(families, cache_dir, half, rng, plain, []))
    outcome.attempted += plain.attempted
    outcome.failed += plain.failed
    # Traced pools: workers collect and ship obs deltas per batch.
    close_pools(families)
    obs.reset()
    obs.enable()
    try:
        for family in families:
            family.pool = start_pool(family.name, family.schema_text, family.schema_path, cache_dir, collect_obs=True)
            one_pass(family, cache_dir, Outcome())  # load the hot verdict memo
        reports: list = []
        rounds = run_passes(families, cache_dir, half, rng, outcome, reports)
    finally:
        obs.disable()
    count = sum(r[0] for r in rounds)
    traced = window_rate(rounds)
    outcome.put("trace.bulk_ops_per_s", traced, "1/s", count)
    outcome.put("trace.bulk_overhead_pct", (untraced - traced) / untraced * 100, "%", count)
    passes = len(reports)
    outcome.put("ingest.bulk_pass_ms", sum(e for _, _, e in reports) * 1000 / passes, "ms", passes)
    worker_ms = [report["summary"]["worker_ms"] for _, report, _ in reports]
    outcome.put("ingest.worker_ms", sum(worker_ms) / passes, "ms", passes)
    overhead = [e * 1000 - w / workers() for (_, _, e), w in zip(reports, worker_ms)]
    outcome.put("ingest.pool_overhead_ms", sum(overhead) / passes, "ms", passes)
    documents = sum(report["summary"]["documents"] for _, report, _ in reports)
    cached = sum(report["summary"]["cached"] for _, report, _ in reports)
    outcome.put("ingest.verdict_cache_hit_ratio", cached / documents, "ratio", documents)
    stats = [family.pool.stats_snapshot() for family in families]
    outcome.put("ingest.pool_requeued", sum(s["requeued"] for s in stats), "count", 1)
    outcome.put("ingest.pool_workers_lost", sum(s["workers_lost"] for s in stats), "count", 1)

    texts = [(family, doc.text(0)) for family in families for doc in family.docs]
    clock = time.perf_counter
    total = 0.0
    for _, text in texts:
        t0 = clock()
        for _event in PullParser(text):
            pass
        total += clock() - t0
    outcome.put("xml.tokenize_ms", total * 1000 / len(texts), "ms", len(texts))
    validators = {
        family.name: StreamingValidator(parse_schema_file(family.schema_path)) for family in families
    }
    for family, text in texts:
        validators[family.name].validate_text(text)  # warm: content tables are built on first use
    total = 0.0
    for family, text in texts:
        validator = validators[family.name]
        t0 = clock()
        validator.validate_text(text)
        total += clock() - t0
    outcome.put("xsd.stream_validate_ms", total * 1000 / len(texts), "ms", len(texts))
