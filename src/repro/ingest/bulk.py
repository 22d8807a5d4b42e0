"""Parallel bulk validation: a *persistent* pool of warm validation workers.

``vdom-generate validate --jobs N`` lands here.  Every readable document
is judged by the worker's :class:`~repro.xsd.stream.StreamingValidator`
— the same walker behind single-document ``validate`` and ``POST
/-/validate`` — so a verdict does not depend on how many documents a
run holds or on whether the schema has a target namespace.

Bulk v2 replaces the
per-call ``multiprocessing.Pool`` of PR 3 (re-fork + re-bind on every
run, one pickled round-trip per file — which measured 0.95x at
``--jobs 4``) with :class:`repro.ingest.pool.ValidationPool`: workers
spawn once, bind once (warm-started from the persistent compilation
cache, flat DFA tables included), and pull *document batches* off
per-worker queues.  A document unchanged since the pool's previous
call goes back to the worker that judged it, so per-worker verdict
caches stay hot across repeated runs, and the documents that changed
(or are new) are dealt evenly by size, so no worker waits on a busier
sibling; a dead worker's in-flight batches are requeued to a sibling
(by :class:`~repro.ingest.pool.HashRing`) and counted.

A pool can also be passed in (``pool=``) and reused across calls — the
serve tier keeps one for its whole lifetime — in which case ``jobs``
is whatever the pool was built with.

Two hardening rules shape the error handling here:

* a *document*-level problem (unreadable file, bad encoding, invalid
  content) yields one failed verdict and never aborts the run;
* a *schema*-level problem is pre-flighted in the parent before any
  worker starts: a schema that fails to bind used to blow up inside the
  pool initializer, which surfaces as a hung pool or an opaque
  ``BrokenProcessPool`` — now it raises the original
  :class:`~repro.errors.ReproError` (and the successful pre-flight
  warms the persistent cache the workers start from).

When :mod:`repro.obs` is collecting, each worker keeps its own registry
and ships snapshot deltas back per *batch* (inline runs keep per-file
deltas); the parent merges them into its registry and into the report's
``"obs"`` section, so streaming-lane and cache counters cover the
whole pool.

Verdicts are themselves cacheable: keyed on (path, document content,
schema fingerprint), a re-run over an unchanged corpus answers from the
cache without parsing anything — and inside one pool session, from the
worker's in-memory verdict layer without touching the cache directory.
"""

from __future__ import annotations

import os
import time
from typing import Any

from repro import obs
from repro.errors import ReproError
from repro.cache.fingerprint import fingerprint
from repro.cache.manager import ReproCache
from repro.xsd.stream import StreamingValidator

#: keys of a per-file record that the verdict cache persists
_VERDICT_KEYS = ("valid", "error", "error_type")


def effective_jobs(jobs: int, cpu_count: int | None = None) -> int:
    """Clamp a requested worker count to the CPUs actually present.

    ``jobs <= 0`` means "auto": one worker per CPU.  Anything above the
    CPU count is clamped down — oversubscribing a process pool never
    helps a CPU-bound workload and measurably hurts (on a 1-CPU box,
    ``jobs=4`` ran at 0.74x the inline throughput before this clamp).
    *cpu_count* overrides :func:`os.cpu_count` for tests.
    """
    cpus = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    cpus = max(1, cpus)
    if jobs <= 0:
        return cpus
    return min(jobs, cpus)

#: per-process worker state, set once by :func:`_init_worker`
_WORKER: dict[str, Any] = {}


class _StoredVerdicts:
    """The persistent verdict store, as :func:`_validate_one` asks it.

    Pool workers put :class:`repro.ingest.pool._HotVerdicts` in front of
    it, which is why a lookup names the path as well as the key.
    """

    def __init__(self, cache: ReproCache):
        self._cache = cache

    def get(self, path: str, key: str) -> dict | None:
        return self._cache.get_json("verdict", key)

    def put(self, path: str, key: str, verdict: dict) -> None:
        self._cache.put_json("verdict", key, verdict)


def _init_worker(
    schema_text: str,
    cache_dir: str | None,
    use_verdict_cache: bool,
    collect_obs: bool = False,
    schema_location: str | None = None,
    lazy_roots: tuple[str, ...] | None = None,
) -> None:
    """Bind the schema in this process, warm from the persistent cache,
    and build the one validator every document of the worker goes to."""
    mark = None
    if collect_obs:
        # Baseline *before* the bind below, so warm-start cost lands on
        # the first record's delta.  A snapshot (not a reset) keeps this
        # correct both inline — where "the worker" is the parent, whose
        # prior observations must survive — and in forked workers, whose
        # registries inherit the parent's pre-fork contents.
        mark = obs.snapshot()
        obs.enable()
    cache = ReproCache(directory=cache_dir)
    binding = cache.bind(
        schema_text, location=schema_location, lazy_roots=lazy_roots
    )
    _WORKER["schema_key"] = binding.cache_fingerprint
    _WORKER["cache"] = (
        _StoredVerdicts(cache) if (use_verdict_cache and cache_dir) else None
    )
    _WORKER["obs_mark"] = mark
    _WORKER["streaming"] = StreamingValidator(binding.schema)


def _validate_one(path: str) -> dict[str, Any]:
    """Validate one document; never raises for document-level problems."""
    cache = _WORKER["cache"]
    started = time.perf_counter()
    record: dict[str, Any] = {
        "path": path,
        "valid": False,
        "error": None,
        "error_type": None,
        "cached": False,
        "ms": 0.0,
    }
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as error:
        # UnicodeDecodeError is a ValueError, *not* an OSError: before it
        # was caught here, one mis-encoded file crashed the whole
        # ``pool.map`` instead of producing one failed verdict.
        record["error"] = str(error)
        record["error_type"] = type(error).__name__
        return _finish(record, started)
    key = None
    if cache is not None:
        # Verdicts are cached per file: the path is part of the key, so
        # identical content under two names keeps two entries.
        key = fingerprint(
            "verdict", text, schema=_WORKER["schema_key"], path=path
        )
        verdict = cache.get(path, key)
        if verdict is not None:
            record.update(verdict)
            record["cached"] = True
            return _finish(record, started)
    try:
        errors = _WORKER["streaming"].validate_text(text)
    except ReproError as error:  # a syntax error ends the walk
        errors = [error]
    if errors:
        record["error"] = str(errors[0])
        record["error_type"] = type(errors[0]).__name__
    else:
        record["valid"] = True
    if key is not None:
        cache.put(path, key, {name: record[name] for name in _VERDICT_KEYS})
    return _finish(record, started)


def _finish(record: dict[str, Any], started: float) -> dict[str, Any]:
    """Stamp the timing and, when collecting, the obs delta."""
    record["ms"] = round((time.perf_counter() - started) * 1000, 3)
    mark = _WORKER.get("obs_mark")
    if mark is not None:
        current = obs.snapshot()
        record["obs"] = obs.diff_snapshots(current, mark)
        _WORKER["obs_mark"] = current
    return record


def _preflight_bind(
    schema_text: str,
    cache_dir: str | None,
    schema_location: str | None = None,
    lazy_roots: tuple[str, ...] | None = None,
) -> None:
    """Bind once in the parent before any worker exists.

    A failure here is a clean :class:`ReproError` instead of the hung
    pool / ``BrokenProcessPool`` an initializer crash produces; a
    success leaves the compiled artifact in the persistent cache, which
    is exactly the warm start the workers want.
    """
    try:
        ReproCache(directory=cache_dir).bind(
            schema_text, location=schema_location, lazy_roots=lazy_roots
        )
    except ReproError:
        raise
    # Audited boundary: any bind crash must surface as the library's
    # error type here in the parent, not kill the worker pool.
    except Exception as error:  # noqa: BLE001
        raise ReproError(f"schema failed to bind: {error}") from error


def auto_batch_size(documents: int, workers: int) -> int:
    """The default batch size: ``documents / workers / 4``, floored at 1.

    Four batches per worker keeps the tail balanced (a slow shard still
    hands out work in pieces) while staying far from the old one-task-
    per-file regime whose queue round-trips dominated the runtime.
    """
    return max(1, documents // (max(1, workers) * 4))


def _pooled_files(
    pool,
    names: list[str],
    batch_size: int,
) -> tuple[list[dict[str, Any]], int]:
    """Fan *names* out over the persistent pool, preserving input order;
    returns the records and how many paths were dealt.

    The pool places each path (:meth:`ValidationPool.place`): a path
    unchanged since the pool's previous call goes back to the worker
    that judged it, where its verdict is hot, and the rest are dealt
    evenly by size.  Each worker's run of documents is then chunked into
    *batch_size* pieces, so a batch never straddles workers.
    """
    owners, dealt = pool.place(names)
    shards: dict[int, list[int]] = {}
    for index, owner in enumerate(owners):
        shards.setdefault(owner, []).append(index)
    submissions: list[tuple[list[int], Any]] = []
    for worker, indices in shards.items():
        for start in range(0, len(indices), batch_size):
            chunk = indices[start : start + batch_size]
            future = pool.submit_batch(
                [names[i] for i in chunk], key=names[chunk[0]], worker=worker
            )
            submissions.append((chunk, future))
    files: list[dict[str, Any] | None] = [None] * len(names)
    for chunk, future in submissions:
        for index, record in zip(chunk, future.result()):
            # Records arrive as fresh copies: point them at the caller's
            # path string, so a caller holding many reports does not pay
            # for each path once per report.
            record["path"] = names[index]
            files[index] = record
    return files, dealt  # type: ignore[return-value]


def _sniff_roots(names: list[str]) -> tuple[str, ...] | None:
    """Root element keys of every document, or None when any resists.

    The lazy route only engages when *all* roots are known: an
    unsniffable document falls the whole run back to the full binding so
    verdicts never depend on what the sniffer could read.
    """
    from repro.xsd.subset import SNIFF_WINDOW, sniff_root_key

    roots: set[str] = set()
    for name in names:
        try:
            with open(name, encoding="utf-8") as handle:
                head = handle.read(SNIFF_WINDOW)
        except (OSError, UnicodeDecodeError):
            return None
        key = sniff_root_key(head)
        if key is None:
            return None
        roots.add(key)
    return tuple(sorted(roots)) if roots else None


def validate_files(
    schema_text: str,
    paths: list[str | os.PathLike],
    jobs: int = 1,
    cache_dir: str | None = None,
    use_verdict_cache: bool = True,
    schema_label: str | None = None,
    collect_obs: bool | None = None,
    clamp_jobs: bool = True,
    batch_size: int | None = None,
    pool=None,
    schema_location: str | None = None,
    lazy: bool = False,
) -> dict[str, Any]:
    """Validate *paths* against the schema, *jobs* processes wide.

    Returns the aggregate report::

        {"schema": ..., "jobs": N, "jobs_requested": M,
         "batch_size": B,                       # None on inline runs
         "pool": {"workers", "live_workers", "batches", "texts",
                  "completed", "requeued", "workers_lost"},  # pooled runs
         "summary": {"documents", "valid", "invalid", "cached",
                     "elapsed_ms", "worker_ms"},
         "files": [{"path", "valid", "error", "error_type", "cached",
                    "ms"}, ...],
         "obs": {"counters": ..., "timers": ..., "spans": ...}}  # optional

    ``jobs=1`` runs inline (no pool); higher values fan out over a
    persistent :class:`~repro.ingest.pool.ValidationPool` whose workers
    spawn once, warm-start their binding from the persistent compilation
    cache at *cache_dir*, and consume document batches of *batch_size*
    (default: :func:`auto_batch_size`, i.e. files/jobs/4).  A path whose
    ``stat`` is unchanged since the pool's previous call goes back to
    the worker that judged it; every other path is dealt, largest
    first, to the worker with the fewest dealt bytes (counted under
    ``ingest.bulk.dealt`` in the ``"obs"`` section).  ``jobs=0`` means
    "auto" — one worker per CPU — and
    any request beyond the CPU count is clamped via
    :func:`effective_jobs` (the report's ``"jobs"`` key is the count
    actually used; ``"jobs_requested"`` preserves the ask, and a clamp
    is counted under ``ingest.bulk.jobs_clamped`` in the ``"obs"``
    section).  *clamp_jobs* = False keeps the exact requested count —
    for oversubscription experiments and pool tests on small machines.

    An already-running pool can be passed as *pool* (it is left open);
    ``jobs``/``clamp_jobs`` are then ignored in favor of the pool's own
    worker count, and repeated calls keep its per-worker verdict caches
    hot.

    *collect_obs* defaults to whatever :func:`repro.obs.enabled` says in
    the parent; when on, worker observations are merged into the parent
    registry and returned under the report's ``"obs"`` key.

    *schema_location* is the path the schema text came from — required
    for ``xsd:include``/``xsd:import`` with relative locations.  *lazy*
    sniffs every document's root element first and binds only the
    schema subset those roots reach (falling back to the full binding
    whenever a root cannot be sniffed); verdicts are identical either
    way.  A record's ``error`` is the validator's first error, with its
    line and column.
    """
    started = time.perf_counter()
    if collect_obs is None:
        collect_obs = obs.enabled()
    requested = jobs
    if pool is not None:
        jobs = pool.workers
        clamped = False
    else:
        jobs = effective_jobs(jobs) if clamp_jobs else max(1, jobs)
        clamped = jobs != requested
    use_pool = pool is not None or jobs > 1
    if clamped and not use_pool:
        # Pooled runs record the clamp via the merged report registry
        # below; counting here too would double it in the parent.
        obs.count(
            "ingest.bulk.jobs_clamped", requested=requested, effective=jobs
        )
    names = [os.fspath(path) for path in paths]
    lazy_roots: tuple[str, ...] | None = None
    if lazy and pool is None:
        # Sniff the root of every document up front; the workers then
        # bind only the subset those roots reach.  Any unsniffable
        # document disables the subset for the whole run (full binding,
        # identical verdicts either way).
        lazy_roots = _sniff_roots(names)
        obs.count(
            "ingest.bulk.lazy",
            outcome="subset" if lazy_roots else "full",
            roots=len(lazy_roots) if lazy_roots else 0,
        )
    effective_batch: int | None = None
    pool_info: dict[str, Any] | None = None
    pool_obs: dict[str, Any] | None = None
    dealt = 0
    with obs.span("ingest.bulk"):
        if not use_pool:
            _init_worker(
                schema_text,
                cache_dir,
                use_verdict_cache,
                collect_obs,
                schema_location,
                lazy_roots,
            )
            files = [_validate_one(name) for name in names]
        else:
            from repro.ingest.pool import ValidationPool

            own_pool = pool is None
            if own_pool:
                pool = ValidationPool(
                    schema_text,
                    jobs,
                    cache_dir=cache_dir,
                    use_verdict_cache=use_verdict_cache,
                    collect_obs=collect_obs,
                    schema_location=schema_location,
                    lazy_roots=lazy_roots,
                )
            try:
                effective_batch = batch_size or auto_batch_size(
                    len(names), pool.workers
                )
                files, dealt = _pooled_files(pool, names, effective_batch)
            finally:
                if collect_obs:
                    pool_obs = pool.take_obs()
                pool_info = pool.stats_snapshot()
                if own_pool:
                    pool.close()
    merged: dict[str, Any] | None = None
    if collect_obs:
        registry = obs.ObsRegistry()
        if clamped:
            # The worker deltas cannot see a parent-side decision; inject
            # the clamp so the report's "obs" section records it.
            registry.count(
                "ingest.bulk.jobs_clamped",
                requested=requested,
                effective=jobs,
            )
        if dealt:
            # Also a parent-side decision: the paths placed by size.
            registry.count("ingest.bulk.dealt", n=dealt)
        if pool_obs is not None:
            registry.merge(pool_obs)
        for record in files:
            delta = record.pop("obs", None)
            if delta:
                registry.merge(delta)
        merged = registry.snapshot()
        if use_pool:
            # Fold the pool's activity into the parent registry too, so
            # ``repro.obs.snapshot()`` covers the whole run.  Inline runs
            # recorded straight into the parent registry already.
            obs.merge(merged)
    elapsed_ms = (time.perf_counter() - started) * 1000
    valid = sum(1 for record in files if record["valid"])
    report: dict[str, Any] = {
        "schema": schema_label,
        "jobs": jobs,
        "jobs_requested": requested,
        "batch_size": effective_batch,
        "summary": {
            "documents": len(files),
            "valid": valid,
            "invalid": len(files) - valid,
            "cached": sum(1 for record in files if record["cached"]),
            "elapsed_ms": round(elapsed_ms, 3),
            "worker_ms": round(sum(record["ms"] for record in files), 3),
        },
        "files": files,
    }
    if pool_info is not None:
        report["pool"] = pool_info
    if merged is not None:
        report["obs"] = merged
    return report
