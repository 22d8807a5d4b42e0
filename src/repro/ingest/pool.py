"""Persistent warm worker pool for bulk validation (:mod:`repro.ingest`).

PR 3's ``pool.map`` runner paid its whole setup bill on every call:
each ``validate_files`` re-forked the workers, each worker re-bound the
schema, and every document was one pickled round-trip.  On the
``bulk_scaling`` benchmark that overhead ate the parallelism whole
(0.95x at ``--jobs 4``).  This module is the paper's
preparation/runtime split applied to the pool itself:

* **spawn once** — :class:`ValidationPool` forks its workers at
  construction and keeps them for the session (or the server lifetime).
  Each worker binds the schema exactly once, warm-starting from the
  persistent compilation cache artifact — flat DFA tables included — so
  the per-task payload is a path list, never a pickled schema;
* **document batches** — work travels as batches over per-worker task
  queues (one :class:`multiprocessing.Queue` each) instead of one
  ``pool.map`` task per file, and observability ships back as one
  snapshot delta per *batch*, not per file;
* **placement** — :meth:`ValidationPool.place` remembers each path's
  ``stat`` signature and worker from the previous ``validate_files``
  call.  An unchanged path goes back to that worker (or, if it died,
  to its consistent-hash shard, :class:`HashRing`), so its entry in the
  per-worker verdict cache (an in-memory layer over the persistent
  verdict store, one entry per path) stays hot across repeated runs.
  Every other path is dealt, largest first, to the live worker with
  the fewest dealt bytes (:func:`deal`), so the documents that need
  validating spread evenly and no worker waits on a busier sibling.
  The signature is only a hint: workers read and hash every file, so a
  stale one costs balance, never a stale verdict;
* **crash recovery** — the parent-side collector notices a dead worker
  (``is_alive`` goes false), removes it from the ring, and requeues its
  in-flight batches to a sibling.  The requeue is counted
  (``ingest.pool.requeued`` / ``ingest.pool.worker_lost``) and surfaced
  in the pool stats; only when *every* worker has died do outstanding
  futures fail with a :class:`~repro.errors.ReproError`;
* **HTTP fan-out** — :meth:`ValidationPool.submit_text` validates a
  raw document body in a worker, with the same streaming validator that
  judges its batch files, which is how ``vdom-generate serve
  --validate-pool N`` scales ``POST /-/validate`` past one core.

Shutdown is drain-by-default: :meth:`ValidationPool.close` enqueues a
sentinel *behind* any queued batches, so workers finish everything
already submitted before exiting — the same contract a worker applies
to its own queue when it receives SIGTERM directly.
"""

from __future__ import annotations

import hashlib
import itertools
import os
from collections.abc import Callable
import queue as queue_module
import signal
import threading
import time
from bisect import bisect_right
from collections import OrderedDict
from concurrent.futures import Future
from typing import Any

from repro import obs
from repro.errors import ReproError
from repro.obs.registry import ObsRegistry, diff_snapshots

__all__ = ["HashRing", "ValidationPool"]

#: test hook: a worker about to validate a path containing this
#: substring exits hard (``os._exit``) — once per document, recorded by
#: a ``<path>.pool-crashed`` marker file, so the requeued batch
#: completes on the sibling.  Exercised by the crash-recovery tests.
CRASH_ENV = "REPRO_POOL_CRASH_ONCE"

#: paths whose latest verdict a worker keeps in memory before evicting
#: the least recently used
HOT_VERDICT_ENTRIES = 4096

#: how often (seconds) the collector wakes to check worker liveness
_REAP_INTERVAL = 0.2


class HashRing:
    """Consistent hashing of shard keys onto worker ids.

    Each worker owns ``replicas`` points on a 64-bit ring
    (``blake2b`` — stable across processes, unlike ``hash()``); a key
    belongs to the first point clockwise from its own hash.  Removing a
    worker moves only that worker's keys to their ring successors,
    which is exactly the property crash recovery needs: the surviving
    workers' verdict caches stay hot.
    """

    def __init__(self, workers=(), replicas: int = 64):
        self._replicas = replicas
        self._points: list[int] = []
        self._owners: list[int] = []
        self._members: set[int] = set()
        for worker in workers:
            self.add(worker)

    @staticmethod
    def _hash(key: str) -> int:
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8)
        return int.from_bytes(digest.digest(), "big")

    def add(self, worker: int) -> None:
        if worker in self._members:
            return
        self._members.add(worker)
        pairs = list(zip(self._points, self._owners))
        pairs.extend(
            (self._hash(f"{worker}#{replica}"), worker)
            for replica in range(self._replicas)
        )
        pairs.sort()
        self._points = [point for point, _ in pairs]
        self._owners = [owner for _, owner in pairs]

    def remove(self, worker: int) -> None:
        if worker not in self._members:
            return
        self._members.discard(worker)
        pairs = [
            (point, owner)
            for point, owner in zip(self._points, self._owners)
            if owner != worker
        ]
        self._points = [point for point, _ in pairs]
        self._owners = [owner for _, owner in pairs]

    def lookup(self, key: str) -> int:
        if not self._points:
            raise ReproError("hash ring is empty: no live workers")
        index = bisect_right(self._points, self._hash(key))
        return self._owners[index % len(self._owners)]

    @property
    def members(self) -> frozenset[int]:
        return frozenset(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __bool__(self) -> bool:
        return bool(self._members)


class _HotVerdicts:
    """A bounded in-memory layer over the persistent verdict store.

    Placement sends an unchanged path back to the worker that judged
    it, so this per-worker memo answers repeat verdicts without touching
    the cache directory at all; everything still writes through, so a
    *different* pool (or an inline run) sees the same verdicts.  It
    keeps only the latest ``(key, verdict)`` of each path: a rewritten
    file supersedes its older revisions, which still hit through the
    persistent store.
    """

    def __init__(self, store, max_entries: int = HOT_VERDICT_ENTRIES):
        self._store = store
        self._memo: OrderedDict[str, tuple[str, Any]] = OrderedDict()
        self._max_entries = max_entries

    def get(self, path: str, key: str):
        entry = self._memo.get(path)
        if entry is not None and entry[0] == key:
            self._memo.move_to_end(path)
            return entry[1]
        verdict = self._store.get(path, key)
        if verdict is not None:
            self._remember(path, key, verdict)
        return verdict

    def put(self, path: str, key: str, verdict) -> None:
        self._store.put(path, key, verdict)
        self._remember(path, key, verdict)

    def _remember(self, path: str, key: str, verdict) -> None:
        self._memo[path] = (key, verdict)
        self._memo.move_to_end(path)
        while len(self._memo) > self._max_entries:
            self._memo.popitem(last=False)


def deal(
    names: list[str],
    signatures: list[tuple | None],
    previous: dict[str, tuple[tuple, int]],
    shard_of: Callable[[str], int],
    workers: list[int],
) -> tuple[list[int], int]:
    """Place each of *names* on a worker: ``(owners, dealt count)``.

    *previous* maps a path to its ``stat`` signature and worker from the
    last placement.  A path whose signature (``(st_mtime_ns, st_size,
    st_ino)``, or None when it cannot be read) is unchanged stays home:
    on that worker, where its verdict is hot, or on its shard,
    ``shard_of(path)``, when that worker is no longer among the live
    *workers*.  The others are dealt, largest first (ties in input
    order), to the worker with the fewest dealt bytes so far (ties to
    the earlier worker), so no worker's dealt bytes exceed another's by
    more than the largest dealt file.
    """
    owners = [0] * len(names)
    dealt: list[int] = []
    for index, (name, signature) in enumerate(zip(names, signatures)):
        entry = previous.get(name)
        if signature is not None and entry is not None and entry[0] == signature:
            home = entry[1]
            owners[index] = home if home in workers else shard_of(name)
        else:
            dealt.append(index)

    def size(index: int) -> int:
        signature = signatures[index]
        return 0 if signature is None else signature[1]

    load = {worker: 0 for worker in workers}
    for index in sorted(dealt, key=size, reverse=True):
        worker = min(load, key=load.__getitem__)
        owners[index] = worker
        load[worker] += size(index)
    return owners, len(dealt)


def _signature(path: str) -> tuple | None:
    """The ``stat`` fields placement compares, or None."""
    try:
        status = os.stat(path)
    except OSError:
        return None
    return (status.st_mtime_ns, status.st_size, status.st_ino)


def _crash_requested(path: str, marker: str | None) -> bool:
    """The :data:`CRASH_ENV` test hook: crash once per document."""
    if not marker or marker not in path:
        return False
    sentinel = path + ".pool-crashed"
    if os.path.exists(sentinel):
        return False
    with open(sentinel, "w", encoding="utf-8") as handle:
        handle.write("crashed\n")
    return True


def _worker_main(
    worker_id: int,
    schema_text: str,
    cache_dir: str | None,
    use_verdict_cache: bool,
    collect_obs: bool,
    tasks,
    results,
    schema_location: str | None = None,
    lazy_roots: tuple[str, ...] | None = None,
) -> None:
    """Worker process body: bind once, then serve batches until told.

    SIGTERM means *drain*: finish everything already in the queue, then
    exit — in-flight work is never abandoned by a polite shutdown.  The
    parent's collector covers the impolite ones.
    """
    from repro.ingest import bulk
    from repro.xsd.stream import text_verdict

    draining = threading.Event()
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, lambda _signum, _frame: draining.set())
    except ValueError:  # not the main thread (embedded/test contexts)
        pass
    # The inline runner's set-up; its obs mark (taken before the bind,
    # so warm-start cost lands on the first delta) moves to this loop,
    # which ships deltas per batch rather than per file.
    bulk._init_worker(
        schema_text,
        cache_dir,
        use_verdict_cache,
        collect_obs,
        schema_location,
        lazy_roots,
    )
    worker = bulk._WORKER
    if worker["cache"] is not None:
        worker["cache"] = _HotVerdicts(worker["cache"])
    mark, worker["obs_mark"] = worker["obs_mark"], None
    # One validator answers both task kinds, so its per-schema memos
    # warm up once.
    validator = worker["streaming"]
    crash_marker = os.environ.get(CRASH_ENV) or None
    empty_polls = 0
    while True:
        try:
            task = tasks.get(timeout=0.1)
        except queue_module.Empty:
            # Drain means *drain*: tasks the parent queued just before
            # the signal may still be in flight through the queue's
            # feeder thread, so require a few consecutive empty polls
            # before trusting that the queue is truly dry.
            if draining.is_set():
                empty_polls += 1
                if empty_polls >= 3:
                    break
            continue
        empty_polls = 0
        if task is None:
            break
        kind, task_id, payload = task
        if kind == "batch":
            records = []
            for path in payload:
                if _crash_requested(path, crash_marker):
                    os._exit(17)
                records.append(bulk._validate_one(path))
            result: Any = records
        else:  # "text"
            result = text_verdict(validator, payload)
        delta = None
        if mark is not None:
            current = obs.snapshot()
            delta = diff_snapshots(current, mark)
            mark = current
        results.put((worker_id, task_id, result, delta))


class _Worker:
    __slots__ = ("process", "queue", "live")

    def __init__(self, process, queue):
        self.process = process
        self.queue = queue
        self.live = True


class _Pending:
    __slots__ = ("kind", "payload", "key", "worker", "future")

    def __init__(self, kind, payload, key, worker, future):
        self.kind = kind
        self.payload = payload
        self.key = key
        self.worker = worker
        self.future = future


class ValidationPool:
    """A session-persistent pool of warm schema-validation workers."""

    def __init__(
        self,
        schema_text: str,
        workers: int,
        *,
        cache_dir: str | None = None,
        use_verdict_cache: bool = True,
        collect_obs: bool | None = None,
        schema_location: str | None = None,
        lazy_roots: tuple[str, ...] | None = None,
    ):
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        from multiprocessing import get_context

        from repro.ingest import bulk

        if collect_obs is None:
            collect_obs = obs.enabled()
        # A schema that cannot bind must fail here, in the parent, as a
        # clean ReproError — not as a pile of dead worker processes.
        bulk._preflight_bind(schema_text, cache_dir, schema_location, lazy_roots)
        context = get_context()
        self._results = context.Queue()
        self._workers: dict[int, _Worker] = {}
        for worker_id in range(workers):
            task_queue = context.Queue()
            process = context.Process(
                target=_worker_main,
                args=(
                    worker_id,
                    schema_text,
                    cache_dir,
                    use_verdict_cache,
                    collect_obs,
                    task_queue,
                    self._results,
                    schema_location,
                    lazy_roots,
                ),
                daemon=True,
            )
            process.start()
            self._workers[worker_id] = _Worker(process, task_queue)
        self._ring = HashRing(self._workers)
        #: path -> (stat signature, worker) from the previous
        #: :meth:`place` call
        self._placed: dict[str, tuple[tuple, int]] = {}
        self._lock = threading.Lock()
        self._pending: dict[int, _Pending] = {}
        self._task_ids = itertools.count()
        self._registry = ObsRegistry()
        self._obs_mark = self._registry.snapshot()
        self._closed = False
        self._stats = {
            "workers": workers,
            "live_workers": workers,
            "batches": 0,
            "texts": 0,
            "completed": 0,
            "requeued": 0,
            "workers_lost": 0,
        }
        self._stop = threading.Event()
        self._collector = threading.Thread(
            target=self._collect, name="repro-pool-collector", daemon=True
        )
        self._collector.start()

    # -- submitting work -----------------------------------------------------

    @property
    def workers(self) -> int:
        """The configured worker count (the report's ``jobs``)."""
        return self._stats["workers"]

    def shard_of(self, path: str | os.PathLike) -> int:
        """Which live worker owns *path* right now."""
        with self._lock:
            return self._ring.lookup(os.fspath(path))

    def place(self, paths: list[str]) -> tuple[list[int], int]:
        """The worker for each of *paths*, and how many were dealt.

        Unchanged paths (same ``stat`` signature as in the previous
        call) stay on the worker they went to then, where their
        verdicts are hot; the rest are dealt evenly by size over the
        live workers (:func:`deal`).  Only this call's placements are
        kept for the next one.
        """
        signatures = [_signature(path) for path in paths]
        with self._lock:
            workers = [
                worker_id
                for worker_id, worker in self._workers.items()
                if worker.live
            ]
            if not workers:
                raise ReproError("hash ring is empty: no live workers")
            owners, dealt = deal(
                paths, signatures, self._placed, self._ring.lookup, workers
            )
            self._placed = {
                path: (signature, owner)
                for path, signature, owner in zip(paths, signatures, owners)
                if signature is not None
            }
        return owners, dealt

    def submit_batch(
        self,
        paths: list[str],
        key: str | None = None,
        worker: int | None = None,
    ) -> Future:
        """Queue one batch of document paths; resolves to the records.

        *key* is the shard key (default: the first path) — callers
        grouping paths by :meth:`shard_of` pass any path of the group so
        the whole batch lands on its shard's worker.  *worker* names the
        worker instead (a :meth:`place` result); if it is not live, the
        key decides.  A batch whose worker dies is requeued by its key.
        """
        names = [os.fspath(path) for path in paths]
        return self._submit("batch", names, key or names[0], worker)

    def submit_text(self, text: str, key: str | None = None) -> Future:
        """Queue one raw document body; resolves to the JSON verdict."""
        return self._submit("text", text, key if key is not None else text)

    def _submit(
        self, kind: str, payload, key: str, worker: int | None = None
    ) -> Future:
        future: Future = Future()
        with self._lock:
            if self._closed:
                raise ReproError("validation pool is closed")
            if worker is not None and self._workers[worker].live:
                worker_id = worker
            else:
                worker_id = self._ring.lookup(key)  # raises when all died
            task_id = next(self._task_ids)
            self._pending[task_id] = _Pending(
                kind, payload, key, worker_id, future
            )
            self._stats["batches" if kind == "batch" else "texts"] += 1
            queue = self._workers[worker_id].queue
        queue.put((kind, task_id, payload))
        return future

    # -- observing -----------------------------------------------------------

    def stats_snapshot(self) -> dict[str, Any]:
        with self._lock:
            return dict(self._stats)

    def take_obs(self) -> dict[str, Any]:
        """Worker + pool observations accumulated since the last take.

        Batch deltas and requeue/crash counters merge into a pool-local
        registry; callers (``validate_files``, the serve tier) fold the
        diff into their own reports so a shared pool never double-counts
        across runs.
        """
        current = self._registry.snapshot()
        with self._lock:
            delta = diff_snapshots(current, self._obs_mark)
            self._obs_mark = current
        return delta

    # -- the collector -------------------------------------------------------

    def _collect(self) -> None:
        while not self._stop.is_set():
            try:
                worker_id, task_id, result, delta = self._results.get(
                    timeout=_REAP_INTERVAL
                )
            except queue_module.Empty:
                self._reap_dead()
                continue
            except (EOFError, OSError):
                return  # result queue torn down under us: closing
            if delta:
                self._registry.merge(delta)
            with self._lock:
                pending = self._pending.pop(task_id, None)
                if pending is not None:
                    self._stats["completed"] += 1
            # A None here is a duplicate: the task was requeued after a
            # crash and both executions answered.  First result wins.
            if pending is not None and not pending.future.cancelled():
                pending.future.set_result(result)

    def _reap_dead(self) -> None:
        """Detect dead workers; requeue their in-flight work."""
        requeues: list[tuple[int, _Pending]] = []
        failures: list[_Pending] = []
        with self._lock:
            dead = [
                worker_id
                for worker_id, worker in self._workers.items()
                if worker.live and not worker.process.is_alive()
            ]
            if not dead:
                return
            for worker_id in dead:
                self._workers[worker_id].live = False
                self._ring.remove(worker_id)
                self._stats["workers_lost"] += 1
                self._stats["live_workers"] -= 1
                self._registry.count(
                    "ingest.pool.worker_lost", worker=worker_id
                )
            orphaned = [
                (task_id, pending)
                for task_id, pending in self._pending.items()
                if not self._workers[pending.worker].live
            ]
            if not self._ring:
                # Nothing left to requeue onto: fail every outstanding
                # future (not only the orphans — none can ever finish).
                failures = list(self._pending.values())
                self._pending.clear()
            else:
                for task_id, pending in orphaned:
                    pending.worker = self._ring.lookup(pending.key)
                    self._stats["requeued"] += 1
                    self._registry.count(
                        "ingest.pool.requeued", kind=pending.kind
                    )
                    requeues.append((task_id, pending))
        for task_id, pending in requeues:
            self._workers[pending.worker].queue.put(
                (pending.kind, task_id, pending.payload)
            )
        if failures:
            error = ReproError(
                f"all {self._stats['workers']} validation worker(s) died"
            )
            for pending in failures:
                if not pending.future.done():
                    pending.future.set_exception(error)

    # -- shutdown ------------------------------------------------------------

    def close(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the pool; with *drain* (default) finish queued work first.

        The sentinel rides *behind* queued batches on each worker's
        FIFO, so a drain close is also the flush: every batch submitted
        before ``close()`` still resolves.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            live = [
                worker for worker in self._workers.values() if worker.live
            ]
        deadline = time.monotonic() + timeout
        if drain:
            for worker in live:
                worker.queue.put(None)
            while time.monotonic() < deadline:
                with self._lock:
                    if not self._pending:
                        break
                time.sleep(0.02)
            for worker in live:
                worker.process.join(
                    max(0.1, deadline - time.monotonic())
                )
        self._stop.set()
        self._collector.join(timeout=2.0)
        for worker in self._workers.values():
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=2.0)
        with self._lock:
            leftovers = list(self._pending.values())
            self._pending.clear()
        for pending in leftovers:
            if not pending.future.done():
                pending.future.set_exception(
                    ReproError("validation pool closed with work outstanding")
                )
        for worker in self._workers.values():
            worker.queue.close()
            worker.queue.cancel_join_thread()
        self._results.close()
        self._results.cancel_join_thread()

    def __enter__(self) -> "ValidationPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
