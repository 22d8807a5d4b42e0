"""The persistent validation pool: sharding, warm reuse, crash recovery.

Byte-identity with the inline runner is the load-bearing property —
every test that exercises a pool path compares its verdicts against a
``jobs=1`` run of the same corpus.  The crash tests use the
``REPRO_POOL_CRASH_ONCE`` hook (a worker ``os._exit``s the first time
it sees a marked path), so a requeued batch *succeeds* on the sibling
worker instead of killing the pool one worker at a time.
"""

import os
import signal
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.ingest import HashRing, ValidationPool, auto_batch_size, validate_files
from repro.ingest.pool import CRASH_ENV, _HotVerdicts, deal
from repro.schemas import PURCHASE_ORDER_DOCUMENT, PURCHASE_ORDER_SCHEMA
from repro.schemas.purchase_order import PURCHASE_ORDER_INVALID_DOCUMENTS


@pytest.fixture()
def corpus(tmp_path):
    """Eight documents: six valid, one invalid, one unreadable."""
    paths = []
    for index in range(6):
        path = tmp_path / f"ok{index}.xml"
        path.write_text(PURCHASE_ORDER_DOCUMENT, encoding="utf-8")
        paths.append(path)
    bad = tmp_path / "bad.xml"
    bad.write_text(
        PURCHASE_ORDER_INVALID_DOCUMENTS["bad-sku"], encoding="utf-8"
    )
    paths.append(bad)
    paths.append(tmp_path / "missing.xml")  # never created
    return paths


def verdicts(report):
    """The order-independent, timing-independent view of a report."""
    return [
        {
            key: record[key]
            for key in ("path", "valid", "error", "error_type")
        }
        for record in report["files"]
    ]


class TestHashRing:
    def test_lookup_is_deterministic(self):
        first = HashRing(range(4))
        second = HashRing(range(4))
        keys = [f"/corpus/doc{index}.xml" for index in range(200)]
        assert [first.lookup(key) for key in keys] == [
            second.lookup(key) for key in keys
        ]

    def test_keys_spread_over_all_workers(self):
        ring = HashRing(range(4))
        keys = [f"/corpus/doc{index}.xml" for index in range(400)]
        owners = {ring.lookup(key) for key in keys}
        assert owners == {0, 1, 2, 3}

    def test_removal_moves_only_the_dead_workers_keys(self):
        ring = HashRing(range(4))
        keys = [f"/corpus/doc{index}.xml" for index in range(400)]
        before = {key: ring.lookup(key) for key in keys}
        ring.remove(2)
        after = {key: ring.lookup(key) for key in keys}
        moved = [key for key in keys if before[key] != after[key]]
        # Every moved key belonged to the removed worker, and none of
        # them landed back on it — the survivors' shards are untouched.
        assert moved, "worker 2 owned nothing out of 400 keys?"
        assert all(before[key] == 2 for key in moved)
        assert all(owner != 2 for owner in after.values())

    def test_empty_ring_raises(self):
        ring = HashRing([7])
        ring.remove(7)
        with pytest.raises(ReproError, match="no live workers"):
            ring.lookup("/any.xml")

    def test_membership_bookkeeping(self):
        ring = HashRing()
        assert not ring and len(ring) == 0
        ring.add(1)
        ring.add(1)  # idempotent
        assert ring.members == frozenset({1})
        ring.remove(9)  # unknown: no-op
        assert len(ring) == 1


class TestAutoBatchSize:
    def test_four_batches_per_worker(self):
        assert auto_batch_size(100, 4) == 6
        assert auto_batch_size(40, 2) == 5
        assert auto_batch_size(8, 2) == 1

    def test_floors_at_one(self):
        assert auto_batch_size(1, 4) == 1
        assert auto_batch_size(0, 4) == 1
        assert auto_batch_size(10, 0) == 2  # degenerate worker count


class TestPooledVerdicts:
    def test_pooled_matches_inline_exactly(self, corpus):
        inline = validate_files(PURCHASE_ORDER_SCHEMA, corpus, jobs=1)
        pooled = validate_files(
            PURCHASE_ORDER_SCHEMA, corpus, jobs=2, clamp_jobs=False
        )
        assert verdicts(pooled) == verdicts(inline)
        assert pooled["pool"]["completed"] == pooled["pool"]["batches"]
        assert pooled["pool"]["requeued"] == 0
        assert pooled["batch_size"] == auto_batch_size(len(corpus), 2)

    def test_explicit_batch_size_is_respected(self, corpus):
        inline = validate_files(PURCHASE_ORDER_SCHEMA, corpus, jobs=1)
        pooled = validate_files(
            PURCHASE_ORDER_SCHEMA, corpus, jobs=2, clamp_jobs=False,
            batch_size=1,
        )
        assert pooled["batch_size"] == 1
        assert pooled["pool"]["batches"] == len(corpus)
        assert verdicts(pooled) == verdicts(inline)

    def test_inline_report_has_no_pool_section(self, corpus):
        report = validate_files(PURCHASE_ORDER_SCHEMA, corpus, jobs=1)
        assert report["batch_size"] is None
        assert "pool" not in report

    def test_shared_pool_is_reused_and_left_open(self, corpus, tmp_path):
        cache_dir = str(tmp_path / "cache")
        with ValidationPool(
            PURCHASE_ORDER_SCHEMA, 2, cache_dir=cache_dir
        ) as pool:
            first = validate_files(
                PURCHASE_ORDER_SCHEMA, corpus, cache_dir=cache_dir, pool=pool
            )
            second = validate_files(
                PURCHASE_ORDER_SCHEMA, corpus, cache_dir=cache_dir, pool=pool
            )
            # The pool survived the first call and accumulated stats.
            assert second["pool"]["batches"] > first["pool"]["batches"]
            assert verdicts(second) == verdicts(first)
            # Same documents, same schema: the second run answers from
            # the (worker-local + persistent) verdict cache.
            assert second["summary"]["cached"] == 7
            # Held reports share the caller's path strings.
            names = [str(path) for path in corpus]
            third = validate_files(
                PURCHASE_ORDER_SCHEMA, names, cache_dir=cache_dir, pool=pool
            )
            assert all(
                record["path"] is name
                for record, name in zip(third["files"], names)
            )

    def test_pool_param_overrides_jobs(self, corpus):
        with ValidationPool(PURCHASE_ORDER_SCHEMA, 2) as pool:
            report = validate_files(
                PURCHASE_ORDER_SCHEMA, corpus, jobs=5, pool=pool
            )
            assert report["jobs"] == 2
            assert report["jobs_requested"] == 5

    def test_sharding_routes_a_path_to_its_worker(self, corpus):
        with ValidationPool(PURCHASE_ORDER_SCHEMA, 2) as pool:
            shards = {pool.shard_of(path) for path in corpus}
            assert shards <= {0, 1}
            # Deterministic: asking twice answers the same.
            assert [pool.shard_of(p) for p in corpus] == [
                pool.shard_of(p) for p in corpus
            ]

    def test_submit_text_verdict_matches_streaming_validator(self):
        from repro.core import bind
        from repro.errors import XmlSyntaxError
        from repro.xsd import StreamingValidator
        from repro.xsd.stream import error_entry

        bad = PURCHASE_ORDER_DOCUMENT.replace(
            "<city>Mill Valley</city>", "<bogus>x</bogus>", 1
        )
        validator = StreamingValidator(bind(PURCHASE_ORDER_SCHEMA).schema)

        def inline(text):
            try:
                errors = validator.validate_text(text)
            except XmlSyntaxError as error:
                errors = [error]
            return {
                "valid": not errors,
                "errors": [error_entry(error) for error in errors],
            }

        with ValidationPool(PURCHASE_ORDER_SCHEMA, 1) as pool:
            for text in (PURCHASE_ORDER_DOCUMENT, bad, "<a><b></a>"):
                assert pool.submit_text(text).result(timeout=30) == inline(
                    text
                )

    def test_submit_after_close_raises(self):
        pool = ValidationPool(PURCHASE_ORDER_SCHEMA, 1)
        pool.close()
        with pytest.raises(ReproError, match="closed"):
            pool.submit_text("<a/>")

    def test_unbindable_schema_fails_in_the_parent(self, tmp_path):
        with pytest.raises(ReproError, match="not-a-schema"):
            ValidationPool("<not-a-schema/>", 2)


def _shard(name):
    """A stand-in ring: the shard is the path's trailing number mod 2."""
    return int(name.rsplit("/", 1)[1]) % 2


class TestPlacement:
    def test_unchanged_paths_stay_home(self):
        names = [f"/corpus/{index}" for index in range(20)]
        before = [(1, 100 + index, index) for index in range(20)]
        # Home is the worker a path went to last time: here the opposite
        # of its shard, and worker 2 for two paths.
        homes = [1 - _shard(name) for name in names]
        homes[5] = homes[6] = 2
        previous = {
            name: (signature, home)
            for name, signature, home in zip(names, before, homes)
        }
        now = list(before)
        now[3] = (2, 103, 3)  # rewritten: new mtime
        now[8] = (1, 999, 8)  # rewritten: new size
        now[11] = None  # gone
        owners, dealt = deal(names, now, previous, _shard, [0, 1])
        assert dealt == 3
        for index, name in enumerate(names):
            if index in (5, 6):
                # Worker 2 died: the ring decides.
                assert owners[index] == _shard(name)
            elif index not in (3, 8, 11):
                assert owners[index] == homes[index]
        # Largest first to the emptier worker, ties to the earlier one.
        assert (owners[8], owners[3], owners[11]) == (0, 1, 1)

    def test_a_first_call_deals_everything(self):
        names = [f"/corpus/{index}" for index in range(6)]
        sizes = [(1, size, index) for index, size in enumerate([5, 1, 4, 2, 3, 0])]
        owners, dealt = deal(names, sizes, {}, _shard, [0, 1, 2])
        assert dealt == 6
        # 5 -> w0, 4 -> w1, 3 -> w2, 2 -> w2, 1 -> w1, 0 -> w0 (a tie).
        assert owners == [0, 1, 1, 2, 2, 0]

    @settings(max_examples=200, deadline=None)
    @given(
        sizes=st.lists(st.integers(0, 10**6), min_size=1, max_size=60),
        workers=st.integers(1, 6),
        unchanged=st.lists(st.booleans(), min_size=60, max_size=60),
    )
    def test_dealt_bytes_differ_by_at_most_the_largest_file(
        self, sizes, workers, unchanged
    ):
        names = [f"/corpus/{index}" for index in range(len(sizes))]
        signatures = [(7, size, index) for index, size in enumerate(sizes)]
        previous = {
            name: (signature, index % workers)
            for index, (name, signature, same) in enumerate(
                zip(names, signatures, unchanged)
            )
            if same
        }
        owners, dealt = deal(
            names, signatures, previous, _shard, list(range(workers))
        )
        loads = [0] * workers
        largest = 0
        for index, name in enumerate(names):
            if name in previous:
                assert owners[index] == previous[name][1]
            else:
                loads[owners[index]] += sizes[index]
                largest = max(largest, sizes[index])
        assert dealt == len(names) - len(previous)
        assert max(loads) - min(loads) <= largest

    def test_a_rewritten_shard_is_split_across_both_workers(
        self, tmp_path, monkeypatch
    ):
        from repro import obs

        paths = []
        for index in range(24):
            path = tmp_path / f"doc{index}.xml"
            path.write_text(PURCHASE_ORDER_DOCUMENT, encoding="utf-8")
            paths.append(str(path))
        with ValidationPool(PURCHASE_ORDER_SCHEMA, 2) as pool:
            batches = []
            submit = pool.submit_batch

            def spy(names, key=None, worker=None):
                batches.append((worker, names))
                return submit(names, key=key, worker=worker)

            monkeypatch.setattr(pool, "submit_batch", spy)
            first = validate_files(
                PURCHASE_ORDER_SCHEMA, paths, pool=pool, collect_obs=True
            )
            assert first["obs"]["counters"]["ingest.bulk.dealt"] == 24
            batches.clear()
            again = validate_files(
                PURCHASE_ORDER_SCHEMA, paths, pool=pool, collect_obs=True
            )
            assert "ingest.bulk.dealt" not in again["obs"]["counters"]
            # Worker 0's shard: the paths it holds, which stayed home.
            shard = [name for worker, names in batches if worker == 0 for name in names]
            assert 2 <= len(shard) < len(paths)
            for path in shard:
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(
                        PURCHASE_ORDER_DOCUMENT.replace("Alice Smith", "Alice Smithson")
                    )
            batches.clear()
            report = validate_files(
                PURCHASE_ORDER_SCHEMA, paths, pool=pool, collect_obs=True
            )
        obs.disable()
        obs.reset()
        assert report["obs"]["counters"]["ingest.bulk.dealt"] == len(shard)
        rewritten = {
            worker for worker, names in batches for name in names if name in shard
        }
        assert rewritten == {0, 1}
        assert verdicts(report) == verdicts(
            validate_files(PURCHASE_ORDER_SCHEMA, paths, jobs=1)
        )


class TestHotVerdicts:
    def test_one_entry_per_path(self):
        class Store:
            def __init__(self):
                self.verdicts = {}

            def get(self, path, key):
                return self.verdicts.get(key)

            def put(self, path, key, verdict):
                self.verdicts[key] = verdict

        store = Store()
        hot = _HotVerdicts(store)
        for revision in range(10):
            key = f"revision-{revision}"
            assert hot.get("/corpus/a.xml", key) is None
            hot.put("/corpus/a.xml", key, {"valid": revision % 2 == 0})
            assert hot.get("/corpus/a.xml", key) == {"valid": revision % 2 == 0}
        assert len(hot._memo) == 1
        # An older revision still answers, through the persistent store.
        assert hot.get("/corpus/a.xml", "revision-3") == {"valid": False}
        assert len(hot._memo) == 1


class TestCrashRecovery:
    def test_killed_worker_batch_is_requeued(
        self, corpus, tmp_path, monkeypatch
    ):
        inline = validate_files(PURCHASE_ORDER_SCHEMA, corpus, jobs=1)
        # Any worker that picks up a batch containing a marked path dies
        # hard exactly once (per document); the sibling finishes it.
        monkeypatch.setenv(CRASH_ENV, "ok3")
        pooled = validate_files(
            PURCHASE_ORDER_SCHEMA, corpus, jobs=2, clamp_jobs=False,
            batch_size=len(corpus),  # one batch per shard
        )
        assert verdicts(pooled) == verdicts(inline)
        assert pooled["pool"]["workers_lost"] >= 1
        assert pooled["pool"]["requeued"] >= 1
        assert pooled["pool"]["live_workers"] < pooled["pool"]["workers"]

    def test_crash_counters_land_in_obs(self, corpus, monkeypatch):
        from repro import obs

        monkeypatch.setenv(CRASH_ENV, "ok3")
        report = validate_files(
            PURCHASE_ORDER_SCHEMA, corpus, jobs=2, clamp_jobs=False,
            batch_size=len(corpus), collect_obs=True,
        )
        counters = report["obs"]["counters"]
        lost = sum(
            count
            for key, count in counters.items()
            if key.startswith("ingest.pool.worker_lost")
        )
        requeued = sum(
            count
            for key, count in counters.items()
            if key.startswith("ingest.pool.requeued")
        )
        assert lost >= 1
        assert requeued >= 1
        obs.disable()
        obs.reset()

    def test_all_workers_dead_fails_outstanding_futures(
        self, tmp_path, monkeypatch
    ):
        doc = tmp_path / "doomed-ok.xml"
        doc.write_text(PURCHASE_ORDER_DOCUMENT, encoding="utf-8")
        monkeypatch.setenv(CRASH_ENV, "doomed")
        with ValidationPool(PURCHASE_ORDER_SCHEMA, 1) as pool:
            future = pool.submit_batch([doc])
            with pytest.raises(ReproError, match="worker\\(s\\) died"):
                future.result(timeout=30)
            # The ring is empty: new submissions fail immediately.
            with pytest.raises(ReproError, match="no live workers"):
                pool.submit_batch([doc])


class TestShutdown:
    def test_close_drains_queued_batches(self, corpus):
        pool = ValidationPool(PURCHASE_ORDER_SCHEMA, 2)
        futures = [pool.submit_batch([path]) for path in corpus]
        pool.close()  # drain=True: everything submitted still resolves
        records = [future.result(timeout=5) for future in futures]
        assert [r[0]["path"] for r in records] == [
            os.fspath(path) for path in corpus
        ]

    def test_sigterm_lets_workers_drain_their_queues(self, corpus):
        pool = ValidationPool(PURCHASE_ORDER_SCHEMA, 2)
        try:
            futures = [pool.submit_batch([path]) for path in corpus]
            for worker in pool._workers.values():
                os.kill(worker.process.pid, signal.SIGTERM)
            # Every batch submitted before the signal still answers.
            records = [future.result(timeout=30) for future in futures]
            assert all(len(batch) == 1 for batch in records)
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if not any(
                    worker.process.is_alive()
                    for worker in pool._workers.values()
                ):
                    break
                time.sleep(0.05)
            assert not any(
                worker.process.is_alive()
                for worker in pool._workers.values()
            ), "SIGTERMed workers must exit once their queues are dry"
        finally:
            pool.close(drain=False)
