"""Tests of the benchmark itself.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import bulk_workload  # noqa: E402
import corpus  # noqa: E402
import ingest_workload  # noqa: E402
from common import Outcome, remove_tree, work_dir  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_same_seed_gives_byte_identical_inputs():
    def snapshot(seed: int) -> list[str]:
        texts = [doc.text for doc in corpus.ingest_corpus(seed)]
        for family in corpus.FAMILIES:
            texts += [doc.text(0) for doc in corpus.family_corpus(seed, family)]
        plan = corpus.serve_plan(seed, 2000)
        texts += [f"{r.kind} {r.path} {r.variant}" for r in plan.requests]
        texts += [text for text, _ in plan.posts]
        return texts

    assert snapshot(5) == snapshot(5)
    assert snapshot(5) != snapshot(6)


def test_known_answers_agree_with_the_dom_validator():
    from repro import bind
    from repro.schemas import PURCHASE_ORDER_SCHEMA
    from repro.schemas.xhtml import XHTML_SUBSET_SCHEMA
    from repro.xsd import parse_schema_file

    docs = corpus.ingest_corpus(9)
    assert {doc.answer for doc in docs} == {corpus.VALID, corpus.INVALID, corpus.MALFORMED}
    for kind, schema_text in (("po", PURCHASE_ORDER_SCHEMA), ("xhtml", XHTML_SUBSET_SCHEMA)):
        schema = bind(schema_text).schema
        corpus.confirm_answers(schema, [(d.name, d.text, d.answer) for d in docs if d.kind == kind])
    for family in corpus.FAMILIES:
        schema = parse_schema_file(corpus.family_schema_path(ROOT, family))
        family_docs = corpus.family_corpus(9, family)
        assert sum(not doc.valid for doc in family_docs) == corpus.BULK_INVALID
        for rev in (0, 3):
            answers = [
                (doc.name, doc.text(rev), corpus.VALID if doc.valid else corpus.INVALID)
                for doc in family_docs
            ]
            corpus.confirm_answers(schema, answers)
    plan = corpus.serve_plan(9, 10)
    schema = bind(PURCHASE_ORDER_SCHEMA).schema
    corpus.confirm_answers(
        schema,
        [(str(i), text, corpus.VALID if ok else corpus.INVALID) for i, (text, ok) in enumerate(plan.posts)],
    )


def test_confirming_a_wrong_answer_fails_the_build():
    from repro import bind
    from repro.schemas import PURCHASE_ORDER_SCHEMA

    valid = next(d for d in corpus.ingest_corpus(1) if d.kind == "po" and d.answer == corpus.VALID)
    with pytest.raises(ValueError, match="DOM validator says valid"):
        corpus.confirm_answers(bind(PURCHASE_ORDER_SCHEMA).schema, [("flipped", valid.text, corpus.INVALID)])


def test_wrong_known_answer_drives_error_rate_above_zero(monkeypatch):
    scratch = work_dir(ROOT)
    try:
        ctx, _, _ = ingest_workload.prepare(os.path.join(scratch, "cache"))
        docs = corpus.ingest_corpus(4)
        honest = Outcome()
        ingest_workload.run_passes(ctx, docs, 0.0, honest)
        assert honest.attempted == len(docs) and honest.failed == 0
        victim = next(doc for doc in docs if doc.transform)
        victim.transform = victim.transform.replace("<option>", "<option>x", 1)
        wrong = next(doc for doc in docs if doc.answer == corpus.INVALID)
        wrong.answer = corpus.VALID
        broken = Outcome()
        ingest_workload.run_passes(ctx, docs, 0.0, broken)
        assert broken.failed == 2

        def boom(ctx, doc):
            raise RuntimeError("unexpected")

        monkeypatch.setattr(ingest_workload, "operate", boom)
        raising = Outcome()
        ingest_workload.run_passes(ctx, docs, 0.0, raising)
        assert raising.failed == raising.attempted == len(docs)
    finally:
        remove_tree(scratch)


def test_wrong_bulk_verdict_is_counted(monkeypatch):
    import repro.ingest
    from repro.errors import ReproError

    scratch = work_dir(ROOT)
    families = []
    try:
        families = bulk_workload.build(ROOT, 4, scratch)
        cache_dir = os.path.join(scratch, "cache")
        pools, _, _ = bulk_workload.prepare(ROOT, cache_dir)
        for family in families:
            family.pool = pools[family.name]
        families[0].docs[0].valid = not families[0].docs[0].valid
        outcome = Outcome()
        bulk_workload.one_pass(families[0], cache_dir, outcome)
        assert outcome.failed == 1 and outcome.attempted == corpus.BULK_FILES

        def boom(*args, **kwargs):
            raise ReproError("every worker died")

        monkeypatch.setattr(repro.ingest, "validate_files", boom)
        raising = Outcome()
        report, _ = bulk_workload.one_pass(families[1], cache_dir, raising)
        assert report is None and raising.failed == raising.attempted == corpus.BULK_FILES
    finally:
        bulk_workload.close_pools(families)
        remove_tree(scratch)


def test_server_lost_mid_run_counts_failures_and_still_reports(monkeypatch):
    import asyncio

    import serve_workload

    servers = []

    class Recorded(serve_workload.Server):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            servers.append(self)

    original = serve_workload.Client.open_loop

    async def open_loop(self, seconds, rate):
        # Kill the server halfway through the first open-loop window.
        asyncio.get_running_loop().call_later(seconds / 2, servers[-1].process.kill)
        return await original(self, seconds, rate)

    monkeypatch.setattr(serve_workload, "Server", Recorded)
    monkeypatch.setattr(serve_workload, "SETUP_REPEATS", 1)
    monkeypatch.setattr(serve_workload, "PLAN_REQUESTS", 2000)
    monkeypatch.setattr(serve_workload.Client, "open_loop", open_loop)
    outcome = serve_workload.run(ROOT, 2, 1.5, False)
    assert 0 < outcome.failed < outcome.attempted
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(outcome.metrics)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metric_names_match_the_spec(trace):
    result = _run("--workload", "ingest", "--seed", "3", "--seconds", "0.2", "--trace", trace)
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    wanted = [m["name"] for m in SPEC["per_layer" if trace == "1" else "end_to_end"]]
    assert list(last["metrics"]) == wanted
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"] + SPEC["end_to_end"]}
    assert all(entry["unit"] == units[name] for name, entry in last["metrics"].items())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    result = _run("--workload", "ingest", "--seed", "1", "--seconds", "1", cwd=str(tmp_path))
    assert result.returncode != 0
    assert '"metrics"' not in result.stdout
