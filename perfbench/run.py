"""The repository's end-to-end benchmark: one command, one seed.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
the program's observability switched off.  ``--trace 1`` is the separate
traced run: it prints every per-layer metric, measured on the named
workload for its full time and on the other workloads briefly, plus the
tracing overhead (the gap between traced and untraced throughput).

Lines before the last one are for people: the environment stamp and one
line per metric with its unit and sample count.  The last line is the
JSON result.  The exit code is 0 only when a result was printed; it is
non-zero when the program under test (``src/repro``) or the inputs it
needs are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("ingest", "bulk_validate", "serve")
#: seconds each other workload gets in a traced run
TRACE_SIDE_SECONDS = 2.0


def _workload(name: str):
    if name == "ingest":
        import ingest_workload as module
    elif name == "bulk_validate":
        import bulk_workload as module
    else:
        import serve_workload as module
    return module


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program under test at {ROOT}/src/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.environ.pop("REPRO_OBS", None)  # end-to-end numbers run untraced

    import common

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    env = common.environment()
    print("env " + json.dumps(env, sort_keys=True))
    outcome = _workload(args.workload).run(ROOT, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        # Every per-layer metric is printed on every workload: the named
        # workload's own layers at full length, the others' briefly, so a
        # change to one layer shows on all three traced runs.
        for other in WORKLOADS:
            if other == args.workload:
                continue
            side = _workload(other).run(ROOT, args.seed, TRACE_SIDE_SECONDS, True)
            outcome.attempted += side.attempted
            outcome.failed += side.failed
            outcome.failures.extend(side.failures)
            for name, entry in side.metrics.items():
                outcome.metrics.setdefault(name, entry)

    missing = [name for name in wanted if name not in outcome.metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 3
    for name in wanted:
        value, unit, samples = outcome.metrics[name]
        raw = f"; raw {outcome.raw[name]:.6g}" if name in outcome.raw else ""
        print(f"metric {args.workload} {name} = {value:.6g} {unit} (n={samples}{raw})")
    error_rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"error_rate {args.workload} = {error_rate:.6g} ({outcome.failed}/{outcome.attempted})")
    for failure in outcome.failures:
        print(f"failure {failure}")
    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name][0], "unit": outcome.metrics[name][1]}
            for name in wanted
        },
    }
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
