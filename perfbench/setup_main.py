"""One set-up of the ``ingest`` or ``bulk_validate`` workload, in a fresh
interpreter.

Usage: ``python3 perfbench/setup_main.py ingest|bulk_validate ROOT CACHE_DIR``

Imports the program, runs the workload's ``prepare`` against the empty
CACHE_DIR (cold binds and template compiles; for ``bulk_validate`` also
each family's warm ``ValidationPool``), prints one JSON line with the
phase timings in ms, then closes what it opened and exits.  The parent
times the set-up from spawn to that line.
"""

from __future__ import annotations

import json
import os
import sys


def main(workload: str, root: str, cache_dir: str) -> None:
    sys.path.insert(0, os.path.join(root, "src"))
    if workload == "ingest":
        import ingest_workload

        _, bind_s, compile_s = ingest_workload.prepare(cache_dir)
        print(json.dumps({"bind_ms": bind_s * 1000, "compile_ms": compile_s * 1000}), flush=True)
        return
    import bulk_workload

    pools, binds, starts = bulk_workload.prepare(root, cache_dir)
    try:
        print(
            json.dumps({"bind_ms": [s * 1000 for s in binds], "start_ms": [s * 1000 for s in starts]}),
            flush=True,
        )
    finally:
        for pool in pools.values():
            pool.close()


if __name__ == "__main__":
    main(*sys.argv[1:4])
