"""The ``serve`` workload's server process.

Usage: ``python3 perfbench/server_main.py ROOT CACHE_DIR [CACHE_ENTRIES]``

Cold-binds ``examples/site/purchase_order.xsd`` into CACHE_DIR, compiles
the ``examples/site`` routes plus the 450-hole ``/order`` route, starts a
``ReproServer`` on a free loopback port with the default response cache
(or one of CACHE_ENTRIES entries; 0 serves uncached) and ``schema=`` set
(so ``POST /-/validate`` validates inline), prints one JSON readiness
line with its port and phase timings, and serves until SIGTERM, then
drains.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time


async def main(root: str, cache_dir: str, cache_entries: str | None = None) -> None:
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from corpus import HEAVY_SOURCE
    from repro import ReproCache, Template
    from repro.serve import ReproServer, build_routes
    from repro.serve.cache import DEFAULT_MAX_ENTRIES

    started = time.perf_counter()
    site = os.path.join(root, "examples", "site")
    schema_path = os.path.join(site, "purchase_order.xsd")
    with open(schema_path, encoding="utf-8") as handle:
        schema_text = handle.read()
    cache = ReproCache(cache_dir)
    binding = cache.bind(schema_text, location=schema_path)
    bound = time.perf_counter()
    routes = build_routes(binding, site, cache=cache)
    routes.add_template("/order", Template(binding, HEAVY_SOURCE, cache=cache), name="order")
    compiled = time.perf_counter()
    entries = DEFAULT_MAX_ENTRIES if cache_entries is None else int(cache_entries)
    server = ReproServer(routes, port=0, schema=binding.schema, cache_entries=entries)
    await server.start()
    listening = time.perf_counter()
    ready = {
        "port": server.port,
        "bind_ms": (bound - started) * 1000,
        "compile_ms": (compiled - bound) * 1000,
        "listen_ms": (listening - compiled) * 1000,
    }
    print(json.dumps(ready), flush=True)
    await server.run()


if __name__ == "__main__":
    asyncio.run(main(*sys.argv[1:4]))
