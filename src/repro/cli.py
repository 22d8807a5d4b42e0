"""Command-line interface: ``vdom-generate``.

Subcommands mirror the paper's tooling:

* ``idl <schema.xsd>``        — print generated V-DOM interfaces (Fig. 6),
* ``python <schema.xsd>``     — print the generated Python binding module,
* ``validate <schema> <doc…>`` — runtime-validate documents with the
  streaming validator; several documents (or ``--jobs N`` /
  ``--report``) switch to the bulk pipeline with warm-started worker
  processes, which gives every document the same verdict,
* ``preprocess <schema> <m>`` — run the P-XML preprocessor on a module
  (Fig. 9), printing the rewritten source,
* ``query <schema> <doc> <path>`` — run a schema-typed path query over a
  document (a path the schema can never satisfy is a compile error, not
  an empty result),
* ``transform <schema> <doc>``   — apply a typed query→template transform,
  emitting one output fragment per hit through the segment pipeline,
* ``serve <schema> <dir>``    — serve a directory of compiled pages
  (``*.pxml`` templates, ``*.page`` server pages) over HTTP,
* ``cache stats|clear``       — inspect or empty the compilation cache.

Schema compilation is cached persistently: ``--cache-dir`` (or the
``REPRO_CACHE_DIR`` environment variable) names the directory, which
defaults to ``.repro-cache``; ``--no-cache`` disables the cache for one
invocation.

``--stats`` / ``--stats-json PATH`` (accepted both before and after the
subcommand) switch :mod:`repro.obs` on for the run and report which
pipeline routes actually executed — cache hit vs. recompile, turbo lane
vs. restart, segment vs. DOM render — as a human table on stderr and/or
a JSON artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro import obs
from repro.errors import ReproError
from repro.xsd import StreamingValidator
from repro.core import bind, generate_interfaces, normalize, render_idl
from repro.core.generate import ChoiceStrategy
from repro.core.pygen import generate_python_module
from repro.cache import ReproCache
from repro.pxml import preprocess_module


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _add_stats_flags(parser: argparse.ArgumentParser, top_level: bool) -> None:
    """``--stats``/``--stats-json`` on the main parser *and* every
    subcommand: subparser defaults are SUPPRESS so a value given before
    the subcommand is not clobbered by the subparser's defaults."""
    parser.add_argument(
        "--stats",
        action="store_true",
        help="collect pipeline observability counters (repro.obs) and "
        "print them as a table on stderr",
        **({} if top_level else {"default": argparse.SUPPRESS}),
    )
    parser.add_argument(
        "--stats-json",
        metavar="PATH",
        help="collect pipeline observability counters and write the "
        "JSON snapshot to PATH ('-' for stdout)",
        **({"default": None} if top_level else {"default": argparse.SUPPRESS}),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="vdom-generate",
        description="V-DOM / P-XML tooling (Kempa & Linnemann, EDBT 2002)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="compilation cache directory (default: $REPRO_CACHE_DIR "
        "or .repro-cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="compile from scratch, ignoring any cache",
    )
    _add_stats_flags(parser, top_level=True)
    commands = parser.add_subparsers(dest="command", required=True)

    idl = commands.add_parser("idl", help="print generated IDL interfaces")
    idl.add_argument("schema")
    idl.add_argument(
        "--unions",
        action="store_true",
        help="use the Fig. 5 union strategy instead of inheritance",
    )

    python_command = commands.add_parser(
        "python", help="print the generated Python binding module"
    )
    python_command.add_argument("schema")

    validate_command = commands.add_parser(
        "validate",
        help="validate documents against a schema with the streaming "
        "validator (several documents or --jobs/--report switch to the "
        "bulk pipeline, with the same verdicts)",
    )
    validate_command.add_argument("schema")
    validate_command.add_argument("documents", nargs="+")
    validate_command.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="validate with N worker processes (bulk mode; workers "
        "warm-start their schema binding from the compilation cache); "
        "0 means one per CPU, and requests beyond the CPU count are "
        "clamped down",
    )
    validate_command.add_argument(
        "--batch-size",
        type=int,
        default=None,
        metavar="N",
        help="documents per pool batch (bulk mode; default: auto, "
        "files/jobs/4 — batches amortize queue round-trips and ship "
        "one obs delta each)",
    )
    validate_command.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="write the bulk-mode JSON report to PATH ('-' for stdout)",
    )
    validate_command.add_argument(
        "--lazy",
        action="store_true",
        help="bulk mode: sniff each document's root element and bind "
        "only the schema subset those roots reach (per-subset cached "
        "artifact; falls back to the full binding when a root cannot "
        "be sniffed)",
    )

    preprocess_command = commands.add_parser(
        "preprocess", help="statically check and rewrite a P-XML module"
    )
    preprocess_command.add_argument("schema")
    preprocess_command.add_argument("module")

    render_command = commands.add_parser(
        "render",
        help="render a P-XML template straight to markup text "
        "(the segment-compiled serving path)",
    )
    render_command.add_argument("schema")
    render_command.add_argument("template")
    render_command.add_argument(
        "--hole",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="value for one template hole (repeatable)",
    )
    render_command.add_argument(
        "--dom",
        action="store_true",
        help="build the typed DOM tree and serialize it instead "
        "(reference path; output is byte-identical)",
    )

    query_command = commands.add_parser(
        "query",
        help="run a schema-typed path query over a document (impossible "
        "paths are compile errors, not empty results)",
    )
    query_command.add_argument("schema")
    query_command.add_argument("document")
    query_command.add_argument(
        "path",
        help="relative path from the document root, e.g. "
        "items/item[@partNum='872-AA']/productName, "
        "//shipDate, items/item/@partNum",
    )

    transform_command = commands.add_parser(
        "transform",
        help="apply a typed query→template transform to a document, "
        "printing one output fragment per hit (segment pipeline)",
    )
    transform_command.add_argument("schema")
    transform_command.add_argument("document")
    transform_command.add_argument(
        "--query",
        required=True,
        metavar="PATH",
        dest="query_path",
        help="path query selecting the hits (relative to the document root)",
    )
    transform_command.add_argument(
        "--template",
        required=True,
        metavar="FILE",
        help="template source file checked against the output schema",
    )
    transform_command.add_argument(
        "--hole",
        required=True,
        metavar="NAME",
        help="template hole each query hit fills",
    )
    transform_command.add_argument(
        "--out-schema",
        default=None,
        metavar="FILE",
        help="schema the output is valid against (default: the input schema)",
    )
    transform_command.add_argument(
        "--dom",
        action="store_true",
        help="build each fragment as a typed DOM tree and serialize it "
        "instead (reference path; output is byte-identical)",
    )

    serve_command = commands.add_parser(
        "serve",
        help="serve a directory of compiled pages over HTTP "
        "(*.pxml validated templates and *.page server pages; "
        "runs until SIGTERM, then drains gracefully)",
    )
    serve_command.add_argument("schema")
    serve_command.add_argument("directory")
    serve_command.add_argument(
        "--host", default="127.0.0.1", help="address to bind (default: %(default)s)"
    )
    serve_command.add_argument(
        "--port",
        type=int,
        default=8080,
        help="port to bind; 0 picks a free port (default: %(default)s)",
    )
    serve_command.add_argument(
        "--max-connections",
        type=int,
        default=64,
        metavar="N",
        help="serve at most N connections concurrently; further ones "
        "queue (default: %(default)s)",
    )
    serve_command.add_argument(
        "--request-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="per-request read budget before a 408 (default: %(default)s)",
    )
    response_cache = serve_command.add_mutually_exclusive_group()
    response_cache.add_argument(
        "--cache",
        dest="response_cache",
        action="store_true",
        default=True,
        help="cache rendered responses keyed on typed hole values, "
        "with ETag/If-None-Match 304 revalidation, and POST /-/validate "
        "verdicts keyed on the body's digest (default)",
    )
    response_cache.add_argument(
        "--no-cache",
        dest="response_cache",
        action="store_false",
        help="render and validate every request (disables only the "
        "response and verdict caches; the top-level --no-cache controls "
        "the compilation cache)",
    )
    serve_command.add_argument(
        "--cache-entries",
        type=int,
        default=512,
        metavar="N",
        help="capacity of the response cache and of the verdict cache, "
        "in entries each (default: %(default)s)",
    )
    serve_command.add_argument(
        "--validate-pool",
        type=int,
        default=0,
        metavar="N",
        help="fan POST /-/validate out to N persistent warm worker "
        "processes (0 = validate inline on the event loop; requests "
        "beyond the CPU count are clamped down, 0 workers per the "
        "--jobs convention is not accepted here)",
    )

    cache_command = commands.add_parser(
        "cache", help="inspect or clear the compilation cache"
    )
    cache_command.add_argument("action", choices=["stats", "clear"])

    for sub in (
        idl,
        python_command,
        validate_command,
        preprocess_command,
        render_command,
        query_command,
        transform_command,
        serve_command,
        cache_command,
    ):
        _add_stats_flags(sub, top_level=False)

    arguments = parser.parse_args(argv)
    if arguments.stats or arguments.stats_json:
        obs.enable(reset=True)
    try:
        exit_code = _dispatch(arguments)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        exit_code = 1
    _emit_stats(arguments)
    return exit_code


def _emit_stats(arguments: argparse.Namespace) -> None:
    """Write the obs snapshot wherever ``--stats``/``--stats-json`` asked.

    Runs on error exits too: a failing pipeline is exactly when the
    route counters are most interesting.
    """
    if not (arguments.stats or arguments.stats_json):
        return
    snapshot = obs.snapshot()
    if arguments.stats:
        print(obs.render_table(snapshot), file=sys.stderr)
    if arguments.stats_json == "-":
        json.dump(snapshot, sys.stdout, indent=2, sort_keys=True)
        print()
    elif arguments.stats_json is not None:
        with open(arguments.stats_json, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)


def _make_cache(arguments: argparse.Namespace) -> ReproCache | None:
    if arguments.no_cache:
        return None
    from repro.errors import CacheError

    try:
        return ReproCache.persistent(arguments.cache_dir)
    except CacheError:
        # Unwritable directory: still run, just without persistence.
        return ReproCache()


def _bulk_validate(
    arguments: argparse.Namespace, schema_text: str, cache: ReproCache | None
) -> int:
    """``validate`` in bulk mode: the streaming validator over a file
    list, inline or on a warm worker pool."""
    from repro.ingest import validate_files

    report = validate_files(
        schema_text,
        arguments.documents,
        jobs=arguments.jobs,
        cache_dir=cache.directory if cache is not None else None,
        schema_label=arguments.schema,
        batch_size=arguments.batch_size,
        schema_location=os.path.abspath(arguments.schema),
        lazy=getattr(arguments, "lazy", False),
    )
    for record in report["files"]:
        if record["valid"]:
            note = " (cached)" if record["cached"] else ""
            print(f"ok   {record['path']} [{record['ms']}ms]{note}")
        else:
            print(f"FAIL {record['path']}: {record['error']}")
    summary = report["summary"]
    print(
        f"{summary['documents']} document(s): {summary['valid']} valid, "
        f"{summary['invalid']} invalid "
        f"({report['jobs']} job(s), {summary['elapsed_ms']}ms)"
    )
    if arguments.report == "-":
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        print()
    elif arguments.report is not None:
        with open(arguments.report, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"report written to {arguments.report}")
    return 0 if summary["invalid"] == 0 else 1


def _dispatch(arguments: argparse.Namespace) -> int:
    cache = _make_cache(arguments)
    if arguments.command == "idl":
        strategy = (
            ChoiceStrategy.UNION if arguments.unions
            else ChoiceStrategy.INHERITANCE
        )
        text = _read(arguments.schema)
        schema_location = os.path.abspath(arguments.schema)
        if cache is not None:
            binding = cache.bind(
                text, choice_strategy=strategy, location=schema_location
            )
            print(render_idl(binding.model), end="")
        else:
            from repro.xsd import parse_schema

            schema = parse_schema(text, location=schema_location)
            normalize(schema)
            print(render_idl(generate_interfaces(schema, strategy)), end="")
        return 0
    if arguments.command == "python":
        print(generate_python_module(_read(arguments.schema)), end="")
        return 0
    if arguments.command == "validate":
        text = _read(arguments.schema)
        bulk = (
            len(arguments.documents) > 1
            or arguments.jobs != 1
            or arguments.report is not None
        )
        if bulk:
            return _bulk_validate(arguments, text, cache)
        schema_location = os.path.abspath(arguments.schema)
        if cache is not None:
            schema = cache.schema(text, location=schema_location)
        else:
            from repro.xsd import parse_schema

            schema = parse_schema(text, location=schema_location)
        errors = StreamingValidator(schema).validate_text(
            _read(arguments.documents[0])
        )
        for error in errors:
            print(error)
        print(f"{len(errors)} error(s)")
        return 0 if not errors else 1
    if arguments.command == "preprocess":
        binding = bind(
            _read(arguments.schema),
            cache=cache,
            location=os.path.abspath(arguments.schema),
        )
        result = preprocess_module(_read(arguments.module), binding)
        print(result.source, end="")
        print(
            f"# {result.replaced} constructor(s) replaced",
            file=sys.stderr,
        )
        return 0
    if arguments.command == "render":
        from repro.pxml import Template

        binding = bind(
            _read(arguments.schema),
            cache=cache,
            location=os.path.abspath(arguments.schema),
        )
        template = Template(binding, _read(arguments.template), cache=cache)
        values: dict[str, str] = {}
        for item in arguments.hole:
            name, separator, value = item.partition("=")
            if not separator:
                print(
                    f"error: --hole expects NAME=VALUE, got {item!r}",
                    file=sys.stderr,
                )
                return 2
            values[name] = value
        if arguments.dom:
            from repro.dom.serialize import serialize

            print(serialize(template.render(**values)))
        else:
            print(template.render_text(**values))
        return 0
    if arguments.command == "query":
        from repro.dom.serialize import serialize
        from repro.ingest import parse_typed
        from repro.query import Query

        binding = bind(
            _read(arguments.schema),
            cache=cache,
            location=os.path.abspath(arguments.schema),
        )
        typed = parse_typed(
            binding, _read(arguments.document), arguments.document
        )
        # Compiling the query typechecks the path against the schema: a
        # path no instance could satisfy raises QueryError here, before
        # any tree is walked.
        query = Query(binding, typed.tag_name, arguments.path)
        hits = query.apply(typed)
        if query.result_kind == "attribute-values":
            for value in hits:
                print(value)
        else:
            for hit in hits:
                print(serialize(hit))
        print(f"{len(hits)} hit(s)", file=sys.stderr)
        return 0
    if arguments.command == "transform":
        from repro.ingest import parse_typed
        from repro.query import Query, TypedTransform

        binding_in = bind(
            _read(arguments.schema),
            cache=cache,
            location=os.path.abspath(arguments.schema),
        )
        if arguments.out_schema is not None:
            binding_out = bind(
                _read(arguments.out_schema),
                cache=cache,
                location=os.path.abspath(arguments.out_schema),
            )
        else:
            binding_out = binding_in
        typed = parse_typed(
            binding_in, _read(arguments.document), arguments.document
        )
        compiled = TypedTransform(
            binding_out,
            Query(binding_in, typed.tag_name, arguments.query_path),
            _read(arguments.template),
            arguments.hole,
            cache=cache,
        )
        if arguments.dom:
            from repro.dom.serialize import serialize

            pieces = [serialize(item) for item in compiled.apply(typed)]
        else:
            pieces = compiled.apply_text(typed)
        for piece in pieces:
            print(piece)
        print(f"{len(pieces)} fragment(s)", file=sys.stderr)
        return 0
    if arguments.command == "serve":
        import asyncio

        from repro.serve import ReproServer, build_routes

        schema_text = _read(arguments.schema)
        schema_location = os.path.abspath(arguments.schema)
        binding = bind(schema_text, cache=cache, location=schema_location)
        routes = build_routes(binding, arguments.directory, cache=cache)
        validate_pool = None
        if arguments.validate_pool > 0:
            from repro.ingest import ValidationPool, effective_jobs

            pool_workers = effective_jobs(arguments.validate_pool)
            validate_pool = ValidationPool(
                schema_text,
                pool_workers,
                cache_dir=cache.directory if cache is not None else None,
                schema_location=schema_location,
            )
        server = ReproServer(
            routes,
            arguments.host,
            arguments.port,
            max_connections=arguments.max_connections,
            request_timeout=arguments.request_timeout,
            cache_entries=(
                arguments.cache_entries if arguments.response_cache else 0
            ),
            schema=binding.schema,
            validate_pool=validate_pool,
        )

        async def _serve() -> None:
            await server.start()
            # The "listening" line doubles as the readiness signal for
            # scripts that wait on our stdout before probing.
            cache_state = (
                f"cache {server.cache.max_entries} entries"
                if server.cache is not None
                else "cache off"
            )
            print(
                f"serving {len(routes)} route(s) on "
                f"http://{server.host}:{server.port}/ "
                f"({cache_state})",
                flush=True,
            )
            for path in routes.paths():
                print(f"  route {path}", flush=True)
            print("  route /-/validate (POST)", flush=True)
            if validate_pool is not None:
                print(
                    f"  validate pool: {validate_pool.workers} "
                    "warm worker(s)",
                    flush=True,
                )
            await server.run()

        try:
            asyncio.run(_serve())
        finally:
            if validate_pool is not None:
                validate_pool.close()
        return 0
    if arguments.command == "cache":
        store_cache = cache if cache is not None else ReproCache.persistent(
            arguments.cache_dir
        )
        if arguments.action == "clear":
            removed = store_cache.clear()
            print(f"removed {removed} cache entr{'y' if removed == 1 else 'ies'}")
            return 0
        report = dict(store_cache.stats.as_dict())
        report["directory"] = store_cache.directory
        report["entries"] = len(store_cache)
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    raise AssertionError(f"unknown command {arguments.command}")


if __name__ == "__main__":
    raise SystemExit(main())
