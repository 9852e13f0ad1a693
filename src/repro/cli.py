"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``search``   run only the multi-spec-oriented search and print the
             Pareto frontier;
``compile``  full performance-to-layout compilation with optional
             Verilog/GDS export, (``--corners``) multi-corner PVT
             signoff and (``--verify``) netlist-vs-golden functional
             verification;
``verify``   compile, then batch-verify the implemented netlist
             against the golden model and print the report;
``shmoo``    compile and sweep the voltage/frequency grid (Fig. 9
             style);
``sweep``    expand a range grammar over the spec axes into a design
             grid and batch-compile it (parallel, cached, JSONL out);
``batch``    batch-compile explicit specs from a JSON/JSONL file;
``serve``    run the compile service: a shared job queue behind an
             HTTP/JSON API (``docs/service.md``);
``journal``  list or prune the result-log segments under the cache.

``sweep`` and ``batch`` also take ``--server URL`` to submit to a
running service instead of compiling locally — same grid grammar, same
JSONL output, same exit codes, no local compute.

Examples::

    python -m repro compile --height 64 --width 64 --mcr 2 \\
        --formats INT4 INT8 FP8 --frequency 800 --verilog macro.v
    python -m repro compile --corners SS,TT,FF   # 3-corner signoff
    python -m repro compile --vt auto --lib-out macro.lib
    python -m repro compile --lib-in vendor.lib  # external library
    python -m repro compile --verify             # 4096-vector signoff
    python -m repro verify --vectors 65536 --seed 7
    python -m repro sweep --height 32:128:x2 --frequency 400 800 -j 4
    python -m repro sweep ... --job-timeout 300 --retries 2
    python -m repro sweep ... --resume 20260807-101500-ab12cd
    python -m repro serve --port 8841 --workers 2
    python -m repro sweep --height 32 64 --server http://127.0.0.1:8841
    python -m repro journal --prune --keep 8

Long sweeps are fault-tolerant: per-job watchdog timeouts, transient-
failure retries and a crash-safe resume journal (docs/robustness.md).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
from typing import Dict, List, Optional, Sequence

from .errors import SynDCIMError
from .options import DEFAULT_VERIFY_VECTORS, PPA_PRESETS, VT_CHOICES, CompileOptions
from .spec import MacroSpec, parse_format


def _add_spec_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--height", type=int, default=64)
    parser.add_argument("--width", type=int, default=64)
    parser.add_argument("--mcr", type=int, default=2)
    parser.add_argument(
        "--formats",
        nargs="+",
        default=["INT4", "INT8"],
        help="data formats for inputs and weights (e.g. INT4 INT8 FP8)",
    )
    parser.add_argument(
        "--frequency", type=float, default=800.0, help="MAC MHz target"
    )
    parser.add_argument("--vdd", type=float, default=0.9)
    parser.add_argument(
        "--ppa", choices=sorted(PPA_PRESETS), default="balanced"
    )


def _spec_from_args(args: argparse.Namespace) -> MacroSpec:
    formats = tuple(parse_format(f) for f in args.formats)
    ppa = PPA_PRESETS[args.ppa]
    return MacroSpec(
        height=args.height,
        width=args.width,
        mcr=args.mcr,
        input_formats=formats,
        weight_formats=formats,
        mac_frequency_mhz=args.frequency,
        vdd=args.vdd,
        ppa=ppa,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SynDCIM: performance-aware DCIM compiler",
    )
    parser.add_argument(
        "--no-scl-cache",
        action="store_true",
        help="ignore the persistent subcircuit-library cache and "
        "re-characterize in every process (also: REPRO_SCL_CACHE=off)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_search = sub.add_parser("search", help="search only; print frontier")
    _add_spec_args(p_search)
    _add_vt_arg(p_search)

    p_compile = sub.add_parser("compile", help="full spec-to-layout run")
    _add_spec_args(p_compile)
    _add_vt_arg(p_compile)
    _add_corners_arg(p_compile)
    _add_verify_args(p_compile)
    p_compile.add_argument("--verilog", help="write the netlist here")
    p_compile.add_argument("--gds", help="write the layout stream here")
    p_compile.add_argument(
        "--lib-in",
        metavar="LIB",
        help="compile against the cell library parsed from this "
        "Liberty (.lib) file instead of the built-in library",
    )
    p_compile.add_argument(
        "--lib-out",
        metavar="LIB",
        help="characterize the cell library in use and write it here "
        "as Liberty text (round-trips through --lib-in)",
    )
    p_compile.add_argument(
        "--no-implement",
        action="store_true",
        help="stop after search + selection",
    )

    p_verify = sub.add_parser(
        "verify",
        help="compile, then batch-verify the netlist vs the golden model",
        description=(
            "Run the full compilation, then drive the implemented "
            "netlist with randomized + directed corner stimuli through "
            "the vectorized gate-level simulator and check every MAC "
            "cycle against the behavioural model.  Exit code 1 on any "
            "mismatch."
        ),
    )
    _add_spec_args(p_verify)
    p_verify.add_argument(
        "--vectors", type=int, default=DEFAULT_VERIFY_VECTORS,
        help=f"MAC stimulus vectors to run "
        f"(default {DEFAULT_VERIFY_VECTORS})",
    )
    p_verify.add_argument(
        "--seed", type=int, default=0,
        help="stimulus seed (failures reproduce from it)",
    )
    p_verify.add_argument(
        "--batch", type=int, default=None,
        help="lanes simulated simultaneously (default: capped at 1024 "
        "and sized so every weight format gets at least one round)",
    )

    p_shmoo = sub.add_parser("shmoo", help="compile then V/f shmoo")
    _add_spec_args(p_shmoo)
    p_shmoo.add_argument("--vmin", type=float, default=0.6)
    p_shmoo.add_argument("--vmax", type=float, default=1.2)
    p_shmoo.add_argument("--fmax", type=float, default=1400.0)

    p_sweep = sub.add_parser(
        "sweep",
        help="batch-compile a design grid from range expressions",
        description=(
            "Expand range expressions over the spec axes "
            "(e.g. --height 32:256:x2, --frequency 400:1000:+200) into "
            "a grid and compile every point through the batch engine: "
            "deduplicated, cached on disk, scheduled over a process "
            "pool, results streamed to JSONL."
        ),
    )
    # An axis left out sweeps its default from
    # repro.batch.sweep.AXIS_DEFAULTS, locally and on a server alike.
    p_sweep.add_argument(
        "--height", nargs="+", help="values or ranges, e.g. 32:256:x2"
    )
    p_sweep.add_argument("--width", nargs="+")
    p_sweep.add_argument("--mcr", nargs="+")
    p_sweep.add_argument(
        "--formats", nargs="+",
        help="comma-joined format groups, e.g. INT4,INT8 INT8,FP8",
    )
    p_sweep.add_argument(
        "--frequency", nargs="+",
        help="MAC MHz values or ranges, e.g. 400:1000:+200",
    )
    p_sweep.add_argument("--vdd", nargs="+")
    p_sweep.add_argument(
        "--ppa", choices=sorted(PPA_PRESETS), default="balanced"
    )
    _add_batch_exec_args(p_sweep, default_output="sweep_results.jsonl")

    p_batch = sub.add_parser(
        "batch",
        help="batch-compile explicit specs from a JSON/JSONL file",
        description=(
            "Read MacroSpec dicts (a JSON array or one JSON object per "
            "line) and compile them through the batch engine."
        ),
    )
    p_batch.add_argument(
        "--specs", required=True, help="JSON/JSONL file of spec dicts"
    )
    _add_batch_exec_args(p_batch, default_output="batch_results.jsonl")

    p_serve = sub.add_parser(
        "serve",
        help="run the compile service (job queue + HTTP/JSON API)",
        description=(
            "Start a long-running compile service: a deduplicating "
            "priority job queue over one persistent pool of compile "
            "worker processes, exposed as an HTTP/JSON API "
            "(POST /v1/jobs, POST /v1/sweeps, GET /v1/results/<hash>, "
            "...).  Every job compiles in a worker process under its "
            "own watchdog and retry budget; the pool starts with the "
            "first job that misses the store.  Clients share one "
            "result store, so no content hash is ever compiled twice.  "
            "See docs/service.md."
        ),
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8841,
        help="TCP port (0 picks an ephemeral port; default 8841)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=None,
        help="compile worker processes in the one pool, i.e. jobs "
        "compiling at once (default: min(4, CPU count))",
    )
    p_serve.add_argument(
        "-j", "--jobs", type=int, default=None,
        help="alias of --workers",
    )
    p_serve.add_argument(
        "--cache-dir",
        help="result-store directory (default $REPRO_CACHE_DIR "
        "or ~/.cache/repro)",
    )
    p_serve.add_argument(
        "--no-cache", action="store_true",
        help="serve from an in-memory store that keeps every record "
        "for the service's lifetime (nothing persists)",
    )
    p_serve.add_argument(
        "--job-timeout", type=float, default=None, metavar="S",
        help="default per-job watchdog deadline in seconds "
        "(submissions may override via options.job_timeout_s)",
    )
    p_serve.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="default transient-failure retry budget per job",
    )
    p_serve.add_argument(
        "--journal-keep", type=int, default=32, metavar="N",
        help="log segments retained when the service prunes after "
        "each sweep (default 32)",
    )

    p_journal = sub.add_parser(
        "journal",
        help="list or prune the result-log segments under the cache",
        description=(
            "Every sweep writes one segment of the result log (its "
            "write-ahead journal, used by --resume, and its stored "
            "records) under <cache root>/log/.  Default action lists "
            "them newest first; --prune deletes those outside the "
            "retention policy you give it, after copying their stored "
            "records into a fresh segment."
        ),
    )
    p_journal.add_argument(
        "--cache-dir",
        help="cache root holding log/ (default $REPRO_CACHE_DIR "
        "or ~/.cache/repro)",
    )
    p_journal.add_argument(
        "--prune", action="store_true",
        help="delete segments outside --keep/--older-than (at least "
        "one retention flag is required)",
    )
    p_journal.add_argument(
        "--keep", type=int, default=None, metavar="N",
        help="retain only the newest N segments",
    )
    p_journal.add_argument(
        "--older-than", type=float, default=None, metavar="SECONDS",
        help="delete segments whose mtime is older than this",
    )
    return parser


def _add_verify_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--verify",
        action="store_true",
        help="post-synthesis functional verification: drive the "
        "implemented netlist with randomized + directed stimuli "
        "against the golden model (mismatches fail the run)",
    )
    parser.add_argument(
        "--verify-vectors",
        type=int,
        default=DEFAULT_VERIFY_VECTORS,
        metavar="N",
        help=f"stimulus vectors for --verify "
        f"(default {DEFAULT_VERIFY_VECTORS})",
    )


def _add_vt_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--vt",
        choices=VT_CHOICES,
        default="svt",
        help="threshold-voltage flavor for the logic fabric: a fixed "
        "flavor pins every laddered cell, 'auto' lets the search trade "
        "Vt against worst-corner slack and recovers leakage on the "
        "final netlist (default svt)",
    )


def _add_corners_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--corners",
        help="signoff corners: a comma-separated list of corner names "
        "(SS,TT,FF) or a preset (typical, signoff3); timing signs off "
        "at the worst corner",
    )


def _parse_corners_arg(args: argparse.Namespace):
    """Resolve ``--corners`` (or return None).  Unknown corner names
    and empty sets raise the usual SynDCIMError -> exit code 1."""
    text = getattr(args, "corners", None)
    if text is None:
        return None
    from .signoff.corners import parse_corners

    return parse_corners(text)


def _options_from_args(args: argparse.Namespace) -> CompileOptions:
    """The canonical :class:`CompileOptions` for a batch-style argparse
    namespace — one spelling, shared with the HTTP API, so a CLI run
    and a service submission of the same flags hash identically."""
    return CompileOptions(
        corners=getattr(args, "corners", None),
        vt=getattr(args, "vt", "svt"),
        verify=getattr(args, "verify", False),
        verify_vectors=getattr(
            args, "verify_vectors", DEFAULT_VERIFY_VECTORS
        ),
        seed=getattr(args, "seed", None),
        implement=not getattr(args, "no_implement", False),
        job_timeout_s=getattr(args, "job_timeout", None),
        retries=max(0, getattr(args, "retries", 1)),
    )


def _add_batch_exec_args(
    parser: argparse.ArgumentParser, default_output: str
) -> None:
    _add_vt_arg(parser)
    _add_corners_arg(parser)
    _add_verify_args(parser)
    parser.add_argument(
        "-j", "--jobs", type=int, default=None,
        help="worker processes (default: CPU count)",
    )
    parser.add_argument(
        "--cache-dir",
        help="result-cache directory (default $REPRO_CACHE_DIR "
        "or ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="skip cache lookup and store",
    )
    parser.add_argument(
        "--no-implement", action="store_true",
        help="search + selection only (no layouts; much faster)",
    )
    parser.add_argument(
        "--output", default=default_output,
        help=f"JSONL results path, streamed as jobs complete; "
        f"'-' writes records to stdout (default {default_output})",
    )
    parser.add_argument(
        "--no-summary", action="store_true",
        help="skip the aggregate Pareto/scaling report",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="search-order seed (recorded in the cache key)",
    )
    parser.add_argument(
        "--job-timeout", type=float, default=None, metavar="S",
        help="per-job watchdog deadline in seconds: an overdue job's "
        "worker, and no other, is killed and replaced and that job "
        "retried; after the retry budget it records status='timeout' "
        "instead of hanging the sweep (pool mode only; see "
        "docs/robustness.md)",
    )
    parser.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="transient-failure retry budget per job: a job whose "
        "worker died, overran --job-timeout or returned no record "
        "re-runs, alone, up to N times with exponential backoff before "
        "going terminal; a compile error is a record and never retried "
        "(default 1; see docs/robustness.md)",
    )
    parser.add_argument(
        "--resume", metavar="RUN_ID", default=None,
        help="resume a killed/crashed run from its write-ahead "
        "journal: finished jobs are restored and only the unfinished "
        "remainder recompiles (run ids print at sweep start; see "
        "docs/robustness.md)",
    )
    parser.add_argument(
        "--server", metavar="URL", default=None,
        help="submit to a running compile service (e.g. "
        "http://127.0.0.1:8841) instead of compiling locally: same "
        "JSONL output and exit codes, jobs dedup against every other "
        "client of that server (local-only flags -j/--cache-dir/"
        "--no-cache/--resume are ignored)",
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "no_scl_cache", False):
        # Through the environment so batch workers inherit the choice
        # regardless of the multiprocessing start method.
        os.environ["REPRO_SCL_CACHE"] = "off"
    try:
        return _dispatch(args)
    except SynDCIMError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "journal":
        return _run_journal(args)
    if args.command == "sweep":
        return _run_sweep(args)
    if args.command == "batch":
        return _run_batch_file(args)

    from .compiler.syndcim import SynDCIM

    spec = _spec_from_args(args)
    library = None
    if getattr(args, "lib_in", None):
        from .tech.liberty import read_liberty_library

        library = read_liberty_library(args.lib_in)
    compiler = SynDCIM(
        library=library,
        corners=_parse_corners_arg(args),
        vt=getattr(args, "vt", "svt"),
    )
    if getattr(args, "lib_out", None):
        from .tech.liberty import export_liberty

        with open(args.lib_out, "w") as fh:
            fh.write(export_liberty(compiler.library, compiler.process))
        print(f"wrote {args.lib_out}")

    if args.command == "search":
        result = compiler.search(spec)
        print(result.describe())
        print(f"fixes: {result.fix_counts}")
        return 0 if result.frontier else 1

    if args.command == "compile":
        result = compiler.compile(
            spec,
            implement_design=not args.no_implement,
            verify=args.verify,
            verify_vectors=args.verify_vectors,
        )
        print(result.report())
        impl = result.implementation
        if impl is not None:
            if args.verilog:
                with open(args.verilog, "w") as fh:
                    fh.write(impl.verilog())
                print(f"wrote {args.verilog}")
            if args.gds:
                with open(args.gds, "w") as fh:
                    fh.write(impl.gds())
                print(f"wrote {args.gds}")
            return 0 if impl.signoff_clean and impl.verification_clean else 1
        return 0

    if args.command == "verify":
        from .verify.harness import verify_macro

        result = compiler.compile(spec)
        impl = result.implementation
        assert impl is not None
        report = verify_macro(
            spec,
            impl.arch,
            netlist=impl.netlist,
            shape=impl.shape,
            library=compiler.library,
            vectors=args.vectors,
            seed=args.seed,
            batch=args.batch,
        )
        print(report.describe())
        return 0 if report.passed else 1

    if args.command == "shmoo":
        from .sim.shmoo import run_shmoo

        result = compiler.compile(spec)
        impl = result.implementation
        assert impl is not None
        voltages = [
            round(args.vmin + 0.05 * i, 2)
            for i in range(int((args.vmax - args.vmin) / 0.05) + 1)
        ]
        freqs = [float(f) for f in range(100, int(args.fmax) + 1, 100)]
        shmoo = run_shmoo(
            impl.min_period_ns, compiler.process, voltages, freqs
        )
        print(
            f"critical path {impl.min_period_ns:.3f} ns @"
            f"{compiler.process.vdd_nominal} V"
        )
        print(shmoo.render())
        return 0

    raise AssertionError(f"unhandled command {args.command}")


def _run_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from .service.queue import JobQueue
    from .service.server import create_server

    if None not in (args.workers, args.jobs) and args.workers != args.jobs:
        print(f"error: --workers {args.workers} and its alias -j "
              f"{args.jobs} disagree", file=sys.stderr)
        return 2
    workers = args.workers if args.workers is not None else args.jobs
    options = CompileOptions(
        job_timeout_s=args.job_timeout,
        retries=max(0, args.retries),
    )
    queue = JobQueue(
        options=options,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        workers=workers,
        journal_keep=max(0, args.journal_keep),
    )
    try:
        server = create_server(queue, host=args.host, port=args.port)
    except OSError as exc:
        queue.close()
        print(f"error: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    # The URL line is machine-parsed (examples/service_smoke.py boots
    # on port 0 and scrapes the ephemeral port from it) — keep format.
    print(f"serving on {server.base_url}", flush=True)
    store_root = getattr(queue.store, "root", None)
    store_text = str(store_root) if store_root else "in-memory"
    print(f"run {queue.run_id} ({queue.workers} workers, "
          f"store: {store_text})", flush=True)

    def _stop(signum, frame):
        # Never raise from here: a KeyboardInterrupt that lands inside a
        # weakref callback or a __del__ is printed and swallowed, and the
        # server would keep running.  shutdown() blocks until
        # serve_forever() returns, so it cannot run on this thread.
        threading.Thread(target=server.shutdown, daemon=True).start()

    # Ctrl-C and SIGTERM (a service manager's stop) take the same clean
    # path: the pool is shut down, its workers reaped and the shared
    # memory unlinked at exit, none of which the default actions do.
    signal.signal(signal.SIGINT, _stop)
    signal.signal(signal.SIGTERM, _stop)
    try:
        server.serve_forever()
    finally:
        server.server_close()
        queue.close()
    return 0


def _run_journal(args: argparse.Namespace) -> int:
    from .batch.cache import default_cache_dir, list_journals
    from .batch.resilience import prune_journals

    root = pathlib.Path(args.cache_dir) if args.cache_dir \
        else default_cache_dir()
    if args.prune:
        if args.keep is None and args.older_than is None:
            print(
                "error: --prune needs a retention policy "
                "(--keep N and/or --older-than SECONDS)",
                file=sys.stderr,
            )
            return 1
        removed = prune_journals(
            root, keep=args.keep, older_than_s=args.older_than
        )
        for path in removed:
            print(f"pruned {path.stem}")
        print(f"pruned {len(removed)} segment(s) under {root}")
        return 0
    journals = list_journals(root)
    if not journals:
        print(f"no segments under {root}")
        return 0
    for path in journals:
        try:
            stat = path.stat()
            print(f"{path.stem}  {stat.st_size:>9d} bytes")
        except OSError:
            continue
    print(f"{len(journals)} segment(s) under {root}")
    return 0


def _sweep_axes(args: argparse.Namespace) -> Dict[str, List[str]]:
    """The axis tokens given on the command line (both sweep paths)."""
    given = {
        "height": args.height,
        "width": args.width,
        "mcr": args.mcr,
        "formats": args.formats,
        "frequency": args.frequency,
        "vdd": args.vdd,
    }
    return {name: tokens for name, tokens in given.items() if tokens is not None}


def _run_sweep(args: argparse.Namespace) -> int:
    if args.server:
        return _run_remote_sweep(args)
    from .batch.sweep import expand_axes, grid_summary

    specs = expand_axes(_sweep_axes(args), args.ppa)
    human = sys.stderr if args.output == "-" else sys.stdout
    print(f"sweep: {grid_summary(specs)}", file=human)
    return _execute_batch(specs, args)


def _run_batch_file(args: argparse.Namespace) -> int:
    from .batch.summarize import load_records

    try:
        entries = load_records(args.specs)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    specs = []
    for i, entry in enumerate(entries, start=1):
        try:
            specs.append(MacroSpec.from_dict(entry))
        except SynDCIMError as exc:
            print(f"error: {args.specs} entry {i}: {exc}", file=sys.stderr)
            return 1
    human = sys.stderr if args.output == "-" else sys.stdout
    print(f"batch: {len(specs)} specs from {args.specs}", file=human)
    if args.server:
        return _run_remote_specs(specs, args)
    return _execute_batch(specs, args)


def _run_remote_sweep(args: argparse.Namespace) -> int:
    """``sweep --server URL``: ship the raw axis tokens to the
    service's ``POST /v1/sweeps`` (the grid grammar expands
    server-side) and stream the terminal records back as JSONL."""
    from .service.client import ServiceClient

    client = ServiceClient(args.server)
    human = sys.stderr if args.output == "-" else sys.stdout
    sweep = client.submit_sweep(
        axes=_sweep_axes(args),
        options=_options_from_args(args),
        ppa=args.ppa,
    )
    print(
        f"sweep {sweep['id']}: {sweep['points']} points on {args.server}",
        file=human,
    )
    done = client.wait_sweep(sweep["id"])
    records = [
        client.job(job_id).get("record") or {} for job_id in done["jobs"]
    ]
    return _finish_remote(records, args, human)


def _run_remote_specs(specs: List[MacroSpec], args: argparse.Namespace) -> int:
    """``batch --server URL``: submit each spec, then collect."""
    from .service.client import ServiceClient

    client = ServiceClient(args.server)
    human = sys.stderr if args.output == "-" else sys.stdout
    options = _options_from_args(args)
    job_ids = [
        str(client.submit(spec, options=options)["id"]) for spec in specs
    ]
    records = [
        client.wait(job_id).get("record") or {} for job_id in job_ids
    ]
    return _finish_remote(records, args, human)


def _finish_remote(records, args: argparse.Namespace, human) -> int:
    """JSONL the remote records to --output with local exit-code
    semantics (1 on any error/timeout point or output failure)."""
    to_stdout = args.output == "-"
    sink = sys.stdout
    if not to_stdout and args.output:
        try:
            sink = open(args.output, "w", encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write --output: {exc}", file=sys.stderr)
            return 1
    try:
        for record in records:
            sink.write(json.dumps(record) + "\n")
        sink.flush()
    except OSError as exc:
        print(f"error: writing {args.output}: {exc}", file=sys.stderr)
        return 1
    finally:
        if not to_stdout:
            sink.close()
    statuses = [r.get("status") for r in records]
    counts = {s: statuses.count(s) for s in sorted(set(statuses), key=str)}
    summary = ", ".join(f"{v} {k}" for k, v in counts.items())
    print(f"{len(records)} records ({summary})", file=human)
    if not to_stdout and args.output:
        print(f"wrote {len(records)} records to {args.output}", file=human)
    return 1 if any(s in ("error", "timeout") for s in statuses) else 0


def _execute_batch(specs: List[MacroSpec], args: argparse.Namespace) -> int:
    from .batch.engine import BatchCompiler

    # `--output -` sends the JSONL records to stdout (pipeline-friendly:
    # progress/summary move to stderr); a path streams them to the file
    # as jobs complete, so a killed run keeps its finished points.
    to_stdout = args.output == "-"
    human = sys.stderr if to_stdout else sys.stdout
    muted = False

    def say(*parts: object) -> None:
        # Human chatter must never kill a run whose data sink is a
        # file: if the terminal/pipe reading it goes away, go quiet
        # and keep compiling.
        nonlocal muted
        if muted:
            return
        try:
            print(*parts, file=human)
        except BrokenPipeError:
            muted = True

    from .batch.faults import ENV_FAULTS, FaultPlan, active_plan

    # A typo'd chaos spec must fail loudly at arm time, not run a
    # clean sweep that "passes" (the library itself only warns and
    # disarms, because workers must never die to a bad environment).
    # Like every check that can refuse the run, it comes before
    # --output is opened, which truncates the file.
    fault_text = os.environ.get(ENV_FAULTS)
    if fault_text:
        try:
            FaultPlan.parse(fault_text)
        except SynDCIMError as exc:
            print(f"error: {ENV_FAULTS}: {exc}", file=sys.stderr)
            return 1

    sink = None
    write_failed = False
    streamed: set = set()

    def emit(record: dict) -> None:
        nonlocal write_failed
        if sink is None or write_failed:
            return
        try:
            sink.write(json.dumps(record) + "\n")
            sink.flush()
        except BrokenPipeError:
            # The stdout consumer went away (e.g. `... | head`):
            # nothing downstream wants more records, so stop compiling.
            raise _OutputClosed from None
        except OSError as exc:
            # Disk filled up mid-run: keep compiling — the summary is
            # now the only place the remaining results surface.
            write_failed = True
            print(f"error: writing {args.output}: {exc}", file=sys.stderr)

    def progress(done: int, total: int, record: dict) -> None:
        status = record.get("status")
        how = "cached" if record.get("cached") else (
            f"compiled {record.get('elapsed_s', 0.0):.1f}s"
        )
        say(f"[{done}/{total}] {record.get('spec_summary')} — "
            f"{status} ({how})")
        emit(record)
        streamed.add(record.get("job_key"))

    engine = BatchCompiler(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        progress=progress,
        options=_options_from_args(args),
        resume=args.resume,
    )

    # Open the sink before any compilation so a bad --output path fails
    # in milliseconds, not after an hours-long grid.
    if to_stdout:
        sink = sys.stdout
    elif args.output:
        try:
            sink = open(args.output, "w", encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write --output: {exc}", file=sys.stderr)
            return 1

    plan = active_plan()
    if plan is not None:
        say(plan.describe())
    # The run id prints *before* compilation: a sweep killed mid-grid
    # must already have told the user how to come back for it.
    if engine.run_id:
        if args.resume:
            say(f"resuming run {engine.run_id}")
        else:
            say(
                f"run {engine.run_id} (if interrupted, finish with "
                f"--resume {engine.run_id})"
            )
    try:
        result = engine.compile_specs(specs)
        # Duplicate input specs fold onto one executed job, which was
        # streamed once; append their copies so the JSONL holds one
        # line per requested point.
        already_streamed: set = set()
        for record in result.records:
            key = record.get("job_key")
            if key in streamed and key not in already_streamed:
                already_streamed.add(key)
                continue
            emit(record)
        if sink is not None and not to_stdout and not write_failed:
            say(f"wrote {len(result.records)} records to {args.output}")
    except _OutputClosed:
        print(
            "output pipe closed by the consumer; aborting",
            file=sys.stderr,
        )
        return 1
    finally:
        if sink is not None and not to_stdout:
            sink.close()
    say(result.describe())

    if not args.no_summary:
        from .batch.summarize import summarize

        say()
        say(summarize(result.records))
    # A truncated JSONL output is a failed run even when every point
    # compiled: downstream scripts must not mistake it for complete.
    if write_failed:
        return 1
    return 1 if any(
        r.get("status") in ("error", "timeout") for r in result.records
    ) else 0


class _OutputClosed(Exception):
    """Internal: the --output stdout pipe was closed by its consumer."""


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
