"""Layer spans for the traced run, recorded from the benchmark's side.

:func:`install` wraps each layer's public entry points where their
callers look them up (``repro.compiler.flow.run_drc``,
``MSOSearcher.search``, ``ResultCache.get``, ...).  A span records its
name, start, end, parent span and operation id; spans stay in memory
and are written once, when the process ends (:func:`flush`).  Pool
workers are forked with the wrappers in place, but leave through
``os._exit``, so they append their spans after every job instead.

:func:`analyze` (run in the benchmark process) turns the span files of a
traced run into per-layer self times: a span's self time is its duration
minus the part its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import pathlib
import statistics
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

_spans: List[tuple] = []
_counters: Dict[tuple, int] = defaultdict(int)
_local = threading.local()
_ids = itertools.count(1)
_state = {"path": None, "op": None, "owner": None}


def _forked() -> None:
    """A fresh pool worker: drop what the parent had recorded."""
    _spans.clear()
    _counters.clear()
    _local.__dict__.clear()


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def current_op() -> str:
    stack = _stack()
    return stack[-1][1] if stack else _state["op"]


def wrap(name: str, fn: Callable, op_of: Optional[Callable] = None,
         counts: Optional[Callable] = None, flush_worker: bool = False) -> Callable:
    """``fn`` recording a span per call.  ``op_of(args, kwargs)`` may name the
    operation the call belongs to (otherwise the caller's), ``counts(
    result)`` may attach work counts to the span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = _stack()
        parent = stack[-1][0] if stack else 0
        op = (op_of(args, kwargs) if op_of is not None else None) or current_op()
        sid = next(_ids)
        stack.append((sid, op))
        t0 = time.perf_counter()
        returned, result = False, None
        try:
            result = fn(*args, **kwargs)
            returned = True
            return result
        finally:
            t1 = time.perf_counter()
            stack.pop()
            extra = counts(result) if counts is not None and returned else None
            _spans.append((name, t0, t1, parent, op, sid, extra))
            if flush_worker and os.getpid() != _state["owner"]:
                flush()

    return wrapper


@contextlib.contextmanager
def span(name: str, op: str):
    """A span around a block of the benchmark's own code; ``op`` becomes
    the operation of every span recorded inside it."""
    stack = _stack()
    parent = stack[-1][0] if stack else 0
    sid = next(_ids)
    stack.append((sid, op))
    t0 = time.perf_counter()
    try:
        yield
    finally:
        stack.pop()
        _spans.append((name, t0, time.perf_counter(), parent, op, sid, None))


def counter(name: str, fn: Callable) -> Callable:
    """``fn`` counting its calls per operation (no span: too frequent)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        _counters[(name, current_op())] += 1
        return fn(*args, **kwargs)

    return wrapper


def patch(owner, attr: str, name: str, **kw) -> None:
    setattr(owner, attr, wrap(name, getattr(owner, attr), **kw))


def _key(spec, implement) -> str:
    return ("impl:" if implement else "search:") + spec.content_hash()


def _payload_op(args, kwargs) -> Optional[str]:
    payload = args[0]
    from repro.spec import MacroSpec

    implement = payload.get("options", {}).get("implement", True)
    return _key(MacroSpec.from_dict(payload["spec"]), implement)


def _single_job_op(args, kwargs) -> Optional[str]:
    jobs = args[1]
    if len(jobs) != 1 or not hasattr(jobs[0], "implement"):
        return None
    return _key(jobs[0].spec, jobs[0].implement)


def _submit_op(args, kwargs) -> Optional[str]:
    queue, spec = args[:2]
    options = kwargs.get("options", args[2] if len(args) > 2 else None) or queue.options
    return _key(spec, options.implement)


def install(path: str, op: str) -> None:
    """Install every layer wrapper in this process.  The imports it needs
    are the startup layer, recorded as ``cli.import``."""
    _state.update(path=path, op=op, owner=os.getpid())
    os.register_at_fork(after_in_child=_forked)
    t0 = time.perf_counter()
    # Modules by name: some packages re-export a function under the
    # name of the module that defines it (repro.synth.optimize).
    (cli, cache, engine, resilience, flow, syndcim, arena, ir, netview, memarray,
     builder, scl_cache, algorithm, queue, server, shm_scl, optimize, vt) = (
        importlib.import_module("repro." + name)
        for name in (
            "cli", "batch.cache", "batch.engine", "batch.resilience", "compiler.flow",
            "compiler.syndcim", "layout.arena", "rtl.ir", "rtl.netview", "rtl.gen.memarray",
            "scl.builder", "scl.cache", "search.algorithm", "service.queue", "service.server",
            "shm.scl",
            "synth.optimize", "synth.vt",
        )
    )
    _spans.append(("cli.import", t0, time.perf_counter(), 0, op, next(_ids), None))

    patch(scl_cache, "load_cached_scl", "scl.load")
    patch(builder, "build_default_scl", "scl.cold_build")
    patch(algorithm.MSOSearcher, "search", "search",
          counts=lambda r: {"search.candidates": len(r.candidates)})
    algorithm.estimate_macro = counter("search.estimates", algorithm.estimate_macro)
    patch(syndcim.SynDCIM, "compile", "compiler")
    patch(flow.ImplementSession, "implement", "compiler",
          counts=lambda r: {"compiler.implement_attempts": 1})
    patch(flow, "generate_macro_with_array", "rtl.generate")
    patch(memarray, "generate_memory_array", "rtl.generate")
    patch(ir.Module, "flatten", "rtl.flatten")
    patch(netview.NetView, "__init__", "rtl.netview",
          counts=lambda r: {"rtl.netview_builds": 1})
    patch(flow, "emit_verilog", "rtl.verilog")
    patch(optimize, "optimize", "synth.optimize",
          counts=lambda r: {"rtl.cells": r[0].leaf_count()})
    patch(vt, "recover_leakage", "synth.vt_recover")
    patch(arena.LayoutArena, "place", "layout.place")
    patch(arena.LayoutArena, "route", "layout.route")
    patch(flow, "run_drc", "layout.drc")
    patch(flow, "run_lvs", "layout.lvs")
    patch(flow, "write_gds_json", "layout.gds")
    for fn in ("minimum_period_ns", "analyze"):
        patch(flow, fn, "sta")
    for fn in ("estimate_power", "sparsity_input_stats"):
        patch(flow, fn, "power")
    patch(flow, "multi_corner_signoff", "signoff")
    patch(flow, "verify_macro", "verify",
          counts=lambda r: {"verify.vectors": r.vectors_run})

    patch(syndcim, "execute_job", "batch.job", op_of=_payload_op, flush_worker=True)
    patch(engine, "_worker_initializer", "batch.worker_init", flush_worker=True)
    patch(engine, "wait", "batch.wait")
    patch(engine.BatchCompiler, "run_jobs", "batch.run_jobs", op_of=_single_job_op)
    patch(shm_scl, "publish_default_scl", "batch.shm_publish")

    class TracedPool(engine.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            t = time.perf_counter()
            _spans.append(("batch.pool_spawn", t, t, 0, current_op(), next(_ids), None))
            super().__init__(*args, **kwargs)

    engine.ProcessPoolExecutor = TracedPool
    for store in (cache.ResultCache, cache.MemoryResultStore):
        patch(store, "get", "batch.cache_get",
              counts=lambda r: {"batch.cache_misses" if r is None else "batch.cache_hits": 1})
        patch(store, "put", "batch.cache_put")
    for method in ("begin", "submit", "done", "close"):
        patch(resilience.SweepJournal, method, "batch.journal")
    patch(queue.JobQueue, "submit", "service.submit", op_of=_submit_op)
    patch(queue.JobQueue, "job", "service.job")
    patch(server.ServiceServer, "finish_request", "service.http")


def flush() -> None:
    """Append this process's spans to its span file, then forget them."""
    path, pid = _state["path"], os.getpid()
    if path is None:
        return
    if pid != _state["owner"]:
        path = f"{path}.{pid}"
    lines = [
        json.dumps({"n": n, "s": s, "e": e, "p": p, "o": o, "i": i, "c": c, "pid": pid})
        for n, s, e, p, o, i, c in list(_spans)
    ]
    lines += [
        json.dumps({"counter": n, "o": o, "v": v, "pid": pid})
        for (n, o), v in list(_counters.items())
    ]
    _spans.clear()
    _counters.clear()
    with open(path, "a") as fh:
        fh.write("".join(line + "\n" for line in lines))


# -- analysis (benchmark process) --------------------------------------------

#: Span name -> per-layer time metric, in table order.
LAYERS = {
    "cli.import": "cli.import_s",
    "scl.load": "scl.load_s",
    "search": "search.s",
    "rtl.generate": "rtl.generate_s",
    "rtl.flatten": "rtl.flatten_s",
    "rtl.netview": "rtl.netview_s",
    "synth.optimize": "synth.optimize_s",
    "synth.vt_recover": "synth.vt_recover_s",
    "layout.place": "layout.place_s",
    "layout.route": "layout.route_s",
    "layout.drc": "layout.drc_s",
    "layout.lvs": "layout.lvs_s",
    "sta": "sta.s",
    "power": "power.s",
    "signoff": "signoff.s",
    "verify": "verify.s",
    "rtl.verilog": "rtl.verilog_s",
    "layout.gds": "layout.gds_s",
    "compiler": "compiler.unattributed_s",
    "batch.run_jobs": "batch.engine_s",
    "batch.shm_publish": "batch.shm_publish_s",
    "batch.wait": "batch.wait_s",
    "batch.worker_init": "batch.worker_init_s",
    "batch.job": "batch.job_s",
    "batch.cache_get": "batch.cache_get_s",
    "batch.cache_put": "batch.cache_put_s",
    "batch.journal": "batch.journal_s",
    "service.http": "service.http_s",
    "service.submit": "service.submit_s",
    "service.job": "service.job_s",
}
#: Every per-layer metric a traced run prints (zero where the workload
#: never enters the layer), with its unit.
PER_LAYER = dict(
    [(metric, "s") for metric in LAYERS.values()]
    + [
        ("scl.cold_build_s", "s"),
        ("search.candidates", "count"),
        ("search.estimates", "count"),
        ("rtl.netview_builds", "count"),
        ("rtl.cells", "count"),
        ("verify.vectors_per_s", "1/s"),
        ("compiler.implement_attempts", "count"),
        ("batch.pool_spawns", "count"),
        ("batch.pool_spawn_s", "s"),
        ("batch.worker_busy_share", "ratio"),
        ("batch.parent_cpu_s", "s"),
        ("batch.cache_hits", "count"),
        ("batch.cache_misses", "count"),
        ("service.post_rtt_s", "s"),
        ("service.get_rtt_s", "s"),
        ("service.queue_wait_p50_s", "s"),
        ("service.queue_wait_p90_s", "s"),
        ("service.run_p50_s", "s"),
        ("service.run_p90_s", "s"),
        ("service.polls_per_miss", "count"),
        ("service.compiled", "count"),
        ("service.cache_hits", "count"),
        ("service.coalesced", "count"),
        ("host.ref_loop_s", "s"),
        ("trace.coverage_share", "ratio"),
        ("trace.remainder_s", "s"),
        ("trace.overhead_share", "ratio"),
    ]
)
#: Layers whose metric is the median per call, not per operation.
PER_CALL = {"batch.cache_get", "batch.cache_put", "batch.journal", "batch.worker_init",
            "service.job"}
#: Work counts taken as the median per operation that does the work.
OP_COUNTS = ("search.candidates", "search.estimates", "rtl.netview_builds", "rtl.cells",
             "compiler.implement_attempts")


def load(spans_dir: pathlib.Path):
    """Every span of a traced run, with its self time, and the counters."""
    spans, counters = [], defaultdict(int)
    for path in sorted(spans_dir.iterdir()):
        for line in path.read_text().splitlines():
            item = json.loads(line)
            if "counter" in item:
                counters[(item["counter"], item["o"])] += item["v"]
            else:
                spans.append(item)
    covered = defaultdict(float)
    for s in spans:
        if s["p"]:
            covered[(s["pid"], s["p"])] += s["e"] - s["s"]
    submitted = {(s["pid"], s["p"]): s["o"] for s in spans if s["n"] == "service.submit"}
    for s in spans:
        s["self"] = s["e"] - s["s"] - covered[(s["pid"], s["i"])]
        if s["n"] == "service.http":
            # A submission learns its operation only once parsed.  Status
            # polls overlap the compile they ask about, so they stay off
            # the operation's critical-path rows.
            s["o"] = submitted.get((s["pid"], s["i"]), s["o"])
    return spans, counters


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def analyze(workload: str, spans_dir: pathlib.Path, traced, plain) -> dict:
    """Per-layer metrics and the printable table of one traced run.
    ``traced``/``plain`` are the workload outcomes with and without
    tracing."""
    spans, counters = load(spans_dir)
    if traced.window is not None:
        lo, hi = traced.window
        spans = [s for s in spans if s["o"] == "prime" or lo <= s["s"] <= hi]
    by_op: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    per_call: Dict[str, List[float]] = defaultdict(list)
    totals: Dict[str, int] = defaultdict(int)
    for s in spans:
        if s["o"] == "prime":
            continue
        if s["n"] in LAYERS:
            by_op[s["o"]][s["n"]] += s["self"]
        if s["n"] in PER_CALL:
            per_call[s["n"]].append(s["self"])
        for name, value in (s["c"] or {}).items():
            by_op[s["o"]][name] += value
            totals[name] += value
    for (name, op), value in counters.items():
        if op != "prime":
            by_op[op][name] += value
    metrics = {name: (0, unit) for name, unit in PER_LAYER.items()}
    for name, metric in LAYERS.items():
        values = per_call[name] if name in PER_CALL else [
            layers[name] for layers in by_op.values() if layers.get(name)
        ]
        metrics[metric] = (_median(values), "s")
    for name in OP_COUNTS:
        metrics[name] = (_median(v[name] for v in by_op.values() if v.get(name)), "count")
    verify = [(v["verify.vectors"], v["verify"]) for v in by_op.values() if v.get("verify")]
    metrics["verify.vectors_per_s"] = (_median(n / t for n, t in verify), "1/s")
    metrics["scl.cold_build_s"] = (
        sum(s["self"] for s in spans if s["o"] == "prime" and s["n"] == "scl.cold_build"), "s"
    )
    metrics["batch.cache_hits"] = (totals["batch.cache_hits"], "count")
    metrics["batch.cache_misses"] = (totals["batch.cache_misses"], "count")
    pools = sorted(s["s"] for s in spans if s["n"] == "batch.pool_spawn")
    inits = sorted(s["s"] for s in spans if s["n"] == "batch.worker_init")
    spawn = [min((t for t in inits if t >= p), default=p) - p for p in pools]
    metrics["batch.pool_spawns"] = (len(pools), "count")
    metrics["batch.pool_spawn_s"] = (_median(spawn), "s")
    table, coverage, remainder, extra = TABLES[workload](spans, by_op, traced)
    for name, value in {**traced.layers, **extra}.items():
        metrics[name] = (value, PER_LAYER[name])
    metrics["trace.coverage_share"] = (coverage, "ratio")
    metrics["trace.remainder_s"] = (remainder, "s")
    overhead = traced.metrics["latency_geomean_s"][0] / plain.metrics["latency_geomean_s"][0] - 1
    metrics["trace.overhead_share"] = (overhead, "ratio")
    lines = [table, f"   named layers cover {coverage:.1%} of the traced wall time; "
             "tracing overhead (traced vs untraced end-to-end):"]
    for name, (value, unit) in traced.metrics.items():
        base = plain.metrics[name][0]
        lines.append(f"     {name:24s} {base:12.6g} -> {value:12.6g} {unit} ({value / base - 1:+.1%})")
    return {"metrics": metrics, "table": "\n".join(lines)}


def _rows(title: str, rows: Dict[str, float], wall: float):
    named = sum(rows.values())
    out = [f"   {title}: mean wall {wall:.6g} s"]
    for name, value in rows.items():
        if value:
            out.append(f"     {LAYERS.get(name, name):28s} {value:12.6f} s {value / wall:7.1%}")
    out.append(f"     {'(remainder)':28s} {wall - named:12.6f} s {(wall - named) / wall:7.1%}")
    return out, named


def _cli_table(spans, by_op, traced):
    ops = [op for op, _wall, _key in traced.ops]
    wall = statistics.fmean(w for _op, w, _key in traced.ops)
    rows = {n: statistics.fmean(by_op[op].get(n, 0.0) for op in ops) for n in LAYERS}
    lines, named = _rows("per `repro compile` process", rows, wall)
    return "\n".join(lines), named / wall, wall - named, {}


def _sweep_table(spans, by_op, traced):
    lines, cover = [], []
    for kind in ("cold", "warm"):
        ops = [(op, w) for op, w, _key in traced.ops if op.endswith(kind)]
        wall = statistics.fmean(w for _op, w in ops)
        rows = {n: statistics.fmean(by_op[op].get(n, 0.0) for op, _w in ops)
                for n in LAYERS if n not in ("batch.job", "search", "batch.worker_init")}
        block, named = _rows(f"sweep parent, per {kind} pass of {traced.points} points", rows, wall)
        lines += block
        cover.append((named, wall))
    cold = [op for op, _w, _key in traced.ops if op.endswith("cold")]
    cold_wall = sum(w for op, w, _key in traced.ops if op.endswith("cold"))
    windows = [(s["s"], s["e"]) for s in spans if s["n"] == "sweep.pass" and s["o"] in cold]
    workers = [s for s in spans if s["n"] in ("batch.job", "search", "batch.worker_init", "scl.load")
               and s["o"] not in cold and any(a <= s["s"] <= b for a, b in windows)]
    busy = defaultdict(float)
    for s in workers:
        busy[s["n"]] += s["self"] / len(cold)
    jobs = sum(s["e"] - s["s"] for s in workers if s["n"] == "batch.job")
    block, _ = _rows(f"pool workers (x{traced.jobs}), per cold pass", dict(busy),
                     traced.jobs * cold_wall / len(cold))
    lines += [line.replace("(remainder)", "(idle)") for line in block]
    named, wall = cover[0]
    share = jobs / (traced.jobs * cold_wall)
    return "\n".join(lines), named / wall, wall - named, {"batch.worker_busy_share": share}


def _service_table(spans, by_op, traced):
    lines = []
    named_all = wall_all = 0.0
    for cls in ("search", "implemented", "hit"):
        ops = [(w, key) for op, w, key in traced.ops if op.startswith(cls + ".")]
        keys = {key for _w, key in ops}
        wall = statistics.fmean(w for w, _key in ops)
        rows = {n: sum(by_op[k].get(n, 0.0) for k in keys) / len(ops) for n in LAYERS}
        rows["queue wait"] = traced.queue_wait.get(cls, 0.0)
        block, named = _rows(f"per {cls} operation ({len(ops)} ops)", rows, wall)
        lines += block
        named_all += named * len(ops)
        wall_all += wall * len(ops)
    remainder = (wall_all - named_all) / len(traced.ops)
    return "\n".join(lines), named_all / wall_all, remainder, {}


TABLES = {"cli-compile": _cli_table, "dse-sweep": _sweep_table, "service-mix": _service_table}
