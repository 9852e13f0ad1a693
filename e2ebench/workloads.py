"""The three workloads: ``cli-compile``, ``dse-sweep`` and ``service-mix``.

Each takes a :class:`Ctx` (isolated directories, environment, seed,
expected outputs) and returns an :class:`Outcome`: operations attempted
and failed, the end-to-end metrics, and the per-operation wall times the
traced run attributes to layers.  See README.md for every definition.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ServiceError
from repro.service.client import ServiceClient

import inputs

HERE = pathlib.Path(__file__).resolve().parent
PY = sys.executable

#: Fresh-process set-ups timed per ``dse-sweep`` and ``service-mix`` run
#: (``cli-compile`` times one per operation); ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: A slow phase of a shared host stretches the fixed work of a run; past
#: this multiple of ``--seconds`` no new operation starts.
DEADLINE_FACTOR = 2.0
#: Nominal seconds of one ``cli-compile`` cycle over the five inputs
#: (2-CPU x86 container); the run makes ``seconds / CLI_CYCLE_S`` cycles.
CLI_CYCLE_S = 7.5
#: Nominal seconds of one ``dse-sweep`` round (one cold pass and its
#: warm passes), and warm passes per round.
SWEEP_ROUND_S = 6.5
SWEEP_WARM_PASSES = 4
#: Nominal ``service-mix`` operation blocks (see inputs.SERVICE_BLOCK)
#: per second of run.
SERVICE_BLOCKS_PER_S = 5.0
#: Closed-loop client connections, server queue workers and engine jobs.
SERVICE_CONNECTIONS = 2
#: Segments of the timed phase, each scaled by its own host readings.
SERVICE_SEGMENTS = 5
#: Fixed interval between status polls of a queued or running job.
SERVICE_POLL_S = 0.01
#: Client-side timeout of one HTTP request; a timed-out request fails
#: its operation.
SERVICE_TIMEOUT_S = 120.0


def service_blocks(seconds: int) -> int:
    """Operation blocks (see inputs.SERVICE_BLOCK) of a ``service-mix`` run."""
    return max(1, round(seconds * SERVICE_BLOCKS_PER_S))


#: Host-speed reference for work done in fresh processes (every set-up
#: sample, every ``cli-compile`` operation): a fresh ``python -c`` of
#: this code, which imports numpy and does fixed numpy and dict work but
#: nothing of the program, is timed right before the sample, and the
#: sample is scaled by ``REF_PROCESS_S`` / that reading (README, "Host
#: speed").
REF_PROCESS_CODE = (
    "import numpy as np\n"
    "a = np.arange(200_000, dtype=np.float64)\n"
    "for _ in range(20):\n"
    "    a = np.sort(a[::-1] * 1.0000001)\n"
    "d = {}\n"
    "for i in range(300_000):\n"
    "    d[i % 1024] = d.get(i % 1024, 0) + i\n"
)
REF_PROCESS_S = 0.3
#: Host-speed reference of a sweep pass: ``child.host_probe`` in the
#: sweep process right before and after the pass (geometric mean),
#: scaled to this reading.
REF_PROBE_S = 0.008

CLI_SETUP = (
    "import repro.cli, repro.compiler.syndcim\n"
    "from repro.scl.library import default_scl\n"
    "default_scl()\n"
)
SWEEP_SETUP = (
    "import sys\n"
    "from repro import BatchCompiler\n"
    "from repro.spec import spec_from_strings\n"
    "def ready(done, total, record):\n"
    "    if done == 1:\n"
    "        print('ready', flush=True)\n"
    "specs = [spec_from_strings(16, w, 1, ['INT4']) for w in (16, 32)]\n"
    "BatchCompiler(jobs=2, use_cache=False, journal=False, progress=ready)"
    ".compile_specs(specs, implement=False)\n"
)


@dataclass
class Ctx:
    seed: int
    seconds: int
    work: pathlib.Path
    env: Dict[str, str]
    expected: dict
    children: List[subprocess.Popen] = field(default_factory=list)
    spans: Optional[pathlib.Path] = None
    dirs_made: int = 0

    def fresh(self, name: str) -> pathlib.Path:
        """A new, empty directory: no two uses share a store or journal."""
        self.dirs_made += 1
        path = self.work / f"{name}-{self.dirs_made}"
        path.mkdir(parents=True)
        return path

    def path(self, *parts: str) -> pathlib.Path:
        p = self.work.joinpath(*parts)
        p.parent.mkdir(parents=True, exist_ok=True)
        return p

    def popen(self, cmd, op: Optional[str] = None, **kw) -> subprocess.Popen:
        env = self.env
        if self.spans is not None and op is not None:
            env = dict(env, E2EBENCH_SPANS=str(self.spans / f"{op}.jsonl"), E2EBENCH_OP=op)
        proc = subprocess.Popen([str(c) for c in cmd], env=env, cwd=self.work, **kw)
        self.children.append(proc)
        return proc

    def repro_cmd(self, argv: List[str]) -> List[str]:
        """``python -m repro`` untraced; the traced launcher otherwise."""
        if self.spans is not None:
            return [PY, str(HERE / "child.py"), "repro", *argv]
        return [PY, "-m", "repro", *argv]


def reap(proc: subprocess.Popen) -> Tuple[int, int]:
    """Wait for ``proc``; returns (exit code, peak RSS in KiB)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)
    #: End-to-end metrics: name -> (value, unit).
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Per-class numbers printed beside the metrics, never gated.
    extra: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Per-layer values the workload measures itself (traced run).
    layers: Dict[str, float] = field(default_factory=dict)
    #: (operation id, wall seconds, key of its spans) for the traced
    #: attribution.
    ops: List[Tuple[str, float, str]] = field(default_factory=list)
    #: The timed phase, on the clock spans use (service-mix).
    window: Optional[Tuple[float, float]] = None
    #: Mean server-side queue wait per operation class (service-mix).
    queue_wait: Dict[str, float] = field(default_factory=dict)
    #: Points per pass and pool workers (dse-sweep).
    points: int = 0
    jobs: int = 0
    #: The end-to-end metrics before scaling to the reference host speed,
    #: and the host-speed readings they were scaled by, per reference.
    raw: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    readings: Dict[str, List[float]] = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.notes) < 8:
            self.notes.append(what)


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quantile(values, q: int) -> float:
    """The q-th percentile (exclusive method, as ``statistics.quantiles``)."""
    return statistics.quantiles(values, n=100)[q - 1]


def time_process(ctx: Ctx, code: str, ready: bool = False) -> float:
    """Wall seconds from spawning ``python -c code`` until it exits, or,
    with ``ready``, until it prints its first line."""
    t0 = time.perf_counter()
    proc = ctx.popen([PY, "-c", code], stdout=subprocess.PIPE)
    if ready:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    rc, _ = reap(proc)
    if not ready:
        elapsed = time.perf_counter() - t0
        line = b"ready\n"
    proc.stdout.close()
    if rc != 0 or line != b"ready\n":
        raise RuntimeError(f"timed process failed (exit {rc})")
    return elapsed


def reference_factor(ctx: Ctx, out: Outcome) -> float:
    """Time the reference process now; returns the factor that scales a
    fresh-process timing taken right after it to the reference host."""
    reading = time_process(ctx, REF_PROCESS_CODE)
    out.readings.setdefault("reference process", []).append(reading)
    return REF_PROCESS_S / reading


def setup_sample(ctx: Ctx, out: Outcome, code: str, ready: bool = False) -> Tuple[float, float]:
    """One set-up sample: (raw seconds, scale factor)."""
    factor = reference_factor(ctx, out)
    return time_process(ctx, code, ready), factor


def median_at(samples, scale: bool) -> float:
    """Median of (seconds, factor) samples, scaled or raw."""
    return statistics.median(s * f if scale else s for s, f in samples)


# -- cli-compile -------------------------------------------------------------


def cli_compile(ctx: Ctx) -> Outcome:
    out = Outcome()
    # One set-up sample before every operation: their median spans the
    # whole run, not the few seconds a slow host phase can cover.
    setups: List[Tuple[float, float]] = []
    expected = ctx.expected["cli"]
    out_dir = ctx.fresh("cli-out")
    walls: Dict[str, List[Tuple[float, float]]] = {}
    peak_kb = 0
    deadline = time.perf_counter() + DEADLINE_FACTOR * ctx.seconds
    for cycle in range(max(1, round(ctx.seconds / CLI_CYCLE_S))):
        if cycle and time.perf_counter() > deadline:
            break
        for name in inputs.cli_order(ctx.seed):
            for fname in inputs.CLI_FILES.get(name, ()):
                (out_dir / fname).unlink(missing_ok=True)
            op = f"{name}.{cycle}"
            # The reading sits between the set-up sample and the
            # operation and scales both.
            setup = time_process(ctx, CLI_SETUP)
            factor = reference_factor(ctx, out)
            setups.append((setup, factor))
            stdout_path, stderr_path = ctx.path("cli-log", op + ".out"), ctx.path("cli-log", op + ".err")
            with open(stdout_path, "wb") as so, open(stderr_path, "wb") as se:
                t0 = time.perf_counter()
                proc = ctx.popen(ctx.repro_cmd(inputs.cli_argv(name, str(out_dir))), op=op, stdout=so, stderr=se)
                rc, rss_kb = reap(proc)
                wall = time.perf_counter() - t0
            out.attempted += 1
            out.ops.append((op, wall, op))
            walls.setdefault(name, []).append((wall, factor))
            peak_kb = max(peak_kb, rss_kb)
            stdout = stdout_path.read_text()
            want = expected[name]
            if rc != 0:
                out.fail(f"{op}: exit {rc}: {stderr_path.read_text()[-300:]}")
                continue
            if inputs.normalize_report(stdout) != want["report"]:
                out.fail(f"{op}: report differs from expected")
            for fname, digest in want["files"].items():
                path = out_dir / fname
                if not path.is_file() or inputs.sha256_file(str(path)) != digest:
                    out.fail(f"{op}: {fname} differs from expected")
            if name == "testchip" and "verification PASS: 4096 vectors" not in stdout:
                out.fail(f"{op}: netlist does not match the golden MAC model")

    def metrics(scale: bool):
        medians = {name: median_at(ws, scale) for name, ws in walls.items()}
        total = sum(w * f if scale else w for ws in walls.values() for w, f in ws)
        return medians, {
            "setup_s": (median_at(setups, scale), "s"),
            "latency_geomean_s": (geomean(medians.values()), "s"),
            "points_per_s": (out.attempted / total, "1/s"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
        }

    medians, out.metrics = metrics(scale=True)
    _, out.raw = metrics(scale=False)
    out.extra = {f"latency_median_s[{n}]": (m, "s") for n, m in sorted(medians.items())}
    return out


# -- dse-sweep ---------------------------------------------------------------


def dse_sweep(ctx: Ctx) -> Outcome:
    out = Outcome()
    setups = [setup_sample(ctx, out, SWEEP_SETUP, ready=True) for _ in range(SETUP_SAMPLES)]
    config = {
        "seed": ctx.seed,
        "rounds": max(1, round(ctx.seconds / SWEEP_ROUND_S)),
        "warm": SWEEP_WARM_PASSES,
        "deadline_s": DEADLINE_FACTOR * ctx.seconds,
        "jobs": 2,
        "cache_root": str(ctx.fresh("sweep-stores")),
        "expected": str(HERE / "expected.json"),
    }
    log = ctx.path("sweep.out")
    with open(log, "wb") as so, open(ctx.path("sweep.err"), "wb") as se:
        proc = ctx.popen(
            [PY, str(HERE / "child.py"), "sweep"], op="sweep", stdin=subprocess.PIPE, stdout=so, stderr=se
        )
        proc.stdin.write(json.dumps(config).encode())
        proc.stdin.close()
        rc, _ = reap(proc)
    if rc != 0:
        raise RuntimeError(f"sweep child failed (exit {rc}): {ctx.path('sweep.err').read_text()[-500:]}")
    result = json.loads(log.read_text().splitlines()[-1])
    cold, warm = [], []
    for i, p in enumerate(result["passes"]):
        out.attempted += p["points"]
        for what in p["bad"]:
            out.fail(f"pass {i} ({p['kind']}): {what}")
        if p["hits"] != (p["points"] if p["kind"] == "warm" else 0):
            out.fail(f"pass {i} ({p['kind']}): {p['hits']} of {p['points']} points were hits")
        # Each pass is scaled by the probes the sweep process took right
        # before and right after it: a 5-s cold pass outlasts one reading.
        reading = math.sqrt(p["probe_s"] * p["probe_after_s"])
        (cold if p["kind"] == "cold" else warm).append((p["wall_s"], REF_PROBE_S / reading))
        out.readings.setdefault("sweep probe", []).append(reading)
        out.ops.append((f"pass{i}.{p['kind']}", p["wall_s"], None))
    points = out.points = result["passes"][0]["points"]
    out.jobs = config["jobs"]
    peak_mb = max(result["maxrss_kb"], result["workers_maxrss_kb"]) / 1024

    def metrics(scale: bool):
        return {
            "setup_s": (median_at(setups, scale), "s"),
            # The hit path's own gate; the cold path is gated by points_per_s.
            "latency_geomean_s": (median_at(warm, scale) / points, "s"),
            "points_per_s": (points / median_at(cold, scale), "1/s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }

    out.metrics, out.raw = metrics(scale=True), metrics(scale=False)
    cold_s, warm_s = median_at(cold, False), median_at(warm, False)
    out.extra = {
        "hit_points_per_s": (points / warm_s, "1/s"),
        "cold_pass_s": (cold_s, "s"),
        "warm_pass_s": (warm_s, "s"),
    }
    out.layers = {
        "batch.parent_cpu_s": statistics.median(p["parent_cpu_s"] for p in result["passes"] if p["kind"] == "cold"),
    }
    return out


# -- service-mix -------------------------------------------------------------


def _start_server(ctx: Ctx, store: pathlib.Path, op: str) -> Tuple[subprocess.Popen, ServiceClient, float]:
    argv = ["serve", "--port", "0", "--workers", "2", "-j", "2", "--cache-dir", str(store)]
    with open(ctx.path(op + ".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = ctx.popen(ctx.repro_cmd(argv), op=op, stdout=subprocess.PIPE, stderr=err)
    line = proc.stdout.readline().decode()
    if not line.startswith("serving on "):
        raise RuntimeError(f"server did not start: {line!r}")
    client = ServiceClient(line.split()[-1], timeout=SERVICE_TIMEOUT_S)
    proc.stdout.readline()
    while True:
        try:
            client.health()
            return proc, client, time.perf_counter() - t0
        except ServiceError:
            time.sleep(0.002)


def _stop_server(proc: subprocess.Popen) -> int:
    proc.send_signal(signal.SIGINT)
    rc, rss_kb = reap(proc)
    proc.stdout.close()
    if rc != 0:
        raise RuntimeError(f"server exited {rc}")
    return rss_kb


def service_mix(ctx: Ctx) -> Outcome:
    out = Outcome()
    setups = []
    for i in range(SETUP_SAMPLES - 1):
        factor = reference_factor(ctx, out)
        proc, _, elapsed = _start_server(ctx, ctx.fresh("setup-store"), op=f"setup{i}")
        setups.append((elapsed, factor))
        _stop_server(proc)
    warmup, ops = inputs.service_plan(ctx.seed, service_blocks(ctx.seconds))
    records = ctx.expected["records"]
    factor = reference_factor(ctx, out)
    proc, client, elapsed = _start_server(ctx, ctx.fresh("store"), op="server")
    setups.append((elapsed, factor))
    samples = _new_samples()
    try:
        warm = Outcome()
        _drive(client, list(enumerate(warmup)), records, warm, _new_samples())
        out.attempted, out.failed = warm.attempted, warm.failed
        out.notes = [f"warm-up {note}" for note in warm.notes]
        before = client.stats()
        deadline = time.perf_counter() + DEADLINE_FACTOR * ctx.seconds
        # The timed phase runs in segments with the server idle between
        # them, so that a host-speed reading can sit right before and
        # right after each segment without competing with it.
        indexed = list(enumerate(ops))
        factors, walls = [reference_factor(ctx, out)], []
        for k in range(SERVICE_SEGMENTS):
            lo, hi = k * len(indexed) // SERVICE_SEGMENTS, (k + 1) * len(indexed) // SERVICE_SEGMENTS
            walls.append(_drive(client, indexed[lo:hi], records, out, samples, k, deadline))
            factors.append(reference_factor(ctx, out))
        after = client.stats()
    finally:
        rss_kb = _stop_server(proc)
    factors = [math.sqrt(a * b) for a, b in zip(factors, factors[1:])]

    def metrics(scale: bool):
        by_class: Dict[str, List[float]] = {"search": [], "implemented": [], "hit": []}
        for cls, latency, k in samples["latency"]:
            by_class[cls].append(latency * factors[k] if scale else latency)
        wall = sum(w * f if scale else w for w, f in zip(walls, factors))
        return by_class, {
            "setup_s": (median_at(setups, scale), "s"),
            "latency_geomean_s": (geomean(statistics.median(v) for v in by_class.values()), "s"),
            "points_per_s": (len(out.ops) / wall, "1/s"),
            "peak_rss_mb": (rss_kb / 1024, "MB"),
        }

    by_class, out.metrics = metrics(scale=True)
    _, out.raw = metrics(scale=False)
    misses = by_class["search"] + by_class["implemented"]
    out.extra = {
        "latency_p50_s": (quantile(misses, 50), "s"),
        "latency_p90_s": (quantile(misses, 90), "s"),
        "hit_latency_p50_s": (statistics.median(by_class["hit"]), "s"),
        "search_latency_p50_s": (statistics.median(by_class["search"]), "s"),
        "implemented_latency_p50_s": (statistics.median(by_class["implemented"]), "s"),
    }
    miss_n = max(1, len(misses))
    out.queue_wait = {cls: statistics.fmean(samples.get("queued_" + cls, [0.0])) for cls in by_class}
    out.layers = {
        "service.post_rtt_s": statistics.median(samples["post_rtt"]),
        "service.get_rtt_s": statistics.median(samples["get_rtt"]) if samples["get_rtt"] else 0.0,
        "service.queue_wait_p50_s": quantile(samples["queued"], 50),
        "service.queue_wait_p90_s": quantile(samples["queued"], 90),
        "service.run_p50_s": quantile(samples["run"], 50),
        "service.run_p90_s": quantile(samples["run"], 90),
        "service.polls_per_miss": samples["polls"] / miss_n,
        "service.compiled": after["compiled"] - before["compiled"],
        "service.cache_hits": after["cache_hits"] - before["cache_hits"],
        "service.coalesced": after["coalesced"] - before["coalesced"],
    }
    return out


def canonical_ok(record: dict, records: dict, spec, implement: bool) -> Optional[str]:
    """``None`` when ``record`` is terminal, not failed, and equal to the
    expected record of ``spec``; otherwise why not."""
    status = record.get("status")
    if status in (None, "error", "timeout", "cancelled"):
        return f"status {status}"
    if inputs.canonical(record) != records.get(inputs.expected_key(spec, implement)):
        return "record differs from expected"
    return None


def _new_samples() -> dict:
    return {"latency": [], "post_rtt": [], "get_rtt": [], "queued": [], "run": [], "polls": 0}


def _drive(client: ServiceClient, ops, records: dict, out: Outcome, samples: dict,
           segment: int = 0, deadline: float = math.inf) -> float:
    """Run ``ops`` ((index, operation) pairs) to completion over
    closed-loop connections (none starts after ``deadline``), adding to
    ``samples``; returns the wall time.  Polls at a fixed short interval
    rather than through ``ServiceClient.wait``, whose 0.25 s poll would
    quantize latency; each call is timed around the client method."""
    lock = threading.Lock()
    cursor = iter(ops)

    def connection() -> None:
        while True:
            with lock:
                item = next(cursor, None)
            if item is None or time.perf_counter() > deadline:
                return
            index, (cls, spec, implement) = item
            op = f"{cls}.{index}"
            try:
                t0 = time.perf_counter()
                snap = client.submit(spec, options={"implement": implement})
                post_rtt = time.perf_counter() - t0
                get_rtts, polls = [], 0
                while snap.get("status") in ("queued", "running"):
                    time.sleep(SERVICE_POLL_S)
                    t1 = time.perf_counter()
                    snap = client.job(snap["id"])
                    get_rtts.append(time.perf_counter() - t1)
                    polls += 1
                seen = time.perf_counter() - t0
            except ServiceError as exc:
                with lock:
                    out.attempted += 1
                    out.fail(f"{op}: {exc}")
                continue
            if (cls == "hit") != bool(snap.get("cached")):
                problem = "changed class (hit/miss)"
            else:
                problem = canonical_ok(snap.get("record") or {}, records, spec, implement)
            with lock:
                out.attempted += 1
                out.ops.append((op, seen, inputs.expected_key(spec, implement)))
                if problem is not None:
                    out.fail(f"{op}: {problem}")
                    continue
                samples["post_rtt"].append(post_rtt)
                samples["get_rtt"].extend(get_rtts)
                if cls == "hit":
                    samples["latency"].append((cls, post_rtt, segment))
                else:
                    # Submit to terminal record, as the server timed it,
                    # plus the submission's round trip: free of the
                    # client's polling interval.
                    queued, run = float(snap["queued_s"]), float(snap["run_s"])
                    samples["latency"].append((cls, post_rtt + queued + run, segment))
                    samples["queued"].append(queued)
                    samples.setdefault("queued_" + cls, []).append(queued)
                    samples["run"].append(run)
                    samples["polls"] += polls

    threads = [threading.Thread(target=connection) for _ in range(SERVICE_CONNECTIONS)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    t1 = time.perf_counter()
    out.window = (out.window[0] if out.window else t0, t1)
    return t1 - t0


WORKLOADS = {"cli-compile": cli_compile, "dse-sweep": dse_sweep, "service-mix": service_mix}
