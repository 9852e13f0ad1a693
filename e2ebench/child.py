"""Code the benchmark runs in its own child processes.

    python child.py prime              resolve the nominal and signoff3 SCLs
    python child.py sweep < config     the dse-sweep passes (JSON result)
    python child.py repro <argv...>    ``repro.cli.main(argv)``

With ``$E2EBENCH_SPANS`` set, the layer wrappers of ``spans.py`` are
installed first and the spans are written there when the process ends
(pool workers append theirs after every job).  Without it nothing of
``spans.py`` is imported, and ``repro`` runs as ``python -m repro``
would run it.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from contextlib import nullcontext


def spin(iterations: int = 200_000) -> float:
    """Seconds a fixed pure-Python loop takes: the host-speed probe."""
    t0 = time.perf_counter()
    x = 0
    for i in range(iterations):
        x += i
    return time.perf_counter() - t0


def host_probe() -> float:
    """Best of two :func:`spin` timings, taken while no workload process
    runs."""
    return min(spin(), spin())


def _traced() -> bool:
    return bool(os.environ.get("E2EBENCH_SPANS"))


def prime() -> int:
    from repro.scl.library import default_scl
    from repro.signoff.corners import parse_corners, worst_corner_scl
    from repro.tech.process import GENERIC_40NM

    default_scl()
    worst_corner_scl(GENERIC_40NM, parse_corners("signoff3"))
    return 0


def sweep(config: dict) -> int:
    """Cold passes over the seeded grid, each into a fresh result store
    and followed by warm passes in which every point is a hit.  Prints
    one JSON line: per-pass wall and parent CPU time, host probes right
    before and right after the pass, checked outputs, and the peak RSS
    of this process and of its pool workers."""
    from repro import BatchCompiler

    from inputs import canonical, expected_key, sweep_order

    with open(config["expected"]) as fh:
        expected = json.load(fh)["records"]
    specs = sweep_order(config["seed"])
    # Untimed: the engine's lazy imports and SCL load, so that every
    # timed cold pass does the same work.
    BatchCompiler(jobs=config["jobs"], use_cache=False, journal=False).compile_specs(
        specs[:2], implement=False
    )
    keys = [expected_key(s, implement=False) for s in specs]
    passes = []
    if _traced():
        from spans import span
    else:
        span = None
    start = time.perf_counter()
    for round_i in range(config["rounds"]):
        if round_i and time.perf_counter() - start > config["deadline_s"]:
            break
        cache_dir = os.path.join(config["cache_root"], f"store-{round_i}")
        for pass_i in range(1 + config["warm"]):
            kind = "cold" if pass_i == 0 else "warm"
            probe = host_probe()
            engine = BatchCompiler(jobs=config["jobs"], cache_dir=cache_dir)
            with span("sweep.pass", f"pass{len(passes)}.{kind}") if span else nullcontext():
                cpu0 = time.process_time()
                t0 = time.perf_counter()
                result = engine.compile_specs(specs, implement=False)
                wall = time.perf_counter() - t0
                cpu = time.process_time() - cpu0
            probe_after = host_probe()
            bad = []
            for key, record in zip(keys, result.records):
                status = record.get("status")
                if status in ("error", "timeout") or canonical(record) != expected.get(key):
                    bad.append(f"{key[:20]} {status}")
            passes.append(
                {
                    "kind": kind,
                    "probe_s": probe,
                    "probe_after_s": probe_after,
                    "wall_s": wall,
                    "parent_cpu_s": cpu,
                    "points": len(result.records),
                    "hits": result.stats.cache_hits,
                    "bad": bad,
                }
            )
    print(
        json.dumps(
            {
                "passes": passes,
                "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "workers_maxrss_kb": resource.getrusage(
                    resource.RUSAGE_CHILDREN
                ).ru_maxrss,
            }
        )
    )
    return 0


def main(argv) -> int:
    mode, rest = argv[0], argv[1:]
    tracer = None
    if _traced():
        import spans as tracer

        tracer.install(os.environ["E2EBENCH_SPANS"], os.environ.get("E2EBENCH_OP", mode))
    try:
        if mode == "prime":
            return prime()
        if mode == "sweep":
            return sweep(json.loads(sys.stdin.read()))
        if mode == "repro":
            from repro.cli import main as repro_main

            return repro_main(rest)
        raise SystemExit(f"unknown mode {mode!r}")
    finally:
        if tracer is not None:
            tracer.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
