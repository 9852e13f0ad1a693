"""Boot the compile service as a subprocess and smoke every route.

This is the end-to-end deployment check CI runs (and the shortest
honest demo of the service): start ``python -m repro serve`` on an
ephemeral port, talk to it only through
:class:`repro.service.client.ServiceClient` — submit a job, poll it
terminal, fetch the cached record by content hash, run a small sweep,
cross-check ``/v1/stats`` — then shut the server down.

Run it from a checkout::

    PYTHONPATH=src python examples/service_smoke.py
"""

from __future__ import annotations

import os
import pathlib
import re
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import CompileOptions, ServiceClient  # noqa: E402


def start_server(cache_dir: str) -> tuple[subprocess.Popen, str]:
    """Launch ``repro serve`` on port 0 and scrape the bound URL from
    its first stdout line (``serving on http://...``)."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--workers", "2",
            "--cache-dir", cache_dir,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    assert proc.stdout is not None
    line = proc.stdout.readline()
    match = re.search(r"serving on (http://\S+)", line)
    if not match:
        proc.kill()
        raise RuntimeError(f"server did not announce a URL: {line!r}")
    return proc, match.group(1)


def main() -> int:
    with tempfile.TemporaryDirectory() as cache_dir:
        proc, url = start_server(cache_dir)
        try:
            client = ServiceClient(url)

            health = client.health()
            assert health["ok"], health
            print(f"server {url} healthy (version {health['version']})")

            options = CompileOptions(implement=False)
            spec = {"height": 8, "width": 8, "mcr": 1,
                    "mac_frequency_mhz": 400.0, "formats": ["INT4"]}

            snap = client.submit(spec, options=options)
            final = client.wait(snap["id"], timeout=300)
            assert final["status"] == "ok", final
            print(f"job {snap['id']}: {final['status']}")

            record = client.result(snap["key"])
            assert record is not None and record["status"] == "ok"
            print(f"result {snap['key'][:12]}…: cache hit")

            # Resubmitting the identical spec must not recompile.
            again = client.submit(spec, options=options)
            assert again["status"] == "ok" and again["cached"], again
            print("resubmit: served from the store")

            sweep = client.submit_sweep(
                {"height": ["8"], "width": ["8", "16"], "mcr": ["1"],
                 "frequency": ["400"], "formats": ["INT4"]},
                options=options,
            )
            done = client.wait_sweep(sweep["id"], timeout=600)
            assert done["counts"].get("ok") == sweep["points"], done
            print(f"sweep {sweep['id']}: {done['counts']}")

            stats = client.stats()
            # 8x8 compiled once ever — the single submit and the sweep
            # point share one content hash.
            assert stats["compiled"] == 2, stats
            print(f"stats: compiled {stats['compiled']}, "
                  f"cache hits {stats['cache_hits']}, "
                  f"store {stats['store']['entries']} entries")
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
    print("service smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
