"""Compile service end-to-end: CompileOptions canonicalization, the
ResultStore backends (budgeted LRU eviction, quarantine accounting),
the JobQueue scheduler (dedup, priorities, cancellation) and the live
HTTP API — including the acceptance criteria of the service: two
concurrent clients submitting the same sweep compile each content hash
exactly once, in the one worker pool and never in the server process;
a cache-hit fetch is byte-identical to the engine's record; injected
crashes, raises and hangs land as terminal statuses instead of hung
clients; and malformed requests are 4xx, never a wedged handler.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import random
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.batch.cache import (
    CACHE_SCHEMA_VERSION,
    MemoryResultStore,
    ResultCache,
    log_dir,
)
from repro.batch.engine import BatchCompiler
from repro.batch.faults import FaultPlan
from repro.batch.resilience import SweepJournal, list_journals, prune_journals
from repro.errors import ServiceError, SpecificationError
from repro.options import (
    DEFAULT_VERIFY_VECTORS,
    PPA_PRESETS,
    CompileOptions,
)
from repro.service.client import ServiceClient
from repro.service.queue import JobQueue
from repro.service.server import create_server
from repro.spec import INT4, MacroSpec


def fast_spec(**overrides) -> MacroSpec:
    """A spec whose search-only compile takes well under a second."""
    base = dict(
        height=8,
        width=8,
        mcr=1,
        input_formats=(INT4,),
        weight_formats=(INT4,),
        mac_frequency_mhz=400.0,
    )
    base.update(overrides)
    return MacroSpec(**base)


#: Search-only: the working options for every compute-bearing test.
FAST = CompileOptions(implement=False)


@contextlib.contextmanager
def serving(queue: JobQueue):
    """A live HTTP server over ``queue`` on an ephemeral port; the
    queue is closed on exit."""
    server = create_server(queue)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield ServiceClient(server.base_url)
    finally:
        server.shutdown()
        server.server_close()
        queue.close()


# -- CompileOptions: one canonical spelling ----------------------------------


class TestCompileOptions:
    def test_corner_spellings_converge(self):
        from repro.signoff.corners import CornerSet, parse_corners

        comma = CompileOptions(corners="SS,TT,FF")
        listed = CompileOptions(corners=["SS", "TT", "FF"])
        cs = CompileOptions(
            corners=CornerSet.from_names(("SS", "TT", "FF"), name="t")
        )
        assert comma == listed == cs
        assert comma.corners == ("SS", "TT", "FF")
        preset = CompileOptions(corners="signoff3")
        assert preset.corners == parse_corners("signoff3").names

    def test_equal_spellings_share_one_job_key(self):
        spec = fast_spec()
        a = CompileOptions(corners="SS,TT,FF", seed=7)
        b = CompileOptions(corners=("SS", "TT", "FF"), seed=7)
        assert a.compile_job(spec).key() == b.compile_job(spec).key()

    def test_execution_policy_is_not_part_of_the_key(self):
        spec = fast_spec()
        plain = CompileOptions()
        tuned = CompileOptions(job_timeout_s=5.0, retries=4)
        assert plain.compile_job(spec).key() == tuned.compile_job(spec).key()

    def test_rejects_bad_values(self):
        with pytest.raises(SpecificationError):
            CompileOptions(vt="turbo")
        with pytest.raises(SpecificationError):
            CompileOptions(verify_vectors=0)
        with pytest.raises(SpecificationError):
            CompileOptions(corners="SS,NOPE")
        with pytest.raises(SpecificationError):
            CompileOptions(job_timeout_s=-1.0)
        with pytest.raises(SpecificationError):
            CompileOptions(retries=-1)
        with pytest.raises(SpecificationError):
            CompileOptions(input_sparsity=1.5)
        with pytest.raises(SpecificationError, match="weight_sparsity"):
            CompileOptions(weight_sparsity=float("nan"))
        for timeout in (float("nan"), float("inf"), float("-inf"), 10**400):
            with pytest.raises(SpecificationError, match="job_timeout_s"):
                CompileOptions(job_timeout_s=timeout)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("implement", "false"),
            ("implement", 0),
            ("verify", "true"),
            ("verify", None),
            ("seed", True),
            ("seed", 7.0),
            ("retries", True),
            ("retries", "2"),
            ("verify_vectors", False),
            ("verify_vectors", 128.0),
            ("job_timeout_s", True),
            ("job_timeout_s", "5"),
            ("weight_sparsity", "x"),
            ("weight_sparsity", "0.5"),
            ("input_sparsity", True),
        ],
    )
    def test_rejects_wrong_types(self, field, value):
        """Types are checked, never coerced: a hashed ``"false"`` would
        key apart from ``False`` and still build an implementation."""
        with pytest.raises(SpecificationError, match=field):
            CompileOptions(**{field: value})
        with pytest.raises(SpecificationError, match=field):
            CompileOptions.from_dict({field: value})

    def test_dict_roundtrip(self):
        options = CompileOptions(
            corners="typical", vt="auto", seed=3, verify=True,
            job_timeout_s=12.0, retries=2,
        )
        assert CompileOptions.from_dict(options.to_dict()) == options

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(SpecificationError, match="vectors_verify"):
            CompileOptions.from_dict({"vectors_verify": 9})

    def test_retry_policy_mapping(self):
        policy = CompileOptions(retries=2).retry_policy()
        assert policy.max_attempts == 3

    def test_validate_catches_unknown_process(self):
        with pytest.raises(Exception):
            CompileOptions(process="exotic3").validate()

    def test_cli_args_and_http_dict_spell_identically(self):
        """The CLI namespace and an HTTP options object for the same
        request must build byte-identical job keys."""
        from repro.cli import _options_from_args, build_parser

        args = build_parser().parse_args(
            ["sweep", "--corners", "SS,TT,FF", "--vt", "auto",
             "--seed", "5", "--no-implement"]
        )
        via_cli = _options_from_args(args)
        via_http = CompileOptions.from_dict(
            {"corners": ["SS", "TT", "FF"], "vt": "auto", "seed": 5,
             "implement": False}
        )
        spec = fast_spec()
        assert (
            via_cli.compile_job(spec).key()
            == via_http.compile_job(spec).key()
        )

    def test_ppa_presets_cover_cli_choices(self):
        assert set(PPA_PRESETS) == {
            "balanced", "energy", "area", "performance",
        }
        assert CompileOptions().verify_vectors == DEFAULT_VERIFY_VECTORS


# -- ResultStore backends -----------------------------------------------------


def _record(n: int, pad: int = 0) -> dict:
    return {"status": "ok", "n": n, "pad": "x" * pad}


def _put_sized(cache: ResultCache, key: str, n: int, size: int) -> None:
    cache.put(key, _record(n, pad=size))


def _keys(n: int):
    return [f"{i:02d}" + "ab" * 31 for i in range(n)]


class TestMemoryResultStore:
    def test_roundtrip_isolated_copies(self):
        store = MemoryResultStore()
        record = {"status": "ok", "nested": {"v": 1}}
        store.put("k", record)
        record["nested"]["v"] = 999
        got = store.get("k")
        assert got["nested"]["v"] == 1
        got["nested"]["v"] = 5
        assert store.get("k")["nested"]["v"] == 1
        assert "k" in store and "missing" not in store


class TestResultCacheBudget:
    def test_eviction_is_lru_and_respects_hits(self, tmp_path):
        """Past the budget whole segments go, oldest first; an entry
        this process has hit is carried into a fresh segment, so it
        outlives an older one that was not hit."""
        cache = ResultCache(tmp_path)
        cache.budget_mb = 0.01  # 10 kB
        keys = _keys(3)
        for i, key in enumerate(keys):
            _put_sized(cache, key, i, size=3000)
        assert cache.get(keys[0]) is not None  # hit the oldest
        _put_sized(cache, _keys(4)[3], 3, size=3000)  # now over budget
        cache.enforce_budget()
        # keys[1] was never hit → gone; the hit survived.
        assert cache.get(keys[1]) is None
        assert cache.get(keys[0]) is not None
        assert cache.stats.evictions >= 1
        occ = cache.occupancy()
        assert occ["bytes"] <= 10_000
        assert occ["evictions"] == cache.stats.evictions
        # A later process still finds the carried entry.
        assert ResultCache(tmp_path).get(keys[0]) is not None

    def test_quarantine_counted_never_evicted(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.budget_mb = 0.005  # 5 kB
        key = _keys(1)[0]
        _put_sized(cache, key, 0, size=1000)
        corrupt = log_dir(tmp_path) / "damaged.jsonl"
        corrupt.write_text("x" * 19_999 + "\n")  # alone busts the budget
        os.utime(corrupt, (1000.0, 1000.0))  # the oldest segment
        with pytest.warns(RuntimeWarning, match="quarantined"):
            cache.enforce_budget()
        assert corrupt.exists(), "quarantine evidence must survive sweeps"
        assert cache.get(key) is None, "evictable record paid the price"
        occ = cache.occupancy()
        assert occ["quarantined"] == 1
        assert occ["quarantined_bytes"] == 20_000
        assert cache.stats.quarantine_kept == 1

    def test_env_budget(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_BUDGET_MB", "7.5")
        assert ResultCache(tmp_path).budget_mb == 7.5
        monkeypatch.setenv("REPRO_CACHE_BUDGET_MB", "banana")
        with pytest.warns(RuntimeWarning, match="REPRO_CACHE_BUDGET_MB"):
            assert ResultCache(tmp_path).budget_mb is None
        monkeypatch.delenv("REPRO_CACHE_BUDGET_MB")
        assert ResultCache(tmp_path).budget_mb is None

    def test_unbudgeted_cache_never_evicts(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i, key in enumerate(_keys(5)):
            _put_sized(cache, key, i, size=5000)
        assert cache.enforce_budget() == 0
        assert cache.entry_count() == 5


# -- JobQueue scheduling ------------------------------------------------------


class TestJobQueue:
    def test_corner_jobs_resolve_the_corner_scl_once_in_the_parent(
        self, monkeypatch
    ):
        """Service corner jobs get the batch engine's prewarm: the
        parent resolves the worst-corner SCL once per option set,
        before the workers fork, instead of each worker resolving it."""
        import repro.signoff.corners as corners

        parent = os.getpid()
        calls = []
        real = corners.worst_corner_scl

        def counted(*args, **kwargs):
            if os.getpid() == parent:
                calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(corners, "worst_corner_scl", counted)
        options = CompileOptions(implement=False, corners="signoff3")
        with JobQueue(use_cache=False, journal=False, workers=2) as q:
            jobs = [
                q.submit(fast_spec(mac_frequency_mhz=f), options=options)
                for f in (300.0, 350.0)
            ]
            for job in jobs:
                assert q.wait(job["id"], timeout=300)["status"] == "ok"
        assert len(calls) == 1

    def test_submit_compiles_and_resubmit_hits_store(self):
        with JobQueue(use_cache=False, workers=1) as q:
            snap = q.submit(fast_spec(), options=FAST)
            assert snap["status"] == "queued"
            final = q.wait(snap["id"], timeout=120)
            assert final["status"] == "ok"
            assert final["record"]["job_key"] == snap["key"]
            again = q.submit(fast_spec(), options=FAST)
            assert again["status"] == "ok" and again["cached"]
            stats = q.stats()
            assert stats["compiled"] == 1
            assert stats["cache_hits"] == 1

    def test_coalescing_attaches_to_inflight_job(self):
        q = JobQueue(use_cache=False, workers=1, start=False)
        try:
            first = q.submit(fast_spec(), options=FAST)
            second = q.submit(fast_spec(), options=FAST)
            assert second["id"] == first["id"]
            assert second["coalesced"] == 1
            q.start()
            final = q.wait(first["id"], timeout=120)
            assert final["status"] == "ok"
            stats = q.stats()
            assert stats["submitted"] == 2
            assert stats["coalesced"] == 1
            assert stats["compiled"] == 1
        finally:
            q.close()

    def test_durations_survive_wall_clock_steps(self, monkeypatch):
        """An NTP step moving the wall clock backwards mid-job must not
        produce negative durations: ``queued_s``/``run_s``/``uptime_s``
        are monotonic interval math, wall timestamps are display-only."""
        import repro.service.queue as qmod

        q = JobQueue(use_cache=False, start=False)
        try:
            snap = q.submit(fast_spec(), options=FAST)
            assert snap["queued_s"] >= 0 and snap["run_s"] is None
            entry = q._jobs[snap["id"]]
            entry.mark_started()
            # NTP steps the wall clock back an hour mid-job.
            real_time = time.time
            monkeypatch.setattr(
                qmod.time, "time", lambda: real_time() - 3600.0
            )
            with q._lock:
                q._finish(entry, "ok", {"status": "ok"})
            final = q.job(snap["id"])
            # The skew is visible in the display metadata...
            assert final["finished"] < final["submitted"]
            # ...but every derived interval stays sane.
            assert final["run_s"] is not None and final["run_s"] >= 0
            assert final["queued_s"] >= 0
            assert q.stats()["uptime_s"] >= 0
        finally:
            q.close()

    def test_cached_hit_snapshot_reports_zero_durations(self):
        q = JobQueue(use_cache=False, start=False)
        q.store.put(FAST.compile_job(fast_spec()).key(), {"status": "ok"})
        try:
            snap = q.submit(fast_spec(), options=FAST)
            assert snap["cached"] and snap["status"] == "ok"
            assert snap["queued_s"] == 0.0 and snap["run_s"] == 0.0
        finally:
            q.close()

    def test_priority_orders_the_heap(self):
        q = JobQueue(use_cache=False, start=False)
        try:
            low = q.submit(fast_spec(height=16), options=FAST, priority=5)
            high = q.submit(fast_spec(width=16), options=FAST, priority=-5)
            mid = q.submit(fast_spec(mcr=2), options=FAST, priority=0)
            with q._lock:
                order = [q._pop_locked().id for _ in range(3)]
            assert order == [high["id"], mid["id"], low["id"]]
        finally:
            q.close()

    def test_cancel_queued_only(self):
        q = JobQueue(use_cache=False, start=False)
        try:
            snap = q.submit(fast_spec(), options=FAST)
            outcome = q.cancel(snap["id"])
            assert outcome["cancelled"] and outcome["status"] == "cancelled"
            again = q.cancel(snap["id"])  # already terminal
            assert not again["cancelled"]
            with pytest.raises(ServiceError, match="unknown job id"):
                q.cancel("job-nope")
            assert q.stats()["cancelled"] == 1
        finally:
            q.close()

    def test_close_cancels_queued_and_refuses_new_work(self):
        q = JobQueue(use_cache=False, start=False)
        snap = q.submit(fast_spec(), options=FAST)
        q.close()
        assert q.job(snap["id"])["status"] == "cancelled"
        with pytest.raises(ServiceError, match="shutting down"):
            q.submit(fast_spec(), options=FAST)

    def test_racing_submitters_lose_no_wakeup_and_no_count(self, tmp_path):
        """Eight threads race the same eight specs, each in its own
        order, into a three-process pool (more workers than cores) with
        a tiny switch interval.  Dispatch has no poll tick, so a lost
        wakeup leaves a job queued past its wait timeout, and a lost
        counter update breaks the sum."""
        specs = [
            fast_spec(height=h, width=w, mac_frequency_mhz=f)
            for h in (8, 16)
            for w in (8, 16)
            for f in (400.0, 500.0)
        ]
        statuses = []
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with JobQueue(cache_dir=tmp_path, workers=3) as q:

                def submitter(seed: int) -> None:
                    order = random.Random(seed).sample(specs, len(specs))
                    ids = [q.submit(spec, options=FAST)["id"] for spec in order]
                    for job_id in ids:
                        statuses.append(q.wait(job_id, timeout=60)["status"])

                threads = [
                    threading.Thread(target=submitter, args=(seed,))
                    for seed in range(8)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                    assert not t.is_alive()
                stats = q.stats()
        finally:
            sys.setswitchinterval(previous)
        assert statuses == ["ok"] * 64
        assert stats["compiled"] == 8
        assert stats["submitted"] == 64 == (
            stats["compiled"] + stats["coalesced"] + stats["cache_hits"]
        )
        # All three workers start with the first job, whatever the race.
        assert stats["executor"]["worker_spawns"] == 3


# -- live HTTP API ------------------------------------------------------------


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    """One live server on an ephemeral port for the whole module."""
    cache_dir = tmp_path_factory.mktemp("service-cache")
    queue = JobQueue(cache_dir=cache_dir, workers=2)
    server = create_server(queue)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(server.base_url)
    yield {"client": client, "queue": queue, "cache_dir": cache_dir,
           "base_url": server.base_url}
    server.shutdown()
    server.server_close()
    queue.close()


SPEC_PAYLOAD = {
    "height": 8, "width": 8, "mcr": 1,
    "mac_frequency_mhz": 400.0, "formats": ["INT4"],
}


class TestServiceHTTP:
    def test_health_and_stats(self, service):
        health = service["client"].health()
        assert health["ok"] and health["run_id"]
        stats = service["client"].stats()
        assert stats["workers"] == 2
        assert "store" in stats

    def test_submit_poll_fetch(self, service):
        client = service["client"]
        snap = client.submit(SPEC_PAYLOAD, options=FAST)
        final = client.wait(snap["id"], timeout=300)
        assert final["status"] == "ok"
        assert final["record"]["status"] == "ok"
        fetched = client.result(snap["key"])
        assert fetched is not None and fetched["status"] == "ok"
        assert client.result("deadbeef" * 8) is None

    def test_spec_accepts_macrospec_objects(self, service):
        snap = service["client"].submit(fast_spec(), options=FAST)
        assert snap["key"] == FAST.compile_job(fast_spec()).key()

    def test_unknown_ids_are_404(self, service):
        with pytest.raises(ServiceError, match="404"):
            service["client"].job("job-nope")
        with pytest.raises(ServiceError, match="404"):
            service["client"].sweep("sweep-nope")
        with pytest.raises(ServiceError, match="404"):
            service["client"].cancel("job-nope")

    @pytest.mark.parametrize("length", ["-1", "abc", "1e3", "+12"])
    def test_malformed_content_length_is_400(self, service, length):
        """Sent over a raw socket, with no body: ``-1`` must not reach
        ``rfile.read(-1)``, which holds the handler until the client
        hangs up, nor ``+12`` a read of 12 bytes that never come, and
        ``abc`` must not be a 500.  The socket timeout turns a hang
        into a failure."""
        host, port = service["base_url"].rsplit("/", 1)[1].split(":")
        request = (
            f"POST /v1/jobs HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {length}\r\n\r\n"
        ).encode()
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.sendall(request)
            reply = sock.makefile("rb").read()
        status_line, _, body = reply.partition(b"\r\n")
        assert status_line.split()[1] == b"400"
        assert b"Content-Length" in body

    def test_closed_queue_is_503(self, tmp_path):
        queue = JobQueue(cache_dir=tmp_path, workers=1)
        with serving(queue) as client:
            queue.close()
            with pytest.raises(ServiceError, match="503.*shutting down"):
                client.submit(SPEC_PAYLOAD, options=FAST)

    def test_malformed_requests_are_400(self, service):
        import urllib.error
        import urllib.request

        url = service["base_url"] + "/v1/jobs"
        spec = '"height": 8, "width": 8, "formats": ["INT4"]'
        submitted = service["client"].stats()["submitted"]
        for body in (
            "{notjson", '{"no_spec": 1}', '{"spec": {"height": "tall"}}',
            # Numbers no float holds, and non-finite PPA weights.
            '{"spec": {%s, "mac_frequency_mhz": 1%s}}' % (spec, "0" * 400),
            '{"spec": {"height": 1e999, "width": 8, "formats": ["INT4"]}}',
            '{"spec": {"height": 8, "width": 8, "formats": ["INT4"], "input_formats":'
            ' [{"name": "INT4", "kind": "int", "bits": Infinity}]}}',
            '{"spec": {%s, "ppa": {"power": NaN}}}' % spec,
            '{"spec": {%s, "ppa": {"area": 1e999}}}' % spec,
        ):
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    urllib.request.Request(url, data=body.encode(), method="POST")
                )
            assert err.value.code == 400
            assert "error" in json.loads(err.value.read())
        assert service["client"].stats()["submitted"] == submitted

    @pytest.mark.parametrize(
        "options",
        [{"implement": "false"}, {"job_timeout_s": True}, {"weight_sparsity": "x"}],
    )
    def test_wrong_typed_option_is_400(self, service, options):
        import urllib.error
        import urllib.request

        body = json.dumps({"spec": SPEC_PAYLOAD, "options": options})
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(
                urllib.request.Request(
                    service["base_url"] + "/v1/jobs",
                    data=body.encode(),
                    method="POST",
                )
            )
        assert err.value.code == 400
        assert next(iter(options)) in json.loads(err.value.read())["error"]

    @pytest.mark.parametrize(
        "field, literal",
        [("mac_frequency_mhz", "1e999"), ("mac_frequency_mhz", "NaN"),
         ("update_frequency_mhz", "Infinity")],
    )
    def test_non_finite_frequency_is_400(self, service, field, literal):
        """JSON reads ``1e999`` as infinity and accepts ``NaN`` and
        ``Infinity``: each frequency is refused where it enters, and
        nothing is queued."""
        import urllib.error
        import urllib.request

        spec = json.dumps(dict(SPEC_PAYLOAD, **{field: 0.0}))
        body = '{"spec": %s}' % spec.replace(
            '"%s": 0.0' % field, '"%s": %s' % (field, literal)
        )
        submitted = service["client"].stats()["submitted"]
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(
                urllib.request.Request(
                    service["base_url"] + "/v1/jobs",
                    data=body.encode(),
                    method="POST",
                )
            )
        assert err.value.code == 400
        assert field in json.loads(err.value.read())["error"]
        assert service["client"].stats()["submitted"] == submitted

    def test_infinite_timeout_is_400_and_dispatch_goes_on(self, service):
        """``1e999`` reads as infinity, and an integer of 401 digits
        does not fit a float: each is refused where it enters, so it
        never reaches (and stops) the dispatch loop."""
        import urllib.error
        import urllib.request

        for literal in ("1e999", "1" + "0" * 400):
            body = (
                '{"spec": %s, "options": {"job_timeout_s": %s}}'
                % (json.dumps(SPEC_PAYLOAD), literal)
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    urllib.request.Request(
                        service["base_url"] + "/v1/jobs",
                        data=body.encode(),
                        method="POST",
                    )
                )
            assert err.value.code == 400
            assert "job_timeout_s" in json.loads(err.value.read())["error"]
        client = service["client"]
        snap = client.submit(dict(SPEC_PAYLOAD, mac_frequency_mhz=410.0), options=FAST)
        assert client.wait(snap["id"], timeout=300)["status"] == "ok"

    def test_int1_only_inputs_are_400(self, service):
        """Rejected where it enters, not accepted and compiled (to an
        uncached error record) on every resubmit."""
        import urllib.error
        import urllib.request

        spec = dict(SPEC_PAYLOAD, formats=["INT1"])
        submitted = service["client"].stats()["submitted"]
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(
                urllib.request.Request(
                    service["base_url"] + "/v1/jobs",
                    data=json.dumps({"spec": spec}).encode(),
                    method="POST",
                )
            )
        assert err.value.code == 400
        assert "serial bits" in json.loads(err.value.read())["error"]
        assert service["client"].stats()["submitted"] == submitted

    def test_unknown_option_is_400_with_message(self, service):
        with pytest.raises(ServiceError, match="vektors"):
            service["client"].submit(
                SPEC_PAYLOAD, options={"vektors": 12}
            )

    def test_cancel_terminal_job_reports_lost_race(self, service):
        client = service["client"]
        snap = client.submit(SPEC_PAYLOAD, options=FAST)
        client.wait(snap["id"], timeout=300)
        outcome = client.cancel(snap["id"])
        assert outcome["cancelled"] is False

    def test_sweep_fans_out_and_completes(self, service):
        client = service["client"]
        sweep = client.submit_sweep(
            {"height": ["8"], "width": ["8", "16"], "mcr": ["1"],
             "frequency": ["400"], "formats": ["INT4"]},
            options=FAST,
        )
        assert sweep["points"] == 2
        done = client.wait_sweep(sweep["id"], timeout=600)
        assert done["done"] and done["counts"] == {"ok": 2}

    def test_oversized_sweep_is_400_quickly(self, service):
        """68 bytes that would expand to 16,388,096 specs inside the
        handler are refused before any spec is built."""
        import urllib.error
        import urllib.request

        body = (b'{"axes": {"frequency": ["100:4195:+1"], '
                b'"vdd": ["0.6:1.0:+0.0001"]}}')
        assert len(body) == 68
        submitted = service["client"].stats()["submitted"]
        started = time.monotonic()
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(
                urllib.request.Request(
                    service["base_url"] + "/v1/sweeps", data=body, method="POST"
                )
            )
        assert time.monotonic() - started < 1.0
        assert err.value.code == 400
        assert "16388096 points" in json.loads(err.value.read())["error"]
        assert service["client"].stats()["submitted"] == submitted

    def test_repeated_token_axis_is_400_quickly(self, service):
        """1,000 copies of a full-axis token, a 13 KB body, are refused
        at the 4,097th value generated; nothing is submitted."""
        import urllib.error
        import urllib.request

        body = json.dumps({"axes": {"frequency": ["1:4096:+1"] * 1000}}).encode()
        assert len(body) < 14_000
        submitted = service["client"].stats()["submitted"]
        started = time.monotonic()
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(
                urllib.request.Request(
                    service["base_url"] + "/v1/sweeps", data=body, method="POST"
                )
            )
        assert time.monotonic() - started < 0.1
        assert err.value.code == 400
        assert "expands past 4096 points" in json.loads(err.value.read())["error"]
        assert service["client"].stats()["submitted"] == submitted

    def test_oversized_axis_is_400(self, service):
        """An axis whose tokens together expand past the per-axis cap
        is refused, and nothing is submitted."""
        submitted = service["client"].stats()["submitted"]
        with pytest.raises(
            ServiceError, match="HTTP 400: sweep range '5000' expands past 4096 points"
        ):
            service["client"].submit_sweep({"frequency": ["100:4195:+1", "5000"]})
        assert service["client"].stats()["submitted"] == submitted

    def test_sweep_rejects_unknown_axis_and_ppa(self, service):
        with pytest.raises(ServiceError, match="altitude"):
            service["client"].submit_sweep({"altitude": ["3"]})
        with pytest.raises(ServiceError, match="ppa"):
            service["client"].submit_sweep(
                {"height": ["8"]}, ppa="cheapest"
            )


# -- PR acceptance criteria ---------------------------------------------------


SWEEP_16 = {
    "height": ["8", "16"],
    "width": ["8", "16"],
    "mcr": ["1"],
    "formats": ["INT4"],
    "frequency": ["400", "500"],
    "vdd": ["0.8", "0.9"],
}


class TestAcceptance:
    def test_concurrent_clients_compile_each_hash_once(
        self, tmp_path, monkeypatch
    ):
        """Two clients race the same 16-point sweep; the service must
        compile each content hash exactly once — all of them in the
        pool's four workers, started once, and none in the server
        process."""
        import repro.compiler.syndcim as syndcim

        in_server = []
        execute_job = syndcim.execute_job

        # Pool workers fork with this wrapper in place, but record into
        # their own copy of the list: only a compile run by the server
        # process itself lands in this one.
        @functools.wraps(execute_job)
        def counted(payload):
            in_server.append(os.getpid())
            return execute_job(payload)

        monkeypatch.setattr(syndcim, "execute_job", counted)
        queue = JobQueue(cache_dir=tmp_path, workers=4)
        server = create_server(queue)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            results = [None, None]

            def one_client(slot: int) -> None:
                client = ServiceClient(server.base_url)
                sweep = client.submit_sweep(SWEEP_16, options=FAST)
                results[slot] = client.wait_sweep(sweep["id"], timeout=600)

            threads = [
                threading.Thread(target=one_client, args=(i,))
                for i in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=600)
            for done in results:
                assert done is not None and done["done"]
                assert done["counts"] == {"ok": 16}, done["counts"]
            # Both clients saw the same 16 content hashes…
            assert set(results[0]["keys"]) == set(results[1]["keys"])
            assert len(set(results[0]["keys"])) == 16
            # …and the service compiled each exactly once.
            stats = queue.stats()
            assert stats["compiled"] == 16, stats
            assert stats["store"]["entries"] == 16
            assert stats["executor"] == {
                "workers": 4, "in_flight": 0, "worker_spawns": 4,
            }
            assert in_server == []
        finally:
            server.shutdown()
            server.server_close()
            queue.close()

    def test_cached_result_is_byte_identical_to_engine_record(
        self, tmp_path
    ):
        """GET /v1/results/<hash> must return exactly what a direct
        BatchCompiler stores for the same job — same store, same
        bytes."""
        spec = fast_spec(height=16, width=8)
        with JobQueue(cache_dir=tmp_path, workers=1) as q:
            server = create_server(q)
            thread = threading.Thread(
                target=server.serve_forever, daemon=True
            )
            thread.start()
            try:
                client = ServiceClient(server.base_url)
                snap = client.submit(spec, options=FAST)
                client.wait(snap["id"], timeout=300)
                via_http = client.result(snap["key"])
            finally:
                server.shutdown()
                server.server_close()

        engine = BatchCompiler(
            jobs=1, cache_dir=tmp_path, options=FAST, journal=False
        )
        result = engine.run_jobs([FAST.compile_job(spec)])
        direct = result.records[0]
        assert direct["cached"], "direct run must hit the service's entry"
        stripped = {
            k: v for k, v in direct.items() if k not in ("cached", "job_key")
        }
        assert (
            json.dumps(stripped, sort_keys=True)
            == json.dumps(via_http, sort_keys=True)
        )


# -- chaos: a crashed worker is a status, not an outage -----------------------


class TestChaos:
    def test_crashed_worker_lands_terminal_error_and_service_survives(
        self, tmp_path, monkeypatch
    ):
        """With 100% crash injection a job's worker process dies
        (os._exit in the pool); the client must see a terminal
        ``error`` record — never a hung poll — and the service must
        keep serving clean jobs afterwards."""
        monkeypatch.setenv("REPRO_FAULTS", "crash:1.0")
        monkeypatch.setenv("REPRO_FAULT_SEED", "0")
        # retries=0 keeps the test to one attempt.
        chaotic = FAST.replace(job_timeout_s=120.0, retries=0)
        queue = JobQueue(cache_dir=tmp_path, workers=1)
        server = create_server(queue)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(server.base_url)
            snap = client.submit(SPEC_PAYLOAD, options=chaotic)
            final = client.wait(snap["id"], timeout=300)
            assert final["status"] == "error", final
            assert final["record"]["status"] == "error"
            # Failures are never cached: the hash stays absent.
            assert client.result(snap["key"]) is None
            # The server is still alive and compiles clean work.
            monkeypatch.delenv("REPRO_FAULTS")
            assert client.health()["ok"]
            clean = client.submit(SPEC_PAYLOAD, options=FAST)
            assert client.wait(clean["id"], timeout=300)["status"] == "ok"
            # The crash killed the only worker; the clean job started
            # its replacement.
            assert client.stats()["executor"]["worker_spawns"] == 2
        finally:
            server.shutdown()
            server.server_close()
            queue.close()

    def test_chaos_sweep_over_http_is_terminal_and_matches_clean_run(
        self, tmp_path, monkeypatch
    ):
        """An 8-point ``POST /v1/sweeps`` under seeded crash, raise and
        hang faults: every point ends terminal, each one retried
        exactly through the faults the plan scheduled for it, and every
        record equals a fault-free engine run's minus bookkeeping."""
        axes = {"height": ["8", "16"], "width": ["8", "16"], "mcr": ["1"],
                "formats": ["INT4"], "frequency": ["400", "500"]}
        chaotic = FAST.replace(job_timeout_s=1.0, retries=4)
        max_attempts = chaotic.retry_policy().max_attempts
        planner = JobQueue(use_cache=False, journal=False, start=False)
        keys = planner.submit_sweep(axes, options=chaotic)["keys"]
        planner.close()

        def faults_met(plan, key):
            """The faults ``key`` runs into, one per charged attempt,
            before its first clean attempt (None: budget exhausted)."""
            met = []
            for attempt in range(1, max_attempts + 1):
                fault = plan.planned(key, attempt)
                if fault is None:
                    return met
                met.append(fault)
            return None

        faults = "crash:0.2,raise:0.2,hang:0.15"
        for seed in range(1000):
            plan = FaultPlan.parse(faults, seed=seed)
            met = {key: faults_met(plan, key) for key in keys}
            kinds = [f for m in met.values() if m is not None for f in m]
            # Every kind fires, every point gets a clean attempt within
            # its budget, and backoff and hangs keep the test short.
            if (
                None not in met.values()
                and {"crash", "raise", "hang"} <= set(kinds)
                and max(len(m) for m in met.values()) <= 2
                and kinds.count("hang") <= 2
            ):
                break
        else:
            pytest.fail("no seed schedules every fault kind")
        monkeypatch.setenv("REPRO_FAULTS", faults)
        monkeypatch.setenv("REPRO_FAULT_SEED", str(seed))
        monkeypatch.setenv("REPRO_FAULT_HANG_S", "5")
        with serving(JobQueue(cache_dir=tmp_path, workers=2)) as client:
            sweep = client.submit_sweep(axes, options=chaotic)
            done = client.wait_sweep(sweep["id"], timeout=120, poll_s=0.05)
            records = [client.job(job_id)["record"] for job_id in sweep["jobs"]]
            stats = client.stats()
        assert done["counts"] == {"ok": 8}, done["counts"]
        assert stats["retried"] == sum(1 for m in met.values() if m)

        monkeypatch.delenv("REPRO_FAULTS")
        specs = [MacroSpec.from_dict(r["spec"]) for r in records]
        clean = BatchCompiler(
            jobs=2, use_cache=False, journal=False, options=FAST
        ).compile_specs(specs, implement=False)
        for key, record, clean_record in zip(keys, records, clean.records):
            assert record["job_key"] == clean_record["job_key"] == key
            history = record.get("retry_history", [])
            assert [e["fault"] for e in history] == met[key]
            assert record.get("attempts", 1) == len(met[key]) + 1
            assert _strip_bookkeeping(record) == _strip_bookkeeping(
                clean_record
            )

    def test_watchdog_collateral_is_never_charged(
        self, tmp_path, monkeypatch
    ):
        """Two service jobs share the pool: one hangs past its 0.3 s
        timeout on every attempt, the other (30 s budget) is still
        running each time the watchdog fires.  The watchdog kills only
        the hung job's worker: the hung job ends ``timeout`` after its
        two attempts, the other ends ``ok`` in the worker it started in,
        with no retry bookkeeping."""
        monkeypatch.setenv("REPRO_FAULTS", "hang:1.0")
        monkeypatch.setenv("REPRO_FAULT_HANG_S", "3")
        with serving(JobQueue(cache_dir=tmp_path, workers=2)) as client:
            hung = client.submit(
                SPEC_PAYLOAD,
                options=FAST.replace(job_timeout_s=0.3, retries=1),
            )
            busy = client.submit(
                dict(SPEC_PAYLOAD, width=16),
                options=FAST.replace(job_timeout_s=30.0),
            )
            hung = client.wait(hung["id"], timeout=60, poll_s=0.05)
            busy = client.wait(busy["id"], timeout=60, poll_s=0.05)
            stats = client.stats()
        assert hung["status"] == "timeout"
        record = hung["record"]
        assert record["attempts"] == 2
        assert [e["outcome"] for e in record["retry_history"]] == [
            "timeout", "timeout",
        ]
        assert busy["status"] == "ok"
        assert "attempts" not in busy["record"]
        assert "retry_history" not in busy["record"]
        # Two workers start with the first job; the first kill's retry
        # needs a third; the second kill leaves no work, so no fourth.
        assert stats["executor"]["worker_spawns"] == 3
        assert stats["retried"] == 1


def _strip_bookkeeping(record: dict) -> dict:
    """Everything that may legitimately differ between a chaos run and
    a fault-free run of the same job."""
    return {
        k: v
        for k, v in record.items()
        if k not in (
            "cached", "job_key", "elapsed_s", "attempts", "retry_history",
        )
    }


# -- journals: service pruning and the CLI ------------------------------------


def _make_journal(root, stem: str, age_s: float) -> None:
    journal = SweepJournal(root, run_id=stem)
    journal.begin(total=1, unique=1)
    journal.close()
    stamp = time.time() - age_s
    os.utime(journal.path, (stamp, stamp))


class TestJournals:
    def test_list_newest_first(self, tmp_path):
        for i in range(3):
            _make_journal(tmp_path, f"run-{i}", age_s=100 * (3 - i))
        assert [p.stem for p in list_journals(tmp_path)] == [
            "run-2", "run-1", "run-0",
        ]

    def test_prune_requires_explicit_policy(self, tmp_path):
        _make_journal(tmp_path, "run-a", age_s=10)
        assert prune_journals(tmp_path) == []
        assert len(list_journals(tmp_path)) == 1

    def test_prune_keep_and_age_and_exclude(self, tmp_path):
        for i in range(4):
            _make_journal(tmp_path, f"run-{i}", age_s=1000 * (4 - i))
        removed = prune_journals(tmp_path, keep=2, exclude=("run-0",))
        # Newest two (run-3, run-2) kept by index, run-0 by exclusion.
        assert [p.stem for p in removed] == ["run-1"]
        removed = prune_journals(tmp_path, older_than_s=2500.0)
        assert {p.stem for p in removed} == {"run-0"}
        survivors = {p.stem for p in list_journals(tmp_path)}
        assert survivors == {"run-3", "run-2"}

    def test_service_prunes_after_sweep_but_keeps_own_journal(
        self, tmp_path
    ):
        for i in range(5):
            _make_journal(tmp_path, f"old-{i}", age_s=5000 + i)
        with JobQueue(
            cache_dir=tmp_path, workers=1, journal_keep=2
        ) as q:
            sweep = q.submit_sweep(
                {"height": ["8"], "width": ["8"], "mcr": ["1"],
                 "formats": ["INT4"], "frequency": ["400"]},
                options=FAST,
            )
            deadline = time.monotonic() + 120
            while not q.sweep(sweep["id"])["done"]:
                assert time.monotonic() < deadline
                time.sleep(0.1)
            survivors = {p.stem for p in list_journals(tmp_path)}
            assert q.run_id in survivors, "live journal must survive"
            assert len(survivors - {q.run_id}) <= 2

    def test_journal_cli_list_and_prune(self, tmp_path, capsys):
        from repro.cli import main

        for i in range(3):
            _make_journal(tmp_path, f"run-{i}", age_s=100 * (3 - i))
        assert main(["journal", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "3 segment(s)" in out and "run-2" in out
        assert main(
            ["journal", "--cache-dir", str(tmp_path), "--prune"]
        ) == 1, "prune without a policy must refuse"
        assert main(
            ["journal", "--cache-dir", str(tmp_path), "--prune",
             "--keep", "1"]
        ) == 0
        assert [p.stem for p in list_journals(tmp_path)] == ["run-2"]

    @pytest.mark.parametrize(
        "policy",
        [["--keep", "-1"], ["--older-than", "-5"], ["--older-than", "nan"],
         ["--older-than", "inf"]],
    )
    def test_journal_cli_refuses_bad_retention(self, tmp_path, capsys, policy):
        """A negative count or age, or a non-finite age, is an ``error:``
        line and exit 1 before any segment is touched: ``--older-than
        -5`` used to prune every segment, and ``--keep -1`` ended in a
        traceback."""
        from repro.cli import main

        for i in range(2):
            _make_journal(tmp_path, f"run-{i}", age_s=100 * (2 - i))
        before = {p.name: p.read_bytes() for p in list_journals(tmp_path)}
        assert main(
            ["journal", "--cache-dir", str(tmp_path), "--prune", *policy]
        ) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        after = {p.name: p.read_bytes() for p in list_journals(tmp_path)}
        assert after == before


class TestServeCLI:
    def test_disagreeing_workers_alias_is_refused(self, capsys):
        """``-j`` is an alias of ``--workers``: two different pool sizes
        are refused before anything binds or spawns."""
        from repro.cli import main

        assert main(["serve", "--port", "0", "--workers", "2", "-j", "3"]) == 2
        assert "disagree" in capsys.readouterr().err

    @pytest.mark.parametrize("signame", ["SIGINT", "SIGTERM"])
    def test_signal_inside_a_finalizer_still_stops_the_server(self, signame):
        """A stop signal whose handler runs inside a weakref callback on
        the main thread (where a raised KeyboardInterrupt would be
        printed and swallowed) must still shut the server down."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [SRC, env.get("PYTHONPATH")])
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", _SIGNAL_IN_FINALIZER.format(signame)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            _out, err = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            _out, err = proc.communicate()
            pytest.fail(f"the server ignored {signame}:\n{err}")
        assert proc.returncode == 0, err


SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)

#: ``repro serve`` with a finalizer that sends the process a signal as
#: soon as the serve loop drops the last reference to its object, so
#: the signal handler runs inside the weakref callback.
_SIGNAL_IN_FINALIZER = """
import os, signal, sys, weakref
from repro.cli import main
from repro.service.server import ServiceServer

class Token:
    pass

held = [Token()]
weakref.finalize(held[0], os.kill, os.getpid(), signal.{0})
service_actions = ServiceServer.service_actions

def drop_then_serve(self):
    held.clear()
    service_actions(self)

ServiceServer.service_actions = drop_then_serve
sys.exit(main(["serve", "--port", "0", "--workers", "1", "--no-cache"]))
"""


# -- blessed surface ----------------------------------------------------------


class TestStableSurface:
    def test_blessed_names_import_from_the_package_root(self):
        import repro

        for name in (
            "MacroSpec", "SynDCIM", "BatchCompiler", "CompileOptions",
            "ImplementSession", "verify_macro", "multi_corner_signoff",
            "ServiceClient", "ServiceError",
        ):
            assert getattr(repro, name) is not None
        with pytest.raises(AttributeError):
            repro.NotAThing

    def test_cache_schema_unchanged_by_this_layer(self):
        # The service shares cache entries with local runs only while
        # both speak the same schema version.
        assert CACHE_SCHEMA_VERSION == 5
