"""The stdlib-only HTTP/JSON API over :class:`~repro.service.queue.
JobQueue`.

Routes (all bodies and responses are JSON; see ``docs/service.md`` for
the full schema and curl examples):

========  ======================  ==========================================
method    path                    meaning
========  ======================  ==========================================
POST      ``/v1/jobs``            submit one spec → job id + content hash
GET       ``/v1/jobs/<id>``       job status (+ record when terminal)
DELETE    ``/v1/jobs/<id>``       cancel a queued job
GET       ``/v1/results/<hash>``  result-store lookup — never compiles
POST      ``/v1/sweeps``          range-grammar fan-out → sweep + job ids
GET       ``/v1/sweeps/<id>``     sweep progress (per-status counts)
GET       ``/v1/stats``           queue counters + store occupancy
GET       ``/v1/health``          liveness + version
========  ======================  ==========================================

Built on ``http.server.ThreadingHTTPServer`` — no third-party
dependencies — with one daemon thread per connection; the queue does
the locking.  Malformed JSON, a malformed ``Content-Length`` and
unknown options are 400s, unknown ids 404s, a cancel that lost its
race 409, shutdown 503.  The server binds loopback by default: it is a
compile service, not an internet face.
"""

from __future__ import annotations

import json
import re
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from .. import __version__
from ..errors import ServiceError, SynDCIMError, UnknownJobError
from ..options import CompileOptions
from ..spec import MacroSpec, parse_format
from .queue import QUEUED, JobQueue

#: Submissions past this are refused (400) before parsing: a compile
#: spec is a few hundred bytes, a sweep a few KB — anything megabytes
#: long is not a request, it is a mistake (or an attack).
MAX_BODY_BYTES = 1 << 20


class _BadRequest(Exception):
    """Internal: maps to a 400 with the message as the error body."""


def _spec_from_payload(data: Dict[str, object]) -> MacroSpec:
    """Parse a submitted spec, accepting the ergonomic spellings the
    CLI does on top of :meth:`MacroSpec.from_dict`'s strict one:
    ``"formats": ["INT4", "INT8"]`` shared by inputs and weights,
    format *names* in place of format dicts, and the CLI's
    ``INT4,INT8`` default when formats are omitted entirely."""
    payload = dict(data)
    shared = payload.pop("formats", ["INT4", "INT8"])
    for key in ("input_formats", "weight_formats"):
        value = payload.get(key, shared)
        if not isinstance(value, list) or not value:
            raise _BadRequest(f"{key} must be a non-empty list")
        payload[key] = [
            parse_format(item).to_dict() if isinstance(item, str) else item
            for item in value
        ]
    return MacroSpec.from_dict(payload)


class ServiceServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to one :class:`JobQueue`."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], queue: JobQueue) -> None:
        super().__init__(address, _Handler)
        self.queue = queue

    @property
    def base_url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def create_server(
    queue: JobQueue, host: str = "127.0.0.1", port: int = 0
) -> ServiceServer:
    """Bind (``port=0`` picks an ephemeral port) without serving yet;
    call ``serve_forever()`` (typically on a thread) to go live."""
    return ServiceServer((host, port), queue)


class _Handler(BaseHTTPRequestHandler):
    #: Service logs go through the queue's owner, not stderr-per-request.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    server: ServiceServer

    @property
    def queue(self) -> JobQueue:
        return self.server.queue

    # -- plumbing -----------------------------------------------------------

    def _send(self, status: int, body: Dict[str, object]) -> None:
        blob = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        try:
            self.wfile.write(blob)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to salvage

    def _error(self, status: int, message: str) -> None:
        self._send(status, {"error": message})

    def _read_json(self) -> Dict[str, object]:
        header = (self.headers.get("Content-Length") or "0").strip()
        # Digits only: int() would also take "-1" (and rfile.read(-1)
        # blocks until the client hangs up), "+1" and "1_0".
        if not (header.isascii() and header.isdigit()):
            raise _BadRequest(
                f"Content-Length {header!r} is not a non-negative integer"
            )
        length = int(header)
        if length > MAX_BODY_BYTES:
            raise _BadRequest(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            body = json.loads(raw)
        except ValueError as exc:
            raise _BadRequest(f"request body is not valid JSON: {exc}")
        if not isinstance(body, dict):
            raise _BadRequest("request body must be a JSON object")
        return body

    def _dispatch(self, method: str) -> None:
        path = self.path.split("?", 1)[0].rstrip("/")
        try:
            handler = self._route(method, path)
            if handler is None:
                self._error(404, f"no route for {method} {path}")
                return
            handler()
        except _BadRequest as exc:
            self._error(400, str(exc))
        except UnknownJobError as exc:
            self._error(404, str(exc))
        except ServiceError as exc:
            # Every other queue refusal (ShuttingDownError) is the
            # service's state, not the request's fault.
            self._error(503, str(exc))
        except SynDCIMError as exc:
            # Library validation (bad spec, bad options, bad corners):
            # the client's fault, with the library's message.
            self._error(400, str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            self._error(500, f"internal error: {type(exc).__name__}: {exc}")

    def _route(self, method: str, path: str):
        for pattern, verb, handler in (
            (r"^/v1/jobs$", "POST", self._post_job),
            (r"^/v1/jobs/(?P<id>[\w.-]+)$", "GET", self._get_job),
            (r"^/v1/jobs/(?P<id>[\w.-]+)$", "DELETE", self._delete_job),
            (r"^/v1/results/(?P<key>[0-9a-f]{8,64})$", "GET", self._get_result),
            (r"^/v1/sweeps$", "POST", self._post_sweep),
            (r"^/v1/sweeps/(?P<id>[\w.-]+)$", "GET", self._get_sweep),
            (r"^/v1/stats$", "GET", self._get_stats),
            (r"^/v1/health$", "GET", self._get_health),
        ):
            if verb != method:
                continue
            match = re.match(pattern, path)
            if match:
                self._params = match.groupdict()
                return handler
        return None

    def do_GET(self) -> None:  # noqa: N802
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    # -- request parsing ----------------------------------------------------

    def _parse_options(
        self, body: Dict[str, object]
    ) -> Optional[CompileOptions]:
        data = body.get("options")
        if data is None:
            return None
        options = CompileOptions.from_dict(data)  # type: ignore[arg-type]
        options.validate()  # typos become this 400, not a worker error
        return options

    @staticmethod
    def _parse_priority(body: Dict[str, object]) -> int:
        priority = body.get("priority", 0)
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise _BadRequest("priority must be an integer (lower = sooner)")
        return priority

    # -- routes -------------------------------------------------------------

    def _post_job(self) -> None:
        body = self._read_json()
        spec_data = body.get("spec")
        if not isinstance(spec_data, dict):
            raise _BadRequest('body must carry a "spec" object')
        spec = _spec_from_payload(spec_data)
        snapshot = self.queue.submit(
            spec,
            options=self._parse_options(body),
            priority=self._parse_priority(body),
        )
        self._send(202 if snapshot["status"] == QUEUED else 200, snapshot)

    def _get_job(self) -> None:
        snapshot = self.queue.job(self._params["id"])
        if snapshot is None:
            self._error(404, f"unknown job id {self._params['id']!r}")
            return
        self._send(200, snapshot)

    def _delete_job(self) -> None:
        outcome = self.queue.cancel(self._params["id"])
        self._send(200 if outcome["cancelled"] else 409, outcome)

    def _get_result(self) -> None:
        record = self.queue.result(self._params["key"])
        if record is None:
            self._error(
                404, f"no cached result for hash {self._params['key']!r}"
            )
            return
        self._send(200, record)

    def _post_sweep(self) -> None:
        body = self._read_json()
        axes = body.get("axes", {})
        if not isinstance(axes, dict):
            raise _BadRequest('"axes" must be an object of axis token lists')
        ppa = body.get("ppa", "balanced")
        if not isinstance(ppa, str):
            raise _BadRequest('"ppa" must be a preset name')
        snapshot = self.queue.submit_sweep(
            axes,
            options=self._parse_options(body),
            ppa=ppa,
            priority=self._parse_priority(body),
        )
        self._send(202, snapshot)

    def _get_sweep(self) -> None:
        snapshot = self.queue.sweep(self._params["id"])
        if snapshot is None:
            self._error(404, f"unknown sweep id {self._params['id']!r}")
            return
        self._send(200, snapshot)

    def _get_stats(self) -> None:
        self._send(200, self.queue.stats())

    def _get_health(self) -> None:
        self._send(
            200,
            {"ok": True, "version": __version__, "run_id": self.queue.run_id},
        )
