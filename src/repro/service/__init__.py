"""Compiler-as-a-service: a long-running job queue over the batch
engine, an HTTP/JSON API, and the client that speaks it.

The batch engine (:mod:`repro.batch`) is one-shot: build a grid, run
it, exit.  This package promotes it into a *service* many concurrent
clients share, so no content hash is ever compiled twice across users:

* :mod:`repro.service.queue` — :class:`JobQueue`: priority scheduling,
  deduplication by job content hash (a second submit of an in-flight
  hash attaches to the running job), cancellation, per-job terminal
  statuses, a service-level write-ahead journal and journal pruning;
* :mod:`repro.service.server` — the stdlib-only
  (``http.server.ThreadingHTTPServer``) HTTP/JSON API:
  ``POST /v1/jobs``, ``GET/DELETE /v1/jobs/<id>``,
  ``GET /v1/results/<hash>``, ``POST /v1/sweeps``,
  ``GET /v1/sweeps/<id>``, ``GET /v1/stats``, ``GET /v1/health``;
* :mod:`repro.service.client` — :class:`ServiceClient`, the typed
  mirror of those routes (``urllib``-based, no dependencies), so
  examples and tests never hand-roll requests.

Options travel as the canonical :class:`repro.options.CompileOptions`
everywhere, so a job submitted over HTTP hashes — and therefore caches
— identically to one compiled locally.  Start a server with
``python -m repro serve`` (see ``docs/service.md``).

The package re-exports nothing: import each name from the module that
defines it (``repro.service.client``, ...), so a thin client process
that imports :class:`ServiceClient` loads neither the batch engine nor
numpy.
"""
