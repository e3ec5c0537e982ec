"""The REST/JSON layer of ``tabby serve`` — stdlib HTTP, no deps.

Routes::

    POST   /jobs                    submit {"classes": jasm | [jasm...]}
                                    or {"components": [name...]} plus
                                    optional {"options": {...}} ->
                                    202 (new/attached) / 200 (cached)
    GET    /jobs                    job summaries
    GET    /jobs/<id>               state + live per-phase progress
                                    (CPGStatistics/SearchStatistics rows)
    GET    /jobs/<id>/chains        the found gadget chains
    GET    /jobs/<id>/lint          lint issues for the submitted classes
    GET    /jobs/<id>/verdicts      refinement verdicts + refutation reasons
                                    (empty unless options.refine/-guards set)
    GET    /jobs/<id>/diff          the tabby-diff/v1 document (diff jobs:
                                    {"diff": {"old": ..., "new": ...}})
    GET    /jobs/<id>/query?q=...   a Cypher-subset query over the job's CPG
    DELETE /jobs/<id>[?purge=1]     drop the job (purge also evicts its
                                    cached result)
    POST   /live/refresh            commit the on-disk live CPG as the
                                    next MVCC version if it changed
                                    (``--live`` mode; {"force": true}
                                    reloads unconditionally)
    GET    /healthz                 liveness
    GET    /stats                   queue / store / limiter counters
                                    (+ the live graph's version and
                                    memoised fingerprint in --live mode)

Error contract: 400 malformed body or query, 404 unknown job or route
(or a done job retired because the store evicted its result —
"result evicted; resubmit"),
405 wrong method, 409 results requested before the job is done (or
deleting a running job), 429 rate-limited (with ``Retry-After``),
503 shutting down or queue full.  Every response body is JSON.

``ThreadingHTTPServer`` gives one thread per connection; all shared
state (job table, result store, token buckets) is internally locked,
so the handler itself is stateless.
"""

from __future__ import annotations

import json
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.errors import GraphError, ReproError
from repro.serve.jobs import JobManager, JobState
from repro.serve.ratelimit import RateLimiter
from repro.serve.store import ResultStore

__all__ = ["TabbyServer", "available_cpus", "create_server"]

#: request bodies above this are rejected outright (64 MiB of jasm is
#: far beyond any real submission; this bounds a worker-thread's parse)
MAX_BODY_BYTES = 64 * 1024 * 1024


def available_cpus() -> int:
    """CPUs this process may schedule on (affinity-aware); sizes
    ``tabby serve --workers auto``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


class TabbyServer(ThreadingHTTPServer):
    """HTTP server owning one :class:`JobManager` and one limiter."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: Tuple[str, int],
        manager: JobManager,
        limiter: Optional[RateLimiter] = None,
    ):
        super().__init__(address, _Handler)
        self.manager = manager
        self.limiter = limiter if limiter is not None else RateLimiter()

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        host = self.server_address[0]
        return f"http://{host}:{self.port}"

    def run_forever_in_thread(self) -> threading.Thread:
        """Serve on a daemon thread (the in-process test/bench setup)."""
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def close(self, drain: bool = True) -> None:
        """Stop the listener, then drain (or cancel) queued jobs."""
        self.shutdown()
        self.server_close()
        self.manager.shutdown(drain=drain)


def create_server(
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 2,
    cache_dir: Optional[str] = None,
    rate: Optional[float] = None,
    burst: Optional[float] = None,
    store_capacity: int = 256,
    max_queue: int = 0,
    snapshot_dir: Optional[str] = None,
    live: Optional[str] = None,
) -> TabbyServer:
    """Build an unstarted server; ``port=0`` binds an ephemeral port.

    ``rate``/``burst`` configure per-client submission rate limiting
    (None disables); ``workers`` sizes the job worker pool;
    ``cache_dir`` is the shared persistent summary cache handed to
    every job's pipeline; ``snapshot_dir`` enables the ``snapshot``
    job kind — searching persisted CPG files (v3 snapshots are mmap'd,
    so concurrent jobs on one file share a single physical copy);
    ``live`` enables the ``live`` job kind — one shared MVCC-versioned
    CPG loaded from the given file, where every job pins an immutable
    committed version at submission and ``POST /live/refresh`` commits
    new on-disk versions without blocking in-flight readers.
    """
    manager = JobManager(
        workers=workers,
        store=ResultStore(capacity=store_capacity),
        cache_dir=cache_dir,
        max_queue=max_queue,
        snapshot_dir=snapshot_dir,
        live=live,
    )
    limiter = RateLimiter(rate=rate, burst=burst)
    return TabbyServer((host, port), manager, limiter)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # without this, keep-alive clients hit the Nagle/delayed-ACK
    # interaction and every request stalls for ~40ms
    disable_nagle_algorithm = True
    server: TabbyServer  # narrowed for readability

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # request logging is the caller's business, not stderr's

    def _reply(
        self, code: int, payload: Dict[str, Any], headers: Optional[Dict[str, str]] = None
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _error(self, code: int, message: str, **extra: Any) -> None:
        payload = {"error": message}
        payload.update(extra)
        headers = None
        if "retry_after" in extra:
            headers = {"Retry-After": f"{extra['retry_after']:.3f}"}
        self._reply(code, payload, headers)

    def _client_id(self) -> str:
        return self.headers.get("X-Client-Id") or self.client_address[0]

    def _read_json_body(self) -> Any:
        length = self.headers.get("Content-Length")
        try:
            length = int(length or "")
        except ValueError:
            raise ValueError("missing or invalid Content-Length")
        if length < 0 or length > MAX_BODY_BYTES:
            raise ValueError("request body too large")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed JSON body: {exc}")

    def _job_or_404(self, job_id: str):
        manager = self.server.manager
        job = manager.get(job_id)
        if job is None:
            if manager.retired(job_id):
                self._error(404, f"job {job_id}: result evicted; resubmit")
            else:
                self._error(404, f"no such job: {job_id}")
        return job

    # -- routing -----------------------------------------------------------

    def do_POST(self) -> None:
        parsed = urlparse(self.path)
        if parsed.path == "/live/refresh":
            self._do_live_refresh()
            return
        if parsed.path != "/jobs":
            self._error(404, f"no such route: POST {parsed.path}")
            return
        allowed, retry_after = self.server.limiter.check(self._client_id())
        if not allowed:
            self._error(429, "rate limited", retry_after=round(retry_after, 3))
            return
        try:
            body = self._read_json_body()
            job, status = self.server.manager.submit(body)
        except ValueError as exc:
            self._error(400, str(exc))
            return
        if status == "closed":
            self._error(503, "server is shutting down")
            return
        if status == "overloaded":
            self._error(503, "job queue is full", retry_after=1.0)
            return
        doc = job.as_dict()
        doc["status"] = status
        self._reply(200 if status == "cached" else 202, doc)

    def do_GET(self) -> None:
        parsed = urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        if parsed.path == "/healthz":
            self._reply(200, {"ok": True, "closed": self.server.manager.closed})
            return
        if parsed.path == "/stats":
            payload = {
                "jobs": self.server.manager.stats(),
                "store": self.server.manager.store.stats(),
                "ratelimit": self.server.limiter.stats(),
            }
            if self.server.manager.live is not None:
                payload["live"] = self.server.manager.live.stats()
            self._reply(200, payload)
            return
        if parsed.path == "/jobs":
            self._reply(
                200, {"jobs": [j.as_dict() for j in self.server.manager.jobs()]}
            )
            return
        if len(parts) == 2 and parts[0] == "jobs":
            job = self._job_or_404(parts[1])
            if job is not None:
                self._reply(200, job.as_dict())
            return
        if len(parts) == 3 and parts[0] == "jobs" and parts[2] in (
            "chains", "lint", "query", "verdicts", "diff",
        ):
            job = self._job_or_404(parts[1])
            if job is None:
                return
            if job.state != JobState.DONE:
                self._error(
                    409,
                    f"job is {job.state}, results are available once done",
                    state=job.state,
                    **({"detail": job.error} if job.error else {}),
                )
                return
            result = job.result
            if parts[2] == "chains":
                self._reply(
                    200,
                    {
                        "id": job.id,
                        "cached": job.cached,
                        "chains": result.chain_records,
                    },
                )
            elif parts[2] == "lint":
                self._reply(
                    200, {"id": job.id, "issues": result.lint_records}
                )
            elif parts[2] == "diff":
                if job.submission.kind != "diff":
                    self._error(
                        409, "not a diff job; submit {'diff': {...}}"
                    )
                    return
                self._reply(
                    200,
                    {
                        "id": job.id,
                        "cached": job.cached,
                        "diff": result.diff_record,
                    },
                )
            elif parts[2] == "verdicts":
                self._reply(
                    200,
                    {
                        "id": job.id,
                        "cached": job.cached,
                        "verdicts": result.verdict_records,
                        "refinement": result.refine_stats,
                    },
                )
            else:
                self._do_query(job, parsed.query)
            return
        self._error(404, f"no such route: GET {parsed.path}")

    def _do_query(self, job, raw_query: str) -> None:
        from repro.graphdb.query import jsonable_row, run_query

        params = parse_qs(raw_query)
        cypher = (params.get("q") or [None])[0]
        if not cypher:
            self._error(400, "missing query parameter 'q'")
            return
        try:
            result = run_query(job.result.graph, cypher)
        except GraphError as exc:
            self._error(400, f"query failed: {exc}")
            return
        self._reply(
            200,
            {
                "id": job.id,
                "columns": result.columns,
                "rows": [jsonable_row(r) for r in result.rows],
            },
        )

    def _do_live_refresh(self) -> None:
        manager = self.server.manager
        if manager.live is None:
            self._error(
                409, "live mode is disabled (start the server with --live)"
            )
            return
        force = False
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = 0
        if length > 0:
            try:
                body = self._read_json_body()
            except ValueError as exc:
                self._error(400, str(exc))
                return
            if body is not None:
                if not isinstance(body, dict) or set(body) - {"force"}:
                    self._error(400, "body must be {} or {\"force\": bool}")
                    return
                force = bool(body.get("force", False))
        try:
            outcome = manager.live.refresh(force=force)
        except (OSError, ReproError, ValueError) as exc:
            self._error(409, f"refresh failed: {exc}")
            return
        self._reply(200, outcome)

    def do_DELETE(self) -> None:
        parsed = urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        if len(parts) != 2 or parts[0] != "jobs":
            self._error(404, f"no such route: DELETE {parsed.path}")
            return
        purge = (parse_qs(parsed.query).get("purge") or ["0"])[0] in ("1", "true")
        outcome = self.server.manager.delete(parts[1], purge=purge)
        if outcome == "missing":
            self._error(404, f"no such job: {parts[1]}")
        elif outcome == "running":
            self._error(409, "job is running; results are shared — poll or "
                             "wait for completion before deleting")
        else:
            self._reply(200, {"deleted": parts[1], "purged": purge})

    def do_PUT(self) -> None:
        self._error(405, "method not allowed")

    def do_PATCH(self) -> None:
        self._error(405, "method not allowed")
