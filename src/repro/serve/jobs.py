"""The async job queue behind ``tabby serve``.

A submission travels: ``normalize_submission`` (shape validation +
content hash, in the HTTP thread) -> :meth:`JobManager.submit` (dedup
decision under one lock) -> a bounded pool of worker threads running
the ordinary :class:`repro.core.api.Tabby` pipeline -> the
content-hash-keyed :class:`repro.serve.store.ResultStore`.

Deduplication is two-layered and atomic with respect to the manager
lock:

* **in-flight** — while a job for hash H is queued or running, every
  further submission of H *attaches* to it (same job id, zero extra
  compute);
* **warm** — once H's result is stored, a submission of H creates a
  job that is born ``done``, serving the stored result.

Between the two there is no window in which a second computation for H
can start: a worker commits ``store.put`` and retires the in-flight
entry under the same lock a submitter consults both in.  The
concurrency battery (``tests/serve/test_concurrency.py``) asserts the
exactly-one-computation-per-hash consequence directly.

Workers are *threads*, not processes: one job's pipeline is the same
single-process code path the CLI runs (``Tabby``), so N
service workers bound memory at N live CPGs while the summary cache
(``cache_dir``) is shared across all of them, processes included.
"""

from __future__ import annotations

import logging
import os
import queue
import threading
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.api import Tabby
from repro.core.cpg import CLASS_LABEL, CPG, METHOD_LABEL, CPGStatistics
from repro.core.pathfinder import GadgetChainFinder, SearchStatistics
from repro.core.sinks import SinkCatalog
from repro.core.sources import SourceCatalog
from repro.errors import ReproError
from repro.graphdb.mvcc import VersionedGraph, version_of
from repro.graphdb.storage import load_graph, open_graph
from repro.jvm.hierarchy import ClassHierarchy
from repro.serve.store import JobResult, ResultStore, bundle_key, canonical_options

__all__ = [
    "Job",
    "JobManager",
    "JobState",
    "LiveGraph",
    "Submission",
    "normalize_submission",
    "resolve_classes",
    "fingerprint_digest",
]

_SENTINEL = object()

#: how many retired job ids :meth:`JobManager.retired` remembers
RETIRED_IDS_KEPT = 4096

_LOG = logging.getLogger("repro.serve.jobs")


class JobState:
    """Terminal states are DONE/FAILED/CANCELLED; the rest progress."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    TERMINAL = frozenset((DONE, FAILED, CANCELLED))


@dataclass(frozen=True)
class Submission:
    """A validated, content-addressed unit of work."""

    kind: str  # "classes" | "components" | "snapshot" | "diff" | "live"
    payload: Tuple[str, ...]
    options: Dict[str, Any]
    key: str
    #: ``live`` jobs only: the immutable MVCC snapshot pinned at
    #: submission time.  Not part of the content identity — the pinned
    #: *version number* already is, via ``payload``/``key``.
    pinned: Any = field(default=None, compare=False)


def _resolve_snapshot(name: Any, snapshot_dir: Optional[str]) -> str:
    """Validate a snapshot job's file reference and return its path.

    The name is a plain file name (or relative path) inside the
    server's ``--snapshot-dir``; absolute paths and any path that
    escapes the directory are rejected so clients can never address
    arbitrary files on the host.
    """
    if snapshot_dir is None:
        raise ValueError(
            "snapshot jobs are disabled (start the server with --snapshot-dir)"
        )
    if not isinstance(name, str) or not name.strip():
        raise ValueError("'snapshot' must be a non-empty file name")
    if os.path.isabs(name) or ".." in name.replace("\\", "/").split("/"):
        raise ValueError("'snapshot' must be a relative path inside the "
                         "snapshot directory")
    base = os.path.realpath(snapshot_dir)
    path = os.path.realpath(os.path.join(base, name))
    if path != base and not path.startswith(base + os.sep):
        raise ValueError("'snapshot' must be a relative path inside the "
                         "snapshot directory")
    if not os.path.isfile(path):
        raise ValueError(f"snapshot not found: {name}")
    return path


def normalize_submission(
    body: Any,
    sinks: Optional[SinkCatalog] = None,
    snapshot_dir: Optional[str] = None,
    live: Optional["LiveGraph"] = None,
) -> Submission:
    """Validate a ``POST /jobs`` body and compute its content hash.

    Raises ``ValueError`` with a client-presentable message on any
    shape problem (the HTTP layer answers 400).  Deliberately cheap:
    no jasm parsing happens here, so the warm path of an identical
    resubmission costs one SHA-256 over the raw bundle text (or, for
    ``snapshot`` jobs, over the file's stat identity — the file itself
    is only opened, zero-copy, inside the worker).
    """
    if not isinstance(body, dict):
        raise ValueError("request body must be a JSON object")
    unknown = set(body) - {
        "classes", "components", "snapshot", "diff", "live", "options",
    }
    if unknown:
        raise ValueError(f"unknown field(s): {', '.join(sorted(unknown))}")
    kinds_present = [
        k for k in ("classes", "components", "snapshot", "diff", "live")
        if k in body
    ]
    if len(kinds_present) != 1:
        raise ValueError(
            "provide exactly one of 'classes', 'components', 'snapshot', "
            "'diff' or 'live'"
        )
    options = body.get("options")
    if options is not None and not isinstance(options, dict):
        raise ValueError("'options' must be a JSON object")
    options = canonical_options(options)

    if kinds_present == ["live"]:
        if live is None:
            raise ValueError(
                "live jobs are disabled (start the server with --live)"
            )
        if body["live"] is not True:
            raise ValueError("'live' must be the JSON literal true")
        if options["refine"] or options["refine_guards"]:
            raise ValueError(
                "live jobs cannot refine: the shared CPG carries no class "
                "hierarchy (rebuild from classes/components instead)"
            )
        # pin the current committed version NOW (one atomic attribute
        # read — wait-free w.r.t. any in-flight writer); the version
        # number is the content identity, so a commit between two
        # submissions gives the second one a fresh key while the first
        # keeps serving its pinned version
        graph, version = live.pin()
        key = bundle_key("live", (live.path, str(version)), options)
        return Submission(
            kind="live", payload=(str(version),), options=options, key=key,
            pinned=graph,
        )

    if kinds_present == ["snapshot"]:
        path = _resolve_snapshot(body["snapshot"], snapshot_dir)
        if options["refine"] or options["refine_guards"]:
            raise ValueError(
                "snapshot jobs cannot refine: a persisted CPG carries no "
                "class hierarchy (rebuild from classes/components instead)"
            )
        # the key must change when the file does: stat identity stands
        # in for content (hashing multi-GB snapshots per submission
        # would defeat the zero-copy point)
        st = os.stat(path)
        token = f"{st.st_size}:{st.st_mtime_ns}"
        key = bundle_key("snapshot", (body["snapshot"], token), options)
        return Submission(
            kind="snapshot", payload=(body["snapshot"],), options=options,
            key=key,
        )

    if kinds_present == ["diff"]:
        spec = body["diff"]
        if not isinstance(spec, dict) or set(spec) != {"old", "new"}:
            raise ValueError(
                "'diff' must be an object with exactly 'old' and 'new' "
                "jasm bundles"
            )
        sides = {}
        for side in ("old", "new"):
            chunks = spec[side]
            if isinstance(chunks, str):
                chunks = [chunks]
            if (
                not isinstance(chunks, list)
                or not chunks
                or not all(isinstance(c, str) and c.strip() for c in chunks)
            ):
                raise ValueError(
                    f"'diff.{side}' must be a non-empty jasm string or "
                    "list of jasm strings"
                )
            sides[side] = tuple(chunks)
        sources = (
            SourceCatalog.native()
            if options["sources"] == "native"
            else SourceCatalog.extended()
        )
        # both versions' content feeds the key; the leading count keeps
        # ("ab","c") vs ("a","bc") splits from colliding
        payload = (str(len(sides["old"])),) + sides["old"] + sides["new"]
        key = bundle_key("diff", payload, options, sinks=sinks, sources=sources)
        return Submission(kind="diff", payload=payload, options=options, key=key)

    has_classes = kinds_present == ["classes"]
    if has_classes:
        chunks = body["classes"]
        if isinstance(chunks, str):
            chunks = [chunks]
        if (
            not isinstance(chunks, list)
            or not chunks
            or not all(isinstance(c, str) and c.strip() for c in chunks)
        ):
            raise ValueError("'classes' must be a non-empty jasm string "
                             "or list of jasm strings")
        kind, payload = "classes", tuple(chunks)
    else:
        names = body["components"]
        if (
            not isinstance(names, list)
            or not names
            or not all(isinstance(n, str) for n in names)
        ):
            raise ValueError("'components' must be a non-empty list of "
                             "component names")
        from repro.corpus import COMPONENT_NAMES

        bad = sorted(set(names) - set(COMPONENT_NAMES))
        if bad:
            raise ValueError(f"unknown component(s): {', '.join(bad)}")
        # order-independent: the resolved classpath is lang base + the
        # sorted component set either way
        kind, payload = "components", tuple(sorted(set(names)))

    sources = (
        SourceCatalog.native()
        if options["sources"] == "native"
        else SourceCatalog.extended()
    )
    key = bundle_key(kind, payload, options, sinks=sinks, sources=sources)
    return Submission(kind=kind, payload=payload, options=options, key=key)


def resolve_classes(submission: Submission) -> List[Any]:
    """Parse/build the submitted classes.  Runs in the worker (or the
    equivalence tests); jasm syntax errors propagate as ``ReproError``
    and fail the job rather than the HTTP request."""
    if submission.kind == "classes":
        from repro.jvm import jasm

        classes: List[Any] = []
        for chunk in submission.payload:
            classes.extend(jasm.loads(chunk))
        return classes
    from repro.corpus import build_component, build_lang_base

    classes = build_lang_base()
    for name in submission.payload:
        classes += build_component(name).classes
    return classes


def fingerprint_digest(graph: Any) -> str:
    """A stable digest of :func:`repro.graphdb.snapshot.graph_fingerprint`.

    The CPG build is deterministic, so recomputing a submission yields
    a byte-identical fingerprint — the identity the cache-vs-recompute
    equivalence tests compare.  Delegates to the graphdb implementation,
    which memoises the digest on frozen (committed MVCC) graphs — the
    ``/stats`` live block and repeat live jobs pay the O(graph) walk
    once per committed version.
    """
    from repro.graphdb.snapshot import fingerprint_digest as digest

    return digest(graph)


class LiveGraph:
    """The shared, MVCC-versioned CPG behind ``tabby serve --live``.

    One :class:`~repro.graphdb.graph.PropertyGraph` is decoded from the
    snapshot file at startup and published as version 0 of a
    :class:`~repro.graphdb.mvcc.VersionedGraph`.  Every ``live`` job
    pins an immutable committed version with one atomic read at
    submission time — N concurrent jobs traverse the same physical
    structure with no lock and no per-job reopen — while
    :meth:`refresh` (the snapshot file changed on disk, e.g. an
    incremental-analysis writer saved a new version) commits the new
    graph as the next MVCC version without disturbing any in-flight
    reader: their pinned versions stay frozen and fingerprint-stable.
    """

    def __init__(self, path: str):
        if not os.path.isfile(path):
            raise ValueError(f"live CPG not found: {path}")
        self.path = path
        self._refresh_lock = threading.Lock()
        graph, token = self._load()
        self._stat_token = token
        self.versioned = VersionedGraph(graph)
        self.refreshes = 0

    def _load(self) -> Tuple[Any, str]:
        st = os.stat(self.path)
        token = f"{st.st_size}:{st.st_mtime_ns}"
        graph = load_graph(self.path)
        if not hasattr(graph, "freeze"):  # a read-only mmap view
            graph = graph.materialize()
        return graph, token

    def pin(self) -> Tuple[Any, int]:
        """The current committed version plus its number (wait-free)."""
        graph = self.versioned.begin_snapshot()
        return graph, version_of(graph)

    def refresh(self, force: bool = False) -> Dict[str, Any]:
        """Commit the on-disk snapshot as the next version if it changed.

        Stat identity (size + mtime_ns, the same token snapshot-job
        cache keys use) decides "changed"; ``force=True`` reloads
        unconditionally.  Concurrent refreshes serialize here, readers
        never wait.
        """
        with self._refresh_lock:
            st = os.stat(self.path)
            token = f"{st.st_size}:{st.st_mtime_ns}"
            if not force and token == self._stat_token:
                return {
                    "refreshed": False,
                    "version": self.versioned.version,
                }
            graph, token = self._load()
            with self.versioned.write_txn() as txn:
                txn.replace(graph)
            self._stat_token = token
            self.refreshes += 1
            return {"refreshed": True, "version": self.versioned.version}

    def cpg_view(self, graph: Any) -> CPG:
        """A searchable CPG wrapper around one pinned version (no class
        hierarchy — same contract as a snapshot-loaded Tabby)."""
        statistics = CPGStatistics(
            class_node_count=graph.indexes.label_count(CLASS_LABEL),
            method_node_count=graph.indexes.label_count(METHOD_LABEL),
            relationship_edge_count=graph.relationship_count,
        )
        return CPG(graph, ClassHierarchy([]), statistics, {})

    def stats(self) -> Dict[str, Any]:
        graph, version = self.pin()
        return {
            "path": self.path,
            "version": version,
            "nodes": graph.node_count,
            "relationships": graph.relationship_count,
            # memoised on the frozen version: repeat /stats polls between
            # commits don't re-walk the graph
            "fingerprint": fingerprint_digest(graph),
            "refreshes": self.refreshes,
        }


def _cpg_row(stats: CPGStatistics) -> Dict[str, Any]:
    row = stats.as_row()
    row["phase_seconds"] = dict(stats.phase_seconds)
    row["analyzed_methods"] = stats.analyzed_method_count
    row["cached_methods"] = stats.cached_method_count
    row["cache_hits"] = stats.cache_hits
    row["cache_misses"] = stats.cache_misses
    return row


def _search_row(stats: SearchStatistics) -> Dict[str, Any]:
    row = asdict(stats)
    row["phase_seconds"] = dict(stats.phase_seconds)
    return row


class Job:
    """One submission's lifecycle record (shared by attached submits)."""

    def __init__(self, job_id: str, submission: Submission):
        self.id = job_id
        self.submission = submission
        self.key = submission.key
        self.state = JobState.QUEUED
        self.phase = "queued"
        self.cached = False
        self.attached = 0
        self.error: Optional[str] = None
        self.result: Optional[JobResult] = None
        self.progress: Dict[str, Any] = {}
        self.created = time.time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.event = threading.Event()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state."""
        return self.event.wait(timeout)

    def as_dict(self) -> Dict[str, Any]:
        """The ``GET /jobs/<id>`` document (also the list-entry shape)."""
        doc: Dict[str, Any] = {
            "id": self.id,
            "key": self.key,
            "state": self.state,
            "phase": self.phase,
            "cached": self.cached,
            "attached": self.attached,
            "kind": self.submission.kind,
            "options": dict(self.submission.options),
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "progress": dict(self.progress),
        }
        if self.error is not None:
            doc["error"] = self.error
        if self.result is not None:
            doc["chain_count"] = len(self.result.chain_records)
            doc["fingerprint"] = self.result.fingerprint
        return doc


class JobManager:
    """Bounded worker pool + dedup + result store, one lock for all
    lifecycle transitions."""

    def __init__(
        self,
        workers: int = 2,
        store: Optional[ResultStore] = None,
        cache_dir: Optional[str] = None,
        sinks: Optional[SinkCatalog] = None,
        max_queue: int = 0,
        inline: bool = False,
        snapshot_dir: Optional[str] = None,
        live: Optional[str] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if snapshot_dir is not None and not os.path.isdir(snapshot_dir):
            raise ValueError(f"snapshot_dir is not a directory: {snapshot_dir}")
        self.workers = workers
        self.store = store if store is not None else ResultStore()
        self.cache_dir = cache_dir
        self.sinks = sinks
        #: directory of persisted CPG snapshots servable via the
        #: ``snapshot`` job kind; None disables the kind entirely
        self.snapshot_dir = snapshot_dir
        #: the shared MVCC-versioned CPG behind ``live`` jobs; None
        #: disables the kind entirely
        self.live: Optional[LiveGraph] = LiveGraph(live) if live else None
        self.max_queue = max_queue
        self.inline = inline
        # opened-graph cache for snapshot jobs: one mmap/decoded graph
        # per (path, stat identity), shared by every concurrent and
        # repeat job over the same file version; lifetime rides the
        # result store's LRU via its eviction hook
        self._snap_lock = threading.Lock()
        self._snapshot_graphs: Dict[str, Any] = {}
        self._snapshot_refs: Dict[str, Set[str]] = {}
        self._snapshot_tokens: Dict[str, str] = {}
        self.snapshot_cache_hits = 0
        self.snapshot_cache_opens = 0
        self._prior_on_evict = self.store.on_evict
        self.store.on_evict = self._result_evicted
        self._queue: "queue.Queue[Any]" = queue.Queue()
        self._jobs: Dict[str, Job] = {}
        #: ids of done jobs retired with their evicted result, newest
        #: last and capped, so lookups can tell "evicted" from "unknown"
        self._retired: "OrderedDict[str, None]" = OrderedDict()
        self._active: Dict[str, Job] = {}
        self._lock = threading.Lock()
        self._closed = False
        self._next_id = 0
        self._threads: List[threading.Thread] = []
        # counters (guarded by _lock)
        self.submitted = 0
        self.computed = 0
        self.attached_total = 0
        self.cache_hits = 0
        self.failed = 0
        self.cancelled = 0
        if not inline:
            for n in range(workers):
                thread = threading.Thread(
                    target=self._worker_loop, name=f"tabby-serve-worker-{n}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)

    # -- submission --------------------------------------------------------

    def submit(
        self,
        body: Any = None,
        *,
        submission: Optional[Submission] = None,
    ) -> Tuple[Optional[Job], str]:
        """Admit one submission.

        Returns ``(job, status)`` with status one of ``"new"`` (will
        compute), ``"attached"`` (rides an in-flight identical job),
        ``"cached"`` (born done from the store), ``"overloaded"``
        (bounded queue full) or ``"closed"`` (shutting down); job is
        None for the last two.
        """
        sub = submission if submission is not None else normalize_submission(
            body, sinks=self.sinks, snapshot_dir=self.snapshot_dir,
            live=self.live,
        )
        run_now: Optional[Job] = None
        with self._lock:
            if self._closed:
                return None, "closed"
            self.submitted += 1
            active = self._active.get(sub.key)
            if active is not None:
                active.attached += 1
                self.attached_total += 1
                return active, "attached"
            stored = self.store.get(sub.key)
            if stored is not None:
                job = self._new_job(sub)
                job.state = JobState.DONE
                job.phase = "done"
                job.cached = True
                job.result = stored
                job.progress = {"cpg": stored.cpg_row, "search": stored.search_row}
                job.finished = job.created
                job.event.set()
                self.cache_hits += 1
                return job, "cached"
            if self.max_queue and self._queue.qsize() >= self.max_queue:
                return None, "overloaded"
            job = self._new_job(sub)
            self._active[sub.key] = job
            if self.inline:
                run_now = job
            else:
                self._queue.put(job)
        if run_now is not None:
            self._run_job(run_now)
            return run_now, "new"
        return job, "new"

    def _new_job(self, sub: Submission) -> Job:
        self._next_id += 1
        job = Job(f"j{self._next_id:05d}", sub)
        self._jobs[job.id] = job
        return job

    # -- lookup / deletion -------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def retired(self, job_id: str) -> bool:
        """Whether ``job_id`` finished but was retired when the store
        evicted its result (resubmitting recomputes it)."""
        with self._lock:
            return job_id in self._retired

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def delete(self, job_id: str, purge: bool = False) -> str:
        """Remove a job record.

        ``"deleted"`` on success (queued jobs are cancelled first),
        ``"running"`` when refused (the computation is in flight — its
        attached waiters still poll it), ``"missing"`` otherwise.
        ``purge=True`` additionally evicts the job's stored result, so
        the next identical submission recomputes.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return "missing"
            if job.state == JobState.RUNNING:
                return "running"
            if job.state == JobState.QUEUED:
                job.state = JobState.CANCELLED
                job.phase = "cancelled"
                job.finished = time.time()
                self._active.pop(job.key, None)
                self.cancelled += 1
                job.event.set()
            del self._jobs[job_id]
            if purge:
                self.store.evict(job.key)
            return "deleted"

    # -- the worker side ---------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SENTINEL:
                break
            self._run_job(item)

    def _run_job(self, job: Job) -> None:
        with self._lock:
            if job.state != JobState.QUEUED:  # cancelled while queued
                return
            job.state = JobState.RUNNING
            job.started = time.time()
            job.phase = "parse"
        try:
            result = self._compute(job)
        except Exception as exc:
            # expected input errors carry their own message; anything
            # else is a defect, reported by exception type so the job
            # record says what went wrong
            if isinstance(exc, (ReproError, ValueError)):
                error = str(exc)
            else:
                _LOG.exception("job %s failed with an internal error", job.id)
                error = f"internal error: {type(exc).__name__}: {exc}"
            with self._lock:
                job.state = JobState.FAILED
                job.phase = "failed"
                job.error = error
                job.finished = time.time()
                self._active.pop(job.key, None)
                self.failed += 1
            job.event.set()
            return
        with self._lock:
            job.result = result
            job.state = JobState.DONE
            job.phase = "done"
            job.finished = time.time()
            # commit + retire atomically w.r.t. submit(): no window in
            # which an identical submission could start a second compute
            self.store.put(job.key, result)
            self._active.pop(job.key, None)
            self.computed += 1
        job.event.set()

    def _compute(self, job: Job) -> JobResult:
        """The ordinary pipeline, with phase markers the progress
        endpoint surfaces live."""
        from repro.lint import lint_classes

        started = time.perf_counter()
        options = job.submission.options
        if job.submission.kind == "snapshot":
            return self._compute_snapshot(job, options, started)
        if job.submission.kind == "live":
            return self._compute_live(job, options, started)
        if job.submission.kind == "diff":
            return self._compute_diff(job, options, started)
        classes = resolve_classes(job.submission)
        sources = (
            SourceCatalog.native()
            if options["sources"] == "native"
            else SourceCatalog.extended()
        )
        tabby = Tabby(
            sinks=self.sinks,
            sources=sources,
            cache_dir=self.cache_dir,
        ).add_classes(classes)
        job.phase = "build_cpg"
        cpg = tabby.build_cpg()
        job.progress["cpg"] = _cpg_row(cpg.statistics)
        job.phase = "search"
        refine_modes = tuple(
            m for m in options["refine"].split(",") if m
        ) or None
        chains = tabby.find_gadget_chains(
            max_depth=options["max_depth"],
            source_filter=options["source_filter"],
            refine_guards=options["refine_guards"],
            refine=refine_modes,
        )
        job.progress["search"] = _search_row(tabby.last_search_stats)
        verdict_records: List[Dict[str, Any]] = []
        refine_stats: Dict[str, Any] = {}
        if options["refine_guards"] or refine_modes:
            job.phase = "refine"
            verdict_records = [
                {
                    "steps": [s.qualified for s in chain.steps],
                    "sink_category": chain.sink_category,
                    "status": "refuted",
                    "refutation": reason.as_dict(),
                }
                for chain, reason in tabby.last_refutations
            ]
            if tabby.last_refine is not None:
                refine_stats = tabby.last_refine.statistics
                verdict_records.extend(
                    {
                        "steps": [s.qualified for s in chain.steps],
                        "sink_category": chain.sink_category,
                        "status": verdict.status,
                    }
                    for chain, verdict in zip(
                        tabby.last_refine.chains, tabby.last_refine.verdicts
                    )
                    if verdict.status != "refuted"
                )
        job.phase = "lint"
        lint_records = [issue.to_dict() for issue in lint_classes(classes)]
        job.phase = "fingerprint"
        digest = fingerprint_digest(cpg.graph)
        return JobResult(
            key=job.key,
            chain_records=[
                {
                    "steps": [s.qualified for s in chain.steps],
                    "sink_category": chain.sink_category,
                }
                for chain in chains
            ],
            lint_records=lint_records,
            verdict_records=verdict_records,
            refine_stats=refine_stats,
            graph=cpg.graph,
            fingerprint=digest,
            cpg_row=job.progress["cpg"],
            search_row=job.progress["search"],
            class_count=len(classes),
            compute_seconds=time.perf_counter() - started,
        )

    def _compute_diff(
        self, job: Job, options: Dict[str, Any], started: float
    ) -> JobResult:
        """Two-version chain diff via the incremental analyzer.

        The stored result is keyed by both versions' content hashes, so
        a repeated diff of identical bundles is a pure cache hit.  The
        result carries the NEW version's graph (queryable) and chain
        records, plus the versioned ``tabby-diff/v1`` document under
        ``diff_record``.
        """
        from repro.core.incremental import diff_to_dict
        from repro.jvm import jasm

        split = int(job.submission.payload[0])
        old_chunks = job.submission.payload[1 : 1 + split]
        new_chunks = job.submission.payload[1 + split :]
        old_classes: List[Any] = []
        for chunk in old_chunks:
            old_classes.extend(jasm.loads(chunk))
        new_classes: List[Any] = []
        for chunk in new_chunks:
            new_classes.extend(jasm.loads(chunk))
        sources = (
            SourceCatalog.native()
            if options["sources"] == "native"
            else SourceCatalog.extended()
        )
        tabby = Tabby(
            sinks=self.sinks,
            sources=sources,
            cache_dir=self.cache_dir,
        )
        job.phase = "diff"
        refine_modes = tuple(
            m for m in options["refine"].split(",") if m
        ) or None
        diff = tabby.diff_versions(
            old_classes,
            new_classes,
            max_depth=options["max_depth"],
            source_filter=options["source_filter"],
            refine_guards=options["refine_guards"],
            refine=refine_modes,
        )
        record = diff_to_dict(diff)
        job.progress["diff"] = record["summary"]
        cpg = tabby.build_cpg()
        job.progress["cpg"] = _cpg_row(cpg.statistics)
        job.progress["search"] = _search_row(tabby.last_search_stats)
        job.phase = "fingerprint"
        digest = fingerprint_digest(cpg.graph)
        return JobResult(
            key=job.key,
            chain_records=record["survived"] + record["appeared"],
            diff_record=record,
            graph=cpg.graph,
            fingerprint=digest,
            cpg_row=job.progress["cpg"],
            search_row=job.progress["search"],
            class_count=len(new_classes),
            compute_seconds=time.perf_counter() - started,
        )

    def _open_snapshot_graph(self, path: str, key: str) -> Any:
        """The opened-graph cache behind snapshot jobs.

        Keyed by path plus the same size+mtime_ns stat token the
        submission key embeds, so a replaced file is a clean miss.  The
        ``key`` (the job's result-store key) is recorded against the
        entry; when the result store's LRU evicts the last result that
        referenced a cached graph, the graph itself is dropped too
        (see :meth:`_result_evicted`).
        """
        st = os.stat(path)
        token = f"{path}|{st.st_size}:{st.st_mtime_ns}"
        with self._snap_lock:
            graph = self._snapshot_graphs.get(token)
            if graph is not None:
                self.snapshot_cache_hits += 1
                self._snapshot_refs[token].add(key)
                self._snapshot_tokens[key] = token
                return graph
        opened = open_graph(path)
        with self._snap_lock:
            graph = self._snapshot_graphs.get(token)
            if graph is not None:  # raced another worker's open
                self.snapshot_cache_hits += 1
            else:
                graph = opened
                self._snapshot_graphs[token] = graph
                self.snapshot_cache_opens += 1
            self._snapshot_refs.setdefault(token, set()).add(key)
            self._snapshot_tokens[key] = token
        return graph

    def _result_evicted(self, key: str, result: JobResult) -> None:
        """Result-store eviction hook: retire the done jobs that serve
        the evicted result, and the opened snapshot graph once no stored
        result references its file version any more.

        A done job holds its result (CPG graph included), so keeping
        the record would defeat the store's capacity bound.  The
        manager only mutates the store — ``put`` in :meth:`_run_job`,
        ``evict`` in :meth:`delete` — while holding ``_lock``, so the
        job table is edited here without re-taking it."""
        for job_id in [
            job_id
            for job_id, job in self._jobs.items()
            if job.key == key and job.state == JobState.DONE
        ]:
            del self._jobs[job_id]
            self._retired[job_id] = None
            if len(self._retired) > RETIRED_IDS_KEPT:
                self._retired.popitem(last=False)
        with self._snap_lock:
            token = self._snapshot_tokens.pop(key, None)
            if token is not None:
                refs = self._snapshot_refs.get(token)
                if refs is not None:
                    refs.discard(key)
                    if not refs:
                        del self._snapshot_refs[token]
                        self._snapshot_graphs.pop(token, None)
        if self._prior_on_evict is not None:
            self._prior_on_evict(key, result)

    def _compute_snapshot(
        self, job: Job, options: Dict[str, Any], started: float
    ) -> JobResult:
        """Search a persisted CPG opened zero-copy from the snapshot dir.

        A v3 snapshot is mmap'd in place — N concurrent snapshot jobs
        over the same file traverse one physical copy — while v1/v2
        files decode per job as ``load_graph`` always has.  The opened
        graph is additionally cached per file version (path + stat
        identity), so repeat jobs over an unchanged file skip even the
        O(header) open/decode; the cache entry is evicted alongside the
        last stored result that used it.  No parse, build, lint or
        refine phases run: the snapshot *is* the CPG, and the
        fingerprint is a digest of the file bytes rather than of a
        rebuilt graph.
        """
        import hashlib

        path = _resolve_snapshot(job.submission.payload[0], self.snapshot_dir)
        job.phase = "open"
        graph = self._open_snapshot_graph(path, job.key)
        statistics = CPGStatistics(
            class_node_count=graph.indexes.label_count(CLASS_LABEL),
            method_node_count=graph.indexes.label_count(METHOD_LABEL),
            relationship_edge_count=graph.relationship_count,
        )
        cpg = CPG(graph, ClassHierarchy([]), statistics, {})
        job.progress["cpg"] = _cpg_row(statistics)
        job.phase = "search"
        finder = GadgetChainFinder(cpg, max_depth=options["max_depth"])
        chains = finder.find_chains(source_filter=options["source_filter"])
        job.progress["search"] = _search_row(finder.last_search_stats)
        job.phase = "fingerprint"
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        return JobResult(
            key=job.key,
            chain_records=[
                {
                    "steps": [s.qualified for s in chain.steps],
                    "sink_category": chain.sink_category,
                }
                for chain in chains
            ],
            graph=cpg.graph,
            fingerprint=digest.hexdigest(),
            cpg_row=job.progress["cpg"],
            search_row=job.progress["search"],
            class_count=0,
            compute_seconds=time.perf_counter() - started,
        )

    def _compute_live(
        self, job: Job, options: Dict[str, Any], started: float
    ) -> JobResult:
        """Search the version of the shared live CPG this job pinned.

        The pinned graph is a frozen committed MVCC version: the search
        is a pure read over structure shared with every other live job
        and with the current version — no lock, no copy, no reopen.  A
        refresh committed mid-job changes nothing here; the result (and
        its ``/query`` graph) stays bit-identical to the pinned version.
        """
        graph = job.submission.pinned
        if graph is None:  # submissions built without a pin fall back
            graph, _ = self.live.pin()
        cpg = self.live.cpg_view(graph)
        job.progress["cpg"] = _cpg_row(cpg.statistics)
        job.progress["version"] = int(job.submission.payload[0])
        job.phase = "search"
        finder = GadgetChainFinder(cpg, max_depth=options["max_depth"])
        chains = finder.find_chains(source_filter=options["source_filter"])
        job.progress["search"] = _search_row(finder.last_search_stats)
        job.phase = "fingerprint"
        digest = fingerprint_digest(graph)
        return JobResult(
            key=job.key,
            chain_records=[
                {
                    "steps": [s.qualified for s in chain.steps],
                    "sink_category": chain.sink_category,
                }
                for chain in chains
            ],
            graph=graph,
            fingerprint=digest,
            cpg_row=job.progress["cpg"],
            search_row=job.progress["search"],
            class_count=0,
            compute_seconds=time.perf_counter() - started,
        )

    # -- shutdown ----------------------------------------------------------

    def shutdown(self, drain: bool = True, timeout: Optional[float] = 30.0) -> None:
        """Stop accepting work and retire the pool.

        ``drain=True`` lets every already-queued job run to completion
        before the workers exit; ``drain=False`` cancels queued jobs
        immediately (running ones always finish — the pipeline has no
        safe preemption point).  Idempotent.
        """
        with self._lock:
            already = self._closed
            self._closed = True
            if not drain:
                for queued in self._jobs.values():
                    if queued.state == JobState.QUEUED:
                        queued.state = JobState.CANCELLED
                        queued.phase = "cancelled"
                        queued.finished = time.time()
                        self._active.pop(queued.key, None)
                        self.cancelled += 1
                        queued.event.set()
        if already:
            return
        for _ in self._threads:
            self._queue.put(_SENTINEL)
        for thread in self._threads:
            thread.join(timeout=timeout)

    @property
    def closed(self) -> bool:
        return self._closed

    # -- observability -----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        with self._snap_lock:
            snapshot_graphs = {
                "entries": len(self._snapshot_graphs),
                "hits": self.snapshot_cache_hits,
                "opens": self.snapshot_cache_opens,
            }
        with self._lock:
            states: Dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            return {
                "workers": self.workers,
                "queue_depth": self._queue.qsize(),
                "jobs": len(self._jobs),
                "states": states,
                "submitted": self.submitted,
                "computed": self.computed,
                "attached": self.attached_total,
                "cache_hits": self.cache_hits,
                "failed": self.failed,
                "cancelled": self.cancelled,
                "closed": self._closed,
                "snapshot_graphs": snapshot_graphs,
            }
