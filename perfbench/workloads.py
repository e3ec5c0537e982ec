"""The four workloads.  Each drives the program only through its public
API (or, for ``serve-mix``, its HTTP API) and wraps every call it makes
into a layer in a span named after that layer's module."""

from __future__ import annotations

import copy
import gc
import hashlib
import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import quote

from harness import Span, Tracer, bytes_written, dir_state, peak_rss_mb
import inputs

from repro.analysis.chain_refiner import ChainRefiner
from repro.core.api import Tabby
from repro.core.chains import dedupe_chains
from repro.core.cpg import CPGBuilder
from repro.core.incremental import IncrementalAnalyzer
from repro.core.pathfinder import GadgetChainFinder
from repro.graphdb.query import jsonable_row
from repro.graphdb.snapshot import fingerprint_digest
from repro.graphdb.storage import save_graph
from repro.graphdb.traversal import Uniqueness
from repro.graphdb.wal import WriteAheadLog
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.jar import load_classpath
from repro.verify.poc import ChainVerifier

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def chains_digest(chains, ordered: bool = True) -> str:
    keys = [c.key for c in chains]
    return hashlib.sha256(repr(keys if ordered else sorted(keys)).encode()).hexdigest()


def rows_digest(result) -> str:
    doc = [result.columns, [jsonable_row(r) for r in result.rows]]
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True, default=repr).encode()
    ).hexdigest()


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _op_spans(tracer: Tracer, layer: str, name: str, setup: bool = False) -> List[Span]:
    """Spans of one layer function, from traced operations (or, with
    ``setup``, from the set-ups, whose op ids are negative)."""
    return [
        s for s in tracer.spans
        if s.layer == layer and s.name == name and s.op is not None
        and (s.op < 0) == setup and not s.derived
    ]


def _span_mean(tracer: Tracer, layer: str, name: str, setup: bool = False) -> float:
    return _mean(s.duration for s in _op_spans(tracer, layer, name, setup))


def record_cpg_build(t: Tracer, span: Span, stats) -> None:
    """The program's own CPGStatistics breakdown of one build."""
    phases = stats.phase_seconds
    t.derived(span, "core.controllability", "summaries", phases["summaries"])
    t.sample("core.controllability.summaries_s", phases["summaries"])
    t.sample("core.controllability.analyzed_methods", stats.analyzed_method_count)
    for phase in ("org", "pcg", "mag"):
        t.sample(f"core.cpg.{phase}_s", phases[phase])
    t.sample("core.cpg.nodes", stats.class_node_count + stats.method_node_count)
    t.sample("core.cpg.rels", stats.relationship_edge_count)
    t.sample("core.cpg.pruned_call_sites", stats.pruned_call_sites)


def record_search(t: Tracer, stats) -> None:
    t.sample("core.pathfinder.paths_visited", stats.paths_visited)
    t.sample("core.pathfinder.chains", stats.chains_found)
    t.sample("core.pathfinder.negative_cache_hits", stats.negative_cache_hits)
    t.sample("core.pathfinder.reachability_pruned", stats.reachability_pruned)


def run_child(task: str, *args: str, timeout: float = 150.0) -> str:
    """Run ``child.py task args`` to completion and return its stdout."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), task, *args],
        capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {task} failed:\n{proc.stderr}")
    return proc.stdout


class Workload:
    """Set-up, one operation and its check.  A fresh instance is set up
    once per set-up repetition; only the last one is measured."""

    name = ""
    clients = 1
    #: metric name -> (layer, function) whose traced spans give its mean
    span_metrics: Dict[str, Tuple[str, str]] = {}

    def setup(self, seed: int, workdir: str, tracer: Tracer) -> None:
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Compute reference results; runs after set-up, untimed."""

    def prepare(self, i: int, client: int) -> Any:
        """Op ``i``'s input, built untimed by connection ``client``."""
        return None

    def op(self, i: int, prepared: Any, t: Tracer) -> Any:
        raise NotImplementedError

    def check(self, i: int, value: Any, t: Tracer) -> Optional[str]:
        return None

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def finish(self) -> List[str]:
        """Checks on the state the whole run left; failure messages."""
        return []

    def layer_metrics(self, tracer: Tracer) -> Dict[str, float]:
        out = {
            metric: _span_mean(tracer, layer, name)
            for metric, (layer, name) in self.span_metrics.items()
        }
        out.update({k: _mean(v) for k, v in tracer.samples.items()})
        return out

    def report(self) -> List[str]:
        return []

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# cold-audit
# ---------------------------------------------------------------------------

#: what a correct audit of the classpath returns, whatever the seed: the
#: filler is chain-free, so these depend on the 26 components alone
AUDIT_CHAINS = 101
AUDIT_CHAINS_DIGEST = "2248c7d8a6a3a2054d1af46167c3ed4740587700612d46fb3fa71f94d920936a"
AUDIT_KEPT = 99
AUDIT_KNOWN_MATCHED = 26
AUDIT_EFFECTIVE = 73


class ColdAudit(Workload):
    """Full audit from jar files on disk."""

    name = "cold-audit"
    span_metrics = {
        "jvm.load_classpath_s": ("jvm", "load_classpath"),
        "core.cpg.build_s": ("core.cpg", "CPGBuilder.build"),
        "core.pathfinder.search_s": ("core.pathfinder", "GadgetChainFinder.find_chains"),
        "analysis.refine_s": ("analysis", "ChainRefiner.refine"),
        "graphdb.storage.save_s": ("graphdb.storage", "save_graph"),
        "verify.poc_s": ("verify", "ChainVerifier.verify_all"),
    }

    def setup(self, seed, workdir, tracer):
        self.specs = inputs.corpus_specs()
        self.jar_dir = os.path.join(workdir, "jars")
        inputs.export_audit_jars(self.jar_dir, seed, self.specs)
        self.snapshot = os.path.join(workdir, "audit.cpg")
        self.first_keys = None

    def prepare_checks(self):
        # the filler's class names, read back from its jars
        self.filler = {
            cls.name
            for archive in load_classpath(
                [os.path.join(self.jar_dir, f) for f in sorted(os.listdir(self.jar_dir))
                 if f.startswith("filler-")]
            )
            for cls in archive.classes
        }

    def prepare(self, i, client):
        gc.collect()  # start every audit from a heap without the last one's garbage

    def op(self, i, prepared, t):
        with t.span("jvm", "load_classpath"):
            archives = load_classpath([self.jar_dir])
        classes = [cls for archive in archives for cls in archive.classes]
        with t.span("jvm", "ClassHierarchy"):
            hierarchy = ClassHierarchy(classes)
        with t.span("core.cpg", "CPGBuilder.build") as build_span:
            cpg = CPGBuilder(hierarchy).build()
        with t.span("core.pathfinder", "GadgetChainFinder.find_chains"):
            finder = GadgetChainFinder(cpg)
            chains = finder.find_chains()
        with t.span("analysis", "ChainRefiner.refine"):
            refined = ChainRefiner(hierarchy, modes=("rta", "taint")).refine(chains)
        with t.span("graphdb.storage", "save_graph"):
            save_graph(cpg.graph, self.snapshot, format="v3")
        with t.span("verify", "ChainVerifier.verify_all"):
            reports = ChainVerifier(classes).verify_all(refined.kept)
        return {
            "classes": len(classes), "build_span": build_span,
            "stats": cpg.statistics, "search": finder.last_search_stats,
            "chains": chains, "refined": refined, "reports": reports,
        }

    def check(self, i, value, t):
        chains, kept, reports = value["chains"], value["refined"].kept, value["reports"]
        t.sample("jvm.classes_loaded", value["classes"])
        if value["build_span"] is not None:
            record_cpg_build(t, value["build_span"], value["stats"])
        record_search(t, value["search"])
        t.sample("analysis.refuted_frac", len(value["refined"].refuted) / max(1, len(chains)))
        t.sample("graphdb.storage.snapshot_bytes", os.path.getsize(self.snapshot))
        effective = sum(r.effective for r in reports)
        t.sample("verify.effective_frac", effective / max(1, len(reports)))
        t.sample("verify.steps_used", sum(r.steps_used for r in reports))

        keys = [c.key for c in chains]
        if self.first_keys is None:
            self.first_keys = keys
        elif keys != self.first_keys:
            return f"op {i}: chain list differs from op 0"
        through_filler = [
            c for c in chains if any(s.class_name in self.filler for s in c.steps)
        ]
        if through_filler:
            return f"op {i}: {len(through_filler)} chain(s) run through the filler"
        matched = sum(
            1
            for spec in self.specs
            for known in spec.known_chains
            if any(known.matches(c) for c in kept)
        )
        # the classpath's jar order moves with the filler's jar names, and
        # with it the chain order, so the pinned digest is of the sorted set
        got = (len(chains), chains_digest(chains, ordered=False), len(kept), matched,
               effective)
        want = (AUDIT_CHAINS, AUDIT_CHAINS_DIGEST, AUDIT_KEPT, AUDIT_KNOWN_MATCHED,
                AUDIT_EFFECTIVE)
        if got != want:
            return (f"op {i}: (chains, digest, kept, known matched, effective) = "
                    f"{got}, expected {want}")
        return None


# ---------------------------------------------------------------------------
# warm-reads
# ---------------------------------------------------------------------------


def do_read(tabby: Tabby, read: Dict[str, Any], t: Tracer):
    """One read; returns the program's result (and search statistics)."""
    if read["kind"] == "query":
        with t.span("graphdb.query", "Tabby.query"):
            return tabby.query(read["cypher"]), None
    with t.span("core.pathfinder", "Tabby.find_gadget_chains"):
        chains = tabby.find_gadget_chains(
            max_depth=read["max_depth"],
            source_filter=read["source_filter"],
            uniqueness=Uniqueness(read["uniqueness"]),
            max_results_per_sink=read["cap"],
        )
    return chains, tabby.last_search_stats


def read_digest(read: Dict[str, Any], result) -> str:
    return rows_digest(result) if read["kind"] == "query" else chains_digest(result)


READ_SCHEDULE_LENGTH = 100_000


class WarmReads(Workload):
    """Reads on the merged corpus's v3 snapshot, opened once (mmap)."""

    name = "warm-reads"
    span_metrics = {
        "graphdb.query_s": ("graphdb.query", "Tabby.query"),
        "core.pathfinder.search_s": ("core.pathfinder", "Tabby.find_gadget_chains"),
    }

    def setup(self, seed, workdir, tracer):
        self.seed = seed
        self.path = os.path.join(workdir, "merged.cpg")
        # built in a child so this process's peak RSS is the readers'
        run_child("build-snapshot", self.path)
        with tracer.span("graphdb.storage", "Tabby.load_cpg"):
            self.tabby = Tabby.load_cpg(self.path)
        self.pool = inputs.read_pool(seed)
        self.schedule = inputs.read_schedule(seed, len(self.pool), READ_SCHEDULE_LENGTH)

    def prepare_checks(self):
        self.reference = json.loads(run_child("reference-reads", self.path, str(self.seed)))

    def prepare(self, i, client):
        index = self.schedule[i % len(self.schedule)]
        return index, self.pool[index]

    def op(self, i, prepared, t):
        index, read = prepared
        return (index, read) + do_read(self.tabby, read, t)

    def check(self, i, value, t):
        index, read, result, search = value
        if read["kind"] == "query":
            t.sample("graphdb.query.rows", len(result.rows))
        else:
            record_search(t, search)
        if read_digest(read, result) != self.reference[index]:
            return f"op {i}: read {index} ({read}) differs from the decoded-graph reference"
        return None

    def layer_metrics(self, tracer):
        out = super().layer_metrics(tracer)
        out["graphdb.storage.open_s"] = _span_mean(
            tracer, "graphdb.storage", "Tabby.load_cpg", setup=True
        )
        return out


# ---------------------------------------------------------------------------
# edit-stream
# ---------------------------------------------------------------------------

EDIT_SCRIPT_LENGTH = 2000
INCREMENTAL_PHASES = ("dirty", "summaries", "patch", "renumber", "search")


class EditStream(Workload):
    """Incremental updates of a WAL-backed session, one edit each."""

    name = "edit-stream"
    span_metrics = {
        "core.incremental.update_s": ("core.incremental", "IncrementalAnalyzer.update"),
    }

    def setup(self, seed, workdir, tracer):
        specs = inputs.corpus_specs()
        base = inputs.merged_classes(specs)
        self.script = inputs.edit_script(
            seed, inputs.edit_targets(base, specs), EDIT_SCRIPT_LENGTH
        )
        self.state = inputs.EditState(base)
        self.wal_dir = os.path.join(workdir, "wal")
        self.wal_path = os.path.join(self.wal_dir, "cpg.wal")
        with tracer.span("core.incremental", "IncrementalAnalyzer"):
            self.session = IncrementalAnalyzer(list(base), wal_path=self.wal_path)
        self.full_rebuilds = 0
        self.updates = 0

    def prepare(self, i, client):
        gc.collect()  # start every update from a heap without the last one's garbage
        if i >= len(self.script):
            raise RuntimeError("edit script exhausted; raise EDIT_SCRIPT_LENGTH")
        self.state.apply(*self.script[i])
        return self.state.classes(), dir_state(self.wal_dir)

    def op(self, i, prepared, t):
        classes, before = prepared
        with t.span("core.incremental", "IncrementalAnalyzer.update") as span:
            result = self.session.update(classes)
        return result, before, span

    def check(self, i, value, t):
        result, before, span = value
        stats = result.statistics
        self.updates += 1
        self.full_rebuilds += stats.full_rebuild
        t.sample("graphdb.wal.bytes_per_update", bytes_written(before, dir_state(self.wal_dir)))
        if span is not None:
            phases = stats.phase_seconds
            for phase in INCREMENTAL_PHASES:
                t.sample(f"core.incremental.{phase}_s", phases.get(phase, 0.0))
            t.sample("core.incremental.unphased_s", span.duration - sum(phases.values()))
            t.sample("core.incremental.sinks_researched_frac",
                     stats.sinks_researched / max(1, stats.sinks_total))
            t.derived(span, "core.controllability", "summaries", phases.get("summaries", 0.0))
            t.derived(span, "core.pathfinder", "search", phases.get("search", 0.0))
        return None

    def finish(self):
        final = copy.deepcopy(self.state.classes())
        cpg = CPGBuilder(ClassHierarchy(final)).build()
        cfg = self.session.search
        finder = GadgetChainFinder(
            cpg, max_depth=cfg.max_depth, follow_alias=cfg.follow_alias,
            max_results_per_sink=cfg.max_results_per_sink,
            uniqueness=cfg.uniqueness, optimize=cfg.optimize,
        )
        per_sink = finder.find_chains_per_sink(cpg.sink_nodes(), source_filter=cfg.source_filter)
        cold_chains = dedupe_chains([c for bucket in per_sink for c in bucket])
        failures = []
        if [c.key for c in self.session.chains] != [c.key for c in cold_chains]:
            failures.append("edit-stream: chains differ from a cold build of the final version")
        live = fingerprint_digest(self.session.cpg.graph)
        if live != fingerprint_digest(cpg.graph):
            failures.append("edit-stream: graph fingerprint differs from a cold build")
        replayed = WriteAheadLog.attach(self.wal_path, fsync=False).replay(recover=False)
        if fingerprint_digest(replayed.graph) != live:
            failures.append("edit-stream: WAL replay does not recover the final fingerprint")
        return failures

    def layer_metrics(self, tracer):
        out = super().layer_metrics(tracer)
        out["core.incremental.full_rebuilds"] = self.full_rebuilds
        return out

    def report(self):
        return [f"updates: {self.updates}, full rebuilds: {self.full_rebuilds}"]


# ---------------------------------------------------------------------------
# serve-mix
# ---------------------------------------------------------------------------

SERVE_WORKERS = 2
POLL_S = 0.003
SERVE_SCHEDULE_LENGTH = 100_000
_TERMINAL = ("done", "failed", "cancelled")


class ServeMix(Workload):
    """Job submit -> poll -> fetch against a ``tabby serve`` process."""

    name = "serve-mix"
    clients = 2
    span_metrics = {
        "serve.submit_s": ("serve", "POST /jobs"),
        "serve.fetch_s": ("serve", "GET result"),
    }

    def setup(self, seed, workdir, tracer):
        self.workdir = workdir
        self.server = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._conns: List[http.client.HTTPConnection] = []
        self.snapshot = os.path.join(workdir, "live.cpg")
        # building the live snapshot through the server's summary cache
        # leaves that cache warm, as it is on a service that has run a while
        tabby = Tabby(cache_dir=os.path.join(workdir, "cache"))
        tabby.add_classes(inputs.merged_classes())
        with tracer.span("core.cpg", "Tabby.build_cpg"):
            tabby.build_cpg()
        with tracer.span("graphdb.storage", "Tabby.save_cpg"):
            tabby.save_cpg(self.snapshot, format="v3")
        del tabby
        with tracer.span("serve", "start"):
            self._start_server()
        self.bundles = inputs.serve_bundles(seed)
        self.schedules = inputs.serve_schedules(seed, self.bundles, SERVE_SCHEDULE_LENGTH)
        self.issued = [0] * self.clients
        self.refused = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.final_stats: Dict[str, Any] = {}

    def _start_server(self) -> None:
        log = open(os.path.join(self.workdir, "server.log"), "w")
        env = dict(os.environ, PYTHONPATH=SRC)
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--host", "127.0.0.1",
             "--port", "0", "--workers", str(SERVE_WORKERS), "--live", self.snapshot,
             "--cache-dir", os.path.join(self.workdir, "cache"),
             "--store-capacity", str(inputs.STORE_CAPACITY)],
            stdout=subprocess.DEVNULL, stderr=log, env=env, cwd=self.workdir,
        )
        log.close()
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if self.server.poll() is not None:
                raise RuntimeError("tabby serve exited during start-up")
            with open(os.path.join(self.workdir, "server.log")) as fh:
                banner = fh.readline()
            if "listening on http://" in banner:
                address = banner.split("listening on http://", 1)[1].split()[0]
                self.port = int(address.rsplit(":", 1)[1])
                if self._request("GET", "/healthz")[0] == 200:
                    return
            time.sleep(0.01)
        raise RuntimeError("tabby serve did not start within 60s")

    def _request(self, method: str, path: str, body: Any = None) -> Tuple[int, Any]:
        """One request on this thread's keep-alive connection."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=60
            )
            with self._lock:
                self._conns.append(conn)
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data is not None else {}
        try:
            conn.request(method, path, body=data, headers=headers)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        except (OSError, http.client.HTTPException):
            conn.close()
            self._local.conn = None
            raise

    def _answer(self, method: str, path: str, body: Any = None) -> Tuple[int, Any]:
        status, payload = self._request(method, path, body)
        if status >= 400:
            with self._lock:
                self.refused += 1
            raise RuntimeError(f"{method} {path} refused: HTTP {status}: {payload.get('error')}")
        return status, payload

    def prepare_checks(self):
        """Reference results straight from the library, one per bundle."""
        from repro.corpus import build_component, build_lang_base

        decoded = Tabby.load_cpg(self.snapshot, mmap=False)
        fingerprint = fingerprint_digest(decoded.cpg.graph)
        cache = os.path.join(self.workdir, "reference-cache")
        self.reference = []
        for bundle in self.bundles:
            body = bundle["body"]
            if "components" in body:
                classes = build_lang_base()
                for name in sorted(body["components"]):
                    classes += build_component(name).classes
                chains = Tabby(cache_dir=cache).add_classes(classes).find_gadget_chains()
                self.reference.append({"chains": [
                    {"steps": [s.qualified for s in c.steps], "sink_category": c.sink_category}
                    for c in chains
                ]})
            else:
                options = body["options"]
                chains = decoded.find_gadget_chains(
                    max_depth=options["max_depth"], source_filter=options["source_filter"]
                )
                rows = decoded.query(bundle["query"]).rows
                self.reference.append({
                    "chain_count": len(chains), "fingerprint": fingerprint,
                    "rows": json.loads(json.dumps([jsonable_row(r) for r in rows])),
                })

    def prepare(self, i, client):
        schedule = self.schedules[client]
        index = schedule[self.issued[client] % len(schedule)]
        self.issued[client] += 1
        return index

    def op(self, i, index, t):
        bundle = self.bundles[index]
        with t.span("serve", "POST /jobs"):
            submit_status, doc = self._answer("POST", "/jobs", bundle["body"])
        with t.span("serve", "GET /jobs/<id>"):
            while doc["state"] not in _TERMINAL:
                time.sleep(POLL_S)
                _, doc = self._answer("GET", f"/jobs/{doc['id']}")
        if doc["state"] != "done":
            raise RuntimeError(f"job {doc['id']} {doc['state']}: {doc.get('error')}")
        if "components" in bundle["body"]:
            path = f"/jobs/{doc['id']}/chains"
        else:
            path = f"/jobs/{doc['id']}/query?q={quote(bundle['query'])}"
        with t.span("serve", "GET result"):
            _, fetched = self._answer("GET", path)
        return index, submit_status, doc, fetched

    def check(self, i, value, t):
        index, submit_status, doc, fetched = value
        reference = self.reference[index]
        progress = doc["progress"]
        if submit_status == 202 and not doc["cached"]:
            if doc.get("started") and doc.get("finished"):
                t.sample("serve.queue_wait_s", doc["started"] - doc["created"])
                t.sample("serve.run_s", doc["finished"] - doc["started"])
            # the server's own statistics of the layers a computed job ran
            search = progress["search"]
            t.sample("core.pathfinder.search_s", search["search_seconds"])
            t.sample("core.pathfinder.paths_visited", search["paths_visited"])
            t.sample("core.pathfinder.chains", search["chains_found"])
            if doc["kind"] == "components":
                cpg_row = progress["cpg"]
                t.sample("core.cpg.build_s", cpg_row["build_seconds"])
                t.sample("core.controllability.summaries_s",
                         cpg_row["phase_seconds"]["summaries"])
                t.sample("core.controllability.analyzed_methods", cpg_row["analyzed_methods"])
                with self._lock:
                    self.cache_hits += cpg_row["cache_hits"]
                    self.cache_misses += cpg_row["cache_misses"]
        if "chains" in reference:
            if fetched["chains"] != reference["chains"]:
                return f"op {i}: bundle {index} chains differ from Tabby.find_gadget_chains"
        else:
            got = (doc.get("chain_count"), doc.get("fingerprint"), fetched["rows"])
            want = (reference["chain_count"], reference["fingerprint"], reference["rows"])
            if got != want:
                return f"op {i}: live bundle {index} differs from the decoded snapshot"
        return None

    def peak_rss_mb(self):
        return peak_rss_mb(str(self.server.pid))

    def finish(self):
        _, self.final_stats = self._request("GET", "/stats")
        return []

    def layer_metrics(self, tracer):
        out = super().layer_metrics(tracer)
        store = self.final_stats.get("store", {})
        lookups = store.get("hits", 0) + store.get("misses", 0)
        out["serve.store_hit_frac"] = store.get("hits", 0) / lookups if lookups else 0.0
        out["serve.store_evicted"] = store.get("evicted", 0)
        looked_up = self.cache_hits + self.cache_misses
        out["serve.summary_cache_hit_frac"] = self.cache_hits / looked_up if looked_up else 0.0
        out["serve.refused"] = self.refused
        out["serve.start_s"] = _span_mean(tracer, "serve", "start", setup=True)
        return out

    def report(self):
        return [
            "server /stats: " + json.dumps(self.final_stats, sort_keys=True),
            f"refused: {self.refused}",
        ]

    def close(self):
        for conn in self._conns:
            conn.close()
        server, self.server = self.server, None
        if server is None or server.poll() is not None:
            return
        server.send_signal(signal.SIGINT)  # drains queued jobs, then exits
        try:
            server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()


WORKLOADS = {cls.name: cls for cls in (ColdAudit, WarmReads, EditStream, ServeMix)}
