"""Incremental CPG re-analysis and cross-version chain diffing.

Given a previously built CPG plus a new set of class sources, the
:class:`IncrementalAnalyzer` avoids the cold rebuild-everything path by
exploiting one lemma about the summary identity
(:func:`repro.core.summary_cache.class_content_key`):

    A class's summary — and therefore its ORG/PCG/MAG graph slice —
    can only reference classes inside its *dependency closure*, and any
    text change inside the closure changes the class's content key.

So a class whose key is unchanged ("clean") has a byte-identical
summary and a structurally identical slice in both versions, and no
clean-to-dirty ``CALL``/``ALIAS``/``EXTEND``/``INTERFACE`` edge can
exist (a clean class referencing a dirty one would have the dirty text
in its closure).  The update therefore:

1. computes the **dirty set** — changed/added/removed classes (by
   content key); the classes of one recursion cluster share one
   dependency closure, so a cluster is always dirty or clean as a whole
   and its SCC-final summaries are re-derived only when it is dirty;
2. **patches** the :class:`~repro.graphdb.graph.PropertyGraph` in
   place — deletes the dirty classes' slices, garbage-collects phantom
   nodes no longer demanded by any call site, rebuilds only the dirty
   slices in the cold builder's exact ORG -> PCG -> MAG order, and
   re-links the boundary (clean methods' ``ALIAS`` edges into newly
   created phantom nodes; ``JAR`` property updates for jar-only moves);
3. **renumbers canonically**: replays the cold builder's construction
   order symbolically to obtain the node/edge id permutation a cold
   build would assign, *verifies* the patched graph is key-bijective
   with that replay, and remaps ids in place.  Any mismatch raises
   :class:`~repro.errors.IncrementalError` and the analyzer falls back
   to a full rebuild — the patch is fast, the verdict is sound;
4. re-searches **only the dirty sinks** — those whose backward
   CALL/ALIAS cone intersects the touched node set (computed as a
   forward BFS from the touched nodes, the exact reversal used by the
   path finder's reachability pruning) — and splices the fresh per-sink
   chain lists into the untouched remainder deterministically.

The result is bit-identical to a cold rebuild: same chain list, same
graph fingerprint after the renumber.  ``tabby diff`` builds on this to
report chains that appeared/disappeared/survived between two versions
of a classpath (:func:`diff_chains`), with the refinement verdict layer
applied to appeared chains (:func:`apply_refinement_verdicts`).
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.chains import GadgetChain, dedupe_chains
from repro.core.controllability import ControllabilityAnalysis, MethodSummary
from repro.core.cpg import (
    ALIAS,
    CALL,
    CLASS_LABEL,
    CPG,
    CPG_INDEX_ORDER,
    CPGBuilder,
    CPGStatistics,
    EXTEND,
    HAS,
    INTERFACE,
    METHOD_LABEL,
)
from repro.core.pathfinder import GadgetChainFinder, SearchStatistics
from repro.core.sinks import SinkCatalog
from repro.core.sources import SourceCatalog
from repro.core.summary_cache import (
    SummaryCache,
    catalog_token,
    class_content_key,
    decode_summary,
    dependency_closures,
    encode_summary,
)
from repro.errors import GraphError, IncrementalError
from repro.graphdb.graph import Node, PropertyGraph, Relationship
from repro.graphdb.mvcc import VersionedGraph, WriteTransaction
from repro.graphdb.wal import WriteAheadLog
from repro.graphdb.traversal import Uniqueness
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.model import JavaClass

#: a WAL-backed session folds its log into a fresh base every this many
#: updates; each update appends one TXN (patch ops + one ``rn`` op), so
#: recovery replays at most this many minus one of them
_WAL_COMPACT_EVERY = 16

__all__ = [
    "DIFF_SCHEMA_VERSION",
    "ChainDiff",
    "ChainSearchConfig",
    "IncrementalAnalyzer",
    "IncrementalResult",
    "IncrementalStatistics",
    "apply_refinement_verdicts",
    "diff_chains",
    "diff_to_dict",
]

#: bump when the ``tabby diff`` JSON document shape changes
DIFF_SCHEMA_VERSION = "tabby-diff/v1"

MethodKey = Tuple[str, str, int]


# ---------------------------------------------------------------------------
# Configuration / result records
# ---------------------------------------------------------------------------


@dataclass
class ChainSearchConfig:
    """The search knobs an incremental session keeps fixed across
    updates (they are part of the chain-list identity)."""

    max_depth: int = 12
    source_filter: Optional[str] = None
    follow_alias: bool = True
    max_results_per_sink: Optional[int] = 200
    uniqueness: Uniqueness = Uniqueness.RELATIONSHIP_PATH
    optimize: bool = True


@dataclass
class IncrementalStatistics:
    """Phase timings and patch counters for one :meth:`update`."""

    total_seconds: float = 0.0
    #: wall-clock per phase: dirty / summaries / patch / renumber / search
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    classes_total: int = 0
    classes_changed: int = 0
    classes_added: int = 0
    classes_removed: int = 0
    classes_jar_moved: int = 0
    classes_reanalyzed: int = 0
    methods_reanalyzed: int = 0
    #: Algorithm 1 body walks, fixpoint re-walks included
    method_analyses: int = 0
    nodes_deleted: int = 0
    nodes_created: int = 0
    rels_deleted: int = 0
    rels_created: int = 0
    sinks_total: int = 0
    sinks_researched: int = 0
    sinks_reused: int = 0
    #: the patch could not be verified and a cold rebuild ran instead
    full_rebuild: bool = False
    full_rebuild_reason: str = ""

    def as_row(self) -> Dict[str, Any]:
        return {
            "total_seconds": round(self.total_seconds, 6),
            "phase_seconds": {
                k: round(v, 6) for k, v in self.phase_seconds.items()
            },
            "classes_total": self.classes_total,
            "classes_changed": self.classes_changed,
            "classes_added": self.classes_added,
            "classes_removed": self.classes_removed,
            "classes_jar_moved": self.classes_jar_moved,
            "classes_reanalyzed": self.classes_reanalyzed,
            "methods_reanalyzed": self.methods_reanalyzed,
            "method_analyses": self.method_analyses,
            "nodes_deleted": self.nodes_deleted,
            "nodes_created": self.nodes_created,
            "rels_deleted": self.rels_deleted,
            "rels_created": self.rels_created,
            "sinks_total": self.sinks_total,
            "sinks_researched": self.sinks_researched,
            "sinks_reused": self.sinks_reused,
            "full_rebuild": self.full_rebuild,
            "full_rebuild_reason": self.full_rebuild_reason,
        }


@dataclass
class IncrementalResult:
    """One update's outcome: the full (spliced) chain list plus the
    patch diagnostics."""

    chains: List[GadgetChain]
    statistics: IncrementalStatistics
    dirty_classes: List[str]


# ---------------------------------------------------------------------------
# Chain diffing
# ---------------------------------------------------------------------------


@dataclass
class ChainDiff:
    """Chains partitioned by fate across two versions.

    Identity is :attr:`GadgetChain.key` — the (class, method, arity)
    step sequence.  ``appeared_verdicts`` is filled (aligned with
    ``appeared``) when the refinement verdict layer ran.
    """

    appeared: List[GadgetChain]
    disappeared: List[GadgetChain]
    survived: List[GadgetChain]
    old_total: int
    new_total: int
    appeared_verdicts: Optional[List[Optional[Dict[str, Any]]]] = None
    statistics: Optional[IncrementalStatistics] = None


def diff_chains(
    old_chains: Sequence[GadgetChain], new_chains: Sequence[GadgetChain]
) -> ChainDiff:
    """Partition two chain lists by fate, preserving each list's order
    (appeared/survived follow the new list, disappeared the old)."""
    old_keys = {chain.key for chain in old_chains}
    new_keys = {chain.key for chain in new_chains}
    return ChainDiff(
        appeared=[c for c in new_chains if c.key not in old_keys],
        disappeared=[c for c in old_chains if c.key not in new_keys],
        survived=[c for c in new_chains if c.key in old_keys],
        old_total=len(old_chains),
        new_total=len(new_chains),
    )


def apply_refinement_verdicts(
    diff: ChainDiff,
    hierarchy: ClassHierarchy,
    refine_guards: bool = False,
    refine: Optional[Sequence[str]] = None,
    cache_dir: Optional[str] = None,
) -> ChainDiff:
    """Run the verdict layer over the *appeared* chains only.

    Survived chains were already reported by the old version and
    disappeared chains no longer exist, so only the new arrivals need a
    feasibility verdict.  Populates ``diff.appeared_verdicts`` in place
    (one row per appeared chain; ``None`` rows mean no layer touched
    that chain) and returns the diff.
    """
    rows: Dict[Tuple, Dict[str, Any]] = {}
    chains: List[GadgetChain] = list(diff.appeared)
    if refine_guards:
        from repro.core.refine import GuardFeasibilityRefiner

        kept, refuted = GuardFeasibilityRefiner(hierarchy).refine_with_reasons(
            chains
        )
        for chain, reason in refuted:
            rows[chain.key] = {
                "status": "refuted",
                "refutation": reason.as_dict(),
            }
        chains = kept
    if refine:
        from repro.analysis.chain_refiner import ChainRefiner

        result = ChainRefiner(
            hierarchy, modes=tuple(refine), cache_dir=cache_dir
        ).refine(chains)
        for chain, verdict in zip(result.chains, result.verdicts):
            rows[chain.key] = {"status": verdict.status}
        for chain, reason in result.refuted:
            rows[chain.key] = {
                "status": "refuted",
                "refutation": reason.as_dict(),
            }
    diff.appeared_verdicts = [rows.get(c.key) for c in diff.appeared]
    return diff


def _chain_record(chain: GadgetChain) -> Dict[str, Any]:
    return {
        "steps": [s.qualified for s in chain.steps],
        "key": [[s.class_name, s.method_name, s.arity] for s in chain.steps],
        "sink_category": chain.sink_category,
    }


def diff_to_dict(diff: ChainDiff) -> Dict[str, Any]:
    """The versioned ``tabby diff`` JSON document."""
    appeared: List[Dict[str, Any]] = []
    for index, chain in enumerate(diff.appeared):
        record = _chain_record(chain)
        if diff.appeared_verdicts is not None:
            verdict = diff.appeared_verdicts[index]
            if verdict is not None:
                record.update(verdict)
        appeared.append(record)
    document: Dict[str, Any] = {
        "schema": DIFF_SCHEMA_VERSION,
        "appeared": appeared,
        "disappeared": [_chain_record(c) for c in diff.disappeared],
        "survived": [_chain_record(c) for c in diff.survived],
        "summary": {
            "appeared": len(diff.appeared),
            "disappeared": len(diff.disappeared),
            "survived": len(diff.survived),
            "old_total": diff.old_total,
            "new_total": diff.new_total,
        },
    }
    if diff.statistics is not None:
        document["incremental"] = diff.statistics.as_row()
    return document


# ---------------------------------------------------------------------------
# The incremental analyzer
# ---------------------------------------------------------------------------


class IncrementalAnalyzer:
    """A long-lived analysis session over successive class versions.

    Construction runs one cold build + full search.  Each
    :meth:`update` patches the CPG and chain list in place; the output
    is always bit-identical to a cold rebuild of the new version (the
    differential battery in ``tests/core/test_incremental.py`` gates
    this for every edit script).
    """

    def __init__(
        self,
        classes: Iterable[JavaClass],
        sinks: Optional[SinkCatalog] = None,
        sources: Optional[SourceCatalog] = None,
        prune_uncontrollable_calls: bool = True,
        cache_dir: Optional[str] = None,
        cache_max_mb: Optional[float] = None,
        search: Optional[ChainSearchConfig] = None,
        versioned: bool = False,
        wal_path: Optional[str] = None,
        wal_fsync: bool = True,
        _defer: bool = False,
    ):
        self.sinks = sinks if sinks is not None else SinkCatalog()
        self.sources = sources if sources is not None else SourceCatalog.extended()
        self.prune_uncontrollable_calls = prune_uncontrollable_calls
        self.search = search if search is not None else ChainSearchConfig()
        self._token = catalog_token(self.sinks, self.sources)
        self.cache: Optional[SummaryCache] = (
            SummaryCache(cache_dir, self._token, max_mb=cache_max_mb)
            if cache_dir
            else None
        )

        # session state, established by the cold build
        self.classes: List[JavaClass] = []
        self.hierarchy: ClassHierarchy = ClassHierarchy([])
        self.cpg: Optional[CPG] = None
        self.summaries: Dict[str, MethodSummary] = {}
        self.class_keys: Dict[str, str] = {}
        self.chains: List[GadgetChain] = []
        self.last_statistics: Optional[IncrementalStatistics] = None
        self.last_search_stats = SearchStatistics()
        self._class_node_ids: Dict[str, int] = {}
        self._method_node_ids: Dict[MethodKey, int] = {}
        #: per-sink chain lists keyed by (CLASSNAME, NAME, ARITY)
        self._per_sink: Dict[MethodKey, List[GadgetChain]] = {}

        #: MVCC mode (``versioned=True`` or a ``wal_path``): every
        #: committed graph state is published as a frozen version on
        #: ``self.versioned``; concurrent readers pin snapshots with
        #: ``self.versioned.begin_snapshot()`` and keep reading the
        #: prior version while :meth:`update` patches inside a
        #: write transaction.  With ``wal_path`` the versions are also
        #: durable (journalled/compacted before publication).
        self._versioned_requested = bool(versioned or wal_path)
        self._wal_path = wal_path
        self._wal_fsync = wal_fsync
        self.versioned: Optional[VersionedGraph] = None

        if not _defer:
            self._cold_build(list(classes))

    # -- construction -------------------------------------------------------

    @classmethod
    def from_snapshot(
        cls, path: str, classes: Iterable[JavaClass], **kwargs: Any
    ) -> "IncrementalAnalyzer":
        """Warm-start a session from a persisted CPG (any snapshot
        format) plus the classes it was built from.

        The graph is loaded, summaries are recomputed (warming from
        ``cache_dir`` when set), and the snapshot is *verified* against
        a symbolic replay of the cold build — a stale or mismatched
        snapshot raises :class:`IncrementalError` instead of silently
        producing a diverged session.
        """
        from repro.graphdb.storage import load_graph

        session = cls(classes=[], _defer=True, **kwargs)
        class_list = list(classes)
        graph = load_graph(path)
        if not isinstance(graph, PropertyGraph):  # pragma: no cover - defensive
            graph = graph.materialize()
        hierarchy = ClassHierarchy(class_list)
        builder = CPGBuilder(
            hierarchy,
            sinks=session.sinks,
            sources=session.sources,
            prune_uncontrollable_calls=session.prune_uncontrollable_calls,
            cache=session.cache,
        )
        summaries, analyzed, cached = builder._compute_summaries()
        statistics = CPGStatistics(
            jar_count=len({c.jar_name for c in class_list if c.jar_name}),
            class_node_count=graph.indexes.label_count(CLASS_LABEL),
            method_node_count=graph.indexes.label_count(METHOD_LABEL),
            relationship_edge_count=graph.relationship_count,
            analyzed_method_count=analyzed,
            cached_method_count=cached,
        )
        session.cpg = CPG(graph, hierarchy, statistics, summaries)
        session._adopt(class_list, hierarchy, summaries)
        try:
            session._renumber(hierarchy, summaries)
        except IncrementalError as exc:
            raise IncrementalError(
                f"snapshot {path} does not match a cold build of the given "
                f"classes: {exc}"
            ) from exc
        session._search_all()
        session._publish_cold()
        return session

    def _cold_build(self, classes: List[JavaClass]) -> None:
        hierarchy = ClassHierarchy(classes)
        builder = CPGBuilder(
            hierarchy,
            sinks=self.sinks,
            sources=self.sources,
            prune_uncontrollable_calls=self.prune_uncontrollable_calls,
            cache=self.cache,
        )
        self.cpg = builder.build()
        self._adopt(classes, hierarchy, self.cpg.summaries)
        self._class_node_ids = {
            name: node.id for name, node in builder._class_nodes.items()
        }
        self._method_node_ids = {
            key: node.id for key, node in builder._method_nodes.items()
        }
        self._search_all()
        self._publish_cold()

    def _publish_cold(self) -> None:
        """Publish a freshly (re)built graph as the next MVCC version.

        First call creates the version chain (and the WAL, when a path
        was configured); later calls — cold-rebuild fallbacks — commit
        the new graph via a replace transaction, which checkpoints the
        WAL since a rebuilt graph has no op journal against the prior
        version.
        """
        if not self._versioned_requested:
            return
        graph = self.cpg.graph
        if self.versioned is None:
            wal = None
            if self._wal_path:
                directory = os.path.dirname(self._wal_path)
                if directory:
                    os.makedirs(directory, exist_ok=True)
                wal = WriteAheadLog.create(
                    self._wal_path, graph, 0, fsync=self._wal_fsync
                )
            self.versioned = VersionedGraph(
                graph, wal=wal, compact_every=_WAL_COMPACT_EVERY
            )
        else:
            with self.versioned.write_txn() as txn:
                txn.replace(graph)

    def _adopt(
        self,
        classes: List[JavaClass],
        hierarchy: ClassHierarchy,
        summaries: Dict[str, MethodSummary],
    ) -> None:
        """Install a version's classes/hierarchy/summaries plus the
        derived dirty-set bookkeeping (content keys)."""
        from repro.jvm.jasm import dump_class

        self.classes = classes
        self.hierarchy = hierarchy
        self.summaries = summaries
        texts = {cls.name: dump_class(cls) for cls in classes}
        closures = dependency_closures(hierarchy)
        self.class_keys = {
            cls.name: class_content_key(
                cls.name, texts, closures[cls.name], self._token
            )
            for cls in classes
        }

    # -- search -------------------------------------------------------------

    def _finder(self) -> GadgetChainFinder:
        cfg = self.search
        return GadgetChainFinder(
            self.cpg,
            max_depth=cfg.max_depth,
            follow_alias=cfg.follow_alias,
            max_results_per_sink=cfg.max_results_per_sink,
            uniqueness=cfg.uniqueness,
            optimize=cfg.optimize,
        )

    @staticmethod
    def _sink_key(node: Node) -> MethodKey:
        return (node.get("CLASSNAME"), node.get("NAME"), node.get("ARITY"))

    def _search_all(self) -> None:
        finder = self._finder()
        sinks = self.cpg.sink_nodes()
        per_sink = finder.find_chains_per_sink(
            sinks, source_filter=self.search.source_filter
        )
        self.last_search_stats = finder.last_search_stats
        self._per_sink = {
            self._sink_key(sink): bucket
            for sink, bucket in zip(sinks, per_sink)
        }
        self.chains = dedupe_chains(
            [chain for bucket in per_sink for chain in bucket]
        )

    # -- the update pipeline ------------------------------------------------

    def update(self, new_classes: Iterable[JavaClass]) -> IncrementalResult:
        """Patch the session to a new class version.

        Falls back to a cold rebuild (recording why in the statistics)
        whenever the in-place patch cannot be verified equivalent —
        correctness never depends on the patch being right, only speed
        does.
        """
        started = time.perf_counter()
        stats = IncrementalStatistics()
        class_list = list(new_classes)
        try:
            if self.versioned is not None:
                result = self._update_versioned(class_list, stats, started)
            else:
                result = self._update_in_place(class_list, stats, started)
        except (IncrementalError, GraphError, KeyError) as exc:
            stats.full_rebuild = True
            stats.full_rebuild_reason = f"{type(exc).__name__}: {exc}"
            t0 = time.perf_counter()
            self._cold_build(class_list)
            stats.phase_seconds["rebuild"] = time.perf_counter() - t0
            stats.classes_total = len(class_list)
            stats.sinks_total = len(self._per_sink)
            stats.sinks_researched = len(self._per_sink)
            stats.total_seconds = time.perf_counter() - started
            result = IncrementalResult(
                chains=list(self.chains),
                statistics=stats,
                dirty_classes=sorted(self.class_keys),
            )
        self.last_statistics = stats
        return result

    def _update_versioned(
        self,
        class_list: List[JavaClass],
        stats: IncrementalStatistics,
        started: float,
    ) -> IncrementalResult:
        """Run the in-place update inside an MVCC write transaction.

        The patch mutates a copy-on-write staging overlay; every
        snapshot pinned via ``self.versioned.begin_snapshot()`` keeps
        reading the prior version untouched.  The new version is
        committed (atomically published, WAL first) right after the
        canonical renumber, before the chain re-search reads it.
        """
        base = self.cpg.graph
        with self.versioned.write_txn() as txn:
            self.cpg.graph = txn.graph
            try:
                result = self._update_in_place(
                    class_list, stats, started, txn=txn
                )
            except BaseException:
                self.cpg.graph = base
                raise
        if txn.aborted:
            # nothing changed; keep serving the already-committed version
            self.cpg.graph = base
        return result

    def _update_in_place(
        self,
        class_list: List[JavaClass],
        stats: IncrementalStatistics,
        started: float,
        txn: Optional[WriteTransaction] = None,
    ) -> IncrementalResult:
        from repro.jvm.jasm import dump_class

        # -- phase: dirty-set computation ----------------------------------
        t0 = time.perf_counter()
        new_hierarchy = ClassHierarchy(class_list)
        new_texts = {cls.name: dump_class(cls) for cls in class_list}
        closures = dependency_closures(new_hierarchy)
        new_keys = {
            cls.name: class_content_key(
                cls.name, new_texts, closures[cls.name], self._token
            )
            for cls in class_list
        }
        old_keys = self.class_keys
        changed = {
            name
            for name, key in new_keys.items()
            if name in old_keys and old_keys[name] != key
        }
        added = set(new_keys) - set(old_keys)
        removed = set(old_keys) - set(new_keys)
        reanalyze = changed | added
        graph_dirty_old = changed | removed
        graph_dirty_new = changed | added
        jar_moved: Dict[str, Optional[str]] = {}
        for name in new_keys:
            if name in graph_dirty_new:
                continue
            old_cls = self.hierarchy.get(name)
            new_cls = new_hierarchy.get(name)
            if old_cls is not None and old_cls.jar_name != new_cls.jar_name:
                jar_moved[name] = new_cls.jar_name

        # Adopt the previous session's objects for every clean class:
        # their jasm text is identical (same content key), so summaries
        # resolved against them stay valid as-is and the merge phase
        # can skip the encode/decode re-bind — the difference between
        # an O(edit) and an O(corpus) update.  Jar moves only touch the
        # (key-irrelevant) jar attribute, patched on the object here
        # and on the graph node later.
        substituted: List[JavaClass] = []
        for cls in class_list:
            old_cls = (
                None if cls.name in graph_dirty_new
                else self.hierarchy.get(cls.name)
            )
            if old_cls is None:
                substituted.append(cls)
                continue
            if old_cls.jar_name != cls.jar_name:
                old_cls.jar_name = cls.jar_name
            substituted.append(old_cls)
        class_list = substituted
        new_hierarchy = ClassHierarchy(class_list)

        stats.classes_total = len(class_list)
        stats.classes_changed = len(changed)
        stats.classes_added = len(added)
        stats.classes_removed = len(removed)
        stats.classes_jar_moved = len(jar_moved)
        stats.classes_reanalyzed = len(reanalyze)
        stats.phase_seconds["dirty"] = time.perf_counter() - t0

        dirty_classes = sorted(graph_dirty_old | graph_dirty_new)

        if not (graph_dirty_old or graph_dirty_new):
            # no structural change: adopt the new objects, patch JAR
            # properties, and keep every cached result
            for name, jar in sorted(jar_moved.items()):
                node_id = self._class_node_ids[name]
                self.cpg.graph.set_node_property(node_id, "JAR", jar)
            self.classes = class_list
            self.hierarchy = new_hierarchy
            self.cpg.hierarchy = new_hierarchy
            self.class_keys = new_keys
            self.cpg.statistics.jar_count = len(
                {c.jar_name for c in class_list if c.jar_name}
            )
            if txn is not None and not jar_moved:
                txn.abort()  # byte-identical version; don't publish a copy
            stats.sinks_total = len(self._per_sink)
            stats.sinks_reused = len(self._per_sink)
            stats.total_seconds = time.perf_counter() - started
            return IncrementalResult(
                chains=list(self.chains),
                statistics=stats,
                dirty_classes=dirty_classes,
            )

        # -- phase: summary merge ------------------------------------------
        t0 = time.perf_counter()
        merged, reanalyzed_methods, stats.method_analyses = self._merge_summaries(
            new_hierarchy, new_keys, reanalyze, closures
        )
        if self.cache is not None:
            stale = [old_keys[name] for name in sorted(changed | removed)]
            self.cache.invalidate(stale)
        stats.methods_reanalyzed = reanalyzed_methods
        stats.phase_seconds["summaries"] = time.perf_counter() - t0

        # -- phase: in-place graph patch -----------------------------------
        t0 = time.perf_counter()
        touched = self._patch_graph(
            new_hierarchy,
            merged,
            graph_dirty_old,
            graph_dirty_new,
            jar_moved,
            stats,
        )
        stats.phase_seconds["patch"] = time.perf_counter() - t0

        # -- phase: canonical renumber + verification ----------------------
        t0 = time.perf_counter()
        self._renumber(new_hierarchy, merged)
        self._recompute_statistics(class_list, new_hierarchy, merged)
        stats.phase_seconds["renumber"] = time.perf_counter() - t0

        # install the new version's state before searching (the finder
        # reads self.cpg)
        self.cpg.hierarchy = new_hierarchy
        self.cpg.summaries = merged
        self.classes = class_list
        self.hierarchy = new_hierarchy
        self.summaries = merged
        self.class_keys = new_keys

        if txn is not None:
            # publish before searching: the graph is final, so readers
            # can switch to the new version while the (read-only) chain
            # re-search below runs against the same frozen state
            txn.commit()

        # -- phase: dirty-cone re-search + splice --------------------------
        t0 = time.perf_counter()
        self._research_and_splice(touched, stats)
        stats.phase_seconds["search"] = time.perf_counter() - t0

        stats.total_seconds = time.perf_counter() - started
        return IncrementalResult(
            chains=list(self.chains),
            statistics=stats,
            dirty_classes=dirty_classes,
        )

    # -- summary merge ------------------------------------------------------

    def _identity_stable(
        self,
        name: str,
        new_hierarchy: ClassHierarchy,
        closures: Dict[str, List[str]],
    ) -> bool:
        """Whether a clean class's old summary objects can be reused
        as-is: every closure member must be the *same object* in both
        hierarchies (resolved method references point into them)."""
        for dep in closures[name]:
            if new_hierarchy.get(dep) is not self.hierarchy.get(dep):
                return False
        return True

    def _merge_summaries(
        self,
        new_hierarchy: ClassHierarchy,
        new_keys: Dict[str, str],
        reanalyze: Set[str],
        closures: Dict[str, List[str]],
    ) -> Tuple[Dict[str, MethodSummary], int, int]:
        """Clean summaries carried over (rebound to the new hierarchy
        when the class objects differ), dirty classes re-analysed with
        the clean set seeded — the exact cache-warm cold-build recipe,
        so the merged map equals a cold build's."""
        by_class: Dict[str, List[MethodSummary]] = {}
        for summary in self.summaries.values():
            by_class.setdefault(summary.method.class_name, []).append(summary)

        seeded: Dict[str, MethodSummary] = {}
        for name in new_keys:
            if name in reanalyze:
                continue
            old_summaries = by_class.get(name, ())
            if self._identity_stable(name, new_hierarchy, closures):
                for summary in old_summaries:
                    seeded[summary.method.signature.signature] = summary
                continue
            try:
                for summary in old_summaries:
                    rebound = decode_summary(
                        encode_summary(summary), new_hierarchy
                    )
                    seeded[rebound.method.signature.signature] = rebound
            except (KeyError, TypeError, ValueError) as exc:
                raise IncrementalError(
                    f"cannot rebind clean summary of {name}: {exc}"
                ) from exc

        dirty_methods = [
            method
            for name in sorted(reanalyze)
            for method in new_hierarchy.get(name).methods.values()
            if method.has_body
        ]
        analysis = ControllabilityAnalysis(new_hierarchy)
        # the clean set covers whole SCCs: a recursion cluster's classes
        # share one closure, so they are clean or dirty together
        analysis.seed_summaries(seeded.values())
        analysis.analyze_methods(dirty_methods)

        merged = dict(seeded)
        for method in dirty_methods:
            merged[method.signature.signature] = analysis.summary_for(method)

        if self.cache is not None:
            for name in sorted(reanalyze):
                self.cache.store_class(
                    new_keys[name], new_hierarchy.get(name), merged
                )

        ordered = {key: merged[key] for key in sorted(merged)}
        return ordered, len(dirty_methods), analysis.work.method_analyses

    # -- graph patch --------------------------------------------------------

    def _patch_graph(
        self,
        new_hierarchy: ClassHierarchy,
        merged: Dict[str, MethodSummary],
        graph_dirty_old: Set[str],
        graph_dirty_new: Set[str],
        jar_moved: Dict[str, Optional[str]],
        stats: IncrementalStatistics,
    ) -> Set[MethodKey]:
        graph = self.cpg.graph
        class_ids = self._class_node_ids
        method_ids = self._method_node_ids
        prune = self.prune_uncontrollable_calls
        touched: Set[MethodKey] = set()

        nodes_before = graph.node_count
        rels_before = graph.relationship_count

        def record_neighbors(node_id: int) -> None:
            for rel_type in (CALL, ALIAS):
                for rel in graph.relationships_of(node_id, rel_type):
                    other_id = rel.other_id(node_id)
                    other = graph.node(other_id)
                    if other.has_label(METHOD_LABEL):
                        touched.add(self._sink_key(other))

        # 1. delete the dirty defined classes' slices (methods first so
        # the class nodes shed their HAS edges), including any phantom
        # method nodes hanging off them — they are rebuilt on demand
        phantom_by_owner: Dict[str, List[MethodKey]] = {}
        for key, node_id in method_ids.items():
            if graph.node(node_id).get("IS_PHANTOM"):
                phantom_by_owner.setdefault(key[0], []).append(key)
        for name in sorted(graph_dirty_old):
            old_cls = self.hierarchy.get(name)
            if old_cls is None:
                raise IncrementalError(
                    f"dirty class {name} missing from the previous hierarchy"
                )
            doomed = [
                (name, m.name, m.arity) for m in old_cls.methods.values()
            ] + phantom_by_owner.get(name, [])
            for key in doomed:
                node_id = method_ids.pop(key, None)
                if node_id is None:
                    continue  # overloads sharing a (name, arity) key
                touched.add(key)
                record_neighbors(node_id)
                graph.delete_node(node_id, detach=True)
            class_id = class_ids.pop(name, None)
            if class_id is not None:
                graph.delete_node(class_id, detach=True)

        # 2. phantom garbage collection: a phantom method node exists in
        # a cold build iff some live summary's unresolved call site
        # demands it; a phantom class node iff it owns a demanded
        # phantom method or is a phantom supertype of a defined class
        required_phantoms: Set[MethodKey] = set()
        for summary in merged.values():
            for site in summary.call_sites:
                if site.resolved is not None:
                    continue
                if site.kind == "dynamic":
                    continue
                if site.pruned and prune:
                    continue
                required_phantoms.add(
                    (site.callee_class, site.callee_name, site.arity)
                )
        required_phantom_classes = {
            key[0]
            for key in required_phantoms
            if new_hierarchy.get(key[0]) is None
        }
        for cls in new_hierarchy.classes:
            if cls.super_name and new_hierarchy.get(cls.super_name) is None:
                required_phantom_classes.add(cls.super_name)
            for iface in cls.interface_names:
                if new_hierarchy.get(iface) is None:
                    required_phantom_classes.add(iface)
        dying_classes = {
            name
            for name, node_id in class_ids.items()
            if graph.node(node_id).get("IS_PHANTOM")
            and name not in required_phantom_classes
        }
        for key in sorted(method_ids):
            node_id = method_ids[key]
            if not graph.node(node_id).get("IS_PHANTOM"):
                continue
            if key in required_phantoms and key[0] not in dying_classes:
                continue
            touched.add(key)
            record_neighbors(node_id)
            graph.delete_node(node_id, detach=True)
            del method_ids[key]
        for name in sorted(dying_classes):
            graph.delete_node(class_ids.pop(name), detach=True)

        nodes_after_delete = graph.node_count
        rels_after_delete = graph.relationship_count
        stats.nodes_deleted = nodes_before - nodes_after_delete
        stats.rels_deleted = rels_before - rels_after_delete

        # 3. rebuild the dirty slices in the cold builder's phase order
        created_classes: Set[str] = set()
        new_phantom_methods: List[MethodKey] = []

        def get_class_node(name: str) -> Node:
            node_id = class_ids.get(name)
            if node_id is not None:
                return graph.node(node_id)
            cls = new_hierarchy.get(name)
            if cls is not None:
                props: Dict[str, Any] = {
                    "NAME": cls.name,
                    "IS_INTERFACE": cls.is_interface,
                    "IS_ABSTRACT": cls.is_abstract,
                    "IS_SERIALIZABLE": new_hierarchy.is_serializable(cls.name),
                    "SUPER": cls.super_name,
                    "INTERFACES": list(cls.interface_names),
                    "JAR": cls.jar_name,
                    "IS_PHANTOM": False,
                }
                created_classes.add(name)
            else:
                props = {"NAME": name, "IS_PHANTOM": True}
            node = graph.create_node([CLASS_LABEL], props)
            class_ids[name] = node.id
            return node

        def create_defined_method_node(
            cls_name: str, method: Any
        ) -> Node:
            sig = method.signature
            sink = self.sinks.lookup(cls_name, method.name)
            props: Dict[str, Any] = {
                "NAME": method.name,
                "CLASSNAME": cls_name,
                "SIGNATURE": sig.signature,
                "SUBSIGNATURE": sig.sub_signature,
                "ARITY": method.arity,
                "IS_STATIC": method.is_static,
                "IS_ABSTRACT": method.is_abstract,
                "HAS_BODY": method.has_body,
                "IS_PHANTOM": False,
                "IS_SOURCE": self.sources.is_source(method, new_hierarchy),
                "IS_SINK": sink is not None,
            }
            if sink is not None:
                props["SINK_TYPE"] = sink.category
                props["TRIGGER_CONDITION"] = list(sink.trigger_condition)
            node = graph.create_node([METHOD_LABEL], props)
            method_ids[(cls_name, method.name, method.arity)] = node.id
            return node

        def get_phantom_method_node(
            class_name: str, method_name: str, arity: int
        ) -> Node:
            key = (class_name, method_name, arity)
            node_id = method_ids.get(key)
            if node_id is not None:
                return graph.node(node_id)
            sink = self.sinks.lookup(class_name, method_name)
            props: Dict[str, Any] = {
                "NAME": method_name,
                "CLASSNAME": class_name,
                "SIGNATURE": f"<{class_name}: {method_name}/{arity}>",
                "ARITY": arity,
                "HAS_BODY": False,
                "IS_PHANTOM": True,
                "IS_SOURCE": False,
                "IS_SINK": sink is not None,
            }
            if sink is not None:
                props["SINK_TYPE"] = sink.category
                props["TRIGGER_CONDITION"] = list(sink.trigger_condition)
            node = graph.create_node([METHOD_LABEL], props)
            method_ids[key] = node.id
            touched.add(key)
            new_phantom_methods.append(key)
            graph.create_relationship(HAS, get_class_node(class_name), node)
            return node

        # 3a. ORG slices
        for name in sorted(graph_dirty_new):
            if name in class_ids and name not in created_classes:
                raise IncrementalError(
                    f"class {name} unexpectedly already has a node"
                )
            cls = new_hierarchy.get(name)
            class_node = get_class_node(name)
            if cls.super_name:
                graph.create_relationship(
                    EXTEND, class_node, get_class_node(cls.super_name)
                )
            for iface in cls.interface_names:
                graph.create_relationship(
                    INTERFACE, class_node, get_class_node(iface)
                )
            for method in cls.methods.values():
                key = (name, method.name, method.arity)
                node_id = method_ids.get(key)
                if node_id is None:
                    method_node = create_defined_method_node(name, method)
                    touched.add(key)
                else:
                    method_node = graph.node(node_id)
                graph.create_relationship(HAS, class_node, method_node)

        # 3b. PCG slices (+ ACTION properties), sorted signature order
        dirty_sigs = [
            sig
            for sig in merged
            if merged[sig].method.class_name in graph_dirty_new
        ]
        for sig in dirty_sigs:
            summary = merged[sig]
            caller_key = (
                summary.method.class_name,
                summary.method.name,
                summary.method.arity,
            )
            caller_id = method_ids.get(caller_key)
            if caller_id is None:
                raise IncrementalError(
                    f"dirty caller {caller_key} has no method node"
                )
            touched.add(caller_key)
            caller_node = graph.node(caller_id)
            for site in summary.call_sites:
                if site.pruned and prune:
                    continue
                if site.kind == "dynamic":
                    continue
                if site.resolved is not None:
                    callee_key = (
                        site.resolved.class_name,
                        site.resolved.name,
                        site.resolved.arity,
                    )
                    callee_id = method_ids.get(callee_key)
                    if callee_id is None:
                        raise IncrementalError(
                            f"resolved callee {callee_key} has no method node"
                        )
                    callee_node = graph.node(callee_id)
                else:
                    callee_key = (
                        site.callee_class, site.callee_name, site.arity
                    )
                    callee_node = get_phantom_method_node(*callee_key)
                touched.add(callee_key)
                graph.create_relationship(
                    CALL,
                    caller_node,
                    callee_node,
                    {
                        "POLLUTED_POSITION": list(site.polluted_position),
                        "KIND": site.kind,
                        "SITE_INDEX": site.site_index,
                        "PRUNED": site.pruned,
                    },
                )
        for sig in dirty_sigs:
            summary = merged[sig]
            node_id = method_ids[
                (
                    summary.method.class_name,
                    summary.method.name,
                    summary.method.arity,
                )
            ]
            graph.set_node_property(
                node_id, "ACTION", summary.action.to_property()
            )

        # 3c. MAG slices
        for name in sorted(graph_dirty_new):
            cls = new_hierarchy.get(name)
            for method in cls.methods.values():
                method_key = (name, method.name, method.arity)
                method_node = graph.node(method_ids[method_key])
                linked: Set[int] = set()
                for parent in new_hierarchy.alias_parents(method):
                    parent_key = (
                        parent.class_name, parent.name, parent.arity
                    )
                    parent_id = method_ids.get(parent_key)
                    if parent_id is None:
                        raise IncrementalError(
                            f"alias parent {parent_key} has no method node"
                        )
                    if parent_id not in linked:
                        linked.add(parent_id)
                        touched.add(parent_key)
                        graph.create_relationship(
                            ALIAS, method_node, graph.node(parent_id)
                        )
                for super_name in new_hierarchy.supertypes(name):
                    if new_hierarchy.get(super_name) is not None:
                        continue
                    parent_key = (super_name, method.name, method.arity)
                    parent_id = method_ids.get(parent_key)
                    if parent_id is not None and parent_id not in linked:
                        linked.add(parent_id)
                        touched.add(parent_key)
                        graph.create_relationship(
                            ALIAS, method_node, graph.node(parent_id)
                        )

        # 4. boundary fixup: clean classes' ALIAS edges into phantom
        # method nodes created by this patch (the only clean-side edges
        # a cold build would have that the patch hasn't restored)
        if new_phantom_methods:
            wanted = set(new_phantom_methods)
            for cls in new_hierarchy.classes:
                if cls.name in graph_dirty_new:
                    continue
                phantom_supers = [
                    s
                    for s in new_hierarchy.supertypes(cls.name)
                    if new_hierarchy.get(s) is None
                ]
                if not phantom_supers:
                    continue
                for method in cls.methods.values():
                    for super_name in phantom_supers:
                        parent_key = (
                            super_name, method.name, method.arity
                        )
                        if parent_key not in wanted:
                            continue
                        child_id = method_ids[
                            (cls.name, method.name, method.arity)
                        ]
                        touched.add((cls.name, method.name, method.arity))
                        graph.create_relationship(
                            ALIAS,
                            graph.node(child_id),
                            graph.node(method_ids[parent_key]),
                        )

        # 5. jar-only moves: the class text is unchanged (JAR is not part
        # of the content key), only the node property needs patching
        for name, jar in sorted(jar_moved.items()):
            graph.set_node_property(class_ids[name], "JAR", jar)

        stats.nodes_created = graph.node_count - nodes_after_delete
        stats.rels_created = graph.relationship_count - rels_after_delete
        return touched

    # -- canonical renumber --------------------------------------------------

    def _canonical_orders(
        self, hierarchy: ClassHierarchy, summaries: Dict[str, MethodSummary]
    ) -> Tuple[List[Tuple], Dict[Tuple, int], List[Tuple]]:
        """Symbolically replay the cold builder's construction order.

        Returns ``(node_order, node_pos, rel_entries)`` where node keys
        are ``("C", name)`` / ``("M", class, name, arity)`` and each rel
        entry is ``(type, start_key, end_key, discriminator)`` — the
        ``SITE_INDEX`` for CALL edges, an occurrence counter otherwise
        (identically-propertied duplicates are interchangeable).
        """
        prune = self.prune_uncontrollable_calls
        node_order: List[Tuple] = []
        node_pos: Dict[Tuple, int] = {}
        rel_entries: List[Tuple] = []
        occurrence: Dict[Tuple, int] = {}

        def see_node(key: Tuple) -> None:
            if key not in node_pos:
                node_pos[key] = len(node_order)
                node_order.append(key)

        def emit_rel(
            rel_type: str, start: Tuple, end: Tuple, disc: Optional[Tuple] = None
        ) -> None:
            if disc is None:
                group = (rel_type, start, end)
                count = occurrence.get(group, 0)
                occurrence[group] = count + 1
                disc = ("occ", count)
            rel_entries.append((rel_type, start, end, disc))

        # ORG: sorted classes; node first, EXTEND/INTERFACE targets
        # created on first reference, then methods in declaration order
        for cls in sorted(hierarchy.classes, key=lambda c: c.name):
            class_key = ("C", cls.name)
            see_node(class_key)
            if cls.super_name:
                parent_key = ("C", cls.super_name)
                see_node(parent_key)
                emit_rel(EXTEND, class_key, parent_key)
            for iface in cls.interface_names:
                iface_key = ("C", iface)
                see_node(iface_key)
                emit_rel(INTERFACE, class_key, iface_key)
            for method in cls.methods.values():
                method_key = ("M", cls.name, method.name, method.arity)
                see_node(method_key)
                emit_rel(HAS, class_key, method_key)

        # PCG: sorted summary keys; phantom callee nodes (plus their HAS
        # edge and possibly-phantom owning class) on first demand
        for sig in sorted(summaries):
            summary = summaries[sig]
            caller_key = (
                "M",
                summary.method.class_name,
                summary.method.name,
                summary.method.arity,
            )
            for site in summary.call_sites:
                if site.pruned and prune:
                    continue
                if site.kind == "dynamic":
                    continue
                if site.resolved is not None:
                    callee_key = (
                        "M",
                        site.resolved.class_name,
                        site.resolved.name,
                        site.resolved.arity,
                    )
                else:
                    callee_key = (
                        "M", site.callee_class, site.callee_name, site.arity
                    )
                    if callee_key not in node_pos:
                        see_node(callee_key)
                        owner_key = ("C", site.callee_class)
                        see_node(owner_key)
                        emit_rel(HAS, owner_key, callee_key)
                emit_rel(
                    CALL, caller_key, callee_key, ("site", site.site_index)
                )

        # MAG: sorted classes, defined alias parents then phantom ones,
        # deduplicated per method occurrence
        for cls in sorted(hierarchy.classes, key=lambda c: c.name):
            for method in cls.methods.values():
                method_key = ("M", cls.name, method.name, method.arity)
                linked: Set[Tuple] = set()
                for parent in hierarchy.alias_parents(method):
                    parent_key = (
                        "M", parent.class_name, parent.name, parent.arity
                    )
                    if parent_key in linked:
                        continue
                    linked.add(parent_key)
                    emit_rel(ALIAS, method_key, parent_key)
                for super_name in hierarchy.supertypes(cls.name):
                    if hierarchy.get(super_name) is not None:
                        continue
                    parent_key = (
                        "M", super_name, method.name, method.arity
                    )
                    if parent_key in node_pos and parent_key not in linked:
                        linked.add(parent_key)
                        emit_rel(ALIAS, method_key, parent_key)

        return node_order, node_pos, rel_entries

    def _renumber(
        self, hierarchy: ClassHierarchy, summaries: Dict[str, MethodSummary]
    ) -> None:
        """Verify the patched graph is key-bijective with the symbolic
        cold replay, then remap every node/relationship id to the
        canonical (cold-build) numbering with
        :meth:`PropertyGraph.renumber` — after which the graph
        fingerprint equals a cold build's byte for byte."""
        graph = self.cpg.graph
        node_order, node_pos, rel_entries = self._canonical_orders(
            hierarchy, summaries
        )

        actual_by_key: Dict[Tuple, Node] = {}
        for node in graph._nodes.values():
            if node.has_label(CLASS_LABEL):
                key: Tuple = ("C", node.get("NAME"))
            else:
                key = (
                    "M",
                    node.get("CLASSNAME"),
                    node.get("NAME"),
                    node.get("ARITY"),
                )
            if key in actual_by_key:
                raise IncrementalError(f"duplicate node for {key}")
            actual_by_key[key] = node
        if len(actual_by_key) != len(node_order) or any(
            key not in actual_by_key for key in node_pos
        ):
            missing = sorted(
                key for key in node_pos if key not in actual_by_key
            )[:3]
            extra = sorted(
                key for key in actual_by_key if key not in node_pos
            )[:3]
            raise IncrementalError(
                "patched node set diverges from the cold replay "
                f"(missing={missing!r}, extra={extra!r})"
            )

        want: Dict[Tuple, int] = {}
        for position, entry in enumerate(rel_entries):
            if entry in want:
                raise IncrementalError(
                    f"ambiguous canonical relationship {entry!r}"
                )
            want[entry] = position
        if len(rel_entries) != graph.relationship_count:
            raise IncrementalError(
                f"patched graph has {graph.relationship_count} edges, "
                f"cold replay has {len(rel_entries)}"
            )

        key_of_id = {node.id: key for key, node in actual_by_key.items()}
        rel_new_pos: Dict[int, int] = {}
        groups: Dict[Tuple, List[Relationship]] = {}
        for rel in graph._rels.values():
            start_key = key_of_id[rel.start_id]
            end_key = key_of_id[rel.end_id]
            if rel.type == CALL:
                entry = (
                    CALL, start_key, end_key, ("site", rel.get("SITE_INDEX"))
                )
                position = want.get(entry)
                if position is None:
                    raise IncrementalError(
                        f"patched CALL edge not in cold replay: {entry!r}"
                    )
                rel_new_pos[rel.id] = position
            else:
                groups.setdefault(
                    (rel.type, start_key, end_key), []
                ).append(rel)
        for (rel_type, start_key, end_key), members in groups.items():
            members.sort(key=lambda r: r.id)
            for count, rel in enumerate(members):
                entry = (rel_type, start_key, end_key, ("occ", count))
                position = want.get(entry)
                if position is None:
                    raise IncrementalError(
                        f"patched {rel_type} edge not in cold replay: "
                        f"{(start_key, end_key)!r}"
                    )
                rel_new_pos[rel.id] = position
        if len(rel_new_pos) != len(rel_entries) or len(
            set(rel_new_pos.values())
        ) != len(rel_new_pos):
            raise IncrementalError(
                "patched edge multiset is not bijective with the cold replay"
            )

        # apply: the graph primitive (journalled as one op on an MVCC
        # overlay) reassigns the canonical ids and rebuilds the derived
        # structures.  Index declaration order matters for the
        # fingerprint: a cold build declares CPG_INDEX_ORDER first, so
        # normalise to that sequence (a loaded snapshot may carry the
        # indexes in storage order), then keep any extra indexes in the
        # old manager's order
        rel_order: List[int] = [0] * len(rel_entries)
        for rel_id, position in rel_new_pos.items():
            rel_order[position] = rel_id
        declared = list(graph.indexes._property_indexes)
        index_order = [pair for pair in CPG_INDEX_ORDER if pair in declared]
        index_order += [pair for pair in declared if pair not in CPG_INDEX_ORDER]
        graph.renumber(
            [actual_by_key[key].id for key in node_order], rel_order, index_order
        )

        # the session's key -> id maps now carry the canonical ids; read
        # them off node_pos, since an MVCC overlay renumbers private
        # clones and leaves the nodes in actual_by_key untouched
        self._class_node_ids = {
            key[1]: position for key, position in node_pos.items() if key[0] == "C"
        }
        self._method_node_ids = {
            (key[1], key[2], key[3]): position
            for key, position in node_pos.items()
            if key[0] == "M"
        }

    def _recompute_statistics(
        self,
        class_list: List[JavaClass],
        hierarchy: ClassHierarchy,
        merged: Dict[str, MethodSummary],
    ) -> None:
        graph = self.cpg.graph
        statistics = self.cpg.statistics
        statistics.jar_count = len(
            {c.jar_name for c in class_list if c.jar_name}
        )
        statistics.class_node_count = graph.indexes.label_count(CLASS_LABEL)
        statistics.method_node_count = graph.indexes.label_count(METHOD_LABEL)
        statistics.relationship_edge_count = graph.relationship_count
        statistics.pruned_call_sites = (
            sum(
                1
                for summary in merged.values()
                for site in summary.call_sites
                if site.pruned
            )
            if self.prune_uncontrollable_calls
            else 0
        )

    # -- dirty-cone re-search -----------------------------------------------

    def _forward_cone(self, seed_ids: Iterable[int]) -> Set[int]:
        """Every node with any CALL-forward/ALIAS path from a seed —
        the reversal of the backward search step, so a sink outside
        this set cannot have a touched node anywhere in its search
        tree (the same argument as the path finder's source-reachable
        pruning, run from the dirty side)."""
        graph = self.cpg.graph
        follow_alias = self.search.follow_alias
        seen: Set[int] = set()
        queue: deque = deque()
        for node_id in seed_ids:
            if node_id not in seen:
                seen.add(node_id)
                queue.append(node_id)
        csr = getattr(graph, "csr_neighbors", None)
        if csr is not None:
            hops = [csr(CALL, False)]
            if follow_alias:
                hops.append(csr(ALIAS, False))
                hops.append(csr(ALIAS, True))
            while queue:
                node_id = queue.popleft()
                for indptr, neighbours in hops:
                    for nbr in neighbours[
                        indptr[node_id] : indptr[node_id + 1]
                    ]:
                        if nbr not in seen:
                            seen.add(nbr)
                            queue.append(nbr)
            return seen
        while queue:
            node_id = queue.popleft()
            for rel in graph.out_relationships(node_id, CALL):
                if rel.end_id not in seen:
                    seen.add(rel.end_id)
                    queue.append(rel.end_id)
            if not follow_alias:
                continue
            for rel in graph.out_relationships(node_id, ALIAS):
                if rel.end_id not in seen:
                    seen.add(rel.end_id)
                    queue.append(rel.end_id)
            for rel in graph.in_relationships(node_id, ALIAS):
                if rel.start_id not in seen:
                    seen.add(rel.start_id)
                    queue.append(rel.start_id)
        return seen

    def _research_and_splice(
        self, touched: Set[MethodKey], stats: IncrementalStatistics
    ) -> None:
        seeds = [
            node_id
            for node_id in (
                self._method_node_ids.get(key) for key in touched
            )
            if node_id is not None
        ]
        cone = self._forward_cone(seeds)
        sinks = self.cpg.sink_nodes()
        research: List[Node] = []
        for sink in sinks:
            if sink.id in cone or self._sink_key(sink) not in self._per_sink:
                research.append(sink)
        fresh: Dict[MethodKey, List[GadgetChain]] = {}
        if research:
            finder = self._finder()
            buckets = finder.find_chains_per_sink(
                research, source_filter=self.search.source_filter
            )
            self.last_search_stats = finder.last_search_stats
            fresh = {
                self._sink_key(sink): bucket
                for sink, bucket in zip(research, buckets)
            }
        per_sink: Dict[MethodKey, List[GadgetChain]] = {}
        ordered: List[List[GadgetChain]] = []
        for sink in sinks:
            key = self._sink_key(sink)
            bucket = fresh[key] if key in fresh else self._per_sink[key]
            per_sink[key] = bucket
            ordered.append(bucket)
        self._per_sink = per_sink
        self.chains = dedupe_chains(
            [chain for bucket in ordered for chain in bucket]
        )
        stats.sinks_total = len(sinks)
        stats.sinks_researched = len(research)
        stats.sinks_reused = len(sinks) - len(research)
