"""Code Property Graph construction (§III-B).

Builds the paper's CPG out of three constituent graphs:

* **ORG** (Object Relationship Graph): Class and Method data nodes plus
  ``EXTEND``, ``INTERFACE`` and ``HAS`` edges (Table II, top rows);
* **PCG** (Precise Call Graph): ``CALL`` edges from the controllability
  analysis, each carrying its ``POLLUTED_POSITION``; call sites whose
  PP is all-∞ are pruned (§III-C);
* **MAG** (Method Alias Graph): ``ALIAS`` edges from an overriding
  method to the method it can replace in its superclass or interfaces
  (Formula 1).

Callees that are not defined in the analysed classes (JDK methods such
as ``Runtime.exec``) become *phantom* method/class nodes, exactly like
Soot's phantom refs — sink methods are typically phantom nodes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.core.controllability import (
    ControllabilityAnalysis,
    MethodSummary,
    SummaryWork,
)
from repro.core.parallel import ParallelConfig, parallel_summary_records
from repro.core.sinks import SinkCatalog
from repro.core.sources import SourceCatalog
from repro.core.summary_cache import (
    SummaryCache,
    catalog_token,
    decode_summary,
    dependency_closures,
)
from repro.graphdb.graph import Node, PropertyGraph
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.model import JavaClass, JavaMethod

__all__ = ["CPG", "CPGBuilder", "CPGStatistics"]

# node labels
CLASS_LABEL = "Class"
METHOD_LABEL = "Method"

# relationship types (Table II)
EXTEND = "EXTEND"
INTERFACE = "INTERFACE"
HAS = "HAS"
CALL = "CALL"
ALIAS = "ALIAS"

#: relationship property set (only ever to ``True``) by the RTA pass in
#: :mod:`repro.analysis.rta` on CALL/ALIAS edges whose receiver type is
#: never constructible; absence means the edge is live.  Defined here so
#: the path finder can test it without importing ``repro.analysis``.
RTA_DEAD = "RTA_DEAD"

#: the property indexes every CPG declares, in declaration order.  The
#: order is part of the graph fingerprint (``IndexManager`` preserves
#: insertion order), so anything that rebuilds an index manager for a
#: CPG — notably the incremental renumber pass — must replay exactly
#: this sequence, not a sorted view.
CPG_INDEX_ORDER = (
    (CLASS_LABEL, "NAME"),
    (METHOD_LABEL, "NAME"),
    (METHOD_LABEL, "SIGNATURE"),
    (METHOD_LABEL, "IS_SINK"),
    (METHOD_LABEL, "IS_SOURCE"),
)


@dataclass
class CPGStatistics:
    """The counters Table VIII reports per corpus, plus per-phase
    timings and cache/parallel counters for the scaling pipeline."""

    jar_count: int = 0
    class_node_count: int = 0
    method_node_count: int = 0
    relationship_edge_count: int = 0
    pruned_call_sites: int = 0
    build_seconds: float = 0.0
    #: wall-clock per build phase: summaries / org / pcg / mag
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: worker processes used for the summary phase (0 = serial)
    summary_workers: int = 0
    #: methods analysed by Algorithm 1 this build
    analyzed_method_count: int = 0
    #: Algorithm 1 body walks this build, fixpoint re-walks included
    method_analyses: int = 0
    #: SCCs settled, and the member and pass count of the largest one
    scc_count: int = 0
    largest_scc_size: int = 0
    largest_scc_passes: int = 0
    #: methods whose summaries came from the on-disk cache
    cached_method_count: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    def as_row(self) -> Dict[str, float]:
        return {
            "jar_count": self.jar_count,
            "class_nodes": self.class_node_count,
            "method_nodes": self.method_node_count,
            "relationship_edges": self.relationship_edge_count,
            "pruned_call_sites": self.pruned_call_sites,
            "build_seconds": round(self.build_seconds, 3),
        }

    def profile_lines(self) -> List[str]:
        """Human-readable per-phase/cache/worker report (``--profile``)."""
        lines = []
        for phase in ("summaries", "org", "pcg", "mag"):
            if phase in self.phase_seconds:
                lines.append(f"phase {phase:<10} {self.phase_seconds[phase]:8.3f}s")
        lines.append(
            f"summary methods: {self.analyzed_method_count} analyzed, "
            f"{self.cached_method_count} from cache"
        )
        lines.append(
            f"summary walks: {self.method_analyses} over {self.scc_count} "
            f"SCCs (largest: {self.largest_scc_size} methods, "
            f"{self.largest_scc_passes} passes)"
        )
        if self.cache_hits or self.cache_misses:
            lines.append(
                f"summary cache: {self.cache_hits} class hits, "
                f"{self.cache_misses} misses"
            )
        lines.append(
            "summary workers: "
            + (str(self.summary_workers) if self.summary_workers else "serial")
        )
        lines.append(f"total build: {self.build_seconds:.3f}s")
        return lines


class CPG:
    """The built code property graph plus its lookup helpers."""

    def __init__(
        self,
        graph: PropertyGraph,
        hierarchy: ClassHierarchy,
        statistics: CPGStatistics,
        summaries: Dict[str, MethodSummary],
    ):
        self.graph = graph
        self.hierarchy = hierarchy
        self.statistics = statistics
        self.summaries = summaries

    # -- lookups ----------------------------------------------------------

    def class_node(self, name: str) -> Optional[Node]:
        return self.graph.find_node(CLASS_LABEL, NAME=name)

    def method_node(
        self, class_name: str, method_name: str, arity: Optional[int] = None
    ) -> Optional[Node]:
        props: Dict[str, object] = {"CLASSNAME": class_name, "NAME": method_name}
        if arity is not None:
            props["ARITY"] = arity
        return self.graph.find_node(METHOD_LABEL, **props)

    def method_nodes(self, method_name: str) -> List[Node]:
        return self.graph.find_nodes(METHOD_LABEL, NAME=method_name)

    def sink_nodes(self) -> List[Node]:
        return self.graph.find_nodes(METHOD_LABEL, IS_SINK=True)

    def source_nodes(self) -> List[Node]:
        return self.graph.find_nodes(METHOD_LABEL, IS_SOURCE=True)

    def __repr__(self) -> str:
        s = self.statistics
        return (
            f"<CPG {s.class_node_count} classes, {s.method_node_count} methods, "
            f"{s.relationship_edge_count} edges>"
        )


class CPGBuilder:
    """Builds a :class:`CPG` from a class hierarchy."""

    def __init__(
        self,
        hierarchy: ClassHierarchy,
        sinks: Optional[SinkCatalog] = None,
        sources: Optional[SourceCatalog] = None,
        prune_uncontrollable_calls: bool = True,
        parallel: Optional[Union[ParallelConfig, int]] = None,
        cache: Optional[Union[SummaryCache, str]] = None,
    ):
        self.hierarchy = hierarchy
        self.sinks = sinks if sinks is not None else SinkCatalog()
        self.sources = sources if sources is not None else SourceCatalog.extended()
        #: ablation hook: keep all-∞ call edges (turns the PCG back into
        #: the raw MCG, as the paper's baselines effectively use)
        self.prune_uncontrollable_calls = prune_uncontrollable_calls
        if isinstance(parallel, int):
            # int shorthand: 1 = serial, N>1 = N workers, 0 = one per CPU
            parallel = (
                ParallelConfig(workers=parallel) if parallel != 1 else None
            )
        self.parallel = parallel
        if isinstance(cache, str):
            cache = SummaryCache(
                cache, catalog_token(self.sinks, self.sources)
            )
        self.cache = cache

        self._graph = PropertyGraph()
        self._class_nodes: Dict[str, Node] = {}
        self._method_nodes: Dict[Tuple[str, str, int], Node] = {}
        self._jar_names: set = set()
        #: Algorithm 1 work counters of the last summary phase
        self.last_work = SummaryWork()

    # -- public -------------------------------------------------------------

    def build(self) -> CPG:
        started = time.perf_counter()
        graph = self._graph
        for label, key in CPG_INDEX_ORDER:
            graph.indexes.create_index(label, key)

        phases: Dict[str, float] = {}
        t0 = time.perf_counter()
        summaries, analyzed, cached = self._compute_summaries()
        phases["summaries"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        self._build_org()
        phases["org"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        pruned = self._build_pcg(summaries)
        phases["pcg"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        self._build_mag()
        phases["mag"] = time.perf_counter() - t0

        stats = CPGStatistics(
            jar_count=len(self._jar_names),
            class_node_count=len(
                [n for n in graph.nodes(CLASS_LABEL)]
            ),
            method_node_count=len([n for n in graph.nodes(METHOD_LABEL)]),
            relationship_edge_count=graph.relationship_count,
            pruned_call_sites=pruned,
            build_seconds=time.perf_counter() - started,
            phase_seconds=phases,
            summary_workers=(
                self.parallel.resolved_workers() if self.parallel else 0
            ),
            analyzed_method_count=analyzed,
            method_analyses=self.last_work.method_analyses,
            scc_count=self.last_work.scc_count,
            largest_scc_size=self.last_work.largest_scc_size,
            largest_scc_passes=self.last_work.largest_scc_passes,
            cached_method_count=cached,
            cache_hits=self.cache.stats.hits if self.cache else 0,
            cache_misses=self.cache.stats.misses if self.cache else 0,
        )
        return CPG(graph, self.hierarchy, stats, summaries)

    # -- summary phase (Algorithm 1, cached and/or sharded) -----------------

    def _compute_summaries(self) -> Tuple[Dict[str, MethodSummary], int, int]:
        """Summaries for every body-carrying method, in sorted key
        order.  Returns ``(summaries, analyzed_count, cached_count)``.

        The cache is consulted per class; missed classes are analysed
        (serially or across the worker pool) with the hits seeded into
        the memo table, then written back.  SCC-final determinism makes
        every combination of {serial, parallel} x {cold, warm} produce
        identical values.
        """
        all_classes = self.hierarchy.classes
        seeded: Dict[str, MethodSummary] = {}
        missed_classes: List[JavaClass] = []
        class_keys: Dict[str, str] = {}

        if self.cache is not None:
            from repro.jvm.jasm import dump_class

            class_texts = {cls.name: dump_class(cls) for cls in all_classes}
            closures = dependency_closures(self.hierarchy)
            hits: Dict[str, List[MethodSummary]] = {}
            for cls in all_classes:
                key = self.cache.class_key(
                    cls.name, class_texts, closures[cls.name]
                )
                class_keys[cls.name] = key
                records = self.cache.load(key, cls.name)
                if records is not None:
                    try:
                        hits[cls.name] = [
                            decode_summary(record, self.hierarchy)
                            for record in records
                        ]
                    except (KeyError, TypeError, ValueError):
                        pass  # stale entry: fall back to analysis
            # Seeds must cover whole SCCs.  The classes of one recursion
            # cluster share one dependency closure, so a miss anywhere
            # in a closure group sends the whole group to analysis.
            missed_groups = {
                tuple(closures[cls.name])
                for cls in all_classes
                if cls.name not in hits
            }
            for cls in all_classes:
                if tuple(closures[cls.name]) in missed_groups:
                    missed_classes.append(cls)
                else:
                    for summary in hits[cls.name]:
                        seeded[summary.method.signature.signature] = summary
        else:
            missed_classes = list(all_classes)

        summaries: Dict[str, MethodSummary] = dict(seeded)
        missed_methods = [
            m
            for cls in missed_classes
            for m in cls.methods.values()
            if m.has_body
        ]

        self.last_work = SummaryWork()
        if self.parallel is not None and missed_classes:
            records, self.last_work = parallel_summary_records(
                all_classes,
                [cls.name for cls in missed_classes],
                self.parallel,
            )
            for record in records:
                summary = decode_summary(record, self.hierarchy)
                summaries[summary.method.signature.signature] = summary
        elif missed_classes:
            analysis = ControllabilityAnalysis(self.hierarchy)
            analysis.seed_summaries(seeded.values())
            analysis.analyze_methods(missed_methods)
            self.last_work = analysis.work
            for method in missed_methods:
                key = method.signature.signature
                summaries[key] = analysis.summary_for(method)

        if self.cache is not None:
            for cls in missed_classes:
                self.cache.store_class(class_keys[cls.name], cls, summaries)

        ordered = {key: summaries[key] for key in sorted(summaries)}
        return ordered, len(missed_methods), len(seeded)

    # -- ORG ---------------------------------------------------------------------

    def _class_node(self, name: str) -> Node:
        """Node for a defined class, or a phantom node otherwise."""
        node = self._class_nodes.get(name)
        if node is not None:
            return node
        cls = self.hierarchy.get(name)
        if cls is not None:
            props = {
                "NAME": cls.name,
                "IS_INTERFACE": cls.is_interface,
                "IS_ABSTRACT": cls.is_abstract,
                "IS_SERIALIZABLE": self.hierarchy.is_serializable(cls.name),
                "SUPER": cls.super_name,
                "INTERFACES": list(cls.interface_names),
                "JAR": cls.jar_name,
                "IS_PHANTOM": False,
            }
            if cls.jar_name:
                self._jar_names.add(cls.jar_name)
        else:
            props = {"NAME": name, "IS_PHANTOM": True}
        node = self._graph.create_node([CLASS_LABEL], props)
        self._class_nodes[name] = node
        return node

    def _defined_method_node(self, method: JavaMethod) -> Node:
        key = (method.class_name, method.name, method.arity)
        node = self._method_nodes.get(key)
        if node is not None:
            return node
        sig = method.signature
        sink = self.sinks.lookup(method.class_name, method.name)
        props = {
            "NAME": method.name,
            "CLASSNAME": method.class_name,
            "SIGNATURE": sig.signature,
            "SUBSIGNATURE": sig.sub_signature,
            "ARITY": method.arity,
            "IS_STATIC": method.is_static,
            "IS_ABSTRACT": method.is_abstract,
            "HAS_BODY": method.has_body,
            "IS_PHANTOM": False,
            "IS_SOURCE": self.sources.is_source(method, self.hierarchy),
            "IS_SINK": sink is not None,
        }
        if sink is not None:
            props["SINK_TYPE"] = sink.category
            props["TRIGGER_CONDITION"] = list(sink.trigger_condition)
        node = self._graph.create_node([METHOD_LABEL], props)
        self._method_nodes[key] = node
        return node

    def _phantom_method_node(self, class_name: str, method_name: str, arity: int) -> Node:
        key = (class_name, method_name, arity)
        node = self._method_nodes.get(key)
        if node is not None:
            return node
        sink = self.sinks.lookup(class_name, method_name)
        props = {
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
        node = self._graph.create_node([METHOD_LABEL], props)
        self._method_nodes[key] = node
        # attach the phantom method to its (possibly phantom) class
        self._graph.create_relationship(HAS, self._class_node(class_name), node)
        return node

    def _build_org(self) -> None:
        """Class/method nodes plus EXTEND/INTERFACE/HAS edges.

        Classes are visited in sorted-name order so node IDs do not
        depend on classpath order (jar listing order is filesystem
        dependent; the CPG must not be)."""
        for cls in sorted(self.hierarchy.classes, key=lambda c: c.name):
            class_node = self._class_node(cls.name)
            if cls.super_name:
                self._graph.create_relationship(
                    EXTEND, class_node, self._class_node(cls.super_name)
                )
            for iface in cls.interface_names:
                self._graph.create_relationship(
                    INTERFACE, class_node, self._class_node(iface)
                )
            for method in cls.methods.values():
                method_node = self._defined_method_node(method)
                self._graph.create_relationship(HAS, class_node, method_node)

    # -- PCG ---------------------------------------------------------------------

    def _build_pcg(self, summaries: Dict[str, MethodSummary]) -> int:
        """CALL edges with POLLUTED_POSITION; returns pruned-site count.

        Iterates in sorted signature order so phantom-node creation and
        edge insertion are reproducible regardless of how the summary
        map was assembled (serial, sharded, or cache-seeded)."""
        pruned = 0
        for key in sorted(summaries):
            summary = summaries[key]
            caller_node = self._defined_method_node(summary.method)
            for site in summary.call_sites:
                if site.pruned and self.prune_uncontrollable_calls:
                    pruned += 1
                    continue
                if site.kind == "dynamic":
                    # reflective/proxy call: statically unresolvable (§V-B)
                    continue
                if site.resolved is not None:
                    callee_node = self._defined_method_node(site.resolved)
                else:
                    callee_node = self._phantom_method_node(
                        site.callee_class, site.callee_name, site.arity
                    )
                # the method Action doubles as a cached edge property so
                # path queries can inspect call details (§III-C)
                self._graph.create_relationship(
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
        # store each method's Action on its node
        for key in sorted(summaries):
            summary = summaries[key]
            node = self._defined_method_node(summary.method)
            self._graph.set_node_property(node, "ACTION", summary.action.to_property())
        return pruned

    # -- MAG ---------------------------------------------------------------------

    def _build_mag(self) -> None:
        """ALIAS edges per Formula 1: subclass/implementation method ->
        the superclass/interface method it may replace.  Besides defined
        parents, a phantom parent method node created by some call site
        is linked too (the Object.hashCode situation when the JDK class
        is not part of the corpus)."""
        for cls in sorted(self.hierarchy.classes, key=lambda c: c.name):
            for method in cls.methods.values():
                method_node = self._defined_method_node(method)
                linked: set = set()
                for parent in self.hierarchy.alias_parents(method):
                    parent_node = self._defined_method_node(parent)
                    if parent_node.id not in linked:
                        linked.add(parent_node.id)
                        self._graph.create_relationship(ALIAS, method_node, parent_node)
                # phantom parents
                for super_name in self.hierarchy.supertypes(cls.name):
                    if self.hierarchy.get(super_name) is not None:
                        continue
                    key = (super_name, method.name, method.arity)
                    phantom = self._method_nodes.get(key)
                    if phantom is not None and phantom.id not in linked:
                        linked.add(phantom.id)
                        self._graph.create_relationship(ALIAS, method_node, phantom)
