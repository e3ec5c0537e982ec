"""The Tabby facade — the library's primary entry point.

Typical usage::

    from repro import Tabby

    tabby = Tabby()
    tabby.add_jar(archive)                  # or add_classes / load_classpath
    cpg = tabby.build_cpg()                 # semantic extraction + ORG/PCG/MAG
    chains = tabby.find_gadget_chains()     # Algorithms 2-3 over the CPG
    for chain in chains:
        print(chain.render())

    tabby.save_cpg("project.cpg")           # binary snapshot (§IV-F)
    rows = tabby.query("MATCH (m:Method {IS_SINK: true}) RETURN m.NAME")

    warm = Tabby.load_cpg("project.cpg")    # re-queryable across sessions
    warm.find_gadget_chains()
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.core.chains import GadgetChain
from repro.core.cpg import (
    CLASS_LABEL,
    CPG,
    CPGBuilder,
    CPGStatistics,
    METHOD_LABEL,
)
from repro.core.cpg_check import CPGCheckIssue, verify_cpg
from repro.core.pathfinder import GadgetChainFinder, SearchStatistics
from repro.core.refine import GuardFeasibilityRefiner
from repro.core.sinks import SinkCatalog, SinkMethod
from repro.core.sources import SourceCatalog
from repro.core.summary_cache import SummaryCache, catalog_token
from repro.errors import AnalysisError
from repro.graphdb.query import QueryResult, run_query
from repro.graphdb.storage import load_graph, open_graph, save_graph
from repro.graphdb.traversal import Uniqueness
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.jar import JarArchive, load_classpath
from repro.jvm.model import JavaClass

__all__ = ["Tabby"]


class Tabby:
    """End-to-end gadget-chain detection over jasm classes/jars."""

    def __init__(
        self,
        sinks: Optional[SinkCatalog] = None,
        sources: Optional[SourceCatalog] = None,
        prune_uncontrollable_calls: bool = True,
        cache_dir: Optional[str] = None,
        cache_max_mb: Optional[float] = None,
    ):
        self.sinks = sinks if sinks is not None else SinkCatalog()
        self.sources = sources if sources is not None else SourceCatalog.extended()
        self.prune_uncontrollable_calls = prune_uncontrollable_calls
        #: persistent summary cache directory (see repro.core.summary_cache)
        self.cache_dir = cache_dir
        #: LRU size cap for the summary cache (None = unbounded)
        self.cache_max_mb = cache_max_mb
        self._classes: List[JavaClass] = []
        self._cpg: Optional[CPG] = None
        #: diagnostics from the last find_gadget_chains() run
        self.last_search_stats = SearchStatistics()
        #: chains dropped by the last refined run (guard + verdict layer)
        self.last_refuted: List[GadgetChain] = []
        #: the same chains paired with why each one was refuted
        self.last_refutations: List[tuple] = []
        #: full verdict layer output (RefinementResult) when refine= ran
        self.last_refine = None

    # -- input -------------------------------------------------------------

    def add_classes(self, classes: Iterable[JavaClass]) -> "Tabby":
        self._classes.extend(classes)
        self._cpg = None
        return self

    def add_jar(self, archive: JarArchive) -> "Tabby":
        return self.add_classes(archive.classes)

    def load_classpath(self, paths: Sequence[str]) -> "Tabby":
        for archive in load_classpath(paths):
            self.add_jar(archive)
        return self

    def add_sinks(self, extra: Iterable[SinkMethod]) -> "Tabby":
        """Register custom sink methods before building the CPG."""
        self.sinks = self.sinks.with_extra(extra)
        self._cpg = None
        return self

    @property
    def class_count(self) -> int:
        return len(self._classes)

    # -- analysis -------------------------------------------------------------

    def build_cpg(self) -> CPG:
        """Semantic extraction, controllability analysis, and CPG
        assembly (ORG + PCG + MAG).  Idempotent until inputs change."""
        if self._cpg is not None:
            return self._cpg
        if not self._classes:
            raise AnalysisError("no classes loaded; call add_classes/add_jar first")
        hierarchy = ClassHierarchy(self._classes)
        builder = CPGBuilder(
            hierarchy,
            sinks=self.sinks,
            sources=self.sources,
            prune_uncontrollable_calls=self.prune_uncontrollable_calls,
            cache=self._summary_cache(),
        )
        self._cpg = builder.build()
        return self._cpg

    def _summary_cache(self) -> Optional[SummaryCache]:
        """The configured summary cache, or None without ``cache_dir``."""
        if not self.cache_dir:
            return None
        return SummaryCache(
            self.cache_dir,
            catalog_token(self.sinks, self.sources),
            max_mb=self.cache_max_mb,
        )

    @property
    def cpg(self) -> CPG:
        return self.build_cpg()

    def find_gadget_chains(
        self,
        max_depth: int = 12,
        source_filter: Optional[str] = None,
        follow_alias: bool = True,
        max_results_per_sink: Optional[int] = 200,
        uniqueness: Uniqueness = Uniqueness.RELATIONSHIP_PATH,
        refine_guards: bool = False,
        refine: Optional[Sequence[str]] = None,
        skip_rta_dead: bool = False,
    ) -> List[GadgetChain]:
        """Run the tabby-path-finder search over the CPG.

        ``refine_guards=True`` additionally drops chains whose
        connecting call sites sit behind constant-false guards (see
        :mod:`repro.core.refine`).  ``refine=("rta", "taint")`` layers
        the whole-CPG verdict engine on top (see
        :mod:`repro.analysis`): RTA type-reachability plus
        field-sensitive taint summaries, each refuting chains only on
        a sound argument (UNKNOWN never refutes).  Both are off by
        default: refinement is an extension beyond the paper pipeline
        and the refined list is always a verbatim subset of the
        unrefined one.  Refuted chains land in :attr:`last_refuted`,
        with their :class:`~repro.core.refine.RefutationReason` in
        :attr:`last_refutations` and the full verdict layer output in
        :attr:`last_refine`.

        ``skip_rta_dead=True`` makes the *search itself* skip edges
        annotated by :meth:`annotate_rta` — a performance device whose
        output equals post-hoc RTA filtering only when
        ``max_results_per_sink`` is ``None`` (truncation composes
        differently with pruning).

        Diagnostics for the last run are kept in
        :attr:`last_search_stats`.
        """
        cpg = self.build_cpg()
        if refine and not cpg.hierarchy.classes:
            raise AnalysisError(
                "refine= needs the class hierarchy; a snapshot-loaded CPG "
                "carries none (re-add the classes via add_classes/add_jar)"
            )
        finder = GadgetChainFinder(
            cpg,
            max_depth=max_depth,
            follow_alias=follow_alias,
            max_results_per_sink=max_results_per_sink,
            uniqueness=uniqueness,
            skip_rta_dead=skip_rta_dead,
        )
        chains = finder.find_chains(source_filter=source_filter)
        self.last_search_stats = finder.last_search_stats
        self.last_refuted = []
        self.last_refutations = []
        self.last_refine = None
        if refine_guards:
            refiner = GuardFeasibilityRefiner(cpg.hierarchy)
            chains, guard_refuted = refiner.refine_with_reasons(chains)
            self.last_refutations.extend(guard_refuted)
        if refine:
            # local import: repro.analysis itself imports core submodules
            from repro.analysis.chain_refiner import ChainRefiner

            result = ChainRefiner(
                cpg.hierarchy, modes=tuple(refine), cache_dir=self.cache_dir
            ).refine(chains)
            self.last_refine = result
            self.last_refutations.extend(result.refuted)
            chains = result.kept
        self.last_refuted = [chain for chain, _ in self.last_refutations]
        return chains

    def diff_versions(
        self,
        old_classes: Iterable[JavaClass],
        new_classes: Iterable[JavaClass],
        *,
        max_depth: int = 12,
        source_filter: Optional[str] = None,
        follow_alias: bool = True,
        max_results_per_sink: Optional[int] = 200,
        uniqueness: Uniqueness = Uniqueness.RELATIONSHIP_PATH,
        refine_guards: bool = False,
        refine: Optional[Sequence[str]] = None,
    ):
        """Compare gadget chains across two versions of a classpath.

        Builds the old version cold, patches to the new version via
        :class:`~repro.core.incremental.IncrementalAnalyzer` (output
        bit-identical to a cold rebuild), and partitions the chains
        into appeared/disappeared/survived
        (:class:`~repro.core.incremental.ChainDiff`).  When
        ``refine_guards``/``refine`` are set, the verdict layer runs
        over the *appeared* chains only — the new attack surface.

        Afterwards this instance holds the NEW version's CPG, so
        :meth:`query`/:meth:`save_cpg` operate on the updated graph.
        """
        from repro.core.incremental import (
            ChainSearchConfig,
            IncrementalAnalyzer,
            apply_refinement_verdicts,
            diff_chains,
        )

        session = IncrementalAnalyzer(
            list(old_classes),
            sinks=self.sinks,
            sources=self.sources,
            prune_uncontrollable_calls=self.prune_uncontrollable_calls,
            cache_dir=self.cache_dir,
            cache_max_mb=self.cache_max_mb,
            search=ChainSearchConfig(
                max_depth=max_depth,
                source_filter=source_filter,
                follow_alias=follow_alias,
                max_results_per_sink=max_results_per_sink,
                uniqueness=uniqueness,
            ),
        )
        old_chains = list(session.chains)
        result = session.update(list(new_classes))
        diff = diff_chains(old_chains, result.chains)
        diff.statistics = result.statistics
        if refine_guards or refine:
            apply_refinement_verdicts(
                diff,
                session.hierarchy,
                refine_guards=refine_guards,
                refine=refine,
                cache_dir=self.cache_dir,
            )
        self._classes = list(session.classes)
        self._cpg = session.cpg
        self.last_search_stats = session.last_search_stats
        return diff

    def annotate_rta(self):
        """Run RTA type-reachability over the built CPG, marking
        provably-dead dispatch edges with ``RTA_DEAD`` (see
        :mod:`repro.analysis.rta`).  Returns the
        :class:`~repro.analysis.rta.RTAResult` counters.  Annotated
        edges are skipped by ``find_gadget_chains(skip_rta_dead=True)``
        and survive :meth:`save_cpg` round-trips."""
        from repro.analysis.rta import annotate_type_reachability

        return annotate_type_reachability(self.build_cpg())

    def check_cpg(self) -> List[CPGCheckIssue]:
        """Verify the structural invariants of the built CPG."""
        return verify_cpg(self.build_cpg())

    # -- persistence & custom queries ---------------------------------------------

    def save_cpg(self, path: str, format: Optional[str] = None) -> None:
        """Persist the CPG to ``path``.

        ``format`` is ``"v3"`` (the mmap-able zero-copy snapshot),
        ``"binary"``/``"v2"`` (the v2 columnar snapshot), ``"json"``
        (the byte-stable v1 document) or ``None``/``"auto"``: v3 unless
        the path ends in ``.json``/``.json.gz``.  :meth:`load_cpg` and
        ``load_graph`` auto-detect every format.
        """
        save_graph(self.build_cpg().graph, path, format=format)

    @classmethod
    def load_cpg(cls, path: str, mmap: bool = True, **kwargs) -> "Tabby":
        """Rebuild a queryable/searchable Tabby from a persisted CPG.

        Accepts every snapshot format (auto-detected).  With ``mmap``
        (the default) a v3 snapshot is opened as a zero-copy read-only
        view — O(header) open, pages shared with any other process on
        the same file — while v1/v2 files decode as before;
        ``mmap=False`` forces a full decode into a mutable
        ``PropertyGraph`` for every format.  The returned instance
        supports :meth:`query` and :meth:`find_gadget_chains`
        immediately — the §IV-F warm-start workflow — but carries no
        class hierarchy, so features that need the original classes
        (``refine_guards``, verification, payload synthesis) require
        re-adding them via :meth:`add_classes`/:meth:`add_jar` (which
        discards the loaded CPG and rebuilds).
        """
        tabby = cls(**kwargs)
        graph = open_graph(path) if mmap else load_graph(path)
        statistics = CPGStatistics(
            class_node_count=graph.indexes.label_count(CLASS_LABEL),
            method_node_count=graph.indexes.label_count(METHOD_LABEL),
            relationship_edge_count=graph.relationship_count,
        )
        tabby._cpg = CPG(graph, ClassHierarchy([]), statistics, {})
        return tabby

    def query(
        self,
        cypher: str,
        *,
        explain: bool = False,
        profile: bool = False,
    ) -> QueryResult:
        """Run a Cypher-subset query against the CPG.

        ``explain=True`` returns only the plan (``result.plan``) without
        executing, and ``profile=True`` executes while collecting
        per-operator row/time counters on the plan.
        """
        return run_query(
            self.build_cpg().graph,
            cypher,
            explain=explain,
            profile=profile,
        )
