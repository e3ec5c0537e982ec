"""The incremental-analysis differential battery.

Every edit script asserts the one contract that makes
``repro.core.incremental`` trustworthy: the patched session's output —
the chain list AND the graph fingerprint after the canonical renumber —
is **bit-identical** to a cold rebuild of the new version.  On top of
that: the ``tabby diff`` partitioning, the versioned JSON schema, the
refinement verdict layer over appeared chains, the snapshot warm
start, and the sound full-rebuild fallback.
"""

import copy
import json

import pytest

from repro.core import Tabby
from repro.core.chains import dedupe_chains
from repro.core.cpg import CPGBuilder
from repro.core.incremental import (
    DIFF_SCHEMA_VERSION,
    ChainSearchConfig,
    IncrementalAnalyzer,
    apply_refinement_verdicts,
    diff_chains,
    diff_to_dict,
)
from repro.core.pathfinder import GadgetChainFinder
from repro.core.sources import SourceCatalog
from repro.corpus import build_component, build_lang_base
from repro.corpus.patterns import plant_guard_decoy
from repro.errors import IncrementalError
from repro.graphdb.snapshot import graph_fingerprint
from repro.graphdb.storage import save_graph
from repro.graphdb.traversal import Uniqueness
from repro.jvm.builder import ProgramBuilder
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.jasm import dumps, loads
from repro.jvm.model import SERIALIZABLE


def gadget_program(
    sink_in_b=True, with_extra=False, define_util=False, jar="demo.jar"
):
    """A parameterisable Figure-1-style program.

    ``sink_in_b`` toggles the Runtime.exec call inside EvilObjectB
    (the "modify one method body" edit); ``with_extra`` adds an
    unrelated class; ``define_util`` turns ``ext.Util`` — called by
    EvilObjectB, a phantom otherwise — into a defined class (the
    phantom-to-defined transition edit).
    """
    pb = ProgramBuilder(jar=jar)
    obj = pb.cls("java.lang.Object", extends=None)
    obj.abstract_method("toString", returns="java.lang.String")
    obj.finish()
    if define_util:
        with pb.cls("ext.Util") as c:
            with c.method("log", params=["java.lang.Object"]) as m:
                m.invoke(m.param(1), "java.lang.Object", "toString",
                         returns="java.lang.String")
                m.ret()
    with pb.cls("d.EvilObjectB", implements=[SERIALIZABLE]) as c:
        c.field("val2", "java.lang.Object")
        with c.method("toString", returns="java.lang.String") as m:
            v = m.get_field(m.this, "val2")
            cmd = m.invoke(
                v, "java.lang.Object", "toString", returns="java.lang.String"
            )
            util = m.new("ext.Util")
            m.invoke(util, "ext.Util", "log", [cmd])
            if sink_in_b:
                rt = m.invoke_static(
                    "java.lang.Runtime", "getRuntime",
                    returns="java.lang.Runtime",
                )
                m.invoke(rt, "java.lang.Runtime", "exec", [cmd])
            m.ret(cmd)
    with pb.cls("d.EvilObjectA", implements=[SERIALIZABLE]) as c:
        c.field("val1", "java.lang.Object")
        with c.method("toString", returns="java.lang.String") as m:
            v = m.get_field(m.this, "val1")
            s = m.invoke(
                v, "java.lang.Object", "toString", returns="java.lang.String"
            )
            m.ret(s)
    with pb.cls("d.Source", implements=[SERIALIZABLE]) as c:
        c.field("payload", "java.lang.Object")
        with c.method("readObject", params=["java.io.ObjectInputStream"]) as m:
            v = m.get_field(m.this, "payload")
            m.invoke(v, "java.lang.Object", "toString",
                     returns="java.lang.String")
            m.ret()
    if with_extra:
        with pb.cls("d.Bystander", implements=[SERIALIZABLE]) as c:
            c.field("data", "java.lang.Object")
            with c.method("toString", returns="java.lang.String") as m:
                v = m.get_field(m.this, "data")
                s = m.invoke(v, "java.lang.Object", "toString",
                             returns="java.lang.String")
                m.ret(s)
    return pb.build()


def cold_reference(classes, cfg: ChainSearchConfig):
    """The cold pipeline the incremental session must be bit-identical
    to: CPGBuilder + per-sink search + first-seen dedupe."""
    cpg = CPGBuilder(ClassHierarchy(classes)).build()
    finder = GadgetChainFinder(
        cpg,
        max_depth=cfg.max_depth,
        follow_alias=cfg.follow_alias,
        max_results_per_sink=cfg.max_results_per_sink,
        uniqueness=cfg.uniqueness,
        optimize=cfg.optimize,
    )
    per_sink = finder.find_chains_per_sink(
        cpg.sink_nodes(), source_filter=cfg.source_filter
    )
    chains = dedupe_chains([c for bucket in per_sink for c in bucket])
    return cpg, chains


def assert_equivalent(session, classes, label):
    """update() then compare chain keys and the full graph fingerprint
    against a cold rebuild."""
    result = session.update([copy.deepcopy(c) for c in classes])
    cpg_cold, chains_cold = cold_reference(
        [copy.deepcopy(c) for c in classes], session.search
    )
    assert [c.key for c in result.chains] == [c.key for c in chains_cold], label
    assert repr(graph_fingerprint(session.cpg.graph)) == repr(
        graph_fingerprint(cpg_cold.graph)
    ), f"{label}: graph fingerprint diverged from cold rebuild"
    return result


def reparse(classes):
    """Fresh model objects for the same program text (the update path
    must not depend on object identity across versions)."""
    return loads(dumps(classes))


class TestColdBuild:
    def test_matches_cold_pipeline(self):
        classes = gadget_program()
        session = IncrementalAnalyzer(classes)
        cpg_cold, chains_cold = cold_reference(
            gadget_program(), session.search
        )
        assert [c.key for c in session.chains] == [c.key for c in chains_cold]
        assert repr(graph_fingerprint(session.cpg.graph)) == repr(
            graph_fingerprint(cpg_cold.graph)
        )
        assert session.chains, "the gadget program must yield chains"

    def test_session_tracks_node_ids(self):
        session = IncrementalAnalyzer(gadget_program())
        graph = session.cpg.graph
        for name, node_id in session._class_node_ids.items():
            assert graph.node(node_id).get("NAME") == name
        for (cls, name, arity), node_id in session._method_node_ids.items():
            node = graph.node(node_id)
            assert (node.get("CLASSNAME"), node.get("NAME"),
                    node.get("ARITY")) == (cls, name, arity)


class TestEditScripts:
    def test_modify_method_body(self):
        session = IncrementalAnalyzer(gadget_program())
        before = [c.key for c in session.chains]
        result = assert_equivalent(
            session, gadget_program(sink_in_b=False), "drop sink call"
        )
        assert [c.key for c in result.chains] != before
        assert not session.last_statistics.full_rebuild
        assert_equivalent(session, gadget_program(), "restore sink call")

    def test_add_and_remove_class(self):
        session = IncrementalAnalyzer(gadget_program())
        assert_equivalent(session, gadget_program(with_extra=True), "add")
        stats = session.last_statistics
        assert stats.classes_added == 1 and not stats.full_rebuild
        assert_equivalent(session, gadget_program(), "remove")
        assert session.last_statistics.classes_removed == 1

    def test_phantom_to_defined_transition(self):
        # ext.Util is a phantom callee in v0 and a defined class in v1;
        # the transition dirties its callers (their closures change)
        session = IncrementalAnalyzer(gadget_program())
        phantom = session.cpg.graph.node(
            session._class_node_ids["ext.Util"]
        )
        assert phantom.get("IS_PHANTOM") is True
        assert_equivalent(
            session, gadget_program(define_util=True), "phantom->defined"
        )
        defined = session.cpg.graph.node(
            session._class_node_ids["ext.Util"]
        )
        assert defined.get("IS_PHANTOM") is False
        assert_equivalent(session, gadget_program(), "defined->phantom")

    def test_jar_move_only(self):
        session = IncrementalAnalyzer(gadget_program())
        moved = gadget_program(jar="relocated.jar")
        result = assert_equivalent(session, moved, "jar move")
        stats = session.last_statistics
        assert stats.classes_changed == 0
        assert stats.classes_jar_moved > 0
        assert stats.sinks_researched == 0
        assert result.chains

    def test_noop_update_reuses_everything(self):
        session = IncrementalAnalyzer(gadget_program())
        assert_equivalent(session, gadget_program(), "noop")
        stats = session.last_statistics
        assert stats.classes_changed == 0
        assert stats.sinks_researched == 0
        assert stats.nodes_deleted == 0 and stats.nodes_created == 0

    def test_reparsed_identical_text_is_clean(self):
        classes = gadget_program()
        session = IncrementalAnalyzer(classes)
        assert_equivalent(session, reparse(classes), "reparse noop")
        assert session.last_statistics.classes_changed == 0

    @pytest.mark.parametrize("uniqueness", list(Uniqueness))
    def test_uniqueness_modes(self, uniqueness):
        cfg = ChainSearchConfig(uniqueness=uniqueness)
        session = IncrementalAnalyzer(gadget_program(), search=cfg)
        assert_equivalent(
            session,
            gadget_program(sink_in_b=False),
            f"uniqueness={uniqueness}",
        )
        assert_equivalent(
            session, gadget_program(with_extra=True), f"u2={uniqueness}"
        )

    def test_source_filter_and_depth_config(self):
        cfg = ChainSearchConfig(max_depth=6, source_filter="d.")
        session = IncrementalAnalyzer(gadget_program(), search=cfg)
        assert_equivalent(
            session, gadget_program(with_extra=True), "filtered search"
        )


class TestCorpusDifferential:
    """One heavier script over the real synthetic corpus component."""

    def test_single_class_edit_over_commons_collections(self):
        classes = build_lang_base() + list(
            build_component("commons-collections(3.2.1)").classes
        )
        session = IncrementalAnalyzer(classes)
        assert len(session.chains) > 0
        edited = [copy.deepcopy(c) for c in reparse(classes)]
        target = next(
            c for c in edited
            if c.name == "org.apache.commons.collections.map.TransformedMap"
        )
        victim = [k for k, m in target.methods.items() if m.has_body][-1]
        del target.methods[victim]
        assert_equivalent(session, edited, "corpus 1-class edit")
        stats = session.last_statistics
        assert not stats.full_rebuild
        assert stats.classes_changed == 1
        # the dirty cone must spare sinks untouched by the edit
        assert stats.sinks_reused > 0
        assert_equivalent(session, reparse(classes), "corpus revert")

    def test_recursion_clusters_are_not_rewalked(self, monkeypatch):
        """The Clojure component's recursion clusters are SCC-final: an
        edit outside a cluster's dependency closure must re-walk no
        cluster member, and stay bit-identical to a cold rebuild."""
        from repro.core.controllability import ControllabilityAnalysis
        from repro.core.summary_cache import dependency_closures

        classes = build_lang_base() + list(build_component("Clojure").classes)
        session = IncrementalAnalyzer(classes)
        cluster = {c.name for c in classes if ".Dispatcher" in c.name}
        assert cluster, "Clojure must plant recursion clusters"
        assert session.cpg.statistics.largest_scc_size >= 30
        closures = dependency_closures(session.hierarchy)

        edited = [copy.deepcopy(c) for c in reparse(classes)]
        target = next(
            c for c in edited
            if c.name not in cluster
            and c.name != "java.lang.Object"
            and sum(m.has_body for m in c.methods.values()) > 1
            and not any(c.name in closures[name] for name in cluster)
        )
        victim = [k for k, m in target.methods.items() if m.has_body][-1]
        del target.methods[victim]

        walked = []
        real_walk = ControllabilityAnalysis._do_method_analysis

        def spy(analysis, method):
            walked.append(method.class_name)
            return real_walk(analysis, method)

        monkeypatch.setattr(ControllabilityAnalysis, "_do_method_analysis", spy)
        session.update(edited)
        monkeypatch.undo()
        stats = session.last_statistics
        assert not stats.full_rebuild
        assert 0 < stats.classes_reanalyzed < len(classes) // 2
        assert walked and not cluster & set(walked)
        assert stats.method_analyses == len(walked)
        assert_equivalent(session, edited, "edit outside the cycle")


class TestFallback:
    def test_patch_failure_falls_back_to_cold_rebuild(self, monkeypatch):
        session = IncrementalAnalyzer(gadget_program())

        def boom(*args, **kwargs):
            raise IncrementalError("injected patch failure")

        monkeypatch.setattr(session, "_patch_graph", boom)
        result = session.update(gadget_program(sink_in_b=False))
        stats = result.statistics
        assert stats.full_rebuild
        assert "injected patch failure" in stats.full_rebuild_reason
        _, chains_cold = cold_reference(
            gadget_program(sink_in_b=False), session.search
        )
        assert [c.key for c in result.chains] == [c.key for c in chains_cold]
        # the session stays usable afterwards (fresh state from the
        # rebuild), and in-place patching resumes
        monkeypatch.undo()
        assert_equivalent(session, gadget_program(), "post-fallback update")
        assert not session.last_statistics.full_rebuild


class TestSnapshotWarmStart:
    def test_from_snapshot_equivalent_to_cold_session(self, tmp_path):
        classes = gadget_program()
        cold = IncrementalAnalyzer(classes)
        path = str(tmp_path / "demo.cpg")
        save_graph(cold.cpg.graph, path)
        warm = IncrementalAnalyzer.from_snapshot(path, gadget_program())
        assert [c.key for c in warm.chains] == [c.key for c in cold.chains]
        assert repr(graph_fingerprint(warm.cpg.graph)) == repr(
            graph_fingerprint(cold.cpg.graph)
        )
        assert_equivalent(
            warm, gadget_program(sink_in_b=False), "update after warm start"
        )

    def test_from_snapshot_rejects_mismatched_classes(self, tmp_path):
        cold = IncrementalAnalyzer(gadget_program())
        path = str(tmp_path / "demo.cpg")
        save_graph(cold.cpg.graph, path)
        with pytest.raises(IncrementalError):
            IncrementalAnalyzer.from_snapshot(
                path, gadget_program(with_extra=True)
            )


class TestChainDiff:
    def test_partition_by_fate(self):
        old = cold_reference(gadget_program(), ChainSearchConfig())[1]
        new = cold_reference(
            gadget_program(sink_in_b=False), ChainSearchConfig()
        )[1]
        diff = diff_chains(old, new)
        assert diff.old_total == len(old)
        assert diff.new_total == len(new)
        old_keys = {c.key for c in old}
        new_keys = {c.key for c in new}
        assert all(c.key not in old_keys for c in diff.appeared)
        assert all(c.key not in new_keys for c in diff.disappeared)
        assert all(c.key in old_keys for c in diff.survived)
        assert len(diff.appeared) + len(diff.survived) == len(new)
        assert len(diff.disappeared) + len(diff.survived) == len(old)

    def test_schema_document_is_pinned(self):
        """The tabby-diff/v1 document shape is a published contract."""
        assert DIFF_SCHEMA_VERSION == "tabby-diff/v1"
        tabby = Tabby(sources=SourceCatalog.native())
        diff = tabby.diff_versions(
            gadget_program(sink_in_b=False), gadget_program()
        )
        document = diff_to_dict(diff)
        assert sorted(document) == [
            "appeared", "disappeared", "incremental", "schema", "summary",
            "survived",
        ]
        assert "incremental" not in diff_to_dict(diff_chains([], []))
        assert document["schema"] == "tabby-diff/v1"
        assert sorted(document["summary"]) == [
            "appeared", "disappeared", "new_total", "old_total", "survived",
        ]
        for record in document["appeared"]:
            assert sorted(record) == ["key", "sink_category", "steps"]
            assert all(
                isinstance(step, list) and len(step) == 3
                for step in record["key"]
            )
        json.dumps(document)  # must be JSON-serialisable as-is

    def test_diff_versions_reports_activated_chain(self):
        tabby = Tabby(sources=SourceCatalog.native())
        diff = tabby.diff_versions(
            gadget_program(sink_in_b=False), gadget_program()
        )
        assert diff.appeared and not diff.disappeared
        assert any(
            step.qualified == "java.lang.Runtime.exec"
            for chain in diff.appeared
            for step in chain.steps
        )
        # the facade now holds the NEW version's CPG
        rows = tabby.query(
            "MATCH (m:Method {IS_SINK: true}) RETURN m.NAME"
        ).rows
        assert rows


class TestDecoyRegression:
    """Sleeping-Giants-style regression: a guard decoy planted only in
    the edited version must surface as an *appeared* chain, and the
    verdict layer must refute it."""

    def build(self, with_decoy):
        pb = ProgramBuilder(jar="decoy.jar")
        obj = pb.cls("java.lang.Object", extends=None)
        obj.abstract_method("toString", returns="java.lang.String")
        obj.finish()
        with pb.cls("app.Entry", implements=[SERIALIZABLE]) as c:
            c.field("delegate", "java.lang.Object")
            with c.method(
                "readObject", params=["java.io.ObjectInputStream"]
            ) as m:
                v = m.get_field(m.this, "delegate")
                m.invoke(v, "java.lang.Object", "toString",
                         returns="java.lang.String")
                m.ret()
        if with_decoy:
            plant_guard_decoy(pb, "app.Sleeper", "app.Config")
        return pb.build()

    def test_decoy_appears_and_is_refuted(self):
        tabby = Tabby(sources=SourceCatalog.native())
        diff = tabby.diff_versions(
            self.build(with_decoy=False),
            self.build(with_decoy=True),
            refine_guards=True,
        )
        assert not diff.disappeared
        decoys = [
            (chain, verdict)
            for chain, verdict in zip(diff.appeared, diff.appeared_verdicts)
            if any(s.class_name == "app.Sleeper" for s in chain.steps)
        ]
        assert decoys, "the planted decoy chain must appear in the diff"
        assert all(
            verdict is not None and verdict["status"] == "refuted"
            for _, verdict in decoys
        )
        assert all(
            verdict["refutation"]["kind"] == "constant-guard"
            for _, verdict in decoys
        )
        document = diff_to_dict(diff)
        refuted = [
            r for r in document["appeared"] if r.get("status") == "refuted"
        ]
        assert refuted and all("refutation" in r for r in refuted)

    def test_without_refinement_no_verdicts(self):
        tabby = Tabby(sources=SourceCatalog.native())
        diff = tabby.diff_versions(
            self.build(with_decoy=False), self.build(with_decoy=True)
        )
        assert diff.appeared_verdicts is None
        assert all(
            "status" not in r for r in diff_to_dict(diff)["appeared"]
        )

    def test_apply_refinement_verdicts_alignment(self):
        tabby = Tabby(sources=SourceCatalog.native())
        diff = tabby.diff_versions(
            self.build(with_decoy=False), self.build(with_decoy=True)
        )
        hierarchy = ClassHierarchy(self.build(with_decoy=True))
        apply_refinement_verdicts(diff, hierarchy, refine_guards=True)
        assert len(diff.appeared_verdicts) == len(diff.appeared)


class TestSummaryCacheIntegration:
    def test_update_invalidates_superseded_keys(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        session = IncrementalAnalyzer(
            gadget_program(), cache_dir=cache_dir
        )
        old_key = session.class_keys["d.EvilObjectB"]
        assert session.cache.load(old_key, "d.EvilObjectB") is not None
        session.update(gadget_program(sink_in_b=False))
        # the superseded entry is gone; the new version's entry exists
        assert session.cache.load(old_key, "d.EvilObjectB") is None
        new_key = session.class_keys["d.EvilObjectB"]
        assert new_key != old_key
        assert session.cache.load(new_key, "d.EvilObjectB") is not None

    def test_cached_session_still_bit_identical(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        warmup = IncrementalAnalyzer(gadget_program(), cache_dir=cache_dir)
        assert warmup.chains
        session = IncrementalAnalyzer(gadget_program(), cache_dir=cache_dir)
        assert_equivalent(
            session, gadget_program(with_extra=True), "cache-warm update"
        )
