"""Unit tests for the persistent summary cache.

Covers the safety claims of ``repro.core.summary_cache``: content-hash
keying (a change to a class *or anything in its dependency closure or
catalogs* invalidates the entry), corruption tolerance (any broken
entry degrades to a miss, never an error), and the cycle-taint
persistence ban.
"""

import json
import os
import sys

import pytest

from repro.core import SourceCatalog, Tabby
from repro.core.cpg import CPGBuilder
from repro.core.sinks import SinkCatalog, SinkMethod
from repro.core.summary_cache import (
    CACHE_FORMAT_VERSION,
    SummaryCache,
    _intern_tree,
    catalog_token,
    decode_summary,
    dependency_closures,
    encode_summary,
)
from repro.corpus import build_component, build_lang_base
from repro.graphdb.snapshot import graph_fingerprint
from repro.jvm.builder import ProgramBuilder
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.jasm import dump_class
from repro.jvm.model import SERIALIZABLE


def make_classes(leaf_body="toString"):
    """t.Caller calls t.Leaf.run; the leaf body is configurable so tests
    can change a *dependency* without touching the caller."""
    pb = ProgramBuilder()
    with pb.cls("t.Leaf") as c:
        with c.method("run", params=["java.lang.Object"]) as m:
            m.invoke(m.param(1), "java.lang.Object", leaf_body,
                     returns="java.lang.String")
    with pb.cls("t.Caller") as c:
        with c.method("call", params=["java.lang.Object"]) as m:
            leaf = m.new("t.Leaf")
            m.invoke(leaf, "t.Leaf", "run", [m.param(1)])
    return pb.build()


def build(classes, cache):
    hierarchy = ClassHierarchy(classes)
    builder = CPGBuilder(hierarchy, cache=cache)
    return builder.build()


class TestHitMiss:
    def test_cold_build_misses_then_stores(self, tmp_path):
        cache = SummaryCache(str(tmp_path))
        build(make_classes(), cache)
        assert cache.stats.hits == 0
        assert cache.stats.misses == 2
        assert cache.stats.stored == 2

    def test_warm_build_hits_every_class(self, tmp_path):
        classes = make_classes()
        build(classes, SummaryCache(str(tmp_path)))
        warm = SummaryCache(str(tmp_path))
        cpg = build(classes, warm)
        assert warm.stats.hits == 2
        assert warm.stats.misses == 0
        assert cpg.statistics.cached_method_count == 2
        assert cpg.statistics.analyzed_method_count == 0

    def test_partial_cache_analyzes_only_missing_classes(self, tmp_path):
        classes = make_classes()
        first = SummaryCache(str(tmp_path))
        build(classes, first)
        # evict one entry; the next build must hit one and re-analyse one
        entries = [p for p in os.listdir(str(tmp_path)) if p.endswith(".json")]
        os.unlink(os.path.join(str(tmp_path), entries[0]))
        partial = SummaryCache(str(tmp_path))
        cpg = build(classes, partial)
        assert partial.stats.hits == 1
        assert partial.stats.misses == 1
        assert cpg.statistics.analyzed_method_count == 1


class TestInvalidation:
    def test_changed_class_bytes_invalidate_its_entry(self, tmp_path):
        build(make_classes(leaf_body="toString"), SummaryCache(str(tmp_path)))
        cache = SummaryCache(str(tmp_path))
        build(make_classes(leaf_body="hashCode"), cache)
        # the leaf changed, and the caller's closure includes the leaf:
        # both entries must be recomputed
        assert cache.stats.hits == 0
        assert cache.stats.misses == 2

    def test_dependency_closure_covers_callers(self):
        hierarchy = ClassHierarchy(make_classes())
        closures = dependency_closures(hierarchy)
        assert "t.Leaf" in closures["t.Caller"]
        assert closures["t.Leaf"] == ["t.Leaf"]

    def test_sink_catalog_change_invalidates(self, tmp_path):
        classes = make_classes()
        base_sinks = SinkCatalog()
        cache = SummaryCache(str(tmp_path), catalog_token(base_sinks))
        build(classes, cache)
        extended = base_sinks.with_extra(
            [SinkMethod("t.Leaf", "run", "CUSTOM", (0,))]
        )
        cache2 = SummaryCache(str(tmp_path), catalog_token(extended))
        build(classes, cache2)
        assert cache2.stats.hits == 0

    def test_catalog_token_is_stable(self):
        assert catalog_token(SinkCatalog()) == catalog_token(SinkCatalog())
        assert catalog_token(SinkCatalog()) != catalog_token(None)


class TestCorruptionTolerance:
    def entries(self, tmp_path):
        return [
            os.path.join(str(tmp_path), p)
            for p in sorted(os.listdir(str(tmp_path)))
            if p.endswith(".json")
        ]

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda path: open(path, "w").write("{truncated"),
            lambda path: open(path, "w").write("[]"),
            lambda path: open(path, "w").write(
                json.dumps({"version": -1, "class": "x", "records": []})
            ),
            lambda path: open(path, "w").write(
                json.dumps({
                    "version": CACHE_FORMAT_VERSION,
                    "class": "something.Else",
                    "records": [],
                })
            ),
            lambda path: open(path, "w").write(
                json.dumps({
                    "version": CACHE_FORMAT_VERSION,
                    "class": "t.Caller",
                    "records": [{"nonsense": True}],
                })
            ),
        ],
        ids=["truncated-json", "wrong-shape", "old-version", "wrong-class",
             "malformed-record"],
    )
    def test_corrupt_entry_degrades_to_miss(self, tmp_path, mutate):
        classes = make_classes()
        reference = build(classes, SummaryCache(str(tmp_path))).summaries
        for path in self.entries(tmp_path):
            mutate(path)
        cache = SummaryCache(str(tmp_path))
        cpg = build(classes, cache)
        assert cache.stats.hits == 0
        assert cache.stats.corrupt >= 1
        assert set(cpg.summaries) == set(reference)

    def test_stale_method_reference_degrades_to_miss(self, tmp_path):
        """An entry whose records mention methods the hierarchy no
        longer has must fall back to analysis, not crash."""
        classes = make_classes()
        build(classes, SummaryCache(str(tmp_path)))
        for path in self.entries(tmp_path):
            payload = json.load(open(path))
            for record in payload["records"]:
                record["subsig"] = "java.lang.String vanished()"
            json.dump(payload, open(path, "w"))
        # same key, decodable JSON, but the records cannot be rehydrated
        cache = SummaryCache(str(tmp_path))
        cpg = build(classes, cache)
        assert len(cpg.summaries) == 2
        assert cpg.statistics.analyzed_method_count == 2


class TestCodec:
    def test_round_trip_preserves_summary(self):
        hierarchy = ClassHierarchy(make_classes())
        builder = CPGBuilder(hierarchy)
        cpg = builder.build()
        for key, summary in cpg.summaries.items():
            clone = decode_summary(encode_summary(summary), hierarchy)
            assert clone.method is summary.method
            assert clone.action.to_property() == summary.action.to_property()
            assert len(clone.call_sites) == len(summary.call_sites)
            for a, b in zip(clone.call_sites, summary.call_sites):
                assert a.polluted_position == b.polluted_position
                assert a.pruned == b.pruned
                assert a.resolved is b.resolved


class TestReadBackInterning:
    """Warm loads return one shared object per distinct string."""

    def test_intern_tree_shares_strings(self):
        # json.loads allocates a fresh string per *value* occurrence
        record = json.loads(
            '{"callee_class": "com.example.Widget",'
            ' "nested": {"tags": ["com.example.Widget"]}, "pp": [0, 1]}'
        )
        out = _intern_tree(record)
        assert out["callee_class"] is sys.intern("com.example.Widget")
        assert out["nested"]["tags"][0] is out["callee_class"]
        assert out["pp"] == [0, 1]

    def test_long_strings_left_alone(self):
        long = "x" * 600
        assert _intern_tree([long])[0] is long

    def test_load_interns_record_strings(self, tmp_path):
        cache = SummaryCache(str(tmp_path))
        cache.store(
            "deadbeef", "t.C", [{"subsig": "void run()", "callee": "com.ex.Widget"}]
        )
        (record,) = SummaryCache(str(tmp_path)).load("deadbeef", "t.C")
        assert record["callee"] is sys.intern("com.ex.Widget")
        assert record["subsig"] is sys.intern("void run()")


class TestWarmRunIdentity:
    """A warm ``--cache-dir`` run after a binary save/load cycle must be
    bit-identical to a cold run: same rendered chains, same graph."""

    def gadget_classes(self):
        pb = ProgramBuilder()
        obj = pb.cls("java.lang.Object", extends=None)
        obj.abstract_method("toString", returns="java.lang.String")
        obj.finish()
        with pb.cls("demo.EvilObjectB", implements=[SERIALIZABLE]) as c:
            c.field("val2", "java.lang.Object")
            with c.method("toString", returns="java.lang.String") as m:
                v = m.get_field(m.this, "val2")
                cmd = m.invoke(
                    v, "java.lang.Object", "toString", returns="java.lang.String"
                )
                rt = m.invoke_static(
                    "java.lang.Runtime", "getRuntime", returns="java.lang.Runtime"
                )
                m.invoke(rt, "java.lang.Runtime", "exec", [cmd])
                m.ret(cmd)
        with pb.cls("demo.EvilObjectA", implements=[SERIALIZABLE]) as c:
            c.field("val1", "java.lang.Object")
            with c.method("readObject", params=["java.io.ObjectInputStream"]) as m:
                v = m.get_field(m.this, "val1")
                m.invoke(v, "java.lang.Object", "toString", returns="java.lang.String")
                m.ret()
        return pb.build()

    def test_warm_run_bit_identical_after_binary_cycle(self, tmp_path):
        from repro.graphdb.snapshot import graph_fingerprint

        cache_dir = str(tmp_path / "cache")
        cold = Tabby(
            sources=SourceCatalog.native(), cache_dir=cache_dir
        ).add_classes(self.gadget_classes())
        cold_chains = [c.render() for c in cold.find_gadget_chains()]
        assert cold_chains  # the regression only means something with a chain
        assert cold.cpg.statistics.cached_method_count == 0

        # binary save/load cycle in between the two cache runs
        path = str(tmp_path / "saved.cpg")
        cold.save_cpg(path, format="binary")
        reloaded = Tabby.load_cpg(path, sources=SourceCatalog.native())
        assert graph_fingerprint(reloaded.cpg.graph) == graph_fingerprint(
            cold.cpg.graph
        )

        warm = Tabby(
            sources=SourceCatalog.native(), cache_dir=cache_dir
        ).add_classes(self.gadget_classes())
        warm_chains = [c.render() for c in warm.find_gadget_chains()]
        assert warm.cpg.statistics.cached_method_count > 0  # really warm
        assert warm_chains == cold_chains
        assert graph_fingerprint(warm.cpg.graph) == graph_fingerprint(
            cold.cpg.graph
        )


class TestRecursionClusters:
    def test_cluster_classes_are_persisted(self, tmp_path):
        """The bomb component's recursion clusters are SCC-final, so
        they are persisted like any other class: a warm build misses
        nothing and analyses nothing, with an identical graph."""
        classes = build_lang_base() + build_component("Clojure").classes
        cold = SummaryCache(str(tmp_path))
        cold_cpg = build(classes, cold)
        assert cold_cpg.statistics.largest_scc_size >= 30  # a real cluster
        assert cold.stats.stored == len(classes)
        warm = SummaryCache(str(tmp_path))
        cpg = build(classes, warm)
        assert warm.stats.misses == 0
        assert warm.stats.hits == len(classes)
        assert cpg.statistics.analyzed_method_count == 0
        assert graph_fingerprint(cpg.graph) == graph_fingerprint(cold_cpg.graph)

    def test_partial_cluster_hit_reanalyses_the_whole_cluster(self, tmp_path):
        """Seeds must cover whole SCCs: when one class of a cross-class
        recursion cluster misses, its partner is re-analysed with it,
        never settled against the partner's cached values."""
        pb = ProgramBuilder()
        for name, other in (("t.A", "t.B"), ("t.B", "t.A")):
            with pb.cls(name) as c:
                c.field("next", "java.lang.Object")
                with c.method("step", params=["java.lang.Object"],
                              returns="java.lang.Object") as m:
                    out = m.invoke(m.param(1), other, "step", [m.param(1)],
                                   returns="java.lang.Object")
                    m.set_field(m.this, "next", out)
                    m.ret(out)
        classes = pb.build()
        cold = SummaryCache(str(tmp_path))
        cold_cpg = build(classes, cold)
        assert cold_cpg.statistics.largest_scc_size == 2
        hierarchy = ClassHierarchy(classes)
        closures = dependency_closures(hierarchy)
        texts = {c.name: dump_class(c) for c in classes}
        os.unlink(cold._path(cold.class_key("t.A", texts, closures["t.A"])))
        warm = SummaryCache(str(tmp_path))
        cpg = build(classes, warm)
        assert (warm.stats.hits, warm.stats.misses) == (1, 1)
        assert cpg.statistics.analyzed_method_count == 2  # A.step and B.step
        assert graph_fingerprint(cpg.graph) == graph_fingerprint(cold_cpg.graph)


class TestInvalidate:
    def test_invalidate_removes_entries(self, tmp_path):
        cache = SummaryCache(str(tmp_path))
        cache.store("k1", "t.A", [])
        cache.store("k2", "t.B", [])
        assert cache.invalidate(["k1", "missing"]) == 1
        assert cache.stats.invalidated == 1
        assert cache.load("k1", "t.A") is None
        assert cache.load("k2", "t.B") is not None
        # the failed load above counted as a plain miss, not corruption
        assert cache.stats.corrupt == 0

    def test_invalidate_is_idempotent(self, tmp_path):
        cache = SummaryCache(str(tmp_path))
        cache.store("k1", "t.A", [])
        assert cache.invalidate(["k1"]) == 1
        assert cache.invalidate(["k1"]) == 0
        assert cache.stats.invalidated == 1

    def test_taint_engine_invalidate_classes(self, tmp_path):
        """The taint engine's per-class invalidation drops both the
        on-disk entry and the in-memory memo, forcing re-probe."""
        from repro.analysis.taint import TaintSummaryEngine

        classes = make_classes()
        hierarchy = ClassHierarchy(classes)
        engine = TaintSummaryEngine(hierarchy, cache_dir=str(tmp_path))
        for cls in hierarchy.classes:
            for method in cls.methods.values():
                engine.summary_for(method)
        assert engine.cache.stats.stored > 0
        removed = engine.invalidate_classes(["t.Caller", "t.Ghost"])
        assert removed >= 1
        assert engine.cache.stats.invalidated == removed
        # the memoised summaries for the class are gone too
        caller = hierarchy.get("t.Caller")
        warm = TaintSummaryEngine(hierarchy, cache_dir=str(tmp_path))
        for method in caller.methods.values():
            assert warm.summary_for(method) is not None


class TestSizeCap:
    def fill(self, cache, count, size=4096):
        pad = "x" * size
        for i in range(count):
            cache.store(f"k{i:03d}", f"t.C{i}", [{"subsig": pad}])

    def test_rejects_nonpositive_cap(self, tmp_path):
        with pytest.raises(ValueError):
            SummaryCache(str(tmp_path), max_mb=0)
        with pytest.raises(ValueError):
            SummaryCache(str(tmp_path), max_mb=-1)

    def test_unbounded_by_default(self, tmp_path):
        cache = SummaryCache(str(tmp_path))
        self.fill(cache, 30)
        assert cache.stats.evicted == 0
        assert len(os.listdir(str(tmp_path))) == 30

    def test_cap_evicts_oldest_first(self, tmp_path):
        # ~4KB per entry, 16KB cap -> at most ~4 entries survive
        cache = SummaryCache(str(tmp_path), max_mb=16 / 1024)
        self.fill(cache, 12)
        assert cache.stats.evicted > 0
        survivors = sorted(
            p for p in os.listdir(str(tmp_path)) if p.endswith(".json")
        )
        # LRU by mtime: the oldest writes go first, the newest survive
        assert survivors == [f"k{i:03d}.json" for i in range(12 - len(survivors), 12)]
        # the just-written key is never the eviction victim
        assert "k011.json" in survivors

    def test_hit_refreshes_lru_position(self, tmp_path):
        cache = SummaryCache(str(tmp_path), max_mb=16 / 1024)
        self.fill(cache, 3)
        # make k000 strictly the oldest, then touch it via a hit
        past = os.path.getmtime(cache._path("k001")) - 100
        os.utime(cache._path("k000"), (past, past))
        assert cache.load("k000", "t.C0") is not None
        self.fill_one_more = None
        cache.store("k900", "t.C900", [{"subsig": "y" * 4096}])
        cache.store("k901", "t.C901", [{"subsig": "y" * 4096}])
        remaining = {p for p in os.listdir(str(tmp_path)) if p.endswith(".json")}
        assert "k000.json" in remaining  # refreshed, so not the victim

    def test_evicted_entry_is_a_plain_miss(self, tmp_path):
        cache = SummaryCache(str(tmp_path), max_mb=16 / 1024)
        self.fill(cache, 12)
        assert cache.load("k000", "t.C0") is None
        assert cache.stats.corrupt == 0


class TestStructuredWarning:
    def test_corrupt_entry_logs_structured_warning(self, tmp_path, caplog):
        import logging

        cache = SummaryCache(str(tmp_path))
        cache.store("bad", "t.A", [])
        with open(cache._path("bad"), "w") as handle:
            handle.write("{nope")
        with caplog.at_level(logging.WARNING, logger="repro.core.summary_cache"):
            assert cache.load("bad", "t.A") is None
        records = [
            r for r in caplog.records
            if r.name == "repro.core.summary_cache"
        ]
        assert len(records) == 1
        message = records[0].getMessage()
        assert message.startswith(
            "unreadable summary cache entry treated as miss:"
        )
        assert "class=t.A" in message and "key=bad" in message
        assert cache.stats.corrupt == 1

    def test_clean_miss_does_not_warn(self, tmp_path, caplog):
        import logging

        cache = SummaryCache(str(tmp_path))
        with caplog.at_level(logging.WARNING, logger="repro.core.summary_cache"):
            assert cache.load("absent", "t.A") is None
        assert not caplog.records
