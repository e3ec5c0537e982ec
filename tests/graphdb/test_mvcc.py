"""MVCC version-chain battery: frozen versions, copy-on-write staging,
commit/abort semantics, and the differential contract that a committed
overlay equals applying the same mutations to a plain graph.

The concurrency half (reader threads pinned to snapshots while a
writer commits) lives in ``test_mvcc_concurrency.py``.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import GraphError
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.mvcc import VersionedGraph, version_of
from repro.graphdb.snapshot import fingerprint_digest, graph_fingerprint

from tests.graphdb.test_mutation_properties import (
    apply_ops,
    assert_matches_rebuild,
    op,
)


def seed_graph():
    """A small graph with every structure the COW overlay must handle:
    labels, property indexes, typed adjacency, rel-property indexes."""
    g = PropertyGraph()
    for label in ("Class", "Method"):
        for key in ("NAME", "IS_SINK"):
            g.create_index(label, key)
    g.create_relationship_index("PRUNED")
    nodes = [
        g.create_node(["Class"], {"NAME": f"C{i}", "IS_SINK": i % 2 == 0})
        for i in range(6)
    ]
    for i in range(5):
        props = {"PRUNED": True} if i % 2 else None
        g.create_relationship("CALL", nodes[i], nodes[i + 1], props)
    g.create_relationship("ALIAS", nodes[0], nodes[3])
    return g


class TestFreeze:
    def test_frozen_graph_rejects_every_mutator(self):
        g = seed_graph()
        node = next(iter(g._nodes.values()))
        rel = next(iter(g._rels.values()))
        g.freeze()
        assert g.frozen
        for call in (
            lambda: g.create_node(["Class"]),
            lambda: g.create_relationship("CALL", node.id, node.id),
            lambda: g.delete_node(node.id, detach=True),
            lambda: g.delete_relationship(rel.id),
            lambda: g.set_node_property(node.id, "NAME", "X"),
            lambda: g.set_relationship_property(rel.id, "PRUNED", False),
            lambda: g.create_index("Class", "IS_SINK"),
            lambda: g.create_relationship_index("WEIGHT"),
        ):
            with pytest.raises(GraphError, match="frozen"):
                call()

    def test_reads_still_work_on_frozen_graph(self):
        g = seed_graph()
        before = graph_fingerprint(g)
        g.freeze()
        assert graph_fingerprint(g) == before
        assert g.find_nodes("Class", NAME="C0")

    def test_fingerprint_digest_memoised_only_when_frozen(self):
        g = seed_graph()
        d1 = fingerprint_digest(g)
        assert not hasattr(g, "_fingerprint_digest")  # mutable: no memo
        g.freeze()
        d2 = fingerprint_digest(g)
        assert d2 == d1
        assert g._fingerprint_digest == d2  # frozen: memoised


class TestVersionChain:
    def test_base_is_frozen_and_versioned(self):
        vg = VersionedGraph(seed_graph())
        snap = vg.begin_snapshot()
        assert snap.frozen
        assert version_of(snap) == 0
        assert vg.version == 0

    def test_commit_publishes_new_version_pinned_readers_unaffected(self):
        vg = VersionedGraph(seed_graph())
        pinned = vg.begin_snapshot()
        before = graph_fingerprint(pinned)
        with vg.write_txn() as txn:
            txn.graph.create_node(["Class"], {"NAME": "NEW"})
            # not published yet: readers still see version 0
            assert vg.begin_snapshot() is pinned
        assert vg.version == 1
        current = vg.begin_snapshot()
        assert version_of(current) == 1
        assert current is not pinned
        assert graph_fingerprint(pinned) == before
        assert current.find_nodes("Class", NAME="NEW")
        assert not pinned.find_nodes("Class", NAME="NEW")

    def test_abort_discards_staging(self):
        vg = VersionedGraph(seed_graph())
        pinned = vg.begin_snapshot()
        with vg.write_txn() as txn:
            txn.graph.create_node(["Class"], {"NAME": "DROPPED"})
            txn.abort()
        assert vg.version == 0
        assert vg.begin_snapshot() is pinned

    def test_writer_exception_aborts(self):
        vg = VersionedGraph(seed_graph())
        pinned = vg.begin_snapshot()
        with pytest.raises(RuntimeError):
            with vg.write_txn() as txn:
                txn.graph.create_node(["Class"], {"NAME": "DROPPED"})
                raise RuntimeError("boom")
        assert vg.version == 0
        assert vg.begin_snapshot() is pinned

    def test_replace_commits_external_graph(self):
        vg = VersionedGraph(seed_graph())
        other = PropertyGraph()
        other.create_node(["Method"], {"NAME": "m"})
        with vg.write_txn() as txn:
            txn.replace(other)
        current = vg.begin_snapshot()
        assert version_of(current) == 1
        assert current is other
        assert current.frozen

    def test_commit_after_close_raises(self):
        vg = VersionedGraph(seed_graph())
        with vg.write_txn() as txn:
            pass
        with pytest.raises(GraphError, match="closed"):
            txn.commit()

    def test_version_of_plain_graph_is_none(self):
        assert version_of(PropertyGraph()) is None


class TestCopyOnWrite:
    def test_point_write_privatizes_o_touched_not_o_graph(self):
        g = seed_graph()
        n = g.node_count
        vg = VersionedGraph(g)
        with vg.write_txn() as txn:
            target = next(iter(txn.graph._nodes))
            txn.graph.set_node_property(target, "NAME", "RENAMED")
            stats = txn.cow_stats()
        assert stats["owned_nodes"] == 1
        assert stats["owned_rels"] == 0
        assert stats["owned_out_lists"] == 0
        assert stats["ops"] == 1
        committed = vg.begin_snapshot()
        # every untouched entity object is shared by identity
        shared = sum(
            1
            for nid, node in committed._nodes.items()
            if g._nodes[nid] is node
        )
        assert shared == n - 1
        assert all(
            g._rels[rid] is rel for rid, rel in committed._rels.items()
        )

    def test_base_entity_objects_never_mutated(self):
        g = seed_graph()
        vg = VersionedGraph(g)
        target = next(iter(g._nodes))
        old_name = g._nodes[target].properties["NAME"]
        with vg.write_txn() as txn:
            txn.graph.set_node_property(target, "NAME", "RENAMED")
        assert g._nodes[target].properties["NAME"] == old_name

    def test_create_index_on_existing_pair_shares_tables(self):
        g = seed_graph()
        vg = VersionedGraph(g)
        base_table = g.indexes._property_indexes[("Class", "NAME")]
        with vg.write_txn() as txn:
            txn.graph.create_index("Class", "NAME")  # already declared
            stats = txn.cow_stats()
        assert stats["owned_nodes"] == 0
        committed = vg.begin_snapshot()
        # the shared table object was not copied, let alone mutated
        assert (
            committed.indexes._property_indexes[("Class", "NAME")]
            is base_table
        )

    def test_renumber_unshares_everything(self):
        g = seed_graph()
        victim = next(iter(g._nodes))
        g.delete_node(victim, detach=True)  # leave holes in both id ranges
        vg = VersionedGraph(g)
        base = vg.begin_snapshot()
        ids = (list(base._nodes), list(base._rels))
        adjacency = (
            {nid: list(rels) for nid, rels in base._out.items()},
            {nid: list(rels) for nid, rels in base._in.items()},
        )
        digest = fingerprint_digest(base)
        with vg.write_txn() as txn:
            graph = txn.graph
            graph.renumber(
                list(reversed(graph._nodes)),
                list(reversed(graph._rels)),
                list(graph.indexes._property_indexes),
            )
            assert list(graph._nodes) == list(range(len(ids[0])))
            base_nodes = {id(node) for node in base._nodes.values()}
            base_rels = {id(rel) for rel in base._rels.values()}
            assert not base_nodes & {id(n) for n in graph._nodes.values()}
            assert not base_rels & {id(r) for r in graph._rels.values()}
            # a later point write must not reach the base either
            graph.set_node_property(0, "NAME", "X")
        assert (list(base._nodes), list(base._rels)) == ids
        assert all(node.id == nid for nid, node in base._nodes.items())
        assert all(rel.id == rid for rid, rel in base._rels.items())
        assert (base._out, base._in) == adjacency
        del base._fingerprint_digest  # recompute instead of the memo
        assert fingerprint_digest(base) == digest
        committed = vg.begin_snapshot()
        assert committed.node(0).properties["NAME"] == "X"
        assert not committed.check_integrity()

    def test_delete_node_in_overlay_keeps_base_intact(self):
        g = seed_graph()
        before = graph_fingerprint(g)
        vg = VersionedGraph(g)
        with vg.write_txn() as txn:
            victim = next(iter(txn.graph._nodes))
            txn.graph.delete_node(victim, detach=True)
        assert graph_fingerprint(g) == before
        committed = vg.begin_snapshot()
        assert victim not in committed._nodes
        assert_matches_rebuild(committed)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    scripts=st.lists(
        st.lists(op, min_size=1, max_size=8), min_size=1, max_size=4
    )
)
def test_cow_commits_equal_plain_graph_mutation(scripts):
    """Differential oracle: running edit scripts through MVCC write
    transactions yields, version by version, exactly the fingerprints
    of applying the same scripts to one plain graph — and each frozen
    version's derived structures survive an independent rebuild check.
    """
    def fresh():
        g = PropertyGraph()
        for label in ("Class", "Method"):
            for key in ("NAME", "IS_SINK"):
                g.create_index(label, key)
        g.create_relationship_index("PRUNED")
        return g

    plain = fresh()
    vg = VersionedGraph(fresh())
    pinned = {0: (vg.begin_snapshot(), graph_fingerprint(vg.begin_snapshot()))}
    for script in scripts:
        apply_ops(plain, script)
        with vg.write_txn() as txn:
            apply_ops(txn.graph, script)
        version = vg.version
        snap = vg.begin_snapshot()
        assert version_of(snap) == version
        assert graph_fingerprint(snap) == graph_fingerprint(plain)
        assert_matches_rebuild(snap)
        pinned[version] = (snap, graph_fingerprint(snap))
    # every previously pinned version still fingerprints identically:
    # no commit ever reached back into a published version
    for _, (snap, fp) in pinned.items():
        assert graph_fingerprint(snap) == fp
