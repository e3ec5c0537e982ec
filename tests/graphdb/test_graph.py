"""Unit tests for the property-graph store."""

import pytest

from repro.errors import GraphError, NodeNotFoundError, RelationshipNotFoundError
from repro.graphdb.graph import PropertyGraph


@pytest.fixture
def graph():
    return PropertyGraph()


class TestNodes:
    def test_create_with_labels_and_properties(self, graph):
        n = graph.create_node(["Method"], {"NAME": "exec", "ARITY": 1})
        assert n.has_label("Method")
        assert n["NAME"] == "exec"
        assert n.get("MISSING") is None
        assert "ARITY" in n

    def test_ids_are_unique_and_dense(self, graph):
        ids = [graph.create_node().id for _ in range(5)]
        assert ids == sorted(set(ids))

    def test_missing_property_keyerror(self, graph):
        n = graph.create_node()
        with pytest.raises(KeyError):
            _ = n["nope"]

    def test_empty_label_rejected(self, graph):
        with pytest.raises(GraphError):
            graph.create_node([""])

    def test_unsupported_property_rejected(self, graph):
        with pytest.raises(GraphError):
            graph.create_node(properties={"bad": object()})

    def test_list_property_items_checked(self, graph):
        graph.create_node(properties={"ok": [1, "two", None]})
        with pytest.raises(GraphError):
            graph.create_node(properties={"bad": [object()]})

    def test_dict_property_allowed(self, graph):
        n = graph.create_node(properties={"ACTION": {"return": "init-param-1"}})
        assert n["ACTION"]["return"] == "init-param-1"

    def test_node_lookup(self, graph):
        n = graph.create_node()
        assert graph.node(n.id) is n
        with pytest.raises(NodeNotFoundError):
            graph.node(999)

    def test_set_property_reindexes(self, graph):
        graph.indexes.create_index("Method", "NAME")
        n = graph.create_node(["Method"], {"NAME": "a"})
        graph.set_node_property(n, "NAME", "b")
        assert graph.find_nodes("Method", NAME="b") == [n]
        assert graph.find_nodes("Method", NAME="a") == []


class TestRelationships:
    def test_create_and_adjacency(self, graph):
        a = graph.create_node()
        b = graph.create_node()
        r = graph.create_relationship("CALL", a, b, {"PP": [0, 1]})
        assert graph.out_relationships(a) == [r]
        assert graph.in_relationships(b) == [r]
        assert r["PP"] == [0, 1]

    def test_type_filter(self, graph):
        a, b = graph.create_node(), graph.create_node()
        graph.create_relationship("CALL", a, b)
        alias = graph.create_relationship("ALIAS", a, b)
        assert graph.out_relationships(a, "ALIAS") == [alias]

    def test_other_id(self, graph):
        a, b = graph.create_node(), graph.create_node()
        r = graph.create_relationship("CALL", a, b)
        assert r.other_id(a.id) == b.id
        assert r.other_id(b.id) == a.id
        with pytest.raises(GraphError):
            r.other_id(12345)

    def test_missing_endpoint_rejected(self, graph):
        a = graph.create_node()
        with pytest.raises(NodeNotFoundError):
            graph.create_relationship("CALL", a, 999)

    def test_empty_type_rejected(self, graph):
        a, b = graph.create_node(), graph.create_node()
        with pytest.raises(GraphError):
            graph.create_relationship("", a, b)

    def test_self_loop_allowed(self, graph):
        a = graph.create_node()
        r = graph.create_relationship("CALL", a, a)
        assert r.other_id(a.id) == a.id
        assert graph.degree(a) == 2


class TestTypedAdjacencyIndex:
    def test_typed_lookup_preserves_insertion_order(self, graph):
        """The per-type buckets must yield exactly what a filtered scan
        of the flat adjacency list yields, in the same order."""
        a = graph.create_node()
        targets = [graph.create_node() for _ in range(6)]
        rels = []
        for i, t in enumerate(targets):
            rels.append(
                graph.create_relationship("CALL" if i % 2 else "ALIAS", a, t)
            )
        calls = graph.out_relationships(a, "CALL")
        assert calls == [r for r in rels if r.type == "CALL"]
        assert [r.id for r in calls] == sorted(r.id for r in calls)
        assert graph.out_relationships(a) == rels

    def test_typed_lookup_unknown_type_empty(self, graph):
        a, b = graph.create_node(), graph.create_node()
        graph.create_relationship("CALL", a, b)
        assert graph.out_relationships(a, "EXTEND") == []
        assert graph.in_relationships(b, "EXTEND") == []

    def test_degree_helpers(self, graph):
        a, b, c = (graph.create_node() for _ in range(3))
        graph.create_relationship("CALL", a, b)
        graph.create_relationship("CALL", c, b)
        graph.create_relationship("ALIAS", a, b)
        assert graph.out_degree(a) == 2
        assert graph.out_degree(a, "CALL") == 1
        assert graph.in_degree(b) == 3
        assert graph.in_degree(b, "CALL") == 2
        assert graph.in_degree(b, "EXTEND") == 0

    def test_delete_relationship_updates_buckets(self, graph):
        a, b = graph.create_node(), graph.create_node()
        r1 = graph.create_relationship("CALL", a, b)
        r2 = graph.create_relationship("CALL", a, b)
        graph.delete_relationship(r1)
        assert graph.out_relationships(a, "CALL") == [r2]
        assert graph.in_relationships(b, "CALL") == [r2]
        assert graph.in_degree(b, "CALL") == 1
        graph.delete_relationship(r2)
        assert graph.out_relationships(a, "CALL") == []

    def test_detach_delete_updates_other_endpoints_buckets(self, graph):
        a, b, c = (graph.create_node() for _ in range(3))
        graph.create_relationship("CALL", a, b)
        graph.create_relationship("CALL", c, b)
        graph.delete_node(b, detach=True)
        assert graph.out_relationships(a, "CALL") == []
        assert graph.out_degree(c, "CALL") == 0


class TestDeletion:
    def test_delete_relationship(self, graph):
        a, b = graph.create_node(), graph.create_node()
        r = graph.create_relationship("CALL", a, b)
        graph.delete_relationship(r)
        assert graph.out_relationships(a) == []
        with pytest.raises(RelationshipNotFoundError):
            graph.relationship(r.id)

    def test_delete_node_with_rels_requires_detach(self, graph):
        a, b = graph.create_node(), graph.create_node()
        graph.create_relationship("CALL", a, b)
        with pytest.raises(GraphError):
            graph.delete_node(a)
        graph.delete_node(a, detach=True)
        assert not graph.has_node(a.id)
        assert graph.relationship_count == 0

    def test_delete_removes_from_indexes(self, graph):
        n = graph.create_node(["Method"])
        graph.delete_node(n)
        assert list(graph.nodes("Method")) == []


class TestFind:
    def test_find_by_label(self, graph):
        m = graph.create_node(["Method"])
        graph.create_node(["Class"])
        assert list(graph.nodes("Method")) == [m]

    def test_find_by_property_without_index(self, graph):
        graph.create_node(["M"], {"NAME": "a"})
        hit = graph.create_node(["M"], {"NAME": "b"})
        assert graph.find_nodes("M", NAME="b") == [hit]

    def test_find_with_index(self, graph):
        graph.indexes.create_index("M", "NAME")
        hit = graph.create_node(["M"], {"NAME": "x"})
        graph.create_node(["M"], {"NAME": "y"})
        assert graph.find_nodes("M", NAME="x") == [hit]

    def test_find_node_single(self, graph):
        assert graph.find_node("M", NAME="zzz") is None
        hit = graph.create_node(["M"], {"NAME": "zzz"})
        assert graph.find_node("M", NAME="zzz") == hit

    def test_find_multi_property(self, graph):
        graph.indexes.create_index("M", "NAME")
        graph.create_node(["M"], {"NAME": "f", "ARITY": 1})
        hit = graph.create_node(["M"], {"NAME": "f", "ARITY": 2})
        assert graph.find_nodes("M", NAME="f", ARITY=2) == [hit]


class TestStats:
    def test_counts(self, graph):
        a = graph.create_node(["Class"])
        b = graph.create_node(["Method"])
        graph.create_relationship("HAS", a, b)
        assert graph.node_count == 2
        assert graph.relationship_count == 1
        assert graph.label_counts() == {"Class": 1, "Method": 1}
        assert graph.relationship_type_counts() == {"HAS": 1}

    def test_relationship_type_counts_track_deletes(self, graph):
        a = graph.create_node(["M"])
        b = graph.create_node(["M"])
        r1 = graph.create_relationship("CALL", a, b)
        graph.create_relationship("CALL", b, a)
        graph.create_relationship("ALIAS", a, b)
        assert graph.relationship_type_counts() == {"CALL": 2, "ALIAS": 1}
        graph.delete_relationship(r1)
        assert graph.relationship_type_counts() == {"CALL": 1, "ALIAS": 1}


class TestInternedStorage:
    """The compact in-memory representation: pooled label frozensets
    and interned property keys (construction-time and bulk-load-time
    deduplication share the same pool)."""

    def test_labelsets_pooled_across_nodes(self, graph):
        a = graph.create_node(["Method", "Phantom"])
        b = graph.create_node(["Phantom", "Method"])  # order-insensitive
        c = graph.create_node(["Method"])
        assert a.labels is b.labels
        assert a.labels is not c.labels
        assert a.labels == {"Method", "Phantom"}

    def test_pool_survives_mixed_input_types(self, graph):
        a = graph.create_node(("Method",))
        b = graph.create_node(frozenset({"Method"}))
        c = graph.create_node(["Method"])
        assert a.labels is b.labels is c.labels

    def test_property_keys_interned(self, graph):
        import sys

        key = "SIG" + "NATURE"  # avoid a compile-time constant
        node = graph.create_node(["Method"], {key: "m()"})
        (stored,) = node.properties
        assert stored is sys.intern("SIGNATURE")

    def test_set_node_property_interns_and_pools(self, graph):
        import sys

        node = graph.create_node(["Method"])
        graph.set_node_property(node, "NA" + "ME", "x")
        (stored,) = node.properties
        assert stored is sys.intern("NAME")

    def test_pooling_does_not_leak_between_graphs(self):
        g1, g2 = PropertyGraph(), PropertyGraph()
        a = g1.create_node(["Method"])
        b = g2.create_node(["Method"])
        assert a.labels == b.labels
        assert g1._labelset_pool is not g2._labelset_pool


class TestRelationshipPropertyIndex:
    """Presence index over relationship properties (serves the RTA_DEAD
    sparse-annotation scans without touching unannotated edges)."""

    def _edges(self, graph, n=4, rel_type="CALL"):
        nodes = [graph.create_node() for _ in range(n + 1)]
        return [
            graph.create_relationship(rel_type, nodes[i], nodes[i + 1])
            for i in range(n)
        ]

    def test_index_serves_annotated_edges_in_id_order(self, graph):
        rels = self._edges(graph)
        graph.create_relationship_index("DEAD")
        graph.set_relationship_property(rels[2], "DEAD", True)
        graph.set_relationship_property(rels[0], "DEAD", True)
        got = graph.relationships_with_property("DEAD")
        assert [r.id for r in got] == sorted([rels[0].id, rels[2].id])

    def test_late_index_declaration_backfills(self, graph):
        rels = self._edges(graph)
        # property set before the index exists must still be found
        graph.set_relationship_property(rels[1], "DEAD", True)
        graph.create_relationship_index("DEAD")
        assert [r.id for r in graph.relationships_with_property("DEAD")] == [
            rels[1].id
        ]

    def test_create_is_idempotent(self, graph):
        rels = self._edges(graph)
        graph.create_relationship_index("DEAD")
        graph.set_relationship_property(rels[0], "DEAD", True)
        graph.create_relationship_index("DEAD")
        assert len(graph.relationships_with_property("DEAD")) == 1

    def test_rel_type_filter(self, graph):
        call = self._edges(graph, n=1)[0]
        alias = self._edges(graph, n=1, rel_type="ALIAS")[0]
        graph.create_relationship_index("DEAD")
        graph.set_relationship_property(call, "DEAD", True)
        graph.set_relationship_property(alias, "DEAD", True)
        got = graph.relationships_with_property("DEAD", rel_type="ALIAS")
        assert [r.id for r in got] == [alias.id]

    def test_delete_relationship_drops_index_entry(self, graph):
        rels = self._edges(graph)
        graph.create_relationship_index("DEAD")
        graph.set_relationship_property(rels[0], "DEAD", True)
        graph.set_relationship_property(rels[1], "DEAD", True)
        graph.delete_relationship(rels[0])
        assert [r.id for r in graph.relationships_with_property("DEAD")] == [
            rels[1].id
        ]

    def test_unindexed_key_still_answers_by_scan(self, graph):
        rels = self._edges(graph)
        graph.set_relationship_property(rels[3], "DEAD", True)
        assert [r.id for r in graph.relationships_with_property("DEAD")] == [
            rels[3].id
        ]


class TestRenumber:
    """``renumber`` reassigns dense ids in a given order and rebuilds
    every derived structure as if the entities were created afresh in
    that order."""

    @staticmethod
    def _holey(graph):
        graph.create_index("Class", "NAME")
        graph.create_index("Class", "SINK")
        graph.create_relationship_index("DEAD")
        nodes = [
            graph.create_node(["Class"], {"NAME": f"C{i}", "SINK": i % 2 == 0})
            for i in range(6)
        ]
        for i in range(5):
            props = {"DEAD": True} if i % 2 else None
            graph.create_relationship("CALL", nodes[i], nodes[i + 1], props)
        graph.create_relationship("ALIAS", nodes[5], nodes[0])
        graph.delete_node(nodes[2], detach=True)
        return graph

    @staticmethod
    def _afresh(graph, node_order, rel_order, index_order):
        """The same entities created in the new order on a new graph."""
        fresh = PropertyGraph()
        for label, key in index_order:
            fresh.create_index(label, key)
        for key in graph._rel_prop_indexes:
            fresh.create_relationship_index(key)
        new_id = {}
        for old in node_order:
            node = graph.node(old)
            new_id[old] = fresh.create_node(node.labels, node.properties).id
        for old in rel_order:
            rel = graph.relationship(old)
            fresh.create_relationship(
                rel.type, new_id[rel.start_id], new_id[rel.end_id], rel.properties
            )
        return fresh

    def test_equals_creating_the_entities_in_the_new_order(self, graph):
        from repro.graphdb.snapshot import graph_fingerprint

        self._holey(graph)
        node_order = list(reversed(graph._nodes))
        rel_order = sorted(graph._rels, key=lambda r: -r)
        index_order = [("Class", "SINK"), ("Class", "NAME")]
        want = self._afresh(graph, node_order, rel_order, index_order)
        graph.renumber(node_order, rel_order, index_order)
        assert graph_fingerprint(graph) == graph_fingerprint(want)
        assert list(graph._nodes) == list(range(len(node_order)))
        assert list(graph._rels) == list(range(len(rel_order)))
        assert graph.indexes.indexes() == want.indexes.indexes()
        assert list(graph.indexes._property_indexes) == index_order
        assert graph._out == want._out and graph._in_by_type == want._in_by_type
        assert graph._rel_prop_indexes == want._rel_prop_indexes
        assert graph._next_node_id == len(node_order)
        assert not graph.check_integrity()

    @pytest.mark.parametrize(
        "bad",
        ["duplicate", "missing", "short", "bad-index"],
    )
    def test_refuses_non_permutations_untouched(self, graph, bad):
        from repro.graphdb.snapshot import graph_fingerprint

        self._holey(graph)
        node_order = list(graph._nodes)
        rel_order = list(graph._rels)
        index_order = list(graph.indexes._property_indexes)
        if bad == "duplicate":
            node_order[1] = node_order[0]
        elif bad == "missing":
            rel_order[0] = max(rel_order) + 1
        elif bad == "short":
            node_order.pop()
        else:
            index_order[0] = ("Method", "NAME")
        before = graph_fingerprint(graph)
        with pytest.raises(GraphError, match="not a permutation"):
            graph.renumber(node_order, rel_order, index_order)
        assert graph_fingerprint(graph) == before
        assert sorted(graph._nodes) == [0, 1, 3, 4, 5]

    def test_frozen_graph_refuses(self, graph):
        self._holey(graph)
        graph.freeze()
        with pytest.raises(GraphError, match="frozen"):
            graph.renumber(list(graph._nodes), list(graph._rels), [])
