"""Hypothesis battery over graph mutation: any interleaving of
create/delete node, create/delete relationship, property updates and
renumbers must leave every maintained secondary structure — label/property node
indexes, typed adjacency buckets, degree counters, relationship-type
counters, relationship-property presence indexes — equal to a
from-scratch recomputation over the primary ``_nodes``/``_rels`` maps.

This is the safety net under the incremental CPG patcher, which leans
on exactly these structures surviving long delete/rebuild sequences.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import GraphError
from repro.graphdb.graph import PropertyGraph

LABELS = ["Class", "Method"]
REL_TYPES = ["CALL", "ALIAS", "HAS"]
PROP_KEYS = ["NAME", "IS_SINK"]
PROP_VALUES = ["a", "b", 0, 1, True, False]

op = st.one_of(
    st.tuples(
        st.just("add_node"),
        st.sampled_from(LABELS),
        st.sampled_from(PROP_KEYS),
        st.sampled_from(PROP_VALUES),
    ),
    st.tuples(
        st.just("add_rel"),
        st.sampled_from(REL_TYPES),
        st.integers(min_value=0, max_value=999),
        st.integers(min_value=0, max_value=999),
        st.booleans(),  # carry a PRUNED property
    ),
    st.tuples(st.just("del_node"), st.integers(min_value=0, max_value=999)),
    st.tuples(st.just("del_rel"), st.integers(min_value=0, max_value=999)),
    st.tuples(
        st.just("set_node_prop"),
        st.integers(min_value=0, max_value=999),
        st.sampled_from(PROP_KEYS),
        st.sampled_from(PROP_VALUES),
    ),
    st.tuples(
        st.just("set_rel_prop"),
        st.integers(min_value=0, max_value=999),
        st.sampled_from(PROP_VALUES),
    ),
    st.tuples(st.just("renumber"), st.integers(min_value=0, max_value=999)),
)


def apply_ops(graph, ops):
    """Replay abstract ops against the graph; index-valued operands
    pick from the *live* entity lists so delete-heavy sequences keep
    finding targets."""
    for entry in ops:
        kind = entry[0]
        node_ids = sorted(graph._nodes)
        rel_ids = sorted(graph._rels)
        if kind == "add_node":
            _, label, key, value = entry
            graph.create_node([label], {key: value})
        elif kind == "add_rel" and node_ids:
            _, rel_type, i, j, pruned = entry
            props = {"PRUNED": True} if pruned else None
            graph.create_relationship(
                rel_type,
                node_ids[i % len(node_ids)],
                node_ids[j % len(node_ids)],
                props,
            )
        elif kind == "del_node" and node_ids:
            graph.delete_node(node_ids[entry[1] % len(node_ids)], detach=True)
        elif kind == "del_rel" and rel_ids:
            graph.delete_relationship(rel_ids[entry[1] % len(rel_ids)])
        elif kind == "set_node_prop" and node_ids:
            _, i, key, value = entry
            graph.set_node_property(node_ids[i % len(node_ids)], key, value)
        elif kind == "set_rel_prop" and rel_ids:
            graph.set_relationship_property(
                rel_ids[entry[1] % len(rel_ids)], "PRUNED", entry[1] % 2 == 0
            )
        elif kind == "renumber":
            # a seeded shuffle of every id and of the index declarations
            rng = random.Random(entry[1])
            index_order = list(graph.indexes._property_indexes)
            for order in (node_ids, rel_ids, index_order):
                rng.shuffle(order)
            graph.renumber(node_ids, rel_ids, index_order)


def assert_matches_rebuild(graph):
    """Independently recompute every derived structure and compare."""
    assert graph.check_integrity() == []

    # degree counters against a from-scratch count over _rels
    out_deg = {nid: 0 for nid in graph._nodes}
    in_deg = {nid: 0 for nid in graph._nodes}
    typed = {}
    type_counts = {}
    for rel in graph._rels.values():
        out_deg[rel.start_id] += 1
        in_deg[rel.end_id] += 1
        typed.setdefault((rel.start_id, rel.type, "out"), []).append(rel.id)
        typed.setdefault((rel.end_id, rel.type, "in"), []).append(rel.id)
        type_counts[rel.type] = type_counts.get(rel.type, 0) + 1
    for nid in graph._nodes:
        assert graph.out_degree(nid) == out_deg[nid]
        assert graph.in_degree(nid) == in_deg[nid]
        assert graph.degree(nid) == out_deg[nid] + in_deg[nid]
        for rel_type in REL_TYPES:
            assert [
                r.id for r in graph.out_relationships(nid, rel_type)
            ] == typed.get((nid, rel_type, "out"), [])
            assert [
                r.id for r in graph.in_relationships(nid, rel_type)
            ] == typed.get((nid, rel_type, "in"), [])
    assert graph.relationship_type_counts() == type_counts

    # node indexes against a from-scratch scan over _nodes
    for label in LABELS:
        expected_label = {
            n.id for n in graph._nodes.values() if n.has_label(label)
        }
        assert graph.indexes.nodes_with_label(label) == expected_label
        assert graph.indexes.label_count(label) == len(expected_label)
        for key in PROP_KEYS:
            for value in PROP_VALUES:
                # dict-key equality: the index buckets 0/False and
                # 1/True together, exactly like a plain dict would
                expected = {
                    n.id
                    for n in graph._nodes.values()
                    if n.has_label(label)
                    and key in n.properties
                    and n.properties[key] == value
                }
                got = graph.indexes.lookup(label, key, value) or set()
                assert got == expected, (label, key, value)

    # relationship property presence index
    expected_pruned = {
        r.id for r in graph._rels.values() if "PRUNED" in r.properties
    }
    assert {
        r.id for r in graph.relationships_with_property("PRUNED")
    } == expected_pruned


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=st.lists(op, min_size=0, max_size=60))
def test_interleaved_mutations_match_rebuild(ops):
    graph = PropertyGraph()
    for label in LABELS:
        for key in PROP_KEYS:
            graph.create_index(label, key)
    graph.create_relationship_index("PRUNED")
    apply_ops(graph, ops)
    assert_matches_rebuild(graph)


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(op, min_size=0, max_size=40),
    late=st.lists(op, min_size=0, max_size=20),
)
def test_indexes_declared_after_mutations_backfill(ops, late):
    """Declaring indexes mid-life must backfill to the same state as
    declaring them up front."""
    graph = PropertyGraph()
    apply_ops(graph, ops)
    for label in LABELS:
        for key in PROP_KEYS:
            graph.create_index(label, key)
    graph.create_relationship_index("PRUNED")
    apply_ops(graph, late)
    assert_matches_rebuild(graph)


def test_delete_node_refuses_attached_without_detach():
    graph = PropertyGraph()
    a = graph.create_node(["Class"], {"NAME": "a"})
    b = graph.create_node(["Class"], {"NAME": "b"})
    graph.create_relationship("CALL", a, b)
    try:
        graph.delete_node(a)
    except GraphError:
        pass
    else:  # pragma: no cover - the guard must hold
        raise AssertionError("delete_node without detach must refuse")
    assert graph.check_integrity() == []
    graph.delete_node(a, detach=True)
    assert graph.check_integrity() == []
    assert graph.relationship_count == 0
