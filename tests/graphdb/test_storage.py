"""Unit tests for graph persistence plus hypothesis round-trip."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.snapshot import graph_fingerprint
from repro.graphdb.storage import (
    graph_from_dict,
    graph_to_dict,
    load_graph,
    save_graph,
)
from tests.graphdb.legacy_loader import graph_from_dict_checked


def sample_graph():
    g = PropertyGraph()
    g.indexes.create_index("Method", "NAME")
    a = g.create_node(["Class"], {"NAME": "A"})
    m = g.create_node(["Method"], {"NAME": "run", "PP": [0, 1]})
    g.create_relationship("HAS", a, m, {"weight": 2})
    return g


class TestRoundTrip:
    def test_dict_round_trip(self):
        g = sample_graph()
        g2 = graph_from_dict(graph_to_dict(g))
        assert g2.node_count == g.node_count
        assert g2.relationship_count == g.relationship_count
        assert g2.find_node("Method", NAME="run")["PP"] == [0, 1]

    def test_indexes_preserved(self):
        g2 = graph_from_dict(graph_to_dict(sample_graph()))
        assert g2.indexes.has_index("Method", "NAME")

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "g.json")
        save_graph(sample_graph(), path)
        g2 = load_graph(path)
        assert g2.node_count == 2

    def test_gzip_round_trip(self, tmp_path):
        path = str(tmp_path / "g.json.gz")
        save_graph(sample_graph(), path)
        g2 = load_graph(path)
        assert g2.relationship_count == 1

    def test_missing_file(self):
        with pytest.raises(StorageError):
            load_graph("/no/such/graph.json")

    def test_bad_version(self):
        with pytest.raises(StorageError):
            graph_from_dict({"format_version": 99, "nodes": [], "relationships": []})

    def test_malformed_document(self):
        with pytest.raises(StorageError):
            graph_from_dict({"format_version": 1, "nodes": [{"id": 0}], "relationships": []})

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(StorageError):
            load_graph(str(path))


class TestBulkLoaderEquivalence:
    """graph_from_dict (trusted bulk path) vs the legacy validated
    loader: structurally identical graphs, including after deletions
    force an id remap."""

    def test_sample_graph(self):
        doc = graph_to_dict(sample_graph())
        assert graph_fingerprint(graph_from_dict(doc)) == graph_fingerprint(
            graph_from_dict_checked(doc)
        )

    def test_graph_with_deletions_remaps_identically(self):
        g = sample_graph()
        extra = g.create_node(["Class"], {"NAME": "Gone"})
        keep = g.create_node(["Method"], {"NAME": "keep"})
        g.create_relationship("HAS", extra, keep)
        g.delete_node(extra, detach=True)
        doc = graph_to_dict(g)
        bulk = graph_from_dict(doc)
        legacy = graph_from_dict_checked(doc)
        assert graph_fingerprint(bulk) == graph_fingerprint(legacy)
        # the remap is dense, unlike the pre-save graph
        assert sorted(n.id for n in bulk.nodes()) == list(range(bulk.node_count))

    def test_columnar_loader_matches_row_loader(self):
        """The v2 decode path (_bulk_load_columns) and the v1 path
        (_bulk_load) must produce interchangeable graphs."""
        from repro.graphdb.snapshot import decode_snapshot, encode_snapshot

        g = sample_graph()
        via_columns = decode_snapshot(encode_snapshot(g))
        via_rows = graph_from_dict(graph_to_dict(g))
        assert graph_fingerprint(via_columns) == graph_fingerprint(via_rows)
        assert graph_fingerprint(via_columns) == graph_fingerprint(g)

    def test_columnar_loader_requires_empty_graph(self):
        from repro.errors import GraphError
        from repro.graphdb.graph import _bulk_load_columns

        with pytest.raises(GraphError):
            _bulk_load_columns(sample_graph(), [], [], [], [], [], [], [], [])

    def test_malformed_documents_still_raise_storage_error(self):
        for doc in (
            {"format_version": 1, "nodes": [{"id": 0}], "relationships": []},
            {"format_version": 1, "nodes": []},
            {"format_version": 1, "nodes": [], "relationships": [{"id": 0}]},
            {
                "format_version": 1,
                "nodes": [],
                "relationships": [
                    {"id": 0, "type": "E", "start": 7, "end": 7},
                ],
            },
        ):
            with pytest.raises(StorageError):
                graph_from_dict(doc)


_props = st.dictionaries(
    st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True),
    st.one_of(
        st.integers(min_value=-1000, max_value=1000),
        st.text(max_size=8),
        st.booleans(),
        st.none(),
        st.floats(allow_nan=False),
        st.lists(st.integers(min_value=0, max_value=9), max_size=4),
        st.lists(st.text(max_size=5), max_size=3),
        # mixed lists and nested maps take the tagged fallback encoding
        st.lists(
            st.one_of(st.integers(min_value=0, max_value=9), st.text(max_size=3)),
            max_size=4,
        ),
        st.dictionaries(
            st.from_regex(r"[a-z]{1,4}", fullmatch=True),
            st.text(max_size=5),
            max_size=3,
        ),
    ),
    max_size=4,
)


@settings(max_examples=30, deadline=None)
@given(
    node_specs=st.lists(
        st.tuples(st.sampled_from(["A", "B", "C"]), _props), min_size=1, max_size=8
    ),
    edge_seed=st.data(),
)
def test_property_arbitrary_graph_round_trips(node_specs, edge_seed):
    """Any graph built from random nodes/edges survives serialisation:
    same node/rel counts, same labels, same property maps."""
    g = PropertyGraph()
    nodes = [g.create_node([label], props) for label, props in node_specs]
    n_edges = edge_seed.draw(st.integers(min_value=0, max_value=6))
    for _ in range(n_edges):
        a = edge_seed.draw(st.sampled_from(nodes))
        b = edge_seed.draw(st.sampled_from(nodes))
        g.create_relationship("E", a, b)
    g2 = graph_from_dict(graph_to_dict(g))
    assert g2.node_count == g.node_count
    assert g2.relationship_count == g.relationship_count
    assert g2.label_counts() == g.label_counts()
    def snapshot(graph):
        return sorted(
            (
                (sorted(n.labels), sorted(n.properties.items(), key=repr))
                for n in graph.nodes()
            ),
            key=repr,
        )

    assert snapshot(g) == snapshot(g2)


_multi_labels = st.sets(st.sampled_from(["A", "B", "C", "Method"]), min_size=1,
                        max_size=3)
_rel_types = st.sampled_from(["CALL", "ALIAS", "HAS"])


@pytest.mark.parametrize("format", ["json", "binary", "v3"])
@settings(max_examples=25, deadline=None)
@given(
    node_specs=st.lists(st.tuples(_multi_labels, _props), min_size=1, max_size=8),
    index_keys=st.sets(
        st.tuples(st.sampled_from(["A", "Method"]),
                  st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True)),
        max_size=2,
    ),
    edge_seed=st.data(),
)
def test_both_formats_round_trip_full_state(format, tmp_path_factory, node_specs,
                                            index_keys, edge_seed):
    """save -> load is fingerprint-identical for random graphs under
    both formats: labels x property shapes x declared indexes, plus
    adjacency buckets and relationship-type counts."""
    g = PropertyGraph()
    for label, key in sorted(index_keys):
        g.indexes.create_index(label, key)
    nodes = [g.create_node(labels, props) for labels, props in node_specs]
    n_edges = edge_seed.draw(st.integers(min_value=0, max_value=8))
    for _ in range(n_edges):
        a = edge_seed.draw(st.sampled_from(nodes))
        b = edge_seed.draw(st.sampled_from(nodes))
        rel_type = edge_seed.draw(_rel_types)
        props = edge_seed.draw(_props)
        g.create_relationship(rel_type, a, b, props)
    path = str(tmp_path_factory.mktemp("rt") / "g.snapshot")
    save_graph(g, path, format=format)
    assert graph_fingerprint(load_graph(path)) == graph_fingerprint(g)
