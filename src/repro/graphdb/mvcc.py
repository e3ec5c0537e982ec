"""Copy-on-write MVCC over :class:`PropertyGraph`.

``VersionedGraph`` keeps a chain of *frozen* graph versions and a
single writer:

* :meth:`~VersionedGraph.begin_snapshot` returns the last committed
  version — an immutable :class:`PropertyGraph` the reader keeps
  using for as long as it likes.  Beginning a snapshot is one atomic
  attribute read (no lock, no copying), so readers are wait-free: a
  writer can never delay them and they can never observe a partial
  commit, only the exact version they pinned.
* :meth:`~VersionedGraph.write_txn` hands the (serialized) writer a
  :class:`_CowPropertyGraph` staging overlay that structure-shares
  everything with the base version and privatizes only the buckets it
  actually touches — the write cost is O(changed buckets), not
  O(graph).  ``commit()`` freezes the overlay and atomically publishes
  it as the next version; ``abort()`` just drops it.

Durability is optional: attach a
:class:`~repro.graphdb.wal.WriteAheadLog` and every commit is
journalled (or compacted into a fresh base snapshot) *before* it is
published, so :meth:`VersionedGraph.open_durable` recovers the last
committed version after a crash.

Multi-shard graphs are deliberately not handled here, but nothing
forecloses them: a shard would be one ``VersionedGraph`` + WAL pair,
and a cross-shard coordinator only needs the already-exposed
commit/abort split to drive a two-phase protocol.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import GraphError
from repro.graphdb.graph import Node, PropertyGraph, Relationship
from repro.graphdb.index import IndexManager, _index_key
from repro.graphdb.wal import WriteAheadLog, order_runs

__all__ = ["VersionedGraph", "WriteTransaction", "version_of"]


def version_of(graph: PropertyGraph) -> Optional[int]:
    """The MVCC version id a snapshot is pinned to (None when the
    graph never went through a :class:`VersionedGraph`)."""
    return getattr(graph, "_mvcc_version", None)


# ---------------------------------------------------------------------------
# copy-on-write staging structures
# ---------------------------------------------------------------------------


class _CowIndexManager(IndexManager):
    """IndexManager overlay: top-level tables are copied up front
    (pointer copies), inner sets only when first mutated."""

    def __init__(self, base: IndexManager) -> None:
        self._by_label = dict(base._by_label)
        self._property_indexes = dict(base._property_indexes)
        self._owned_labels: Set[str] = set()
        #: (label, key) -> privatized value-keys of that table; presence
        #: of the pair means the table dict itself is already private
        self._owned_entries: Dict[Tuple[str, str], Set[Any]] = {}

    def _own_label(self, label: str) -> None:
        if label not in self._owned_labels:
            bucket = self._by_label.get(label)
            if bucket is not None:
                self._by_label[label] = set(bucket)
            self._owned_labels.add(label)

    def _own_entry(self, pair: Tuple[str, str], ikey: Any) -> None:
        owned = self._owned_entries.get(pair)
        if owned is None:
            self._property_indexes[pair] = dict(self._property_indexes[pair])
            owned = self._owned_entries[pair] = set()
        if ikey not in owned:
            table = self._property_indexes[pair]
            entry = table.get(ikey)
            if entry is not None:
                table[ikey] = set(entry)
            owned.add(ikey)

    def _own_for(self, node: "Node") -> None:
        for label in node.labels:
            self._own_label(label)
            for pair in self._property_indexes:
                if pair[0] == label and pair[1] in node.properties:
                    self._own_entry(pair, _index_key(node.properties[pair[1]]))

    def index_node(self, node: "Node") -> None:
        self._own_for(node)
        super().index_node(node)

    def unindex_node(self, node: "Node") -> None:
        self._own_for(node)
        super().unindex_node(node)

    def create_index(self, label, key, nodes=()) -> None:
        if not label or not key:
            raise GraphError("index needs a label and a property key")
        if (label, key) in self._property_indexes:
            return  # complete already; never touch the shared table
        super().create_index(label, key, nodes)
        self._owned_entries.setdefault((label, key), set())


class _CowPropertyGraph(PropertyGraph):
    """The writer's staging overlay.

    Top-level containers are pointer-copied from the frozen base (a
    few dict copies, independent of graph size beyond that); every
    mutator privatizes exactly the inner buckets and entity objects it
    is about to touch, then delegates to the inherited implementation
    so the maintenance invariants live in one place.  Every mutator,
    :meth:`renumber` included, also journals itself as one WAL-ready op.
    """

    def __init__(self, base: PropertyGraph) -> None:
        self._nodes = dict(base._nodes)
        self._rels = dict(base._rels)
        self._out = dict(base._out)
        self._in = dict(base._in)
        self._out_by_type = dict(base._out_by_type)
        self._in_by_type = dict(base._in_by_type)
        self._rel_type_counts = dict(base._rel_type_counts)
        self._labelset_pool = dict(base._labelset_pool)
        self._rel_prop_indexes = dict(base._rel_prop_indexes)
        self._next_node_id = base._next_node_id
        self._next_rel_id = base._next_rel_id
        self.indexes = _CowIndexManager(base.indexes)
        self._ops: List[Tuple[Any, ...]] = []
        self._owned_nodes: Set[int] = set()
        self._owned_rels: Set[int] = set()
        self._owned_out: Set[int] = set()
        self._owned_in: Set[int] = set()
        self._owned_out_buckets: Dict[int, Set[str]] = {}
        self._owned_in_buckets: Dict[int, Set[str]] = {}
        self._owned_rel_prop: Set[str] = set()

    # -- privatization helpers ------------------------------------------

    def _own_node(self, node_id: int) -> None:
        if node_id not in self._owned_nodes:
            base = self._nodes[node_id]
            clone = Node.__new__(Node)
            clone.id = base.id
            clone.labels = base.labels
            clone.properties = dict(base.properties)
            self._nodes[node_id] = clone
            self._owned_nodes.add(node_id)

    def _own_rel(self, rel_id: int) -> None:
        if rel_id not in self._owned_rels:
            base = self._rels[rel_id]
            clone = Relationship.__new__(Relationship)
            clone.id = base.id
            clone.type = base.type
            clone.start_id = base.start_id
            clone.end_id = base.end_id
            clone.properties = dict(base.properties)
            self._rels[rel_id] = clone
            self._owned_rels.add(rel_id)

    def _own_out_list(self, node_id: int) -> None:
        if node_id not in self._owned_out:
            self._out[node_id] = list(self._out[node_id])
            self._owned_out.add(node_id)

    def _own_in_list(self, node_id: int) -> None:
        if node_id not in self._owned_in:
            self._in[node_id] = list(self._in[node_id])
            self._owned_in.add(node_id)

    def _own_out_bucket(self, node_id: int, rel_type: str) -> None:
        owned = self._owned_out_buckets.get(node_id)
        if owned is None:
            self._out_by_type[node_id] = dict(self._out_by_type[node_id])
            owned = self._owned_out_buckets[node_id] = set()
        if rel_type not in owned:
            buckets = self._out_by_type[node_id]
            bucket = buckets.get(rel_type)
            if bucket is not None:
                buckets[rel_type] = list(bucket)
            owned.add(rel_type)

    def _own_in_bucket(self, node_id: int, rel_type: str) -> None:
        owned = self._owned_in_buckets.get(node_id)
        if owned is None:
            self._in_by_type[node_id] = dict(self._in_by_type[node_id])
            owned = self._owned_in_buckets[node_id] = set()
        if rel_type not in owned:
            buckets = self._in_by_type[node_id]
            bucket = buckets.get(rel_type)
            if bucket is not None:
                buckets[rel_type] = list(bucket)
            owned.add(rel_type)

    def _own_rel_prop_index(self, key: str) -> None:
        if key not in self._owned_rel_prop:
            self._rel_prop_indexes[key] = set(self._rel_prop_indexes[key])
            self._owned_rel_prop.add(key)

    def cow_stats(self) -> Dict[str, int]:
        """How much this transaction actually privatized — the
        benchmark's O(changed buckets) evidence."""
        return {
            "owned_nodes": len(self._owned_nodes),
            "owned_rels": len(self._owned_rels),
            "owned_out_lists": len(self._owned_out),
            "owned_in_lists": len(self._owned_in),
            "owned_out_buckets": sum(
                len(s) for s in self._owned_out_buckets.values()
            ),
            "owned_in_buckets": sum(
                len(s) for s in self._owned_in_buckets.values()
            ),
            "ops": len(self._ops),
        }

    # -- journalled mutator overrides -----------------------------------

    def create_node(self, labels=(), properties=None) -> Node:
        node = super().create_node(labels, properties)
        self._owned_nodes.add(node.id)
        self._owned_out.add(node.id)
        self._owned_in.add(node.id)
        self._owned_out_buckets.setdefault(node.id, set())
        self._owned_in_buckets.setdefault(node.id, set())
        self._ops.append(
            ("n+", node.id, sorted(node.labels), dict(node.properties))
        )
        return node

    def create_relationship(
        self, rel_type, start, end, properties=None
    ) -> Relationship:
        start_id = start.id if isinstance(start, Node) else start
        end_id = end.id if isinstance(end, Node) else end
        if start_id in self._nodes:
            self._own_out_list(start_id)
            self._own_out_bucket(start_id, rel_type)
        if end_id in self._nodes:
            self._own_in_list(end_id)
            self._own_in_bucket(end_id, rel_type)
        if properties:
            for key in self._rel_prop_indexes:
                if key in properties:
                    self._own_rel_prop_index(key)
        rel = super().create_relationship(rel_type, start_id, end_id, properties)
        self._owned_rels.add(rel.id)
        self._ops.append(
            ("r+", rel.id, rel.type, rel.start_id, rel.end_id,
             dict(rel.properties))
        )
        return rel

    def delete_relationship(self, rel) -> None:
        rel_id = rel.id if isinstance(rel, Relationship) else rel
        found = self._rels.get(rel_id)
        if found is not None:
            self._own_out_list(found.start_id)
            self._own_in_list(found.end_id)
            self._own_out_bucket(found.start_id, found.type)
            self._own_in_bucket(found.end_id, found.type)
            for key, ids in self._rel_prop_indexes.items():
                if rel_id in ids:
                    self._own_rel_prop_index(key)
        super().delete_relationship(rel_id)
        self._owned_rels.discard(rel_id)
        self._ops.append(("r-", rel_id))

    def delete_node(self, node, detach: bool = False) -> None:
        node_id = node.id if isinstance(node, Node) else node
        super().delete_node(node_id, detach)  # rel deletes journal themselves
        self._owned_nodes.discard(node_id)
        self._owned_out.discard(node_id)
        self._owned_in.discard(node_id)
        self._owned_out_buckets.pop(node_id, None)
        self._owned_in_buckets.pop(node_id, None)
        self._ops.append(("n-", node_id))

    def set_node_property(self, node, key, value) -> None:
        node_id = node.id if isinstance(node, Node) else node
        if node_id in self._nodes:
            self._own_node(node_id)
        super().set_node_property(node_id, key, value)
        self._ops.append(
            ("np", node_id, key, self._nodes[node_id].properties[key])
        )

    def set_relationship_property(self, rel, key, value) -> None:
        rel_id = rel.id if isinstance(rel, Relationship) else rel
        if rel_id in self._rels:
            self._own_rel(rel_id)
            if key in self._rel_prop_indexes:
                self._own_rel_prop_index(key)
        super().set_relationship_property(rel_id, key, value)
        self._ops.append(
            ("rp", rel_id, key, self._rels[rel_id].properties[key])
        )

    def create_index(self, label, key) -> None:
        super().create_index(label, key)
        self._ops.append(("ix", label, key))

    def create_relationship_index(self, key) -> None:
        existed = key in self._rel_prop_indexes
        super().create_relationship_index(key)
        if not existed:
            self._owned_rel_prop.add(key)
        self._ops.append(("rix", key))

    def renumber(self, node_order, rel_order, index_order) -> None:
        # the renumber rewrites the ids of every entity in place, so
        # clone each still-shared one first: the frozen base version
        # readers hold keeps its ids.  Everything else the base
        # primitive rebuilds is a fresh container, so afterwards the
        # whole overlay is private and every ownership claim (stale
        # ids included) holds
        for node_id in self._nodes:
            self._own_node(node_id)
        for rel_id in self._rels:
            self._own_rel(rel_id)
        super().renumber(node_order, rel_order, index_order)
        self._ops.append(
            ("rn", order_runs(node_order), order_runs(rel_order),
             [list(pair) for pair in index_order])
        )


# ---------------------------------------------------------------------------
# transactions and the version chain
# ---------------------------------------------------------------------------


class WriteTransaction:
    """Handle for one write transaction; obtained from
    :meth:`VersionedGraph.write_txn`."""

    def __init__(self, owner: "VersionedGraph", graph: _CowPropertyGraph):
        self._owner = owner
        self.graph: PropertyGraph = graph
        self._done = False
        self._aborted = False
        self._checkpoint = False

    @property
    def closed(self) -> bool:
        return self._done

    @property
    def aborted(self) -> bool:
        return self._aborted

    def replace(self, graph: PropertyGraph) -> None:
        """Commit an externally built graph as the next version (the
        analyzer's cold-rebuild fallback, the ``serve --live``
        refresh).  It has no op journal against the prior version, so a
        WAL-backed commit compacts instead of appending."""
        if self._done:
            raise GraphError("transaction already closed")
        self.graph = graph
        self._checkpoint = True

    def cow_stats(self) -> Dict[str, int]:
        graph = self.graph
        if isinstance(graph, _CowPropertyGraph):
            return graph.cow_stats()
        return {}

    def commit(self) -> int:
        return self._owner._commit(self)

    def abort(self) -> None:
        self._owner._abort(self)


class VersionedGraph:
    """A chain of immutable graph versions with one serialized writer.

    ``compact_every=N`` folds the WAL into a fresh base snapshot every
    N commits (0 = only on an explicit :meth:`compact` or a
    :meth:`WriteTransaction.replace` commit, which has no op journal).
    """

    def __init__(
        self,
        graph: Optional[PropertyGraph] = None,
        *,
        wal: Optional[WriteAheadLog] = None,
        version: int = 0,
        compact_every: int = 0,
    ) -> None:
        base = graph if graph is not None else PropertyGraph()
        base.freeze()
        base._mvcc_version = version
        self._current = base
        self._version = version
        self._wal = wal
        self._compact_every = compact_every
        self._txns_since_compact = 0
        self._write_lock = threading.RLock()

    @classmethod
    def open_durable(
        cls,
        wal_path: str,
        *,
        fsync: bool = True,
        compact_every: int = 64,
    ) -> "VersionedGraph":
        """Open (or initialise) a WAL-backed graph at ``wal_path``,
        recovering to the last durable commit when the log exists."""
        if os.path.exists(wal_path):
            wal = WriteAheadLog.attach(wal_path, fsync=fsync)
            replayed = wal.replay(recover=True)
            return cls(
                replayed.graph,
                wal=wal,
                version=replayed.version,
                compact_every=compact_every,
            )
        directory = os.path.dirname(wal_path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        graph = PropertyGraph()
        wal = WriteAheadLog.create(wal_path, graph, 0, fsync=fsync)
        return cls(graph, wal=wal, version=0, compact_every=compact_every)

    # -- reading --------------------------------------------------------

    @property
    def version(self) -> int:
        return self._version

    @property
    def wal(self) -> Optional[WriteAheadLog]:
        return self._wal

    def begin_snapshot(self) -> PropertyGraph:
        """Pin the last committed version.

        One attribute read — atomic in CPython, no lock taken, never
        blocked by the writer.  The returned graph is frozen; it stays
        valid (and unchanged) for as long as the caller holds it,
        whatever the writer commits afterwards.
        """
        return self._current

    # -- writing --------------------------------------------------------

    @contextmanager
    def write_txn(self) -> Iterator[WriteTransaction]:
        """The single-writer staging overlay as a context manager:
        commits on clean exit (unless already committed/aborted),
        aborts on exception.  Writers are serialized against each
        other; readers are unaffected either way."""
        with self._write_lock:
            txn = WriteTransaction(self, _CowPropertyGraph(self._current))
            try:
                yield txn
            except BaseException:
                if not txn.closed:
                    txn.abort()
                raise
            if not txn.closed:
                txn.commit()

    def _commit(self, txn: WriteTransaction) -> int:
        with self._write_lock:
            if txn.closed:
                raise GraphError("transaction already closed")
            graph = txn.graph
            new_version = self._version + 1
            graph.freeze()
            if self._wal is not None:
                due = (
                    self._compact_every
                    and self._txns_since_compact + 1 >= self._compact_every
                )
                if not txn._checkpoint and not due:
                    self._wal.append_txn(new_version, graph._ops)
                    self._txns_since_compact += 1
                else:
                    self._wal.compact(graph, new_version)
                    self._txns_since_compact = 0
            graph._mvcc_version = new_version
            # the publication point: one atomic reference store — after
            # this line every new begin_snapshot() sees the new version
            self._current = graph
            self._version = new_version
            txn._done = True
            return new_version

    def _abort(self, txn: WriteTransaction) -> None:
        txn._done = True
        txn._aborted = True

    def compact(self) -> None:
        """Fold the WAL into a fresh base snapshot now."""
        with self._write_lock:
            if self._wal is None:
                raise GraphError("no write-ahead log attached")
            self._wal.compact(self._current, self._version)
            self._txns_since_compact = 0

    def stats(self) -> Dict[str, Any]:
        current = self._current
        return {
            "version": self._version,
            "nodes": current.node_count,
            "relationships": current.relationship_count,
            "wal": self._wal.path if self._wal is not None else None,
        }
