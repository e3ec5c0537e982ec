"""Write-ahead-log battery: durable round trips, sparse-id base
snapshots, compaction, and the corruption matrix (torn tails recover
cleanly and fingerprint-identically; mid-log corruption is a
structured refusal) — same contract style as ``test_snapshot_v3.py``.
"""

import os
import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import StorageError
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.mvcc import VersionedGraph
from repro.graphdb.snapshot import fingerprint_digest, graph_fingerprint
from repro.graphdb.wal import (
    WAL_MAGIC,
    WriteAheadLog,
    apply_ops,
)

from tests.graphdb.test_mutation_properties import (
    apply_ops as apply_script,
    op as mutation_op,
)

_FRAME = struct.Struct("<BIQ")
_HEADER_SIZE = struct.calcsize("<8sHH")


def build_graph(with_holes=False):
    g = PropertyGraph()
    g.create_index("Class", "NAME")
    g.create_relationship_index("PRUNED")
    nodes = [g.create_node(["Class"], {"NAME": f"C{i}"}) for i in range(5)]
    rels = [
        g.create_relationship(
            "CALL", nodes[i], nodes[i + 1],
            {"PRUNED": True} if i % 2 else None,
        )
        for i in range(4)
    ]
    if with_holes:
        g.delete_relationship(rels[1])
        g.delete_node(nodes[2], detach=True)
    return g


def durable(tmp_path, **kwargs):
    return VersionedGraph.open_durable(
        str(tmp_path / "graph.wal"), fsync=False, **kwargs
    )


def mutate_twice(vg):
    """Two committed transactions covering every op kind."""
    with vg.write_txn() as txn:
        g = txn.graph
        a = g.create_node(["Class"], {"NAME": "A"})
        b = g.create_node(["Class"], {"NAME": "B"})
        g.create_relationship("CALL", a, b, {"PRUNED": True})
        g.create_index("Class", "IS_SINK")
        g.create_relationship_index("WEIGHT")
    with vg.write_txn() as txn:
        g = txn.graph
        c = g.create_node(["Method"], {"NAME": "m"})
        rel = g.create_relationship("ALIAS", c, c)
        g.set_node_property(c, "NAME", "m2")
        g.set_relationship_property(rel, "WEIGHT", 3)
        g.delete_relationship(rel)
        g.delete_node(c)


def frames(path):
    """(offset, kind, length) for each record in the log."""
    with open(path, "rb") as fh:
        data = fh.read()
    out = []
    pos = _HEADER_SIZE
    while pos + _FRAME.size <= len(data):
        kind, _crc, length = _FRAME.unpack_from(data, pos)
        out.append((pos, kind, length))
        pos += _FRAME.size + length
    return out, data


class TestRoundTrip:
    def test_create_append_replay(self, tmp_path):
        vg = durable(tmp_path)
        mutate_twice(vg)
        want = graph_fingerprint(vg.begin_snapshot())
        reopened = durable(tmp_path)
        assert reopened.version == 2
        assert graph_fingerprint(reopened.begin_snapshot()) == want
        replayed = reopened.wal.replay()
        assert replayed.txns_applied == 2
        assert replayed.truncated_bytes == 0

    def test_reopened_graph_keeps_accepting_commits(self, tmp_path):
        vg = durable(tmp_path)
        mutate_twice(vg)
        reopened = durable(tmp_path)
        with reopened.write_txn() as txn:
            txn.graph.create_node(["Class"], {"NAME": "LATE"})
        assert reopened.version == 3
        again = durable(tmp_path)
        assert again.version == 3
        assert again.begin_snapshot().find_nodes("Class", NAME="LATE")

    def test_sparse_ids_survive_compaction(self, tmp_path):
        graph = build_graph(with_holes=True)
        assert sorted(graph._nodes) != list(range(len(graph._nodes)))
        path = str(tmp_path / "graph.wal")
        wal = WriteAheadLog.create(path, graph, 7, fsync=False)
        replayed = wal.replay()
        assert replayed.version == 7
        assert graph_fingerprint(replayed.graph) == graph_fingerprint(graph)
        assert sorted(replayed.graph._nodes) == sorted(graph._nodes)
        assert replayed.graph._next_node_id == graph._next_node_id
        # undeclared-in-snapshot state comes back too
        assert set(replayed.graph._rel_prop_indexes) == {"PRUNED"}

    def test_compact_every_folds_journal(self, tmp_path):
        vg = durable(tmp_path, compact_every=2)
        mutate_twice(vg)  # second commit hits the compaction threshold
        recs, _ = frames(vg.wal.path)
        assert [kind for _, kind, _ in recs] == [1]  # BASE only
        reopened = durable(tmp_path)
        assert reopened.version == 2
        assert graph_fingerprint(reopened.begin_snapshot()) == (
            graph_fingerprint(vg.begin_snapshot())
        )

    def test_stale_bases_are_collected(self, tmp_path):
        vg = durable(tmp_path, compact_every=1)
        mutate_twice(vg)
        bases = [
            name
            for name in os.listdir(tmp_path)
            if ".base." in name and not name.endswith(".tmp")
        ]
        assert bases == ["graph.wal.base.2"]

    def test_explicit_compact(self, tmp_path):
        vg = durable(tmp_path)
        mutate_twice(vg)
        vg.compact()
        recs, _ = frames(vg.wal.path)
        assert [kind for _, kind, _ in recs] == [1]
        assert durable(tmp_path).version == 2


class TestCorruptionMatrix:
    def _wal_with_two_txns(self, tmp_path):
        vg = durable(tmp_path)
        mutate_twice(vg)
        return vg.wal.path, graph_fingerprint(vg.begin_snapshot())

    def test_truncated_tail_recovers_to_last_durable_commit(self, tmp_path):
        path, _ = self._wal_with_two_txns(tmp_path)
        recs, data = frames(path)
        assert len(recs) == 3  # BASE + 2 TXN
        after_first_txn = recs[2][0]
        fp_v1 = None
        # chop anywhere inside the final record: short frame, short
        # payload, single byte — every cut is a torn tail
        for cut in (after_first_txn + 1, after_first_txn + _FRAME.size,
                    len(data) - 1):
            with open(path, "wb") as fh:
                fh.write(data[:cut])
            wal = WriteAheadLog.attach(path, fsync=False)
            replayed = wal.replay(recover=True)
            assert replayed.version == 1
            assert replayed.txns_applied == 1
            assert replayed.truncated_bytes == cut - after_first_txn
            if fp_v1 is None:
                fp_v1 = graph_fingerprint(replayed.graph)
            assert graph_fingerprint(replayed.graph) == fp_v1
            # recovery truncated the torn bytes: a second replay is clean
            assert os.path.getsize(path) == after_first_txn
            assert wal.replay().truncated_bytes == 0

    def test_bitflip_in_final_record_is_a_torn_write(self, tmp_path):
        path, _ = self._wal_with_two_txns(tmp_path)
        recs, data = frames(path)
        after_first_txn = recs[2][0]
        corrupted = bytearray(data)
        corrupted[-3] ^= 0xFF  # payload byte of the final record
        with open(path, "wb") as fh:
            fh.write(corrupted)
        replayed = WriteAheadLog.attach(path, fsync=False).replay()
        assert replayed.version == 1
        assert os.path.getsize(path) == after_first_txn

    def test_bitflip_with_intact_data_after_is_structured_refusal(
        self, tmp_path
    ):
        path, _ = self._wal_with_two_txns(tmp_path)
        recs, data = frames(path)
        first_txn_payload = recs[1][0] + _FRAME.size
        corrupted = bytearray(data)
        corrupted[first_txn_payload + 2] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(corrupted)
        with pytest.raises(StorageError, match="intact data after"):
            WriteAheadLog.attach(path, fsync=False).replay()
        # recovery did NOT truncate: the data is preserved for forensics
        assert os.path.getsize(path) == len(data)

    def test_bad_magic(self, tmp_path):
        path, _ = self._wal_with_two_txns(tmp_path)
        with open(path, "r+b") as fh:
            fh.write(b"NOTAWAL!")
        with pytest.raises(StorageError, match="bad magic"):
            WriteAheadLog.attach(path, fsync=False).replay()

    def test_truncated_header(self, tmp_path):
        path = str(tmp_path / "graph.wal")
        with open(path, "wb") as fh:
            fh.write(WAL_MAGIC[:4])
        with pytest.raises(StorageError, match="truncated header"):
            WriteAheadLog.attach(path, fsync=False).replay()

    def test_missing_base_record(self, tmp_path):
        path = str(tmp_path / "graph.wal")
        with open(path, "wb") as fh:
            fh.write(struct.pack("<8sHH", WAL_MAGIC, 1, 0))
        with pytest.raises(StorageError, match="missing BASE"):
            WriteAheadLog.attach(path, fsync=False).replay()

    def test_tampered_base_snapshot_fails_digest_check(self, tmp_path):
        path, _ = self._wal_with_two_txns(tmp_path)
        base = next(
            str(tmp_path / name)
            for name in os.listdir(tmp_path)
            if ".base." in name
        )
        from repro.graphdb.storage import save_graph

        save_graph(build_graph(), base, format="v3")
        with pytest.raises(StorageError, match="fingerprint mismatch"):
            WriteAheadLog.attach(path, fsync=False).replay()

    def test_attach_missing_log(self, tmp_path):
        with pytest.raises(StorageError, match="not found"):
            WriteAheadLog.attach(str(tmp_path / "absent.wal"))

    def test_id_drift_refuses_replay(self, tmp_path):
        path, _ = self._wal_with_two_txns(tmp_path)
        wal = WriteAheadLog.attach(path, fsync=False)
        # journal a creation whose recorded id cannot match the base
        wal.append_txn(3, [["n+", 999, ["Class"], {}]])
        with pytest.raises(StorageError, match="id drift"):
            wal.replay()


def renumber_reversed(graph):
    graph.renumber(
        list(reversed(graph._nodes)),
        list(reversed(graph._rels)),
        list(reversed(graph.indexes._property_indexes)),
    )


class TestRenumberJournal:
    """A renumber commits as one ``rn`` op inside an ordinary TXN record,
    and every way that record can be damaged either recovers to a
    committed version or is refused — never a silently wrong graph."""

    def _wal_ending_in_rn(self, tmp_path):
        """BASE (a graph with holes) + TXN v1 (point edit) + TXN v2 (an
        edit and a renumber); returns the log path and the v1/v2
        digests."""
        path = str(tmp_path / "graph.wal")
        graph = build_graph(with_holes=True)
        graph.create_index("Class", "IS_SINK")
        vg = VersionedGraph(
            graph, wal=WriteAheadLog.create(path, graph, 0, fsync=False)
        )
        with vg.write_txn() as txn:
            txn.graph.create_node(["Class"], {"NAME": "A", "IS_SINK": True})
        v1 = fingerprint_digest(vg.begin_snapshot())
        with vg.write_txn() as txn:
            txn.graph.delete_node(0, detach=True)
            renumber_reversed(txn.graph)
        return path, v1, fingerprint_digest(vg.begin_snapshot())

    def test_renumber_appends_instead_of_compacting(self, tmp_path):
        path, _, v2 = self._wal_ending_in_rn(tmp_path)
        recs, data = frames(path)
        assert [kind for _, kind, _ in recs] == [1, 2, 2]
        assert b'["rn",' in data[recs[2][0]:]
        replayed = WriteAheadLog.attach(path, fsync=False).replay()
        assert replayed.version == 2 and replayed.txns_applied == 2
        assert fingerprint_digest(replayed.graph) == v2
        assert sorted(replayed.graph._nodes) == list(range(4))

    def test_torn_rn_record_recovers_previous_version(self, tmp_path):
        path, v1, _ = self._wal_ending_in_rn(tmp_path)
        recs, data = frames(path)
        rn_start = recs[2][0]
        for cut in (rn_start + 3, rn_start + _FRAME.size + 5, len(data) - 1):
            with open(path, "wb") as fh:
                fh.write(data[:cut])
            replayed = WriteAheadLog.attach(path, fsync=False).replay()
            assert replayed.version == 1
            assert fingerprint_digest(replayed.graph) == v1
            assert os.path.getsize(path) == rn_start

    @pytest.mark.parametrize(
        "tamper, match",
        [
            ("duplicate", "not a permutation"),
            ("missing", "not a permutation"),
            ("wrong-length", "do not cover"),
            ("bad-index", "not a permutation"),
        ],
    )
    def test_tampered_rn_is_refused(self, tmp_path, tamper, match):
        path = str(tmp_path / "graph.wal")
        graph = build_graph(with_holes=True)
        wal = WriteAheadLog.create(path, graph, 0, fsync=False)
        node_runs = [0, 2, 3, 2]  # the live ids 0, 1, 3, 4
        rel_runs = [0, 1, 3, 1]  # the live ids 0, 3
        index_order = [["Class", "NAME"]]
        if tamper == "duplicate":
            node_runs = [0, 2, 3, 1, 3, 1]
        elif tamper == "missing":
            node_runs = [0, 2, 3, 1, 7, 1]
        elif tamper == "wrong-length":
            rel_runs = [0, 1]
        else:
            index_order = [["Class", "IS_SINK"]]
        good = ["rn", [0, 2, 3, 2], [0, 1, 3, 1], [["Class", "NAME"]]]
        # the untampered op replays cleanly over the same base
        probe = WriteAheadLog.attach(path, fsync=False).replay().graph
        apply_ops(probe, [good])
        wal.append_txn(1, [["rn", node_runs, rel_runs, index_order]])
        with pytest.raises(StorageError, match=match):
            wal.replay()

    def test_crash_between_append_and_publication(self, tmp_path, monkeypatch):
        """The TXN is durable once appended: a writer that dies before
        publishing still recovers to the version it journalled."""
        path = str(tmp_path / "graph.wal")
        graph = build_graph(with_holes=True)
        vg = VersionedGraph(
            graph, wal=WriteAheadLog.create(path, graph, 0, fsync=False)
        )
        real = WriteAheadLog.append_txn

        def append_then_crash(self, version, ops):
            real(self, version, ops)
            raise KeyboardInterrupt("crash after the append")

        monkeypatch.setattr(WriteAheadLog, "append_txn", append_then_crash)
        with pytest.raises(KeyboardInterrupt):
            with vg.write_txn() as txn:
                renumber_reversed(txn.graph)
                staged = txn.graph
                txn.commit()
        assert vg.version == 0  # never published in this process
        assert vg.begin_snapshot() is graph
        monkeypatch.undo()
        replayed = WriteAheadLog.attach(path, fsync=False).replay()
        assert replayed.version == 1
        assert graph_fingerprint(replayed.graph) == graph_fingerprint(staged)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(
    scripts=st.lists(
        st.lists(mutation_op, min_size=1, max_size=8), min_size=1, max_size=4
    )
)
def test_replay_equals_every_committed_version(tmp_path_factory, scripts):
    """Differential: after each commit of a generated script (renumbers
    included), replaying the log reproduces the published version."""
    path = str(tmp_path_factory.mktemp("wal") / "graph.wal")
    graph = build_graph(with_holes=True)
    vg = VersionedGraph(
        graph, wal=WriteAheadLog.create(path, graph, 0, fsync=False)
    )
    for script in scripts:
        with vg.write_txn() as txn:
            apply_script(txn.graph, script)
        replayed = WriteAheadLog.attach(path, fsync=False).replay()
        assert replayed.version == vg.version
        assert graph_fingerprint(replayed.graph) == graph_fingerprint(
            vg.begin_snapshot()
        )


class TestApplyOps:
    def test_unknown_op_kind(self):
        with pytest.raises(StorageError, match="unknown op kind"):
            apply_ops(PropertyGraph(), [["??", 1]])

    def test_digest_matches_mvcc_commit_path(self, tmp_path):
        """The op journal written by a COW transaction replays to the
        exact committed graph (digest equality, not just shape)."""
        vg = durable(tmp_path)
        mutate_twice(vg)
        assert fingerprint_digest(
            durable(tmp_path).begin_snapshot()
        ) == fingerprint_digest(vg.begin_snapshot())
