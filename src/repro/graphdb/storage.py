"""Persistence for property graphs.

Three on-disk formats, one read path:

* **v1 (json)** — a gzip/plain JSON document with ``nodes``,
  ``relationships`` and ``indexes`` sections.  Byte-stable: the JSON
  emitted today diffs cleanly against snapshots written by any earlier
  build, which is why ``--format json`` remains available.
* **v2 (binary)** — the columnar snapshot of
  :mod:`repro.graphdb.snapshot`: string-table deduplication,
  struct-packed id columns, checksummed sections, and a trusted bulk
  load that skips per-property re-validation.
* **v3** — the page-structured zero-copy snapshot of
  :mod:`repro.graphdb.snapshot_v3`: fixed-width little-endian columns,
  precomputed CSR adjacency and a column directory, laid out so a
  reader can ``mmap`` the file and traverse in place.  The default for
  new saves; :func:`open_graph` opens it without decoding.

v1 and v2 stay readable forever: :func:`load_graph` auto-detects the
format from content (gzip wrapping included), so every snapshot ever
written keeps loading; callers never pass a format on read.  This is
the analogue of a Neo4j database directory: Tabby builds the CPG once,
persists it, and researchers re-query it across sessions (paper §IV-F
— the re-queryability advantage over GadgetInspector/Serianalyzer).
"""

from __future__ import annotations

import gzip
import json
import os
import struct
import sys
import zlib
from typing import Any, Dict, Optional, Union

from repro.errors import StorageError
from repro.graphdb.arraygraph import ArrayGraph
from repro.graphdb.graph import PropertyGraph, _bulk_load
from repro.graphdb.snapshot import (
    SNAPSHOT_MAGIC,
    decode_snapshot,
    encode_snapshot,
)
from repro.graphdb.snapshot_v3 import (
    SNAPSHOT_VERSION_V3,
    decode_snapshot_v3,
    encode_snapshot_v3,
    open_snapshot,
    view_snapshot,
)

__all__ = [
    "save_graph",
    "load_graph",
    "open_graph",
    "graph_to_dict",
    "graph_from_dict",
]

_FORMAT_VERSION = 1
_GZIP_MAGIC = b"\x1f\x8b"

#: suffixes that keep emitting v1 JSON under the default "auto" format,
#: so existing pipelines that name their snapshots *.json(.gz) stay
#: byte-compatible
_JSON_SUFFIXES = (".json", ".json.gz")


def graph_to_dict(graph: PropertyGraph) -> Dict[str, Any]:
    """Serialise a graph to a JSON-compatible dict (the v1 document)."""
    return {
        "format_version": _FORMAT_VERSION,
        "nodes": [
            {"id": n.id, "labels": sorted(n.labels), "properties": n.properties}
            for n in graph.nodes()
        ],
        "relationships": [
            {
                "id": r.id,
                "type": r.type,
                "start": r.start_id,
                "end": r.end_id,
                "properties": r.properties,
            }
            for r in graph.relationships()
        ],
        "indexes": [list(ix) for ix in graph.indexes.indexes()],
    }


def graph_from_dict(data: Dict[str, Any]) -> PropertyGraph:
    """Rebuild a graph from :func:`graph_to_dict` output.

    Node/relationship ids are remapped densely, preserving order.  The
    document is fed through the same trusted bulk loader as the binary
    format: property values are installed without re-validation (the
    writer only emits values that passed validation when the graph was
    built), and indexes/adjacency are backfilled in batch rather than
    one ``add_*`` call per entity.
    """
    version = data.get("format_version")
    if version != _FORMAT_VERSION:
        raise StorageError(f"unsupported graph format version: {version!r}")
    intern = sys.intern
    try:
        id_map: Dict[int, int] = {}
        node_rows = []
        for position, spec in enumerate(data["nodes"]):
            id_map[spec["id"]] = position
            props = spec.get("properties")
            node_rows.append(
                (
                    spec["labels"],
                    {intern(k): v for k, v in props.items()} if props else {},
                )
            )
        rel_rows = []
        for spec in data["relationships"]:
            props = spec.get("properties")
            rel_rows.append(
                (
                    intern(spec["type"]),
                    id_map[spec["start"]],
                    id_map[spec["end"]],
                    {intern(k): v for k, v in props.items()} if props else {},
                )
            )
        indexes = [(label, key) for label, key in data.get("indexes", ())]
    except (KeyError, TypeError, AttributeError) as exc:
        raise StorageError(f"malformed graph document: missing {exc}") from exc
    return _bulk_load(PropertyGraph(), indexes, node_rows, rel_rows)


def _resolve_format(path: str, format: Optional[str]) -> str:
    if format in (None, "auto"):
        return "json" if path.endswith(_JSON_SUFFIXES) else "v3"
    if format in ("binary", "v2"):
        return "binary"
    if format in ("json", "v3"):
        return format
    raise StorageError(
        f"unknown snapshot format {format!r} "
        f"(expected 'json', 'binary'/'v2', 'v3' or 'auto')"
    )


def _is_v3_header(head: bytes) -> bool:
    """True when ``head`` starts a v3 snapshot (magic + LE u16 version)."""
    return (
        len(head) >= 10
        and head[:8] == SNAPSHOT_MAGIC
        and struct.unpack_from("<H", head, 8)[0] == SNAPSHOT_VERSION_V3
    )


def save_graph(graph: PropertyGraph, path: str, format: Optional[str] = None) -> None:
    """Write a graph to ``path``.

    ``format`` is ``"json"`` (the byte-stable v1 document; a ``.gz``
    suffix enables gzip), ``"binary"``/``"v2"`` (the v2 columnar
    snapshot, which compresses its own sections), ``"v3"`` (the
    mmap-able zero-copy layout), or ``"auto"``/``None``: v3 unless the
    path ends in ``.json``/``.json.gz``.  :func:`load_graph` reads any
    format regardless of the file name.
    """
    resolved = _resolve_format(path, format)
    try:
        if resolved == "v3":
            with open(path, "wb") as fh:
                fh.write(encode_snapshot_v3(graph))
            return
        if resolved == "binary":
            with open(path, "wb") as fh:
                fh.write(encode_snapshot(graph))
            return
        data = graph_to_dict(graph)
        if path.endswith(".gz"):
            with gzip.open(path, "wt", encoding="utf-8") as fh:
                json.dump(data, fh)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
    except OSError as exc:
        raise StorageError(f"cannot write graph to {path}: {exc}") from exc


def load_graph(path: str) -> PropertyGraph:
    """Read a graph previously written by :func:`save_graph` into a
    mutable :class:`PropertyGraph`.

    The format is detected from content, not the file name: gzip
    wrapping is unpeeled first, then the payload is dispatched on the
    snapshot magic plus version (v3 zero-copy layout or v2 columnar),
    falling back to the v1 JSON document.  For the zero-copy open of a
    v3 file — no materialisation — use :func:`open_graph`.
    """
    if not os.path.exists(path):
        raise StorageError(f"graph file not found: {path}")
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        if raw[:2] == _GZIP_MAGIC:
            raw = gzip.decompress(raw)
    except (OSError, EOFError, zlib.error) as exc:
        raise StorageError(f"cannot read graph from {path}: {exc}") from exc
    if not raw:
        raise StorageError(f"cannot read graph from {path}: file is empty")
    if raw[: len(SNAPSHOT_MAGIC)] == SNAPSHOT_MAGIC:
        if _is_v3_header(raw[:10]):
            return decode_snapshot_v3(raw)
        return decode_snapshot(raw)
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StorageError(f"cannot read graph from {path}: {exc}") from exc
    return graph_from_dict(data)


def open_graph(path: str) -> Union[ArrayGraph, PropertyGraph]:
    """Open a snapshot for reading, zero-copy when the format allows.

    A v3 file comes back as a read-only mmap-backed
    :class:`~repro.graphdb.arraygraph.ArrayGraph` — O(header) open, one
    physical copy shared by every process that opens the same path.  A
    gzip-wrapped v3 payload becomes an in-memory ``ArrayGraph`` view
    (decompressed once, still lazily decoded); anything else falls back
    to :func:`load_graph` and returns a decoded ``PropertyGraph``.
    Call ``.materialize()`` on the view when a mutable graph is needed.
    """
    if not os.path.exists(path):
        raise StorageError(f"graph file not found: {path}")
    try:
        with open(path, "rb") as fh:
            head = fh.read(10)
    except OSError as exc:
        raise StorageError(f"cannot read graph from {path}: {exc}") from exc
    if _is_v3_header(head):
        return open_snapshot(path)
    if head[:2] == _GZIP_MAGIC:
        try:
            with open(path, "rb") as fh:
                raw = gzip.decompress(fh.read())
        except (OSError, EOFError, zlib.error) as exc:
            raise StorageError(f"cannot read graph from {path}: {exc}") from exc
        if _is_v3_header(raw[:10]):
            return view_snapshot(raw)
    return load_graph(path)
