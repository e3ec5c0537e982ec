"""Binary columnar graph snapshots (format v2).

The legacy v1 snapshot (:mod:`repro.graphdb.storage`) is gzip-JSON: a
row per entity, re-parsed, re-validated and re-indexed one ``add_*``
call at a time on every load.  That made warm starts — the paper's
§IV-F re-queryability workflow, where one persisted CPG serves many
chain searches and Cypher sessions — the dominant cost for large
graphs.  Format v2 stores the same information *columnar*:

``TABBYCPG`` magic + version/flags header, then five sections, each
framed as ``(tag, crc32, raw_len, stored_len)`` with the payload
zlib-compressed whenever that helps (``stored_len == raw_len`` marks an
uncompressed section):

* **STRINGS** — one deduplicated table of every label, relationship
  type, property key and string property value.  Loaded once, interned
  via :func:`sys.intern` (bounded length), and referenced everywhere
  else by integer id, so a loaded graph shares one object per distinct
  string instead of one per occurrence.
* **LABELSETS** — the distinct label *combinations* as sorted string-id
  rows; nodes reference a labelset by id and the loader materialises
  exactly one frozenset per combination (the in-memory pool of
  :class:`~repro.graphdb.graph.PropertyGraph`).
* **NODES** — node count, a struct-packed labelset-id column, then a
  shape-grouped property block.  Node ids are implicit: position == id,
  which is precisely the dense renumbering the v1 loader has always
  performed.
* **RELS** — relationship count, struct-packed type-id / start / end
  columns (start/end are dense node positions, i.e. final node ids),
  then a shape-grouped property block.
* **INDEXES** — the declared ``(label, key)`` property indexes as
  string-id pairs; contents are rebuilt by the batch backfill of the
  trusted bulk loader, which is both faster and impossible to desync.

Property maps are stored *columnar by shape*.  A shape is an entity's
``(property key, value kind)`` signature; CPG graphs have only a
handful (every ``Method`` node looks like every other ``Method`` node),
so grouping entities by shape turns 50k near-identical little maps
into a few dozen homogeneous columns.  Each column holds one key's
values for every entity of one shape and is encoded by kind: bools,
zigzag ints and string-table ids as struct-packed integer columns,
floats as raw little-endian IEEE-754 doubles, int and string lists as
a lengths column plus one flattened column, and anything else (nested
dicts, mixed lists, over-wide ints) as a tagged varint stream — the
compact fallback encoding of the JSON-scalar value model enforced by
``_check_property_value``.  The decoder therefore reassembles property
maps with bulk C-level operations (``array``, ``zip``, ``dict(zip)``)
instead of a per-value interpreter loop, which is where the v2 load
speedup comes from.

Loading goes through :func:`repro.graphdb.graph._bulk_load_columns` —
the columnar variant of the *trusted* bulk loader that skips
per-property re-validation (the writer only ever serialises values
that already passed validation at graph-build time) and restores
adjacency buckets, relationship-type counts and all indexes from the
columns with whole-structure C-level construction.  Section checksums
mean a truncated or corrupted file fails with an actionable
:class:`StorageError` instead of producing a garbage graph.
"""

from __future__ import annotations

import hashlib
import struct
import sys
import zlib
from array import array
from collections import Counter
from itertools import accumulate, repeat
from operator import itemgetter
from typing import Any, Dict, FrozenSet, List, Sequence, Tuple

from repro.errors import GraphError, StorageError
from repro.graphdb.graph import PropertyGraph, _bulk_load_columns

__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "encode_snapshot",
    "decode_snapshot",
    "graph_fingerprint",
    "fingerprint_digest",
]

SNAPSHOT_MAGIC = b"TABBYCPG"
SNAPSHOT_VERSION = 2

_HEADER = struct.Struct("<8sHHI")  # magic, version, flags, section count
_SECTION = struct.Struct("<BIQQ")  # tag, crc32, raw_len, stored_len
_DOUBLE = struct.Struct("<d")

_TAG_STRINGS = 1
_TAG_LABELSETS = 2
_TAG_NODES = 3
_TAG_RELS = 4
_TAG_INDEXES = 5
_REQUIRED_TAGS = (_TAG_STRINGS, _TAG_LABELSETS, _TAG_NODES, _TAG_RELS, _TAG_INDEXES)
_SECTION_NAMES = {
    _TAG_STRINGS: "STRINGS",
    _TAG_LABELSETS: "LABELSETS",
    _TAG_NODES: "NODES",
    _TAG_RELS: "RELS",
    _TAG_INDEXES: "INDEXES",
}

# value tags of the fallback (nested) property encoding
_V_NONE, _V_TRUE, _V_FALSE, _V_INT, _V_FLOAT, _V_STR, _V_LIST, _V_DICT = range(8)

# column kinds of the shape-grouped property encoding
(
    _K_NONE,
    _K_BOOL,
    _K_INT,
    _K_FLOAT,
    _K_STR,
    _K_INTLIST,
    _K_STRLIST,
    _K_STRDICT,
    _K_NESTED,
) = range(9)

#: zigzag of ints in this range fits a struct-packed (<= 8 byte) column
_I63 = 1 << 63

_BOOLS = (False, True)

#: strings longer than this are deduplicated via the table but not
#: sys.intern'd (interned strings live for the rest of the process)
_INTERN_MAX = 512

_WIDTH_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def _write_varint(out: bytearray, value: int) -> None:
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _write_packed(out: bytearray, values: List[int]) -> None:
    """A fixed-width little-endian integer column: width byte + data."""
    top = max(values, default=0)
    width = 1 if top < 1 << 8 else 2 if top < 1 << 16 else 4 if top < 1 << 32 else 8
    out.append(width)
    column = array(_WIDTH_CODES[width], values)
    if sys.byteorder == "big":
        column.byteswap()
    out += column.tobytes()


def _read_packed(buf: bytes, pos: int, count: int) -> Tuple[array, int]:
    width = buf[pos]
    pos += 1
    code = _WIDTH_CODES.get(width)
    if code is None:
        raise StorageError(f"invalid column width {width}")
    nbytes = width * count
    column = array(code)
    column.frombytes(buf[pos : pos + nbytes])
    if len(column) != count:
        raise StorageError("truncated integer column")
    if sys.byteorder == "big":
        column.byteswap()
    return column, pos + nbytes


def _sid(table: Dict[str, int], value: str) -> int:
    sid = table.get(value)
    if sid is None:
        sid = len(table)
        table[value] = sid
    return sid


def _write_value(out: bytearray, value: Any, strings: Dict[str, int]) -> None:
    if value is None:
        out.append(_V_NONE)
    elif isinstance(value, bool):
        out.append(_V_TRUE if value else _V_FALSE)
    elif isinstance(value, int):
        out.append(_V_INT)
        _write_varint(out, value * 2 if value >= 0 else -value * 2 - 1)
    elif isinstance(value, float):
        out.append(_V_FLOAT)
        out += _DOUBLE.pack(value)
    elif isinstance(value, str):
        out.append(_V_STR)
        _write_varint(out, _sid(strings, value))
    elif isinstance(value, (list, tuple)):
        out.append(_V_LIST)
        _write_varint(out, len(value))
        for item in value:
            _write_value(out, item, strings)
    elif isinstance(value, dict):
        out.append(_V_DICT)
        _write_varint(out, len(value))
        for key, item in value.items():
            _write_varint(out, _sid(strings, key))
            _write_value(out, item, strings)
    else:
        raise StorageError(
            f"unsupported property value type for snapshot: {type(value).__name__}"
        )


def _make_readers(buf: bytes, strings: List[str]):
    """Varint / fallback-value readers closed over one buffer."""

    unpack_double = _DOUBLE.unpack_from

    def read_varint(pos: int) -> Tuple[int, int]:
        b = buf[pos]
        pos += 1
        if b < 0x80:
            return b, pos
        result = b & 0x7F
        shift = 7
        while True:
            b = buf[pos]
            pos += 1
            result |= (b & 0x7F) << shift
            if b < 0x80:
                return result, pos
            shift += 7

    def read_value(pos: int) -> Tuple[Any, int]:
        tag = buf[pos]
        pos += 1
        if tag == _V_STR:
            sid, pos = read_varint(pos)
            return strings[sid], pos
        if tag == _V_INT:
            z, pos = read_varint(pos)
            return (z >> 1) ^ -(z & 1), pos
        if tag == _V_NONE:
            return None, pos
        if tag == _V_TRUE:
            return True, pos
        if tag == _V_FALSE:
            return False, pos
        if tag == _V_FLOAT:
            return unpack_double(buf, pos)[0], pos + 8
        if tag == _V_LIST:
            count, pos = read_varint(pos)
            items = []
            append = items.append
            for _ in range(count):
                item, pos = read_value(pos)
                append(item)
            return items, pos
        if tag == _V_DICT:
            count, pos = read_varint(pos)
            nested: Dict[str, Any] = {}
            for _ in range(count):
                sid, pos = read_varint(pos)
                item, pos = read_value(pos)
                nested[strings[sid]] = item
            return nested, pos
        raise StorageError(f"unknown property value tag {tag}")

    return read_varint, read_value


#: property-map builders compiled per column count (see _rows_to_maps)
_ROW_BUILDERS: Dict[int, Any] = {}

#: shapes wider than this fall back to dict(zip(keys, row))
_ROW_BUILDER_MAX_WIDTH = 32


def _rows_to_maps(keys: Tuple[str, ...], cols: List[Sequence[Any]]) -> List[Dict[str, Any]]:
    """One property dict per row of ``zip(*cols)``.

    A dict *display* with the keys bound to locals builds a small dict
    2-4x faster than ``dict(zip(keys, row))``, but needs the column
    count at compile time — so builders are compiled once per width and
    cached (a CPG has a handful of shapes, so a handful of widths).
    """
    width = len(keys)
    if width > _ROW_BUILDER_MAX_WIDTH:
        return [dict(zip(keys, row)) for row in zip(*cols)]
    builder = _ROW_BUILDERS.get(width)
    if builder is None:
        key_args = ", ".join(f"k{i}" for i in range(width))
        values = ", ".join(f"v{i}" for i in range(width))
        items = ", ".join(f"k{i}: v{i}" for i in range(width))
        source = (
            "def _build(k0):\n"
            "    def rows(cols):\n"
            "        return [{k0: v0} for v0 in cols[0]]\n"
            "    return rows\n"
            if width == 1
            else f"def _build({key_args}):\n"
            f"    def rows(cols):\n"
            f"        return [{{{items}}} for ({values},) in zip(*cols)]\n"
            f"    return rows\n"
        )
        namespace: Dict[str, Any] = {}
        exec(source, namespace)
        builder = namespace["_build"]
        _ROW_BUILDERS[width] = builder
    return builder(*keys)(cols)


def _kind_of(value: Any) -> int:
    """The column kind a value belongs to (see the module docstring)."""
    kind = type(value)
    if kind is str:
        return _K_STR
    if kind is bool:
        return _K_BOOL
    if kind is int:
        return _K_INT if -_I63 <= value < _I63 else _K_NESTED
    if kind is float:
        return _K_FLOAT
    if value is None:
        return _K_NONE
    if kind is list or kind is tuple:
        all_int = all_str = True
        for item in value:
            t = type(item)
            if t is int and -_I63 <= item < _I63:
                all_str = False
            elif t is str:
                all_int = False
            else:
                return _K_NESTED
        if all_int:  # including the empty list
            return _K_INTLIST
        return _K_STRLIST if all_str else _K_NESTED
    if kind is dict:
        for k, v in value.items():
            if type(k) is not str or type(v) is not str:
                return _K_NESTED
        return _K_STRDICT
    if isinstance(value, (bool, int, float, str, list, tuple, dict)):
        return _K_NESTED  # exotic subclasses: tagged fallback
    raise StorageError(
        f"unsupported property value type for snapshot: {type(value).__name__}"
    )


def _encode_props_block(
    out: bytearray, all_props: Sequence[Dict[str, Any]], strings: Dict[str, int]
) -> None:
    """Group ``all_props`` by shape and write one typed column per key."""
    shape_ids: Dict[Tuple[Tuple[int, int], ...], int] = {}
    shapes: List[Tuple[Tuple[int, int], ...]] = []
    shape_keys: List[List[str]] = []  # original key strings, column order
    groups: List[List[Dict[str, Any]]] = []
    shape_col: List[int] = []
    for props in all_props:
        sig = tuple(
            (_sid(strings, key), _kind_of(value)) for key, value in props.items()
        )
        sid = shape_ids.get(sig)
        if sid is None:
            sid = len(shapes)
            shape_ids[sig] = sid
            shapes.append(sig)
            shape_keys.append(list(props))
            groups.append([])
        groups[sid].append(props)
        shape_col.append(sid)

    _write_varint(out, len(shapes))
    for sig in shapes:
        _write_varint(out, len(sig))
        for key_sid, kind in sig:
            _write_varint(out, key_sid)
            out.append(kind)
    _write_packed(out, shape_col)
    for sig, keys, group in zip(shapes, shape_keys, groups):
        for key, (_key_sid, kind) in zip(keys, sig):
            if kind == _K_NONE:
                continue
            column = [props[key] for props in group]
            if kind == _K_STR:
                _write_packed(out, [_sid(strings, v) for v in column])
            elif kind == _K_INT:
                _write_packed(out, [v * 2 if v >= 0 else -v * 2 - 1 for v in column])
            elif kind == _K_BOOL:
                _write_packed(out, [1 if v else 0 for v in column])
            elif kind == _K_FLOAT:
                doubles = array("d", column)
                if sys.byteorder == "big":
                    doubles.byteswap()
                out += doubles.tobytes()
            elif kind == _K_INTLIST:
                _write_packed(out, [len(v) for v in column])
                _write_packed(
                    out,
                    [x * 2 if x >= 0 else -x * 2 - 1 for v in column for x in v],
                )
            elif kind == _K_STRLIST:
                _write_packed(out, [len(v) for v in column])
                _write_packed(out, [_sid(strings, x) for v in column for x in v])
            elif kind == _K_STRDICT:
                _write_packed(out, [len(v) for v in column])
                _write_packed(out, [_sid(strings, k) for v in column for k in v])
                _write_packed(
                    out, [_sid(strings, x) for v in column for x in v.values()]
                )
            else:  # _K_NESTED
                for v in column:
                    _write_value(out, v, strings)


def _decode_props_block(
    buf: bytes, pos: int, entity_count: int, strings: List[str]
) -> Tuple[List[Dict[str, Any]], int]:
    """Rebuild per-entity property maps from the shape-grouped columns.

    Per-shape columns decode with bulk C-level primitives; the only
    per-value Python loop left is the tagged fallback for rare values.
    """
    read_varint, read_value = _make_readers(buf, strings)
    shape_count, pos = read_varint(pos)
    shapes: List[List[Tuple[int, int]]] = []
    for _ in range(shape_count):
        key_count, pos = read_varint(pos)
        sig = []
        for _ in range(key_count):
            key_sid, pos = read_varint(pos)
            kind = buf[pos]
            pos += 1
            sig.append((key_sid, kind))
        shapes.append(sig)
    shape_col, pos = _read_packed(buf, pos, entity_count)
    shape_sizes = Counter(shape_col)  # C-level counting

    per_shape_maps: List[List[Dict[str, Any]]] = []
    for sid, sig in enumerate(shapes):
        n = shape_sizes.get(sid, 0)
        cols: List[Sequence[Any]] = []
        for key_sid, kind in sig:
            if kind == _K_STR:
                col, pos = _read_packed(buf, pos, n)
                cols.append(list(map(strings.__getitem__, col)))
            elif kind == _K_INT:
                col, pos = _read_packed(buf, pos, n)
                cols.append([(z >> 1) ^ -(z & 1) for z in col])
            elif kind == _K_BOOL:
                col, pos = _read_packed(buf, pos, n)
                cols.append([_BOOLS[b] for b in col])
            elif kind == _K_NONE:
                cols.append(repeat(None, n))
            elif kind == _K_FLOAT:
                doubles = array("d")
                doubles.frombytes(buf[pos : pos + 8 * n])
                if len(doubles) != n:
                    raise StorageError("truncated float column")
                if sys.byteorder == "big":
                    doubles.byteswap()
                pos += 8 * n
                cols.append(doubles.tolist())
            elif kind == _K_INTLIST or kind == _K_STRLIST:
                lengths, pos = _read_packed(buf, pos, n)
                flat_col, pos = _read_packed(buf, pos, sum(lengths))
                if kind == _K_INTLIST:
                    flat = [(z >> 1) ^ -(z & 1) for z in flat_col]
                else:
                    flat = list(map(strings.__getitem__, flat_col))
                lists = []
                offset = 0
                for length in lengths:
                    lists.append(flat[offset : offset + length])
                    offset += length
                cols.append(lists)
            elif kind == _K_STRDICT:
                lengths, pos = _read_packed(buf, pos, n)
                total = sum(lengths)
                key_col, pos = _read_packed(buf, pos, total)
                value_col, pos = _read_packed(buf, pos, total)
                flat_keys = list(map(strings.__getitem__, key_col))
                flat_values = list(map(strings.__getitem__, value_col))
                dicts = []
                offset = 0
                for length in lengths:
                    end = offset + length
                    dicts.append(
                        dict(zip(flat_keys[offset:end], flat_values[offset:end]))
                    )
                    offset = end
                cols.append(dicts)
            elif kind == _K_NESTED:
                values = []
                append = values.append
                for _ in range(n):
                    value, pos = read_value(pos)
                    append(value)
                cols.append(values)
            else:
                raise StorageError(f"unknown property column kind {kind}")
        if cols:
            keys = tuple(strings[key_sid] for key_sid, _ in sig)
            per_shape_maps.append(_rows_to_maps(keys, cols))
        else:
            per_shape_maps.append([{} for _ in range(n)])

    # scatter back to entity order: two nested C-level maps, no bytecode.
    # A short result means an exhausted cursor (map() swallows the
    # StopIteration), hence the explicit length check.
    cursors = [iter(maps) for maps in per_shape_maps]
    try:
        result = list(map(next, map(cursors.__getitem__, shape_col)))
    except IndexError as exc:
        raise StorageError("property shape column is inconsistent") from exc
    if len(result) != entity_count:
        raise StorageError("property shape column is inconsistent")
    return result, pos


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def _frame_section(tag: int, payload: bytearray) -> bytes:
    raw = bytes(payload)
    compressed = zlib.compress(raw, 6)
    stored = compressed if len(compressed) < len(raw) else raw
    header = _SECTION.pack(tag, zlib.crc32(stored) & 0xFFFFFFFF, len(raw), len(stored))
    return header + stored


def encode_snapshot(graph: PropertyGraph) -> bytes:
    """Serialise ``graph`` to v2 binary snapshot bytes."""
    strings: Dict[str, int] = {}
    labelset_ids: Dict[FrozenSet[str], int] = {}
    labelset_rows: List[List[int]] = []

    node_labelsets: List[int] = []
    for node in graph._nodes.values():  # insertion order == increasing id
        labelset = node.labels
        lsid = labelset_ids.get(labelset)
        if lsid is None:
            lsid = len(labelset_rows)
            labelset_ids[labelset] = lsid
            labelset_rows.append([_sid(strings, label) for label in sorted(labelset)])
        node_labelsets.append(lsid)

    nodes_payload = bytearray()
    _write_varint(nodes_payload, len(node_labelsets))
    _write_packed(nodes_payload, node_labelsets)
    _encode_props_block(
        nodes_payload,
        [node.properties for node in graph._nodes.values()],
        strings,
    )

    position = {node_id: i for i, node_id in enumerate(graph._nodes)}
    rels = list(graph._rels.values())
    rels_payload = bytearray()
    _write_varint(rels_payload, len(rels))
    _write_packed(rels_payload, [_sid(strings, rel.type) for rel in rels])
    _write_packed(rels_payload, [position[rel.start_id] for rel in rels])
    _write_packed(rels_payload, [position[rel.end_id] for rel in rels])
    _encode_props_block(rels_payload, [rel.properties for rel in rels], strings)

    index_pairs = [
        (_sid(strings, label), _sid(strings, key))
        for label, key in graph.indexes.indexes()
    ]

    labelsets_payload = bytearray()
    _write_varint(labelsets_payload, len(labelset_rows))
    for row in labelset_rows:
        _write_varint(labelsets_payload, len(row))
        for sid in row:
            _write_varint(labelsets_payload, sid)

    indexes_payload = bytearray()
    _write_varint(indexes_payload, len(index_pairs))
    for label_sid, key_sid in index_pairs:
        _write_varint(indexes_payload, label_sid)
        _write_varint(indexes_payload, key_sid)

    # char-length column + one UTF-8 blob: the loader decodes the blob
    # once and slices, instead of decoding per string
    strings_payload = bytearray()
    _write_varint(strings_payload, len(strings))
    _write_packed(strings_payload, [len(value) for value in strings])
    for value in strings:  # dict preserves first-seen (== id) order
        strings_payload += value.encode("utf-8")

    sections = (
        _frame_section(_TAG_STRINGS, strings_payload),
        _frame_section(_TAG_LABELSETS, labelsets_payload),
        _frame_section(_TAG_NODES, nodes_payload),
        _frame_section(_TAG_RELS, rels_payload),
        _frame_section(_TAG_INDEXES, indexes_payload),
    )
    header = _HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, 0, len(sections))
    return header + b"".join(sections)


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


def _split_sections(data: bytes) -> Dict[int, bytes]:
    if len(data) < _HEADER.size:
        raise StorageError("snapshot is truncated: missing header")
    magic, version, _flags, section_count = _HEADER.unpack_from(data, 0)
    if magic != SNAPSHOT_MAGIC:
        raise StorageError("not a Tabby binary snapshot (bad magic)")
    if version != SNAPSHOT_VERSION:
        raise StorageError(
            f"unsupported snapshot format version {version} (this build reads "
            f"v3/v{SNAPSHOT_VERSION} binary and v1 JSON); re-export the graph "
            f"with a matching build or with --format json"
        )
    sections: Dict[int, bytes] = {}
    pos = _HEADER.size
    for _ in range(section_count):
        if pos + _SECTION.size > len(data):
            raise StorageError("snapshot is truncated: incomplete section header")
        tag, crc, raw_len, stored_len = _SECTION.unpack_from(data, pos)
        pos += _SECTION.size
        stored = data[pos : pos + stored_len]
        if len(stored) != stored_len:
            raise StorageError(
                f"snapshot is truncated inside section "
                f"{_SECTION_NAMES.get(tag, tag)}"
            )
        pos += stored_len
        if zlib.crc32(stored) & 0xFFFFFFFF != crc:
            raise StorageError(
                f"checksum mismatch in section {_SECTION_NAMES.get(tag, tag)}: "
                f"the snapshot is corrupt or truncated"
            )
        if stored_len != raw_len:
            try:
                stored = zlib.decompress(stored)
            except zlib.error as exc:
                raise StorageError(
                    f"cannot decompress section "
                    f"{_SECTION_NAMES.get(tag, tag)}: {exc}"
                ) from exc
            if len(stored) != raw_len:
                raise StorageError(
                    f"section {_SECTION_NAMES.get(tag, tag)} decompressed to "
                    f"the wrong length"
                )
        sections[tag] = stored
    if pos != len(data):
        raise StorageError("snapshot has trailing bytes after the last section")
    for tag in _REQUIRED_TAGS:
        if tag not in sections:
            raise StorageError(f"snapshot is missing section {_SECTION_NAMES[tag]}")
    return sections


def decode_snapshot(data: bytes) -> PropertyGraph:
    """Rebuild a graph from v2 snapshot bytes via the trusted bulk loader."""
    sections = _split_sections(data)
    try:
        return _decode_sections(sections)
    except StorageError:
        raise
    except (IndexError, ValueError, OverflowError, UnicodeDecodeError,
            struct.error, GraphError) as exc:
        raise StorageError(f"corrupt snapshot payload: {exc}") from exc


def _decode_sections(sections: Dict[int, bytes]) -> PropertyGraph:
    buf = sections[_TAG_STRINGS]
    read_varint, _ = _make_readers(buf, [])
    count, pos = read_varint(0)
    char_lengths, pos = _read_packed(buf, pos, count)
    text = buf[pos:].decode("utf-8")
    if len(text) != sum(char_lengths):
        raise StorageError("truncated string table")
    intern = sys.intern
    offsets = list(accumulate(char_lengths, initial=0))
    if not char_lengths or max(char_lengths) <= _INTERN_MAX:
        # every string is internable: one C pipeline, no bytecode loop
        strings: List[str] = list(
            map(intern, map(text.__getitem__, map(slice, offsets, offsets[1:])))
        )
    else:
        strings = []
        append_string = strings.append
        for offset, end in zip(offsets, offsets[1:]):
            value = text[offset:end]
            append_string(intern(value) if end - offset <= _INTERN_MAX else value)

    buf = sections[_TAG_LABELSETS]
    read_varint, _ = _make_readers(buf, strings)
    count, pos = read_varint(0)
    labelsets: List[FrozenSet[str]] = []
    for _ in range(count):
        size, pos = read_varint(pos)
        labels = []
        for _ in range(size):
            sid, pos = read_varint(pos)
            labels.append(strings[sid])
        labelsets.append(frozenset(labels))

    buf = sections[_TAG_NODES]
    read_varint, _ = _make_readers(buf, strings)
    node_count, pos = read_varint(0)
    node_labelset_col, pos = _read_packed(buf, pos, node_count)
    node_props, pos = _decode_props_block(buf, pos, node_count, strings)

    buf = sections[_TAG_RELS]
    read_varint, _ = _make_readers(buf, strings)
    rel_count, pos = read_varint(0)
    rel_types, pos = _read_packed(buf, pos, rel_count)
    rel_starts, pos = _read_packed(buf, pos, rel_count)
    rel_ends, pos = _read_packed(buf, pos, rel_count)
    if rel_count:
        if max(rel_starts) >= node_count or max(rel_ends) >= node_count:
            raise StorageError(
                "snapshot relationship references a node beyond the node count"
            )
    rel_props, pos = _decode_props_block(buf, pos, rel_count, strings)

    buf = sections[_TAG_INDEXES]
    read_varint, _ = _make_readers(buf, strings)
    count, pos = read_varint(0)
    index_pairs: List[Tuple[str, str]] = []
    for _ in range(count):
        label_sid, pos = read_varint(pos)
        key_sid, pos = read_varint(pos)
        index_pairs.append((strings[label_sid], strings[key_sid]))

    return _bulk_load_columns(
        PropertyGraph(),
        index_pairs,
        labelsets,
        node_labelset_col,
        node_props,
        list(map(strings.__getitem__, rel_types)),
        rel_starts,
        rel_ends,
        rel_props,
    )


# ---------------------------------------------------------------------------
# structural fingerprint (tests / benchmarks)
# ---------------------------------------------------------------------------


def graph_fingerprint(graph: PropertyGraph) -> Dict[str, Any]:
    """The complete observable state of a graph, as plain comparables.

    Covers everything the differential gate cares about: entities with
    labels and property maps, declared indexes *and their contents*,
    the label index, flat and type-bucketed adjacency, relationship-
    type counts, and the id counters.  Two graphs with equal
    fingerprints are interchangeable for every query, traversal and
    chain search.
    """
    indexes = graph.indexes
    return {
        "nodes": [
            (node.id, sorted(node.labels), node.properties)
            for node in graph._nodes.values()
        ],
        "relationships": [
            (rel.id, rel.type, rel.start_id, rel.end_id, rel.properties)
            for rel in graph._rels.values()
        ],
        "next_ids": (graph._next_node_id, graph._next_rel_id),
        "out": {nid: list(ids) for nid, ids in graph._out.items()},
        "in": {nid: list(ids) for nid, ids in graph._in.items()},
        "out_by_type": {
            nid: {t: list(b) for t, b in buckets.items()}
            for nid, buckets in graph._out_by_type.items()
        },
        "in_by_type": {
            nid: {t: list(b) for t, b in buckets.items()}
            for nid, buckets in graph._in_by_type.items()
        },
        "rel_type_counts": dict(graph._rel_type_counts),
        "label_index": {
            label: sorted(ids) for label, ids in indexes._by_label.items() if ids
        },
        "declared_indexes": indexes.indexes(),
        "property_indexes": {
            pair: sorted(
                ((repr(value), sorted(ids)) for value, ids in table.items() if ids),
            )
            for pair, table in indexes._property_indexes.items()
        },
    }


def _canonical(obj: Any) -> str:
    """A deterministic serialization that depends only on value
    equality, not on dict insertion order.

    ``repr`` of two ``==`` dicts can differ (a COW-committed graph and
    its reloaded base snapshot build their dicts in different orders),
    so the digest must sort dict items; sequences keep their order.

    Every WAL compaction digests the whole graph, so the exact builtin
    scalar and container types take a fast path that skips the
    ``isinstance`` chain and one call per scalar; subclasses fall
    through to the general rules and serialize the same way.
    """
    kind = type(obj)
    if kind in _SCALARS:
        return repr(obj)
    if kind is list or kind is tuple:
        inner = ",".join([
            repr(x) if type(x) in _SCALARS else _canonical(x) for x in obj
        ])
        return f"[{inner}]" if kind is list else f"({inner})"
    if isinstance(obj, dict):
        # stable sort on the key's repr, exactly as sorting the items
        items = sorted(zip(map(repr, obj), obj, obj.values()), key=_first)
        return "{" + ",".join([
            (rk if type(k) in _SCALARS else _canonical(k))
            + ":"
            + (repr(v) if type(v) in _SCALARS else _canonical(v))
            for rk, k, v in items
        ]) + "}"
    if isinstance(obj, tuple):
        return "(" + ",".join(_canonical(x) for x in obj) + ")"
    if isinstance(obj, list):
        return "[" + ",".join(_canonical(x) for x in obj) + "]"
    if isinstance(obj, (set, frozenset)):
        return "{" + ",".join(sorted(_canonical(x) for x in obj)) + "}"
    return repr(obj)


#: exact types whose canonical form is their ``repr``
_SCALARS = frozenset({str, int, bool, float, bytes, type(None)})
_first = itemgetter(0)


def fingerprint_digest(graph: PropertyGraph) -> str:
    """SHA-256 over the canonical form of :func:`graph_fingerprint`.

    Memoised on *frozen* graphs (committed MVCC versions): a frozen
    graph can never change, so the digest is computed at most once per
    version and "invalidation on commit" falls out of the design — a
    commit publishes a fresh graph object with no cached digest.
    Mutable graphs are never memoised.
    """
    cached = getattr(graph, "_fingerprint_digest", None)
    if cached is not None:
        return cached
    digest = hashlib.sha256(
        _canonical(graph_fingerprint(graph)).encode("utf-8")
    ).hexdigest()
    if getattr(graph, "_frozen", False):
        graph._fingerprint_digest = digest
    return digest
