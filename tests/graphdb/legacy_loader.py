"""The legacy v1 graph loader, kept as the bulk loader's oracle.

:func:`graph_from_dict_checked` rebuilds a v1 document with one
validated ``create_*`` call per entity.  :func:`repro.graphdb.storage.graph_from_dict`
takes the trusted bulk path instead and must produce a structurally
identical graph; ``tests/graphdb/test_storage.py`` compares the two.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.errors import StorageError
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.storage import _FORMAT_VERSION


def graph_from_dict_checked(data: Dict[str, Any]) -> PropertyGraph:
    """Load a v1 document entity by entity, validating every call."""
    version = data.get("format_version")
    if version != _FORMAT_VERSION:
        raise StorageError(f"unsupported graph format version: {version!r}")
    graph = PropertyGraph()
    for label, key in data.get("indexes", ()):
        graph.indexes.create_index(label, key)
    id_map: Dict[int, int] = {}
    try:
        for spec in data["nodes"]:
            node = graph.create_node(spec["labels"], spec.get("properties") or {})
            id_map[spec["id"]] = node.id
        for spec in data["relationships"]:
            graph.create_relationship(
                spec["type"],
                id_map[spec["start"]],
                id_map[spec["end"]],
                spec.get("properties") or {},
            )
    except KeyError as exc:
        raise StorageError(f"malformed graph document: missing {exc}") from exc
    return graph
