"""Seeded input generation for every workload.

Everything a workload feeds the program is derived here from the
``--seed`` argument alone, so one seed always yields byte-identical
jars, read mixes, edit scripts and job mixes.
"""

from __future__ import annotations

import copy
import os
import random
import zipfile
from typing import Dict, List, Optional, Sequence, Tuple

from repro.corpus import (
    COMPONENT_NAMES,
    ComponentSpec,
    build_component,
    build_lang_base,
    generate_corpus,
)
from repro.jvm import jasm
from repro.jvm.jar import JarArchive
from repro.jvm.model import SERIALIZABLE, JavaClass

#: size of the seeded chain-free filler library added to the cold-audit
#: classpath; fixed, so every seed analyses the same amount of code
FILLER_KB = 200

#: fixed zip timestamp: ``repro.jvm.jar.write_jar`` stamps entries with
#: the wall clock, which would make two exports of one seed differ
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)


def safe_jar_name(name: str) -> str:
    """The jar file stem ``tabby corpus export`` uses for a component."""
    return "".join(ch if ch.isalnum() or ch in "-._" else "_" for ch in name)


def write_jar_deterministic(archive: JarArchive, path: str) -> None:
    """Write ``archive`` in the ``repro.jvm.jar`` format (manifest +
    one ``.jasm`` entry per class) with fixed entry timestamps."""
    manifest = (
        "Manifest-Version: 1.0\n"
        f"Archive-Name: {archive.name}\n"
        f"Class-Count: {len(archive)}\n"
    )
    entries = [("META-INF/MANIFEST.MF", manifest)] + [
        (cls.name.replace(".", "/") + ".jasm", jasm.dump_class(cls))
        for cls in archive.classes
    ]
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
        for name, text in entries:
            info = zipfile.ZipInfo(name, date_time=_ZIP_EPOCH)
            info.compress_type = zipfile.ZIP_DEFLATED
            zf.writestr(info, text)


def corpus_specs() -> List[ComponentSpec]:
    """The 26 Table IX components, in table order."""
    return [build_component(name) for name in COMPONENT_NAMES]


def merged_classes(specs: Optional[Sequence[ComponentSpec]] = None) -> List[JavaClass]:
    """Lang base + every component: the merged corpus."""
    classes = list(build_lang_base())
    for spec in specs if specs is not None else corpus_specs():
        classes.extend(spec.classes)
    return classes


def export_audit_jars(directory: str, seed: int, specs: Sequence[ComponentSpec]) -> None:
    """Write the cold-audit classpath: lang base, all 26 components and
    a seeded ``generate_corpus`` filler library (``filler-*.jar``)."""
    os.makedirs(directory, exist_ok=True)
    archives = [JarArchive("rt-base", build_lang_base())]
    archives += [JarArchive(safe_jar_name(s.name), s.classes) for s in specs]
    archives += [
        JarArchive(f"filler-{jar.name[:-4]}", jar.classes)
        for jar in generate_corpus(FILLER_KB, seed=seed)
    ]
    for archive in archives:
        write_jar_deterministic(archive, os.path.join(directory, f"{archive.name}.jar"))


# ---------------------------------------------------------------------------
# warm-reads: a seeded pool of reads
# ---------------------------------------------------------------------------

#: sink names and source-class prefixes the read templates draw from
_SINK_NAMES = ("exec", "lookup", "invoke", "newInstance", "getConnection", "openStream")
_SOURCE_PREFIXES = (
    None, "org.apache.commons", "org.springframework", "org.hibernate",
    "com.sun", "java.", "org.",
)
_UNIQUENESS = ("relationship_path", "node_path")
_LIMITS = (10, 20, 50)


def read_pool(seed: int) -> List[Dict[str, object]]:
    """The distinct reads, in a seeded order.

    A read is ``{"kind": "query", "cypher": ...}`` or ``{"kind":
    "chains", "max_depth", "source_filter", "uniqueness", "cap"}``.
    The mix is the same for every seed -- a quarter fast queries
    (sink-anchored join, pushdown filter, var-length ``CALL|ALIAS``,
    index-seek ``ORDER BY ... LIMIT``), half chain searches (every
    depth x uniqueness x source filter x result cap), a quarter
    full-scan ``ORDER BY ... LIMIT`` -- so the median op falls in the
    middle of the chain searches, at the same place for every seed.
    The seed picks the sink names, the sort directions and limits, and
    the order.
    """
    rng = random.Random(seed)
    chains = [
        {"kind": "chains", "max_depth": depth, "source_filter": prefix,
         "uniqueness": uniqueness, "cap": cap}
        for depth in (8, 12, 16)
        for uniqueness in _UNIQUENESS
        for prefix in _SOURCE_PREFIXES
        for cap in (20, 50, 200)
    ]
    quarter = len(chains) // 2
    fast: List[Dict[str, object]] = []
    for k in range(quarter // 3):
        order = ("caller, sink", "sink, caller")[k % 2]
        fast.append(_query(
            "MATCH (a:Method)-[c:CALL]->(b:Method {IS_SINK: true}) "
            f"RETURN a.SIGNATURE AS caller, b.NAME AS sink ORDER BY {order}"))
        fast.append(_query(
            "MATCH (a:Method)-[c:CALL]->(b:Method) "
            f"WHERE b.IS_SINK = true AND a.ARITY > {k % 3} "
            "RETURN a.SIGNATURE AS caller, b.NAME AS sink ORDER BY caller, sink"))
        fast.append(_query(
            f"MATCH (a:Method)-[:CALL|ALIAS*1..{k % 3 + 1}]->(b:Method {{IS_SINK: true}}) "
            "RETURN DISTINCT a.SIGNATURE AS caller ORDER BY caller"))
    # index seeks fill the fast quarter up; they cost about the same
    while len(fast) < quarter:
        fast.append(_query(
            f"MATCH (m:Method {{NAME: '{rng.choice(_SINK_NAMES)}'}}) RETURN m.SIGNATURE AS sig "
            f"ORDER BY sig{rng.choice(('', ' DESC'))} LIMIT {rng.choice(_LIMITS)}"))
    scans = [
        _query("MATCH (m:Method) RETURN m.SIGNATURE AS sig "
               f"ORDER BY sig{rng.choice(('', ' DESC'))} LIMIT {rng.choice(_LIMITS)}")
        for _ in range(quarter)
    ]
    pool = chains + fast + scans
    rng.shuffle(pool)
    return pool


def _query(cypher: str) -> Dict[str, object]:
    return {"kind": "query", "cypher": cypher}


def read_schedule(seed: int, pool_size: int, length: int) -> List[int]:
    """The order reads are issued in: seeded shuffles of the whole pool,
    back to back, so every read is issued equally often."""
    rng = random.Random(seed * 7919 + 1)
    out: List[int] = []
    while len(out) < length:
        block = list(range(pool_size))
        rng.shuffle(block)
        out.extend(block)
    return out[:length]


# ---------------------------------------------------------------------------
# edit-stream: a seeded Sleeping-Giants-style edit script
# ---------------------------------------------------------------------------

#: at most this many classes differ from the base version at any time;
#: beyond it the script re-adds, so the version never drifts far
MAX_EDITED = 6


def edit_targets(base: Sequence[JavaClass], specs: Sequence[ComponentSpec]) -> List[str]:
    """One class per component (the first by name) with two or more
    method bodies that no class extends or implements and that does not
    implement ``Serializable`` yet: dropping it never orphans a subclass,
    and every operator applies to it.  Components without one are left
    out.  The targets do not depend on the seed, so every run edits the
    same classes."""
    parents = set()
    for cls in base:
        if cls.super_name:
            parents.add(cls.super_name)
        parents.update(cls.interface_names)
    targets = []
    for spec in specs:
        names = sorted(
            cls.name
            for cls in spec.classes
            if cls.name not in parents
            and not cls.is_interface
            and SERIALIZABLE not in cls.interface_names
            and sum(m.has_body for m in cls.methods.values()) > 1
        )
        if names:
            targets.append(names[0])
    return targets


_EDIT_OPERATORS = ("drop_method", "drop_class", "make_serializable")


def edit_script(seed: int, targets: Sequence[str], length: int) -> List[Tuple[str, str]]:
    """``length`` edits ``(operator, class name)``, each applied to the
    version the previous edits produced (see :class:`EditState`).

    New edits visit the targets in rounds, in a seeded order per round;
    in round ``r`` target ``k`` gets operator ``(k + r) mod 3``, so each
    round holds the same edits whatever the seed.  A quarter of the
    edits (and every edit once :data:`MAX_EDITED` classes differ from
    the base) re-add a seeded choice of the edited classes.
    """
    rng = random.Random(seed * 104729 + 3)
    edited: Dict[str, str] = {}  # class -> operator that changed it
    script: List[Tuple[str, str]] = []
    pending: List[Tuple[str, str]] = []
    rounds = 0
    while len(script) < length:
        if len(edited) >= MAX_EDITED or (edited and rng.random() < 0.25):
            name = rng.choice(sorted(edited))
            del edited[name]
            script.append(("readd_class", name))
            continue
        if not pending:
            pending = [
                (_EDIT_OPERATORS[(k + rounds) % 3], name) for k, name in enumerate(targets)
            ]
            rng.shuffle(pending)
            rounds += 1
        op, name = pending.pop()
        if name in edited:  # still edited from the last round: re-add first
            del edited[name]
            script.append(("readd_class", name))
            pending.append((op, name))
            continue
        edited[name] = op
        script.append((op, name))
    return script


class EditState:
    """The current version of the edited classpath: the base classes
    with the script's edits applied so far."""

    def __init__(self, base: Sequence[JavaClass]):
        self.order = [cls.name for cls in base]
        self.base = {cls.name: cls for cls in base}
        self.current: Dict[str, Optional[JavaClass]] = dict(self.base)

    def apply(self, op: str, name: str) -> None:
        if op == "drop_class":
            self.current[name] = None
        elif op == "readd_class":
            self.current[name] = self.base[name]
        elif op == "drop_method":
            edited = copy.deepcopy(self.base[name])
            victim = [k for k, m in edited.methods.items() if m.has_body][-1]
            del edited.methods[victim]
            self.current[name] = edited
        elif op == "make_serializable":
            edited = copy.deepcopy(self.base[name])
            edited.interface_names = edited.interface_names + (SERIALIZABLE,)
            self.current[name] = edited
        else:
            raise ValueError(f"unknown edit operator {op!r}")

    def classes(self) -> List[JavaClass]:
        return [
            self.current[name] for name in self.order
            if self.current[name] is not None
        ]


# ---------------------------------------------------------------------------
# serve-mix: a seeded job mix
# ---------------------------------------------------------------------------

#: LRU capacity of the server's result store; far fewer than the
#: distinct bundles below, so evictions happen
STORE_CAPACITY = 4
_LIVE_QUERIES = (
    "MATCH (m:Method {IS_SINK: true}) RETURN m.SINK_TYPE AS type, count(*) AS n ORDER BY type",
    "MATCH (a:Method)-[c:CALL]->(b:Method {IS_SINK: true}) "
    "RETURN a.SIGNATURE AS caller, b.NAME AS sink ORDER BY caller, sink",
    "MATCH (m:Method) RETURN m.SIGNATURE AS sig ORDER BY sig LIMIT 20",
)
#: the two connections play different users, each in a closed loop:
#: one submits component bundles ("new", then a "repeat" of it: a
#: result-store hit), the other searches the live CPG ("live", "live",
#: then a "repeat" of the second).  A repeat follows its bundle's own
#: completed job, so it is always a hit; every other job is a miss,
#: since the bundles come round again only long after eviction.  The
#: live user issues most ops, and its misses are the largest op class,
#: so the median op falls inside that class for every seed.
SERVE_CYCLES = (("new", "repeat"), ("live", "live", "repeat"))


def serve_bundles(seed: int) -> List[Dict[str, object]]:
    """The distinct job bodies.  Component bundles: a seeded permutation
    of the 26 components cut into bundles of 1, 2, 3, 1, 2, 3, ...
    components, so every component is analysed equally often whatever
    the seed.  Live jobs: every option set, each with a follow-up query."""
    rng = random.Random(seed * 31337 + 5)
    order = rng.sample(COMPONENT_NAMES, len(COMPONENT_NAMES))
    bundles: List[Dict[str, object]] = []
    size = 1
    while order:
        names, order = order[:size], order[size:]
        bundles.append({"body": {"components": sorted(names)}})
        size = size % 3 + 1
    live = [(depth, prefix) for depth in (8, 12, 16) for prefix in _SOURCE_PREFIXES]
    for k, (depth, prefix) in enumerate(live):
        bundles.append({
            "body": {"live": True,
                     "options": {"max_depth": depth, "source_filter": prefix}},
            "query": _LIVE_QUERIES[k % len(_LIVE_QUERIES)],
        })
    return bundles


def serve_schedules(seed: int, bundles: Sequence[Dict[str, object]], length: int) -> List[List[int]]:
    """Per connection, the bundle indexes it submits in order, following
    :data:`SERVE_CYCLES`; each connection's bundles come round in a
    seeded order that changes every pass."""
    rng = random.Random(seed * 65537 + 7)
    pools = [
        [i for i, b in enumerate(bundles) if "components" in b["body"]],
        [i for i, b in enumerate(bundles) if "live" in b["body"]],
    ]
    schedules = []
    for cycle, pool in zip(SERVE_CYCLES, pools):
        out: List[int] = []
        queue: List[int] = []
        while len(out) < length:
            for step in cycle:
                if step == "repeat":
                    out.append(out[-1])
                    continue
                if not queue:
                    queue = rng.sample(pool, len(pool))
                out.append(queue.pop())
        schedules.append(out[:length])
    return schedules
