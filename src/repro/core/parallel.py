"""Parallel, shard-based controllability analysis.

Every controllability summary is SCC-final — a pure function of its
recursion cluster's bodies and its callees (see the determinism
contract in :mod:`repro.core.controllability`) — so the summary phase
of a CPG build shards cleanly across a ``ProcessPoolExecutor``:

1. classes are packed into ``workers * shards_per_worker`` shards with
   a deterministic greedy longest-processing-time heuristic (statement
   count as the cost proxy, names as tie-breakers);
2. each worker process holds one :class:`ClassHierarchy` over the *full*
   classpath (built once per process by the pool initialiser) and one
   memoising analysis instance shared across its shards;
3. workers return portable summary records (the codec of
   :mod:`repro.core.summary_cache`), which the parent decodes against
   its own hierarchy and merges in shard order.

The merged result is bit-identical to the serial pipeline regardless
of worker count, shard layout, or scheduling — the differential harness
in ``tests/core/test_parallel_equivalence.py`` asserts exactly that.

On platforms with ``fork`` (Linux), workers inherit the parent's parsed
classes copy-on-write and pay no serialisation cost; elsewhere the
classes are shipped once per worker as jasm text and re-parsed by the
pool initialiser.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.controllability import ControllabilityAnalysis, SummaryWork
from repro.core.summary_cache import encode_summary
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.model import JavaClass

__all__ = [
    "ParallelConfig",
    "ShardResult",
    "available_cpus",
    "plan_shards",
    "parallel_summary_records",
]


def available_cpus() -> int:
    """CPUs this process may schedule on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass(frozen=True)
class ParallelConfig:
    """Tuning knobs for the worker pool."""

    workers: int = 0  # 0 = one per available CPU
    #: shards per worker; more shards = better load balance, more merges
    shards_per_worker: int = 4
    #: chunksize handed to executor.map — shards are already coarse, so
    #: 1 keeps the queue responsive to stragglers
    chunksize: int = 1
    #: "fork"/"spawn"/None (None picks fork when available)
    start_method: Optional[str] = None

    def resolved_workers(self) -> int:
        return self.workers if self.workers > 0 else available_cpus()

    def resolved_start_method(self) -> str:
        if self.start_method is not None:
            return self.start_method
        return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


@dataclass
class ShardResult:
    """What one worker task sends back to the parent: the records plus
    the Algorithm 1 work this shard added."""

    records: List[Dict[str, object]]
    work: SummaryWork


def _class_cost(cls: JavaClass) -> int:
    """Cost proxy for shard balancing: total body statements (+1 per
    method for fixed per-method overhead)."""
    return sum(len(m.body) + 1 for m in cls.methods.values())


def plan_shards(
    classes: Sequence[JavaClass], shard_count: int
) -> List[List[str]]:
    """Deterministic greedy LPT packing of class names into at most
    ``shard_count`` shards; empty shards are dropped."""
    shard_count = max(1, shard_count)
    ranked = sorted(classes, key=lambda c: (-_class_cost(c), c.name))
    loads = [0] * shard_count
    shards: List[List[str]] = [[] for _ in range(shard_count)]
    for cls in ranked:
        target = min(range(shard_count), key=lambda i: (loads[i], i))
        shards[target].append(cls.name)
        loads[target] += _class_cost(cls)
    return [shard for shard in shards if shard]


# ---------------------------------------------------------------------------
# Worker-side state
# ---------------------------------------------------------------------------

#: parent-side stash read by forked children (copy-on-write, zero pickling)
_FORK_CLASSES: Optional[List[JavaClass]] = None

#: per-worker-process singletons, set by the pool initialiser
_WORKER_ANALYSIS: Optional[ControllabilityAnalysis] = None


def _worker_init(jasm_text: Optional[str]) -> None:
    """Build the hierarchy and analysis once per worker process."""
    global _WORKER_ANALYSIS
    if jasm_text is None:
        classes = _FORK_CLASSES
        if classes is None:  # pragma: no cover - misconfigured pool
            raise RuntimeError("fork worker started without inherited classes")
    else:
        from repro.jvm import jasm

        classes = jasm.loads(jasm_text)
    hierarchy = ClassHierarchy(classes)
    _WORKER_ANALYSIS = ControllabilityAnalysis(hierarchy)


def _analyze_shard(class_names: Sequence[str]) -> ShardResult:
    """Analyse every body-carrying method of the shard's classes, in
    canonical order, and encode the results."""
    analysis = _WORKER_ANALYSIS
    assert analysis is not None, "worker pool not initialised"
    methods = []
    for name in class_names:
        cls = analysis.hierarchy.get(name)
        if cls is None:  # pragma: no cover - shard planner uses defined names
            continue
        methods.extend(m for m in cls.methods.values() if m.has_body)
    analysis.work = SummaryWork()  # count this shard's work only
    records = [
        encode_summary(analysis.summary_for(method))
        for method in ControllabilityAnalysis.method_order(methods)
    ]
    return ShardResult(records=records, work=analysis.work)


# ---------------------------------------------------------------------------
# Parent-side driver
# ---------------------------------------------------------------------------


def parallel_summary_records(
    classes: Sequence[JavaClass],
    target_class_names: Sequence[str],
    config: ParallelConfig,
) -> Tuple[List[Dict[str, object]], SummaryWork]:
    """Analyse the methods of ``target_class_names`` across a worker
    pool over the full ``classes`` classpath.

    Returns ``(records, work)``: ``records`` covers every body-carrying
    method of the target classes, merged in deterministic shard order;
    ``work`` merges the shards' Algorithm 1 work counters.
    """
    global _FORK_CLASSES
    workers = config.resolved_workers()
    targets = [cls for cls in classes if cls.name in set(target_class_names)]
    shards = plan_shards(targets, workers * config.shards_per_worker)
    work = SummaryWork()
    if not shards:
        return [], work
    start_method = config.resolved_start_method()
    ctx = multiprocessing.get_context(start_method)
    if start_method == "fork":
        initargs: Tuple[Optional[str]] = (None,)
        _FORK_CLASSES = list(classes)
    else:
        from repro.jvm import jasm

        initargs = (jasm.dumps(classes),)
    records: List[Dict[str, object]] = []
    try:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(shards)),
            mp_context=ctx,
            initializer=_worker_init,
            initargs=initargs,
        ) as pool:
            for result in pool.map(_analyze_shard, shards, chunksize=config.chunksize):
                records.extend(result.records)
                work.merge(result.work)
    finally:
        _FORK_CLASSES = None
    return records, work
