"""Workload-independent parts of the benchmark: the closed-loop driver,
the percentile rule, span tracing and process measurements."""

from __future__ import annotations

import json
import math
import os
import platform
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: the tail percentile must leave at least this many samples beyond it
TAIL_BEYOND = 10


def tail_percentile(samples: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """The highest percentile with at least :data:`TAIL_BEYOND` samples
    beyond it, as ``(percentile, value, samples_beyond)``.

    Nearest-rank: percentile ``p`` of ``n`` sorted samples is the
    ``ceil(p/100 * n)``-th; the samples beyond it are the rest.  The
    percentile is floored to one decimal.  ``None`` when that
    percentile would fall below the median (fewer than
    ``2 * TAIL_BEYOND`` samples), where a "tail" says nothing.
    """
    n = len(samples)
    if n < 2 * TAIL_BEYOND:
        return None
    p = math.floor(1000 * (n - TAIL_BEYOND) / n) / 10
    rank = math.ceil(round(p * n / 100, 9))
    ordered = sorted(samples)
    return p, ordered[rank - 1], n - rank


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


@dataclass
class Span:
    """One timed call into a layer.  ``derived`` spans are phases the
    program timed itself (e.g. ``CPGStatistics.phase_seconds``), placed
    inside their parent so self time is not double counted."""

    id: int
    layer: str
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    op: Optional[int] = None
    derived: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder.  Spans nest per thread; every span of one
    operation carries that operation's id.  Nothing is written until
    :meth:`write` is called at the end of the run."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: per-call counters keyed by metric name (e.g. rows per query)
        self.samples: Dict[str, List[float]] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, layer: str, name: str) -> Iterator[Span]:
        stack = self._stack()
        with self._lock:
            span = Span(
                id=len(self.spans), layer=layer, name=name, start=0.0,
                parent=stack[-1].id if stack else None,
                op=getattr(self._local, "op", None),
            )
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def derived(self, parent: Span, layer: str, name: str, seconds: float) -> None:
        """Record a phase the program timed inside ``parent``."""
        with self._lock:
            self.spans.append(Span(
                id=len(self.spans), layer=layer, name=name,
                start=parent.start, end=parent.start + seconds,
                parent=parent.id, op=parent.op, derived=True,
            ))

    def sample(self, metric: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(metric, []).append(value)

    def set_op(self, op: Optional[int]) -> None:
        self._local.op = op

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({
                "spans": [asdict(s) for s in self.spans],
                "samples": self.samples,
            }, fh)


class NullTracer(Tracer):
    """The untraced path: same interface, records nothing."""

    enabled = False

    @contextmanager
    def span(self, layer: str, name: str) -> Iterator[None]:
        yield None

    def derived(self, parent: Any, layer: str, name: str, seconds: float) -> None:
        pass

    def sample(self, metric: str, value: float) -> None:
        pass

    def set_op(self, op: Optional[int]) -> None:
        pass


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-layer self time: each span's duration minus the durations of
    its direct children.  Spans of layer ``op`` (the operation roots)
    are skipped; their self time is the unaccounted share."""
    child_time: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration
    out: Dict[str, float] = {}
    for span in spans:
        if span.layer == "op":
            continue
        own = span.duration - child_time.get(span.id, 0.0)
        out[span.layer] = out.get(span.layer, 0.0) + own
    return out


def unaccounted(spans: Sequence[Span]) -> Tuple[float, float]:
    """``(seconds, op wall seconds)``: the part of the operations' wall
    time that no layer span covers, summed over operations."""
    roots = {s.id: s for s in spans if s.layer == "op"}
    covered: Dict[int, float] = {}
    for span in spans:
        if span.parent in roots:
            covered[span.parent] = covered.get(span.parent, 0.0) + span.duration
    wall = sum(r.duration for r in roots.values())
    return wall - sum(covered.values()), wall


# ---------------------------------------------------------------------------
# the closed-loop driver
# ---------------------------------------------------------------------------


@dataclass
class LoopResult:
    """Outcome of one timed closed-loop run."""

    latencies: List[float] = field(default_factory=list)  # successful ops
    traced_latencies: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: seconds each client spent inside operations (checks excluded)
    busy: List[float] = field(default_factory=list)

    @property
    def ops_per_s(self) -> float:
        timed = max(self.busy) if self.busy else 0.0
        return (self.attempted - self.failed) / timed if timed else 0.0


def run_closed_loop(
    prepare: Callable[[int, int], Any],
    op: Callable[[int, Any, Tracer], Any],
    check: Callable[[int, Any, Tracer], Optional[str]],
    seconds: float,
    clients: int = 1,
    tracer: Optional[Tracer] = None,
    traced: Callable[[int], bool] = lambda i: False,
) -> LoopResult:
    """Run operations back to back from ``clients`` threads for ``seconds``.

    Each client issues its next operation only when the previous one
    returned.  For global operation number ``i`` issued by client ``c``,
    ``prepare(i, c)`` builds the operation's input untimed; ``op(i, prepared, tracer)`` is the
    timed region.  ``check(i, result, tracer)`` then runs outside the
    timed region and returns ``None`` or a failure message: a wrong
    result or a raised exception counts as a failed operation and its
    time is not recorded as a success.  Operations with ``traced(i)``
    run under ``tracer`` inside an ``op`` root span; the rest untraced.
    """
    result = LoopResult(busy=[0.0] * clients)
    lock = threading.Lock()
    counter = iter(range(sys.maxsize))
    null = NullTracer()
    deadline = time.perf_counter() + seconds

    def client(slot: int) -> None:
        while time.perf_counter() < deadline:
            with lock:
                i = next(counter)
            use_trace = tracer is not None and traced(i)
            t = tracer if use_trace else null
            error: Optional[str] = None
            value: Any = None
            t.set_op(i)
            try:
                prepared = prepare(i, slot)
            except Exception as exc:
                raise RuntimeError(f"preparing op {i} failed") from exc
            start = time.perf_counter()
            try:
                if use_trace:
                    with t.span("op", f"op-{i}"):
                        value = op(i, prepared, t)
                else:
                    value = op(i, prepared, t)
            except Exception as exc:  # a failed op, not a failed run
                error = f"op {i}: {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if error is None:
                try:
                    error = check(i, value, t)
                except Exception as exc:
                    error = f"op {i}: check raised {type(exc).__name__}: {exc}"
            t.set_op(None)
            with lock:
                result.attempted += 1
                result.busy[slot] += elapsed
                if error is None:
                    (result.traced_latencies if use_trace else result.latencies).append(elapsed)
                else:
                    result.failed += 1
                    result.failures.append(error)

    if clients == 1:
        client(0)
    else:
        threads = [threading.Thread(target=client, args=(k,)) for k in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return result


# ---------------------------------------------------------------------------
# process measurements
# ---------------------------------------------------------------------------


def peak_rss_mb(pid: str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, from ``/proc``."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def machine_info() -> Dict[str, Any]:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


FileState = Tuple[int, int, int]  # (inode, size, mtime_ns)


def dir_state(directory: str) -> Dict[str, FileState]:
    """``{file: (inode, size, mtime_ns)}`` for the files in a directory."""
    out = {}
    for name in os.listdir(directory):
        st = os.stat(os.path.join(directory, name))
        out[name] = (st.st_ino, st.st_size, st.st_mtime_ns)
    return out


def bytes_written(before: Dict[str, FileState], after: Dict[str, FileState]) -> int:
    """Bytes written between two :func:`dir_state` readings: a new or
    replaced file (new inode) counts its whole size, a file appended to
    in place its growth, a file rewritten in place its new size."""
    total = 0
    for name, (ino, size, mtime) in after.items():
        old = before.get(name)
        if old is None or old[0] != ino:
            total += size
        elif old[2] != mtime:
            total += size - old[1] if size > old[1] else size
    return total
