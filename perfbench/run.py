"""End-to-end benchmark of the Tabby reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loop; see BENCHMARK.json for why each exists):

* ``cold-audit``  -- 1 client; one op is a full audit from jar files on
  disk: load_classpath -> ClassHierarchy + CPGBuilder.build ->
  GadgetChainFinder.find_chains -> ChainRefiner(rta, taint).refine ->
  v3 save_graph -> ChainVerifier.verify_all.
* ``warm-reads``  -- 1 client; one op is a Cypher query or a chain search
  on the merged corpus's v3 snapshot, opened once with mmap.
* ``edit-stream`` -- 1 client; one op is one IncrementalAnalyzer.update()
  of a WAL-backed session, applying one seeded edit.
* ``serve-mix``   -- 2 client threads, one keep-alive connection each;
  one op is submit -> poll -> fetch against a ``tabby serve`` process.

The program runs from the ``src/`` tree next to this directory.  Every
input is generated from ``--seed``.  Set-up runs three times and the
median is reported as ``setup_s``; the last set-up is the one measured.
Every op's result is checked outside the timed region; a wrong result
is a failed op.  With ``--trace 0`` the last stdout line holds the
end-to-end metrics; with ``--trace 1`` odd-numbered ops run traced and
the line holds the per-layer metrics, including the tracing overhead.
Scratch files live in ``.perfbench_work/`` (removed at exit) and span
traces are written to ``.perfbench_out/``, both under the checkout.
Exit status: 0 when every output was correct, 1 when one was not, 2
when the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)
import harness  # noqa: E402
import metrics  # noqa: E402

SETUP_REPS = 3
WORKLOAD_NAMES = ("cold-audit", "warm-reads", "edit-stream", "serve-mix")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the program's sources are missing ({SRC}/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    info = harness.machine_info()
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"machine: nproc={info['nproc']} python={info['python']} "
          f"platform={info['platform']}")

    workdir = os.path.join(WORK_DIR, f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    # keep every temporary file of this process and its children inside
    # the checkout
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = workdir
    tracer = harness.Tracer() if args.trace else harness.NullTracer()
    workload = None
    try:
        setup_times = []
        for k in range(SETUP_REPS):
            if workload is not None:
                workload.close()
            workload = WORKLOADS[args.workload]()
            setup_dir = os.path.join(workdir, f"setup-{k}")
            os.makedirs(setup_dir)
            tracer.set_op(-1 - k)
            start = time.perf_counter()
            workload.setup(args.seed, setup_dir, tracer)
            setup_times.append(time.perf_counter() - start)
        tracer.set_op(None)
        workload.prepare_checks()
        loop = harness.run_closed_loop(
            workload.prepare, workload.op, workload.check, args.seconds,
            clients=workload.clients,
            tracer=tracer if args.trace else None,
            traced=lambda i: i % 2 == 1,
        )
        rss = workload.peak_rss_mb()
        failures = list(loop.failures)
        final = workload.finish()
        if final:
            # the end state is wrong, so no op's output can be trusted
            failures += final
            loop.failed = loop.attempted
        result = report(args, workload, loop, setup_times, rss, failures, tracer)
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def report(args, workload, loop, setup_times, rss, failures, tracer):
    untraced = loop.latencies
    p50 = statistics.median(untraced) if untraced else 0.0
    print(f"{'setup_s':<12} {statistics.median(setup_times):.6f} s   "
          f"(median of {len(setup_times)} set-ups: "
          + ", ".join(f"{t:.3f}" for t in setup_times) + ")")
    print(f"{'op_p50_s':<12} {p50:.6f} s   ({len(untraced)} untraced successful ops)")
    tail = harness.tail_percentile(untraced)
    if tail is None:
        print(f"{'op_tail_s':<12} omitted: {len(untraced)} ops, a tail needs "
              f"{2 * harness.TAIL_BEYOND}")
    else:
        pct, value, beyond = tail
        print(f"{'op_tail_s':<12} {value:.6f} s   (p{pct}, {beyond} samples beyond, "
              f"{len(untraced)} samples)")
    print(f"{'ops_per_s':<12} {loop.ops_per_s:.6f} 1/s")
    failed_frac = loop.failed / loop.attempted if loop.attempted else 1.0
    print(f"{'failed_frac':<12} {failed_frac:.6f} frac ({loop.failed} of {loop.attempted})")
    print(f"{'peak_rss_mb':<12} {rss:.3f} MB")
    for line in workload.report():
        print(line)
    for failure in failures[:20]:
        print(f"FAILED: {failure}")

    correct = not failures and loop.attempted > 0
    if not args.trace:
        values = {
            "setup_s": statistics.median(setup_times),
            "op_p50_s": p50,
            "ops_per_s": loop.ops_per_s,
            "peak_rss_mb": rss,
        }
        units = {name: unit for name, unit, _, _ in metrics.END_TO_END}
    else:
        values = layer_report(workload, loop, tracer)
        units = {name: unit for name, unit, _ in metrics.PER_LAYER}
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-s{args.seed}.json")
        tracer.write(trace_path)
        print(f"spans: {len(tracer.spans)} written to {trace_path}")
    return {
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def layer_report(workload, loop, tracer):
    """Per-layer metrics of the traced ops; 0 for a layer not called."""
    measured = workload.layer_metrics(tracer)
    unknown = set(measured) - {name for name, _, _ in metrics.PER_LAYER}
    if unknown:
        raise RuntimeError(f"metrics missing from metrics.PER_LAYER: {sorted(unknown)}")
    op_spans = [s for s in tracer.spans if s.op is not None and s.op >= 0]
    traced_ops = sum(1 for s in op_spans if s.layer == "op")
    for layer, seconds in harness.self_times(op_spans).items():
        measured[f"{layer}.self_s"] = seconds / max(1, traced_ops)
    lost, wall = harness.unaccounted(op_spans)
    measured["trace.unaccounted_s"] = lost / max(1, traced_ops)
    measured["trace.unaccounted_frac"] = lost / wall if wall else 0.0
    if loop.latencies and loop.traced_latencies:
        measured["trace.overhead_s"] = (
            statistics.median(loop.traced_latencies) - statistics.median(loop.latencies)
        )
    print(f"traced ops: {traced_ops}")
    for name, unit, _ in metrics.PER_LAYER:
        if name in measured:
            print(f"{name:<42} {measured[name]:.6g} {unit}")
    idle = [name for name, _, _ in metrics.PER_LAYER if name not in measured]
    if idle:
        print("not called on this workload (reported as 0): " + ", ".join(idle))
    return {name: float(measured.get(name, 0.0)) for name, _, _ in metrics.PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
