"""Search-scaling benchmark: the optimized gadget-chain engine vs baseline.

Two workloads, both rooted in the full 26-component Table IX corpus:

* **pure corpus** — the merged corpus CPG exactly as built.  Its search
  space is small (a few hundred visited paths), so it serves as the
  identity barrier: in every Uniqueness mode the optimized engine must
  return a chain list bit-identical to the baseline engine, or this
  script exits non-zero.

* **augmented corpus** — the same CPG plus "library bulk": decoy CALL
  lattices attached to a real sink, mimicking what dominates real-world
  classpaths (Table X's classes.jar is millions of edges, almost all of
  them irrelevant to any source).  One diamond lattice is
  source-*unreachable* (the reachability prune refuses it at the first
  backward step); one is reachable-but-dead behind an uncontrollable
  Polluted_Position (the negative cache collapses its exponential
  path enumeration to linear).  The decoys add **zero** chains — the
  augmented chain list must equal the pure-corpus list, which is also
  asserted — so baseline-vs-optimized on this workload measures exactly
  the cost the optimizations exist to remove.

Timings and speedups are recorded to ``BENCH_search.json``.  The full
run asserts the optimized engine is >=3x faster than baseline on the
augmented corpus; ``--smoke`` shrinks the lattices and skips the
speedup assertion (identity is always enforced), which is what CI runs.
"""

import argparse
import json
import sys
import time

sys.path.insert(0, "src")

from repro.core.cpg import CALL, CPGBuilder
from repro.core.pathfinder import GadgetChainFinder
from repro.corpus import COMPONENT_NAMES, build_component, build_lang_base
from repro.graphdb.traversal import Uniqueness
from repro.jvm.hierarchy import ClassHierarchy
from repro.serve.app import available_cpus

REPETITIONS = 3


def build_corpus_cpg():
    classes = build_lang_base()
    for name in COMPONENT_NAMES:
        classes += build_component(name).classes
    return CPGBuilder(ClassHierarchy(classes)).build()


def chain_fingerprint(chains):
    return [
        (
            tuple(step.qualified for step in chain.steps),
            chain.sink_category,
            tuple(chain.trigger_condition),
        )
        for chain in chains
    ]


def decoy_method(graph, name):
    return graph.create_node(
        ["Method"],
        {
            "NAME": name,
            "CLASSNAME": "bulk.Library",
            "ARITY": 1,
            "IS_SOURCE": False,
            "IS_SINK": False,
        },
    )


def decoy_call(graph, caller, callee, pp):
    graph.create_relationship(
        CALL, caller, callee, {"POLLUTED_POSITION": pp, "KIND": "virtual"}
    )


def attach_lattice(graph, sink, tag, width, depth, reachable_via=None):
    """A diamond CALL lattice feeding ``sink``: layer 0 calls the sink,
    each layer-d node is called by two layer-(d+1) nodes, so the
    backward search enumerates ~width * 2**depth dead paths.

    With ``reachable_via`` (a source node), the source "calls" the top
    layer with an *uncontrollable* PP: forward reachability marks the
    whole lattice live, but the backward TC propagation rejects the
    final hop — reachable, dead, and exponential unless the negative
    cache collapses it.
    """
    layers = []
    for d in range(depth + 1):
        layers.append(
            [decoy_method(graph, f"{tag}_{d}_{k}") for k in range(width)]
        )
    for node in layers[0]:
        decoy_call(graph, node, sink, [0, 0])
    for d in range(depth):
        for k in range(width):
            decoy_call(graph, layers[d + 1][k], layers[d][k], [0, 0])
            decoy_call(graph, layers[d + 1][(k + 1) % width], layers[d][k], [0, 0])
    if reachable_via is not None:
        for node in layers[depth]:
            decoy_call(graph, reachable_via, node, [-1, -1])


def build_augmented_cpg(width, depth):
    cpg = build_corpus_cpg()
    sink = cpg.sink_nodes()[0]
    source = cpg.source_nodes()[0]
    attach_lattice(cpg.graph, sink, "unreach", width, depth)
    attach_lattice(cpg.graph, sink, "dead", width, depth, reachable_via=source)
    return cpg


def timed_search(cpg, repetitions=REPETITIONS, **kwargs):
    best = float("inf")
    chains = stats = None
    for _ in range(repetitions):
        finder = GadgetChainFinder(cpg, **kwargs)
        started = time.perf_counter()
        chains = finder.find_chains()
        best = min(best, time.perf_counter() - started)
        stats = finder.last_search_stats
    return best, chain_fingerprint(chains), stats


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small lattices, identity checks only (no speedup assertion)",
    )
    parser.add_argument("--output", default="BENCH_search.json")
    args = parser.parse_args(argv)

    width, depth = (2, 6) if args.smoke else (2, 15)
    max_depth = depth + 4
    failures = []
    report = {
        "benchmark": "search_scaling",
        "mode": "smoke" if args.smoke else "full",
        "cpus": available_cpus(),
        "lattice": {"width": width, "depth": depth},
        "max_depth": max_depth,
        "identity": {},
        "timings": {},
    }

    print("building merged 26-component corpus CPG ...")
    cpg = build_corpus_cpg()

    # -- identity barrier: pure corpus, every mode
    for mode in Uniqueness:
        _, base, _ = timed_search(cpg, repetitions=1, uniqueness=mode, optimize=False)
        _, opt, _ = timed_search(cpg, repetitions=1, uniqueness=mode, optimize=True)
        ok = base == opt
        report["identity"][mode.name] = {"chains": len(base), "identical": ok}
        if not ok:
            failures.append(f"chain set mismatch on pure corpus ({mode.name})")
        print(f"  identity {mode.name:<18} {len(base)} chains  "
              f"{'OK' if ok else 'MISMATCH'}")

    # -- pure corpus timings (small search space; recorded, not asserted)
    base_s, base_chains, _ = timed_search(cpg, optimize=False)
    opt_s, opt_chains, _ = timed_search(cpg, optimize=True)
    report["timings"]["corpus"] = {
        "baseline_s": base_s,
        "optimized_s": opt_s,
        "chains": len(base_chains),
    }
    print(f"pure corpus: baseline {base_s * 1000:.1f}ms, "
          f"optimized {opt_s * 1000:.1f}ms, {len(base_chains)} chains")

    # -- augmented corpus: where the library bulk lives
    print(f"building augmented corpus (decoy lattices width={width}, "
          f"depth={depth}) ...")
    aug = build_augmented_cpg(width, depth)
    _, pure_ref, _ = timed_search(
        cpg, repetitions=1, max_depth=max_depth, max_results_per_sink=None
    )
    runs = {}
    search_args = {"max_depth": max_depth, "max_results_per_sink": None}
    runs["baseline"] = timed_search(aug, optimize=False, **search_args)
    runs["optimized"] = timed_search(aug, optimize=True, **search_args)
    baseline_s = runs["baseline"][0]
    for label, (seconds, chains, stats) in runs.items():
        speedup = baseline_s / seconds if seconds else float("inf")
        report["timings"][label] = {
            "seconds": seconds,
            "speedup_vs_baseline": speedup,
            "chains": len(chains),
            "paths_visited": stats.paths_visited,
            "reachability_pruned": stats.reachability_pruned,
            "negative_cache_hits": stats.negative_cache_hits,
        }
        print(f"  {label:<18} {seconds:8.3f}s  {speedup:6.2f}x  "
              f"visited={stats.paths_visited}")
        if chains != runs["baseline"][1]:
            failures.append(f"chain set mismatch on augmented corpus ({label})")
        if chains != pure_ref:
            failures.append(
                f"decoy lattices changed the chain set ({label}) — "
                "they must be search-invariant"
            )

    speedup = baseline_s / runs["optimized"][0]
    report["speedup"] = speedup
    if not args.smoke and speedup < 3.0:
        failures.append(
            f"expected >=3x optimized speedup on augmented corpus, "
            f"got {speedup:.2f}x"
        )

    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"wrote {args.output}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"optimized engine: {speedup:.1f}x vs baseline — all chain sets "
          "identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
