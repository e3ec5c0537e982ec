"""The metric catalogue: every name the benchmark reports, with its unit.

``BENCHMARK.json`` lists the same end-to-end and per-layer metrics;
``test_harness.py`` checks that the two agree.
"""

#: end-to-end metrics printed in the final JSON line of an untraced run:
#: (name, unit, better, bound)
#: The time bounds are the largest allowed: on a shared 2-vCPU machine the
#: same set-up work takes 2.1 s in one run and 3.3 s in another.  The
#: ``serve-mix`` server keeps every job it ran, so its peak RSS follows the
#: number of ops a run completes.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("op_p50_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
)

# ``op_tail_s`` and ``failed_frac`` are printed by name but kept out of
# the JSON line: the tail is omitted when a run has too few operations,
# and failed_frac is 0 on a healthy run (the JSON line carries
# ``attempted`` and ``failed`` instead).

#: the layers, by module name, that the traced run attributes time to
LAYERS = (
    "jvm",
    "core.controllability",
    "core.cpg",
    "core.pathfinder",
    "analysis",
    "verify",
    "graphdb.storage",
    "graphdb.query",
    "core.incremental",
    "graphdb.wal",
    "serve",
)

#: per-layer metrics of a traced run: (name, unit, better).  Times and
#: counts are means per call of the named layer function unless noted in
#: ``workloads.py``; a layer a workload does not call reports 0.
PER_LAYER = (
    ("jvm.load_classpath_s", "s", "lower"),
    ("jvm.classes_loaded", "count", "higher"),
    ("core.cpg.build_s", "s", "lower"),
    ("core.controllability.summaries_s", "s", "lower"),
    ("core.controllability.analyzed_methods", "count", "lower"),
    ("core.cpg.org_s", "s", "lower"),
    ("core.cpg.pcg_s", "s", "lower"),
    ("core.cpg.mag_s", "s", "lower"),
    ("core.cpg.nodes", "count", "lower"),
    ("core.cpg.rels", "count", "lower"),
    ("core.cpg.pruned_call_sites", "count", "higher"),
    ("core.pathfinder.search_s", "s", "lower"),
    ("core.pathfinder.paths_visited", "count", "lower"),
    ("core.pathfinder.chains", "count", "higher"),
    ("core.pathfinder.negative_cache_hits", "count", "higher"),
    ("core.pathfinder.reachability_pruned", "count", "higher"),
    ("graphdb.query_s", "s", "lower"),
    ("graphdb.query.rows", "count", "lower"),
    ("graphdb.storage.save_s", "s", "lower"),
    ("graphdb.storage.snapshot_bytes", "B", "lower"),
    ("graphdb.storage.open_s", "s", "lower"),
    ("analysis.refine_s", "s", "lower"),
    ("analysis.refuted_frac", "frac", "higher"),
    ("verify.poc_s", "s", "lower"),
    ("verify.effective_frac", "frac", "higher"),
    ("verify.steps_used", "count", "lower"),
    ("core.incremental.update_s", "s", "lower"),
    ("core.incremental.dirty_s", "s", "lower"),
    ("core.incremental.summaries_s", "s", "lower"),
    ("core.incremental.patch_s", "s", "lower"),
    ("core.incremental.renumber_s", "s", "lower"),
    ("core.incremental.search_s", "s", "lower"),
    ("core.incremental.unphased_s", "s", "lower"),
    ("core.incremental.sinks_researched_frac", "frac", "lower"),
    ("core.incremental.full_rebuilds", "count", "lower"),
    ("graphdb.wal.bytes_per_update", "B", "lower"),
    ("serve.start_s", "s", "lower"),
    ("serve.submit_s", "s", "lower"),
    ("serve.queue_wait_s", "s", "lower"),
    ("serve.run_s", "s", "lower"),
    ("serve.fetch_s", "s", "lower"),
    ("serve.store_hit_frac", "frac", "higher"),
    ("serve.store_evicted", "count", "lower"),
    ("serve.summary_cache_hit_frac", "frac", "higher"),
    ("serve.refused", "count", "lower"),
) + tuple(
    # the benchmark makes no call into graphdb.wal (updates journal
    # inside core.incremental), so that layer has no self time of its own
    (f"{layer}.self_s", "s", "lower") for layer in LAYERS if layer != "graphdb.wal"
) + (
    ("trace.unaccounted_s", "s", "lower"),
    ("trace.unaccounted_frac", "frac", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
