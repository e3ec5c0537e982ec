"""Differential harness: every CPG build mode reproduces the plain one.

The determinism contract (SCC-final summaries, see
``repro.core.controllability``) promises that seeding the summary
phase from the on-disk cache changes *nothing* — not just the chain
results but the entire graph: node IDs, labels, properties (including
ACTION), edge endpoints, POLLUTED_POSITION arrays, and pruning
decisions are bit-identical.

The quick tests here run on the two structurally nastiest components
(a Serianalyzer recursion bomb and a deep known-chain component); the
``slow``-marked sweep covers every Table IX component at both cache
temperatures.
"""

import pytest

from repro.core.cpg import CPGBuilder
from repro.core.summary_cache import SummaryCache
from repro.corpus import COMPONENT_NAMES, build_component, build_lang_base
from repro.jvm.hierarchy import ClassHierarchy

QUICK_COMPONENTS = ("Clojure", "CommonsBeanutils1")


def component_classes(name):
    return build_lang_base() + build_component(name).classes


def build_cpg(classes, cache_dir=None):
    cache = SummaryCache(cache_dir) if cache_dir is not None else None
    return CPGBuilder(ClassHierarchy(classes), cache=cache).build()


def graph_fingerprint(cpg):
    """The entire graph, raw IDs included: equality here means the two
    builds performed identical node/edge creation sequences."""
    graph = cpg.graph
    nodes = [
        (node.id, tuple(sorted(node.labels)),
         tuple(sorted((k, repr(v)) for k, v in node.properties.items())))
        for node in graph.nodes()
    ]
    edges = [
        (rel.type, rel.start_id, rel.end_id,
         tuple(sorted((k, repr(v)) for k, v in rel.properties.items())))
        for rel in graph.relationships()
    ]
    return nodes, edges


def summary_fingerprint(cpg):
    """Actions, PP arrays, and pruning decisions per method."""
    return {
        key: (
            summary.action.to_property(),
            [
                (site.kind, site.callee_class, site.callee_name, site.arity,
                 tuple(site.polluted_position), site.pruned, site.site_index)
                for site in summary.call_sites
            ],
        )
        for key, summary in cpg.summaries.items()
    }


def assert_identical(candidate, serial):
    assert summary_fingerprint(candidate) == summary_fingerprint(serial)
    c_nodes, c_edges = graph_fingerprint(candidate)
    s_nodes, s_edges = graph_fingerprint(serial)
    assert c_nodes == s_nodes
    assert c_edges == s_edges
    assert (
        candidate.statistics.pruned_call_sites
        == serial.statistics.pruned_call_sites
    )


@pytest.fixture(scope="module", params=QUICK_COMPONENTS)
def corpus(request):
    classes = component_classes(request.param)
    return classes, build_cpg(classes)


def test_cold_cache_matches_serial(corpus, tmp_path):
    classes, serial = corpus
    cold = build_cpg(classes, cache_dir=str(tmp_path / "cache"))
    assert_identical(cold, serial)


def test_warm_cache_matches_serial(corpus, tmp_path):
    classes, serial = corpus
    cache_dir = str(tmp_path / "cache")
    build_cpg(classes, cache_dir=cache_dir)  # populate
    warm = build_cpg(classes, cache_dir=cache_dir)
    assert warm.statistics.cache_hits > 0
    assert_identical(warm, serial)


@pytest.mark.slow
@pytest.mark.parametrize("name", COMPONENT_NAMES)
def test_full_component_sweep(name, tmp_path):
    """Every Table IX component, every mode, one barrier of truth."""
    classes = component_classes(name)
    serial = build_cpg(classes)
    cache_dir = str(tmp_path / "cache")
    for label, candidate in [
        ("cold-cache", build_cpg(classes, cache_dir=cache_dir)),
        ("warm-cache", build_cpg(classes, cache_dir=cache_dir)),
    ]:
        try:
            assert_identical(candidate, serial)
        except AssertionError as exc:  # pragma: no cover - diagnostic aid
            raise AssertionError(f"{name}: {label} diverged from serial") from exc
