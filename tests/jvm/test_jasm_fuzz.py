"""Property-based round-trip tests for the jasm format, driven by
hypothesis over randomly composed IR programs, plus determinism
regression seeds (analysis results must not depend on visit order)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jvm import ir, jasm
from repro.jvm.builder import ProgramBuilder

_ident = st.from_regex(r"[a-z][a-zA-Z0-9]{0,6}", fullmatch=True)
_class_name = st.builds(lambda a, b: f"pkg{a}.C{b}", _ident, _ident)
_binop = st.sampled_from(sorted(ir._BINOPS))


@st.composite
def _program(draw):
    pb = ProgramBuilder(jar="fuzz.jar")
    n_classes = draw(st.integers(1, 3))
    made = []
    for ci in range(n_classes):
        name = f"fuzz.pkg.C{ci}"
        with pb.cls(name, implements=(["java.io.Serializable"] if draw(st.booleans()) else [])) as c:
            if draw(st.booleans()):
                c.field(draw(_ident), "java.lang.Object")
            n_methods = draw(st.integers(1, 3))
            for mi in range(n_methods):
                params = ["java.lang.Object"] * draw(st.integers(0, 2))
                with c.method(f"m{mi}", params=params, returns="java.lang.Object") as m:
                    pool = [m.param(i) for i in range(1, len(params) + 1)]
                    for si in range(draw(st.integers(0, 6))):
                        kind = draw(st.integers(0, 7))
                        if kind == 0:
                            pool.append(m.new(draw(_class_name)))
                        elif kind == 1 and pool:
                            pool.append(m.get_field(draw(st.sampled_from(pool)), draw(_ident)))
                        elif kind == 2 and pool:
                            m.set_field(m.this, draw(_ident), draw(st.sampled_from(pool)))
                        elif kind == 3 and pool:
                            out = m.invoke(
                                draw(st.sampled_from(pool)), draw(_class_name),
                                draw(_ident), [], returns="java.lang.Object",
                            )
                            pool.append(out)
                        elif kind == 4:
                            pool.append(m.binop(draw(_binop), draw(st.integers(-9, 9)), 1))
                        elif kind == 5 and pool:
                            label = f"L{ci}{mi}{si}"
                            m.if_eq(draw(st.sampled_from(pool)), 0, label)
                            m.nop()
                            m.label(label)
                        elif kind == 6:
                            pool.append(m.cast(draw(st.text(alphabet="abc", min_size=1, max_size=4)), "java.lang.String"))
                        else:
                            arr = m.new_array("java.lang.Object", draw(st.integers(0, 4)))
                            m.array_set(arr, 0, draw(st.sampled_from(pool)) if pool else 1)
                            pool.append(m.array_get(arr, 0))
                    m.ret(draw(st.sampled_from(pool)) if pool else None)
        made.append(name)
    return pb.build()


@settings(max_examples=40, deadline=None)
@given(_program())
def test_property_jasm_round_trip_is_fixed_point(classes):
    """dump -> parse -> dump is a fixed point for any built program."""
    once = jasm.dumps(classes)
    twice = jasm.dumps(jasm.loads(once))
    assert once == twice


@settings(max_examples=20, deadline=None)
@given(_program())
def test_property_parsed_program_analyses_cleanly(classes):
    """Parsed programs behave identically under the full analysis."""
    from repro.core import Tabby

    reparsed = jasm.loads(jasm.dumps(classes))
    a = Tabby().add_classes(classes).build_cpg()
    b = Tabby().add_classes(reparsed).build_cpg()
    assert a.statistics.method_node_count == b.statistics.method_node_count
    assert a.statistics.relationship_edge_count == b.statistics.relationship_edge_count


# ---------------------------------------------------------------------------
# Determinism regression seeds
# ---------------------------------------------------------------------------


def _mutual_recursion_program():
    """A minimal A <-> B recursion cycle whose call sites stay live
    (param-derived receivers), so the analysis must break the cycle."""
    pb = ProgramBuilder(jar="seed.jar")
    for name, other in (("det.A", "det.B"), ("det.B", "det.A")):
        with pb.cls(name) as c:
            c.field("next", "java.lang.Object")
            with c.method("step", params=["java.lang.Object"],
                          returns="java.lang.Object") as m:
                out = m.invoke(m.param(1), other, "step", [m.param(1)],
                               returns="java.lang.Object")
                m.set_field(m.this, "next", out)
                m.ret(out)
    return pb.build()


def _summary_view(summary):
    return (
        summary.action.to_property(),
        [(s.callee_class, s.callee_name, tuple(s.polluted_position), s.pruned)
         for s in summary.call_sites],
    )


def test_seed_mutual_recursion_is_visit_order_independent():
    """Regression seed: under memoise-everything semantics, whichever
    cycle member was visited first kept a summary computed against the
    other's provisional identity — so A-first and B-first runs diverged.
    SCC-final settling makes both orders identical."""
    from repro.core.controllability import ControllabilityAnalysis
    from repro.jvm.hierarchy import ClassHierarchy

    classes = _mutual_recursion_program()
    views = []
    for order in (("det.A", "det.B"), ("det.B", "det.A")):
        analysis = ControllabilityAnalysis(ClassHierarchy(classes))
        for class_name in order:
            cls = analysis.hierarchy.get(class_name)
            for method in cls.methods.values():
                if method.has_body:
                    analysis.summary_for(method)
        summaries = analysis.analyze_all()
        views.append({k: _summary_view(s) for k, s in summaries.items()})
        # the seed must actually contain a cycle: A.step and B.step
        # form one SCC
        assert analysis.work.largest_scc_size == 2
    assert views[0] == views[1]


def test_seed_shuffled_class_order_builds_identical_cpg():
    """Shuffling the classpath order must not change the built graph —
    node IDs included (summary/edge iteration is explicitly sorted)."""
    from repro.core.cpg import CPGBuilder
    from repro.jvm.hierarchy import ClassHierarchy

    classes = _mutual_recursion_program()

    def fingerprint(ordered):
        cpg = CPGBuilder(ClassHierarchy(ordered)).build()
        nodes = [(n.id, tuple(sorted(n.labels)),
                  tuple(sorted((k, repr(v)) for k, v in n.properties.items())))
                 for n in cpg.graph.nodes()]
        edges = [(r.type, r.start_id, r.end_id,
                  tuple(sorted((k, repr(v)) for k, v in r.properties.items())))
                 for r in cpg.graph.relationships()]
        return nodes, edges

    baseline = fingerprint(sorted(classes, key=lambda c: c.name))
    rng = random.Random(7)
    for _ in range(4):
        shuffled = list(classes)
        rng.shuffle(shuffled)
        assert fingerprint(shuffled) == baseline
