"""Unit tests for Algorithm 1 beyond the Figure 5 walkthrough."""

import hashlib
import json
import random

import pytest

from repro.core.actions import UNCONTROLLABLE_WEIGHT
from repro.core.controllability import ControllabilityAnalysis
from repro.corpus import COMPONENT_NAMES, build_component, build_lang_base
from repro.jvm.builder import ProgramBuilder
from repro.jvm.hierarchy import ClassHierarchy


def analyze(build_fn):
    pb = ProgramBuilder()
    build_fn(pb)
    hierarchy = ClassHierarchy(pb.build())
    return ControllabilityAnalysis(hierarchy).analyze_all()


def summary(summaries, cls, name):
    return next(
        s
        for s in summaries.values()
        if s.method.class_name == cls and s.method.name == name
    )


class TestIntraprocedural:
    def test_this_field_load_weight_zero(self):
        def build(pb):
            with pb.cls("t.C") as c:
                c.field("f", "java.lang.Object")
                with c.method("m") as m:
                    v = m.get_field(m.this, "f")
                    m.invoke(v, "java.lang.Object", "toString", returns="java.lang.String")

        s = summary(analyze(build), "t.C", "m")
        (site,) = [c for c in s.call_sites if c.callee_name == "toString"]
        assert site.polluted_position[0] == 0

    def test_param_weight_is_index(self):
        def build(pb):
            with pb.cls("t.C") as c:
                with c.method("m", params=["int", "java.lang.Object"]) as m:
                    m.invoke(m.param(2), "java.lang.Object", "toString", returns="java.lang.String")

        s = summary(analyze(build), "t.C", "m")
        assert s.call_sites[0].polluted_position[0] == 2

    def test_new_destroys_controllability(self):
        def build(pb):
            with pb.cls("t.C") as c:
                with c.method("m", params=["java.lang.Object"]) as m:
                    p = m.param(1)
                    m.assign(p, m.new("t.C"))
                    m.invoke(p, "java.lang.Object", "toString", returns="java.lang.String")

        s = summary(analyze(build), "t.C", "m")
        assert s.call_sites[0].polluted_position[0] == UNCONTROLLABLE_WEIGHT

    def test_cast_passes_through(self):
        def build(pb):
            with pb.cls("t.C") as c:
                with c.method("m", params=["java.lang.Object"]) as m:
                    v = m.cast(m.param(1), "java.lang.String")
                    m.invoke(v, "java.lang.String", "trim", returns="java.lang.String")

        s = summary(analyze(build), "t.C", "m")
        assert s.call_sites[0].polluted_position[0] == 1

    def test_string_constants_uncontrollable(self):
        def build(pb):
            with pb.cls("t.C") as c:
                with c.method("m") as m:
                    rt = m.invoke_static("java.lang.Runtime", "getRuntime", returns="java.lang.Runtime")
                    m.invoke(rt, "java.lang.Runtime", "exec", ["fixed command"])

        s = summary(analyze(build), "t.C", "m")
        exec_site = [c for c in s.call_sites if c.callee_name == "exec"][0]
        assert exec_site.polluted_position == [
            UNCONTROLLABLE_WEIGHT,
            UNCONTROLLABLE_WEIGHT,
        ]
        assert exec_site.pruned

    def test_array_element_tracking(self):
        def build(pb):
            with pb.cls("t.C") as c:
                with c.method("m", params=["java.lang.Object"]) as m:
                    arr = m.new_array("java.lang.Object", 1)
                    m.array_set(arr, 0, m.param(1))
                    v = m.array_get(arr, 0)
                    m.invoke(v, "java.lang.Object", "toString", returns="java.lang.String")

        s = summary(analyze(build), "t.C", "m")
        assert s.call_sites[0].polluted_position[0] == 1

    def test_param_array_element_controllable(self):
        def build(pb):
            with pb.cls("t.C") as c:
                with c.method("m", params=["java.lang.Object[]"]) as m:
                    v = m.array_get(m.param(1), 0)
                    m.invoke(v, "java.lang.Object", "toString", returns="java.lang.String")

        s = summary(analyze(build), "t.C", "m")
        assert s.call_sites[0].polluted_position[0] == 1

    def test_static_field_within_body(self):
        def build(pb):
            with pb.cls("t.C") as c:
                c.field("shared", "java.lang.Object", static=True)
                with c.method("m", params=["java.lang.Object"]) as m:
                    m.set_static("t.C", "shared", m.param(1))
                    v = m.get_static("t.C", "shared")
                    m.invoke(v, "java.lang.Object", "toString", returns="java.lang.String")

        s = summary(analyze(build), "t.C", "m")
        assert s.call_sites[0].polluted_position[0] == 1

    def test_static_field_default_uncontrollable(self):
        def build(pb):
            with pb.cls("t.C") as c:
                c.field("shared", "java.lang.Object", static=True)
                with c.method("m") as m:
                    v = m.get_static("t.C", "shared")
                    m.invoke(v, "java.lang.Object", "toString", returns="java.lang.String")

        s = summary(analyze(build), "t.C", "m")
        assert s.call_sites[0].pruned

    def test_branches_join_controllably(self):
        """A value controllable on one branch stays flagged (this is the
        source of Tabby's conditional false positives, §IV-E)."""

        def build(pb):
            with pb.cls("t.C") as c:
                with c.method("m", params=["java.lang.Object", "int"]) as m:
                    v = m.local("v")
                    m.assign(v, m.new("t.C"))
                    m.if_eq(m.param(2), 0, "keep")
                    m.assign(v, m.param(1))
                    m.label("keep")
                    m.invoke(v, "java.lang.Object", "toString", returns="java.lang.String")

        s = summary(analyze(build), "t.C", "m")
        assert s.call_sites[0].polluted_position[0] == 1


class TestInterprocedural:
    def test_taint_through_callee_return(self):
        def build(pb):
            with pb.cls("t.C") as c:
                with c.method("helper", params=["java.lang.Object"], returns="java.lang.Object") as m:
                    m.ret(m.param(1))
                with c.method("m", params=["java.lang.Object"]) as m:
                    v = m.invoke(m.this, "t.C", "helper", [m.param(1)], returns="java.lang.Object")
                    m.invoke(v, "java.lang.Object", "toString", returns="java.lang.String")

        s = summary(analyze(build), "t.C", "m")
        toString = [c for c in s.call_sites if c.callee_name == "toString"][0]
        assert toString.polluted_position[0] == 1

    def test_taint_destroyed_by_callee(self):
        """The precision win over GadgetInspector/Serianalyzer (§III-C):
        a callee that replaces its parameter's content must not leave the
        caller believing the value is still controllable."""

        def build(pb):
            with pb.cls("t.C") as c:
                with c.method("scrub", params=["java.lang.Object"], returns="java.lang.Object") as m:
                    fresh = m.new("t.C")
                    m.ret(fresh)
                with c.method("m", params=["java.lang.Object"]) as m:
                    v = m.invoke(m.this, "t.C", "scrub", [m.param(1)], returns="java.lang.Object")
                    m.invoke(v, "java.lang.Object", "toString", returns="java.lang.String")

        s = summary(analyze(build), "t.C", "m")
        toString = [c for c in s.call_sites if c.callee_name == "toString"][0]
        assert toString.polluted_position[0] == UNCONTROLLABLE_WEIGHT
        assert toString.pruned

    def test_callee_field_write_visible_in_caller(self):
        def build(pb):
            with pb.cls("t.Holder") as c:
                c.field("v", "java.lang.Object")
            with pb.cls("t.C") as c:
                with c.method(
                    "store", params=["t.Holder", "java.lang.Object"]
                ) as m:
                    m.set_field(m.param(1), "v", m.param(2))
                with c.method("m", params=["java.lang.Object"]) as m:
                    h = m.construct("t.Holder")
                    m.invoke(m.this, "t.C", "store", [h, m.param(1)])
                    v = m.get_field(h, "v")
                    m.invoke(v, "java.lang.Object", "toString", returns="java.lang.String")

        s = summary(analyze(build), "t.C", "m")
        toString = [c for c in s.call_sites if c.callee_name == "toString"][0]
        assert toString.polluted_position[0] == 1

    def test_recursion_terminates_with_identity_summary(self):
        def build(pb):
            with pb.cls("t.C") as c:
                with c.method("loop", params=["java.lang.Object"], returns="java.lang.Object") as m:
                    v = m.invoke(m.this, "t.C", "loop", [m.param(1)], returns="java.lang.Object")
                    m.ret(v)

        summaries = analyze(build)
        s = summary(summaries, "t.C", "loop")
        assert s.action.mapping["return"] == "null"

    def test_mutual_recursion_terminates(self):
        def build(pb):
            with pb.cls("t.C") as c:
                with c.method("ping", params=["java.lang.Object"], returns="java.lang.Object") as m:
                    v = m.invoke(m.this, "t.C", "pong", [m.param(1)], returns="java.lang.Object")
                    m.ret(v)
                with c.method("pong", params=["java.lang.Object"], returns="java.lang.Object") as m:
                    v = m.invoke(m.this, "t.C", "ping", [m.param(1)], returns="java.lang.Object")
                    m.ret(v)

        summaries = analyze(build)
        assert summary(summaries, "t.C", "ping") is not None

    def test_phantom_callee_passes_taint_through_receiver(self):
        def build(pb):
            with pb.cls("t.C") as c:
                with c.method("m", params=["java.lang.Object"]) as m:
                    v = m.invoke(m.param(1), "java.lang.Object", "toString", returns="java.lang.String")
                    rt = m.invoke_static("java.lang.Runtime", "getRuntime", returns="java.lang.Runtime")
                    m.invoke(rt, "java.lang.Runtime", "exec", [v])

        s = summary(analyze(build), "t.C", "m")
        exec_site = [c for c in s.call_sites if c.callee_name == "exec"][0]
        assert exec_site.polluted_position == [UNCONTROLLABLE_WEIGHT, 1]

    def test_pruned_sites_counted(self):
        def build(pb):
            with pb.cls("t.C") as c:
                with c.method("m") as m:
                    obj = m.new("t.C")
                    m.invoke(obj, "java.lang.Object", "toString", returns="java.lang.String")

        s = summary(analyze(build), "t.C", "m")
        assert all(c.pruned for c in s.call_sites)
        assert s.live_call_sites == []

    def test_dynamic_call_recorded_but_unresolved(self):
        def build(pb):
            with pb.cls("t.C") as c:
                with c.method("m", params=["java.lang.Object"]) as m:
                    m.invoke_dynamic(m.param(1), "anything")

        s = summary(analyze(build), "t.C", "m")
        assert s.call_sites[0].kind == "dynamic"
        assert s.call_sites[0].resolved is None


# ---------------------------------------------------------------------------
# SCC scheduling: one walk per acyclic method, fixpoint per cluster
# ---------------------------------------------------------------------------


def summaries_digest(summaries):
    """sha256 over every Action and every call site's PP/pruned flag."""
    view = [
        [
            key,
            s.action.to_property(),
            [
                [c.site_index, c.callee_class, c.callee_name, c.arity,
                 c.polluted_position, c.pruned]
                for c in s.call_sites
            ],
        ]
        for key, s in summaries.items()
    ]
    return hashlib.sha256(json.dumps(view, sort_keys=True).encode()).hexdigest()


#: ``summaries_digest`` of the merged 26-component corpus under the
#: root-final memo this scheduler replaced: the SCC fixpoint changes no
#: Action and no call-site PP on the corpus
MERGED_CORPUS_DIGEST = (
    "ed39f3783624633f62acb2c50da9cb186c4c1ec663a88544c1ac10813ae4705d"
)


@pytest.fixture(scope="module")
def merged_hierarchy():
    classes = build_lang_base()
    for name in COMPONENT_NAMES:
        classes += build_component(name).classes
    return ClassHierarchy(classes)


class TestSccSchedule:
    def test_merged_corpus_summaries_are_pinned(self, merged_hierarchy):
        summaries = ControllabilityAnalysis(merged_hierarchy).analyze_all()
        assert summaries_digest(summaries) == MERGED_CORPUS_DIGEST

    def test_walks_scale_with_methods(self, merged_hierarchy):
        analysis = ControllabilityAnalysis(merged_hierarchy)
        analysis.analyze_all()
        body_methods = sum(
            m.has_body for m in merged_hierarchy.all_methods()
        )
        work = analysis.work
        assert work.method_analyses <= 1.2 * body_methods
        # the Serianalyzer bomb's 30-method cliques are real SCCs
        assert work.largest_scc_size == 30
        assert work.largest_scc_passes >= 1

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_in_scc_visit_order_is_irrelevant(self, merged_hierarchy, order):
        rng = random.Random(13)

        def permute(members):
            out = list(reversed(members))
            if order == "shuffled":
                rng.shuffle(out)
            return out

        summaries = ControllabilityAnalysis(
            merged_hierarchy, scc_order=permute
        ).analyze_all()
        assert summaries_digest(summaries) == MERGED_CORPUS_DIGEST

    def test_cluster_settles_against_later_partner(self):
        """t.C.f sorts before t.C.g but returns g's result: the first
        pass sees g's identity Action (return null), so only a second
        pass gets f right — and f's call sites come from that pass."""

        def build(pb):
            with pb.cls("t.C") as c:
                with c.method("f", params=["java.lang.Object"],
                              returns="java.lang.Object") as m:
                    r = m.invoke(m.this, "t.C", "g", [m.param(1)],
                                 returns="java.lang.Object")
                    m.invoke(r, "java.lang.Object", "toString",
                             returns="java.lang.String")
                    m.ret(r)
                with c.method("g", params=["java.lang.Object"],
                              returns="java.lang.Object") as m:
                    m.invoke(m.this, "t.C", "f", [m.param(1)],
                             returns="java.lang.Object")
                    m.ret(m.param(1))

        pb = ProgramBuilder()
        build(pb)
        analysis = ControllabilityAnalysis(ClassHierarchy(pb.build()))
        summaries = analysis.analyze_all()
        f = summary(summaries, "t.C", "f")
        assert f.action.mapping["return"] == "init-param-1"
        (to_string,) = [c for c in f.call_sites if c.callee_name == "toString"]
        assert to_string.polluted_position == [1] and not to_string.pruned
        assert analysis.work.largest_scc_size == 2
        assert analysis.work.largest_scc_passes == 3
        assert analysis.work.method_analyses == 6

    def test_join_keeps_the_most_controllable_iterate(self):
        """Iterates are joined from the second pass on: once t.D.f's
        return was init-param-1, a later pass in which g's real Action
        overwrites f's parameter with an uncontrollable value cannot
        raise the weight back to ∞ — the over-approximating direction,
        and the reason the passes terminate."""

        def build(pb):
            with pb.cls("t.D") as c:
                with c.method("f", params=["java.lang.Object"],
                              returns="java.lang.Object") as m:
                    fresh = m.new("t.D")
                    m.invoke(m.this, "t.D", "g", [m.param(1), fresh])
                    m.ret(m.param(1))
                with c.method("g", params=["java.lang.Object",
                                           "java.lang.Object"]) as m:
                    m.invoke(m.this, "t.D", "f", [m.param(1)],
                             returns="java.lang.Object")
                    m.assign(m.param(1), m.param(2))

        pb = ProgramBuilder()
        build(pb)
        analysis = ControllabilityAnalysis(ClassHierarchy(pb.build()))
        summaries = analysis.analyze_all()
        assert summary(summaries, "t.D", "g").action.mapping[
            "final-param-1"] == "init-param-2"
        assert summary(summaries, "t.D", "f").action.mapping[
            "return"] == "init-param-1"
        assert analysis.work.largest_scc_passes == 2

    def test_deep_acyclic_chain_needs_no_recursion(self):
        """10^4 nested calls: the schedule keeps its own stack."""
        depth, per_class = 10_000, 100
        pb = ProgramBuilder()

        def owner(i):
            return f"t.Chain{i // per_class}"

        for k in range(depth // per_class):
            with pb.cls(f"t.Chain{k}") as c:
                for i in range(k * per_class, (k + 1) * per_class):
                    with c.method(f"m{i}", params=["java.lang.Object"],
                                  returns="java.lang.Object") as m:
                        if i + 1 < depth:
                            out = m.invoke(m.param(1), owner(i + 1), f"m{i + 1}",
                                           [m.param(1)], returns="java.lang.Object")
                            m.ret(out)
                        else:
                            m.ret(m.param(1))
        hierarchy = ClassHierarchy(pb.build())
        analysis = ControllabilityAnalysis(hierarchy)
        root = hierarchy.get("t.Chain0").find_method("m0", 1)
        s = analysis.summary_for(root)
        # the leaf's parameter flows all the way back to the root
        assert s.action.mapping["return"] == "init-param-1"
        assert s.call_sites[0].polluted_position == [1, 1]
        assert analysis.work.method_analyses == depth

    def test_large_clique_settles(self):
        size = 200
        pb = ProgramBuilder()
        with pb.cls("t.Clique") as c:
            c.field("f", "java.lang.Object")
            for i in range(size):
                with c.method(f"s{i}", params=["java.lang.Object"],
                              returns="java.lang.Object") as m:
                    out = m.param(1)
                    for j in range(size):
                        if j != i:
                            out = m.invoke(m.this, "t.Clique", f"s{j}", [out],
                                           returns="java.lang.Object")
                    m.ret(out)
        analysis = ControllabilityAnalysis(ClassHierarchy(pb.build()))
        summaries = analysis.analyze_all()
        assert len(summaries) == size
        assert analysis.work.largest_scc_size == size
        assert analysis.work.scc_count == 1
