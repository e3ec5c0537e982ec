"""Unit tests for the controllability lattice (Origins, Action, Formulas 2/4)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.actions import (
    UNCONTROLLABLE_WEIGHT,
    Action,
    Origin,
    THIS,
    UNCTRL,
    calc,
    join,
    join_actions,
    param,
    param_field,
    this_field,
    traverse_tc,
)


class TestOrigin:
    def test_weights_follow_table_v(self):
        assert UNCTRL.weight == UNCONTROLLABLE_WEIGHT
        assert THIS.weight == 0
        assert this_field("x").weight == 0
        assert param(1).weight == 1
        assert param_field(3, "f").weight == 3

    def test_action_value_strings_follow_table_iii(self):
        assert UNCTRL.action_value() == "null"
        assert THIS.action_value() == "this"
        assert this_field("b").action_value() == "this.b"
        assert param(2).action_value() == "init-param-2"
        assert param_field(2, "b").action_value() == "init-param-2.b"

    def test_round_trip_action_values(self):
        for origin in (UNCTRL, THIS, this_field("x"), param(4), param_field(1, "y")):
            assert Origin.from_action_value(origin.action_value()) == origin

    def test_bad_action_value_rejected(self):
        with pytest.raises(ValueError):
            Origin.from_action_value("final-param-1")

    def test_with_field_depth_one(self):
        assert param(1).with_field("b") == param_field(1, "b")
        # depth-1 sensitivity: a field of a field keeps the outer origin
        assert param_field(1, "b").with_field("c") == param_field(1, "b")
        assert UNCTRL.with_field("b") == UNCTRL

    def test_zero_param_rejected(self):
        with pytest.raises(ValueError):
            param(0)

    def test_join_prefers_controllable(self):
        assert join(UNCTRL, param(2)) == param(2)
        assert join(param(2), UNCTRL) == param(2)
        assert join(THIS, param(2)) == THIS
        assert join(UNCTRL, UNCTRL) == UNCTRL


class TestAction:
    def test_identity_summary(self):
        a = Action.identity(2, has_this=True)
        assert a.mapping == {
            "this": "this",
            "final-param-1": "init-param-1",
            "final-param-2": "init-param-2",
            "return": "null",
        }

    def test_static_identity_has_no_this(self):
        a = Action.identity(1, has_this=False)
        assert "this" not in a.mapping

    def test_get_origin_default_unctrl(self):
        assert Action().get_origin("return") == UNCTRL

    def test_set_and_property_round_trip(self):
        a = Action()
        a.set("return", param(1))
        assert Action(a.to_property()) == a

    def test_join_actions_only_lowers_weights(self):
        old = Action({"return": "null", "final-param-1": "init-param-2",
                      "this": "this.f", "this.x": "init-param-1"})
        new = Action({"return": "init-param-1", "final-param-1": "init-param-1",
                      "this": "this", "final-param-2": "null"})
        assert join_actions(old, new).mapping == {
            "return": "init-param-1",          # ∞ -> controllable
            "final-param-1": "init-param-1",   # weight 2 -> 1
            "this": "this.f",                  # equal weight keeps the old
            "this.x": "init-param-1",          # keys only in one side stay
            "final-param-2": "null",
        }
        # a join never raises a weight, so joining back changes nothing
        joined = join_actions(old, new)
        assert join_actions(joined, old) == joined
        assert join_actions(joined, new) == joined


class TestCalc:
    def test_figure_5_composition(self):
        """out = calc(B.Action, in) exactly as Figure 5(d)."""
        action = Action(
            {
                "final-param-1": "init-param-1",
                "final-param-1.b": "init-param-2",
                "final-param-2": "null",
                "return": "init-param-2",
                "this": "null",
            }
        )
        inputs = {"this": UNCTRL, "init-param-1": UNCTRL, "init-param-2": param(2)}
        out = calc(action, inputs)
        assert out["this"] == UNCTRL
        assert out["final-param-1"] == UNCTRL
        assert out["final-param-1.b"] == param(2)
        assert out["final-param-2"] == UNCTRL
        assert out["return"] == param(2)

    def test_missing_input_defaults_uncontrollable(self):
        action = Action({"return": "init-param-3"})
        assert calc(action, {})["return"] == UNCTRL

    def test_field_suffix_derivation(self):
        action = Action({"return": "init-param-1.x"})
        out = calc(action, {"init-param-1": this_field("y")})
        assert out["return"] == this_field("y")  # depth-1 collapse

    def test_exact_field_entry_preferred(self):
        action = Action({"return": "init-param-1.x"})
        out = calc(action, {"init-param-1": UNCTRL, "init-param-1.x": param(2)})
        assert out["return"] == param(2)


class TestTraverseTC:
    def test_formula_4(self):
        # TC [1] through PP [∞, 0] -> caller position 0
        assert traverse_tc([1], [UNCONTROLLABLE_WEIGHT, 0]) == [0]

    def test_uncontrollable_position_rejects(self):
        assert traverse_tc([1], [0, UNCONTROLLABLE_WEIGHT]) is None

    def test_out_of_range_rejects(self):
        assert traverse_tc([2], [0, 1]) is None

    def test_multi_position(self):
        assert traverse_tc([0, 1], [2, 1]) == [2, 1]

    def test_duplicate_weights_collapse(self):
        assert traverse_tc([0, 1], [1, 1]) == [1]

    def test_empty_tc_always_passes(self):
        assert traverse_tc([], [UNCONTROLLABLE_WEIGHT]) == []


@given(
    tc=st.lists(st.integers(min_value=0, max_value=5), max_size=4),
    pp=st.lists(st.integers(min_value=-1, max_value=5), max_size=6),
)
def test_property_traverse_tc_never_emits_uncontrollable(tc, pp):
    """Formula 4 either rejects or yields only controllable weights."""
    out = traverse_tc(tc, pp)
    if out is not None:
        assert all(w != UNCONTROLLABLE_WEIGHT for w in out)
        assert len(set(out)) == len(out)
