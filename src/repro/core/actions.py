"""Controllability lattice: origins, weights, Action and Polluted_Position.

This module defines the value domain of the paper's controllability
analysis (§III-C):

* **Origin** — where a variable's current value comes from: the method
  receiver (``this``), a field of the receiver (``this.x``), a method
  parameter (``init-param-i``), a field of a parameter
  (``init-param-i.x``), or nowhere attacker-reachable (``null`` /
  uncontrollable).  Origins are exactly the values of Table III.
* **Weight** — the scalar controllability weighting of Table V: ``∞``
  (uncontrollable, encoded ``-1`` for graph-property friendliness),
  ``0`` (from the caller object / its fields), or ``i ∈ [1, n]`` (from
  parameter ``i``).
* **Action** — the per-method summary property: a mapping from
  ``{this, this.x, final-param-i, final-param-i.x, return}`` to origin
  strings (Table III / Figure 5(b)).
* **Polluted_Position (PP)** — the per-call-edge property: the weight of
  the receiver (index 0) and each argument (index ``i``), e.g.
  ``[∞, ∞, 2]`` in Figure 5(c).
* :func:`calc` — Formula 2; :func:`correct` composes into the caller's
  localMap via Formula 3 (implemented in the analysis driver).
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = [
    "UNCONTROLLABLE_WEIGHT",
    "Origin",
    "UNCTRL",
    "THIS",
    "this_field",
    "param",
    "param_field",
    "Action",
    "calc",
    "join",
    "join_actions",
    "traverse_tc",
]

#: the ``∞`` weight of Table V (graph properties cannot store math.inf)
UNCONTROLLABLE_WEIGHT = -1


class Origin:
    """Immutable origin tag.

    ``kind`` is one of ``"unctrl"``, ``"this"``, ``"param"``;
    ``index`` is the 1-based parameter index for param origins;
    ``field`` is the accessed field name, or None for the base value.
    """

    __slots__ = ("kind", "index", "field")

    def __init__(self, kind: str, index: int = 0, field: Optional[str] = None):
        self.kind = kind
        self.index = index
        self.field = field

    # -- constructors ------------------------------------------------------

    def with_field(self, field: str) -> "Origin":
        """The origin of ``value.field`` given this origin of ``value``.

        One level of field sensitivity, as in the paper: a field of a
        field collapses onto the outer field's origin.
        """
        if self.kind == "unctrl":
            return UNCTRL
        if self.field is not None:
            return self  # depth-1 sensitivity: o(a.x.y) = o(a.x)
        return Origin(self.kind, self.index, field)

    # -- views --------------------------------------------------------------

    @property
    def is_controllable(self) -> bool:
        return self.kind != "unctrl"

    @property
    def weight(self) -> int:
        """Table V weighting: -1 (∞), 0 (this/field), or the param index."""
        if self.kind == "unctrl":
            return UNCONTROLLABLE_WEIGHT
        if self.kind == "this":
            return 0
        return self.index

    def action_value(self) -> str:
        """This origin as an Action *value* string (Table III)."""
        if self.kind == "unctrl":
            return "null"
        if self.kind == "this":
            return "this" if self.field is None else f"this.{self.field}"
        base = f"init-param-{self.index}"
        return base if self.field is None else f"{base}.{self.field}"

    @classmethod
    def from_action_value(cls, value: str) -> "Origin":
        """Parse an Action value string back into an origin."""
        if value == "null":
            return UNCTRL
        head, _, field = value.partition(".")
        fieldname = field or None
        if head == "this":
            return cls("this", 0, fieldname)
        if head.startswith("init-param-"):
            return cls("param", int(head[len("init-param-") :]), fieldname)
        raise ValueError(f"not an Action value: {value!r}")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Origin)
            and other.kind == self.kind
            and other.index == self.index
            and other.field == self.field
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.index, self.field))

    def __repr__(self) -> str:
        return f"Origin({self.action_value()})"


UNCTRL = Origin("unctrl")
THIS = Origin("this")


def this_field(field: str) -> Origin:
    return Origin("this", 0, field)


def param(index: int) -> Origin:
    if index < 1:
        raise ValueError("parameter origins are 1-based")
    return Origin("param", index)


def param_field(index: int, field: str) -> Origin:
    if index < 1:
        raise ValueError("parameter origins are 1-based")
    return Origin("param", index, field)


def join(a: Origin, b: Origin) -> Origin:
    """Prefer the more attacker-reachable origin (lower non-∞ weight);
    used when control-flow paths merge or a location is written twice."""
    if not a.is_controllable:
        return b
    if not b.is_controllable:
        return a
    return a if a.weight <= b.weight else b


class Action:
    """The per-method summary of §III-C: final state -> initial origin.

    Keys: ``this``, ``this.x``, ``final-param-i``, ``final-param-i.x``,
    ``return``.  Values: Action value strings per Table III.
    """

    def __init__(self, mapping: Optional[Dict[str, str]] = None):
        self.mapping: Dict[str, str] = dict(mapping or {})

    def set(self, key: str, origin: Origin) -> None:
        self.mapping[key] = origin.action_value()

    def get_origin(self, key: str) -> Origin:
        value = self.mapping.get(key)
        if value is None:
            return UNCTRL
        return Origin.from_action_value(value)

    @property
    def return_origin(self) -> Origin:
        return self.get_origin("return")

    def to_property(self) -> Dict[str, str]:
        """Graph-storable form (the Action node property).  Keys are
        sorted so the stored form is canonical: a cache round-trip yields
        byte-identical node properties."""
        return {key: self.mapping[key] for key in sorted(self.mapping)}

    @classmethod
    def identity(cls, arity: int, has_this: bool) -> "Action":
        """The conservative summary used for recursion cycles and
        body-less methods: parameters keep their initial origins, the
        return value is unknown (``null``)."""
        action = cls()
        if has_this:
            action.mapping["this"] = "this"
        for i in range(1, arity + 1):
            action.mapping[f"final-param-{i}"] = f"init-param-{i}"
        action.mapping["return"] = "null"
        return action

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Action) and other.mapping == self.mapping

    def __repr__(self) -> str:
        items = ", ".join(f"{k}: {v}" for k, v in sorted(self.mapping.items()))
        return f"Action({{{items}}})"


def join_actions(old: Action, new: Action) -> Action:
    """Per-key :func:`join` of two iterates of one method's Action; a
    key present in only one of them keeps that value.  Values change
    only to a strictly lower weight, so repeated joins terminate — the
    recursion-cluster fixpoint of :mod:`repro.core.controllability`."""
    mapping = dict(old.mapping)
    for key, value in new.mapping.items():
        kept = mapping.get(key)
        if kept is None:
            mapping[key] = value
        elif kept != value:
            mapping[key] = join(
                Origin.from_action_value(kept), Origin.from_action_value(value)
            ).action_value()
    return Action(mapping)


def calc(action: Action, inputs: Dict[str, Origin]) -> Dict[str, Origin]:
    """Formula 2: compose a callee Action with caller-side origins.

    ``inputs`` maps the callee's initial-frame keys (``this``,
    ``this.x``, ``init-param-i``, ``init-param-i.x``) to caller origins.
    Returns caller origins for the callee's final-frame keys (``this``,
    ``this.x``, ``final-param-i``, ``final-param-i.x``, ``return``).

    When an Action value has a field suffix absent from ``inputs``, the
    composition derives it from the base entry via
    :meth:`Origin.with_field` — e.g. ``return: init-param-2.x`` with
    ``init-param-2 -> this.y`` yields ``this.y`` (depth-1 sensitivity).
    """
    out: Dict[str, Origin] = {}
    for key, value in action.mapping.items():
        if value == "null":
            out[key] = UNCTRL
            continue
        exact = inputs.get(value)
        if exact is not None:
            out[key] = exact
            continue
        head, _, field = value.partition(".")
        if field:
            base = inputs.get(head)
            out[key] = base.with_field(field) if base is not None else UNCTRL
        else:
            out[key] = UNCTRL
    return out


def traverse_tc(tc: List[int], pp: List[int]) -> Optional[List[int]]:
    """Formula 4: push a Trigger_Condition through a CALL edge's PP.

    ``tc`` holds positions in the callee frame that must be controllable
    (0 = receiver, i = argument i).  The result holds the corresponding
    caller-frame weights ``{PP[x] | x in TC}``.  Returns None when any
    required position is uncontrollable (``∞``) or the PP does not cover
    it — Algorithm 2 then rejects the edge.
    """
    out: List[int] = []
    seen = set()
    for position in tc:
        if position < 0 or position >= len(pp):
            return None
        weight = pp[position]
        if weight == UNCONTROLLABLE_WEIGHT:
            return None
        if weight not in seen:
            seen.add(weight)
            out.append(weight)
    return out
