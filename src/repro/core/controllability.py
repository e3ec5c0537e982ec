"""Variable controllability analysis — Algorithm 1 of the paper.

For every method the analysis walks the method's CFG in reverse
post-order and tracks, per variable, *where its current value
originates* (the Origin lattice of :mod:`repro.core.actions`).  The
walk implements ``doAssignStmtAnalysis`` (the transfer rules of
Table IV) and, at method-call statements, the interprocedural step:

1. compute the call's **Polluted_Position** from the origins of the
   receiver and arguments (Figure 5(c)),
2. look up the callee's **Action** summary (``doMethodAnalysis``,
   memoised — "the Action property also serves as a caching
   mechanism"; callees are settled before their callers),
3. ``out = calc(Action, in)`` (Formula 2) and fold ``out`` back into
   the caller's localMap (``correct``, Formula 3).

Call sites whose PP is all-``∞`` are *pruned* — they can never carry
attacker data, so the Precise Call Graph drops them (this is the MCG →
PCG step of §III-B2 and the path-explosion mitigation of §III-C).

Determinism contract
--------------------

Every summary is *SCC-final*: a pure function of the bodies of its
strongly connected component (SCC) in the static call graph — the
``resolve_method`` targets of every non-dynamic invoke — and the final
summaries of the SCCs it calls.  :func:`repro.core.scc.settle_cone`
schedules the work bottom-up, callees first:

* a method outside any recursion cycle is walked exactly once, against
  final callee summaries;
* a recursion cluster (a cyclic SCC) is settled by Gauss-Seidel passes
  over its members in sorted-signature order, starting every member
  from the identity Action.  From the second pass on each new iterate
  is *joined* into the previous one (:func:`~repro.core.actions.join_actions`),
  so per-key weights only fall and the passes terminate.  The pass
  that changes nothing is the fixpoint; its call sites are recorded.

Nothing about a summary depends on which method was requested first,
on what else was analysed in the same run, or on call-chain depth (the
scheduler keeps an explicit stack), which is exactly the property that
lets the persisted classes of :mod:`repro.core.summary_cache` and the
seeded summaries of :mod:`repro.core.incremental` reproduce a cold
build bit for bit.  Seeded summaries must cover whole SCCs (see
:meth:`ControllabilityAnalysis.seed_summaries`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import AnalysisError
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
)
from repro.core.scc import settle_cone
from repro.jvm import ir
from repro.jvm.cfg import build_cfg
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.model import JavaMethod

__all__ = ["CallSite", "MethodSummary", "ControllabilityAnalysis", "SummaryWork"]


@dataclass
class CallSite:
    """One method-call statement with its controllability details."""

    caller: JavaMethod
    kind: str
    callee_class: str
    callee_name: str
    arity: int
    #: PP[0] = receiver weight (∞ for static calls), PP[i] = argument i
    polluted_position: List[int]
    #: statically resolved callee, when the hierarchy knows one
    resolved: Optional[JavaMethod]
    #: True when every PP entry is ∞ — dropped from the PCG
    pruned: bool
    #: order of appearance inside the caller body (for chain reporting)
    site_index: int = 0

    @property
    def callee_key(self) -> Tuple[str, str, int]:
        return (self.callee_class, self.callee_name, self.arity)

    def __repr__(self) -> str:
        state = "pruned" if self.pruned else "live"
        return (
            f"<CallSite {self.caller.class_name}.{self.caller.name} -> "
            f"{self.callee_class}.{self.callee_name}/{self.arity} "
            f"PP={self.polluted_position} {state}>"
        )


@dataclass
class MethodSummary:
    """Analysis output for one method."""

    method: JavaMethod
    action: Action
    call_sites: List[CallSite] = field(default_factory=list)

    @property
    def live_call_sites(self) -> List[CallSite]:
        return [c for c in self.call_sites if not c.pruned]


@dataclass
class SummaryWork:
    """What one analysis spent: body walks (fixpoint re-walks included),
    SCCs settled, and the size and pass count of the largest SCC."""

    method_analyses: int = 0
    scc_count: int = 0
    largest_scc_size: int = 0
    largest_scc_passes: int = 0

    def note_scc(self, size: int, passes: int) -> None:
        self.scc_count += 1
        if size > self.largest_scc_size:
            self.largest_scc_size = size
            self.largest_scc_passes = passes


class _LocalMap:
    """The localMap of Algorithm 1: variable and field origins.

    Keys are syntactic, exactly as in Figure 5(c): local names
    (``a2``), field paths (``a.b``), static paths
    (``some.Class.flag``), and array contents (``a.[]``).
    """

    def __init__(self) -> None:
        self.vars: Dict[str, Origin] = {}
        self.fields: Dict[str, Origin] = {}  # "<local>.<field>" keys

    def get_var(self, name: str) -> Origin:
        return self.vars.get(name, UNCTRL)

    def set_var(self, name: str, origin: Origin) -> None:
        self.vars[name] = origin

    def kill_fields_of(self, name: str) -> None:
        """A rebound local no longer aliases its old field entries."""
        prefix = name + "."
        for key in [k for k in self.fields if k.startswith(prefix)]:
            del self.fields[key]

    def copy_fields(self, src: str, dst: str) -> None:
        prefix = src + "."
        for key, origin in list(self.fields.items()):
            if key.startswith(prefix):
                self.fields[dst + "." + key[len(prefix) :]] = origin

    def get_field(self, base: str, fieldname: str, base_origin: Origin) -> Origin:
        """``a = b.f``: a tracked entry wins, otherwise derive from the
        base origin (a field of attacker data is attacker data)."""
        tracked = self.fields.get(f"{base}.{fieldname}")
        if tracked is not None:
            return tracked
        return base_origin.with_field(fieldname)

    def set_field(self, base: str, fieldname: str, origin: Origin) -> None:
        self.fields[f"{base}.{fieldname}"] = origin

    def fields_of(self, base: str) -> Dict[str, Origin]:
        prefix = base + "."
        return {
            key[len(prefix) :]: origin
            for key, origin in self.fields.items()
            if key.startswith(prefix)
        }


class ControllabilityAnalysis:
    """Runs Algorithm 1 over all methods of a class hierarchy.

    ``scc_order`` lets tests permute the in-SCC visit order of the
    fixpoint passes (the default is sorted-signature order)."""

    def __init__(
        self,
        hierarchy: ClassHierarchy,
        scc_order: Optional[
            Callable[[List[JavaMethod]], List[JavaMethod]]
        ] = None,
    ):
        self.hierarchy = hierarchy
        self.scc_order = scc_order
        self._summaries: Dict[str, MethodSummary] = {}
        #: the Action every call analysis composes with: final for a
        #: settled method, the current iterate inside the SCC in flight
        self._actions: Dict[str, Action] = {}
        #: memoised ``resolve_method`` per (class, name, arity)
        self._resolved: Dict[
            Tuple[str, str, int], Optional[Tuple[JavaMethod, str]]
        ] = {}
        self.work = SummaryWork()

    # -- public API -------------------------------------------------------

    def analyze_all(self) -> Dict[str, MethodSummary]:
        """Analyse every method with a body; returns summaries keyed by
        full signature string, in sorted key order."""
        return self.analyze_methods(self.hierarchy.all_methods())

    def analyze_methods(
        self, methods: Iterable[JavaMethod]
    ) -> Dict[str, MethodSummary]:
        """Analyse the given methods (plus anything they transitively
        require) in sorted-signature order; returns *all* memoised
        summaries in sorted key order."""
        for method in sorted(methods, key=lambda m: m.signature.signature):
            if method.has_body:
                self.summary_for(method)
        return {key: self._summaries[key] for key in sorted(self._summaries)}

    def seed_summaries(self, summaries: Iterable[MethodSummary]) -> None:
        """Install externally computed final summaries (from the on-disk
        cache or a previous incremental version).
        Seeded values must have been produced by this class over the
        same SCC bodies and callees, and must cover whole SCCs: a
        partly seeded recursion cluster would settle its remaining
        members against fixed partner values instead of the joint
        fixpoint."""
        for summary in summaries:
            key = summary.method.signature.signature
            self._summaries[key] = summary
            self._actions[key] = summary.action

    def summary_for(self, method: JavaMethod) -> MethodSummary:
        """doMethodAnalysis with memoisation (the Action cache)."""
        key = method.signature.signature
        cached = self._summaries.get(key)
        if cached is not None:
            return cached
        if not method.has_body:
            return MethodSummary(method, self._phantom_action(method))
        settle_cone(
            (key, method),
            self._callees,
            lambda k, _m: k in self._summaries,
            self._settle,
        )
        return self._summaries[key]

    # -- SCC scheduling ---------------------------------------------------

    def _resolve(
        self, invoke: ir.InvokeExpr
    ) -> Optional[Tuple[JavaMethod, str]]:
        """The statically resolved callee of a non-dynamic invoke and
        its signature key, memoised per (class, name, arity)."""
        site = (invoke.class_name, invoke.method_name, invoke.arity)
        if site in self._resolved:
            return self._resolved[site]
        method = self.hierarchy.resolve_method(*site)
        found = None if method is None else (method, method.signature.signature)
        self._resolved[site] = found
        return found

    def _callees(self, method: JavaMethod) -> List[Tuple[str, JavaMethod]]:
        """Call-graph successors: body-carrying resolved targets."""
        out: Dict[str, JavaMethod] = {}
        for invoke in ir.iter_invoke_exprs(method.body):
            if invoke.kind == ir.InvokeKind.DYNAMIC:
                continue
            found = self._resolve(invoke)
            if found is not None and found[0].has_body:
                out[found[1]] = found[0]
        return sorted(out.items())

    def _settle(
        self, component: List[Tuple[str, JavaMethod]], cyclic: bool
    ) -> None:
        """Final summaries for one SCC whose callees are all settled."""
        if not cyclic:
            ((key, method),) = component
            summary = self._do_method_analysis(method)
            self._actions[key] = summary.action
            self._summaries[key] = summary
            self.work.note_scc(1, 1)
            return
        members = sorted(component)
        if self.scc_order is not None:
            members = [
                (m.signature.signature, m)
                for m in self.scc_order([m for _, m in members])
            ]
        for key, method in members:
            self._actions[key] = Action.identity(method.arity, not method.is_static)
        walked: Dict[str, MethodSummary] = {}
        passes = 0
        changed = True
        while changed:
            passes += 1
            changed = False
            for key, method in members:
                summary = self._do_method_analysis(method)
                action = summary.action
                if passes > 1:
                    action = join_actions(self._actions[key], action)
                if action != self._actions[key]:
                    self._actions[key] = action
                    changed = True
                walked[key] = summary
        for key, method in members:
            self._summaries[key] = MethodSummary(
                method, self._actions[key], walked[key].call_sites
            )
        self.work.note_scc(len(members), passes)

    # -- phantom / body-less methods ----------------------------------------

    def _phantom_action(self, method: JavaMethod) -> Action:
        """Summary for abstract/native/undefined methods: parameters are
        unchanged and the return value is assumed to derive from the
        receiver when one exists, else from the first parameter.  This
        is the paper's bias for unknown library code — without a body,
        taint is assumed to pass through (§III-C notes the opposite
        default in GadgetInspector/Serianalyzer *for analysed code*
        causes false positives; for truly unknown code there is no
        better option than pass-through)."""
        action = Action.identity(method.arity, not method.is_static)
        if not method.is_static:
            action.mapping["return"] = "this"
        elif method.arity >= 1:
            action.mapping["return"] = "init-param-1"
        return action

    # -- Algorithm 1 ---------------------------------------------------------

    def _do_method_analysis(self, method: JavaMethod) -> MethodSummary:
        self.work.method_analyses += 1
        cfg = build_cfg(method)
        local_map = _LocalMap()
        summary = MethodSummary(method, Action())
        param_locals: Dict[int, str] = {}
        this_local: Optional[str] = None
        return_origins: List[Origin] = []

        for stmt in cfg.linearized_statements():
            if isinstance(stmt, ir.IdentityStmt):
                if isinstance(stmt.ref, ir.ThisRef):
                    this_local = stmt.local.name
                    local_map.set_var(stmt.local.name, THIS)
                else:
                    param_locals[stmt.ref.index] = stmt.local.name
                    local_map.set_var(stmt.local.name, param(stmt.ref.index))
            elif isinstance(stmt, ir.ReturnStmt):
                if stmt.value is not None:
                    return_origins.append(self._value_origin(stmt.value, local_map))
            elif stmt.invoke_expr() is not None:
                self._do_call_analysis(stmt, local_map, summary)
            elif isinstance(stmt, ir.AssignStmt):
                self._do_assign_stmt_analysis(stmt, local_map)
            # if/goto/switch/throw/nop do not move data

        self._extract_action(
            summary, local_map, this_local, param_locals, return_origins, method
        )
        return summary

    # -- doAssignStmtAnalysis: Table IV transfer rules --------------------------

    def _value_origin(self, value: ir.Value, local_map: _LocalMap) -> Origin:
        if isinstance(value, ir.Local):
            return local_map.get_var(value.name)
        if isinstance(value, ir.InstanceFieldRef):
            base_origin = local_map.get_var(value.base.name)
            return local_map.get_field(value.base.name, value.field_name, base_origin)
        if isinstance(value, ir.StaticFieldRef):
            # Table IV: Class.field -> a; only a same-body store makes it
            # controllable, otherwise static state is not attacker data.
            return local_map.fields.get(
                f"{value.class_name}.{value.field_name}", UNCTRL
            )
        if isinstance(value, ir.ArrayRef):
            base_origin = local_map.get_var(value.base.name)
            return local_map.get_field(value.base.name, "[]", base_origin)
        if isinstance(value, ir.CastExpr):
            return self._value_origin(value.op, local_map)
        if isinstance(value, ir.BinOpExpr):
            return join(
                self._value_origin(value.left, local_map),
                self._value_origin(value.right, local_map),
            )
        if isinstance(value, (ir.NewExpr, ir.NewArrayExpr, ir.InstanceOfExpr)):
            return UNCTRL
        if isinstance(value, ir.Constant):
            return UNCTRL
        if isinstance(value, (ir.ThisRef,)):
            return THIS
        if isinstance(value, ir.ParamRef):
            return param(value.index)
        raise AnalysisError(f"cannot compute origin of {value!r}")

    def _do_assign_stmt_analysis(
        self, stmt: ir.AssignStmt, local_map: _LocalMap
    ) -> None:
        origin = self._value_origin(stmt.rhs, local_map)
        target = stmt.target
        if isinstance(target, ir.Local):
            local_map.set_var(target.name, origin)
            local_map.kill_fields_of(target.name)
            if isinstance(stmt.rhs, ir.Local):
                local_map.copy_fields(stmt.rhs.name, target.name)
        elif isinstance(target, ir.InstanceFieldRef):
            local_map.set_field(target.base.name, target.field_name, origin)
        elif isinstance(target, ir.StaticFieldRef):
            local_map.fields[f"{target.class_name}.{target.field_name}"] = origin
        elif isinstance(target, ir.ArrayRef):
            existing = local_map.fields.get(f"{target.base.name}.[]", UNCTRL)
            local_map.set_field(target.base.name, "[]", join(existing, origin))

    # -- interprocedural step ------------------------------------------------------

    def _do_call_analysis(
        self, stmt: ir.Statement, local_map: _LocalMap, summary: MethodSummary
    ) -> None:
        invoke = stmt.invoke_expr()
        assert invoke is not None

        # Polluted_Position: receiver weight then argument weights.
        if invoke.base is None:
            base_origin = UNCTRL
            base_name: Optional[str] = None
        else:
            base_origin = self._value_origin(invoke.base, local_map)
            base_name = invoke.base.name if isinstance(invoke.base, ir.Local) else None
        arg_origins = [self._value_origin(a, local_map) for a in invoke.args]
        pp = [base_origin.weight] + [o.weight for o in arg_origins]
        pruned = all(w == UNCONTROLLABLE_WEIGHT for w in pp)
        # Even when every top-level position is ∞, a tracked *field* of
        # the receiver or an argument may be controllable (the Figure 5
        # localMap keeps a.b: 2 while a itself is ∞); the interprocedural
        # composition must still run then, or getter results lose taint.
        compose = not pruned
        if not compose:
            operands = [invoke.base] + list(invoke.args)
            for operand in operands:
                if isinstance(operand, ir.Local) and any(
                    origin.is_controllable
                    for origin in local_map.fields_of(operand.name).values()
                ):
                    compose = True
                    break

        found = None
        if invoke.kind != ir.InvokeKind.DYNAMIC:
            found = self._resolve(invoke)
        resolved = found[0] if found is not None else None

        site = CallSite(
            caller=summary.method,
            kind=invoke.kind,
            callee_class=invoke.class_name,
            callee_name=invoke.method_name,
            arity=invoke.arity,
            polluted_position=pp,
            resolved=resolved,
            pruned=pruned,
            site_index=len(summary.call_sites),
        )
        summary.call_sites.append(site)

        result_origin = UNCTRL
        if compose:
            # Interprocedural composition (calc + correct).
            if resolved is not None and resolved.has_body:
                # settled callee or, inside a cycle, the current iterate
                action = self._actions[found[1]]
            elif resolved is not None:
                action = self._phantom_action(resolved)
            else:
                # Phantom callee: synthesise from the invocation shape.
                action = self._phantom_invoke_action(invoke)
            inputs = self._build_inputs(
                invoke, base_origin, base_name, arg_origins, local_map
            )
            out = calc(action, inputs)
            self._correct(local_map, out, invoke, base_name)
            result_origin = out.get("return", UNCTRL)

        if isinstance(stmt, ir.AssignStmt) and isinstance(stmt.target, ir.Local):
            local_map.set_var(stmt.target.name, result_origin)
            local_map.kill_fields_of(stmt.target.name)

    def _phantom_invoke_action(self, invoke: ir.InvokeExpr) -> Action:
        has_this = invoke.base is not None
        action = Action.identity(invoke.arity, has_this)
        if has_this:
            action.mapping["return"] = "this"
        elif invoke.arity >= 1:
            action.mapping["return"] = "init-param-1"
        return action

    def _build_inputs(
        self,
        invoke: ir.InvokeExpr,
        base_origin: Origin,
        base_name: Optional[str],
        arg_origins: Sequence[Origin],
        local_map: _LocalMap,
    ) -> Dict[str, Origin]:
        """The ``in`` map of Figure 5(d): callee initial frame -> caller
        origins, including tracked field entries."""
        inputs: Dict[str, Origin] = {"this": base_origin}
        if base_name is not None:
            for fieldname, origin in local_map.fields_of(base_name).items():
                inputs[f"this.{fieldname}"] = origin
        for i, origin in enumerate(arg_origins, start=1):
            inputs[f"init-param-{i}"] = origin
            arg = invoke.args[i - 1]
            if isinstance(arg, ir.Local):
                for fieldname, forigin in local_map.fields_of(arg.name).items():
                    inputs[f"init-param-{i}.{fieldname}"] = forigin
        return inputs

    def _correct(
        self,
        local_map: _LocalMap,
        out: Dict[str, Origin],
        invoke: ir.InvokeExpr,
        base_name: Optional[str],
    ) -> None:
        """Formula 3: fold the callee's final-frame origins back into the
        caller's localMap entries for the receiver and argument locals."""
        for key, origin in out.items():
            if key == "return":
                continue
            head, _, fieldname = key.partition(".")
            if head == "this":
                target = base_name
            elif head.startswith("final-param-"):
                index = int(head[len("final-param-") :])
                if index > len(invoke.args):
                    continue
                arg = invoke.args[index - 1]
                target = arg.name if isinstance(arg, ir.Local) else None
            else:
                continue
            if target is None:
                continue
            if fieldname:
                local_map.set_field(target, fieldname, origin)
            else:
                local_map.set_var(target, origin)

    # -- Action extraction -------------------------------------------------------

    def _extract_action(
        self,
        summary: MethodSummary,
        local_map: _LocalMap,
        this_local: Optional[str],
        param_locals: Dict[int, str],
        return_origins: List[Origin],
        method: JavaMethod,
    ) -> None:
        action = summary.action
        if this_local is not None:
            action.set("this", local_map.get_var(this_local))
            for fieldname, origin in local_map.fields_of(this_local).items():
                action.set(f"this.{fieldname}", origin)
        for index, local in param_locals.items():
            action.set(f"final-param-{index}", local_map.get_var(local))
            for fieldname, origin in local_map.fields_of(local).items():
                action.set(f"final-param-{index}.{fieldname}", origin)
        if return_origins:
            merged = return_origins[0]
            for origin in return_origins[1:]:
                merged = join(merged, origin)
            action.set("return", merged)
        elif not method.return_type.is_void:
            action.set("return", UNCTRL)
