"""Interprocedural field-sensitive taint summaries.

The CPG's per-edge ``POLLUTED_POSITION`` arrays (§III-C) record which
argument slots of each call *could* carry attacker data, judged one
method at a time.  This module computes something stronger: a
per-method **pollution transfer function** — for every method, which of
its input channels (receiver, receiver fields, parameters) can flow to
its return value, into the heap, and into each call site it contains —
by running a taint lattice through :mod:`repro.jvm.dataflow`'s worklist
engine and composing callee summaries bottom-up over the strongly
connected components of the call graph.

Taint values
------------

A taint value is either the distinguished top element :data:`TAINT_TOP`
("may be attacker-controlled through channels we do not track") or a
frozenset of *channels*, each naming an input of the summarised method:

* ``(0, None)`` — the receiver (``this``);
* ``(0, f)``    — field ``f`` of the receiver (depth-1 field
  sensitivity, matching the paper's ``this.field`` pollution sources);
* ``(i, None)`` — the i-th parameter (1-based, like ``@param-i``).

The empty frozenset is *untainted*: provably not attacker-controlled no
matter what the caller passes.  Join is set union with TOP absorbing.
Refutation logic only ever trusts the empty set — TOP and any non-empty
channel set count as "possibly polluted" — so every approximation in
this module errs toward keeping chains.

Field trust
-----------

:class:`FieldFacts` classifies instance-field names over the whole
analysed closure: a field is **trusted** when every declaration of that
name is ``transient`` *and* reference-typed *and* no statement anywhere
stores to it — deserialization repopulates such fields with a trusted
instance of the declared type (exactly the semantics of the
verification oracle in :mod:`repro.verify.poc`), so reading one yields
clean data.  A field stored *anywhere* reads as TOP (no may-alias
reasoning); anything else collapses the base's channels (reading ``f``
off the receiver yields ``(0, f)``).  Primitive transient fields are
deliberately *not* trusted: the oracle lets attacker bytes through for
them.

Summaries are cached on disk with the same content-hash keying as the
controllability summary cache (:mod:`repro.core.summary_cache`); the
cache token additionally folds in a digest of the field facts, which
are a whole-closure property not covered by per-class dependency
closures.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.scc import settle_cone
from repro.core.summary_cache import SummaryCache, dependency_closures
from repro.jvm import ir
from repro.jvm.cfg import ControlFlowGraph, build_cfg
from repro.jvm.dataflow import DataflowAnalysis, run_analysis
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.model import JavaMethod

__all__ = [
    "TAINT_TOP",
    "UNTAINTED",
    "Channel",
    "TaintValue",
    "FieldFacts",
    "TaintSite",
    "MethodTaintSummary",
    "TaintSummaryEngine",
    "join_values",
    "method_key",
]


class _Top:
    """Singleton absorbing element of the taint lattice."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "TAINT_TOP"


TAINT_TOP = _Top()

Channel = Tuple[int, Optional[str]]
TaintValue = Union[_Top, FrozenSet[Channel]]

UNTAINTED: TaintValue = frozenset()

THIS_CHANNEL: Channel = (0, None)


def join_values(a: TaintValue, b: TaintValue) -> TaintValue:
    if a is TAINT_TOP or b is TAINT_TOP:
        return TAINT_TOP
    return a | b


def is_untainted(value: TaintValue) -> bool:
    """Definitely clean: not TOP and no contributing channel."""
    return value is not TAINT_TOP and not value


def encode_value(value: TaintValue) -> Any:
    """JSON-encodable form of a taint value (for the on-disk cache)."""
    if value is TAINT_TOP:
        return "TOP"
    return [[pos, field] for pos, field in sorted(value, key=_channel_key)]


def decode_value(doc: Any) -> TaintValue:
    if doc == "TOP":
        return TAINT_TOP
    return frozenset((int(pos), field) for pos, field in doc)


def _channel_key(channel: Channel) -> Tuple[int, str]:
    pos, field = channel
    return (pos, field if field is not None else "")


def method_key(method: JavaMethod) -> str:
    """Deterministic summary key — the Soot-style full signature."""
    return method.signature.signature


# ---------------------------------------------------------------------------
# Whole-closure field facts
# ---------------------------------------------------------------------------


class FieldFacts:
    """Trust classification of instance-field names across a closure."""

    def __init__(self, trusted: FrozenSet[str], stored: FrozenSet[str]):
        self.trusted = trusted
        self.stored = stored

    @classmethod
    def compute(cls, hierarchy: ClassHierarchy) -> "FieldFacts":
        stored: Set[str] = set()
        for method in hierarchy.all_methods():
            for stmt in method.body:
                if isinstance(stmt, ir.AssignStmt) and isinstance(
                    stmt.target, ir.InstanceFieldRef
                ):
                    stored.add(stmt.target.field_name)
        # A name is trusted only if *every* declaration bearing it is a
        # transient reference field: mixed declarations across classes
        # would let the by-name field read trust the wrong one.
        always_trusted: Dict[str, bool] = {}
        for klass in hierarchy.classes:
            for field in klass.fields.values():
                if field.is_static:
                    continue
                ok = field.is_transient and field.type.is_reference
                always_trusted[field.name] = always_trusted.get(field.name, True) and ok
        trusted = frozenset(
            name
            for name, ok in always_trusted.items()
            if ok and name not in stored
        )
        return cls(trusted=trusted, stored=frozenset(stored))

    def digest(self) -> str:
        """Content hash folded into the summary-cache token."""
        doc = json.dumps(
            {"trusted": sorted(self.trusted), "stored": sorted(self.stored)},
            sort_keys=True,
        )
        return hashlib.sha256(doc.encode("utf-8")).hexdigest()[:16]

    def read_field(self, field_name: str, base: TaintValue) -> TaintValue:
        """Taint of ``base.field_name`` given the base object's taint."""
        if field_name in self.trusted:
            return UNTAINTED
        if field_name in self.stored:
            return TAINT_TOP
        if base is TAINT_TOP:
            return TAINT_TOP
        out: Set[Channel] = set()
        for pos, field in base:
            if (pos, field) == THIS_CHANNEL:
                out.add((0, field_name))
            else:
                # A field of a parameter / of another field: beyond the
                # depth-1 channels, so fall back to the base channel
                # itself (caller-polluted base => possibly polluted read).
                out.add((pos, field))
        return frozenset(out)


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TaintSite:
    """One call site inside a summarised method, with the taint reaching
    each invocation position (0 = receiver, i = i-th argument) expressed
    in the *summarised method's* input channels."""

    block_index: int
    class_name: str
    method_name: str
    arity: int
    kind: str
    positions: Tuple[TaintValue, ...]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "block_index": self.block_index,
            "class_name": self.class_name,
            "method_name": self.method_name,
            "arity": self.arity,
            "kind": self.kind,
            "positions": [encode_value(v) for v in self.positions],
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "TaintSite":
        return cls(
            block_index=int(doc["block_index"]),
            class_name=doc["class_name"],
            method_name=doc["method_name"],
            arity=int(doc["arity"]),
            kind=doc["kind"],
            positions=tuple(decode_value(v) for v in doc["positions"]),
        )


@dataclass(frozen=True)
class MethodTaintSummary:
    """Pollution transfer function of one method."""

    key: str
    returns: TaintValue
    field_effect: TaintValue
    sites: Tuple[TaintSite, ...]

    def as_dict(self) -> Dict[str, Any]:
        # "subsig" (not "key") so the records pass the shared
        # SummaryCache schema check on load
        return {
            "subsig": self.key,
            "returns": encode_value(self.returns),
            "field_effect": encode_value(self.field_effect),
            "sites": [site.as_dict() for site in self.sites],
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "MethodTaintSummary":
        return cls(
            key=doc["subsig"],
            returns=decode_value(doc["returns"]),
            field_effect=decode_value(doc["field_effect"]),
            sites=tuple(TaintSite.from_dict(s) for s in doc["sites"]),
        )


def _bottom_summary(key: str) -> MethodTaintSummary:
    return MethodTaintSummary(
        key=key, returns=UNTAINTED, field_effect=UNTAINTED, sites=()
    )


def compose_value(
    value: TaintValue,
    positions: Sequence[TaintValue],
    facts: FieldFacts,
) -> TaintValue:
    """Rewrite a callee-frame taint value into caller-frame terms, given
    the taint reaching each invocation position."""
    if value is TAINT_TOP:
        return TAINT_TOP
    out: TaintValue = UNTAINTED
    for pos, field in sorted(value, key=_channel_key):
        if pos >= len(positions):
            contribution: TaintValue = TAINT_TOP
        elif field is None:
            contribution = positions[pos]
        else:
            contribution = facts.read_field(field, positions[pos])
        out = join_values(out, contribution)
        if out is TAINT_TOP:
            return TAINT_TOP
    return out


# ---------------------------------------------------------------------------
# The per-method dataflow pass
# ---------------------------------------------------------------------------

# State maps ("l", local_name) -> TaintValue plus one accumulator key
# ("f", "*") holding the join of everything the method (or its callees)
# may have written into the heap so far along the path: after an opaque
# call, otherwise-clean field reads must count as possibly polluted.
_STAR = ("f", "*")


class _MethodTaint(DataflowAnalysis):
    """Forward taint propagation through one method body.

    ``resolve`` maps an :class:`~repro.jvm.ir.InvokeExpr` to the (joined)
    summary of its possible targets, or ``None`` when any target is
    unknown or bodiless — which the transfer function treats as TOP."""

    direction = "forward"

    def __init__(
        self,
        facts: FieldFacts,
        resolve: Callable[[ir.InvokeExpr], Optional[MethodTaintSummary]],
    ):
        self.facts = facts
        self.resolve = resolve

    def bottom(self, cfg: ControlFlowGraph) -> Dict[Tuple[str, str], TaintValue]:
        return {}

    def boundary(self, cfg: ControlFlowGraph) -> Dict[Tuple[str, str], TaintValue]:
        return {}

    def join(self, a, b):
        out: Dict[Tuple[str, str], TaintValue] = {}
        for key in sorted(set(a) | set(b)):
            out[key] = join_values(a.get(key, UNTAINTED), b.get(key, UNTAINTED))
        return out

    def eval_value(self, value: ir.Value, state) -> TaintValue:
        if isinstance(value, ir.Local):
            return state.get(("l", value.name), UNTAINTED)
        if isinstance(value, ir.ThisRef):
            return frozenset({THIS_CHANNEL})
        if isinstance(value, ir.ParamRef):
            return frozenset({(value.index, None)})
        if isinstance(value, ir.Constant):
            return UNTAINTED
        if isinstance(value, ir.InstanceFieldRef):
            base = self.eval_value(value.base, state)
            read = self.facts.read_field(value.field_name, base)
            # Heap writes by opaque callees may hide behind any
            # non-trusted field, so fold in the effect accumulator.
            if value.field_name in self.facts.trusted:
                return read
            return join_values(read, state.get(_STAR, UNTAINTED))
        if isinstance(value, (ir.StaticFieldRef, ir.ArrayRef)):
            return TAINT_TOP
        if isinstance(value, ir.CastExpr):
            return self.eval_value(value.op, state)
        if isinstance(value, ir.InstanceOfExpr):
            return self.eval_value(value.op, state)
        if isinstance(value, ir.BinOpExpr):
            return join_values(
                self.eval_value(value.left, state),
                self.eval_value(value.right, state),
            )
        if isinstance(value, (ir.NewExpr, ir.NewArrayExpr)):
            return UNTAINTED
        if isinstance(value, ir.InvokeExpr):
            return self._invoke_result(value, state)
        return TAINT_TOP

    def invoke_positions(self, expr: ir.InvokeExpr, state) -> Tuple[TaintValue, ...]:
        receiver = (
            self.eval_value(expr.base, state)
            if expr.base is not None
            else UNTAINTED
        )
        return (receiver,) + tuple(self.eval_value(a, state) for a in expr.args)

    def _invoke_result(self, expr: ir.InvokeExpr, state) -> TaintValue:
        summary = self.resolve(expr)
        if summary is None:
            return TAINT_TOP
        return compose_value(
            summary.returns, self.invoke_positions(expr, state), self.facts
        )

    def _invoke_effect(self, expr: ir.InvokeExpr, state) -> TaintValue:
        summary = self.resolve(expr)
        if summary is None:
            return TAINT_TOP
        return compose_value(
            summary.field_effect, self.invoke_positions(expr, state), self.facts
        )

    def transfer(self, stmt: ir.Statement, state):
        if isinstance(stmt, ir.IdentityStmt):
            out = dict(state)
            out[("l", stmt.local.name)] = self.eval_value(stmt.ref, state)
            return out
        if isinstance(stmt, ir.AssignStmt):
            out = dict(state)
            if isinstance(stmt.rhs, ir.InvokeExpr):
                out[_STAR] = join_values(
                    out.get(_STAR, UNTAINTED), self._invoke_effect(stmt.rhs, state)
                )
            if isinstance(stmt.target, ir.Local):
                out[("l", stmt.target.name)] = self.eval_value(stmt.rhs, state)
            else:
                # Store into a field / array / static: weak heap update.
                out[_STAR] = join_values(
                    out.get(_STAR, UNTAINTED), self.eval_value(stmt.rhs, state)
                )
            return out
        if isinstance(stmt, ir.InvokeStmt):
            out = dict(state)
            out[_STAR] = join_values(
                out.get(_STAR, UNTAINTED), self._invoke_effect(stmt.expr, state)
            )
            return out
        return state


# ---------------------------------------------------------------------------
# The engine: bottom-up SCC fixpoint with on-disk caching
# ---------------------------------------------------------------------------


class TaintSummaryEngine:
    """Computes (and memoises) :class:`MethodTaintSummary` per method.

    Summaries are finalized bottom-up over the strongly connected
    components of the body-level call graph by the SCC driver shared
    with Algorithm 1 (:func:`repro.core.scc.settle_cone`, from the
    requested method, so only the reachable cone is ever analysed).  An
    acyclic method is summarised once; mutually recursive methods — one
    SCC — are Kleene-iterated from the bottom summary until jointly
    stable; ``scc_order`` lets tests permute the in-SCC visit order (the
    fixpoint is order-independent, pinned by a hypothesis property).

    With ``cache_dir`` set, summaries are persisted per class through
    :class:`repro.core.summary_cache.SummaryCache`, keyed by the
    dependency-closure content hash plus a digest of the whole-closure
    field facts.
    """

    def __init__(
        self,
        hierarchy: ClassHierarchy,
        cache_dir: Optional[str] = None,
        scc_order: Optional[
            Callable[[List[JavaMethod]], List[JavaMethod]]
        ] = None,
    ):
        self.hierarchy = hierarchy
        self.facts = FieldFacts.compute(hierarchy)
        self.scc_order = scc_order
        self._summaries: Dict[str, MethodTaintSummary] = {}
        self._finalized: Set[str] = set()
        self._callees_cache: Dict[str, List[JavaMethod]] = {}
        self.stats: Dict[str, int] = {"methods": 0, "sccs": 0, "iterations": 0}
        self.cache: Optional[SummaryCache] = None
        self._class_keys: Dict[str, str] = {}
        self._stored_classes: Set[str] = set()
        self._probed_classes: Set[str] = set()
        if cache_dir is not None:
            self.cache = SummaryCache(
                cache_dir, catalog_token=f"taint:{self.facts.digest()}"
            )
            from repro.jvm.jasm import dump_class

            class_texts = {
                cls.name: dump_class(cls) for cls in hierarchy.classes
            }
            closures = dependency_closures(hierarchy)
            self._class_keys = {
                cls.name: self.cache.class_key(
                    cls.name, class_texts, closures[cls.name]
                )
                for cls in hierarchy.classes
            }

    # -- public API --------------------------------------------------------

    def summary_for(self, method: JavaMethod) -> Optional[MethodTaintSummary]:
        """The summary of ``method``, or ``None`` when it has no body."""
        if not method.has_body:
            return None
        key = method_key(method)
        if key not in self._finalized:
            self._finalize_cone(method)
        return self._summaries[key]

    def compute_all(self) -> Dict[str, MethodTaintSummary]:
        """Finalize every body-method in the hierarchy (lint, tests)."""
        for method in sorted(self.hierarchy.all_methods(), key=method_key):
            if method.has_body:
                self.summary_for(method)
        return dict(self._summaries)

    # -- call-graph structure ----------------------------------------------

    def _callees(self, method: JavaMethod) -> List[JavaMethod]:
        key = method_key(method)
        cached = self._callees_cache.get(key)
        if cached is not None:
            return cached
        out: Dict[str, JavaMethod] = {}
        for expr in ir.iter_invoke_exprs(method.body):
            for target in self._targets(expr) or ():
                if target.has_body:
                    out.setdefault(method_key(target), target)
        ordered = [out[k] for k in sorted(out)]
        self._callees_cache[key] = ordered
        return ordered

    def _targets(self, expr: ir.InvokeExpr) -> Optional[List[JavaMethod]]:
        """Possible concrete targets, or ``None`` when unresolvable (a
        dynamic site, a phantom callee, or any bodiless candidate)."""
        if expr.kind == ir.InvokeKind.DYNAMIC:
            return None
        if expr.kind in (ir.InvokeKind.STATIC, ir.InvokeKind.SPECIAL):
            target = self.hierarchy.resolve_method(
                expr.class_name, expr.method_name, expr.arity
            )
            if target is None or not target.has_body:
                return None
            return [target]
        targets = self.hierarchy.dispatch_targets(
            expr.class_name, expr.method_name, expr.arity
        )
        if not targets or any(not t.has_body for t in targets):
            return None
        return targets

    def _resolve(self, expr: ir.InvokeExpr) -> Optional[MethodTaintSummary]:
        """Joined summary of all possible targets (TOP via ``None`` when
        any target is unknown or not yet entered into the fixpoint)."""
        targets = self._targets(expr)
        if targets is None:
            return None
        joined: Optional[MethodTaintSummary] = None
        returns: TaintValue = UNTAINTED
        effect: TaintValue = UNTAINTED
        for target in targets:
            summary = self._summaries.get(method_key(target))
            if summary is None:
                return None
            joined = summary
            returns = join_values(returns, summary.returns)
            effect = join_values(effect, summary.field_effect)
        if joined is None:
            return None
        if len(targets) == 1:
            return joined
        return MethodTaintSummary(
            key="<joined>", returns=returns, field_effect=effect, sites=()
        )

    # -- bottom-up SCC fixpoint --------------------------------------------

    def _finalize_cone(self, root: JavaMethod) -> None:
        """Finalize every SCC reachable from ``root``, callees first
        (the shared driver of :mod:`repro.core.scc`)."""
        settle_cone(
            (method_key(root), root),
            lambda m: [(method_key(c), c) for c in self._callees(m)],
            self._is_finalized,
            self._finalize_scc,
        )

    def _is_finalized(self, key: str, method: JavaMethod) -> bool:
        if key not in self._finalized:
            self._load_class_cache(method.class_name)
        return key in self._finalized

    def _finalize_scc(
        self, component: List[Tuple[str, JavaMethod]], cyclic: bool
    ) -> None:
        members = [m for _, m in sorted(component)]
        if self.scc_order is not None:
            members = list(self.scc_order(list(members)))
        self.stats["sccs"] += 1
        for member in members:
            self._summaries[method_key(member)] = _bottom_summary(
                method_key(member)
            )
        changed = True
        while changed:
            changed = False
            self.stats["iterations"] += 1
            for member in members:
                key = method_key(member)
                summary = self._summarise(member)
                if summary != self._summaries[key]:
                    self._summaries[key] = summary
                    # an acyclic method reads no summary of its own
                    # SCC: its first pass is already final
                    changed = cyclic
        for member in members:
            self._finalized.add(method_key(member))
            self.stats["methods"] += 1
        if self.cache is not None:
            for class_name in sorted({m.class_name for m in members}):
                self._maybe_store_class(class_name)

    def _summarise(self, method: JavaMethod) -> MethodTaintSummary:
        analysis = _MethodTaint(self.facts, self._resolve)
        result = run_analysis(build_cfg(method), analysis)
        returns: TaintValue = UNTAINTED
        effect: TaintValue = UNTAINTED
        sites: List[TaintSite] = []
        for block in result.cfg.blocks:
            if block.index not in result.reached:
                continue
            effect = join_values(
                effect, result.block_out[block.index].get(_STAR, UNTAINTED)
            )
            for stmt, before, _after in result.statement_states(block):
                expr = stmt.invoke_expr()
                if expr is not None:
                    sites.append(
                        TaintSite(
                            block_index=block.index,
                            class_name=expr.class_name,
                            method_name=expr.method_name,
                            arity=expr.arity,
                            kind=expr.kind,
                            positions=analysis.invoke_positions(expr, before),
                        )
                    )
                if isinstance(stmt, ir.ReturnStmt) and stmt.value is not None:
                    returns = join_values(
                        returns, analysis.eval_value(stmt.value, before)
                    )
        return MethodTaintSummary(
            key=method_key(method),
            returns=returns,
            field_effect=effect,
            sites=tuple(sites),
        )

    # -- on-disk cache -----------------------------------------------------

    def invalidate_classes(self, class_names: Iterable[str]) -> int:
        """Drop the on-disk taint summaries of the given classes.

        The incremental analyzer calls this when a class's dependency
        closure changes: the class's content key maps to its cache
        entry, which is deleted so the next engine over the new version
        recomputes instead of serving a stale summary.  In-memory state
        for the class is reset too (probed/stored markers and any
        finalized summaries of its methods).  Returns the number of
        on-disk entries actually removed.
        """
        names = list(class_names)
        removed = 0
        if self.cache is not None:
            keys = [
                self._class_keys[name]
                for name in names
                if name in self._class_keys
            ]
            removed = self.cache.invalidate(keys)
        for name in names:
            self._probed_classes.discard(name)
            self._stored_classes.discard(name)
            cls = self.hierarchy.get(name)
            if cls is None:
                continue
            for method in cls.methods.values():
                key = method_key(method)
                self._finalized.discard(key)
                self._summaries.pop(key, None)
        return removed

    def _load_class_cache(self, class_name: str) -> None:
        if self.cache is None or class_name in self._probed_classes:
            return
        self._probed_classes.add(class_name)
        key = self._class_keys.get(class_name)
        if key is None:
            return
        records = self.cache.load(key, class_name)
        if records is None:
            return
        self._stored_classes.add(class_name)
        for record in records:
            summary = MethodTaintSummary.from_dict(record)
            self._summaries[summary.key] = summary
            self._finalized.add(summary.key)

    def _maybe_store_class(self, class_name: str) -> None:
        if self.cache is None or class_name in self._stored_classes:
            return
        cls = self.hierarchy.get(class_name)
        key = self._class_keys.get(class_name)
        if cls is None or key is None:
            return
        body_keys = [
            method_key(m) for m in cls.methods.values() if m.has_body
        ]
        if not all(k in self._finalized for k in body_keys):
            return
        records = [
            self._summaries[k].as_dict() for k in sorted(body_keys)
        ]
        self.cache.store(key, class_name, records)
        self._stored_classes.add(class_name)
