"""Bottom-up scheduling over strongly connected components.

Both summary analyses — Algorithm 1's controllability Actions
(:mod:`repro.core.controllability`) and the taint transfer functions
(:mod:`repro.analysis.taint`) — compute a per-method summary from the
summaries of the method's callees.  :func:`settle_cone` orders that
work: an iterative Tarjan walk from one root over the static call graph
hands every strongly connected component (SCC) reachable from the root
to a ``settle`` callback, callees' components first.  A component is
therefore settled exactly once, against final summaries of everything
outside it, and only its own members can still be in flight — an
acyclic method needs one body walk, and a recursion cluster needs a
fixpoint over its members alone.

The walk keeps an explicit frame stack, so call-chain depth costs heap,
never Python recursion.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Set, Tuple, TypeVar

__all__ = ["settle_cone"]

Node = TypeVar("Node")
Keyed = Tuple[str, Node]


class _Frame:
    __slots__ = ("key", "successors", "pos")

    def __init__(self, key: str, successors: Sequence[Keyed]):
        self.key = key
        self.successors = successors
        self.pos = 0


def settle_cone(
    root: Keyed,
    successors: Callable[[Node], Sequence[Keyed]],
    settled: Callable[[str, Node], bool],
    settle: Callable[[List[Keyed], bool], None],
) -> None:
    """Settle every unsettled SCC reachable from ``root``, callees first.

    Nodes travel as ``(key, node)`` pairs.  ``successors(node)`` lists a
    node's callees; ``settled(key, node)`` says whether a node already
    has its final summary (the walk neither enters nor re-settles it —
    the callback may load one on demand, e.g. from a cache).
    ``settle(component, cyclic)`` receives the members of one SCC in
    stack order; ``cyclic`` is False exactly for a single member that
    does not call itself.
    """
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[Keyed] = []
    frames: List[_Frame] = []

    def push(key: str, node: Node) -> None:
        index[key] = lowlink[key] = len(index)
        stack.append((key, node))
        on_stack.add(key)
        frames.append(_Frame(key, successors(node)))

    if settled(*root):
        return
    push(*root)
    while frames:
        frame = frames[-1]
        key = frame.key
        succ = frame.successors
        while frame.pos < len(succ):
            succ_key, succ_node = succ[frame.pos]
            frame.pos += 1
            if succ_key in index:
                if succ_key in on_stack:
                    lowlink[key] = min(lowlink[key], index[succ_key])
            elif not settled(succ_key, succ_node):
                push(succ_key, succ_node)
                break
        else:
            frames.pop()
            if lowlink[key] == index[key]:
                component: List[Keyed] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member[0])
                    component.append(member)
                    if member[0] == key:
                        break
                cyclic = len(component) > 1 or any(k == key for k, _ in succ)
                settle(component, cyclic)
            if frames:
                parent = frames[-1].key
                lowlink[parent] = min(lowlink[parent], lowlink[key])
