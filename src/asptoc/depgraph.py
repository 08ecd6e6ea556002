"""Positive dependency graph, SCC decomposition and completion scopes.

Only positive body literals induce edges; double-negated literals from
choice canonicalization do not, so a lone choice rule never makes its
head recursive.  The SCC order is deterministic: components come out in
topological order (edges run from later components to earlier ones),
with ties broken by the smallest member name.

The kernel runs over integers.  Vertices are numbered once, in sorted
name order, so a smaller number means a smaller name; Tarjan's algorithm
and the canonical sort of the condensation work on lists of numbers, and
names come back only in the finished components.
"""

from __future__ import annotations

import heapq
from functools import cached_property

from .node import Node
from .program import Polarity, Program


class DepGraph(Node, fields="vertices targets"):
    """Vertex ``i`` is ``vertices[i]``, in sorted name order; ``targets[i]``
    holds the numbers of its distinct positive body atoms, ascending."""

    @cached_property
    def edges(self) -> frozenset:
        """Pairs ``(head, body_atom)``."""
        names = self.vertices
        return frozenset((names[i], names[j])
                         for i, targets in enumerate(self.targets) for j in targets)


class SccPartition(Node, fields="components"):
    __slots__ = ()


def build_depgraph(program: Program) -> DepGraph:
    vertices = tuple(sorted(program.atom_names))
    number = {a: i for i, a in enumerate(vertices)}
    targets = [()] * len(vertices)
    positive = Polarity.POSITIVE
    for head, rules in program.head_index.items():
        targets[number[head]] = tuple(sorted({
            number[wl.atom] for rule in rules for wl in rule.body
            if wl.polarity is positive}))
    return DepGraph(vertices, tuple(targets))


def _components(targets) -> tuple[list[int], list[list[int]]]:
    """Iterative Tarjan over vertex numbers: the component number of each
    vertex and the members of each component.  A component is numbered
    when its root finishes, so every edge leaving a component points to
    one with a smaller number (sinks first)."""
    n = len(targets)
    order = [-1] * n  # discovery number; -1 unvisited, n once assigned
    low = [0] * n
    comp_of = [0] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(targets[root]))]
        while work:
            v, successors = work[-1]
            for w in successors:
                seen = order[w]
                if seen < 0:
                    order[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(targets[w])))
                    break
                # an assigned vertex reads n and never lowers the link
                if seen < low[v]:
                    low[v] = seen
            else:
                work.pop()
                link = low[v]
                if work:
                    parent = work[-1][0]
                    if link < low[parent]:
                        low[parent] = link
                if link == order[v]:
                    i = len(stack) - 1
                    while stack[i] != v:
                        i -= 1
                    comp = stack[i:]
                    del stack[i:]
                    c = len(comps)
                    for w in comp:
                        order[w] = n
                        comp_of[w] = c
                    comps.append(comp)
    return comp_of, comps


def _ordered_components(graph: DepGraph) -> list[tuple[frozenset, list[int]]]:
    """Each component's names and vertex numbers, in canonical order: a
    component is ready once all components it depends on are emitted, and
    ties go to the smallest member, that is, the smallest number.  Each
    condensation edge is counted once."""
    targets = graph.targets
    comp_of, comps = _components(targets)
    remaining = [0] * len(comps)
    dependants: list[list[int]] = [[] for _ in comps]
    for c, comp in enumerate(comps):
        dependencies = {comp_of[w] for v in comp for w in targets[v]}
        dependencies.discard(c)
        remaining[c] = len(dependencies)
        for d in dependencies:
            dependants[d].append(c)
    key = list(map(min, comps))
    comp_at = dict(zip(key, range(len(comps))))
    heap = [k for k, r in zip(key, remaining) if r == 0]
    heapq.heapify(heap)
    name = graph.vertices.__getitem__
    ordered = []
    while heap:
        c = comp_at[heapq.heappop(heap)]
        ordered.append((frozenset(map(name, comps[c])), comps[c]))
        for d in dependants[c]:
            remaining[d] -= 1
            if remaining[d] == 0:
                heapq.heappush(heap, key[d])
    assert len(ordered) == len(comps)
    return ordered


def sccs(graph: DepGraph) -> SccPartition:
    return SccPartition(tuple(names for names, _ in _ordered_components(graph)))


def is_recursive_scope(program: Program, scope: frozenset) -> bool:
    """A scope needs ranking constraints if it has more than one atom or a
    positive self-loop; bare singletons take the standard completion."""
    if len(scope) > 1:
        return True
    (atom,) = scope
    positive = Polarity.POSITIVE
    for rule in program.head_index.get(atom, ()):
        for wl in rule.body:
            if wl.atom == atom and wl.polarity is positive:
                return True
    return False


def scopes(program: Program, scope_mode: str) -> list[tuple[frozenset, bool]]:
    """The completion scopes of the program, each paired with whether it is
    ranked.

    ``"scc"`` takes every strongly connected component, ranked when
    recursive; ``"global"`` takes all defined atoms as one ranked scope,
    while input atoms stay free and unranked, matching their role in the
    per-component translation.
    """
    if scope_mode == "scc":
        # the flag of :func:`is_recursive_scope`, read off the numbered graph
        graph = build_depgraph(program)
        targets = graph.targets
        return [(names, len(comp) > 1 or comp[0] in targets[comp[0]])
                for names, comp in _ordered_components(graph)]
    if scope_mode == "global":
        defined = program.heads()
        return [(defined, True)] if defined else []
    raise ValueError(f"unknown scope mode {scope_mode!r}")

