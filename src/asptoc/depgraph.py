"""Positive dependency graph, SCC decomposition and completion scopes.

Only positive body literals induce edges; double-negated literals from
choice canonicalization do not, so a lone choice rule never makes its
head recursive.  The SCC order is deterministic: components come out in
topological order (edges run from later components to earlier ones),
with ties broken by the smallest member name.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .program import Polarity, Program, def_of


@dataclass(frozen=True)
class DepGraph:
    vertices: tuple[str, ...]
    edges: frozenset  # pairs (head, body_atom)

    @cached_property
    def _adjacency(self) -> dict[str, list[str]]:
        adjacency: dict[str, list[str]] = {}
        for a, b in self.edges:
            adjacency.setdefault(a, []).append(b)
        for targets in adjacency.values():
            targets.sort()
        return adjacency

    def successors(self, atom: str) -> list[str]:
        return list(self._adjacency.get(atom, ()))


@dataclass(frozen=True)
class SccPartition:
    components: tuple[frozenset, ...]

    @cached_property
    def index(self) -> dict:
        return {a: i for i, comp in enumerate(self.components) for a in comp}


def build_depgraph(program: Program) -> DepGraph:
    edges = set()
    for rule in program.rules:
        if rule.head is None:
            continue
        for wl in rule.literals(Polarity.POSITIVE):
            edges.add((rule.head, wl.literal.atom))
    return DepGraph(tuple(sorted(program.atom_names)), frozenset(edges))


def _tarjan(vertices, successors):
    # Iterative Tarjan; pops each SCC when its root finishes, which yields
    # components sinks-first (dependencies before dependants).
    index = {}
    lowlink = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]

    for start in vertices:
        if start in index:
            continue
        work = [(start, iter(successors(start)))]
        index[start] = lowlink[start] = counter[0]
        counter[0] += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = lowlink[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(successors(w))))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(frozenset(comp))
    return sccs


def sccs(graph: DepGraph) -> SccPartition:
    comps = _tarjan(graph.vertices, graph.successors)
    # Re-sort the condensation canonically: a component is ready once all
    # components it depends on are emitted; ties go to the smallest member.
    import heapq

    comp_of = {a: i for i, comp in enumerate(comps) for a in comp}
    dependencies: list[set] = [set() for _ in comps]
    dependants: list[set] = [set() for _ in comps]
    for (a, b) in graph.edges:
        ca, cb = comp_of[a], comp_of[b]
        if ca != cb:
            dependencies[ca].add(cb)
            dependants[cb].add(ca)
    remaining = [len(d) for d in dependencies]
    heap = [(min(comps[i]), i) for i in range(len(comps)) if remaining[i] == 0]
    heapq.heapify(heap)
    ordered = []
    while heap:
        _, i = heapq.heappop(heap)
        ordered.append(comps[i])
        for j in dependants[i]:
            remaining[j] -= 1
            if remaining[j] == 0:
                heapq.heappush(heap, (min(comps[j]), j))
    assert len(ordered) == len(comps)
    return SccPartition(tuple(ordered))


def is_recursive_scope(program: Program, scope: frozenset) -> bool:
    """A scope needs ranking constraints if it has more than one atom or a
    positive self-loop; bare singletons take the standard completion."""
    if len(scope) > 1:
        return True
    (atom,) = scope
    for rule in def_of(atom, program):
        if atom in (wl.literal.atom for wl in rule.literals(Polarity.POSITIVE)):
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
        return [(comp, is_recursive_scope(program, comp))
                for comp in sccs(build_depgraph(program)).components]
    if scope_mode == "global":
        defined = program.heads()
        return [(defined, True)] if defined else []
    raise ValueError(f"unknown scope mode {scope_mode!r}")


def module_program(program: Program, scope: frozenset) -> Program:
    """The module as a stand-alone program: atoms outside the scope keep no
    defining rules and therefore vary freely as inputs."""
    rules = tuple(r for r in program.rules if r.head in scope)
    names = set(scope)
    for rule in rules:
        names.update(rule.body_atoms())
    from .program import program_of

    return program_of(rules, extra_atoms=names)
