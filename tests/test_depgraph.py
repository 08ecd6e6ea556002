"""Dependency graph, SCCs, completion scopes, and per-component model
composition."""

import itertools
import random

import pytest

from asptoc.depgraph import (
    build_depgraph,
    is_recursive_scope,
    sccs,
    scopes,
)
from asptoc.fuzz import fuzz_corpus
from asptoc.oracle import stable_models
from asptoc.parser import parse_program
from asptoc.program import normal_rule, program_of
from references import module_program


class TestDepGraph:
    def test_self_loop(self):
        g = build_depgraph(parse_program("a :- a."))
        assert g.edges == {("a", "a")}

    def test_negation_induces_no_edge(self):
        g = build_depgraph(parse_program("a :- not b."))
        assert g.edges == frozenset()

    def test_choice_double_negation_induces_no_edge(self):
        g = build_depgraph(parse_program("{a}."))
        assert g.edges == frozenset()

    def test_aggregate_edges(self):
        g = build_depgraph(parse_program("a :- 1 <= { b=2, not c=1 }."))
        assert g.edges == {("a", "b")}


class TestSccs:
    def test_two_cycle(self):
        p = parse_program("a :- b. b :- a.")
        part = sccs(build_depgraph(p))
        assert part.components == (frozenset({"a", "b"}),)

    def test_chain_order_dependencies_first(self):
        p = parse_program("a :- b. #atom b.")
        part = sccs(build_depgraph(p))
        assert part.components == (frozenset({"b"}), frozenset({"a"}))

    def test_unit_rules_with_back_edges(self):
        src = "".join(f"a :- b{i}. b{i} :- a. " for i in range(1, 4))
        part = sccs(build_depgraph(parse_program(src)))
        assert part.components == (frozenset({"a", "b1", "b2", "b3"}),)

    def test_deterministic_tie_break(self):
        p = parse_program("a. c. b.")
        part = sccs(build_depgraph(p))
        assert [sorted(c)[0] for c in part.components] == ["a", "b", "c"]

    def test_recursive_scope_detection(self):
        p = parse_program("a :- a. b :- not x. c :- d. d :- c.")
        assert is_recursive_scope(p, frozenset({"a"}))
        assert not is_recursive_scope(p, frozenset({"b"}))
        assert is_recursive_scope(p, frozenset({"c", "d"}))

    def test_scope_flags_match_reference(self):
        corpus = [*fuzz_corpus(1, 300), *fuzz_corpus(1, 60, max_atoms=11, max_rules=14)]
        for _, src, p in corpus:
            assert scopes(p, "scc") == [(c, is_recursive_scope(p, c))
                                        for c in sccs(build_depgraph(p)).components], src

    @pytest.mark.parametrize("src, recursive", [
        ("{a}.", False),
        ("a :- not a.", False),
        ("a :- 1 <= { a=2, b }.", True),
        ("a :- 0 <= { a=0 }.", False),  # the zero-weight literal is dropped
    ])
    def test_singleton_scope_flag(self, src, recursive):
        p = parse_program(src)
        assert dict(scopes(p, "scc"))[frozenset({"a"})] is recursive
        assert is_recursive_scope(p, frozenset({"a"})) is recursive

    def test_scopes_per_mode(self):
        p = parse_program("a :- a. b :- not x. c :- d. d :- c.")
        assert scopes(p, "scc") == [(frozenset({"a"}), True), (frozenset({"b"}), False),
                                    (frozenset({"c", "d"}), True), (frozenset({"x"}), False)]
        assert scopes(p, "global") == [(frozenset({"a", "b", "c", "d"}), True)]
        assert scopes(parse_program("#atom q."), "global") == []
        with pytest.raises(ValueError):
            scopes(p, "module")


def random_graph_program(rng, n):
    """A program over ``n`` atoms whose names sort apart from their numbers
    (``v10`` before ``v2``): isolated atoms, self-loops, negative literals
    that add no edge, and a density that ranges from forests to one large
    component."""
    names = [f"v{i}" for i in range(n)]
    degree = rng.choice([0.3, 0.8, 1.2, 2.5])
    rules = []
    for head in names:
        if rng.random() < 0.2:
            continue  # an input atom: isolated unless another rule reads it
        for _ in range(rng.randint(1, 2)):
            pos = [rng.choice(names) for _ in range(int(rng.expovariate(1 / degree)))]
            if rng.random() < 0.05:
                pos.append(head)
            neg = [rng.choice(names) for _ in range(rng.randint(0, 2))]
            rules.append(normal_rule(head, pos, neg))
    return program_of(rules, extra_atoms=names)


def reference_components(program):
    """SCCs by brute force: mutual-reachability classes over the positive
    edges, ordered by Kahn's algorithm with the smallest member first."""
    edges = {(r.head, a) for r in program.rules for a in r.pos_atoms()}
    succ = {v: set() for v in program.atom_names}
    for a, b in edges:
        succ[a].add(b)

    def reach(v):
        seen, todo = {v}, [v]
        while todo:
            for w in succ[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        return seen

    reachable = {v: reach(v) for v in succ}
    comps = {frozenset(w for w in reachable[v] if v in reachable[w]) for v in succ}
    ordered = []
    while comps:
        ready = [c for c in comps
                 if all(w in c or any(w in d for d in ordered)
                        for v in c for w in succ[v])]
        first = min(ready, key=min)
        ordered.append(first)
        comps.remove(first)
    return edges, tuple(ordered)


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(12))
    def test_sccs_match_naive_reference(self, seed):
        rng = random.Random(seed)
        program = random_graph_program(rng, rng.randint(1, 300))
        graph = build_depgraph(program)
        edges, expected = reference_components(program)
        assert graph.edges == edges
        assert sccs(graph).components == expected
        for comp in expected:
            self_loop = any((a, a) in edges for a in comp)
            assert is_recursive_scope(program, comp) == (len(comp) > 1 or self_loop)
        assert scopes(program, "scc") == [
            (comp, is_recursive_scope(program, comp)) for comp in expected]


def compose_module_models(program):
    """Mutually compatible combinations of per-module stable models, filtered
    by the global constraints."""
    parts = sccs(build_depgraph(program)).components
    modules = [module_program(program, scope) for scope in parts]
    per_module = []
    for sub in modules:
        sig = frozenset(sub.atom_names)
        per_module.append((sig, [m for m, _ in stable_models(sub)]))

    composed = set()
    for choice in itertools.product(*(models for _, models in per_module)):
        ok = True
        for (sig_i, _), m_i in zip(per_module, choice):
            for (sig_j, _), m_j in zip(per_module, choice):
                if m_i & sig_j != m_j & sig_i:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        union = frozenset().union(*choice) if choice else frozenset()
        if all(c.satisfied(union) for c in program.constraints()):
            composed.add(union)
    return sorted(composed, key=lambda m: tuple(sorted(m)))


class TestModuleComposition:
    def test_compositions_equal_stable_models(self):
        for i, _, program in fuzz_corpus(seed=2024, count=25, max_atoms=8,
                                         max_rules=8):
            expected = [m for m, _ in stable_models(program)]
            assert compose_module_models(program) == expected, f"program {i}"

    def test_sccs_deterministic_across_runs(self):
        for _, src, program in fuzz_corpus(seed=11, count=10):
            a = sccs(build_depgraph(program))
            b = sccs(build_depgraph(parse_program(src)))
            assert a.components == b.components
