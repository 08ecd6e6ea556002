"""Tight ordered completion.

Every rule is translated through one path, its canonical weight form.
Inside a ranked scope a rule contributes up to six formulas: the head
equivalence over applicability atoms, the internal/external split, the
weak (internal) support condition ordering in-scope body atoms through
``dep`` atoms, the strong condition denying a fully ``gap``-ped support
which pins rank minimality, the external support condition over the
rest of the body, and the rank reset for externally supported heads.

The split collapses when one side is structurally impossible: a rule
whose body cannot reach its bound without in-scope atoms keeps no
external atom (the applicability atom takes the internal definition),
and a rule without in-scope positive atoms keeps no internal one.  With
unit weights this reproduces the plain ordered-completion shape for
normal rules, auxiliary atoms included.

Upper bounds of convex rules never participate in the ordering: they
are checked against the unordered body (in-scope atoms taken plainly),
conjoined into both support conditions, while the strong condition
keeps only the lower bound.  Checking the upper bound against the
dep-substituted sum instead would accept unstable models in which the
bound is exceeded only by atoms derived after the head.  The alternative
emission mode names the violation check with an explicit ``vub`` atom
defined completion-style, plus the guarding constraint.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .depgraph import build_depgraph, is_recursive_scope, sccs
from .formulas import (
    Aux,
    Base,
    Diff,
    FormulaSet,
    Iff,
    Implies,
    LevelVar,
    Not,
    PBTerm,
    TrueF,
    Var,
    Z,
    ZPin,
    conj,
    disj,
    make_pb,
    mk_bounds,
    mk_dep_gap,
)
from .oracle import ResourceError
from .program import Origin, Polarity, Program, Rule, def_of, program_of


class ConvexityError(Exception):
    pass


def _split_body(rule: Rule, scope: frozenset):
    """Body parts relative to the scope.

    Double-negated literals count like out-of-scope positives: the reduct
    fixes their truth against the candidate model, so they never order.
    """
    pin, pout = [], []
    for wl in rule.literals(Polarity.POSITIVE):
        (pin if wl.literal.atom in scope else pout).append((wl.literal.atom, wl.weight))
    dneg = [(wl.literal.atom, wl.weight)
            for wl in rule.literals(Polarity.DOUBLE_NEGATED)]
    neg = [(wl.literal.atom, wl.weight)
           for wl in rule.literals(Polarity.NEGATIVE)]
    return pin, pout, dneg, neg


def _out_terms(pout, dneg, neg):
    terms = [PBTerm(w, Base(b)) for b, w in pout]
    terms += [PBTerm(w, Base(d)) for d, w in dneg]
    terms += [PBTerm(w, Base(c), negated=True) for c, w in neg]
    return terms


def plain_body_formula(rule: Rule):
    """The rule body over plain atoms; negated literals appear classically
    negated with the bound left at the source value."""
    terms = [PBTerm(wl.weight,
                    Base(wl.literal.atom),
                    wl.literal.polarity is Polarity.NEGATIVE)
             for wl in rule.body]
    return make_pb(terms, rule.lower, rule.upper)


def _ranked_rule(fs: FormulaSet, head: str, i: int, rule: Rule, scope: frozenset,
                 strong: bool, vub_form: bool, ns: str):
    pin, pout, dneg, neg = _split_body(rule, scope)
    out = _out_terms(pout, dneg, neg)
    dep_terms = [PBTerm(w, Aux("dep", head, b)) for b, w in pin]
    gap_terms = [PBTerm(w, Aux("gap", head, b)) for b, w in pin]
    plain_in = [PBTerm(w, Base(b)) for b, w in pin]
    lower, upper = rule.lower, rule.upper

    weak_pb = make_pb(dep_terms + out, lower=lower)
    ext_pb = make_pb(out, lower=lower)
    strong_pb = make_pb(gap_terms + out, upper=lower - 1)

    if upper is None:
        bound_check = TrueF()
    elif vub_form:
        vub = Aux("vub", head, i, ns)
        fs.declare_aux(vub)
        fs.add(f"vub:{head}:{i}",
               Iff(Var(vub), make_pb(plain_in + out, lower=upper + 1)))
        bound_check = Not(Var(vub))
    else:
        bound_check = make_pb(plain_in + out, upper=upper)

    app = Aux("app", head, i, ns)
    fs.declare_aux(app)
    has_in = bool(pin)
    ext_possible = sum(t.coef for t in out) >= lower

    if not has_in:
        fs.add(f"app:{head}:{i}", Iff(Var(app), conj(ext_pb, bound_check)))
        fs.add(f"reset:{head}:{i}", Implies(Var(app), Diff(LevelVar(head), Z, 1)))
    elif not ext_possible:
        fs.add(f"app:{head}:{i}", Iff(Var(app), conj(weak_pb, bound_check)))
        if strong:
            fs.add(f"strong:{head}:{i}", Implies(Var(app), strong_pb))
    else:
        internal = Aux("int", head, i, ns)
        external = Aux("ext", head, i, ns)
        fs.declare_aux(internal, external)
        fs.add(f"split:{head}:{i}", Iff(Var(app), disj(Var(internal), Var(external))))
        fs.add(f"int:{head}:{i}", Iff(Var(internal), conj(weak_pb, bound_check)))
        if strong:
            fs.add(f"strong:{head}:{i}",
                   Implies(Var(internal), disj(strong_pb, Var(external))))
        fs.add(f"ext:{head}:{i}", Iff(Var(external), conj(ext_pb, bound_check)))
        fs.add(f"reset:{head}:{i}", Implies(Var(external), Diff(LevelVar(head), Z, 1)))

    if upper is not None and vub_form:
        fs.add(f"ubcheck:{head}:{i}", Not(conj(Var(app), Var(vub))))
    return app


def _flat_rule(fs: FormulaSet, head: str, i: int, rule: Rule,
               vub_form: bool, ns: str):
    """Standard completion body for a non-recursive head."""
    terms = [PBTerm(wl.weight, Base(wl.literal.atom),
                    wl.literal.polarity is Polarity.NEGATIVE)
             for wl in rule.body]
    app = Aux("app", head, i, ns)
    fs.declare_aux(app)
    if rule.upper is not None and vub_form:
        vub = Aux("vub", head, i, ns)
        fs.declare_aux(vub)
        fs.add(f"vub:{head}:{i}", Iff(Var(vub), make_pb(terms, lower=rule.upper + 1)))
        fs.add(f"app:{head}:{i}",
               Iff(Var(app), conj(make_pb(terms, lower=rule.lower), Not(Var(vub)))))
        fs.add(f"ubcheck:{head}:{i}", Not(conj(Var(app), Var(vub))))
    else:
        fs.add(f"app:{head}:{i}",
               Iff(Var(app), make_pb(terms, rule.lower, rule.upper)))
    return app


def toc_module(program: Program, scope: frozenset, *,
               ranked: Optional[bool] = None, strong: bool = True,
               vub_form: bool = False, aux_ns: str = "") -> FormulaSet:
    """Completion of the scope's defining rules, ordered when the scope is
    recursive.  Scope atoms without defining rules stay free (they still
    receive range formulas in a ranked scope).

    Without an explicit ``ranked`` choice the scope must be a strongly
    connected component; passing ``ranked`` opts into arbitrary scopes of
    completion (whole-signature ordering, harness scopes).
    """
    if ranked is None:
        partition = sccs(build_depgraph(program))
        if scope not in partition.components:
            raise ValueError(f"{sorted(scope)} is not an SCC of the program")
        ranked = is_recursive_scope(program, scope)
    atoms = sorted(scope)
    defs = {a: def_of(a, program) for a in atoms}
    fs = FormulaSet()
    fs.declare_base(*atoms)

    scope_rules = [(a, r) for a in atoms for r in defs[a]]
    for _, rule in scope_rules:
        fs.declare_base(*sorted(set(rule.body_atoms())))

    if ranked:
        size = len(scope)
        for atom in atoms:
            fs.declare_level(atom, 1, size + 1)
            fs.extend(mk_bounds(atom, size))
        edges = sorted({(a, b)
                        for a, rule in scope_rules
                        for b, _ in _split_body(rule, scope)[0]})
        for a, b in edges:
            fs.declare_aux(Aux("dep", a, b), Aux("gap", a, b))
            fs.extend(mk_dep_gap(a, b))

    for atom in atoms:
        rules = defs[atom]
        if not rules:
            continue
        apps = []
        for i, rule in enumerate(rules, 1):
            if ranked:
                apps.append(_ranked_rule(fs, atom, i, rule, scope,
                                         strong, vub_form, aux_ns))
            else:
                apps.append(_flat_rule(fs, atom, i, rule, vub_form, aux_ns))
        fs.add(f"def:{atom}", Iff(Var(Base(atom)), disj(*(Var(a) for a in apps))))
    return fs


def toc_program(program: Program, *, scope_mode: str = "scc",
                strong: bool = True, vub_form: bool = False) -> FormulaSet:
    """Union of the per-scope completions, the integrity constraints and
    the zero pin for ``z``.

    ``scope_mode="scc"`` ranks each recursive strongly connected component;
    ``"global"`` ranks the whole signature as one scope, which makes every
    derivation stage observable on a ranking variable.
    """
    fs = FormulaSet()
    fs.declare_base(*sorted(program.atom_names))
    if scope_mode == "scc":
        partition = sccs(build_depgraph(program))
        scopes = [(comp, is_recursive_scope(program, comp))
                  for comp in partition.components]
    elif scope_mode == "global":
        # one scope over all defined atoms; input atoms stay free and
        # unranked, matching their role in the per-component translation
        defined = program.heads()
        scopes = [(frozenset(defined), True)] if defined else []
    else:
        raise ValueError(f"unknown scope mode {scope_mode!r}")
    for scope, ranked in scopes:
        fs.merge(toc_module(program, scope, ranked=ranked,
                            strong=strong, vub_form=vub_form))
    for idx, rule in enumerate(program.constraints(), 1):
        fs.add(f"constraint:{idx}", Not(plain_body_formula(rule)))
    fs.add("pin:z", ZPin())
    fs.validate()
    return fs


# ---------------------------------------------------------------------------
# subset-based normalization (test scaffolding for the aggregated forms)

def _check_subset_input(rule: Rule, cap: int = 6):
    if rule.head is None:
        raise ValueError("constraints cannot be subset-normalized")
    if rule.literals(Polarity.NEGATIVE, Polarity.DOUBLE_NEGATED):
        raise ValueError("subset normalization expects a positive rule")
    if rule.upper is not None:
        raise ValueError("subset normalization expects a lower bound only")
    if len(rule.body) > cap:
        raise ResourceError(f"{len(rule.body)} body atoms exceed the cap of {cap}")


def normalize_subsets(rule: Rule) -> Program:
    """One positive rule per bound-reaching subset: the exact-size subsets
    of a cardinality body, the inclusion-minimal ones of a weight body."""
    _check_subset_input(rule)
    atoms = sorted(rule.pos_atoms())
    weights = {wl.literal.atom: wl.weight for wl in rule.body}
    subsets: list[tuple[str, ...]] = []
    if rule.origin is Origin.CARDINALITY or all(w == 1 for w in weights.values()):
        subsets = list(itertools.combinations(atoms, rule.lower)) \
            if rule.lower <= len(atoms) else []
    else:
        satisfying = []
        for k in range(len(atoms) + 1):
            for combo in itertools.combinations(atoms, k):
                if sum(weights[a] for a in combo) >= rule.lower:
                    satisfying.append(frozenset(combo))
        minimal = [s for s in satisfying
                   if not any(t < s for t in satisfying)]
        subsets = sorted((tuple(sorted(s)) for s in minimal),
                         key=lambda t: (len(t), t))
    from .program import normal_rule

    rules = [normal_rule(rule.head, subset) for subset in subsets]
    return program_of(rules, extra_atoms=[rule.head, *atoms])


# ---------------------------------------------------------------------------
# extensional convex aggregates

def _upward_closure(family: set, universe: frozenset) -> set:
    closed = set()
    for sat in family:
        for rest in itertools.chain.from_iterable(
                itertools.combinations(sorted(universe - sat), k)
                for k in range(len(universe - sat) + 1)):
            closed.add(sat | frozenset(rest))
    return closed


def _check_convex(family: set, universe: frozenset):
    fam = set(family)
    for small in fam:
        for large in fam:
            if small < large:
                extra = sorted(large - small)
                for k in range(1, len(extra)):
                    for mid in itertools.combinations(extra, k):
                        if small | frozenset(mid) not in fam:
                            raise ConvexityError(
                                f"family not convex between {sorted(small)} "
                                f"and {sorted(large)}")


def _minimal(family: set) -> list:
    return sorted((s for s in family if not any(t < s for t in family)),
                  key=lambda s: (len(s), tuple(sorted(s))))


def toc_abstract(rule: Rule, scope: frozenset, *, ordinal: int = 1,
                 family: Optional[set] = None, strong: bool = True,
                 aux_ns: str = "") -> FormulaSet:
    """Ordered completion of one rule with its aggregate kept extensional.

    Internal support substitutes in-scope positive atoms by their ``dep``
    atoms inside the disjunction over inclusion-minimal satisfiers (the
    upward closure); the strong condition negates the same disjunction
    with ``gap`` substitutions; external support substitutes in-scope
    positives by falsity.  Non-monotone aggregates additionally conjoin
    the exact aggregate over unsubstituted atoms into both supports, so
    applicability is judged at the candidate model.
    """
    if rule.head is None:
        raise ValueError("constraints have no completion")
    slots = list(rule.body)
    if len(slots) > 6:
        raise ResourceError("extensional aggregates are capped at 6 body atoms")
    universe = frozenset(range(len(slots)))
    if family is None:
        def accepted(js: frozenset) -> bool:
            total = sum(slots[j].weight for j in js)
            return total >= rule.lower and (rule.upper is None or total <= rule.upper)

        family = {frozenset(js)
                  for k in range(len(slots) + 1)
                  for js in itertools.combinations(sorted(universe), k)
                  if accepted(frozenset(js))}
    else:
        family = {frozenset(s) for s in family}
        _check_convex(family, universe)
    minimal = _minimal(family)
    monotone = family == _upward_closure(family, universe)
    head = rule.head

    def in_scope_pos(j: int) -> bool:
        lit = slots[j].literal
        return lit.polarity is Polarity.POSITIVE and lit.atom in scope

    def plain(j: int):
        lit = slots[j].literal
        if lit.polarity is Polarity.NEGATIVE:
            return Not(Var(Base(lit.atom)))
        return Var(Base(lit.atom))

    def ordered(j: int, kind: str):
        if in_scope_pos(j):
            return Var(Aux(kind, head, slots[j].literal.atom))
        return plain(j)

    exact = disj(*(conj(*(plain(j) if j in sat else Not(plain(j))
                          for j in sorted(universe)))
                   for sat in sorted(family, key=lambda s: tuple(sorted(s)))))
    bound_check = TrueF() if monotone else exact

    weak = conj(disj(*(conj(*(ordered(j, "dep") for j in sorted(sat)))
                       for sat in minimal)), bound_check)
    deny = Not(disj(*(conj(*(ordered(j, "gap") for j in sorted(sat)))
                      for sat in minimal)))
    ext_minimal = [sat for sat in minimal if not any(in_scope_pos(j) for j in sat)]
    ext_def = conj(disj(*(conj(*(plain(j) for j in sorted(sat)))
                          for sat in ext_minimal)), bound_check)

    fs = FormulaSet()
    fs.declare_base(*sorted({wl.literal.atom for wl in slots} | {head}))
    for j in sorted(universe):
        if in_scope_pos(j):
            b = slots[j].literal.atom
            fs.declare_aux(Aux("dep", head, b), Aux("gap", head, b))

    app = Aux("app", head, ordinal, aux_ns)
    fs.declare_aux(app)
    has_in = any(in_scope_pos(j) for j in universe)
    ext_possible = bool(ext_minimal)

    i = ordinal
    if not has_in:
        fs.add(f"app:{head}:{i}", Iff(Var(app), ext_def))
        fs.add(f"reset:{head}:{i}", Implies(Var(app), Diff(LevelVar(head), Z, 1)))
    elif not ext_possible:
        fs.add(f"app:{head}:{i}", Iff(Var(app), weak))
        if strong:
            fs.add(f"strong:{head}:{i}", Implies(Var(app), deny))
    else:
        internal = Aux("int", head, i, aux_ns)
        external = Aux("ext", head, i, aux_ns)
        fs.declare_aux(internal, external)
        fs.add(f"split:{head}:{i}", Iff(Var(app), disj(Var(internal), Var(external))))
        fs.add(f"int:{head}:{i}", Iff(Var(internal), weak))
        if strong:
            fs.add(f"strong:{head}:{i}",
                   Implies(Var(internal), disj(deny, Var(external))))
        fs.add(f"ext:{head}:{i}", Iff(Var(external), ext_def))
        fs.add(f"reset:{head}:{i}", Implies(Var(external), Diff(LevelVar(head), Z, 1)))
    return fs
