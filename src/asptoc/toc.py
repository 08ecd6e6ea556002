"""Tight ordered completion.

Every rule is translated through one path, its canonical weight form.
A non-recursive head gets Clark's completion over its plain rule bodies;
only the ``vub`` guard below, which reads it, keeps an applicability atom.
Inside a ranked scope a rule contributes up to six formulas: the head
equivalence over applicability atoms, the internal/external split, the
weak (internal) support condition ordering in-scope body atoms through
``dep`` atoms, the strong condition (the only reader of ``gap`` atoms)
denying a fully gapped support, which pins rank minimality, the external
support condition over the rest of the body, and the rank reset for
externally supported heads.

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

from .depgraph import scopes
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
from .program import Polarity, Program, Rule, def_of


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


def _plain_terms(rule: Rule):
    return [PBTerm(wl.weight, Base(wl.literal.atom),
                   wl.literal.polarity is Polarity.NEGATIVE)
            for wl in rule.body]


def plain_body_formula(rule: Rule):
    """The rule body over plain atoms; negated literals appear classically
    negated with the bound left at the source value."""
    return make_pb(_plain_terms(rule), rule.lower, rule.upper)


def emit_support(fs: FormulaSet, head: str, i: int, ns: str, weak, ext, deny,
                 has_in: bool, ext_possible: bool) -> Aux:
    """The support formulas of rule ``i`` of ``head`` in a ranked scope.

    ``weak`` is the internal support condition, ``ext`` the external one
    and ``deny`` the strong condition's denial of a fully gapped support
    (``None`` without strong constraints).  When the bound is out of reach
    without in-scope atoms the applicability atom takes ``weak``; without
    in-scope positive atoms it takes ``ext`` and resets the head's rank;
    otherwise it splits into an internal and an external atom.  Returns
    the applicability atom.
    """
    app = Aux("app", head, i, ns)
    fs.declare_aux(app)
    if has_in and not ext_possible:
        fs.add(f"app:{head}:{i}", Iff(Var(app), weak))
        if deny is not None:
            fs.add(f"strong:{head}:{i}", Implies(Var(app), deny))
        return app
    if not has_in:
        fs.add(f"app:{head}:{i}", Iff(Var(app), ext))
        resets = app
    else:
        internal = Aux("int", head, i, ns)
        external = Aux("ext", head, i, ns)
        fs.declare_aux(internal, external)
        fs.add(f"split:{head}:{i}", Iff(Var(app), disj(Var(internal), Var(external))))
        fs.add(f"int:{head}:{i}", Iff(Var(internal), weak))
        if deny is not None:
            fs.add(f"strong:{head}:{i}",
                   Implies(Var(internal), disj(deny, Var(external))))
        fs.add(f"ext:{head}:{i}", Iff(Var(external), ext))
        resets = external
    fs.add(f"reset:{head}:{i}", Implies(Var(resets), Diff(LevelVar(head), Z, 1)))
    return app


def _vub(fs: FormulaSet, head: str, i: int, ns: str, terms, upper: int) -> Aux:
    """The violation atom of rule ``i``'s upper bound over ``terms``."""
    vub = Aux("vub", head, i, ns)
    fs.declare_aux(vub)
    fs.add(f"vub:{head}:{i}", Iff(Var(vub), make_pb(terms, lower=upper + 1)))
    return vub


def _ranked_rule(fs: FormulaSet, head: str, i: int, rule: Rule, parts,
                 strong: bool, vub_form: bool, ns: str):
    pin, pout, dneg, neg = parts
    out = _out_terms(pout, dneg, neg)
    plain_in = [PBTerm(w, Base(b)) for b, w in pin]
    lower, upper = rule.lower, rule.upper

    vub = None
    if upper is None:
        bound_check = TrueF()
    elif vub_form:
        vub = _vub(fs, head, i, ns, plain_in + out, upper)
        bound_check = Not(Var(vub))
    else:
        bound_check = make_pb(plain_in + out, upper=upper)

    dep_terms = [PBTerm(w, Aux("dep", head, b)) for b, w in pin]
    gap_terms = [PBTerm(w, Aux("gap", head, b)) for b, w in pin]
    app = emit_support(fs, head, i, ns,
                       weak=conj(make_pb(dep_terms + out, lower=lower), bound_check),
                       ext=conj(make_pb(out, lower=lower), bound_check),
                       deny=make_pb(gap_terms + out, upper=lower - 1) if strong else None,
                       has_in=bool(pin),
                       ext_possible=sum(t.coef for t in out) >= lower)
    if vub is not None:
        fs.add(f"ubcheck:{head}:{i}", Not(conj(Var(app), Var(vub))))
    return Var(app)


def _flat_rule(fs: FormulaSet, head: str, i: int, rule: Rule, vub_form: bool):
    """Rule ``i``'s disjunct in the Clark completion of a non-recursive
    head: its plain body, or an applicability atom the ``vub`` guard reads."""
    if rule.upper is None or not vub_form:
        return plain_body_formula(rule)
    terms = _plain_terms(rule)
    app = Aux("app", head, i)
    fs.declare_aux(app)
    vub = _vub(fs, head, i, "", terms, rule.upper)
    fs.add(f"app:{head}:{i}",
           Iff(Var(app), conj(make_pb(terms, lower=rule.lower), Not(Var(vub)))))
    fs.add(f"ubcheck:{head}:{i}", Not(conj(Var(app), Var(vub))))
    return Var(app)


def _define(fs: FormulaSet, head: str, supports: list):
    """The head's completion over its rules' supports; none leaves it free."""
    if supports:
        fs.add(f"def:{head}", Iff(Var(Base(head)), disj(*supports)))


def toc_module(program: Program, scope: frozenset, *,
               strong: bool = True, vub_form: bool = False,
               aux_ns: str = "") -> FormulaSet:
    """Ordered completion of the scope's defining rules.  Scope atoms
    without defining rules stay free but still receive range formulas.
    The scope need not be a strongly connected component: the global mode
    and the harnesses rank larger or hand-picked scopes.
    """
    atoms = sorted(scope)
    defs = {a: def_of(a, program) for a in atoms}
    fs = FormulaSet()
    fs.declare_base(*atoms)

    for atom in atoms:
        for rule in defs[atom]:
            fs.declare_base(*sorted(set(rule.body_atoms())))

    size = len(scope)
    for atom in atoms:
        fs.declare_level(atom, 1, size + 1)
        fs.extend(mk_bounds(atom, size))
    parts = {a: [_split_body(r, scope) for r in defs[a]] for a in atoms}
    edges = sorted({(a, b) for a in atoms
                    for pin, *_ in parts[a] for b, _ in pin})
    kinds = ("dep", "gap") if strong else ("dep",)
    for a, b in edges:
        fs.declare_aux(*(Aux(kind, a, b) for kind in kinds))
        fs.extend(mk_dep_gap(a, b, kinds))

    for atom in atoms:
        _define(fs, atom, [_ranked_rule(fs, atom, i, rule, part, strong, vub_form, aux_ns)
                           for i, (rule, part) in enumerate(zip(defs[atom], parts[atom]), 1)])
    return fs


def toc_program(program: Program, *, scope_mode: str = "scc",
                strong: bool = True, vub_form: bool = False) -> FormulaSet:
    """Union of the per-scope completions, the integrity constraints and
    the zero pin for ``z``.

    ``scope_mode="scc"`` ranks each recursive strongly connected component
    and completes every other head, always a singleton scope, in place;
    ``"global"`` ranks the whole signature as one scope, which makes every
    derivation stage observable on a ranking variable.
    """
    fs = FormulaSet()
    fs.declare_base(*sorted(program.atom_names))
    for scope, ranked in scopes(program, scope_mode):
        if ranked:
            fs.merge(toc_module(program, scope, strong=strong, vub_form=vub_form))
        else:
            (atom,) = scope
            _define(fs, atom, [_flat_rule(fs, atom, i, rule, vub_form)
                               for i, rule in enumerate(def_of(atom, program), 1)])
    for idx, rule in enumerate(program.constraints(), 1):
        fs.add(f"constraint:{idx}", Not(plain_body_formula(rule)))
    fs.add("pin:z", ZPin())
    return fs
