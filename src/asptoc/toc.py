"""Tight ordered completion.

Every rule is translated through one path, its canonical weight form.
A non-recursive head gets Clark's completion over its plain rule bodies,
with no auxiliary atom but the ``vub`` atom below.  Inside a ranked scope
a rule contributes up to six formulas: the head equivalence over
applicability atoms, the internal/external split, the weak (internal)
support condition ordering in-scope body atoms through ``dep`` atoms, the
strong condition (the only reader of ``gap`` atoms) denying a fully
gapped support, which pins rank minimality, the external support
condition over the rest of the body, and the rank reset for externally
supported heads.

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
emission mode spells each upper-bound check as the negation of an
explicit ``vub`` atom defined completion-style; nothing else changes.

Every scope writes into one formula set, which declares the program's
atoms once, and each leaf is built once and every formula shares it: one
``Base`` per atom, read by the flat completions, the constraints and
every ranked scope; a ranked scope builds one ``Var`` and ``LevelVar``
per scope atom and the ``dep``/``gap`` atoms of each edge, declared once
and read by their definitions and by every rule's sums alike.
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
    Var,
    Z,
    conj,
    disj,
    make_pb,
    mk_bounds,
    mk_dep_gap,
)
from .program import Polarity, Program, Rule


def _split_body(rule: Rule, scope: frozenset, base: dict):
    """The rule's in-scope positive atoms with their weights, and the terms
    of the rest of its body over the scope's ``base`` atoms: positive, then
    double-negated, then negated.

    Double-negated literals count like out-of-scope positives: the reduct
    fixes their truth against the candidate model, so they never order.
    """
    pin, pout, dneg, neg = [], [], [], []
    for wl in rule.body:
        atom, polarity = wl.atom, wl.polarity
        if polarity is Polarity.POSITIVE:
            if atom in scope:
                pin.append((atom, wl.weight))
            else:
                pout.append(PBTerm(wl.weight, base[atom]))
        elif polarity is Polarity.DOUBLE_NEGATED:
            dneg.append(PBTerm(wl.weight, base[atom]))
        else:
            neg.append(PBTerm(wl.weight, base[atom], True))
    return pin, pout + dneg + neg


def _plain_terms(rule: Rule, base: dict):
    negative = Polarity.NEGATIVE
    return [PBTerm(wl.weight, base[wl.atom], wl.polarity is negative)
            for wl in rule.body]


def plain_body_formula(rule: Rule, base: dict):
    """The rule body over the ``base`` atoms; negated literals appear
    classically negated with the bound left at the source value."""
    return make_pb(_plain_terms(rule, base), rule.lower, rule.upper)


def emit_support(fs: FormulaSet, x: LevelVar, i: int, weak, ext, deny,
                 has_in: bool, ext_possible: bool) -> Var:
    """The support formulas of rule ``i`` of the head ranked by ``x`` in a
    ranked scope.

    ``weak`` is the internal support condition, ``ext`` the external one
    and ``deny`` the strong condition's denial of a fully gapped support
    (``None`` without strong constraints).  When the bound is out of reach
    without in-scope atoms the applicability atom takes ``weak``; without
    in-scope positive atoms it takes ``ext`` and resets the head's rank;
    otherwise it splits into an internal and an external atom.  Returns
    the ``Var`` of the applicability atom.
    """
    head = x.owner
    applies = Var(Aux("app", head, i))
    fs.declare_aux(applies.atom)
    if has_in and not ext_possible:
        fs.add(f"app:{head}:{i}", Iff(applies, weak))
        if deny is not None:
            fs.add(f"strong:{head}:{i}", Implies(applies, deny))
        return applies
    if not has_in:
        fs.add(f"app:{head}:{i}", Iff(applies, ext))
        resets = applies
    else:
        internal = Var(Aux("int", head, i))
        external = Var(Aux("ext", head, i))
        fs.declare_aux(internal.atom, external.atom)
        fs.add(f"split:{head}:{i}", Iff(applies, disj(internal, external)))
        fs.add(f"int:{head}:{i}", Iff(internal, weak))
        if deny is not None:
            fs.add(f"strong:{head}:{i}", Implies(internal, disj(deny, external)))
        fs.add(f"ext:{head}:{i}", Iff(external, ext))
        resets = external
    fs.add(f"reset:{head}:{i}", Implies(resets, Diff(x, Z, 1)))
    return applies


def _upper_check(fs: FormulaSet, head: str, i: int, terms, upper: int, vub_form: bool):
    """Rule ``i``'s check that ``terms`` sum to at most ``upper``: the bound
    itself, or with ``vub_form`` the negation of a violation atom defined
    completion-style."""
    if not vub_form:
        return make_pb(terms, upper=upper)
    violated = Var(Aux("vub", head, i))
    fs.declare_aux(violated.atom)
    fs.add(f"vub:{head}:{i}", Iff(violated, make_pb(terms, lower=upper + 1)))
    return Not(violated)


def _ranked_rule(fs: FormulaSet, x: LevelVar, i: int, rule: Rule, parts,
                 base: dict, edges: dict, strong: bool, vub_form: bool):
    """Rule ``i`` of the head ranked by ``x``; ``edges`` maps each of its
    in-scope body atoms to the edge's declared ``dep`` (and ``gap``) atom."""
    pin, out = parts
    lower, upper = rule.lower, rule.upper

    weak = make_pb([PBTerm(w, edges[b][0]) for b, w in pin] + out, lower=lower)
    ext = make_pb(out, lower=lower)
    if upper is not None:
        plain = [PBTerm(w, base[b]) for b, w in pin] + out
        bound_check = _upper_check(fs, x.owner, i, plain, upper, vub_form)
        weak, ext = conj(weak, bound_check), conj(ext, bound_check)

    deny = None
    if strong:
        gap_terms = [PBTerm(w, edges[b][1]) for b, w in pin]
        deny = make_pb(gap_terms + out, upper=lower - 1)
    return emit_support(fs, x, i, weak=weak, ext=ext, deny=deny, has_in=bool(pin),
                        ext_possible=sum(t.coef for t in out) >= lower)


def _flat_rule(fs: FormulaSet, head: str, i: int, rule: Rule, base: dict,
               vub_form: bool):
    """Rule ``i``'s disjunct in the Clark completion of a non-recursive
    head: its plain body, one two-bound sum unless ``vub_form`` spells the
    upper bound apart."""
    if rule.upper is None or not vub_form:
        return plain_body_formula(rule, base)
    terms = _plain_terms(rule, base)
    return conj(make_pb(terms, lower=rule.lower),
                _upper_check(fs, head, i, terms, rule.upper, vub_form))


def _define(fs: FormulaSet, holds: Var, supports: list):
    """The completion of the head ``holds`` reads over its rules' supports."""
    fs.add(f"def:{holds.atom.name}", Iff(holds, disj(*supports)))


def _rank(fs: FormulaSet, program: Program, scope: frozenset, base: dict,
          strong: bool, vub_form: bool):
    """Write the ordered completion of the scope's defining rules into
    ``fs``, reading the ``Base`` of each atom from ``base``.  Scope atoms
    without defining rules stay free but still receive range formulas."""
    atoms = sorted(scope)
    head_index = program.head_index
    defs = {a: head_index.get(a, ()) for a in atoms}
    holds = {a: Var(base[a]) for a in atoms}
    level = {a: LevelVar(a) for a in atoms}

    size = len(scope)
    for atom in atoms:
        fs.declare_level(atom, 1, size + 1)
        fs.extend(mk_bounds(level[atom], holds[atom], size))
    parts = {a: [_split_body(r, scope, base) for r in defs[a]] for a in atoms}
    kinds = ("dep", "gap") if strong else ("dep",)
    edges = {}
    for a in atoms:
        edges[a] = {}
        for b in sorted({b for pin, _ in parts[a] for b, _ in pin}):
            auxes = edges[a][b] = tuple(Aux(kind, a, b) for kind in kinds)
            fs.declare_aux(*auxes)
            fs.extend(mk_dep_gap(auxes, holds[b], level[a], level[b]))

    for atom in atoms:
        if defs[atom]:
            _define(fs, holds[atom],
                    [_ranked_rule(fs, level[atom], i, rule, part, base, edges[atom],
                                  strong, vub_form)
                     for i, (rule, part) in enumerate(zip(defs[atom], parts[atom]), 1)])


def _declared(program: Program, fs: FormulaSet) -> dict:
    """Declare the program's atoms in ``fs``, in name order, and return one
    ``Base`` per atom, read by every formula written into it."""
    names = sorted(program.atom_names)
    fs.declare_base(*names)
    return {n: Base(n) for n in names}


def toc_module(program: Program, scope: frozenset, *,
               strong: bool = True, vub_form: bool = False) -> FormulaSet:
    """Ordered completion of the scope's defining rules, as ``toc_program``
    writes it, in a set of its own declaring the program's atoms.  The
    scope need not be a strongly connected component: the global mode
    ranks every defined atom at once, and the proposition check ranks a
    rule's head with its body."""
    fs = FormulaSet()
    _rank(fs, program, scope, _declared(program, fs), strong, vub_form)
    return fs


def toc_program(program: Program, *, scope_mode: str = "scc",
                strong: bool = True, vub_form: bool = False,
                into: FormulaSet | None = None) -> FormulaSet:
    """Every scope's completion and the integrity constraints in one set:
    ``into``, an empty set, or a new one.

    ``scope_mode="scc"`` ranks each recursive strongly connected component
    and completes every other head, always a singleton scope, in place;
    ``"global"`` ranks the whole signature as one scope, which makes every
    derivation stage observable on a ranking variable.  The translate
    command passes a ``written_set`` of :mod:`asptoc.smtlib`, which keeps
    the text of each formula instead of the formula.
    """
    fs = FormulaSet() if into is None else into
    base = _declared(program, fs)
    head_index = program.head_index
    for scope, ranked in scopes(program, scope_mode):
        if ranked:
            _rank(fs, program, scope, base, strong, vub_form)
        else:
            (atom,) = scope
            rules = head_index.get(atom)
            if rules:  # an input atom stays free
                _define(fs, Var(base[atom]), [_flat_rule(fs, atom, i, rule, base, vub_form)
                                              for i, rule in enumerate(rules, 1)])
    for idx, rule in enumerate(program.constraints(), 1):
        fs.add(f"constraint:{idx}", Not(plain_body_formula(rule, base)))
    return fs
