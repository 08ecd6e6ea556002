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
and a rule without in-scope positive atoms keeps no internal one.

Every sum is written as the connective it equals (``make_pb``), so a
normal rule's conditions are conjunctions of literals, as in the plain
ordered completion; only real aggregates stay sums.  An ``app``,
``int``, ``ext`` or ``vub`` atom whose condition is then a literal or a
constant is neither declared nor defined: that literal is read wherever
the atom would be, so a one-atom normal body needs no applicability
atom.  An implication with a false premise is not written, one with a
true premise is written as its conclusion, and a head whose rules amount
to the head itself gets no definition.

Upper bounds of convex rules never participate in the ordering: they
are checked against the unordered body (in-scope atoms taken plainly),
conjoined into both support conditions, while the strong condition
keeps only the lower bound.  Checking the upper bound against the
dep-substituted sum instead would accept unstable models in which the
bound is exceeded only by atoms derived after the head.  The alternative
emission mode spells each upper-bound check as the negation of an
explicit ``vub`` atom defined completion-style; nothing else changes.

Every scope writes into one formula set, which declares the program's
atoms once, and each leaf is built once and every formula shares it: a
``Var`` and its ``Not`` per atom, and per ranked scope a ``LevelVar``
per atom and the ``dep``/``gap`` ``Var``s of each edge.  A sum is a list
of weights and a parallel list of literals: a ranked rule's body is
split once, and its sums concatenate the same lists.  A scope's
scaffolding, its atoms' range formulas and its edges' definitions, is
declared and added in one call (``FormulaSet.add_scaffold``): a list set
builds it as formulas (``mk_bounds``, ``mk_dep_gap``), which the model
finder reads, while the written set of ``asptoc translate`` and
``solve`` writes its text from templates and builds no formula for it.
"""

from __future__ import annotations

from .depgraph import scopes
from .formulas import (
    Aux,
    Base,
    Diff,
    FalseF,
    FormulaSet,
    Iff,
    Implies,
    LevelVar,
    Not,
    TrueF,
    Var,
    Z,
    conj,
    disj,
    make_pb,
    negate,
)
from .program import Polarity, Program, Rule


def _split_body(rule: Rule, scope: frozenset, holds: dict, nots: dict):
    """The rule's in-scope positive atoms and their weights, then the
    weights and the literals (``holds`` or ``nots`` of the atom) of the
    rest of its body: positive, then double-negated, then negated.

    Double-negated literals count like out-of-scope positives: the reduct
    fixes their truth against the candidate model, so they never order.
    """
    pin, win, coefs, lits, dneg, neg = [], [], [], [], [], []
    positive, negative = Polarity.POSITIVE, Polarity.NEGATIVE
    for wl in rule.body:
        if wl.polarity is not positive:
            (neg if wl.polarity is negative else dneg).append(wl)
        elif wl.atom in scope:
            pin.append(wl.atom)
            win.append(wl.weight)
        else:
            coefs.append(wl.weight)
            lits.append(holds[wl.atom])
    for wl in dneg + neg:
        coefs.append(wl.weight)
        lits.append(nots[wl.atom] if wl.polarity is negative else holds[wl.atom])
    return pin, win, coefs, lits


def _plain_body(rule: Rule, holds: dict, nots: dict):
    """The weights and the literals of the rule body, in its order;
    negated literals appear classically negated with the bound left at the
    source value."""
    negative = Polarity.NEGATIVE
    body = rule.body
    return ([wl.weight for wl in body],
            [nots[wl.atom] if wl.polarity is negative else holds[wl.atom] for wl in body])


def _named(fs: FormulaSet, kind: str, head: str, i: int, body):
    """What stands for ``body`` as the atom ``kind:head:i``: ``body``
    itself when it is a literal or a constant, else the atom's ``Var``,
    declared."""
    t = type(body)
    if t is Var or t is TrueF or t is FalseF or t is Not and type(body.sub) is Var:
        return body
    atom = Aux(kind, head, i)
    fs.declare_aux(atom)
    return Var(atom)


def _iff(fs: FormulaSet, name: str, atom, body):
    """The definition ``atom <-> body``, unless ``atom`` is ``body``
    itself (see ``_named``)."""
    if atom is not body:
        fs.add(name, Iff(atom, body))


def _implies(fs: FormulaSet, name: str, premise, conclusion):
    """``premise -> conclusion``: nothing when the premise is false or the
    conclusion true, the conclusion alone when the premise is true."""
    if type(premise) is FalseF or type(conclusion) is TrueF:
        return
    fs.add(name, conclusion if type(premise) is TrueF else Implies(premise, conclusion))


def emit_support(fs: FormulaSet, x: LevelVar, i: int, weak, ext, deny, has_in: bool):
    """The support formulas of rule ``i`` of the head ranked by ``x`` in a
    ranked scope.

    ``weak`` is the internal support condition, ``ext`` the external one
    and ``deny`` the strong condition's denial of a fully gapped support
    (``None`` without strong constraints).  When ``ext`` is false, the
    bound being out of reach without in-scope atoms, the applicability
    atom takes ``weak``; without in-scope positive atoms it takes ``ext``
    and resets the head's rank; otherwise it splits into an internal and
    an external atom.  An atom whose condition is a literal or a constant
    is that condition (see ``_named``).  Returns what the head's
    definition reads for the rule: the ``Var`` of the applicability atom
    or its condition.
    """
    head = x.owner
    if type(ext) is FalseF:
        applies = _named(fs, "app", head, i, weak)
        _iff(fs, f"app:{head}:{i}", applies, weak)
        if deny is not None:
            _implies(fs, f"strong:{head}:{i}", applies, deny)
        return applies
    if not has_in:
        applies = resets = _named(fs, "app", head, i, ext)
        _iff(fs, f"app:{head}:{i}", applies, ext)
    else:
        internal = _named(fs, "int", head, i, weak)
        external = _named(fs, "ext", head, i, ext)
        either = disj(internal, external)
        applies = _named(fs, "app", head, i, either)
        _iff(fs, f"split:{head}:{i}", applies, either)
        _iff(fs, f"int:{head}:{i}", internal, weak)
        if deny is not None:
            _implies(fs, f"strong:{head}:{i}", internal, disj(deny, external))
        _iff(fs, f"ext:{head}:{i}", external, ext)
        resets = external
    _implies(fs, f"reset:{head}:{i}", resets, Diff(x, Z, 1))
    return applies


def _upper_check(fs: FormulaSet, head: str, i: int, coefs: list, lits: list, upper: int,
                 vub_form: bool):
    """Rule ``i``'s check that ``lits`` weighted by ``coefs`` sum to at
    most ``upper``: the bound itself, or with ``vub_form`` the negation of
    a violation atom defined completion-style."""
    if not vub_form:
        return make_pb(coefs, lits, upper=upper)
    exceeds = make_pb(coefs, lits, lower=upper + 1)
    violated = _named(fs, "vub", head, i, exceeds)
    _iff(fs, f"vub:{head}:{i}", violated, exceeds)
    return negate(violated)


def _ranked_rule(fs: FormulaSet, x: LevelVar, i: int, rule: Rule, scope: frozenset,
                 holds: dict, nots: dict, edges: dict, strong: bool, vub_form: bool):
    """Rule ``i`` of the head ranked by ``x``; ``edges`` maps each of its
    in-scope body atoms to the ``Var`` of the edge's declared ``dep`` (and
    ``gap``) atom, which its sums read before the rest of the body."""
    pin, win, coefs, out = _split_body(rule, scope, holds, nots)
    lower, upper = rule.lower, rule.upper

    # without in-scope atoms both conditions are the plain body, and
    # emit_support reads no denial
    ext = make_pb(coefs, out, lower=lower)
    if pin:
        coefs = win + coefs
        arcs = [edges[b] for b in pin]
        weak = make_pb(coefs, [arc[0] for arc in arcs] + out, lower=lower)
    else:
        weak = ext
    if upper is not None:
        plain = [holds[b] for b in pin] + out
        bound_check = _upper_check(fs, x.owner, i, coefs, plain, upper, vub_form)
        weak, ext = conj(weak, bound_check), conj(ext, bound_check)

    deny = None
    if strong and pin:
        deny = make_pb(coefs, [arc[1] for arc in arcs] + out, upper=lower - 1)
    return emit_support(fs, x, i, weak=weak, ext=ext, deny=deny, has_in=bool(pin))


def _flat_rule(fs: FormulaSet, head: str, i: int, rule: Rule, holds: dict, nots: dict,
               vub_form: bool):
    """Rule ``i``'s disjunct in the Clark completion of a non-recursive
    head: its plain body, one two-bound sum unless ``vub_form`` spells the
    upper bound apart."""
    coefs, lits = _plain_body(rule, holds, nots)
    if rule.upper is None or not vub_form:
        return make_pb(coefs, lits, rule.lower, rule.upper)
    return conj(make_pb(coefs, lits, lower=rule.lower),
                _upper_check(fs, head, i, coefs, lits, rule.upper, vub_form))


def _define(fs: FormulaSet, holds: Var, supports: list):
    """The completion of the head ``holds`` reads over its rules' supports,
    unless they amount to the head's own ``Var``, which would make it a
    tautology."""
    body = disj(*supports)
    if body is not holds:
        fs.add(f"def:{holds.atom.name}", Iff(holds, body))


def _rank(fs: FormulaSet, program: Program, scope: frozenset, holds: dict, nots: dict,
          strong: bool, vub_form: bool):
    """Write the ordered completion of the scope's defining rules into
    ``fs``, reading each atom's literals from ``holds`` and ``nots``.
    Scope atoms without defining rules stay free but still receive range
    formulas.  Each rule's body is split when its head is defined."""
    atoms = sorted(scope)
    head_index = program.head_index
    positive = Polarity.POSITIVE
    level, edges = {}, {}
    for a in atoms:
        level[a] = LevelVar(a)
        rules = head_index.get(a, ())
        targets = sorted({wl.atom for rule in rules for wl in rule.body
                          if wl.polarity is positive and wl.atom in scope})
        edges[a] = {b: (Var(Aux("dep", a, b)), Var(Aux("gap", a, b))) if strong
                    else (Var(Aux("dep", a, b)),) for b in targets}
    fs.add_scaffold(level, holds, edges)

    for atom in atoms:
        rules = head_index.get(atom)
        if rules:
            _define(fs, holds[atom],
                    [_ranked_rule(fs, level[atom], i, rule, scope, holds, nots, edges[atom],
                                  strong, vub_form)
                     for i, rule in enumerate(rules, 1)])


def _declared(program: Program, fs: FormulaSet):
    """Declare the program's atoms in ``fs``, in name order, and return
    each one's ``Var`` and its ``Not``, read by every formula written."""
    names = sorted(program.atom_names)
    fs.declare_base(*names)
    holds = {n: Var(Base(n)) for n in names}
    return holds, {n: Not(v) for n, v in holds.items()}


def toc_module(program: Program, scope: frozenset, *,
               strong: bool = True, vub_form: bool = False) -> FormulaSet:
    """Ordered completion of the scope's defining rules, as ``toc_program``
    writes it, in a set of its own declaring the program's atoms.  The
    scope need not be a strongly connected component: the global mode
    ranks every defined atom at once, and the proposition check ranks a
    rule's head with its body."""
    fs = FormulaSet()
    _rank(fs, program, scope, *_declared(program, fs), strong, vub_form)
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
    and solve commands pass a ``written_set`` of :mod:`asptoc.smtlib`,
    which keeps the text of each formula, in the format they print,
    instead of the formula.
    """
    fs = FormulaSet() if into is None else into
    holds, nots = _declared(program, fs)
    head_index = program.head_index
    for scope, ranked in scopes(program, scope_mode):
        if ranked:
            _rank(fs, program, scope, holds, nots, strong, vub_form)
        else:
            (atom,) = scope
            rules = head_index.get(atom)
            if rules:  # an input atom stays free
                _define(fs, holds[atom], [_flat_rule(fs, atom, i, rule, holds, nots, vub_form)
                                          for i, rule in enumerate(rules, 1)])
    for idx, rule in enumerate(program.constraints(), 1):
        check = negate(make_pb(*_plain_body(rule, holds, nots), rule.lower, rule.upper))
        if type(check) is not TrueF:
            fs.add(f"constraint:{idx}", check)
    return fs
