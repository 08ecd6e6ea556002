"""Reference semantics and forms only the tests use: supported models,
level numberings, modules as stand-alone programs, one atom's defining
rules, model projections, a brute-force model finder, a full
re-evaluation of a found model, formula sets with formulas dropped by
name, programs rendered back to source and formula sets as debug text, the
plain recursive emitter of one formula, the extensional completion form,
and the symbol naming with its inverse.

They check the oracle, the model finder and the translator from a second
angle, and no command of asptoc needs them, so they live beside the
tests.  The module program gives the oracle's module ranks a second
derivation: the least model of the module's own reduct, where the oracle
reads the scope's rules off the whole program's reduct.  The extensional
form, :func:`toc_abstract`, feeds the translator's support skeleton with
a family of accepted body subsets instead of a weighted sum; the tests
check it against the weight path.
"""

import itertools

from asptoc.dlcheck import DLModel
from asptoc.formulas import (
    PB,
    TRUE,
    And,
    Aux,
    Base,
    Diff,
    FalseF,
    FormulaSet,
    Iff,
    Implies,
    LevelVar,
    Not,
    Or,
    TrueF,
    Var,
    Z,
    conj,
    _spell,
    disj,
    eval_formula,
)
from asptoc.node import Node
from asptoc.normtest import _minimal
from asptoc.oracle import (
    PositiveRule,
    _check_cap,
    _interpretations,
    aggregate_reduct,
    least_model,
    reduct,
    tp_step,
)
from asptoc.program import (
    INFINITY,
    Polarity,
    Program,
    ResourceError,
    Rule,
    WeightedLiteral,
    program_of,
    weight_sum,
)
from asptoc.smtlib import DEBUG, Written
from asptoc.toc import emit_support


def supported_models(program: Program, cap: int = 20):
    """Fixed points of the one-step operator on the reduct; a superset of
    the stable models."""
    _check_cap(program, cap)
    inputs = program.input_atoms()
    found = []
    for candidate in _interpretations(program.atom_names):
        if not all(c.satisfied(candidate) for c in program.constraints()):
            continue
        step = tp_step(reduct(program, candidate), candidate) | (candidate & inputs)
        if step == candidate:
            found.append(candidate)
    found.sort(key=lambda m: tuple(sorted(m)))
    return found


class LevelNumbering(Node, fields="atoms rules"):
    """Atom -> level, and program rule index -> level."""

    __slots__ = ()


def _stages(reduct_rules, input_atoms):
    stages = [frozenset(input_atoms)]
    while True:
        nxt = stages[-1] | tp_step(reduct_rules, stages[-1])
        if nxt == stages[-1]:
            return stages
        stages.append(nxt)


def level_numbering(program: Program, model: frozenset) -> LevelNumbering:
    """Levels of atoms and rules under a stable model.

    A supporting rule's level is one past the first stage at which its
    reduct body holds, which reduces to max over positive body levels
    plus one for plain conjunctive rules.
    """
    inputs = program.input_atoms()
    red = reduct(program, model)
    lm, ranks = least_model(red, model & inputs)
    if lm != model:
        raise ValueError("interpretation is not a stable model")
    atom_levels = {a: ranks.get(a, INFINITY) for a in program.atom_names}

    stages = _stages(red, model & inputs)
    rule_levels = {}
    for idx, rule in enumerate(program.rules):
        if rule.head is None:
            continue
        if not rule.body_satisfied(model):
            rule_levels[idx] = INFINITY
            continue
        if rule.upper is not None:
            positive = aggregate_reduct(rule, model)
        else:
            fixed = weight_sum(model, rule.literals(Polarity.NEGATIVE,
                                                    Polarity.DOUBLE_NEGATED))
            terms = tuple((wl.atom, wl.weight)
                          for wl in rule.literals(Polarity.POSITIVE))
            positive = PositiveRule(rule.head, terms, max(0, rule.lower - fixed), None)
        level = INFINITY
        for j, stage in enumerate(stages):
            if positive.body_satisfied(stage):
                level = j + 1
                break
        rule_levels[idx] = level
    return LevelNumbering(atom_levels, rule_levels)


def module_program(program: Program, scope: frozenset) -> Program:
    """The module as a stand-alone program: atoms outside the scope keep no
    defining rules and therefore vary freely as inputs."""
    rules = tuple(r for r in program.rules if r.head in scope)
    names = set(scope)
    for rule in rules:
        names.update(body_atoms(rule))
    return program_of(rules, extra_atoms=names)


def module_least_model_ranks(program: Program, scope: frozenset, model: frozenset) -> dict:
    """Module ranks through ``module_program``: the least model of the
    module's own reduct, seeded with its input atoms that ``model`` makes
    true; ``ValueError`` if that least model is not ``model`` on the
    module's atoms."""
    sub = module_program(program, scope)
    restricted = model & frozenset(sub.atom_names)
    lm, ranks = least_model(reduct(sub, restricted), restricted & sub.input_atoms())
    if lm != restricted:
        raise ValueError("model is not stable for the module")
    return {atom: ranks[atom] if atom in restricted else INFINITY for atom in scope}


def def_of(atom: str, program: Program) -> list[Rule]:
    """Defining rules of ``atom`` in program order, read from the program's
    head index."""
    if atom not in program.atom_names:
        raise KeyError(f"unknown atom {atom!r}")
    return list(program.head_index.get(atom, ()))


def project_models(models, visible) -> list[frozenset]:
    """Projections of finder models to the visible atoms, duplicates
    preserved."""
    visible = frozenset(visible)
    return [frozenset(n for n, v in m.props if v and n in visible) for m in models]


def brute_force_models(fs: FormulaSet) -> list[DLModel]:
    """Every assignment over the declared vocabulary, each ranking variable
    at every value of its ``level_bounds`` range and ``z`` at 0, on which
    ``eval_formula`` holds for every formula: no grouping, no variable
    order, no early cut."""
    names = sorted([*fs.base_atoms, *fs.aux_atoms.values()])
    owners = sorted(fs.level_bounds)
    ranges = [range(lo, hi + 1) for lo, hi in map(fs.level_bounds.get, owners)]
    found = []
    for bits in itertools.product((False, True), repeat=len(names)):
        bools = dict(zip(names, bits))
        for ranks in itertools.product(*ranges):
            ints = {LevelVar(o).name: r for o, r in zip(owners, ranks)}
            if owners:
                ints[Z.name] = 0
            if all(eval_formula(f, bools, ints) for _, f in fs.formulas):
                found.append(DLModel(tuple(sorted(bools.items())),
                                     tuple(sorted(ints.items()))))
    return found


def recheck(fs: FormulaSet, model: DLModel) -> bool:
    """Independent full re-evaluation of a model, no search shortcuts."""
    env = model.prop_map
    ints = model.int_map
    return all(eval_formula(f, env, ints) for _, f in fs.formulas)


def drop_formulas(fs: FormulaSet, prefix: str) -> FormulaSet:
    """A copy of ``fs`` without the formulas whose name starts with
    ``prefix``; the vocabulary is copied whole."""
    return FormulaSet([(n, f) for n, f in fs.formulas if not n.startswith(prefix)],
                      dict(fs.base_atoms), dict(fs.aux_atoms), dict(fs.level_bounds))


# ---------------------------------------------------------------------------
# source text and debug text

def body_atoms(rule: Rule) -> tuple[str, ...]:
    return tuple(wl.atom for wl in rule.body)


def _render_literal(lit: WeightedLiteral) -> str:
    if lit.polarity is Polarity.NEGATIVE:
        return f"not {lit.atom}"
    if lit.polarity is Polarity.DOUBLE_NEGATED:
        raise ValueError("double negation has no source form")
    return lit.atom


def _render_rule(rule: Rule) -> str:
    """The conjunctive spelling for a rule of unit weights whose bound is
    its body size, with a choice head when the body ends in the
    double-negated head literal; the aggregate spelling otherwise."""
    body = rule.body
    head = rule.head or ""
    sep = " :- " if head else ":- "
    unit = all(wl.weight == 1 for wl in body)
    if unit and rule.upper is None and rule.lower == len(body):
        if head and body and body[-1] == WeightedLiteral(head, Polarity.DOUBLE_NEGATED):
            body, head = body[:-1], "{%s}" % head
        parts = ", ".join(map(_render_literal, body))
        return f"{head}{sep}{parts}." if parts or not head else f"{head}."

    items = [_render_literal(wl) if unit else f"{_render_literal(wl)}={wl.weight}"
             for wl in body]
    agg = f"{rule.lower} <= {{ {', '.join(items)} }}" if items else f"{rule.lower} <= {{ }}"
    if rule.upper is not None:
        agg += f" <= {rule.upper}"
    return f"{head}{sep}{agg}."


def render_program(program: Program) -> str:
    """Render a program; ``parse_program(render_program(p))`` is identity."""
    lines = [_render_rule(rule) for rule in program.rules]
    mentioned = set()
    for rule in program.rules:
        if rule.head is not None:
            mentioned.add(rule.head)
        mentioned.update(body_atoms(rule))
    for atom in program.atom_names:
        if atom not in mentioned:
            lines.append(f"#atom {atom}.")
    if program.hidden:
        lines.append("#hide " + ", ".join(sorted(program.hidden)) + ".")
    return "\n".join(lines) + ("\n" if lines else "")


def debug_text(fs: FormulaSet) -> str:
    """The debug format of the finished set ``fs``: its formulas written
    through a ``Written`` as ``emit_smtlib`` writes them, so a lookup miss
    raises the ``ValidationError`` that names the formula's undeclared
    symbols."""
    written = Written(DEBUG, fs.symbols)
    written.extend(fs.formulas)
    return "".join(written.text(fs))


# ---------------------------------------------------------------------------
# the emitter's reference

def _int(k: int) -> str:
    return str(k) if k >= 0 else f"(- {-k})"


def _sum_text(terms, table) -> str:
    parts = []
    for t in terms:
        lit = table[t.atom.name]
        if t.negated:
            lit = f"(not {lit})"
        parts.append(f"(ite {lit} {t.coef} 0)")
    if not parts:
        return "0"
    if len(parts) == 1:
        return parts[0]
    return "(+ " + " ".join(parts) + ")"


def reference_sexpr(formula, table) -> str:
    """One formula as an SMT-LIB term, as ``asptoc.smtlib.to_sexpr``
    writes it, by the plain recursion over every node: symbols resolve
    through ``table``, raising ``KeyError`` on a miss."""
    t = type(formula)
    if t is Var:
        return table[formula.atom.name]
    if t is Iff:
        return (f"(= {reference_sexpr(formula.left, table)} "
                f"{reference_sexpr(formula.right, table)})")
    if t is And:
        return "(and " + " ".join(reference_sexpr(s, table) for s in formula.subs) + ")"
    if t is Or:
        return "(or " + " ".join(reference_sexpr(s, table) for s in formula.subs) + ")"
    if t is Not:
        return f"(not {reference_sexpr(formula.sub, table)})"
    if t is Implies:
        return (f"(=> {reference_sexpr(formula.left, table)} "
                f"{reference_sexpr(formula.right, table)})")
    if t is Diff:
        lhs, rhs = table[formula.lhs.name], table[formula.rhs.name]
        return f"(<= (- {lhs} {rhs}) {_int(formula.k)})"
    if t is PB:
        total = _sum_text(formula.terms, table)
        checks = []
        if formula.lower is not None:
            checks.append(f"(<= {_int(formula.lower)} {total})")
        if formula.upper is not None:
            checks.append(f"(<= {total} {_int(formula.upper)})")
        return checks[0] if len(checks) == 1 else "(and " + " ".join(checks) + ")"
    if t is TrueF:
        return "true"
    if t is FalseF:
        return "false"
    raise TypeError(f"not a formula: {formula!r}")


# ---------------------------------------------------------------------------
# extensional convex aggregates

class ConvexityError(Exception):
    pass


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


def toc_abstract(fs: FormulaSet, rule: Rule, scope: frozenset, *,
                 family: set | None = None, strong: bool = True):
    """Write into ``fs`` the ordered completion of one rule with its
    aggregate kept extensional.

    Returns what the head's definition reads for the rule (see
    ``toc.emit_support``).

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
        lit = slots[j]
        return lit.polarity is Polarity.POSITIVE and lit.atom in scope

    def plain(j: int):
        lit = slots[j]
        if lit.polarity is Polarity.NEGATIVE:
            return Not(Var(Base(lit.atom)))
        return Var(Base(lit.atom))

    def ordered(j: int, kind: str):
        if in_scope_pos(j):
            return Var(Aux(kind, head, slots[j].atom))
        return plain(j)

    exact = disj(*(conj(*(plain(j) if j in sat else Not(plain(j))
                          for j in sorted(universe)))
                   for sat in sorted(family, key=lambda s: tuple(sorted(s)))))
    bound_check = TRUE if monotone else exact

    weak = conj(disj(*(conj(*(ordered(j, "dep") for j in sorted(sat)))
                       for sat in minimal)), bound_check)
    deny = Not(disj(*(conj(*(ordered(j, "gap") for j in sorted(sat)))
                      for sat in minimal))) if strong else None
    ext_minimal = [sat for sat in minimal if not any(in_scope_pos(j) for j in sat)]
    ext_def = conj(disj(*(conj(*(plain(j) for j in sorted(sat)))
                          for sat in ext_minimal)), bound_check)

    fs.declare_base(*sorted({wl.atom for wl in slots} | {head}))
    kinds = ("dep", "gap") if strong else ("dep",)
    for j in sorted(universe):
        if in_scope_pos(j):
            fs.declare_aux(*(Aux(kind, head, slots[j].atom) for kind in kinds))
    return emit_support(fs, LevelVar(head), 1, weak, ext_def, deny,
                        has_in=any(in_scope_pos(j) for j in universe))


# ---------------------------------------------------------------------------
# symbol naming and its inverse

def encode(ref) -> str:
    """The SMT-LIB symbol of a ``Base``, ``Aux``, ``LevelVar`` or ``Z``, as
    the emitter spells it."""
    return _spell(ref.name) if type(ref) is Base else ref.name


def decode(symbol: str):
    """The reference a symbol (or a key) names; the inverse of ``encode``.
    Raises ``ValueError`` on a quoted symbol ``encode`` does not produce."""
    if symbol.startswith("|"):
        kind, head, *rest = symbol[1:-1].split(":")
        if kind == "atom" and not rest:
            return Base(head)
        (arg,) = rest  # exactly three fields, else ValueError
        return Aux(kind, head, arg if kind in ("dep", "gap") else int(arg))
    if symbol == "__z":
        return Z
    if symbol.startswith("__x_"):
        return LevelVar(symbol[4:])
    return Base(symbol)
