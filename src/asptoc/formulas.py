"""Target formula language.

Formulas mix propositional structure over base and auxiliary atoms with
two theory atoms: difference atoms ``x - y <= k`` over ranking variables
and pseudo-Boolean atoms bounding a weighted sum of literals.  All
integer comparisons are kept in the ``<=`` form, and sums carry only
positive coefficients: a subtracted literal is rewritten as its classical
negation with the bound shifted accordingly, so the emitted constants
stay aligned with the adjusted rule bounds.

Single-variable range constraints are expressed against the distinguished
variable ``z``.  Difference logic is invariant under shifting every
variable by one amount, so the emitter pins ``z`` to zero.
"""

from __future__ import annotations

from typing import Optional, Union

from .node import Node


# ---------------------------------------------------------------------------
# atom and variable references.  Each carries, as ``name``, the string that
# keys it in the symbol table, evaluation environments and ``DLModel``s:
# a base atom its own name, an auxiliary atom its SMT-LIB symbol
# ``|kind:head:arg|``, a ranking variable ``__x_<owner>`` and ``z``
# ``__z``.  No atom name starts with ``_`` or contains ``:``, so the keys
# (and the quoted fields of an auxiliary symbol) tell every reference apart.

class Base(Node, fields="name"):
    __slots__ = ()


def _aux_symbol(kind: str, head: str, arg: Union[str, int]) -> str:
    if kind not in _AUX_KINDS:
        raise ValueError(f"unknown aux kind {kind!r}")
    return f"|{kind}:{head}:{arg}|"


class Aux(Node, fields="kind head arg", key=_aux_symbol):
    """Generated atom of the head ``head``: app/int/ext/vub carry a rule
    ordinal, dep/gap a body atom."""

    __slots__ = ()
    KINDS = ("app", "dep", "gap", "int", "ext", "vub")


_AUX_KINDS = frozenset(Aux.KINDS)

AtomRef = Union[Base, Aux]


class LevelVar(Node, fields="owner", key=lambda owner: f"__x_{owner}"):
    __slots__ = ()


class ZVar(Node, key=lambda: "__z"):
    """The distinguished variable ``z``; every ``ZVar`` names it."""

    __slots__ = ()

    def __repr__(self):
        return "Z"


Z = ZVar()


def ref_name(ref) -> str:
    """The key of an atom, a ranking variable or ``z``: its ``name``."""
    return ref.name


var_name = ref_name


# SMT-LIB 2.6, section 3.1: reserved words (commands included) and
# Core/Ints symbols an atom name can spell; such an atom is declared as
# ``|atom:<name>|``
SMT_RESERVED = frozenset((
    "as exists forall let match par assert echo exit pop push reset "
    "true false not and or xor ite distinct div mod abs").split())


def _spell(name: str) -> str:
    """The SMT-LIB symbol of the base atom ``name``."""
    return f"|atom:{name}|" if name in SMT_RESERVED else name


# ---------------------------------------------------------------------------
# formulas

class Var(Node, fields="atom"):
    __slots__ = ()


class Not(Node, fields="sub"):
    __slots__ = ()


class And(Node, fields="subs"):
    __slots__ = ()


class Or(Node, fields="subs"):
    __slots__ = ()


class Implies(Node, fields="left right"):
    __slots__ = ()


class Iff(Node, fields="left right"):
    __slots__ = ()


class TrueF(Node):
    __slots__ = ()


class FalseF(Node):
    __slots__ = ()


class Diff(Node, fields="lhs rhs k"):
    """lhs - rhs <= k; a self difference is legal and constant."""

    __slots__ = ()


class PBTerm(Node, fields="coef atom negated"):
    __slots__ = ()

    def __new__(cls, coef: int, atom: AtomRef, negated: bool = False):
        if coef <= 0:
            raise ValueError("pseudo-Boolean coefficients must be positive")
        return tuple.__new__(cls, (coef, atom, negated))


class PB(Node, fields="terms lower upper"):
    """lower <= sum of satisfied terms <= upper (either bound optional)."""

    __slots__ = ()

    def __new__(cls, terms: tuple, lower: Optional[int] = None,
                upper: Optional[int] = None):
        if lower is None and upper is None:
            raise ValueError("pseudo-Boolean atom needs at least one bound")
        return tuple.__new__(cls, (terms, lower, upper))


Formula = Union[Var, Not, And, Or, Implies, Iff, TrueF, FalseF, Diff, PB]

TRUE = TrueF()
FALSE = FalseF()


def negate(formula: Formula) -> Formula:
    """The negation of ``formula``, folding constants and a double
    negation."""
    t = type(formula)
    if t is Not:
        return formula.sub
    if t is TrueF:
        return FALSE
    if t is FalseF:
        return TRUE
    return Not(formula)


def make_pb(terms, lower: Optional[int] = None,
            upper: Optional[int] = None) -> Formula:
    """The sum of the ``(coef, var, negated)`` triples ``terms``, each
    ``var`` the ``Var`` of its atom, bounded by ``lower`` and ``upper``,
    as the connective it equals: a constant when the bounds decide it, the
    conjunction of its literals when every one is needed, their
    disjunction when any one is enough, the negated disjunction when an
    upper bound is below every coefficient, else a ``PB`` without the
    bounds that cannot bind.  The shape is read off the coefficients, and
    each literal or term is built only for it."""
    coefs = [t[0] for t in terms]
    total = sum(coefs)
    if lower is not None and lower <= 0:
        lower = None
    if upper is not None and upper >= total:
        upper = None
    if lower is None:
        if upper is None:
            return TRUE
        if upper < 0:
            return FALSE
        if upper < min(coefs):
            return negate(_connective(Or, terms))
    elif upper is None:
        if lower > total:
            return FALSE
        least = min(coefs)
        if total - least < lower:
            return _connective(And, terms)
        if least >= lower:
            return _connective(Or, terms)
    elif lower > upper:
        return FALSE
    return PB(tuple([PBTerm(c, v.atom, n) for c, v, n in terms]), lower, upper)


def _connective(cls, terms) -> Formula:
    """The ``cls`` (``And`` or ``Or``) of the literals of the non-empty
    ``terms``; one literal stands alone."""
    literals = [Not(v) if n else v for _, v, n in terms]
    return literals[0] if len(literals) == 1 else cls(tuple(literals))


def conj(*subs: Formula) -> Formula:
    flat = []
    for s in subs:
        t = type(s)
        if t is FalseF:
            return FALSE
        if t is not TrueF:
            flat.append(s)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disj(*subs: Formula) -> Formula:
    flat = []
    for s in subs:
        t = type(s)
        if t is TrueF:
            return TRUE
        if t is not FalseF:
            flat.append(s)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


# ---------------------------------------------------------------------------
# ranking scaffolding.  The builders take the nodes a scope shares: the
# ranking variable of each atom and the ``Var`` saying that it holds.

_STAGES = {"dep": 1, "gap": 2}


def mk_bounds(x: LevelVar, holds: Var, scope_size: int):
    """Range formulas for the ranking variable ``x`` of the atom ``holds``
    reads: positive, at most ``scope_size + 1``, and at the maximum exactly
    when the atom is false, so that a true atom ranks below every false
    one, strong or not."""
    atom = x.owner
    cap = scope_size + 1
    return [
        (f"bounds:{atom}:min", Diff(Z, x, -1)),
        (f"bounds:{atom}:max", Diff(x, Z, cap)),
        (f"bounds:{atom}:false", Iff(Not(holds), Diff(Z, x, -cap))),
    ]


def mk_dep_gap(edge, holds: Var, xa: LevelVar, xb: LevelVar):
    """Definitions of ``edge``, the ``Var``s of the ``dep`` (and ``gap``)
    atom of the edge from the head ranked ``xa`` to the body atom
    ``holds`` reads, ranked ``xb``.  dep: the body atom holds and was
    derived strictly before the head; gap: it was derived at least two
    stages before."""
    return [(f"{aux.kind}:{aux.head}:{aux.arg}",
             Iff(var, And((holds, Diff(xb, xa, -_STAGES[aux.kind])))))
            for var in edge for aux in (var.atom,)]


# ---------------------------------------------------------------------------
# formula sets

class ValidationError(Exception):
    pass


def _collect(formula: Formula, atoms: set, ints: set):
    if isinstance(formula, Var):
        atoms.add(formula.atom)
    elif isinstance(formula, Not):
        _collect(formula.sub, atoms, ints)
    elif isinstance(formula, (And, Or)):
        for s in formula.subs:
            _collect(s, atoms, ints)
    elif isinstance(formula, (Implies, Iff)):
        _collect(formula.left, atoms, ints)
        _collect(formula.right, atoms, ints)
    elif isinstance(formula, Diff):
        ints.add(formula.lhs)
        ints.add(formula.rhs)
    elif isinstance(formula, PB):
        for t in formula.terms:
            atoms.add(t.atom)


def check_declared(formulas, symbols: dict):
    """Reference check, one naive walk: raise ``ValidationError`` naming
    the atoms, else the variables, that the ``(name, formula)`` pairs
    mention and the symbol table ``symbols`` lacks."""
    atoms: set = set()
    ints: set = set()
    for _, f in formulas:
        _collect(f, atoms, ints)
    for what, refs in (("atoms", atoms), ("variables", ints)):
        bad = {r.name for r in refs} - symbols.keys()
        if bad:
            raise ValidationError(f"undeclared {what}: {sorted(bad)}")


def _rank_symbols(owners):
    """The symbol-table entries of the ranking variables of ``owners`` and
    of ``z``, which is declared alongside them."""
    names = [Z.name, *(LevelVar(owner).name for owner in owners)]
    return zip(names, names)


class FormulaSet(Node, fields="formulas base_atoms aux_atoms level_bounds symbols"):
    """Named formulas plus the vocabulary they may mention.

    ``formulas`` is a list of ``(name, Formula)`` pairs, or, in a set made
    by :func:`asptoc.smtlib.written_set`, the ``Written`` that writes all
    formula text: it keeps only each formula's line in the set's output
    format, written as it is added (the ranking scaffolding of
    ``add_bounds`` and ``add_dep_gap`` from templates, with no formula
    built), and gives the set's whole text once translation ends.
    ``base_atoms`` and ``aux_atoms`` map each declared atom to its SMT-LIB
    symbol (``_spell`` of a base atom's name, an auxiliary atom's
    ``name``), keys in first-seen order, so a declaration costs O(1)
    however large the set grows and names its atom once.  A base
    atom is keyed by its name, which is also its symbol unless it is in
    ``SMT_RESERVED``.
    ``level_bounds`` maps each ranking variable's owner to its range
    ``(lo, hi)``.

    ``symbols`` is the symbol table the emitter resolves every reference
    through: each declared symbol, keyed by the ``name`` of its reference,
    with ``z`` declared exactly when some ranking variable is.  It grows
    only through ``declare_*``, with the three tables above; a set made
    from those tables without it builds it from them.  The five
    containers grow in place; the fields themselves are fixed.
    """

    __slots__ = ()

    def __new__(cls, formulas: list | None = None, base_atoms: dict | None = None,
                aux_atoms: dict | None = None, level_bounds: dict | None = None,
                symbols: dict | None = None):
        base_atoms = {} if base_atoms is None else base_atoms
        aux_atoms = {} if aux_atoms is None else aux_atoms
        level_bounds = {} if level_bounds is None else level_bounds
        if symbols is None:
            symbols = dict(base_atoms)
            symbols.update((sym, sym) for sym in aux_atoms.values())
            if level_bounds:
                symbols.update(_rank_symbols(level_bounds))
        return tuple.__new__(cls, ([] if formulas is None else formulas,
                                   base_atoms, aux_atoms, level_bounds, symbols))

    def declare_base(self, *names: str):
        spelled = list(zip(names, map(_spell, names)))
        self.base_atoms.update(spelled)
        self.symbols.update(spelled)

    def declare_aux(self, *refs: Aux):
        aux, symbols = self.aux_atoms, self.symbols
        for ref in refs:
            if ref not in aux:
                name = ref.name
                aux[ref] = symbols[name] = name

    def declare_level(self, owner: str, lo: int, hi: int):
        self.level_bounds[owner] = (lo, hi)
        self.symbols.update(_rank_symbols((owner,)))

    def add(self, name: str, formula: Formula):
        self.formulas.append((name, formula))

    def extend(self, pairs):
        self.formulas.extend(pairs)

    def add_bounds(self, x: LevelVar, holds: Var, scope_size: int):
        """Add the range formulas of ``x`` (``mk_bounds``); a set that
        keeps text writes them from its templates and builds none."""
        formulas = self.formulas
        if type(formulas) is list:
            formulas.extend(mk_bounds(x, holds, scope_size))
        else:
            formulas.bounds(x, holds, scope_size)

    def add_dep_gap(self, edge, holds: Var, xa: LevelVar, xb: LevelVar):
        """Add the definitions of ``edge`` (``mk_dep_gap``); a set that
        keeps text writes them from its templates and builds none."""
        formulas = self.formulas
        if type(formulas) is list:
            formulas.extend(mk_dep_gap(edge, holds, xa, xb))
        else:
            formulas.dep_gap(edge, holds, xa, xb)

    def validate(self):
        """Every mentioned atom and variable is declared (``z`` only
        alongside ranking variables), looked up as the emitter does, in
        ``symbols``; see :func:`check_declared`."""
        check_declared(self.formulas, self.symbols)


# ---------------------------------------------------------------------------
# reference evaluator, kept naive on purpose: the model finder evaluates
# with it, and the tests re-evaluate every formula on a found model with it

def eval_formula(formula: Formula, bools: dict, ints: dict) -> bool:
    if isinstance(formula, Var):
        return bools[formula.atom.name]
    if isinstance(formula, Not):
        return not eval_formula(formula.sub, bools, ints)
    if isinstance(formula, And):
        return all(eval_formula(s, bools, ints) for s in formula.subs)
    if isinstance(formula, Or):
        return any(eval_formula(s, bools, ints) for s in formula.subs)
    if isinstance(formula, Implies):
        return (not eval_formula(formula.left, bools, ints)
                or eval_formula(formula.right, bools, ints))
    if isinstance(formula, Iff):
        return eval_formula(formula.left, bools, ints) == eval_formula(formula.right, bools, ints)
    if isinstance(formula, TrueF):
        return True
    if isinstance(formula, FalseF):
        return False
    if isinstance(formula, Diff):
        return ints[formula.lhs.name] - ints[formula.rhs.name] <= formula.k
    if isinstance(formula, PB):
        total = 0
        for t in formula.terms:
            value = bools[t.atom.name]
            if t.negated:
                value = not value
            if value:
                total += t.coef
        if formula.lower is not None and total < formula.lower:
            return False
        return formula.upper is None or total <= formula.upper
    raise TypeError(f"not a formula: {formula!r}")
