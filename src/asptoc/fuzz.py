"""Random program generation and the translation correctness check.

The checker realizes the correctness statement end to end: the stable
models of the program (oracle side) must be in one-to-one correspondence
with the models of the translation (checker side), each translation model
must carry exactly the module-local derivation stages on its ranking
variables, and no propositional projection may appear with two different
rank assignments.  Without the strong constraints only the first holds,
up to repeated projections, and only it is checked.
"""

from __future__ import annotations

import random

from .depgraph import scopes
from .dlcheck import enumerate_dl_models
from .formulas import LevelVar
from .node import Node
from .oracle import module_ranking, stable_models
from .parser import parse_program
from .program import INFINITY, Program, Rule
from .toc import toc_program

ATOM_POOL = "abcdefghijklmn"
# (scope_mode, vub_form) of the i-th program ``asptoc fuzz`` checks: i % 4;
# the program is checked with the strong constraints when i % 8 < 4
CHECK_MODES = [("scc", False), ("global", False), ("scc", True), ("global", True)]


def generate_source(rng: random.Random, max_atoms: int = 7,
                    max_rules: int = 10, want_recursive: bool = False) -> str:
    """One random ground program in source syntax, mixing all rule forms."""
    n = rng.randint(2, max_atoms)
    atoms = list(ATOM_POOL[:n])
    lines = []

    if want_recursive:
        cycle_len = rng.randint(1, min(3, n))
        cycle = rng.sample(atoms, cycle_len)
        for i, head in enumerate(cycle):
            nxt = cycle[(i + 1) % cycle_len]
            extra = ""
            if rng.random() < 0.4:
                other = rng.choice(atoms)
                extra = f", not {other}" if rng.random() < 0.5 else f", {other}"
            lines.append(f"{head} :- {nxt}{extra}.")
        # a kicker so the loop is not always unsupported
        if rng.random() < 0.7:
            entry = rng.choice(cycle)
            if rng.random() < 0.5:
                lines.append(f"{{{entry}}}.")
            else:
                lines.append(f"{entry} :- not {rng.choice(atoms)}.")

    def body_literals(k: int) -> list[str]:
        picked = rng.sample(atoms, min(k, len(atoms)))
        return [a if rng.random() < 0.7 else f"not {a}" for a in picked]

    budget = rng.randint(1, max(1, max_rules - len(lines)))
    for _ in range(budget):
        form = rng.choice(["fact", "normal", "normal", "choice", "choice",
                           "cardinality", "weight", "convex", "constraint"])
        head = rng.choice(atoms)
        if form == "fact":
            lines.append(f"{head}.")
        elif form == "normal":
            lits = body_literals(rng.randint(1, 3))
            lines.append(f"{head} :- {', '.join(lits)}.")
        elif form == "choice":
            if rng.random() < 0.4:
                lines.append(f"{{{head}}}.")
            else:
                lits = body_literals(rng.randint(1, 2))
                lines.append(f"{{{head}}} :- {', '.join(lits)}.")
        elif form == "constraint":
            lits = body_literals(rng.randint(1, 2))
            lines.append(f":- {', '.join(lits)}.")
        else:
            k = rng.randint(1, min(4, len(atoms)))
            lits = body_literals(k)
            if form == "cardinality":
                lower = rng.randint(1, k)
                lines.append(f"{head} :- {lower} <= {{ {', '.join(lits)} }}.")
            else:
                weights = [rng.randint(1, 4) for _ in lits]
                total = sum(weights)
                items = ", ".join(f"{l}={w}" for l, w in zip(lits, weights))
                lower = rng.randint(1, total)
                if form == "weight":
                    lines.append(f"{head} :- {lower} <= {{ {items} }}.")
                else:
                    upper = rng.randint(lower, total)
                    lines.append(f"{head} :- {lower} <= {{ {items} }} <= {upper}.")
    return "\n".join(lines) + "\n"


def generate_weight_rule(rng: random.Random) -> Rule:
    """One positive weight rule ``a :- l <= { b1=w1, ... }`` over one to
    five body atoms, as ``asptoc fuzz --props`` checks them.  The draws
    come in a fixed order: the body size, each weight, then the bound."""
    n = rng.randint(1, 5)
    weights = [rng.randint(1, 8) for _ in range(n)]
    bound = rng.randint(1, 20)
    items = ", ".join(f"b{i}={w}" for i, w in enumerate(weights, 1))
    return parse_program(f"a :- {bound} <= {{ {items} }}.").rules[0]


class CheckReport(Node, fields="checks stable_count model_count"):
    """The JSON-ready entries of the checks ``check_program`` ran or
    skipped, in order, and the model counts of the two sides; ``ok`` when
    no check failed."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(entry["status"] != "fail" for entry in self.checks)


def _entry(name: str, ok: bool, **detail) -> dict:
    return {"check": name, "status": "pass" if ok else "fail", **detail}


def _skip(name: str) -> dict:
    return {"check": name, "status": "skip",
            "reason": "ranks need not be unique without the strong constraints"}


def ranked_scopes(program: Program, scope_mode: str = "scc") -> list[frozenset]:
    return [scope for scope, ranked in scopes(program, scope_mode) if ranked]


def _rank_check(program: Program, scope_mode: str, models, signature: frozenset) -> dict:
    """The ``ranks`` entry: each model's ranking variables must carry the
    module ranks of its projection onto ``signature``, a false atom the
    scope's size plus one; it fails on the first that does not."""
    ranked = ranked_scopes(program, scope_mode)
    for model in models:
        projection = model.true_atoms() & signature
        ints = model.int_map
        for scope in ranked:
            local = module_ranking(program, scope, projection)
            for atom in sorted(scope):
                expected = local[atom]
                if expected == INFINITY:
                    expected = len(scope) + 1
                actual = ints.get(LevelVar(atom).name)
                if actual != expected:
                    return _entry("ranks", False, atom=atom, model=sorted(projection),
                                  expected=expected, actual=actual)
    return _entry("ranks", True, scopes=len(ranked))


def check_program(program: Program, *, scope_mode: str = "scc",
                  vub_form: bool = False, strong: bool = True) -> CheckReport:
    """Compare the oracle with the translation on one program; the ranks
    are checked only once the model sets agree.  Without the strong
    constraints (``strong=False``) a stable model may carry several rank
    assignments, so only the set of projections is compared, and the
    uniqueness and rank checks are reported as skipped."""
    stable = stable_models(program)
    fs = toc_program(program, scope_mode=scope_mode, strong=strong, vub_form=vub_form)
    atom_count = len(fs.base_atoms) + len(fs.aux_atoms)
    models = enumerate_dl_models(fs, max_atoms=atom_count)

    signature = frozenset(program.atom_names)
    stable_sets = sorted(tuple(sorted(m)) for m, _ in stable)
    projections = sorted(tuple(sorted(m.true_atoms() & signature)) for m in models)
    if not strong:
        distinct = sorted(set(projections))
        checks = (_entry("projections", stable_sets == distinct, stable=len(stable_sets),
                         translated=len(distinct)),
                  _skip("uniqueness"), _skip("ranks"))
        return CheckReport(checks, len(stable), len(models))
    bijection = stable_sets == projections
    unique = len(set(projections)) == len(projections)
    checks = [_entry("bijection", bijection, stable=len(stable_sets),
                     translated=len(projections)),
              _entry("uniqueness", unique)]
    if bijection and unique:
        checks.append(_rank_check(program, scope_mode, models, signature))
    return CheckReport(tuple(checks), len(stable), len(models))


def fuzz_corpus(seed: int, count: int, max_atoms: int = 7,
                max_rules: int = 10):
    """Deterministic stream of (index, source, program); at least every
    other program embeds a recursive component."""
    rng = random.Random(seed)
    for i in range(count):
        src = generate_source(rng, max_atoms, max_rules, want_recursive=i % 2 == 0)
        yield i, src, parse_program(src)
