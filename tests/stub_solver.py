#!/usr/bin/env python3
"""Bounded SMT-LIB solver stub for exercising the external-solver pipeline.

Reads the QF_LIA subset the translator emits (Bool/Int constants, ite-sum
pseudo-Boolean bounds, difference atoms), enumerates its models with the
bounded search engine, and answers in standard solver syntax: ``sat`` plus
a ``(define-fun ...)`` block of the first model, or ``unsat``.  Symbols
are read and written by ``decode`` and ``encode`` of ``references.py``,
beside this script.
"""

import re
import sys

from asptoc import dlcheck
from asptoc import formulas as F
from references import decode, encode


def tokenize(text):
    text = re.sub(r";[^\n]*", "", text)
    return re.findall(r"\(|\)|[^\s()]+", text)


def parse_sexprs(tokens):
    stack = [[]]
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    return stack[0]


def arith_const(node):
    if isinstance(node, str) and re.fullmatch(r"-?\d+", node):
        return int(node)
    if isinstance(node, list) and len(node) == 2 and node[0] == "-":
        return -arith_const(node[1])
    return None


def parse_sum(node):
    """(+ (ite lit w 0) ...) or a single ite; returns PB terms."""
    items = node[1:] if isinstance(node, list) and node and node[0] == "+" else [node]
    terms = []
    for item in items:
        if not (isinstance(item, list) and item[0] == "ite"):
            return None
        lit, coef, zero = item[1], arith_const(item[2]), arith_const(item[3])
        if coef is None or zero != 0:
            return None
        negated = isinstance(lit, list) and lit[0] == "not"
        name = lit[1] if negated else lit
        terms.append(F.PBTerm(coef, decode(name), negated))
    return terms


def parse_formula(node, ints):
    if node == "true":
        return F.TrueF()
    if node == "false":
        return F.FalseF()
    if isinstance(node, str):
        return F.Var(decode(node))
    op = node[0]
    if op == "not":
        return F.Not(parse_formula(node[1], ints))
    if op == "and":
        return F.And(tuple(parse_formula(s, ints) for s in node[1:]))
    if op == "or":
        return F.Or(tuple(parse_formula(s, ints) for s in node[1:]))
    if op == "=>":
        return F.Implies(parse_formula(node[1], ints), parse_formula(node[2], ints))
    if op == "=":
        lhs, rhs = node[1], node[2]
        if isinstance(lhs, str) and decode(lhs) in ints:
            if decode(lhs) == F.Z and arith_const(rhs) == 0:
                return F.TRUE  # the search fixes z at 0
            raise ValueError(f"unsupported integer equality {node}")
        return F.Iff(parse_formula(lhs, ints), parse_formula(rhs, ints))
    if op == "<=":
        lhs, rhs = node[1], node[2]
        if isinstance(lhs, list) and lhs[0] == "-" and len(lhs) == 3:
            k = arith_const(rhs)
            return F.Diff(decode(lhs[1]), decode(lhs[2]), k)
        k = arith_const(lhs)
        if k is not None:
            return F.PB(tuple(parse_sum(rhs)), lower=k)
        k = arith_const(rhs)
        return F.PB(tuple(parse_sum(lhs)), upper=k)
    raise ValueError(f"unsupported operator {op}")


def build_formula_set(sexprs):
    fs = F.FormulaSet()
    ints = set()
    asserts = []
    for node in sexprs:
        if not isinstance(node, list) or not node:
            continue
        if node[0] == "declare-const":
            ref = decode(node[1])
            if isinstance(ref, F.Base):
                fs.declare_base(ref.name)
            elif isinstance(ref, F.Aux):
                fs.declare_aux(ref)
            else:
                ints.add(ref)
        elif node[0] == "assert":
            asserts.append(node[1])
    for i, node in enumerate(asserts):
        fs.add(f"assert:{i}", parse_formula(node, ints))

    # ranking variable ranges come from their emitted bound constraints
    for var in sorted(ints - {F.Z}):
        lo, hi = 1, None
        for _, f in fs.formulas:
            if isinstance(f, F.Diff):
                if f.lhs == var and f.rhs == F.Z:
                    hi = f.k if hi is None else min(hi, f.k)
                if f.lhs == F.Z and f.rhs == var:
                    lo = max(lo, -f.k)
        fs.declare_level([var.owner], lo, 64 if hi is None else hi)
    return fs


def main():
    with open(sys.argv[-1], "r", encoding="utf-8") as handle:
        text = handle.read()
    fs = build_formula_set(parse_sexprs(tokenize(text)))
    models = dlcheck.enumerate_dl_models(fs)
    if not models:
        print("unsat")
        return
    model = models[0]  # the first in enumeration order
    print("sat")
    print("(")
    for name, value in model.props:
        symbol = encode(decode(name))
        print(f"  (define-fun {symbol} () Bool {'true' if value else 'false'})")
    for name, value in model.ints:
        text = str(value) if value >= 0 else f"(- {-value})"
        print(f"  (define-fun {name} () Int {text})")
    print(")")


if __name__ == "__main__":
    main()
