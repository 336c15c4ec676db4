"""Shared test utilities: parsing standalone formulas against a variable
scope, and deterministic random generators for ground formulas and
loop-free programs."""

from __future__ import annotations

import random
from fractions import Fraction

from miniwhy import syntax as S
from miniwhy.lexer import tokenize
from miniwhy.parser import _Parser
from miniwhy.typecheck import CTX_INVARIANT, _Checker, _Scope


def parse_formula(text: str):
    return _Parser(tokenize(text)).formula()


def typed_formula(text: str, var_types: dict, ctx: str = CTX_INVARIANT):
    """Parse and typecheck a formula over the given variable types."""
    f = parse_formula(text)
    ck = _Checker(S.SourceUnit())
    sc = _Scope()
    for name, ty in var_types.items():
        sc.declare(name, ty, False)
    out = ck.formula(f, sc, ctx)
    assert not ck.issues, ck.issues
    return out


class FormulaGen:
    """Random ground formulas over `a`, `b` (int) and `u`, `v` (real), with
    bounded integer quantifiers. With `reals_only` all four are real, so
    the prover may refute what it does not prove. With `division` a real
    term may also be a quotient, over constant and variable divisors; off,
    every seed draws the formula it always drew."""

    def __init__(self, seed, reals_only=False, division=False):
        self.rng = random.Random(seed)
        self.division = division
        self.vars = {"a": S.INT, "b": S.INT, "u": S.REAL, "v": S.REAL}
        if reals_only:
            self.vars = dict.fromkeys(self.vars, S.REAL)

    def term(self, real, depth=0):
        r = self.rng.random()
        if depth > 2 or r < 0.45:
            pool = ["u", "v"] if real else ["a", "b"]
            if self.rng.random() < 0.4:
                return (f"{self.rng.randint(-3, 3)}.5" if real
                        else str(self.rng.randint(-4, 4)))
            return self.rng.choice(pool)
        ops = ["+", "-", "*", "*"] + (["/"] if real and self.division else [])
        op = self.rng.choice(ops)
        return f"({self.term(real, depth + 1)} {op} {self.term(real, depth + 1)})"

    def formula(self, depth=0):
        r = self.rng.random()
        if depth > 2 or r < 0.45:
            real = self.rng.random() < 0.5
            op = self.rng.choice(["<", "<=", ">", ">=", "==", "!="])
            return f"{self.term(real)} {op} {self.term(real)}"
        kind = self.rng.choice(["&&", "||", "==>", "!", "forall"])
        if kind == "!":
            return f"!({self.formula(depth + 1)})"
        if kind == "forall":
            lo = self.rng.randint(-2, 1)
            hi = lo + self.rng.randint(0, 3)
            op = self.rng.choice(["<", "<=", ">", ">=", "==", "!="])
            body = f"q * {self.term(False, 2)} {op} {self.term(False, 2)}"
            return f"(\\forall integer q; {lo} <= q <= {hi} ==> ({body}))"
        return f"({self.formula(depth + 1)}) {kind} ({self.formula(depth + 1)})"

    def state(self):
        out = {}
        for n, t in self.vars.items():
            out[n] = (self.rng.randint(-5, 5) if t == S.INT
                      else Fraction(self.rng.randint(-10, 10), 2))
        return out


class ProgramGen:
    """Random loop-free programs over scalar int/real variables, with random
    ground postconditions: the raw material for wp/execution agreement."""

    INT_VARS = ("a", "b", "c")
    REAL_VARS = ("u", "v")

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def expr(self, real: bool, depth: int = 0) -> str:
        r = self.rng.random()
        if depth > 2 or r < 0.4:
            if real and self.rng.random() < 0.5:
                return self.rng.choice(self.REAL_VARS)
            if real:
                return f"{self.rng.randint(-3, 3)}.5"
            return self.rng.choice(self.INT_VARS + tuple("0 1 2 -1 -2 3".split()))
        op = self.rng.choice("+-*")
        return f"({self.expr(real, depth + 1)} {op} {self.expr(real, depth + 1)})"

    def cmp(self, real=None) -> str:
        if real is None:
            real = self.rng.random() < 0.3
        op = self.rng.choice(["<", "<=", ">", ">=", "==", "!="])
        return f"{self.expr(real)} {op} {self.expr(real)}"

    def stmt(self, depth: int = 0) -> str:
        r = self.rng.random()
        if depth > 1 or r < 0.55:
            if self.rng.random() < 0.25:
                return f"{self.rng.choice(self.REAL_VARS)} = {self.expr(True)};"
            return f"{self.rng.choice(self.INT_VARS)} = {self.expr(False)};"
        if r < 0.8:
            s = f"if ({self.cmp()}) {{ {self.stmt(depth + 1)} }}"
            if self.rng.random() < 0.6:
                s += f" else {{ {self.stmt(depth + 1)} }}"
            return s
        return f"{self.stmt(depth + 1)} {self.stmt(depth + 1)}"

    def post(self) -> str:
        parts = [self.cmp() for _ in range(self.rng.randint(1, 2))]
        return " && ".join(parts)

    def program(self) -> tuple[str, str]:
        body = " ".join(self.stmt() for _ in range(self.rng.randint(1, 3)))
        src = ("/*@ ensures true; @*/ "
               "void m(int a, int b, int c, real u, real v) { " + body + " }")
        return src, self.post()

    def state(self) -> dict:
        sigma = {n: self.rng.randint(-5, 5) for n in self.INT_VARS}
        for n in self.REAL_VARS:
            sigma[n] = self.rng.randint(-10, 10)
        return sigma
