"""Shared test utilities: parsing standalone formulas against a variable
scope, and deterministic random generators for ground formulas and
loop-free programs."""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction

from miniwhy import interp, vcgen
from miniwhy import syntax as S
from miniwhy.errors import EvalError, ExecutionFault
from miniwhy.lexer import tokenize
from miniwhy.parser import _Parser, parse
from miniwhy.typecheck import CTX_INVARIANT, _Checker, _Scope, typecheck


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


def reference_rows(obset, outcome) -> list:
    """(id, verdict, detail, witness) of every obligation of obset on the
    outcome's trace, as trace validation must report them: on the state
    bundles that validation derives, each obligation's test is compiled
    alone for each state layout, with a fresh memo, and evaluated by
    `interp.eval_formula` with a fresh cache per bundle, until a bundle
    falsifies it or a fault ends it."""
    index = vcgen._TraceIndex(outcome)
    return [_reference_row(ob, index, outcome.mode) for ob in obset]


def _reference_row(ob, index, mode):
    method = ob.origin.method
    if ob.kind == "lemma":
        return ob.id, "not-instantiable", "no program point", {}
    if method not in index.segments:
        return ob.id, "not-instantiable", f"method {method} not in trace", {}
    havoc, result_syms = _free_symbols(ob)
    for _, callee in result_syms:
        if callee not in index.results:
            return ob.id, "not-instantiable", f"no recorded call of {callee}", {}
    compiled = {}
    evaluated = 0
    for states in index.bundles(method, havoc, result_syms):
        layout = frozenset(states["Here"]).union(states["Old"])
        try:
            if layout not in compiled:
                compiled[layout] = interp.CompiledFormula(
                    vcgen.validation_formula(ob), states, mode)
            holds = interp.eval_formula(compiled[layout], states, mode)
        except (EvalError, ExecutionFault) as ex:
            return ob.id, "not-instantiable", str(ex), {}
        evaluated += 1
        if not holds:
            witness = {k: repr(v) for k, v in states["Here"].items()}
            return ob.id, "fail", "falsified by recorded state", witness
    if evaluated == 0:
        return ob.id, "not-instantiable", "no matching snapshots in trace", {}
    return ob.id, "pass", f"{evaluated} instantiation(s)", {}


def _free_symbols(ob):
    """(havoc, result_syms) of an obligation, found by a walk over every
    field of every node of its goal and hypotheses: the sorted (loop id,
    havoc symbol, variable it stands for) of each loop's havoc symbol, and
    the sorted (call-result symbol, callee) of each call's result."""
    havoc, result_syms = set(), set()
    todo = [ob.goal, *ob.hypotheses]
    while todo:
        e = todo.pop()
        if isinstance(e, list):
            todo += e
        elif isinstance(e, S.FreshVar):
            if e.loop_id >= 0:
                havoc.add((e.loop_id, e.name, e.base))
            elif e.base.endswith(".result"):
                result_syms.add((e.name, e.base.removesuffix(".result")))
        elif isinstance(e, S.Node):
            todo += vars(e).values()
    return tuple(sorted(havoc)), tuple(sorted(result_syms))


def report_rows(report) -> list:
    """(id, verdict, detail, witness) of every result of a trace
    validation report."""
    return [(r.id, r.verdict, r.detail, r.witness) for r in report.results]


def sequential_branches(n: int) -> str:
    """A unit whose one method runs n `if`s in sequence, each of which
    changes y by +1 or -1: its wp doubles with every `if`."""
    body = "".join(f"    if (x > {i}) {{ y = y + 1; }} else {{ y = y - 1; }}\n"
                   for i in range(n))
    return (f"/*@ ensures \\result >= x - {n}; @*/\n"
            f"int f(int x) {{\n    int y = x;\n{body}    return y;\n}}\n")


def nested_variants(d: int) -> str:
    """A unit whose one method nests d `while` loops, each with an
    invariant and a variant: every loop's decrease passes through the
    loops inside it."""
    def loop(k):
        pad = "    " * (k + 1)
        inner = loop(k + 1) if k + 1 < d else ""
        return (f"{pad}int i{k} = 0;\n"
                f"{pad}/*@ loop_invariant 0 <= i{k} && i{k} <= n;\n"
                f"{pad}  @ loop_variant n - i{k};\n{pad}  @*/\n"
                f"{pad}while (i{k} < n) {{\n{inner}"
                f"{pad}    i{k} = i{k} + 1;\n{pad}}}\n")
    return ("/*@ requires n >= 0;\n  @ ensures true;\n  @*/\n"
            f"void f(int n) {{\n{loop(0)}}}\n")


def straight_line(n: int) -> str:
    """A unit whose one method runs n `y = y + 1;` in sequence."""
    body = "    y = y + 1;\n" * n
    return (f"/*@ requires y == 0;\n  @ ensures \\result == {n};\n  @*/\n"
            f"int f(int y) {{\n{body}    return y;\n}}\n")


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


WpTriple = namedtuple("WpTriple", "seed src post sigma sides status error lhs rhs")


def wp_triple(seed: int) -> WpTriple:
    """ProgramGen(seed)'s (program S, post Q, state) triple, the side
    obligations of wp(S, Q), the status and error of executing S, and,
    exactly in rational mode, the truth of wp(S, Q) in the state (lhs) and
    of Q after S (rhs, None when S does not end normally)."""
    gen = ProgramGen(seed)
    src, post_text = gen.program()
    tu = typecheck(parse(src))
    m = tu.method("m")
    post = typed_formula(post_text, dict(m.params))
    pre, sides = vcgen.wp(tu, "m", m.body, post)
    sigma = gen.state()
    lhs = interp.eval_formula(pre, {"Here": dict(sigma), "Old": dict(sigma)},
                              "rational")
    out = interp.exec_method(tu, "m", [sigma[n] for n, _ in m.params],
                             "rational", trace=True)
    rhs = None
    if out.status == "normal":
        final = [s for s in out.trace if s.kind == "exit"][0].state
        rhs = interp.eval_formula(post, {"Here": final, "Old": dict(sigma)},
                                  "rational")
    return WpTriple(seed, src, post_text, sigma, sides, out.status, out.error,
                    lhs, rhs)
