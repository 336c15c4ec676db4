"""Internal automatic prover for quantifier-free linear rational arithmetic.

Validity of `hypotheses ==> goal` is decided by refuting the negation with
Fourier-Motzkin elimination over exact rationals. Integer symbols are
treated as rationals (sound for proving, incomplete for refuting);
nonlinear terms (variable products, division, array selects) are abstracted
to fresh symbols; two division sign rules reintroduce the facts the
abstraction loses:

    x > 0 && y > 0   gives   x / y > 0
    x == 0 && y != 0 gives   x / y == 0

Universally quantified hypotheses are dropped (sound), the goal's universal
prefix is opened with fresh symbols, and anything else that leaves the
fragment yields `unknown` with the reason. A `refuted` verdict is only
issued for closed, havoc-free, all-real goals and only after the
counterexample is confirmed by the evaluator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from . import syntax as S
from .errors import EvalError
from .interp import eval_formula
from .printer import expr_to_str
from .simplify import simplify
from .vcgen import validation_formula

MAX_DISJUNCTS = 256
MAX_CONSTRAINTS = 4000


@dataclass
class ProofStatus:
    status: str                     # proved-internal | unknown | refuted
    reason: str = ""
    rule_trace: list = field(default_factory=list)
    counterexample: dict = None

    @property
    def proved(self):
        return self.status == "proved-internal"


class _OutsideFragment(Exception):
    pass


class _ResourceCap(Exception):
    pass


# ---------------------------------------------------------------------------
# literals: linear constraints over abstraction keys

@dataclass(frozen=True)
class Constraint:
    """sum(coeffs) + const  OP  0, OP in {'<', '<=', '=='}."""
    coeffs: tuple            # sorted ((key, Fraction), ...)
    const: Fraction
    op: str

    def is_trivial(self):
        return not self.coeffs

    def holds_trivially(self):
        if self.op == "<":
            return self.const < 0
        if self.op == "<=":
            return self.const <= 0
        return self.const == 0


class _Atoms:
    """Abstraction registry: canonical term -> symbol key, plus division info."""

    def __init__(self):
        self.divisions = {}      # key -> (num linear dict, num const, den dict, den const)
        self.int_keys = set()
        self.opaque = False      # saw a non-variable abstraction

    def lin(self, e: S.Expr):
        """(const, dict key->coeff) of an int/real term."""
        if isinstance(e, S.IntLit):
            return Fraction(e.value), {}
        if isinstance(e, S.RealLit):
            return e.value, {}
        if isinstance(e, S.Coerce):
            return self.lin(e.operand)
        if isinstance(e, (S.Var, S.FreshVar)):
            key = e.name
            if e.ty == S.INT:
                self.int_keys.add(key)
            return Fraction(0), {key: Fraction(1)}
        if isinstance(e, S.Unary) and e.op == "-":
            c, t = self.lin(e.operand)
            return -c, {k: -v for k, v in t.items()}
        if isinstance(e, S.Binary) and e.op in ("+", "-"):
            c1, t1 = self.lin(e.left)
            c2, t2 = self.lin(e.right)
            sign = 1 if e.op == "+" else -1
            out = dict(t1)
            for k, v in t2.items():
                out[k] = out.get(k, Fraction(0)) + sign * v
                if out[k] == 0:
                    del out[k]
            return c1 + sign * c2, out
        if isinstance(e, S.Binary) and e.op == "*":
            c1, t1 = self.lin(e.left)
            c2, t2 = self.lin(e.right)
            if not t1:
                if c1 == 0:
                    return Fraction(0), {}
                return c1 * c2, {k: c1 * v for k, v in t2.items()}
            if not t2:
                if c2 == 0:
                    return Fraction(0), {}
                return c2 * c1, {k: c2 * v for k, v in t1.items()}
            return self.abstract(e)
        if isinstance(e, S.Binary) and e.op == "/":
            nc, nt = self.lin(e.left)
            dc, dt = self.lin(e.right)
            if not dt and dc != 0:
                return nc / dc, {k: v / dc for k, v in nt.items()}
            const, term = self.abstract(e)
            key = next(iter(term))
            self.divisions[key] = (nt, nc, dt, dc)
            return const, term
        return self.abstract(e)

    def abstract(self, e: S.Expr):
        key = "|" + expr_to_str(e) + "|"
        self.opaque = True
        if e.ty == S.INT:
            self.int_keys.add(key)
        return Fraction(0), {key: Fraction(1)}

    def constraint(self, op: str, left: S.Expr, right: S.Expr) -> list:
        """Normalized constraints for `left op right` (== may need none)."""
        lc, lt = self.lin(left)
        rc, rt = self.lin(right)
        terms = dict(lt)
        for k, v in rt.items():
            terms[k] = terms.get(k, Fraction(0)) - v
            if terms[k] == 0:
                del terms[k]
        const = lc - rc
        # left - right OP 0
        if op in ("<", "<=", "=="):
            return [Constraint(tuple(sorted(terms.items())), const, op)]
        if op == ">":
            return [Constraint(tuple(sorted((k, -v) for k, v in terms.items())),
                               -const, "<")]
        if op == ">=":
            return [Constraint(tuple(sorted((k, -v) for k, v in terms.items())),
                               -const, "<=")]
        raise ValueError(op)


# ---------------------------------------------------------------------------
# NNF with universal opening

class _Prenex:
    def __init__(self):
        self.counter = itertools.count()

    def open_binder(self, name, ty):
        fresh = f"{name}${next(self.counter)}"
        return S.Var(name=fresh, ty=ty)


def _nnf(f: S.Expr, positive: bool, px: _Prenex, dropped: list) -> S.Expr:
    """Negation normal form of f (or its negation when positive=False);
    positive universals are opened, negative ones leave the fragment."""
    TRUE = S.BoolLit(value=True, ty=S.BOOL)
    FALSE = S.BoolLit(value=False, ty=S.BOOL)
    if isinstance(f, S.BoolLit):
        return TRUE if (f.value == positive) else FALSE
    if isinstance(f, S.Unary) and f.op == "!":
        return _nnf(f.operand, not positive, px, dropped)
    if isinstance(f, S.Binary) and f.op in ("&&", "||"):
        l = _nnf(f.left, positive, px, dropped)
        r = _nnf(f.right, positive, px, dropped)
        op = f.op if positive else ("||" if f.op == "&&" else "&&")
        return S.Binary(op=op, left=l, right=r, ty=S.BOOL)
    if isinstance(f, S.Binary) and f.op == "==>":
        l = _nnf(f.left, not positive, px, dropped)
        r = _nnf(f.right, positive, px, dropped)
        if positive:
            return S.Binary(op="||", left=l, right=r, ty=S.BOOL)
        return S.Binary(op="&&", left=l, right=r, ty=S.BOOL)
    if isinstance(f, S.Forall):
        if not positive:
            # negated forall is existential: satisfiability treats the
            # binders as free fresh symbols (Skolem constants)
            sub = {name: px.open_binder(name, ty) for name, ty in f.binders}
            return _nnf(S.substitute(f.body, sub), False, px, dropped)
        # universally quantified constraint: dropping it weakens the
        # satisfiability query, which is sound for proving
        dropped.append(f)
        return S.BoolLit(value=True, ty=S.BOOL)
    if isinstance(f, S.Binary) and f.op in ("==", "!=", "<", "<=", ">", ">="):
        lt = f.left.ty
        if lt in (S.INT, S.REAL):
            op = f.op if positive else _NEG[f.op]
            return S.Binary(op=op, left=f.left, right=f.right, ty=S.BOOL)
        # boolean/array (dis)equality: uninterpreted atom
        atom = f if positive else S.Unary(op="!", operand=f, ty=S.BOOL)
        return atom
    # everything else is an uninterpreted boolean atom
    return f if positive else S.Unary(op="!", operand=f, ty=S.BOOL)


_NEG = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}


def _dnf(f: S.Expr) -> list:
    """List of conjunctions (lists of literals) equivalent to f (an NNF tree)."""
    if isinstance(f, S.Binary) and f.op == "&&":
        out = []
        for l in _dnf(f.left):
            for r in _dnf(f.right):
                out.append(l + r)
                if len(out) > MAX_DISJUNCTS:
                    raise _ResourceCap("DNF explosion")
        return out
    if isinstance(f, S.Binary) and f.op == "||":
        out = _dnf(f.left) + _dnf(f.right)
        if len(out) > MAX_DISJUNCTS:
            raise _ResourceCap("DNF explosion")
        return out
    if isinstance(f, S.BoolLit):
        return [[f]] if f.value else []
    return [[f]]


# ---------------------------------------------------------------------------
# Fourier-Motzkin with witness extraction

class _Unsat(Exception):
    pass


def _fm(constraints: list):
    """None when the conjunction is unsatisfiable over the rationals, else a
    rational witness {key: Fraction}."""
    # Gaussian elimination of equalities
    subs = []      # (key, const, dict other->coeff) meaning key = const + sum(...)
    ineqs = []
    pending = list(constraints)
    while pending:
        c = pending.pop(0)
        if c.is_trivial():
            if not c.holds_trivially():
                return None
            continue
        if c.op == "==":
            (key, coeff), rest = c.coeffs[0], c.coeffs[1:]
            # key = -(const + rest)/coeff
            expr = {k: -v / coeff for k, v in rest}
            const = -c.const / coeff
            subs.append((key, const, expr))
            repl = []
            for other in pending + ineqs:
                repl.append(_substitute(other, key, const, expr))
            pending = repl
            ineqs = []
            continue
        ineqs.append(c)
    # Fourier-Motzkin on inequalities
    keys = sorted({k for c in ineqs for k, _ in c.coeffs})
    stack = []
    current = ineqs
    for key in keys:
        lowers, uppers, rest = [], [], []
        for c in current:
            d = dict(c.coeffs)
            a = d.get(key)
            if a is None:
                rest.append(c)
                continue
            others = {k: v for k, v in c.coeffs if k != key}
            #  a*key + others + const OP 0
            bound = (others, c.const, a, c.op)
            if a > 0:
                uppers.append(bound)     # key OP' (-others - const)/a
            else:
                lowers.append(bound)
        stack.append((key, lowers, uppers))
        new = list(rest)
        for lo in lowers:
            for up in uppers:
                new.append(_combine(lo, up))
                if len(new) > MAX_CONSTRAINTS:
                    raise _ResourceCap("Fourier-Motzkin blowup")
        for c in new:
            if c.is_trivial() and not c.holds_trivially():
                return None
        current = [c for c in new if not c.is_trivial()]
    # satisfiable: build a witness backwards; keys never constrained by an
    # inequality default to 0
    witness = {}

    def val(expr_dict, const):
        return const + sum(v * witness.setdefault(k, Fraction(0))
                           for k, v in expr_dict.items())

    for key, lowers, uppers in reversed(stack):
        lo_best, lo_strict = None, False
        for others, const, a, op in lowers:      # a < 0
            b = -(val(others, const)) / a        # key >=/> b
            strict = op == "<"
            if lo_best is None or b > lo_best or (b == lo_best and strict):
                lo_best, lo_strict = b, strict
        up_best, up_strict = None, False
        for others, const, a, op in uppers:      # a > 0
            b = -(val(others, const)) / a
            strict = op == "<"
            if up_best is None or b < up_best or (b == up_best and strict):
                up_best, up_strict = b, strict
        if lo_best is None and up_best is None:
            witness[key] = Fraction(0)
        elif lo_best is None:
            witness[key] = up_best - 1
        elif up_best is None:
            witness[key] = lo_best + 1
        else:
            # projection kept lo <= up (equality only when both nonstrict)
            witness[key] = (lo_best + up_best) / 2
    for key, const, expr in reversed(subs):
        witness[key] = val(expr, const)
    return witness


def _substitute(c: Constraint, key, const, expr):
    d = dict(c.coeffs)
    a = d.pop(key, None)
    if a is None:
        return Constraint(tuple(sorted(d.items())), c.const, c.op)
    for k, v in expr.items():
        d[k] = d.get(k, Fraction(0)) + a * v
        if d[k] == 0:
            del d[k]
    return Constraint(tuple(sorted(d.items())), c.const + a * const, c.op)


def _combine(lo, up):
    o1, c1, a1, op1 = lo      # a1 < 0
    o2, c2, a2, op2 = up      # a2 > 0
    scale1 = Fraction(1) / -a1
    scale2 = Fraction(1) / a2
    terms = {k: v * scale1 for k, v in o1.items()}
    for k, v in o2.items():
        terms[k] = terms.get(k, Fraction(0)) + v * scale2
        if terms[k] == 0:
            del terms[k]
    const = c1 * scale1 + c2 * scale2
    op = "<" if "<" in (op1, op2) and (op1 == "<" or op2 == "<") else "<="
    return Constraint(tuple(sorted(terms.items())), const, op)


# ---------------------------------------------------------------------------
# division sign rules

def _proportional(c: Constraint, terms: dict, const: Fraction, op: str, strict_ops):
    """Does constraint c state `terms + const OP 0` up to positive scaling?"""
    if c.op not in strict_ops:
        return False
    d = dict(c.coeffs)
    if set(d) != set(terms):
        return False
    if not terms:
        return False
    k0 = next(iter(terms))
    if terms[k0] == 0 or d[k0] == 0:
        return False
    scale = d[k0] / terms[k0]
    if scale <= 0:
        return False
    for k, v in terms.items():
        if d.get(k, Fraction(0)) != v * scale:
            return False
    return c.const == const * scale


def _division_facts(conj: list, atoms: _Atoms) -> list:
    """Extra constraints from the two division sign rules."""
    out = []
    applied = []
    for key, (nt, nc, dt, dc) in atoms.divisions.items():
        # is numerator > 0 present? it is  -(num) < 0
        def present(tdict, tconst, op):
            target_terms = {k: -v for k, v in tdict.items()}
            target_const = -tconst
            for c in conj:
                if _proportional(c, target_terms, target_const, op, (op,)):
                    return True
            return False

        num_pos = (not nt and nc > 0) or present(nt, nc, "<")
        den_pos = (not dt and dc > 0) or present(dt, dc, "<")
        den_neg = (not dt and dc < 0) or _neg_present(conj, dt, dc)
        num_zero = (not nt and nc == 0) or _zero_present(conj, nt, nc)
        if num_pos and den_pos:
            out.append(Constraint(((key, Fraction(-1)),), Fraction(0), "<"))
            applied.append(f"division-sign: {key} > 0")
        if num_zero and (den_pos or den_neg):
            out.append(Constraint(((key, Fraction(1)),), Fraction(0), "=="))
            applied.append(f"division-sign: {key} == 0")
    return out, applied


def _neg_present(conj, dt, dc):
    for c in conj:
        if _proportional(c, dict(dt), dc, "<", ("<",)):
            return True
    return False


def _zero_present(conj, nt, nc):
    for c in conj:
        if c.op == "==" and _same_up_to_sign(c, nt, nc):
            return True
    return False


def _same_up_to_sign(c, nt, nc):
    d = dict(c.coeffs)
    if set(d) != set(nt) or not nt:
        return False
    k0 = next(iter(nt))
    if nt[k0] == 0 or d.get(k0, Fraction(0)) == 0:
        return False
    scale = d[k0] / nt[k0]
    if scale == 0:
        return False
    for k, v in nt.items():
        if d.get(k, Fraction(0)) != v * scale:
            return False
    return c.const == nc * scale


# ---------------------------------------------------------------------------
# the prover

def prove_internal(ob) -> ProofStatus:
    """Decide an obligation in the linear-rational fragment.

    Accepts a vcgen Obligation (or anything with .hypotheses/.hyp_sources/
    .goal/.has_fresh/.var_sorts attributes).
    """
    trace = []
    hyps = []
    for h, src in zip(ob.hypotheses, ob.hyp_sources or ["?"] * len(ob.hypotheses)):
        if isinstance(h, S.Forall):
            trace.append(f"dropped quantified hypothesis ({src})")
            continue
        hyps.append(h)
    f = ob.goal
    for h in reversed(hyps):
        f = S.Binary(op="==>", left=h, right=f, ty=S.BOOL)
    f = simplify(f)
    trace.append("simplify")
    if isinstance(f, S.BoolLit):
        if f.value:
            trace.append("closed by simplification")
            return ProofStatus("proved-internal", rule_trace=trace)
        return _try_refute(ob, {}, trace + ["simplified to false"])

    px = _Prenex()
    dropped = []
    try:
        nnf_neg = _nnf(f, False, px, dropped)       # negation of f
        disjuncts = _dnf(nnf_neg)
    except _OutsideFragment as ex:
        return ProofStatus("unknown", reason=str(ex), rule_trace=trace)
    except _ResourceCap as ex:
        return ProofStatus("unknown", reason=f"resource cap: {ex}", rule_trace=trace)
    if dropped:
        trace.append(f"dropped {len(dropped)} quantified constraint(s)")
    trace.append(f"negate/nnf/dnf: {len(disjuncts)} disjunct(s)")

    sat_witness = None
    sat_atoms = None
    for conj in disjuncts:
        try:
            result = _refute_conjunct(conj, trace)
        except _OutsideFragment as ex:
            return ProofStatus("unknown", reason=str(ex), rule_trace=trace)
        except _ResourceCap as ex:
            return ProofStatus("unknown", reason=f"resource cap: {ex}",
                               rule_trace=trace)
        if result is not None:
            witness, atoms = result
            sat_witness, sat_atoms = witness, atoms
            break
    if sat_witness is None:
        trace.append("fourier-motzkin: every disjunct closed")
        return ProofStatus("proved-internal", rule_trace=trace)
    if sat_atoms.opaque or sat_atoms.int_keys:
        why = ("nonlinear terms abstracted" if sat_atoms.opaque
               else "integer-sorted symbols (rational decision is incomplete)")
        return ProofStatus("unknown", reason=f"satisfiable abstraction: {why}",
                           rule_trace=trace)
    return _try_refute(ob, sat_witness, trace)


def _literal(lit):
    """(negated, formula, op) of a DNF literal: op is the comparison a numeric
    literal states once its negation is folded in, None for any other."""
    neg = isinstance(lit, S.Unary) and lit.op == "!"
    f = lit.operand if neg else lit
    if isinstance(f, S.Binary) and f.op in _NEG and f.left.ty in (S.INT, S.REAL):
        return neg, f, _NEG[f.op] if neg else f.op
    return neg, f, None


def _refute_conjunct(conj: list, trace):
    """None when refuted; (witness, atoms) when satisfiable-as-abstracted."""
    # each != literal splits the conjunct in two: k of them cost 2**k
    splits = sum(_literal(lit)[2] == "!=" for lit in conj)
    if 2 ** splits > MAX_DISJUNCTS:
        raise _ResourceCap(f"disequality split ({splits} literals)")
    atoms = _Atoms()
    constraints = []
    bools = {}
    for lit in conj:
        neg, f, op = _literal(lit)
        if isinstance(f, S.BoolLit):
            if f.value == neg:
                return None
            continue
        if op == "!=":
            # split once: a != b  ->  a < b or a > b; recurse on both
            rest = [x for x in conj if x is not lit]
            for split in ("<", ">"):
                result = _refute_conjunct(
                    rest + [S.Binary(op=split, left=f.left, right=f.right,
                                     ty=S.BOOL)], trace)
                if result is not None:
                    return result
            return None
        if op is not None:
            constraints.extend(atoms.constraint(op, f.left, f.right))
            continue
        if isinstance(f, S.Forall):
            if neg:
                raise _OutsideFragment("existential quantification")
            trace.append("dropped quantified conjunct (sound weakening)")
            continue
        key = expr_to_str(f)
        atoms.opaque = True
        if key in bools and bools[key] != (not neg):
            return None
        bools[key] = not neg
    facts, applied = _division_facts(constraints, atoms)
    if applied:
        trace.extend(applied)
    witness = _fm(constraints + facts)
    if witness is None:
        return None
    return witness, atoms


def _try_refute(ob, witness, trace) -> ProofStatus:
    if getattr(ob, "has_fresh", False):
        return ProofStatus("unknown",
                           reason="havoc symbols: ground refutation is meaningless",
                           rule_trace=trace)
    sorts = getattr(ob, "var_sorts", {})
    if any(t is not None and t != S.REAL for t in sorts.values()):
        return ProofStatus("unknown",
                           reason="non-real symbols: refutation incomplete",
                           rule_trace=trace)
    env = {}
    for name in sorts:
        v = witness.get(name, Fraction(0))
        env[name] = v
    try:
        holds = eval_formula(validation_formula(ob),
                             {"Here": dict(env), "Old": dict(env)}, "rational")
    except EvalError as ex:
        return ProofStatus("unknown", reason=f"counterexample not checkable: {ex}",
                           rule_trace=trace)
    if not holds:
        trace.append("counterexample confirmed by evaluation")
        return ProofStatus("refuted", rule_trace=trace,
                           counterexample={k: v for k, v in env.items()})
    return ProofStatus("unknown", reason="candidate counterexample not confirmed",
                       rule_trace=trace)
