"""Internal automatic prover for quantifier-free linear rational arithmetic.

Validity of `hypotheses ==> goal` is decided by refuting its negation. The
simplified formula goes through four steps:

1. negate and distribute in one walk into a disjunction of conjunctions of
   literals: a numeric comparison `(op, comparison)`, its negation folded
   into `op`, or any other formula as an uninterpreted `(atom, truth)`.
   The goal's universal prefix is opened with fresh symbols; universally
   quantified hypotheses are dropped (sound).
2. read each comparison into a constraint `lin op 0` over abstraction
   keys, once per obligation set: `lin` is primitive, its coefficients and
   constant coprime ints. Its sides' forms are the ones `simplify`
   rendered it from, read from the table it filled; only a comparison
   made by opening a quantifier is read through `simplify.linear_form`.
   The obligations of one set share that table, and with it simplify's
   memo, so a hypothesis or subterm they share is simplified, linearised
   and keyed once.
   So the atoms are the simplifier's: division by a nonzero constant is
   linear, and every other nonlinear term (variable products, division,
   array selects, lengths) is an atom abstracted to a fresh symbol. Each
   constraint carries what its sides abstract: their integer-sorted keys,
   whether one is a non-variable atom, and their division atoms.
3. split each `a != b` into `a < b` or `a > b`; k of them give 2**k leaves.
4. refute each leaf, with the facts of two division sign rules on the
   divisions its constraints carry, which reintroduce what the abstraction
   loses:

    x > 0 && y > 0   gives   x / y > 0
    x == 0 && y != 0 gives   x / y == 0

   A leaf that holds a strict bound beside its complement (`lin < 0`
   beside `-lin < 0`, `-lin <= 0` or `-lin == 0`, or beside `lin == 0`)
   is closed by looking up the constraints' keys; any other goes on to
   Gaussian and Fourier-Motzkin elimination over primitive integer
   constraints.

   A satisfiable leaf's rational witness is built from its elimination
   only for a refutation attempt: when its conjunct holds no boolean atom
   and its constraints carry no abstracted atom and no integer-sorted key;
   else the unknown's reason is read from the same facts.

Integer symbols are treated as rationals (sound for proving, incomplete
for refuting). A `refuted` verdict is only issued for closed, havoc-free,
all-real goals and only after the counterexample is confirmed by the
evaluator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from . import syntax as S
from .errors import EvalError, ExecutionFault
from .interp import eval_formula
from .linear import Lin
from .printer import expr_to_str
from .simplify import linear_form, simplify
from .vcgen import Obligation, validation_formula

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

    @property
    def detail(self) -> str:
        """One line for reports: the rule trace of a proof, the
        counterexample of a refutation, else the reason."""
        if self.proved:
            return "; ".join(self.rule_trace)
        if self.status == "refuted":
            return f"counterexample {self.counterexample}"
        return self.reason


class _ResourceCap(Exception):
    pass


# ---------------------------------------------------------------------------
# literals: linear constraints over abstraction keys

class Constraint(NamedTuple):
    """lin OP 0, OP in {'<', '<=', '=='}. One read from a comparison also
    carries what its sides abstract: their integer-sorted keys, whether one
    is a non-variable atom, and each division atom as (key, numerator,
    denominator), inner quotients first. One derived by elimination carries
    none of these."""
    lin: Lin
    op: str
    int_keys: frozenset = frozenset()
    opaque: bool = False
    divisions: tuple = ()

    def holds_trivially(self):
        return S.COMPARE[self.op](self.lin.const, 0)


def _constraint(op: str, cmp: S.Binary, forms) -> Constraint:
    """The constraint `cmp.left op cmp.right`, as the primitive form of
    `left - right` or of its negation compared with 0. `forms` is the
    obligation's table, shared by the obligations of its set: `simplify`
    fills it with each comparison's side forms and its own memo, and this
    adds each comparison's constraint per op. The sides are keyed once per
    op and table, from their forms in the table, or, for a comparison
    `simplify` did not emit, from `linear_form` of each side."""
    hit = forms.get(cmp, op)
    if hit is None:
        left, right = forms.get(cmp) or (linear_form(cmp.left), linear_form(cmp.right))
        # key each side alone, so that an atom cancelling between the
        # sides is still carried
        left, lint, lopaque, ldivs = _keyed(left)
        right, rint, ropaque, rdivs = _keyed(right)
        lin, rel = left.add(right, -1).primitive(), op
        if op in (">", ">="):
            lin, rel = lin.scale(-1), "<" if op == ">" else "<="
        divisions = tuple((k, n, d) for k, (n, d) in {**ldivs, **rdivs}.items())
        hit = forms.put(cmp, Constraint(lin, rel, frozenset(lint | rint),
                                        lopaque or ropaque, divisions), op)
    return hit


def _keyed(form: Lin):
    """(form over prover keys, its integer-sorted keys, whether it has a
    non-variable atom, its divisions: key -> (numerator, denominator)). A
    variable is keyed by its name, any other atom by `|<its text>|`. A
    division's numerator and denominator are read the same way, and the
    divisions inside them come before it."""
    coeffs, int_keys, divisions = {}, set(), {}
    opaque = False
    for atom, c in form.coeffs.items():
        e = atom.expr
        variable = isinstance(e, (S.Var, S.FreshVar))
        key = e.name if variable else f"|{atom}|"
        coeffs[key] = c
        opaque = opaque or not variable
        if e.ty == S.INT:
            int_keys.add(key)
        if isinstance(e, S.Binary) and e.op == "/":
            num, den = _keyed(linear_form(e.left)), _keyed(linear_form(e.right))
            int_keys |= num[1] | den[1]
            divisions.update(num[3])
            divisions.update(den[3])
            divisions[key] = num[0], den[0]
    return Lin(form.const, coeffs), int_keys, opaque, divisions


# ---------------------------------------------------------------------------
# negation and DNF with universal opening

_NEG = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}


def _dnf(f: S.Expr, positive: bool, px, dropped: list) -> list:
    """The conjunctions (lists of literals) whose disjunction is f, or its
    negation when positive=False. A numeric comparison is the literal
    (op, comparison), any other formula (atom, truth). Universals are
    opened with fresh symbols from the counter px where negated, dropped
    (and listed in dropped) where asserted."""
    if isinstance(f, S.BoolLit):
        return [[]] if f.value == positive else []
    if isinstance(f, S.Unary) and f.op == "!":
        return _dnf(f.operand, not positive, px, dropped)
    if isinstance(f, S.Binary) and f.op in ("&&", "||", "==>"):
        left = _dnf(f.left, positive != (f.op == "==>"), px, dropped)
        right = _dnf(f.right, positive, px, dropped)
        conjunction = (f.op == "&&") == positive
        size = len(left) * len(right) if conjunction else len(left) + len(right)
        if size > MAX_DISJUNCTS:
            raise _ResourceCap("DNF explosion")
        return [l + r for l in left for r in right] if conjunction else left + right
    if isinstance(f, S.Forall):
        if positive:
            # universally quantified constraint: dropping it weakens the
            # satisfiability query, which is sound for proving
            dropped.append(f)
            return [[]]
        # negated forall is existential: satisfiability treats the binders
        # as free fresh symbols (Skolem constants)
        sub = {name: S.Var(name=f"{name}${next(px)}", ty=ty)
               for name, ty in f.binders}
        return _dnf(S.substitute(f.body, sub), False, px, dropped)
    if (isinstance(f, S.Binary) and f.op in _NEG
            and f.left.ty in (S.INT, S.REAL)):
        return [[(f.op if positive else _NEG[f.op], f)]]
    # everything else, boolean/array (dis)equality included, is an
    # uninterpreted boolean atom
    return [[(f, positive)]]


# ---------------------------------------------------------------------------
# Fourier-Motzkin with witness extraction

def _eliminate(constraints: list):
    """None when the conjunction is unsatisfiable over the rationals, else
    (stack, solved): each eliminated key with its lower and upper bounds,
    and each key solved by an equality, from which `_witness` builds a
    witness. Every form is primitive (`Lin.primitive`): each step is an
    integer combination that comes out a positive multiple of the rational
    step's result, made primitive again. A positive multiple puts the same
    bound on each key, so the witness is the rational one, and Fraction
    arithmetic happens only in building it."""
    if _complementary(constraints):
        return None
    # Gaussian elimination of equalities, pivoting on the least key; each
    # other constraint is rewritten with key cancelled against the equality
    solved = []    # (key, equality form)
    ineqs = []
    pending = list(constraints)
    while pending:
        c = pending.pop(0)
        if c.lin.is_const:
            if not c.holds_trivially():
                return None
            continue
        if c.op == "==":
            key = min(c.lin.coeffs)
            solved.append((key, c.lin))
            pending = [o if key not in o.lin.coeffs
                       else Constraint(_cancel(o.lin, c.lin, key), o.op)
                       for o in pending + ineqs]
            ineqs = []
            continue
        ineqs.append(c)
    # Fourier-Motzkin on inequalities, eliminating keys in sorted order
    keys = sorted({k for c in ineqs for k in c.lin.coeffs})
    stack = []
    current = ineqs
    for key in keys:
        lowers, uppers, rest = [], [], []
        for c in current:
            a = c.lin.coeffs.get(key)
            if a is None:
                rest.append(c)
            elif a > 0:
                uppers.append(c)       # an upper bound on key
            else:
                lowers.append(c)
        stack.append((key, lowers, uppers))
        new = list(rest)
        for lo in lowers:
            for up in uppers:
                new.append(Constraint(_cancel(lo.lin, up.lin, key),
                                      "<" if "<" in (lo.op, up.op) else "<="))
                if len(new) > MAX_CONSTRAINTS:
                    raise _ResourceCap("Fourier-Motzkin blowup")
        current = []
        for c in new:
            if not c.lin.is_const:
                current.append(c)
            elif not c.holds_trivially():
                return None
    return stack, solved


def _complementary(constraints: list) -> bool:
    """Whether two of the constraints hold at no point together: `lin < 0`
    beside `-lin < 0`, `-lin <= 0` or `-lin == 0`, or beside `lin == 0`.
    A satisfiable conjunction holds no such pair, so closing on one changes
    no witness."""
    strict = {c.lin.key() for c in constraints if c.op == "<"}
    return bool(strict) and any(
        c.lin.neg_key() in strict or (c.op == "==" and c.lin.key() in strict)
        for c in constraints)


def _witness(stack: list, solved: list) -> dict:
    """A rational witness of a satisfiable elimination, built backwards;
    keys never constrained by an inequality default to 0."""
    witness = {}

    def bound(lin, key):
        """The value of key that makes lin zero under the witness."""
        rest = lin.const + sum(v * witness.setdefault(k, Fraction(0))
                               for k, v in lin.coeffs.items() if k != key)
        return Fraction(-rest, lin.coeffs[key])

    for key, lowers, uppers in reversed(stack):
        # the bound each constraint puts on key, given the later keys' values
        lo_best = max((bound(c.lin, key) for c in lowers), default=None)
        up_best = min((bound(c.lin, key) for c in uppers), default=None)
        if lo_best is None and up_best is None:
            witness[key] = Fraction(0)
        elif lo_best is None:
            witness[key] = up_best - 1
        elif up_best is None:
            witness[key] = lo_best + 1
        else:
            # projection kept lo <= up (equality only when both nonstrict)
            witness[key] = (lo_best + up_best) / 2
    for key, lin in reversed(solved):
        witness[key] = bound(lin, key)
    return witness


def _cancel(lin: Lin, by: Lin, key) -> Lin:
    """|b| * lin - sign(b) * a * by, made primitive, where a and b are key's
    coefficients in lin and by: key cancels, and lin keeps a positive
    weight. With by an equality this substitutes key's value; with lin a
    lower bound on key and by an upper bound it is their FM combination."""
    a, b = lin.coeffs[key], by.coeffs[key]
    m, k = abs(b), (-a if b > 0 else a)
    # one dict, in the key order of lin.scale(m).add(by, k)
    coeffs = {x: v * m for x, v in lin.coeffs.items()}
    for x, v in by.coeffs.items():
        c = coeffs.pop(x, 0) + k * v
        if c:
            coeffs[x] = c
    const = lin.const * m + k * by.const
    g = gcd(const, *coeffs.values())
    if g > 1:
        const //= g
        for x in coeffs:
            coeffs[x] //= g
    return Lin(const, coeffs)


# ---------------------------------------------------------------------------
# division sign rules

def _signs(lin: Lin, conj: list) -> set:
    """The signs (1, 0, -1) that lin is known to have: its own when it is
    constant, else those stated by a constraint of conj over a multiple of
    lin (r * lin < 0 or r * lin == 0)."""
    if lin.is_const:
        return {(lin.const > 0) - (lin.const < 0)}
    out = set()
    for c in conj:
        r = c.lin.ratio(lin)
        if r is None:
            continue
        if c.op == "==":
            out.add(0)
        elif c.op == "<":
            out.add(-1 if r > 0 else 1)
    return out


def _division_facts(leaf: list):
    """Extra constraints from the two division sign rules, and their trace
    entries. The divisions the leaf's constraints carry are taken once
    each, in leaf order, inner quotients first, so the signs of each are
    read from the leaf and the facts derived before it."""
    divisions = {k: (n, d) for c in leaf for k, n, d in c.divisions}
    out = []
    applied = []
    for key, (num, den) in divisions.items():
        known = leaf + out
        num_signs, den_signs = _signs(num, known), _signs(den, known)
        if 1 in num_signs and 1 in den_signs:
            out.append(Constraint(Lin(0, {key: -1}), "<"))
            applied.append(f"division-sign: {key} > 0")
        if 0 in num_signs and den_signs - {0}:
            out.append(Constraint(Lin(0, {key: 1}), "=="))
            applied.append(f"division-sign: {key} == 0")
    return out, applied


# ---------------------------------------------------------------------------
# the prover

def prove_internal(ob: Obligation) -> ProofStatus:
    """Decide an obligation in the linear-rational fragment.

    Every proof reads and fills the obligation's table `_forms`: the set's,
    shared by its members, or the obligation's own. The table also keeps
    the first status of each goal object under its hypotheses tuple and
    sources tuple, beside that obligation's havoc loops and sorts: a repeat
    with equal loops and sorts, as vcgen lists where two listings state one
    obligation, takes a copy of that status without being proved again.
    It keeps the printed key of each boolean atom object too (`_atom_text`).
    A formula nested deeper than Python's stack ends in `unknown`, as the
    other resource caps do.
    """
    objs = ob.goal, ob.hypotheses, ob.hyp_sources
    hit = ob._forms.get_all(objs)
    if hit is not None and hit[:2] == (ob.loop_ids, ob.var_sorts):
        return _copy(hit[2])
    try:
        status = _prove(ob)
    except RecursionError:
        status = ProofStatus("unknown", reason="resource cap: nesting too deep")
    if hit is None:
        ob._forms.put_all(objs, (ob.loop_ids, ob.var_sorts, _copy(status)))
    return status


def _copy(st: ProofStatus) -> ProofStatus:
    cex = st.counterexample
    return ProofStatus(st.status, st.reason, list(st.rule_trace),
                       None if cex is None else dict(cex))


def _prove(ob: Obligation) -> ProofStatus:
    trace = []
    hyps = []
    for h, src in zip(ob.hypotheses, ob.hyp_sources):
        if isinstance(h, S.Forall):
            trace.append(f"dropped quantified hypothesis ({src})")
            continue
        hyps.append(h)
    f = ob.goal
    for h in reversed(hyps):
        f = S.Binary(op="==>", left=h, right=f, ty=S.BOOL)
    # the forms table (see _constraint) and simplify's memo
    forms = ob._forms
    f = simplify(f, forms)
    trace.append("simplify")
    if isinstance(f, S.BoolLit):
        if f.value:
            trace.append("closed by simplification")
            return ProofStatus("proved-internal", rule_trace=trace)
        return _try_refute(ob, {}, trace + ["simplified to false"])

    dropped = []
    result = None
    try:
        disjuncts = _dnf(f, False, itertools.count(), dropped)  # negation of f
        if dropped:
            trace.append(f"dropped {len(dropped)} quantified constraint(s)")
        trace.append(f"negate/nnf/dnf: {len(disjuncts)} disjunct(s)")
        for conj in disjuncts:
            result = _refute_conjunct(conj, trace, forms)
            if result is not None:
                break
    except _ResourceCap as ex:
        return ProofStatus("unknown", reason=f"resource cap: {ex}", rule_trace=trace)
    if result is None:
        trace.append("fourier-motzkin: every disjunct closed")
        return ProofStatus("proved-internal", rule_trace=trace)
    eliminated, leaf, held_bool = result
    if held_bool or any(c.opaque for c in leaf):
        why = "nonlinear terms abstracted"
    elif any(c.int_keys for c in leaf):
        why = "integer-sorted symbols (rational decision is incomplete)"
    else:
        return _try_refute(ob, _witness(*eliminated), trace)
    return ProofStatus("unknown", reason=f"satisfiable abstraction: {why}",
                       rule_trace=trace)


def _refute_conjunct(conj: list, trace, forms):
    """None when refuted; else (elimination, leaf, held_bool): what
    `_eliminate` gave the first satisfiable leaf, that leaf, and whether
    the conjunct held a boolean atom.
    Each `a != b` splits the conjunct into `a < b` and `a > b`: the leaves,
    `<` first and in literal order, add one side of every split to the
    constraints of the other literals."""
    splits = [lit for lit in conj if lit[0] == "!="]
    if 2 ** len(splits) > MAX_DISJUNCTS:
        raise _ResourceCap(f"disequality split ({len(splits)} literals)")
    constraints = []
    bools = {}
    for first, second in conj:
        if isinstance(second, bool):        # (atom, truth)
            if bools.setdefault(_atom_text(first, forms), second) != second:
                return None
        elif first != "!=":
            constraints.append(_constraint(first, second, forms))
    sides = [(_constraint("<", cmp, forms), _constraint(">", cmp, forms))
             for _, cmp in splits]
    for leaf in itertools.product(*sides):
        leaf = constraints + list(leaf)
        facts, applied = _division_facts(leaf)
        trace.extend(applied)
        eliminated = _eliminate(leaf + facts)
        if eliminated is not None:
            return eliminated, leaf, bool(bools)
    return None


def _atom_text(atom: S.Expr, forms) -> str:
    """The printed text that keys a boolean atom, kept in the table, so
    each atom object is printed once per table."""
    hit = forms.get(atom, "atom")
    return forms.put(atom, expr_to_str(atom), "atom") if hit is None else hit


def _try_refute(ob: Obligation, witness, trace) -> ProofStatus:
    if ob.has_fresh:
        return ProofStatus("unknown",
                           reason="havoc symbols: ground refutation is meaningless",
                           rule_trace=trace)
    sorts = ob.var_sorts
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
    except (EvalError, ExecutionFault) as ex:
        return ProofStatus("unknown", reason=f"counterexample not checkable: {ex}",
                           rule_trace=trace)
    if not holds:
        trace.append("counterexample confirmed by evaluation")
        return ProofStatus("refuted", rule_trace=trace,
                           counterexample={k: v for k, v in env.items()})
    return ProofStatus("unknown", reason="candidate counterexample not confirmed",
                       rule_trace=trace)
