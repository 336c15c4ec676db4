"""Deterministic evaluator with runtime contract checking.

Methods are compiled once per (unit, mode) into Python closures over a flat
slot array; exec_method then runs the compiled form with requires/ensures,
loop invariant/variant, behaviour and assert checks exactly where the
semantics places them. The same expression compiler backs eval_formula, so
runtime checks, trace validation and the prover's counterexample verifier
share one semantics.

Most of a check's time is Python calls between closures, so the compiler
fuses the commonest shapes into one closure each (superoperators). Each
comparison and each `+ - *`, and `/` in binary64, is one closure with the
operator inline, whose body is made for its pair of operand kinds; binary64
real arithmetic checks its result for overflow, and its division the
divisor for zero, in the same closure. A leaf operand is read inside the
operator's closure rather than through a closure of its own: a variable of
the current state or a havoc symbol as its slot f.cur[i], a quantifier
binder or a literal as cell[0] of a one-element list. Reads of the Old and
LoopEntry states, and every other operand, stay closures. An array read
`a[i]` with `a` a slot and `i` a leaf reads both in place, and so does a
quantifier's lone lower and upper bound, `leaf + c` or `leaf - c`
included. A chain of one connective (`A && B && C`, with any nesting of
`&&`, likewise `||`, and `A1 && A2 ==> B ==> C` along its right spine) is
one closure over the tuple of its operands' closures. Operands are still
evaluated left to right, with the short circuit of the nested form, so
values, faults and their order are those of the plain tree.

Formulas compile, bind and evaluate through one path, a CompiledTests
(below): trace validation compiles the tests of a group together, and
eval_formula compiles a standalone formula as a CompiledTests of that one
test. Every compile runs under a memo (a `syntax.Memo`), one per method of
a unit and one per (mode, layout) of a CompiledTests, so that a node
object met more than once compiles to one closure. Nothing here retains
compiled formulas or memos: their owner is the caller, and they live as
long as it holds them. Closure trees are large next to the formulas they
come from, so no module-level cache holds them.

Binding a state coerces each value a formula reads to its variable's
type. Every evaluation binds through a BindCache, a fresh one per
eval_formula call unless the caller passes one, which shares that work
among the evaluations of one batch of states: each (value, type) is
coerced once. Trace validation makes one cache per call and drops it when
the call returns.

Trace validation evaluates many tests on the same bundles, and they share
their hypotheses (a requires, an invariant, a path condition). So the
tests of one group of obligations compile together into a CompiledTests,
which eval_formula evaluates a bundle at a time. For each (mode, layout)
every test is split into the antecedents of its `==>` chain and its
consequent, all compiled under one memo, and the chains go into one
prefix trie keyed by closure, compressed into runs of closures; each
consequent hangs at the node where its chain ends. One walk of the trie
per bundle evaluates each shared prefix once: a false antecedent passes
every live test under it vacuously, a fault ends every live test under it
with the fault, and a test that ends is skipped by the later walks
through the same cache. A closure that sits on more than one edge is read
through a table that each walk makes afresh on its frame, so it runs once
per bundle; a fault is never stored there. The tests that read no
name at two types share a bind class, one frame per bundle: Old is bound
once per cache, and Here starts as a copy of Old's slot list, so only the
names whose values are not Old's very objects (in trace validation, the
havoc and call-result values) are bound again. A value that fails to
coerce ends only the tests that read its name, with the coercion's
fault. The caller owns the CompiledTests, which keeps its tries and
nothing of an evaluation; trace validation keeps one per group on the
ObligationSet.

A bounded `\\forall integer k1 ... kn; guards ==> consequent` is evaluated
by enumeration. Each binder's range is lo..hi, the greatest lower and the
least upper bound among the guard conjuncts that compare it with a term of
outer binders only (`e <= k`, `k < e`, ...); a binder without both bounds
makes the quantifier non-ground, an EvalError when reached. Binders are
enumerated outermost first, each in increasing order, and the first false
instance ends the evaluation. The guards that gave a bound hold of every
enumerated value, so they are not re-tested; the other guards are, before
the consequent. A body `A && B` is split into two quantifiers evaluated in
turn. When no guard is left and the consequent is `a[k] op e` or
`e op a[k]` (k the innermost binder, op a comparison, neither a nor e
mentioning k), a and e are evaluated once and the slice a[lo..hi] is
scanned. As in the per-k loop, the first out-of-range index faults: lo when
lo is outside a (before e is evaluated for `a[k] op e`), otherwise
len(a) when hi reaches past the end, unless an element before it already
made the consequent false.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import repeat

from . import syntax as S
from .errors import ContractViolation, EvalError, ExecutionFault
from .printer import pretty_print
from .typecheck import TypedUnit
from .values import (BINARY64, RATIONAL, coerce_arg, norm_rational,
                     value_repr)

RET = object()          # return signal from statement closures


# ---------------------------------------------------------------------------
# outcome datatypes

@dataclass
class CheckEvent:
    kind: str                 # requires | ensures | behaviour-ensures | invariant-entry
    #                         # | invariant-preserved | variant-nonneg | variant-decrease | assert
    method: str
    line: int
    verdict: str              # 'pass' | 'fail'
    label: str = ""           # behaviour name for behaviour-ensures
    witness: dict = field(default_factory=dict)


@dataclass
class TraceSnapshot:
    kind: str                 # 'entry' | 'loop-head' | 'exit'
    method: str
    loop_id: int = -1
    iteration: int = -1
    state: dict = field(default_factory=dict)
    result: object = None


@dataclass
class ExecutionOutcome:
    status: str               # 'normal' | 'contract-violation' | 'runtime-error'
    method: str
    mode: str
    return_value: object = None
    report: list = field(default_factory=list)
    trace: list = None
    error: str = None
    checks_passed: int = 0
    unit_digest: str = ""


class Kernel:
    """Per-execution context: event and trace flags, counters, sinks."""

    __slots__ = ("collect_events", "tracing", "events", "trace",
                 "passed", "steps", "max_steps", "depth", "max_depth")

    def __init__(self, collect_events, tracing, max_steps, max_depth):
        self.collect_events = collect_events
        self.tracing = tracing
        self.events = []
        self.trace = [] if tracing else None
        self.passed = 0
        self.steps = 0
        self.max_steps = max_steps
        self.depth = 0
        self.max_depth = max_depth


class Frame:
    __slots__ = ("cur", "old", "res", "loopentry", "K")

    def __init__(self, cur, K):
        self.cur = cur
        self.old = None
        self.res = None
        self.loopentry = None
        self.K = K


def _snapshot_slots(slots):
    return [list(v) if isinstance(v, list) else v for v in slots]


# ---------------------------------------------------------------------------
# loop numbering shared with vcgen

def loop_table(method: S.MethodDecl) -> S.Memo:
    """Each loop node's stable index, in pre-order over the body."""
    table = S.Memo()

    def visit(st):
        if isinstance(st, S.Block):
            for s in st.stmts:
                visit(s)
        elif isinstance(st, S.If):
            visit(st.then)
            if st.orelse is not None:
                visit(st.orelse)
        elif isinstance(st, (S.While, S.DoWhile)):
            table.put(st, len(table))
            visit(st.body)

    visit(method.body)
    return table


def mentions_loopentry(f: S.Expr) -> bool:
    for n in S.walk(f):
        if isinstance(n, S.AtLabel) and n.label == "LoopEntry":
            return True
    return False


# ---------------------------------------------------------------------------
# expression compiler

class CompileCtx:
    def __init__(self, slots, mode, memo, cunit=None, binders=None, var_types=None):
        self.slots = slots                  # name -> slot index
        self.mode = mode
        # (closure, the subtree's var_types or None) per node and state, and
        # the read sets (see _read_set)
        self.memo = memo
        self.cunit = cunit                  # CompiledUnit, for calls and \result
        self.binders = binders or {}        # name -> cell (1-element list)
        self.var_types = {} if var_types is None else var_types   # slot read -> type


def _state_list(frame, state):
    if state == "cur":
        return frame.cur
    if state == "old":
        if frame.old is None:
            raise EvalError("state label Old/Pre is not available here")
        return frame.old
    le = frame.loopentry
    if le is None:
        raise EvalError("state label LoopEntry is not available here")
    return le


def compile_expr(e: S.Expr, ctx: CompileCtx, state: str = "cur"):
    """Compile a typed expression to a closure frame -> value.

    A node object met again in the same state, under ctx's memo, reuses
    its closure and re-records the variable types its subtree reads, so
    ctx.var_types ends as compiling it afresh leaves it."""
    memo = ctx.memo
    hit = memo.get(e, state)
    if hit is not None:
        if hit[1]:
            ctx.var_types.update(hit[1])
        return hit[0]
    outer = ctx.var_types
    ctx.var_types = reads = {}
    try:
        fn = _compile(e, ctx, state)
    finally:
        ctx.var_types = outer
        outer.update(reads)
    memo.put(e, (fn, _read_set(memo, reads) if reads else None), state)
    return fn


def _read_set(memo, reads: dict) -> dict:
    """The memo's one read set with the items of reads, kept under this
    function by the items, so that its entries that read the same
    variables share one."""
    items = tuple(sorted(reads.items()))
    hit = memo.get(_read_set, items)
    return memo.put(_read_set, reads, items) if hit is None else hit


# An operand of a fused operator: (_SLOT, i) is read in place as f.cur[i],
# (_CELL, cell) as cell[0], and (_FN, fn) by calling fn(f).
_SLOT, _CELL, _FN = "slot", "cell", "fn"


def _leaf(e: S.Expr, ctx: CompileCtx, state: str):
    """(_SLOT, i) for a variable of the current state or a havoc symbol,
    (_CELL, cell) for a quantifier binder or a literal (a one-element list
    of its own), or None for any other node. Records the slot's type."""
    if isinstance(e, S.Var):
        cell = ctx.binders.get(e.name)
        if cell is not None:
            return _CELL, cell
        if state != "cur":
            return None
    elif isinstance(e, (S.IntLit, S.RealLit, S.BoolLit)):
        if isinstance(e, S.RealLit):
            return _CELL, [norm_rational(e.value) if ctx.mode == RATIONAL
                           else float(e.text)]
        return _CELL, [e.value]
    elif not isinstance(e, S.FreshVar):
        return None
    i = ctx.slots.get(e.name)
    if i is None:
        return None
    if e.ty is not None:
        ctx.var_types[e.name] = e.ty
    return _SLOT, i


def _operand(e: S.Expr, ctx: CompileCtx, state: str):
    """e as an operand (kind, x) read in place when it is a leaf."""
    return _leaf(e, ctx, state) or (_FN, compile_expr(e, ctx, state))


def _reader(kind, x):
    """The closure f -> value of an operand."""
    if kind is _SLOT:
        return lambda f: f.cur[x]
    if kind is _CELL:
        return lambda f: x[0]
    return x


# Superoperators: f -> `left op right`, one closure body per operator and
# pair of operand kinds, with the operator inline and each leaf operand read
# in place. A family's body is a template, expanded by exec the first time a
# (family, operator, kinds) is met, so the table holds at most 13 * 9
# factories and no closure; the operator's text comes from _OPERATOR_TEXT,
# never from a node. Binary64 real arithmetic checks its result inline: for
# a float v, `v - v` is NaN, so true, exactly when v is not finite. Its
# division first faults on a zero divisor.
_OPERATOR_TEXT = {op: op for op in (*S.COMPARE, "+", "-", "*", "/")}
_OPERAND_TEXT = {_SLOT: "f.cur[{}]", _CELL: "{}[0]", _FN: "{}(f)"}
_FINITE = """
        if v - v:
            raise ExecutionFault("real overflow in binary64 mode", line)
        return v"""
_SUPEROPERATOR = {
    "plain": """
        return {l} {op} {r}""",
    "binary64": """
        v = {l} {op} {r}""" + _FINITE,
    "binary64 /": """
        n = {l}
        d = {r}
        if d == 0.0:
            raise ExecutionFault("division by zero", line)
        v = n / d""" + _FINITE,
}
_FACTORY = """\
def make(a, b, line):
    def superoperator(f):{body}
    return superoperator
"""
_MAKERS = {}        # (family, operator, left kind, right kind) -> factory


def _superoperator(family, op, left, right, line):
    """The closure of `left op right` in family, each operand a pair
    (kind, x) of _operand."""
    (lk, a), (rk, b) = left, right
    key = family, op, lk, rk
    make = _MAKERS.get(key)
    if make is None:
        source = _FACTORY.format(body=_SUPEROPERATOR[family].format(
            op=_OPERATOR_TEXT[op], l=_OPERAND_TEXT[lk].format("a"),
            r=_OPERAND_TEXT[rk].format("b")))
        scope = {"ExecutionFault": ExecutionFault}
        exec(compile(source, f"<superoperator {' '.join(key)}>", "exec"), scope)
        make = _MAKERS[key] = scope["make"]
    return make(a, b, line)


def _bounds_fault(i, n, line):
    return ExecutionFault(f"array index {i} out of bounds 0..{n - 1}", line)


def _compile(e: S.Expr, ctx: CompileCtx, state: str):
    mode = ctx.mode
    leaf = _leaf(e, ctx, state)
    if leaf is not None:
        return _reader(*leaf)
    if isinstance(e, S.Var):
        try:
            i = ctx.slots[e.name]
        except KeyError:
            raise EvalError(f"unbound variable {e.name!r}") from None
        if e.ty is not None:
            ctx.var_types[e.name] = e.ty
        if state == "old":
            return lambda f: _state_list(f, "old")[i]
        return lambda f: _state_list(f, "le")[i]
    if isinstance(e, S.FreshVar):
        raise EvalError(f"unbound havoc symbol {e.name!r}")
    if isinstance(e, S.Coerce):
        op = compile_expr(e.operand, ctx, state)
        if mode == RATIONAL:
            return op
        return lambda f: float(op(f))
    if isinstance(e, S.Unary):
        op = compile_expr(e.operand, ctx, state)
        if e.op == "-":
            return lambda f: -op(f)
        return lambda f: not op(f)
    if isinstance(e, S.Binary):
        return _compile_binary(e, ctx, state)
    if isinstance(e, S.Index):
        return _compile_index(e, ctx, state)
    if isinstance(e, S.LengthExpr):
        arr = compile_expr(e.array, ctx, state)
        return lambda f: len(arr(f))
    if isinstance(e, S.OldExpr):
        return compile_expr(e.operand, ctx, "old")
    if isinstance(e, S.ResultExpr):
        if ctx.cunit is None:
            raise EvalError("\\result cannot appear in standalone formulas")
        return lambda f: f.res
    if isinstance(e, S.AtLabel) and e.label == "LoopEntry":
        return compile_expr(e.operand, ctx, "le")
    if isinstance(e, S.NewArray):
        size = compile_expr(e.size, ctx, state)
        zero = 0 if (e.elem == S.INT or mode == RATIONAL) else 0.0
        line = e.pos[0]

        def make(f):
            k = size(f)
            if k < 0:
                raise ExecutionFault(f"negative array size {k}", line)
            return [zero] * k
        return make
    if isinstance(e, S.Call):
        if ctx.cunit is None:
            raise EvalError("method calls cannot appear in standalone formulas")
        argfns = [compile_expr(a, ctx, state) for a in e.args]
        cm = ctx.cunit.methods[e.name]

        def call(f):
            return cm.invoke([a(f) for a in argfns], f.K)
        return call
    if isinstance(e, S.Store):
        arr = compile_expr(e.array, ctx, state)
        idx = compile_expr(e.index, ctx, state)
        val = compile_expr(e.value, ctx, state)
        line = e.pos[0]

        def store(f):
            a = arr(f)
            i = idx(f)
            if not (0 <= i < len(a)):
                raise _bounds_fault(i, len(a), line)
            a = list(a)
            a[i] = val(f)
            return a
        return store
    if isinstance(e, S.PermutAtom):
        a1 = compile_expr(e.a1, ctx, state)
        a2 = compile_expr(e.a2, ctx, state)
        lo = compile_expr(e.lo, ctx, state)
        hi = compile_expr(e.hi, ctx, state)
        line = e.pos[0]

        def permut_atom(f):
            return _permut(a1(f), a2(f), lo(f), hi(f), line)
        return permut_atom
    if isinstance(e, S.Forall):
        return _compile_forall(e.binders, e.body, ctx, state)
    raise EvalError(f"cannot evaluate {type(e).__name__}")


def _compile_index(e: S.Index, ctx: CompileCtx, state: str):
    """a[i], with a slot array and a leaf index read in place."""
    ak, a = _operand(e.array, ctx, state)
    ik, i = _operand(e.index, ctx, state)
    line = e.pos[0]
    if ak is _SLOT and ik is _SLOT:
        def read_slots(f):
            cur = f.cur
            arr, k = cur[a], cur[i]
            if 0 <= k < len(arr):
                return arr[k]
            raise _bounds_fault(k, len(arr), line)
        return read_slots
    if ak is _SLOT and ik is _CELL:
        def read_cell(f):
            arr, k = f.cur[a], i[0]
            if 0 <= k < len(arr):
                return arr[k]
            raise _bounds_fault(k, len(arr), line)
        return read_cell
    arr_fn, idx = _reader(ak, a), _reader(ik, i)

    def read(f):
        arr = arr_fn(f)
        k = idx(f)
        if 0 <= k < len(arr):
            return arr[k]
        raise _bounds_fault(k, len(arr), line)
    return read


def _all(parts):
    """f -> the value of `p1 && p2 && ...` over the closures parts."""
    if len(parts) == 2:         # a call is cheaper than a loop over two
        l, r = parts
        return lambda f: l(f) and r(f)

    def conj(f):
        for p in parts:
            v = p(f)
            if not v:
                return v
        return v
    return conj


def _split_implication(e: S.Expr):
    """(antecedents, consequent) of e's `==>` chain along its right spine:
    `A1 && A2 ==> B ==> C` gives ([A1, A2, B], C), and any other formula
    ([], e)."""
    antecedents = []
    while isinstance(e, S.Binary) and e.op == "==>":
        antecedents += S.chain(e.left, "&&")
        e = e.right
    return antecedents, e


def _compile_connective(e: S.Binary, ctx: CompileCtx, state: str):
    """One closure for a chain of one connective, its operands evaluated
    left to right with the short circuit of the nested form. A `==>` chain
    `A1 && A2 ==> B ==> C` runs as `!A1 || !A2 || !B || C`."""
    def compile_all(nodes):
        return tuple(compile_expr(n, ctx, state) for n in nodes)
    if e.op == "&&":
        return _all(compile_all(S.chain(e, "&&")))
    if e.op == "||":
        parts = compile_all(S.chain(e, "||"))
        if len(parts) == 2:
            l, r = parts
            return lambda f: l(f) or r(f)

        def disj(f):
            for p in parts:
                v = p(f)
                if v:
                    return v
            return v
        return disj
    antecedents, consequent = _split_implication(e)
    antecedents = compile_all(antecedents)
    consequent = compile_expr(consequent, ctx, state)
    if len(antecedents) == 1:
        [l] = antecedents
        return lambda f: not l(f) or consequent(f)

    def implies(f):
        for p in antecedents:
            if not p(f):
                return True
        return consequent(f)
    return implies


def _compile_binary(e: S.Binary, ctx: CompileCtx, state: str):
    op = e.op
    if op in ("&&", "||", "==>"):
        return _compile_connective(e, ctx, state)
    line = e.pos[0]
    if op == "/" and ctx.mode == RATIONAL:
        l = compile_expr(e.left, ctx, state)
        r = compile_expr(e.right, ctx, state)

        def divq(f):
            n, d = l(f), r(f)
            if d == 0:
                raise ExecutionFault("division by zero", line)
            if type(n) is int and type(d) is int:
                q = Fraction(n, d)
            else:
                q = n / d
            return q.numerator if q.denominator == 1 else q
        return divq
    left = _operand(e.left, ctx, state)
    right = _operand(e.right, ctx, state)
    if op not in _OPERATOR_TEXT:
        raise EvalError(f"cannot evaluate operator {op!r}")
    if op == "/":
        family = "binary64 /"
    elif ctx.mode == BINARY64 and e.ty == S.REAL:
        family = "binary64"
    else:
        family = "plain"
    return _superoperator(family, op, left, right, line)


def _permut(a1, a2, lo, hi, line=0):
    for a in (a1, a2):
        if lo < 0 or hi >= len(a) or lo > hi + 1:
            raise ExecutionFault(
                f"Permut range [{lo}..{hi}] invalid for array of length {len(a)}", line)
    if lo > hi:
        return True
    return sorted(a1[lo:hi + 1]) == sorted(a2[lo:hi + 1])


def check_permut(a1, a2, lo: int, hi: int) -> bool:
    """Multiset equality of a1[lo..hi] and a2[lo..hi]; empty ranges are equal."""
    return _permut(list(a1), list(a2), lo, hi)


# quantifier compilation: split conjunctions, derive per-binder integer
# bounds from the guard conjuncts, enumerate the resulting boxes

def _compile_forall(binders, body, ctx: CompileCtx, state: str):
    """Compile `\\forall binders; guards ==> consequent` into one range loop
    per binder, outermost first, as the module docstring describes.

    A guard that gave a bound holds of every k in range(lo, hi + 1) by
    construction (k <= hi <= e, or k <= hi <= e - 1 < e), so the body tests
    only the residual guards. Annotations cannot contain method calls (the
    typechecker rejects them), so bound expressions are pure: evaluating
    them once per level gives the values every instance would see.
    """
    if isinstance(body, S.Binary) and body.op == "&&":
        return _all(tuple(_compile_forall(binders, part, ctx, state)
                          for part in S.chain(body, "&&")))
    if isinstance(body, S.Forall):
        return _compile_forall(list(binders) + list(body.binders), body.body, ctx, state)

    names = [b[0] for b in binders]
    for _, bty in binders:
        if bty != S.INT:
            return _unbounded(f"cannot enumerate a quantifier over {bty}")
    if not (isinstance(body, S.Binary) and body.op == "==>"):
        return _unbounded("quantifier body gives no bounds (no guard implication)")

    guards = S.chain(body.left, "&&")
    cells = {name: [0] for name in names}
    # the body's closures read this compile's binder cells: it gets a memo of its own
    inner_ctx = CompileCtx(ctx.slots, ctx.mode, S.Memo(), ctx.cunit,
                           {**ctx.binders, **cells}, ctx.var_types)
    consumed = set()
    boxes = []
    for i, name in enumerate(names):
        later = set(names[i:])
        lowers = []
        uppers = []
        for j, g in enumerate(guards):
            got = S.bound_from(g, name)
            if got is None:
                continue
            kind, expr_side, delta = got
            if _mentions(expr_side, later):
                continue
            try:
                bound = _bound(expr_side, delta, inner_ctx, state)
            except EvalError:
                continue
            (lowers if kind == "lo" else uppers).append(bound)
            consumed.add(j)
        if not lowers or not uppers:
            return _unbounded(f"no finite bounds for quantified variable {name!r}")
        boxes.append(_box(lowers, uppers))

    residual = [g for j, g in enumerate(guards) if j not in consumed]
    try:
        level = None if residual else _slice_scan(names[-1], boxes[-1], body.right,
                                                  inner_ctx, state)
        if level is None:
            test = replace(body, left=S.conj(residual)) if residual else body.right
            level = _enumerate(cells[names[-1]], boxes[-1],
                               compile_expr(test, inner_ctx, state))
    except EvalError as ex:
        return _unbounded(str(ex))
    for name, box in zip(reversed(names[:-1]), reversed(boxes[:-1])):
        level = _enumerate(cells[name], box, level)
    return level


def _bound(e: S.Expr, delta: int, ctx: CompileCtx, state: str):
    """A binder's bound e + delta as (kind, x, delta), x an operand; an
    integer `leaf + c` or `leaf - c` reads the leaf and adds c to delta."""
    if (isinstance(e, S.Binary) and e.op in ("+", "-") and e.ty == S.INT
            and isinstance(e.right, S.IntLit)):
        leaf = _leaf(e.left, ctx, state)
        if leaf is not None:
            c = e.right.value
            return (*leaf, delta + c if e.op == "+" else delta - c)
    return (*_operand(e, ctx, state), delta)


def _box(lowers, uppers):
    """f -> (lo, hi): one binder's range from its bounds (see _bound). A
    lone lower and upper bound are read in place."""
    if len(lowers) == 1 and len(uppers) == 1:
        [(lk, lo_x, lo_d)] = lowers
        [(hk, hi_x, hi_d)] = uppers

        def box(f):
            lo = (f.cur[lo_x] if lk is _SLOT else lo_x[0] if lk is _CELL
                  else lo_x(f)) + lo_d
            hi = (f.cur[hi_x] if hk is _SLOT else hi_x[0] if hk is _CELL
                  else hi_x(f)) + hi_d
            if not isinstance(lo, int) or not isinstance(hi, int):
                raise EvalError("quantifier bounds are not ground integers")
            return lo, hi
        return box
    lowers = [(_reader(k, x), d) for k, x, d in lowers]
    uppers = [(_reader(k, x), d) for k, x, d in uppers]

    def box(f):
        lo = max(fn(f) + d for fn, d in lowers)
        hi = min(fn(f) + d for fn, d in uppers)
        if not isinstance(lo, int) or not isinstance(hi, int):
            raise EvalError("quantifier bounds are not ground integers")
        return lo, hi
    return box


def _enumerate(cell, box, inner):
    """f -> whether inner holds with the binder's cell at every k in range."""
    def level(f):
        lo, hi = box(f)
        for k in range(lo, hi + 1):
            cell[0] = k
            if not inner(f):
                return False
        return True
    return level


def _slice_scan(name, box, cons, ctx: CompileCtx, state: str):
    """The innermost level of a consequent `a[k] op e` or `e op a[k]` (k the
    binder `name`, mentioned by neither a nor e) as one pass over the
    slice of a, or None for any other consequent.

    a and e are evaluated once, in the consequent's order, and only if the
    range is not empty. The result is the one the per-k loop gives: if the
    first index is out of range, its fault comes before e is evaluated
    (for `a[k] op e`) or after (for `e op a[k]`); otherwise False if an
    in-range element fails, else the fault at index len(a) when the range
    runs past the end of a.
    """
    if not (isinstance(cons, S.Binary) and cons.op in S.COMPARE):
        return None
    for read, other, read_first in ((cons.left, cons.right, True),
                                    (cons.right, cons.left, False)):
        if (isinstance(read, S.Index) and isinstance(read.index, S.Var)
                and read.index.name == name
                and not _mentions(read.array, {name}) and not _mentions(other, {name})):
            break
    else:
        return None
    op = S.COMPARE[cons.op]
    if read_first:
        ak, arr = _operand(read.array, ctx, state)
        vk, val = _operand(other, ctx, state)
    else:
        vk, val = _operand(other, ctx, state)
        ak, arr = _operand(read.array, ctx, state)
    line = read.pos[0]

    def scan(f):
        lo, hi = box(f)
        if lo > hi:
            return True
        cur = f.cur
        if not read_first:
            v = cur[val] if vk is _SLOT else val[0] if vk is _CELL else val(f)
        a = cur[arr] if ak is _SLOT else arr(f)
        n = len(a)
        if not 0 <= lo < n:
            raise _bounds_fault(lo, n, line)
        if read_first:
            v = cur[val] if vk is _SLOT else val[0] if vk is _CELL else val(f)
            ok = all(map(op, a[lo:hi + 1], repeat(v)))
        else:
            ok = all(map(op, repeat(v), a[lo:hi + 1]))
        if ok and hi >= n:
            raise _bounds_fault(n, n, line)
        return ok
    return scan


def _mentions(e, names):
    return any(isinstance(n, S.Var) and n.name in names for n in S.walk(e))


def _unbounded(reason):
    def fail(_f):
        raise EvalError(f"non-ground quantifier: {reason}")
    return fail


# ---------------------------------------------------------------------------
# statement compiler and method execution

class CompiledMethod:
    def __init__(self, decl: S.MethodDecl, mode: str):
        self.decl = decl
        self.name = decl.name
        self.mode = mode
        self.slot_names: list[str] = []
        self.slots: dict[str, int] = {}
        self.body_fn = None
        self.requires_fn = None
        self.ensures_fn = None
        self.behaviour_fns = []       # (name, assumes_fn(old), ensures_fn)
        self.param_slots = []

    def slot(self, name):
        if name not in self.slots:
            self.slots[name] = len(self.slot_names)
            self.slot_names.append(name)
        return self.slots[name]

    def state_dict(self, slots):
        return {n: (list(v) if isinstance(v, list) else v)
                for n, v in zip(self.slot_names, slots) if v is not None}

    def witness(self, frame):
        return {n: value_repr(v)
                for n, v in zip(self.slot_names, frame.cur) if v is not None}

    def check(self, frame, kind, fn, line, label=""):
        K = frame.K
        ok = fn(frame)
        if ok:
            K.passed += 1
            if K.collect_events:
                K.events.append(CheckEvent(kind=kind, method=self.name, line=line,
                                           verdict="pass", label=label))
            return
        w = self.witness(frame)
        K.events.append(CheckEvent(kind=kind, method=self.name, line=line,
                                   verdict="fail", label=label, witness=w))
        raise ContractViolation(kind, self.name, line, w)

    def invoke(self, args, K: Kernel):
        K.depth += 1
        if K.depth > K.max_depth:
            K.depth -= 1
            raise ExecutionFault(f"call depth limit {K.max_depth} exceeded")
        try:
            frame = Frame([None] * len(self.slot_names), K)
            for i, a in zip(self.param_slots, args):
                frame.cur[i] = list(a) if isinstance(a, list) else a
            frame.old = _snapshot_slots(frame.cur)
            if K.tracing:
                K.trace.append(TraceSnapshot(kind="entry", method=self.name,
                                             state=self.state_dict(frame.cur)))
            self.check(frame, "requires", self.requires_fn, self.decl.pos[0])
            sig = self.body_fn(frame)
            ret = frame.res if sig is RET else None
            if K.tracing:
                K.trace.append(TraceSnapshot(kind="exit", method=self.name,
                                             state=self.state_dict(frame.cur),
                                             result=ret))
            line = self.decl.pos[0]
            self.check(frame, "ensures", self.ensures_fn, line)
            for bname, assumes_fn, ens_fn in self.behaviour_fns:
                if assumes_fn(frame):
                    self.check(frame, "behaviour-ensures", ens_fn, line, label=bname)
            return ret
        finally:
            K.depth -= 1


class CompiledUnit:
    def __init__(self, tunit: TypedUnit, mode: str):
        self.tunit = tunit
        self.mode = mode
        self.methods: dict[str, CompiledMethod] = {}
        for m in tunit.unit.methods:
            self.methods[m.name] = CompiledMethod(m, mode)
        for m in tunit.unit.methods:
            _MethodCompiler(self, self.methods[m.name]).build()


class _MethodCompiler:
    def __init__(self, cunit: CompiledUnit, cm: CompiledMethod):
        self.cunit = cunit
        self.cm = cm
        self.mode = cm.mode

    def build(self):
        cm = self.cm
        decl = cm.decl
        for name, _ty in decl.params:
            cm.param_slots.append(cm.slot(name))
        # declare every local up front: slots are function-scoped
        for n in S.walk(decl.body):
            if isinstance(n, S.VarDecl):
                cm.slot(n.name)
        self.loops = loop_table(decl)
        self.ctx = CompileCtx(cm.slots, self.mode, S.Memo(), self.cunit)
        cm.body_fn = self.stmt(decl.body)
        cm.requires_fn = compile_expr(decl.spec.requires, self.ctx)
        cm.ensures_fn = compile_expr(decl.spec.ensures, self.ctx)
        for b in decl.spec.behaviours:
            cm.behaviour_fns.append((
                b.name,
                compile_expr(b.assumes, self.ctx, state="old"),
                compile_expr(b.ensures, self.ctx)))

    def stmt(self, st: S.Stmt):
        cm = self.cm
        if isinstance(st, S.Block):
            fns = tuple(self.stmt(s) for s in st.stmts)
            if len(fns) == 1:
                return fns[0]

            def block(f):
                for fn in fns:
                    if fn(f) is RET:
                        return RET
                return None
            return block
        if isinstance(st, S.VarDecl):
            i = cm.slots[st.name]
            if st.init is None:
                def clear(f):
                    f.cur[i] = None
                return clear
            e = compile_expr(st.init, self.ctx)

            def decl(f):
                f.cur[i] = e(f)
            return decl
        if isinstance(st, S.Assign):
            i = cm.slots[st.name]
            e = compile_expr(st.expr, self.ctx)

            def assign(f):
                f.cur[i] = e(f)
            return assign
        if isinstance(st, S.ArrayAssign):
            i = cm.slots[st.name]
            idx = compile_expr(st.index, self.ctx)
            val = compile_expr(st.expr, self.ctx)
            line = st.pos[0]

            def astore(f):
                a = f.cur[i]
                k = idx(f)
                if not (0 <= k < len(a)):
                    raise _bounds_fault(k, len(a), line)
                a[k] = val(f)
            return astore
        if isinstance(st, S.If):
            cond = compile_expr(st.cond, self.ctx)
            then = self.stmt(st.then)
            orelse = self.stmt(st.orelse) if st.orelse is not None else None

            def iff(f):
                if cond(f):
                    return then(f)
                if orelse is not None:
                    return orelse(f)
                return None
            return iff
        if isinstance(st, S.While):
            return self.loop(st, first_body=None)
        if isinstance(st, S.DoWhile):
            body = self.stmt(st.body)
            return self.loop(st, first_body=body)
        if isinstance(st, S.Return):
            if st.expr is None:
                def retvoid(f):
                    f.res = None
                    return RET
                return retvoid
            e = compile_expr(st.expr, self.ctx)

            def ret(f):
                f.res = e(f)
                return RET
            return ret
        if isinstance(st, S.AssertStmt):
            fn = compile_expr(st.formula, self.ctx)
            line = st.pos[0]

            def check_assert(f):
                cm.check(f, "assert", fn, line)
            return check_assert
        raise TypeError(f"cannot compile {type(st).__name__}")

    def loop(self, st, first_body):
        cm = self.cm
        loop_id = self.loops.get(st)
        cond = compile_expr(st.cond, self.ctx)
        body = self.stmt(st.body)
        inv = compile_expr(st.annot.invariant, self.ctx)
        variant = (compile_expr(st.annot.variant, self.ctx)
                   if st.annot.variant is not None else None)
        needs_le = mentions_loopentry(st.annot.invariant)
        line = st.pos[0]

        def run(f):
            K = f.K
            if first_body is not None:
                if first_body(f) is RET:
                    return RET
            it = 0
            outer = f.loopentry     # an enclosing loop's, restored on exit
            if needs_le:
                f.loopentry = _snapshot_slots(f.cur)
            if K.tracing:
                K.trace.append(TraceSnapshot(
                    kind="loop-head", method=cm.name, loop_id=loop_id,
                    iteration=it, state=cm.state_dict(f.cur)))
            cm.check(f, "invariant-entry", inv, line)
            while cond(f):
                K.steps += 1
                if K.steps > K.max_steps:
                    raise ExecutionFault(
                        f"loop step limit {K.max_steps} exceeded", line)
                if variant is not None:
                    v0 = variant(f)
                    cm.check(f, "variant-nonneg", lambda fr: v0 >= 0, line)
                if needs_le:
                    f.loopentry = _snapshot_slots(f.cur)
                if body(f) is RET:
                    return RET
                it += 1
                if K.tracing:
                    K.trace.append(TraceSnapshot(
                        kind="loop-head", method=cm.name, loop_id=loop_id,
                        iteration=it, state=cm.state_dict(f.cur)))
                cm.check(f, "invariant-preserved", inv, line)
                if variant is not None:
                    v1 = variant(f)
                    cm.check(f, "variant-decrease", lambda fr: v1 < v0, line)
            f.loopentry = outer
            return None
        return run


def compile_unit(tunit: TypedUnit, mode: str) -> CompiledUnit:
    cache = tunit._compiled
    if mode not in cache:
        try:
            cache[mode] = CompiledUnit(tunit, mode)
        except RecursionError:
            raise ExecutionFault("nesting too deep to compile") from None
    return cache[mode]


# ---------------------------------------------------------------------------
# public operations

def exec_method(tunit: TypedUnit, method: str, args, mode: str = RATIONAL, *,
                collect_events: bool = False, trace: bool = False,
                max_depth: int = 10_000,
                max_loop_steps: int = 1_000_000) -> ExecutionOutcome:
    """Run a method with full contract checking.

    status is 'normal' (all checks pass), 'contract-violation' (the report's
    last event says which clause and carries a witness state), or
    'runtime-error' (division by zero, bounds, overflow, limits).
    """
    cu = compile_unit(tunit, mode)
    if method not in cu.methods:
        raise ExecutionFault(f"unknown method {method!r}")
    cm = cu.methods[method]
    if len(args) != len(cm.decl.params):
        raise ExecutionFault(f"{method!r} expects {len(cm.decl.params)} arguments")
    vals = [coerce_arg(a, ty, mode) for a, (_, ty) in zip(args, cm.decl.params)]
    K = Kernel(collect_events, trace, max_loop_steps, max_depth)
    outcome = ExecutionOutcome(status="normal", method=method, mode=mode,
                               unit_digest=unit_digest(tunit))
    try:
        outcome.return_value = cm.invoke(vals, K)
    except ContractViolation as cv:
        outcome.status = "contract-violation"
        outcome.error = str(cv)
    except (ExecutionFault, EvalError) as ex:
        outcome.status = "runtime-error"
        outcome.error = str(ex)
    except RecursionError:
        # each call takes several Python frames, so deep recursion can use
        # up Python's stack before it reaches max_depth
        outcome.status = "runtime-error"
        outcome.error = ("Python stack exhausted before the call depth limit "
                         f"{max_depth}")
    outcome.report = K.events
    outcome.trace = K.trace
    outcome.checks_passed = K.passed
    return outcome


def unit_digest(tunit: TypedUnit) -> str:
    if not tunit._digest:
        # imported where a unit's digest is first computed, not with this
        # module: loading hashlib's OpenSSL backend takes about 3 ms of
        # every process's start
        import hashlib
        tunit._digest = hashlib.sha256(pretty_print(tunit.source).encode()).hexdigest()[:16]
    return tunit._digest


_TOO_DEEP = "formula nesting too deep to compile"
_FAULTS = (EvalError, ExecutionFault)
_ABSENT = object()          # a name missing from a state dict


class CompiledTests:
    """The tests of one group of obligations, compiled together for each
    (mode, state layout) they are evaluated in and evaluated a bundle at a
    time (see the module docstring).

    Each test is split at its `==>` chain into antecedents and a
    consequent, as the compiler splits the chain, and every part is
    compiled under one memo per (mode, layout). The tests that read no name
    at two types form a bind class, bound to one frame per bundle; each
    class keeps its tests in one prefix trie of antecedent closures (see
    _Class). A test that fails to compile ends with its EvalError on the
    first bundle of that layout that reaches it, and no other test is
    affected. The tries live as long as this object; which tests have
    ended, and every value computed on a bundle, live in the evaluation's
    BindCache and frame.
    """

    __slots__ = ("tests", "_tries")

    def __init__(self, tests):
        self.tests = tuple(tests)
        self._tries = []            # one _Trie per (mode, layout) met

    def _evaluate(self, states: dict, mode: str, cache) -> list:
        here, old, le = _labels(states)
        # the layout is Here's names when they hold Old's, as they mostly do
        names = here.keys()
        if le is not None or old is not None and not names >= old.keys():
            names = set(names).union(old or (), le or ())
        for trie in self._tries:
            if trie.names == names and trie.mode == mode:
                break
        else:
            trie = _Trie(self.tests, frozenset(names), mode)
            self._tries.append(trie)
        alive = cache.get(self)     # whether each test is still live
        if alive is None:
            alive = cache.put(self, [True] * len(self.tests))
        ended = []
        for t, ex in trie.errors:
            _end(alive, ended, (t,), ex)
        for cls in trie.classes:
            cls.evaluate(here, old, le, cache, alive, ended)
        return ended


def _end(alive, ended, tests, outcome):
    """End each live test of tests with outcome, False or a fault."""
    for t in tests:
        if alive[t]:
            alive[t] = False
            ended.append((t, outcome))


class _Trie:
    """The tests of a CompiledTests compiled for one (mode, layout): the
    compile errors as (test, EvalError), and the bind classes."""

    __slots__ = ("names", "mode", "errors", "classes")

    def __init__(self, tests, names, mode):
        self.names, self.mode = names, mode
        slots = {n: i for i, n in enumerate(sorted(names))}
        memo = S.Memo()
        self.errors = []
        classes = []                # (types read, [(test, antecedents, consequent, reads)])
        for t, f in enumerate(tests):
            ctx = CompileCtx(slots, mode, memo)
            antecedents, consequent = _split_implication(f)
            try:
                antecedents = tuple(compile_expr(a, ctx) for a in antecedents)
                consequent = compile_expr(consequent, ctx)
            except EvalError as ex:
                # the trie outlives the compile, so it keeps none of its frames
                self.errors.append((t, ex.with_traceback(None)))
                continue
            except RecursionError:
                self.errors.append((t, EvalError(_TOO_DEEP)))
                continue
            reads = ctx.var_types
            for types, members in classes:
                if all(types.get(n, ty) == ty for n, ty in reads.items()):
                    break
            else:
                types, members = {}, []
                classes.append((types, members))
            types.update(reads)
            members.append((t, antecedents, consequent, reads))
        self.classes = [_Class(types, members, slots, mode)
                        for types, members in classes]


class _WalkFrame(Frame):
    """The frame of one trie walk, with the walk's table of the values of
    the closures read through _tabled."""

    __slots__ = ("table",)


def _tabled(p):
    """p read through the walk's table, f.table: its value on the bundle
    is computed by the first edge that reaches it and read by every later
    one. A fault stores nothing, so each edge that reaches p raises it."""
    def read(f):
        table = f.table
        v = table.get(p, table)         # the table is never a value
        if v is table:
            v = table[p] = p(f)
        return v
    return read


def _compress(b, tabled):
    """The compressed node of the uncompressed node b: (the run of
    closures on the edge into it, the tests whose chain ends there as
    (consequent, tests), its children in reverse order, every test under
    it). A node with one child and no test ending at it is merged into
    that child's run."""
    run = [] if b[0] is None else [b[0]]
    while len(b[1]) == 1 and not b[2]:
        (b,) = b[1].values()
        run.append(b[0])
    ends = tuple((c, tuple(ts)) for c, ts in b[2].items())
    children = [_compress(c, tabled) for c in b[1].values()]
    tests = tuple(t for _, ts in ends for t in ts) + tuple(
        t for c in children for t in c[3])
    return (tuple(tabled.get(a, a) for a in run), ends,
            tuple(reversed(children)), tests)


class _Class:
    """One bind class of a trie. Every name of the layout has a slot; a
    name some test reads is coerced to the type it is read at, any other
    is bound as recorded. The tests' chains form one prefix trie keyed by
    closure (a memo gives shared nodes one closure), compressed into runs
    (see _compress). A closure on more than one edge is read through the
    walk's table, so it runs once per bundle; a fault is never stored, so
    each edge that reaches a faulting closure raises it."""

    __slots__ = ("mode", "width", "types", "reads", "root")

    def __init__(self, types, members, slots, mode):
        self.mode = mode
        self.width = len(slots)
        # name -> (slot, type read or None, whether an int coerces to itself)
        self.types = {}
        for n, i in slots.items():
            ty = types.get(n)
            self.types[n] = (i, ty, ty is not None and (
                ty.kind == "int" or ty.kind == "real" and mode == RATIONAL))
        self.reads = [(t, frozenset(reads)) for t, _, _, reads in members]
        # uncompressed: [closure, children by closure, tests by consequent]
        root = [None, {}, {}]
        edges = {}
        for t, antecedents, consequent, _ in members:
            node = root
            for a in antecedents:
                child = node[1].get(a)
                if child is None:
                    child = node[1][a] = [a, {}, {}]
                    edges[a] = edges.get(a, 0) + 1
                node = child
            node[2].setdefault(consequent, []).append(t)
        tabled = {a: _tabled(a) for a, n in edges.items() if n > 1}
        self.root = _compress(root, tabled)

    def evaluate(self, here, old, le, cache, alive, ended):
        """Walk the trie once on the bundle, ending each live test that
        the bundle falsifies or that faults. A node with no live test
        under it is skipped."""
        live = alive.__getitem__
        if not any(map(live, self.root[3])):
            return
        f, faults = self._frame(here, old, le, cache)
        if faults:
            for t, reads in self.reads:
                if alive[t]:
                    for name, ex in faults:
                        if name in reads:
                            _end(alive, ended, (t,), ex)
                            break
        todo = [self.root]
        while todo:
            antecedents, ends, down, tests = todo.pop()
            if not any(map(live, tests)):
                continue
            try:
                for p in antecedents:
                    if not p(f):
                        break
                else:
                    p = None
            except _FAULTS as ex:
                _end(alive, ended, tests, ex)
                continue
            if p is not None:
                continue            # every test under the node holds vacuously
            for c, ts in ends:
                if not any(map(live, ts)):
                    continue
                try:
                    if c(f):
                        continue
                    outcome = False
                except _FAULTS as ex:
                    outcome = ex
                _end(alive, ended, ts, outcome)
            todo += down

    def _frame(self, here, old, le, cache):
        """The bundle's frame, with an empty table, and the coercion
        faults of the names read, (name, fault) in binding order:
        Here's, Old's, then LoopEntry's, each in its dict's order. Old and
        LoopEntry are bound once per cache; Here starts as a copy of Old's
        slot list, and only a name whose value is not Old's very object is
        bound again."""
        old_slots, old_faults = self._bound(old, cache)
        le_slots, le_faults = self._bound(le, cache)
        if here is old:
            cur, faults = old_slots, old_faults
        else:
            base = None if old is None else (old, old_slots, old_faults)
            cur, faults = self._bind(here, cache, base)
        f = _WalkFrame(cur, None)
        f.old, f.loopentry, f.table = old_slots, le_slots, {}
        if old_faults or le_faults:
            faults = [*faults, *old_faults, *le_faults]
        return f, faults

    def _bound(self, d, cache):
        """d's slot list and coercion faults, bound once per cache."""
        if d is None:
            return None, ()
        hit = cache.get(d, self)
        if hit is None:
            hit = cache.put(d, self._bind(d, cache), self)
        return hit

    def _bind(self, d, cache, base=None):
        """d's slot list and coercion faults (see _frame). base, when
        given, is (a state dict, its slot list, its faults): a name whose
        value is the base's very object keeps the base's slot and fault."""
        old, failed = {}, None
        if base is None:
            out = [None] * self.width
        else:
            old, out, failed = base[0], list(base[1]), dict(base[2])
        faults = []
        types, mode, coerce = self.types, self.mode, cache.coerce
        shared = 0
        for n, v in d.items():
            w = old.get(n, _ABSENT)
            if w is not _ABSENT:
                shared += 1
                if v is w:
                    if failed and n in failed:
                        faults.append((n, failed[n]))
                    continue
            i, ty, same_int = types[n]
            if ty is None or same_int and type(v) is int:
                out[i] = v
                continue
            try:
                out[i] = coerce(v, ty, mode)
            except _FAULTS as ex:
                out[i] = None
                faults.append((n, ex))
        if shared != len(old):
            for n in old:
                if n not in d:
                    out[types[n][0]] = None
        return out, faults


class BindCache(S.Memo):
    """What the evaluations of one batch of state bundles share; trace
    validation makes one per call and drops it when the call returns, and
    eval_formula makes one per call when given none.

    The table keeps each value coerced to a type in a mode, so each value
    is coerced once per type; per bind class of a CompiledTests, the slot
    list and coercion faults of each Old and LoopEntry state dict; and per
    CompiledTests, which of its tests have ended. The state dicts must not
    change while the cache lives; formulas never change a slot list or a
    value in it (a store copies its array).
    """

    __slots__ = ()

    def coerce(self, v, ty, mode):
        key = (ty.kind, ty.elem, mode)
        hit = self.get(v, key)
        return self.put(v, coerce_arg(v, ty, mode), key) if hit is None else hit


def _labels(states: dict):
    """(Here, Old, LoopEntry) of a bundle, None for a label it lacks."""
    here = states.get("Here")
    if here is None:
        raise EvalError("state bundle must contain 'Here'")
    return here, states.get("Old", states.get("Pre")), states.get("LoopEntry")


def eval_formula(f, states: dict, mode: str = RATIONAL, *,
                 cache: BindCache = None):
    """Evaluate a typed two-state formula against labeled state snapshots.

    f is a CompiledTests or an S.Expr. states maps labels ('Here'
    required; 'Old'/'Pre', 'LoopEntry' optional) to name->value dicts.
    Bounded integer quantifiers are enumerated; a quantifier without
    derivable finite bounds raises EvalError. The states are bound through
    `cache` (see BindCache), so they must not change while it lives;
    without one the call binds through a fresh cache of its own.

    For a CompiledTests the call evaluates each of its tests that has not
    ended through `cache`, on this one bundle, and returns the tests that
    end on it as (index, outcome) pairs: outcome is False for a test the
    bundle falsifies, or the EvalError or ExecutionFault that ends it in
    compiling, binding or evaluating. A test that holds is not listed and
    stays live.

    An S.Expr is evaluated as a CompiledTests of that one test, compiled
    for the bundle's layout: the call returns True when the test holds,
    False when the bundle falsifies it, and raises the fault that ends it.
    """
    cache = BindCache() if cache is None else cache
    if isinstance(f, CompiledTests):
        return f._evaluate(states, mode, cache)
    for _, outcome in CompiledTests((f,))._evaluate(states, mode, cache):
        if outcome is False:
            return False
        raise outcome
    return True
