"""Deterministic evaluator with runtime contract checking.

Methods are compiled once per (unit, mode) into Python closures over a flat
slot array; exec_method then runs the compiled form with requires/ensures,
loop invariant/variant, behaviour and assert checks exactly where the
semantics places them. The same expression compiler backs eval_formula, so
runtime checks, trace validation and the prover's counterexample verifier
share one semantics.

A standalone formula compiles into a CompiledFormula with a fixed slot
layout, which eval_formula evaluates against any state bundle of that
layout. Formulas of one layout and mode may share a compile memo, so that a
node object they have in common (a hypothesis that recurs in every
obligation of a method) becomes one closure that each of them calls.
Nothing here retains compiled formulas or memos: their owner is the
caller, and they live as long as it holds them. Trace validation keeps
them with the obligations they test: each ObligationSet owns one memo per
(mode, layout), and each obligation's trace plan owns its compiled tests
under the same key. They die with the set and its obligations, and an
obligation edited in place drops its tests with its old plan. Closure
trees are large next to the formulas they come from, so no module-level
cache holds them.

Binding a state coerces each value a formula reads to its variable's
type. A BindCache, passed to eval_formula, shares that work among the
evaluations of one batch of states: each (value, type) is coerced once,
and each (state dict, read signature) is bound to one slot list, which
every formula with that signature reads. Its keys name objects by id(),
and each entry holds the objects its key names. Trace validation makes
one cache per call and drops it when the call returns; without a cache,
every evaluation binds afresh.

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
from .typecheck import TypedUnit
from .values import (BINARY64, RATIONAL, check_finite, coerce_arg,
                     norm_rational, value_repr)

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
    """Per-execution context: mode flags, counters, event/trace sinks."""

    __slots__ = ("mode", "collect_events", "tracing", "events", "trace",
                 "passed", "steps", "max_steps", "depth", "max_depth")

    def __init__(self, mode, collect_events, tracing, max_steps, max_depth):
        self.mode = mode
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
    __slots__ = ("cur", "old", "res", "loopentry", "K", "method")

    def __init__(self, cur, K, method):
        self.cur = cur
        self.old = None
        self.res = None
        self.loopentry = None
        self.K = K
        self.method = method


def _snapshot_slots(slots):
    return [list(v) if isinstance(v, list) else v for v in slots]


# ---------------------------------------------------------------------------
# loop numbering shared with vcgen

def loop_table(method: S.MethodDecl) -> dict:
    """id(loop node) -> stable loop index, in pre-order over the body."""
    table = {}

    def visit(st):
        if isinstance(st, S.Block):
            for s in st.stmts:
                visit(s)
        elif isinstance(st, S.If):
            visit(st.then)
            if st.orelse is not None:
                visit(st.orelse)
        elif isinstance(st, (S.While, S.DoWhile)):
            table[id(st)] = len(table)
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
    def __init__(self, slots, mode, cunit=None, binders=None, var_types=None,
                 memo=None):
        self.slots = slots                  # name -> slot index
        self.mode = mode
        self.cunit = cunit                  # CompiledUnit, for calls and \result
        self.binders = binders or {}        # name -> cell (1-element list)
        self.var_types = {} if var_types is None else var_types   # slot read -> type
        # (id(node), state) -> (node, closure, the subtree's var_types or None),
        # and a read set's sorted items (() when empty) -> the one dict that
        # its entries share, and the read signature of its formulas
        self.memo = memo


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

    With a memo in ctx, a node object met again in the same state reuses
    its closure and re-records the variable types its subtree reads, so
    ctx.var_types ends as an unmemoised compile leaves it. The entry holds
    the node, so its id cannot be reused while the memo lives."""
    memo = ctx.memo
    if memo is None:
        return _compile(e, ctx, state)
    key = (id(e), state)
    hit = memo.get(key)
    if hit is not None:
        if hit[2]:
            ctx.var_types.update(hit[2])
        return hit[1]
    outer = ctx.var_types
    ctx.var_types = reads = {}
    try:
        fn = _compile(e, ctx, state)
    finally:
        ctx.var_types = outer
        outer.update(reads)
    if reads:       # entries that read the same variables share one read set
        reads = memo.setdefault(tuple(sorted(reads.items())), reads)
    memo[key] = (e, fn, reads or None)
    return fn


def _compile(e: S.Expr, ctx: CompileCtx, state: str):
    mode = ctx.mode
    if isinstance(e, S.Var):
        cell = ctx.binders.get(e.name)
        if cell is not None:
            return lambda f: cell[0]
        try:
            i = ctx.slots[e.name]
        except KeyError:
            raise EvalError(f"unbound variable {e.name!r}") from None
        if e.ty is not None:
            ctx.var_types[e.name] = e.ty
        if state == "cur":
            return lambda f: f.cur[i]
        if state == "old":
            return lambda f: _state_list(f, "old")[i]
        return lambda f: _state_list(f, "le")[i]
    if isinstance(e, S.FreshVar):
        try:
            i = ctx.slots[e.name]
        except KeyError:
            raise EvalError(f"unbound havoc symbol {e.name!r}") from None
        if e.ty is not None:
            ctx.var_types[e.name] = e.ty
        return lambda f: f.cur[i]
    if isinstance(e, S.IntLit):
        c = e.value
        return lambda f: c
    if isinstance(e, S.RealLit):
        c = norm_rational(e.value) if mode == RATIONAL else float(e.text)
        return lambda f: c
    if isinstance(e, S.BoolLit):
        c = e.value
        return lambda f: c
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
        arr = compile_expr(e.array, ctx, state)
        idx = compile_expr(e.index, ctx, state)
        line = e.pos[0]

        def read(f):
            a = arr(f)
            i = idx(f)
            if 0 <= i < len(a):
                return a[i]
            raise ExecutionFault(f"array index {i} out of bounds 0..{len(a) - 1}", line)
        return read
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
                raise ExecutionFault(f"array index {i} out of bounds 0..{len(a) - 1}", line)
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


def _compile_binary(e: S.Binary, ctx: CompileCtx, state: str):
    op = e.op
    if op == "&&":
        l = compile_expr(e.left, ctx, state)
        r = compile_expr(e.right, ctx, state)
        return lambda f: l(f) and r(f)
    if op == "||":
        l = compile_expr(e.left, ctx, state)
        r = compile_expr(e.right, ctx, state)
        return lambda f: l(f) or r(f)
    if op == "==>":
        l = compile_expr(e.left, ctx, state)
        r = compile_expr(e.right, ctx, state)
        return lambda f: (not l(f)) or r(f)
    l = compile_expr(e.left, ctx, state)
    r = compile_expr(e.right, ctx, state)
    if op == "==":
        return lambda f: l(f) == r(f)
    if op == "!=":
        return lambda f: l(f) != r(f)
    if op == "<":
        return lambda f: l(f) < r(f)
    if op == "<=":
        return lambda f: l(f) <= r(f)
    if op == ">":
        return lambda f: l(f) > r(f)
    if op == ">=":
        return lambda f: l(f) >= r(f)
    line = e.pos[0]
    real64 = ctx.mode == BINARY64 and e.ty == S.REAL
    if op == "+":
        if real64:
            return lambda f: check_finite(l(f) + r(f), line)
        return lambda f: l(f) + r(f)
    if op == "-":
        if real64:
            return lambda f: check_finite(l(f) - r(f), line)
        return lambda f: l(f) - r(f)
    if op == "*":
        if real64:
            return lambda f: check_finite(l(f) * r(f), line)
        return lambda f: l(f) * r(f)
    if op == "/":
        if ctx.mode == BINARY64:
            def div64(f):
                d = r(f)
                if d == 0.0:
                    raise ExecutionFault("division by zero", line)
                return check_finite(l(f) / d, line)
            return div64

        def divq(f):
            d = r(f)
            if d == 0:
                raise ExecutionFault("division by zero", line)
            n = l(f)
            if type(n) is int and type(d) is int:
                q = Fraction(n, d)
            else:
                q = n / d
            return q.numerator if q.denominator == 1 else q
        return divq
    raise EvalError(f"cannot evaluate operator {op!r}")


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
        l = _compile_forall(binders, body.left, ctx, state)
        r = _compile_forall(binders, body.right, ctx, state)
        return lambda f: l(f) and r(f)
    if isinstance(body, S.Forall):
        return _compile_forall(list(binders) + list(body.binders), body.body, ctx, state)

    names = [b[0] for b in binders]
    for _, bty in binders:
        if bty != S.INT:
            return _unbounded(f"cannot enumerate a quantifier over {bty}")
    if not (isinstance(body, S.Binary) and body.op == "==>"):
        return _unbounded("quantifier body gives no bounds (no guard implication)")

    guards = S.conjuncts(body.left)
    cells = {name: [0] for name in names}
    # the body's closures read this compile's binder cells: it gets a memo of its own
    inner_ctx = CompileCtx(ctx.slots, ctx.mode, ctx.cunit, {**ctx.binders, **cells},
                           ctx.var_types, None if ctx.memo is None else {})
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
                fn = compile_expr(expr_side, inner_ctx, state)
            except EvalError:
                continue
            (lowers if kind == "lo" else uppers).append((fn, delta))
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


def _box(lowers, uppers):
    """f -> (lo, hi): one binder's range from its (bound, delta) lists."""
    if len(lowers) == 1 and len(uppers) == 1:
        [(lo_fn, lo_d)] = lowers
        [(hi_fn, hi_d)] = uppers

        def box(f):
            lo = lo_fn(f)
            if lo_d:
                lo += lo_d
            hi = hi_fn(f)
            if hi_d:
                hi += hi_d
            if not isinstance(lo, int) or not isinstance(hi, int):
                raise EvalError("quantifier bounds are not ground integers")
            return lo, hi
        return box

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
        arr = compile_expr(read.array, ctx, state)
        val = compile_expr(other, ctx, state)
    else:
        val = compile_expr(other, ctx, state)
        arr = compile_expr(read.array, ctx, state)
    line = read.pos[0]

    def scan(f):
        lo, hi = box(f)
        if lo > hi:
            return True
        v = None if read_first else val(f)
        a = arr(f)
        n = len(a)
        if not 0 <= lo < n:
            raise ExecutionFault(f"array index {lo} out of bounds 0..{n - 1}", line)
        if read_first:
            v = val(f)
            ok = all(map(op, a[lo:hi + 1], repeat(v)))
        else:
            ok = all(map(op, repeat(v), a[lo:hi + 1]))
        if ok and hi >= n:
            raise ExecutionFault(f"array index {n} out of bounds 0..{n - 1}", line)
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
            frame = Frame([None] * len(self.slot_names), K, self.name)
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
        self.ctx = CompileCtx(cm.slots, self.mode, self.cunit)
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
                    raise ExecutionFault(
                        f"array index {k} out of bounds 0..{len(a) - 1}", line)
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
                self.cm.check(f, "assert", fn, line)
            return check_assert
        raise TypeError(f"cannot compile {type(st).__name__}")

    def loop(self, st, first_body):
        cm = self.cm
        loop_id = self.loops[id(st)]
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
    cache = getattr(tunit, "_compiled_cache", None)
    if cache is None:
        cache = {}
        tunit._compiled_cache = cache
    if mode not in cache:
        cache[mode] = CompiledUnit(tunit, mode)
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
    K = Kernel(mode, collect_events, trace, max_loop_steps, max_depth)
    outcome = ExecutionOutcome(status="normal", method=method, mode=mode,
                               unit_digest=unit_digest(tunit))
    try:
        outcome.return_value = cm.invoke(vals, K)
    except ContractViolation as cv:
        outcome.status = "contract-violation"
        outcome.error = str(cv)
    except ExecutionFault as ef:
        outcome.status = "runtime-error"
        outcome.error = str(ef)
    except EvalError as ee:
        outcome.status = "runtime-error"
        outcome.error = str(ee)
    except (TypeError, RecursionError) as ex:
        outcome.status = "runtime-error"
        outcome.error = f"invalid runtime operation: {ex}"
    outcome.report = K.events
    outcome.trace = K.trace
    outcome.checks_passed = K.passed
    return outcome


def unit_digest(tunit: TypedUnit) -> str:
    import hashlib

    from .printer import pretty_print
    cached = getattr(tunit, "_digest", None)
    if cached is None:
        cached = hashlib.sha256(pretty_print(tunit.source).encode()).hexdigest()[:16]
        tunit._digest = cached
    return cached


class CompiledFormula:
    """A typed two-state formula compiled once for one state layout.

    The layout is the sorted set of names over the state bundles the formula
    is evaluated against; each name owns one slot. Binding coerces the value
    of every slot the formula reads to that variable's type, as exec_method
    coerces arguments. Compilation raises EvalError for a variable missing
    from the layout; a quantifier without derivable bounds raises only when
    reached.

    A memo (a dict, empty at first) shares closures among the formulas
    compiled into it, which must all have this layout and mode; each still
    binds the slots an unmemoised compile would. The memo keeps every
    closure compiled into it alive, so it should live no longer than the
    formulas are needed: trace validation keeps one per (mode, layout) on
    the obligation set it validates, and drops it with the set.

    The read signature is the names the formula reads with their types,
    computed at compile time. Formulas of one memo that read the same names
    share one signature object, interned in the memo, so its identity
    stands for (mode, layout, reads): a BindCache keys bound slot lists by
    it. Without a memo every formula has a signature of its own.
    """

    __slots__ = ("names", "mode", "_fn", "_binds", "_sig")

    def __init__(self, f: S.Expr, states: dict, mode: str = RATIONAL, memo=None):
        """Compile f for the layout of bundles shaped like `states`."""
        self.names = frozenset(_bundle(states)[3])
        self.mode = mode
        layout = sorted(self.names)
        slots = {n: i for i, n in enumerate(layout)}
        ctx = CompileCtx(slots, mode, memo=memo)
        self._fn = compile_expr(f, ctx)
        reads = ctx.var_types
        self._binds = {n: (i, reads.get(n)) for n, i in slots.items()}
        # the key compile_expr interns a read set under, so the signature of
        # a formula is its root's interned read set when it reads anything
        self._sig = reads if memo is None else memo.setdefault(
            tuple(sorted(reads.items())), reads)

    def _bind(self, d, cache=None):
        if d is None:
            return None
        if cache is not None:
            key = (id(d), id(self._sig))
            hit = cache.lists.get(key)
            if hit is not None:
                return hit[2]
        out = [None] * len(self._binds)
        mode = self.mode
        coerce = coerce_arg if cache is None else cache.coerce
        for n, v in d.items():
            i, ty = self._binds[n]
            out[i] = coerce(v, ty, mode) if ty is not None else v
        if cache is not None:
            cache.lists[key] = (d, self._sig, out)
        return out

    def _evaluate(self, states: dict, cache=None) -> bool:
        here, old, le, names = _bundle(states)
        if names != self.names:
            raise EvalError("state bundle names differ from the compiled "
                            f"layout: {sorted(names ^ self.names)}")
        # a standalone formula calls no method and reads no \result (both
        # fail to compile), so its frame needs no kernel
        frame = Frame(self._bind(here, cache), None, "<formula>")
        frame.old = self._bind(old, cache)
        frame.loopentry = self._bind(le, cache)
        return bool(self._fn(frame))


class BindCache:
    """Coerced values and bound slot lists shared by the evaluations of one
    batch of state bundles; trace validation makes one per call and drops
    it when the call returns.

    `values` maps (id(value), id(type), mode) to (value, type, coerced
    value), so each value is coerced once per type; `lists` maps
    (id(state dict), id(read signature)) to (state dict, signature, slot
    list), so each state is bound once per read signature and the formulas
    that share the signature share the list. An entry holds every object
    its key names by id, so no id is reused while the cache lives. The
    state dicts must not change while it lives; formulas never change a
    slot list or a value in it (a store copies its array).
    """

    __slots__ = ("values", "lists")

    def __init__(self):
        self.values = {}
        self.lists = {}

    def coerce(self, v, ty, mode):
        key = (id(v), id(ty), mode)
        hit = self.values.get(key)
        if hit is None:
            hit = self.values[key] = (v, ty, coerce_arg(v, ty, mode))
        return hit[2]


def _bundle(states: dict):
    """(Here, Old, LoopEntry, the set of names over all three)."""
    here = states.get("Here")
    if here is None:
        raise EvalError("state bundle must contain 'Here'")
    old = states.get("Old", states.get("Pre"))
    le = states.get("LoopEntry")
    return here, old, le, set(here).union(old or (), le or ())


def eval_formula(f, states: dict, mode: str = RATIONAL, *,
                 cache: BindCache = None) -> bool:
    """Evaluate a typed two-state formula against labeled state snapshots.

    f is an S.Expr, compiled here for the bundle's layout, or a
    CompiledFormula of the same mode, whose layout the bundle must match.
    states maps labels ('Here' required; 'Old'/'Pre', 'LoopEntry' optional)
    to name->value dicts. Bounded integer quantifiers are enumerated; a
    quantifier without derivable finite bounds raises EvalError. With a
    cache, the states are bound through it (see BindCache), so they must
    not change while the cache lives.
    """
    if not isinstance(f, CompiledFormula):
        f = CompiledFormula(f, states, mode)
    elif f.mode != mode:
        raise EvalError(f"formula compiled for {f.mode} mode, evaluated in {mode}")
    return f._evaluate(states, cache)
