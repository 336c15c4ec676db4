"""Weakest-precondition obligation generator and trace-based validation.

wp walks statements backward. The postcondition and every pending side
obligation are transformed alike: assignments substitute, conditionals
branch-guard, loops replace assigned variables with fresh havoc symbols and
wrap pending goals in `I && b ==> .` (inside the body) or `I && !b ==> .`
(after the loop). A side obligation therefore arrives at the method entry as
a closed formula over entry-state symbols, with the requires clause and the
unit lemmas as hypotheses. Obligations, hypotheses included, close to
state-free formulas: requires, assumes and lemmas are closed where they are
read, the goal's \\old collapses at closure, and any other state node left
there is an internal error.

The formulas share subterms (an invariant, a condition, a continuation),
so one transformation applied to many of them passes them all one memo of
the term core: an assignment's substitution into the post and every pending
side, a loop's havoc of every context it builds, and a method's \\old
removal at closure. A shared subterm is then rebuilt once per
transformation; the obligations' text is the same as when each formula is
rewritten alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

from . import syntax as S
from .errors import EvalError, VcgenError
from .interp import (BindCache, CompiledFormula, ExecutionOutcome,
                     eval_formula, loop_table, unit_digest)
from .printer import expr_to_str
from .typecheck import TypedUnit


@dataclass(frozen=True)
class Origin:
    method: str
    line: int
    kind: str
    detail: str = ""      # behaviour name, guard description...


@dataclass
class Obligation:
    id: str
    name: str
    origin: Origin
    hypotheses: list          # formulas (lemmas + requires [+ assumes])
    goal: S.Expr
    status: str = "unknown"   # unknown | proved-internal | exported | trace-validated
    hyp_sources: list = field(default_factory=list)   # 'lemma'|'requires'|'assumes'
    var_sorts: dict = field(default_factory=dict)     # free symbol -> SemType
    loop_ids: tuple = ()                              # loops whose havoc symbols occur
    detail: str = ""

    @property
    def kind(self) -> str:
        return self.origin.kind

    @property
    def has_fresh(self) -> bool:
        return bool(self.loop_ids)


class _Table(dict):
    """A dict that a weak reference can follow."""


@dataclass
class ObligationSet:
    unit: str
    unit_digest: str
    obligations: list
    methods: tuple = ()
    # trace validation's compile memos, (mode, state layout) -> memo
    _memos: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # the prover's forms table and simplify memo, which every obligation
    # of the set holds as `_forms`
    _forms: dict = field(default_factory=_Table, init=False, repr=False,
                         compare=False)

    def __iter__(self):
        return iter(self.obligations)

    def __len__(self):
        return len(self.obligations)

    def by_id(self, oid: str) -> Obligation:
        for ob in self.obligations:
            if ob.id == oid:
                return ob
        raise KeyError(oid)


# ---------------------------------------------------------------------------
# formula transformations

def _entry_tag(loop_id) -> str:
    return f"LoopEntry#{loop_id}"


# \old(e) and \at(e, LoopEntry) are evaluated in their own state, so a
# substitution for the current state leaves them alone
_PINNED = (S.OldExpr, S.AtLabel)


def subst(f: S.Expr, name: str, repl: S.Expr, memo=None) -> S.Expr:
    """Replace current-state occurrences of a scalar variable.

    Occurrences inside \\old(...) and \\at(..., LoopEntry) are pinned to
    their own state and left alone. `memo` is the term core's, shared by
    every formula one assignment transforms."""
    return S.substitute(f, {name: repl}, _PINNED, memo)


def subst_store(f: S.Expr, name: str, idx: S.Expr, val: S.Expr,
                memo=None) -> S.Expr:
    """Replace current-state occurrences of array `name` by store(name, idx, val)."""
    def tr(e):
        if isinstance(e, S.Var) and e.name == name:
            return S.Store(array=e, index=idx, value=val, pos=e.pos, ty=e.ty)
        return e if isinstance(e, _PINNED) else None
    return S.rewrite(f, tr, memo)


def subst_result(f: S.Expr, repl: S.Expr) -> S.Expr:
    return S.rewrite(f, lambda e: repl if isinstance(e, S.ResultExpr) else None)


def unwrap_old(f: S.Expr, memo=None) -> S.Expr:
    """At obligation close every remaining current-state symbol denotes the
    entry state, so \\old(e) collapses to e."""
    memo = {} if memo is None else memo
    return S.rewrite(f, lambda e: unwrap_old(e.operand, memo)
                     if isinstance(e, S.OldExpr) else None, memo)


def havoc(f: S.Expr, mapping: dict, entry_tag: str = None, memo=None) -> S.Expr:
    """Replace loop-assigned variables by fresh symbols. This loop's own
    \\at(e, LoopEntry) markers denote the iteration-start state, which IS
    the havoc state, so they unwrap under the same mapping; markers owned by
    other loops stay pinned untouched."""
    def tr(e):
        if isinstance(e, S.Var):
            return mapping.get(e.name, e)
        if isinstance(e, S.OldExpr):
            return e
        if isinstance(e, S.AtLabel):
            if e.label == entry_tag:
                return S.substitute(e.operand, mapping, (S.OldExpr,))
            return e
        return None
    return S.rewrite(f, tr, memo)


def assigned_vars(st: S.Stmt) -> set:
    out = set()
    for n in S.walk(st):
        if isinstance(n, (S.VarDecl, S.Assign, S.ArrayAssign)):
            out.add(n.name)
    return out


def _imp(a: S.Expr, b: S.Expr) -> S.Expr:
    return S.Binary(op="==>", left=a, right=b, pos=b.pos, ty=S.BOOL)


def _and(a: S.Expr, b: S.Expr) -> S.Expr:
    return S.Binary(op="&&", left=a, right=b, pos=a.pos, ty=S.BOOL)


def _not(a: S.Expr) -> S.Expr:
    return S.Unary(op="!", operand=a, pos=a.pos, ty=S.BOOL)


def _int(v: int) -> S.Expr:
    return S.IntLit(value=v, ty=S.INT)


def _ge0(e: S.Expr) -> S.Expr:
    return S.Binary(op=">=", left=e, right=_int(0), pos=e.pos, ty=S.BOOL)


# ---------------------------------------------------------------------------
# guards

def collect_guards(e: S.Expr) -> list:
    """(kind, formula, line, detail) for every division and array access in
    an expression, post-order. A guard found under \\old(.) or \\at(., L) is
    stated in that state; one found under \\forall is stated under the same
    binders. A guard in the right operand of `==>` or `&&` is stated under
    the left operand, and one in the right operand of `||` under its
    negation: the right operand is evaluated only then."""
    out = []

    def visit(x, wrap):
        if isinstance(x, (S.OldExpr, S.AtLabel)):
            return visit(x.operand,
                         lambda g: wrap(replace(x, operand=g, ty=S.BOOL)))
        if isinstance(x, S.Forall):
            return visit(x.body, lambda g: wrap(replace(x, body=g)))
        if isinstance(x, S.Binary) and x.op in ("==>", "&&", "||"):
            visit(x.left, wrap)
            cond = _not(x.left) if x.op == "||" else x.left
            return visit(x.right, lambda g: wrap(_imp(cond, g)))
        for child in S.children(x):
            visit(child, wrap)
        if isinstance(x, S.Binary) and x.op == "/":
            zero = S.Coerce(operand=_int(0), ty=S.REAL)
            out.append(("division-guard",
                        wrap(S.Binary(op="!=", left=x.right, right=zero,
                                      pos=x.pos, ty=S.BOOL)),
                        x.pos[0], f"divisor {expr_to_str(x.right)} != 0"))
        elif isinstance(x, S.Index):
            length = S.LengthExpr(array=x.array, pos=x.pos, ty=S.INT)
            inb = _and(_ge0(x.index),
                       S.Binary(op="<", left=x.index, right=length,
                                pos=x.pos, ty=S.BOOL))
            out.append(("bounds-guard", wrap(inb), x.pos[0],
                        f"index {expr_to_str(x.index)} within {expr_to_str(x.array)}"))
        elif isinstance(x, S.NewArray):
            out.append(("bounds-guard", wrap(_ge0(x.size)), x.pos[0],
                        f"array size {expr_to_str(x.size)} >= 0"))
    visit(e, lambda g: g)
    return out


# ---------------------------------------------------------------------------
# the wp engine

@dataclass
class _Side:
    sid: int
    kind: str
    line: int
    detail: str
    formula: S.Expr


@dataclass
class _Loop:
    """One loop's verification frame: its invariant and condition, and the
    havoc of the variables its body assigns."""
    id: int
    line: int
    inv: S.Expr             # LoopEntry markers tagged with id
    cond: S.Expr
    mapping: dict           # assigned variable -> its havoc symbol
    first: S.Expr           # inv at its first check, where LoopEntry is Here
    memo: dict = field(default_factory=dict)    # of hv, for every formula

    def hv(self, f: S.Expr) -> S.Expr:
        return havoc(f, self.mapping, _entry_tag(self.id), self.memo)

    def exit_ctx(self, f: S.Expr) -> S.Expr:
        """I && !b ==> f, havocked: f after the loop."""
        return self.hv(_imp(_and(self.inv, _not(self.cond)), f))

    def body_ctx(self, f: S.Expr) -> S.Expr:
        """I && b ==> f, havocked: f at the start of an iteration."""
        return self.hv(_imp(_and(self.inv, self.cond), f))


class _Wp:
    def __init__(self, tunit: TypedUnit, method: S.MethodDecl,
                 exit_post: S.Expr, exit_kind: str):
        self.tunit = tunit
        self.method = method
        self.exit_post = exit_post
        self.exit_kind = exit_kind
        self.loops = loop_table(method)
        self.sid = itertools.count()
        # (name, type) of each parameter and local, declarations in walk order
        self.all_vars = [(n, t) for n, t in method.params] + [
            (node.name, node.ty) for node in S.walk(method.body)
            if isinstance(node, S.VarDecl)]

    def new_side(self, kind, formula, line, detail="") -> _Side:
        return _Side(next(self.sid), kind, line, detail, formula)

    def guard_sides(self, e: S.Expr) -> list:
        return [self.new_side(kind, f, line, detail)
                for kind, f, line, detail in collect_guards(e)]

    def wp(self, st: S.Stmt, post: S.Expr, kind: str, sides: list):
        """Returns (pre, pre_kind, sides'). sides' entries with sid matching
        an input side are its transformed continuation."""
        if isinstance(st, S.Block):
            for s in reversed(st.stmts):
                post, kind, sides = self.wp(s, post, kind, sides)
            return post, kind, sides
        if isinstance(st, S.VarDecl):
            if st.init is None:
                return post, kind, sides
            return self.assign_like(st, st.name, st.init, post, kind, sides)
        if isinstance(st, S.Assign):
            return self.assign_like(st, st.name, st.expr, post, kind, sides)
        if isinstance(st, S.ArrayAssign):
            new = (self.guard_sides(st.index) + self.guard_sides(st.expr) +
                   [self.new_side("bounds-guard",
                                  self.index_guard(st), st.pos[0],
                                  f"store index {expr_to_str(st.index)} within {st.name}")])
            memo = {}
            tr = lambda f: subst_store(f, st.name, st.index, st.expr, memo)
            return (tr(post), kind,
                    [replace(s, formula=tr(s.formula)) for s in sides] + new)
        if isinstance(st, S.If):
            new_cond = self.guard_sides(st.cond)
            p1, k1, s1 = self.wp(st.then, post, kind, sides)
            if st.orelse is not None:
                p2, k2, s2 = self.wp(st.orelse, post, kind, sides)
            else:
                p2, k2, s2 = post, kind, list(sides)
            pre = _and(_imp(st.cond, p1), _imp(_not(st.cond), p2))
            merged = self.merge_branches(st.cond, sides, s1, s2)
            out_kind = k1 if k1 != kind else k2
            return pre, out_kind, merged + new_cond
        if isinstance(st, S.While):
            return self.loop(st, post, kind, sides)
        if isinstance(st, S.DoWhile):
            return self.do_loop(st, post, kind, sides)
        if isinstance(st, S.Return):
            if st.expr is None:
                return self.exit_post, self.exit_kind, sides
            if isinstance(st.expr, S.Call):
                return self.call(st, st.expr, None, sides)
            new = self.guard_sides(st.expr)
            return (subst_result(self.exit_post, st.expr), self.exit_kind,
                    sides + new)
        if isinstance(st, S.AssertStmt):
            side = self.new_side("assert", st.formula, st.pos[0])
            return _imp(st.formula, post), kind, sides + [side]
        raise VcgenError(f"cannot compute wp of {type(st).__name__}")

    def assign_like(self, st, name, expr, post, kind, sides):
        if isinstance(expr, S.Call):
            return self.call(st, expr, name, sides, post=post, kind=kind)
        new = self.guard_sides(expr)
        memo = {}
        tr = lambda f: subst(f, name, expr, memo)
        return (tr(post), kind,
                [replace(s, formula=tr(s.formula)) for s in sides] + new)

    def index_guard(self, st: S.ArrayAssign) -> S.Expr:
        arr = S.Var(name=st.name, pos=st.pos,
                    ty=next(t for n, t in self.all_vars if n == st.name))
        length = S.LengthExpr(array=arr, pos=st.pos, ty=S.INT)
        return _and(_ge0(st.index),
                    S.Binary(op="<", left=st.index, right=length,
                             pos=st.pos, ty=S.BOOL))

    def merge_branches(self, cond, incoming, s1, s2):
        by_id1 = {s.sid: s for s in s1}
        by_id2 = {s.sid: s for s in s2}
        out = []
        seen = set()
        for s in incoming:
            a, b = by_id1[s.sid], by_id2[s.sid]
            seen.add(s.sid)
            if a.formula == b.formula:
                out.append(a)
            else:
                out.append(replace(s, formula=_and(_imp(cond, a.formula),
                                                   _imp(_not(cond), b.formula))))
        for s in s1:
            if s.sid not in seen:
                out.append(replace(s, formula=_imp(cond, s.formula)))
        for s in s2:
            if s.sid not in seen:
                out.append(replace(s, formula=_imp(_not(cond), s.formula)))
        return out

    def loop_frame(self, st) -> _Loop:
        annot = st.annot
        if annot is None or annot.invariant is None:
            raise VcgenError(f"loop at line {st.pos[0]} has no invariant")
        loop_id = self.loops[id(st)]
        types = dict(self.all_vars)
        mapping = {name: S.FreshVar(name=f"{name}@L{loop_id}", base=name,
                                    loop_id=loop_id, ty=types.get(name))
                   for name in sorted(assigned_vars(st.body))}
        # typecheck leaves the invariant's LoopEntry reads untagged; tagging
        # them with this loop lets only its havoc consume them
        tag = _entry_tag(loop_id)
        inv = S.rewrite(annot.invariant, lambda e: replace(e, label=tag)
                        if isinstance(e, S.AtLabel) else None)
        return _Loop(loop_id, st.pos[0], inv, st.cond, mapping,
                     havoc(inv, {}, tag))

    def loop(self, w: S.While, post, kind, sides):
        lp = self.loop_frame(w)
        out = []
        # pending goals from after the loop: I && !b ==> goal, havocked
        for s in sides:
            out.append(replace(s, formula=lp.exit_ctx(s.formula)))

        # loop condition guards hold whenever the invariant does
        for g in self.guard_sides(w.cond):
            out.append(replace(g, formula=lp.hv(_imp(lp.inv, g.formula))))

        # invariant preservation
        p_body, _, body_sides = self.wp(w.body, lp.inv, "invariant-preserve", [])
        out.append(self.new_side("invariant-preserve", lp.body_ctx(p_body),
                                 lp.line))
        for s in body_sides:
            out.append(replace(s, formula=lp.body_ctx(s.formula)))

        out.extend(self.variant_sides(w, lp))

        # the main postcondition becomes the loop-exit side obligation
        out.append(self.new_side(kind, lp.exit_ctx(post), lp.line,
                                 detail="loop exit"))
        return lp.first, "invariant-init", out

    def variant_sides(self, st, lp):
        """Non-negativity, plus the decrease claim threaded through the body;
        none without a variant.

        When the body contains loops, wp bottoms out at the first inner
        invariant and the decrease content continues through the inner
        loops' exit chains: those are the sides whose kind tag matches this
        run, and they belong to the obligation set (the rest of the run's
        sides duplicate the invariant pass and are dropped)."""
        v = st.annot.variant
        if v is None:
            return []
        out = [self.new_side("variant-nonneg", lp.body_ctx(_ge0(v)), lp.line)]
        v_entry = S.AtLabel(operand=v, label=_entry_tag(lp.id),
                            pos=v.pos, ty=v.ty)
        dec_post = S.Binary(op="<", left=v, right=v_entry, pos=v.pos, ty=S.BOOL)
        p_dec, _, dec_sides = self.wp(st.body, dec_post, "variant-decrease", [])
        out.append(self.new_side("variant-decrease", lp.body_ctx(p_dec), lp.line))
        for s in dec_sides:
            if s.kind == "variant-decrease":
                out.append(self.new_side("variant-decrease",
                                         lp.body_ctx(s.formula), s.line, s.detail))
        return out

    def do_loop(self, st: S.DoWhile, post, kind, sides):
        """do S while (b): the body runs once, then the loop rules apply with
        the invariant first checked at the head reached after that body. One
        wp pass over the body serves both the entry chain (pre) and the
        preservation chain (the entry chain has its own if LoopEntry occurs),
        so each obligation carries at most one havoc generation per loop:
        trace instantiation then always corresponds to an actual step."""
        lp = self.loop_frame(st)
        out = [replace(s, formula=lp.exit_ctx(s.formula)) for s in sides]
        p_body, body_kind, body_sides = self.wp(st.body, lp.inv,
                                                "invariant-init", [])
        pre, _, first_sides = (
            (p_body, body_kind, body_sides) if lp.first is lp.inv
            else self.wp(st.body, lp.first, "invariant-init", []))
        # goals from inside the body: once for the unconditional first run...
        out.extend(first_sides)
        # ...and once under the loop context for every later iteration
        for g in self.guard_sides(st.cond):
            out.append(replace(g, formula=lp.hv(_imp(lp.inv, g.formula))))
        out.append(self.new_side("invariant-preserve", lp.body_ctx(p_body),
                                 lp.line))
        for s in body_sides:
            out.append(self.new_side(s.kind, lp.body_ctx(s.formula), s.line,
                                     s.detail))
        out.extend(self.variant_sides(st, lp))
        out.append(self.new_side(kind, lp.exit_ctx(post), lp.line,
                                 detail="loop exit"))
        return pre, body_kind, out

    def reachable_callees(self, name, seen=None):
        if seen is None:
            seen = set()
        if name in seen:
            return seen
        seen.add(name)
        for node in S.walk(self.tunit.method(name).body):
            if isinstance(node, S.Call):
                self.reachable_callees(node.name, seen)
        return seen

    def call(self, st, call: S.Call, target: str | None, sides,
             post=None, kind=None):
        """x = f(args) or return f(args): modular contract reasoning."""
        callee = self.tunit.method(call.name)
        if self.method.name in self.reachable_callees(call.name):
            raise VcgenError(f"recursive call to {call.name!r} is not supported")
        new = []
        for a in call.args:
            new.extend(self.guard_sides(a))
        actuals = dict(zip((n for n, _ in callee.params), call.args))

        def inst(f):
            # one simultaneous substitution: an actual may name a parameter
            return S.substitute(unwrap_old(f), actuals, _PINNED)

        req = inst(callee.spec.requires)
        new.append(self.new_side("call-requires", req, st.pos[0],
                                 detail=f"requires of {call.name}"))

        mutated = assigned_vars(callee.body) & {
            n.name for n in S.walk(callee.spec.ensures) if isinstance(n, S.Var)}
        mutated |= assigned_vars(callee.body) & {
            n.name for b in callee.spec.behaviours
            for n in S.walk(b.ensures) if isinstance(n, S.Var)}
        param_names = {n for n, _ in callee.params}
        bad = mutated & param_names
        if bad:
            raise VcgenError(
                f"contract of {call.name!r} mentions parameter(s) {sorted(bad)} "
                f"that its body reassigns; such calls are not supported")

        res = S.FreshVar(name=f"{call.name}@r{next(self.sid)}",
                         base=f"{call.name}.result", loop_id=-1,
                         ty=callee.return_type)
        ens_parts = [subst_result(inst(callee.spec.ensures), res)]
        for b in callee.spec.behaviours:
            ens_parts.append(_imp(inst(b.assumes),
                                  subst_result(inst(b.ensures), res)))
        assumption = S.conj(ens_parts)

        if target is None:
            cont = subst_result(self.exit_post, res)
            out_kind = self.exit_kind
        else:
            memo = {}
            cont = subst(post, target, res, memo)
            out_kind = kind
            # a side after the call holds once the callee's contract does
            sides = [replace(s, formula=_imp(assumption, subst(s.formula, target, res, memo)))
                     for s in sides]
        return _imp(assumption, cont), out_kind, sides + new


# ---------------------------------------------------------------------------
# obligation assembly

# the state nodes, each named as an escape from closure reports it
_STATE_NODES = {S.AtLabel: "LoopEntry label", S.PermutPred: "Permut predicate",
                S.ResultExpr: "\\result", S.OldExpr: "\\old"}


def _closure_info(goal: S.Expr, hyps=()):
    """What closing an obligation reads from its formulas, in one walk: the
    free Var/FreshVar symbols with their sorts, respecting quantifier
    scoping, in walk order from the goal on; the sorted ids of the loops
    whose havoc symbols occur; and whether the goal holds an \\old, which
    denotes the entry state there. Any other state node escaped the closure
    of its clause, and is an internal error."""
    sorts, loop_ids = {}, set()

    def visit(f, bound, states):
        if isinstance(f, S.Var):
            if f.name not in bound and f.ty is not None:
                sorts[f.name] = f.ty
        elif isinstance(f, S.FreshVar):
            sorts[f.name] = f.ty
            if f.loop_id >= 0:
                loop_ids.add(f.loop_id)
        elif isinstance(f, S.Forall):
            visit(f.body, bound | {n for n, _ in f.binders}, states)
        else:
            if type(f) in _STATE_NODES:
                states.add(type(f))
            for child in S.children(f):
                visit(child, bound, states)

    goal_states, escaped = set(), set()
    visit(goal, frozenset(), goal_states)
    for h in hyps:
        visit(h, frozenset(), escaped)
    escaped |= goal_states - {S.OldExpr}
    for cls, what in _STATE_NODES.items():
        if cls in escaped:
            raise VcgenError(f"internal: {what} escaped obligation closure")
    return sorts, tuple(sorted(loop_ids)), S.OldExpr in goal_states


_NAMES = {
    "ensures": "postcondition holds",
    "behaviour": "behaviour postcondition holds",
    "invariant-init": "loop invariant initially holds",
    "invariant-preserve": "loop invariant preserved",
    "variant-nonneg": "loop variant non-negative",
    "variant-decrease": "loop variant decreases",
    "assert": "assertion holds",
    "call-requires": "callee precondition holds",
    "division-guard": "divisor is non-zero",
    "bounds-guard": "array access within bounds",
    "lemma": "lemma",
}


def _make_obligation(method, seq, kind, line, detail, goal, hyps, hyp_sources,
                     old_memo=None):
    # unwrapping \old keeps every symbol and their order, so the walk may
    # precede it; old_memo is unwrap_old's, shared by the method's goals
    sorts, loop_ids, old = _closure_info(goal, hyps)
    goal = unwrap_old(goal, old_memo) if old else goal
    name = _NAMES[kind]
    if detail:
        name = f"{name} ({detail})"
    return Obligation(
        id=f"{method}:{seq:03d}:{kind}",
        name=f"{name} [line {line}]",
        origin=Origin(method=method, line=line, kind=kind, detail=detail),
        hypotheses=hyps, hyp_sources=hyp_sources,
        goal=goal, var_sorts=sorts, loop_ids=loop_ids, detail=detail)


def generate_obligations(tunit: TypedUnit, method: str | None = None) -> ObligationSet:
    """Deterministic obligation set for one method (or all of them), with one
    obligation per unit lemma; lemmas also appear among every other
    obligation's hypotheses."""
    unit = tunit.unit
    obligations = []
    lemma_forms = []
    for lem in unit.lemmas:
        g = unwrap_old(lem.statement)
        lemma_forms.append(g)
        sorts, _, _ = _closure_info(g)
        obligations.append(Obligation(
            id=f"lemma:{lem.name}", name=f"lemma {lem.name}",
            origin=Origin(method="", line=lem.pos[0], kind="lemma", detail=lem.name),
            hypotheses=[], goal=g, var_sorts=sorts))

    if method is None:
        targets = [m.name for m in unit.methods]
    else:
        tunit.method(method)
        targets = [method]

    for mname in targets:
        obligations.extend(_method_obligations(tunit, mname, lemma_forms))
    obset = ObligationSet(unit=unit.name, unit_digest=unit_digest(tunit),
                          obligations=obligations, methods=tuple(targets))
    for ob in obligations:
        ob._forms = obset._forms
    return obset


def _method_obligations(tunit: TypedUnit, mname: str, lemma_forms) -> list:
    m = tunit.method(mname)
    requires = unwrap_old(m.spec.requires)
    base_hyps = list(lemma_forms) + [requires]
    base_sources = ["lemma"] * len(lemma_forms) + ["requires"]
    out = []
    seq = itertools.count()
    old_memo = {}

    # main pass: the declared ensures, plus every post-independent obligation
    engine = _Wp(tunit, m, m.spec.ensures, "ensures")
    pre, kind, sides = engine.wp(m.body, engine.exit_post, "ensures", [])
    out.append(_make_obligation(mname, next(seq), kind, m.pos[0], "",
                                pre, base_hyps, base_sources, old_memo))
    for s in sides:
        out.append(_make_obligation(mname, next(seq), s.kind, s.line, s.detail,
                                    s.formula, base_hyps, base_sources,
                                    old_memo))

    # behaviour passes contribute only their own postcondition chain
    for b in m.spec.behaviours:
        hyps = base_hyps + [unwrap_old(b.assumes)]
        sources = base_sources + ["assumes"]
        engine = _Wp(tunit, m, b.ensures, "behaviour")
        pre, kind, sides = engine.wp(m.body, engine.exit_post, "behaviour", [])
        if kind == "behaviour":
            out.append(_make_obligation(mname, next(seq), "behaviour", m.pos[0],
                                        b.name, pre, hyps, sources, old_memo))
        for s in sides:
            if s.kind == "behaviour":
                detail = b.name if not s.detail else f"{b.name}, {s.detail}"
                out.append(_make_obligation(mname, next(seq), "behaviour", s.line,
                                            detail, s.formula, hyps, sources,
                                            old_memo))
    return out


# ---------------------------------------------------------------------------
# the wp operation of the public API (single statement, loop-free friendly)

def wp(tunit: TypedUnit, method: str, stmt: S.Stmt, post: S.Expr):
    """Weakest precondition of one typed statement: (pre, side obligations as
    (kind, formula) pairs). Statement and post must come from the typed unit's
    method scope."""
    m = tunit.method(method)
    engine = _Wp(tunit, m, post, "ensures")
    pre, _, sides = engine.wp(stmt, post, "ensures", [])
    return pre, [(s.kind, s.formula) for s in sides]


# ---------------------------------------------------------------------------
# trace validation

@dataclass
class ObligationTraceResult:
    id: str
    verdict: str        # 'pass' | 'fail' | 'not-instantiable'
    detail: str = ""
    witness: dict = field(default_factory=dict)


@dataclass
class TraceValidationReport:
    method: str
    results: list

    @property
    def passed(self):
        return [r for r in self.results if r.verdict == "pass"]

    @property
    def failed(self):
        return [r for r in self.results if r.verdict == "fail"]

    @property
    def not_instantiable(self):
        return [r for r in self.results if r.verdict == "not-instantiable"]

    @property
    def ok(self):
        return not self.failed


def instantiate_on_trace(obset: ObligationSet,
                         outcome: ExecutionOutcome) -> TraceValidationReport:
    """Substitute recorded states into each obligation and evaluate it.

    Havoc symbols take their values from recorded loop-head snapshots (every
    snapshot of the obligation's innermost loop, with enclosing loops taken
    from the nearest preceding snapshot); remaining free symbols take method
    entry values. Universally quantified lemma hypotheses are skipped: they
    are valid, so conditioning on them cannot change a verdict.

    Each obligation's test compiles once per (mode, state layout), and every
    test of one key shares that key's compile memo, so a hypothesis that
    recurs across the obligations compiles to one closure. The compiled
    tests and memos outlive the call: the obligation's trace plan holds its
    tests and obset holds the memos, so a later call on the same set
    compiles only for keys it has not met. They die with the set and its
    obligations, and an obligation edited in place drops its tests with
    its old plan.

    What depends on the trace alone is derived once per call, in an index
    that the obligations share: each method's segments, each callee's
    recorded results, and the state bundles of each (method, havoc set,
    call-result symbols). Its BindCache coerces each recorded value once
    per type and binds each state once per read signature, so the tests
    that read the same names share one slot list. The index and its cache
    belong to the call alone: nothing keeps them once it returns, and a
    later call starts afresh.
    """
    if outcome.status != "normal":
        raise VcgenError("trace validation needs an outcome with status 'normal'")
    if outcome.trace is None:
        raise VcgenError("outcome was produced without trace collection")
    if obset.unit_digest != outcome.unit_digest:
        raise VcgenError("unit mismatch between obligation set and outcome")

    index = _TraceIndex(outcome)
    results = [_validate_one(ob, index, obset._memos) for ob in obset.obligations]
    return TraceValidationReport(method=outcome.method, results=results)


class _TraceIndex:
    """What one instantiate_on_trace call derives from its trace, whatever
    the obligation, and the BindCache its evaluations share."""

    def __init__(self, outcome: ExecutionOutcome):
        self.mode = outcome.mode
        self.cache = BindCache()
        # method -> (entry state, segment) of each invocation: the entry
        # state a dict of its own, the segment its contiguous snapshots
        self.segments = {}
        self.results = {}       # method -> its recorded return values
        self._bundles = {}      # (method, havoc, result_syms) -> bundles
        open_segs = {}
        for snap in outcome.trace:
            if snap.kind == "entry":
                open_segs[snap.method] = seg = [snap]
                self.segments.setdefault(snap.method, []).append((dict(snap.state), seg))
            elif snap.method in open_segs:
                open_segs[snap.method].append(snap)
            if snap.kind == "exit":
                self.results.setdefault(snap.method, []).append(snap.result)

    def bundles(self, method, plan):
        """(states, compile key) of every instantiation of the plan's free
        symbols, in evaluation order: segment by segment, combo by combo,
        then each pick of recorded callee results.

        A call-result symbol is universally quantified in the obligation,
        so any recorded return value of the callee is a legitimate
        instantiation; the assumed callee contract vacuously discharges
        mispaired ones. A segment's entry state is the Old state of every
        bundle of that segment, whatever the plan, and the Here state of
        those that instantiate nothing."""
        key = (method, plan.havoc, plan.result_syms)
        out = self._bundles.get(key)
        if out is not None:
            return out
        out = self._bundles[key] = []
        choices = [[(name, v) for v in self.results[callee]]
                   for name, callee in plan.result_syms]
        loops = sorted({loop_id for loop_id, _, _ in plan.havoc})
        for old, seg in self.segments[method]:
            for combo in _combos(seg, loops):
                env = {}
                for loop_id, name, base in plan.havoc:
                    state = combo[loop_id].state
                    if base not in state:
                        break
                    env[name] = state[base]
                else:
                    for picks in itertools.product(*choices):
                        here = {**old, **env, **dict(picks)} if env or picks else old
                        out.append(({"Here": here, "Old": old},
                                    (self.mode, frozenset(here))))
        return out


def sourced_hypotheses(ob) -> list:
    """(hypothesis, source) pairs of an obligation. Without recorded
    sources every hypothesis has source "?", which is not a lemma."""
    return list(zip(ob.hypotheses, ob.hyp_sources or ["?"] * len(ob.hypotheses)))


def validation_formula(ob) -> S.Expr:
    """The ground test of an obligation: its non-lemma hypotheses ==> goal.

    Trace validation evaluates it on recorded states, and the prover on a
    candidate counterexample. Lemma hypotheses are valid, so conditioning
    on them cannot change a verdict; leaving them out avoids their
    (typically unbounded) quantifiers."""
    test = ob.goal
    for h, src in reversed(sourced_hypotheses(ob)):
        if src != "lemma":
            test = _imp(h, test)
    return test


@dataclass(frozen=True)
class _TracePlan:
    """What trace validation needs of one obligation, whatever the trace."""
    key: tuple              # the fields the plan was derived from
    test: S.Expr            # validation_formula(ob)
    havoc: tuple            # sorted (loop id, havoc symbol, variable it stands for)
    result_syms: tuple      # sorted (call-result symbol, callee)
    # (mode, state layout) -> CompiledFormula of test
    compiled: dict = field(default_factory=dict, compare=False, repr=False)


def _trace_plan(ob: Obligation) -> _TracePlan:
    """The obligation's plan, derived once and kept on the obligation while
    its goal, hypotheses and their sources stay the same."""
    key = (ob.goal, tuple(ob.hypotheses), tuple(ob.hyp_sources or ()))
    plan = getattr(ob, "_trace_plan", None)
    if plan is not None and plan.key == key:
        return plan
    havoc = set()
    result_syms = set()
    for f in [ob.goal] + list(ob.hypotheses):
        for n in S.walk(f):
            if isinstance(n, S.FreshVar):
                if n.loop_id >= 0:
                    havoc.add((n.loop_id, n.name, n.base))
                elif n.base.endswith(".result"):
                    result_syms.add((n.name, n.base[:-len(".result")]))
    plan = _TracePlan(key, validation_formula(ob), tuple(sorted(havoc)),
                      tuple(sorted(result_syms)))
    ob._trace_plan = plan
    return plan


def _validate_one(ob: Obligation, index: _TraceIndex, memos: dict) -> ObligationTraceResult:
    if ob.kind == "lemma":
        return ObligationTraceResult(ob.id, "not-instantiable", "no program point")
    method = ob.origin.method
    if method not in index.segments:
        return ObligationTraceResult(ob.id, "not-instantiable",
                                     f"method {method} not in trace")
    plan = _trace_plan(ob)
    for _, callee in plan.result_syms:
        if callee not in index.results:
            return ObligationTraceResult(
                ob.id, "not-instantiable", f"no recorded call of {callee}")

    mode, cache, compiled = index.mode, index.cache, plan.compiled
    evaluated = 0
    for states, key in index.bundles(method, plan):
        try:
            test = compiled.get(key)
            if test is None:
                # the layout is the Here state's names: Old's are among them
                test = compiled[key] = CompiledFormula(
                    plan.test, states, mode, memos.setdefault(key, {}))
            holds = eval_formula(test, states, mode, cache=cache)
        except EvalError as ex:
            return ObligationTraceResult(ob.id, "not-instantiable", str(ex))
        evaluated += 1
        if not holds:
            witness = {k: repr(v) for k, v in states["Here"].items()}
            return ObligationTraceResult(ob.id, "fail",
                                         "falsified by recorded state", witness)
    if evaluated == 0:
        return ObligationTraceResult(ob.id, "not-instantiable",
                                     "no matching snapshots in trace")
    return ObligationTraceResult(ob.id, "pass", f"{evaluated} instantiation(s)")


def _combos(seg, loops):
    """Snapshot choices per loop of `loops` (sorted loop ids): one combo per
    snapshot of the obligation's innermost loop, every other loop pinned
    to its nearest preceding snapshot. Each obligation carries at most one
    havoc generation per loop, so the preceding-snapshot rule reconstructs
    exactly the enclosing iteration the inner snapshot was recorded in: the
    instantiated formula then restates a check the runtime actually
    performed. One pass over the segment keeps each loop's latest snapshot."""
    if not loops:
        return [{}]
    inner = loops[-1]
    latest, combos = {}, []
    for snap in seg:
        if snap.kind == "loop-head":
            latest[snap.loop_id] = snap
            if snap.loop_id == inner and all(l in latest for l in loops):
                combos.append({l: latest[l] for l in loops})
    return combos
