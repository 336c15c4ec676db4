"""Weakest-precondition obligation generator and trace-based validation.

wp walks statements backward. The postcondition and every pending side
obligation are transformed alike: assignments substitute, conditionals
branch-guard, and one loop rule, for `while` and `do` alike, replaces
assigned variables with fresh havoc symbols and wraps pending goals in
`I && b ==> .` (inside the body) or `I && !b ==> .` (after the loop). A
return ends its path: every side pending after it is `true` on that path.
A side obligation therefore arrives at the method entry as a closed formula
over entry-state symbols, with the requires clause and the unit lemmas as
hypotheses. Obligations, hypotheses included, close to state-free
formulas: requires, assumes and lemmas are closed where they are read, the
goal's \\old collapses at closure, and any other state node left there is
an internal error.

wp carries a tuple of posts, each with its kind. A method pass has one; a
loop body with a variant has two, the invariant and the decrease post
`v < \\at(v, LoopEntry)`, so the body is walked once for both. Each post
follows the post's rules (an `if` builds `c ==> p1 && !c ==> p2`, a return
makes it the exit post, an inner loop makes it an exit side at the end of
that loop's list), and posts that are one object give one formula. Each
side records the post it came from, or None when it is both posts': the
preservation listing reads the invariant's and the shared sides, and the
variant listing reads the decrease post's and the shared sides of kind
variant-decrease. A shared side listed twice is one goal object in both
listings, so it is closed and proved once; the repeat stays in the
inventory, whose ids and count the listings define.

The formulas share subterms (an invariant, a condition, a continuation),
so one transformation applied to many of them passes them all one memo of
the term core (`syntax.Memo`): an assignment's substitution into the post
and every pending side, a loop's havoc of every context it builds, and a
method's \\old removal at closure. A shared subterm is then rebuilt once
per transformation; the obligations' text is the same as when each formula
is rewritten alone.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import InitVar, dataclass, field, replace

from . import syntax as S
from .errors import VcgenError
from .interp import (BindCache, CompiledTests, ExecutionOutcome,
                     eval_formula, loop_table, unit_digest)
from .printer import expr_to_str
from .typecheck import TypedUnit


@dataclass(frozen=True)
class Origin:
    method: str
    line: int
    kind: str
    detail: str = ""      # behaviour name, guard description...


@dataclass(frozen=True)
class Obligation:
    """hypotheses ==> goal, a frozen value. Its hypotheses and their
    sources are tuples, one source per hypothesis ("?", which is not a
    lemma, for each when none is given), so obligations may share them;
    an edit is a new obligation (dataclasses.replace)."""
    id: str
    name: str
    origin: Origin
    hypotheses: tuple         # formulas (lemmas + requires [+ assumes])
    goal: S.Expr
    hyp_sources: tuple = ()   # 'lemma'|'requires'|'assumes'
    var_sorts: dict = field(default_factory=dict)     # free symbol -> SemType
    loop_ids: tuple = ()                              # loops whose havoc symbols occur
    detail: str = ""
    # (_forms, _renders): the prover's forms table and simplify memo, the
    # exporters' render memo (see export); the set's for a set member, or
    # None for a fresh pair, which a replace copy gets too
    tables: InitVar = None
    _forms: S.Memo = field(init=False, repr=False, compare=False)
    _renders: S.Memo = field(init=False, repr=False, compare=False)

    def __post_init__(self, tables):
        hyps = tuple(self.hypotheses)
        sources = tuple(self.hyp_sources) or ("?",) * len(hyps)
        if len(sources) != len(hyps):
            raise VcgenError(f"obligation {self.id}: {len(hyps)} hypotheses "
                             f"but {len(sources)} sources")
        forms, renders = (S.Memo(), S.Memo()) if tables is None else tables
        for name, value in (("hypotheses", hyps), ("hyp_sources", sources),
                            ("_forms", forms), ("_renders", renders)):
            object.__setattr__(self, name, value)

    @property
    def kind(self) -> str:
        return self.origin.kind

    @property
    def has_fresh(self) -> bool:
        return bool(self.loop_ids)


@dataclass
class ObligationSet:
    """A unit's obligations, in a list a caller may edit: an edit puts a
    new obligation in a member's place. Each generated member holds the
    set's `_forms` and `_renders` as its tables (see Obligation)."""
    unit: str
    unit_digest: str
    obligations: list
    methods: tuple = ()
    # trace validation's plan (see _trace_groups) and the members it was
    # derived from, derived by the first call and again by a call that
    # finds another list of members
    _trace_groups: tuple = field(default=((), ()), init=False, repr=False,
                                 compare=False)
    _forms: S.Memo = field(default_factory=S.Memo, init=False, repr=False, compare=False)
    _renders: S.Memo = field(default_factory=S.Memo, init=False, repr=False, compare=False)

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

# most nodes the substitutions of one wp pass over a method may create;
# the corpus's largest pass creates far fewer, and n sequential branches
# double the count with each branch
VCGEN_BUDGET = 100_000


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
    memo = S.Memo() if memo is None else memo
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
    post: int | None = None     # index of the post it came from; None: every post's


@dataclass
class _Loop:
    """One loop's verification frame: its invariant and condition, its
    decrease post (None without a variant), and the havoc of the variables
    its body assigns."""
    id: int
    line: int
    inv: S.Expr             # LoopEntry markers tagged with id
    cond: S.Expr
    decrease: S.Expr        # v < \at(v, LoopEntry), tagged with id
    mapping: dict           # assigned variable -> its havoc symbol
    first: S.Expr           # inv at its first check, where LoopEntry is Here
    # hv's memo, for every formula, and each formula's context under exit,
    # so that a formula listed twice gets one
    memo: S.Memo

    def hv(self, f: S.Expr) -> S.Expr:
        return havoc(f, self.mapping, _entry_tag(self.id), self.memo)

    def context(self, f: S.Expr, exit: bool) -> S.Expr:
        hit = self.memo.get(f, exit)
        if hit is None:
            cond = _not(self.cond) if exit else self.cond
            hit = self.memo.put(f, self.hv(_imp(_and(self.inv, cond), f)), exit)
        return hit

    def exit_ctx(self, f: S.Expr) -> S.Expr:
        """I && !b ==> f, havocked: f after the loop."""
        return self.context(f, True)

    def body_ctx(self, f: S.Expr) -> S.Expr:
        """I && b ==> f, havocked: f at the start of an iteration."""
        return self.context(f, False)


def _each(build, *cols) -> tuple:
    """build over the posts, column by column: posts whose arguments are
    the same objects as an earlier post's share that post's result, so
    posts that are one object stay one."""
    built, out = S.Memo(), []
    for args in zip(*cols):
        hit = built.get_all(args)
        out.append(built.put_all(args, build(*args)) if hit is None else hit)
    return tuple(out)


class _Wp:
    def __init__(self, tunit: TypedUnit, method: S.MethodDecl,
                 exit_post: S.Expr, exit_kind: str):
        self.tunit = tunit
        self.method = method
        self.exit_post = exit_post
        self.exit_kind = exit_kind
        self.loops = loop_table(method)
        self.sid = itertools.count()
        self.spent = 0          # nodes the substitutions created so far
        # (name, type) of each parameter and local, declarations in walk order
        self.all_vars = [(n, t) for n, t in method.params] + [
            (node.name, node.ty) for node in S.walk(method.body)
            if isinstance(node, S.VarDecl)]

    def new_side(self, kind, formula, line, detail="", post=None) -> _Side:
        return _Side(next(self.sid), kind, line, detail, formula, post)

    def guard_sides(self, e: S.Expr) -> list:
        return [self.new_side(kind, f, line, detail)
                for kind, f, line, detail in collect_guards(e)]

    def wp(self, st: S.Stmt, posts: tuple, kinds: tuple, sides: list):
        """Returns (pres, pre_kinds, sides'): a pre and its kind per post
        (posts and kinds are tuples of one length), and the sides. sides'
        entries with sid matching an input side are its transformed
        continuation. Each post follows the post's rules; where two posts
        are one object the rules build one formula for both."""
        if isinstance(st, S.Block):
            for s in reversed(st.stmts):
                posts, kinds, sides = self.wp(s, posts, kinds, sides)
            return posts, kinds, sides
        if isinstance(st, S.VarDecl):
            if st.init is None:
                return posts, kinds, sides
            return self.assign_like(st, st.name, st.init, posts, kinds, sides)
        if isinstance(st, S.Assign):
            return self.assign_like(st, st.name, st.expr, posts, kinds, sides)
        if isinstance(st, S.ArrayAssign):
            new = (self.guard_sides(st.index) + self.guard_sides(st.expr) +
                   [self.new_side("bounds-guard",
                                  self.index_guard(st), st.pos[0],
                                  f"store index {expr_to_str(st.index)} within {st.name}")])
            return self.rewritten(
                lambda f, memo: subst_store(f, st.name, st.index, st.expr, memo),
                posts, kinds, sides, new)
        if isinstance(st, S.If):
            new_cond = self.guard_sides(st.cond)
            p1, k1, s1 = self.wp(st.then, posts, kinds, sides)
            if st.orelse is not None:
                p2, k2, s2 = self.wp(st.orelse, posts, kinds, sides)
            else:
                p2, k2, s2 = posts, kinds, list(sides)
            pres = _each(lambda a, b: _and(_imp(st.cond, a), _imp(_not(st.cond), b)),
                         p1, p2)
            merged = self.merge_branches(st.cond, sides, s1, s2)
            out_kinds = tuple(a if a == b else k for k, a, b in zip(kinds, k1, k2))
            return pres, out_kinds, merged + new_cond
        if isinstance(st, (S.While, S.DoWhile)):
            return self.loop(st, posts, kinds, sides)
        if isinstance(st, S.Return):
            # a return ends its path: no side pending after it is required
            # here, and every post is the exit post
            true = S.BoolLit(value=True, pos=st.pos, ty=S.BOOL)
            sides = [replace(s, formula=true) for s in sides]
            if isinstance(st.expr, S.Call):
                return self.call(st, st.expr, None, posts, kinds, sides)
            pre = self.exit_post
            if st.expr is not None:
                pre = subst_result(pre, st.expr)
                sides = sides + self.guard_sides(st.expr)
            return (pre,) * len(posts), (self.exit_kind,) * len(posts), sides
        if isinstance(st, S.AssertStmt):
            side = self.new_side("assert", st.formula, st.pos[0])
            return (_each(lambda p: _imp(st.formula, p), posts), kinds,
                    sides + [side])
        raise VcgenError(f"cannot compute wp of {type(st).__name__}")

    def assign_like(self, st, name, expr, posts, kinds, sides):
        if isinstance(expr, S.Call):
            return self.call(st, expr, name, posts, kinds, sides)
        return self.rewritten(lambda f, memo: subst(f, name, expr, memo),
                              posts, kinds, sides, self.guard_sides(expr))

    def rewritten(self, tr, posts, kinds, sides, new):
        """The posts and every pending side through tr(formula, memo), all
        with one memo, which is charged to the budget; then the new sides.
        A memo spends as soon as it has created more nodes than the budget
        has left, so a substitution past the budget stops at once."""
        memo = S.Memo(VCGEN_BUDGET - self.spent, self.spend)
        out = (tuple(tr(p, memo) for p in posts), kinds,
               [replace(s, formula=tr(s.formula, memo)) for s in sides] + new)
        self.spend(memo)
        return out

    def spend(self, memo):
        """Charge the nodes a substitution memo created to the method's
        budget."""
        self.spent += memo.created
        if self.spent > VCGEN_BUDGET:
            raise VcgenError(
                f"obligations of method {self.method.name!r} exceed the vcgen "
                f"budget of {VCGEN_BUDGET} substituted nodes")

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
        loop_id = self.loops.get(st)
        types = dict(self.all_vars)
        mapping = {name: S.FreshVar(name=f"{name}@L{loop_id}", base=name,
                                    loop_id=loop_id, ty=types.get(name))
                   for name in sorted(assigned_vars(st.body))}
        # typecheck leaves the invariant's LoopEntry reads untagged; tagging
        # them with this loop lets only its havoc consume them
        tag = _entry_tag(loop_id)
        inv = S.rewrite(annot.invariant, lambda e: replace(e, label=tag)
                        if isinstance(e, S.AtLabel) else None)
        v, decrease = annot.variant, None
        if v is not None:
            v_entry = S.AtLabel(operand=v, label=tag, pos=v.pos, ty=v.ty)
            decrease = S.Binary(op="<", left=v, right=v_entry, pos=v.pos, ty=S.BOOL)
        return _Loop(loop_id, st.pos[0], inv, st.cond, decrease, mapping,
                     havoc(inv, {}, tag), S.Memo(VCGEN_BUDGET - self.spent, self.spend))

    def loop(self, st, posts, kinds, sides):
        """while (b) S and do S while (b) with invariant I, over the havoc
        of the body's variables: goals pending after the loop hold under
        I && !b, the condition's guards under I, the body preserves I
        (I && b ==> wp(S, I)), and each post becomes a loop-exit side, at
        the end of the loop's list (one side for posts that are one formula
        of one kind). A while loop's pre is I at its first check, the same
        object for every post. A do loop's body runs once before that
        check, so its pre and first-run sides come from the preservation
        pass itself, or from a pass of their own to the first check's I
        when I reads LoopEntry, and its body passes are labelled
        invariant-init. Each obligation thus carries at most one havoc
        generation per loop, so trace instantiation always corresponds to
        an actual step.

        A loop with a variant walks its body once: the decrease post rides
        along as a second post beside I, and variant_sides reads the
        decrease claim from that pass. The pass's sides each record the
        post they came from (0 for I's, 1 for the decrease's, None for
        both); the preservation listing takes I's and the shared ones.

        The sides' ids also number the call-result symbols (f@rN), so they
        are drawn in one order: a while loop's condition guards before its
        body pass, a do loop's after it."""
        lp = self.loop_frame(st)
        out = [replace(s, formula=lp.exit_ctx(s.formula)) for s in sides]
        do = isinstance(st, S.DoWhile)
        guards = [] if do else self.guard_sides(st.cond)
        body_posts = (lp.inv,) + ((lp.decrease,) if lp.decrease is not None else ())
        body_kinds = ("invariant-init" if do else "invariant-preserve",
                      "variant-decrease")[:len(body_posts)]
        (p_body, *p_dec), (body_kind, *_), body_sides = self.wp(
            st.body, body_posts, body_kinds, [])
        preserve = [s for s in body_sides if s.post != 1]
        pre, pre_kind = lp.first, "invariant-init"
        if do:
            if lp.first is lp.inv:
                pre, pre_kind, first_sides = p_body, body_kind, preserve
            else:
                (pre,), (pre_kind,), first_sides = self.wp(
                    st.body, (lp.first,), ("invariant-init",), [])
            # the first run's goals hold unconditionally, under ids of their own
            out.extend(replace(s, sid=next(self.sid), post=None) for s in first_sides)
            guards = self.guard_sides(st.cond)
        out.extend(replace(g, formula=lp.hv(_imp(lp.inv, g.formula)))
                   for g in guards)
        out.append(self.new_side("invariant-preserve", lp.body_ctx(p_body),
                                 lp.line))
        out.extend(replace(s, formula=lp.body_ctx(s.formula), post=None)
                   for s in preserve)
        if p_dec:
            out.extend(self.variant_sides(st, lp, p_dec[0], body_sides))
        # one exit side per post, or one for the posts that are one formula
        # of one kind
        for i, (post, kind) in enumerate(zip(posts, kinds)):
            of = [j for j, (p, k) in enumerate(zip(posts, kinds)) if p is post and k == kind]
            if of[0] == i:
                out.append(self.new_side(kind, lp.exit_ctx(post), lp.line, "loop exit",
                                         None if len(of) == len(posts) else i))
        self.spend(lp.memo)
        return (pre,) * len(posts), (pre_kind,) * len(posts), out

    def variant_sides(self, st, lp, p_dec, body_sides):
        """Non-negativity, and the decrease claim read from the body's one
        pass: its pre for the decrease post, p_dec, then, in pass order,
        the pass's sides of the decrease post and its shared sides of kind
        variant-decrease.

        When the body contains loops, wp bottoms out at the first inner
        invariant and the decrease claim continues through the inner loops'
        exit chains: those are the decrease post's sides, whatever kind a
        return on their path gave them. The inner loops' own decrease
        claims are shared, and are listed here as well as in the
        preservation listing: both listings hold one goal object, and the
        repeat stays in the inventory."""
        out = [self.new_side("variant-nonneg", lp.body_ctx(_ge0(st.annot.variant)),
                             lp.line),
               self.new_side("variant-decrease", lp.body_ctx(p_dec), lp.line)]
        for s in body_sides:
            if s.post == 1 or s.post is None and s.kind == "variant-decrease":
                out.append(self.new_side("variant-decrease",
                                         lp.body_ctx(s.formula), s.line, s.detail))
        return out

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

    def call(self, st, call: S.Call, target: str | None, posts, kinds, sides):
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
            pre = _imp(assumption, subst_result(self.exit_post, res))
            return (pre,) * len(posts), (self.exit_kind,) * len(posts), sides + new
        memo = S.Memo(VCGEN_BUDGET - self.spent, self.spend)
        conts = tuple(subst(p, target, res, memo) for p in posts)
        # a side after the call holds once the callee's contract does
        sides = [replace(s, formula=_imp(assumption, subst(s.formula, target, res, memo)))
                 for s in sides]
        self.spend(memo)
        return _each(lambda c: _imp(assumption, c), conts), kinds, sides + new


# ---------------------------------------------------------------------------
# obligation assembly

# the state nodes, each named as an escape from closure reports it
_STATE_NODES = {S.AtLabel: "LoopEntry label", S.PermutPred: "Permut predicate",
                S.ResultExpr: "\\result", S.OldExpr: "\\old"}


def _union(a, b):
    """a | b of two dicts (a's order, b's values) or two frozensets, or the
    one that is not empty, which is then not copied."""
    return a | b if a and b else a or b


def _closure_info(goal: S.Expr, hyps=(), memo=None):
    """What closing an obligation reads from its formulas: the free
    Var/FreshVar symbols with their sorts, respecting quantifier scoping,
    in walk order from the goal on; the sorted ids of the loops whose havoc
    symbols occur; and whether the goal holds an \\old, which denotes the
    entry state there. Any other state node escaped the closure of its
    clause, and is an internal error.

    The formulas are walked as the DAG they are, through `memo`: the
    obligations of one method share one, which dies once they are built,
    and a call without one gets a fresh Memo. It keeps (sorts, loop ids,
    state classes) of each node's subtree under the names bound above it.
    A node merges its children's sorts in walk order as dict.update does
    (`_union`), keeping each name at its first position with its last
    sort, as a walk of the tree does."""
    memo = S.Memo() if memo is None else memo
    # the info of a subtree without symbols, loops or state nodes; no
    # sorts dict is changed once built, so entries share them
    nothing = ({}, frozenset(), frozenset())

    def info(f, bound):
        hit = memo.get(f, bound)
        if hit is not None:
            return hit
        cls = type(f)
        if cls is S.Var:
            out = (({f.name: f.ty}, nothing[1], nothing[2])
                   if f.name not in bound and f.ty is not None else nothing)
        elif cls is S.FreshVar:
            out = ({f.name: f.ty}, frozenset((f.loop_id,) if f.loop_id >= 0 else ()),
                   nothing[2])
        elif cls is S.Forall:
            out = info(f.body, bound | {n for n, _ in f.binders})
        else:
            out = nothing if cls not in _STATE_NODES else (
                nothing[0], nothing[1], frozenset((cls,)))
            for child in S.children(f):
                # a side that adds nothing leaves the other as it is
                more = info(child, bound)
                if out is nothing:
                    out = more
                elif more is not nothing:
                    out = tuple(map(_union, out, more))
        return memo.put(f, out, bound)

    sorts, loop_ids, goal_states = {}, set(), set()
    escaped = set()
    for f, states in [(goal, goal_states)] + [(h, escaped) for h in hyps]:
        f_sorts, f_loops, f_states = info(f, frozenset())
        sorts.update(f_sorts)
        loop_ids.update(f_loops)
        states.update(f_states)
    # info's closure holds info: unbinding it breaks that cycle, so the
    # memo is freed with its last holder, not at the next collection
    del info
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
                     memo=None, tables=None):
    # unwrapping \old keeps every symbol and their order, so the walk may
    # precede it; memo, the method's, serves unwrap_old and _closure_info
    # and keeps what closing gave each (goal, hypotheses) pair of objects,
    # so that a goal listed twice is walked and unwrapped once
    memo = S.Memo() if memo is None else memo
    hit = memo.get_all((goal, hyps))
    if hit is None:
        sorts, loop_ids, old = _closure_info(goal, hyps, memo)
        hit = memo.put_all((goal, hyps), (
            sorts, loop_ids, unwrap_old(goal, memo) if old else goal))
    sorts, loop_ids, goal = hit
    name = _NAMES[kind]
    if detail:
        name = f"{name} ({detail})"
    return Obligation(
        id=f"{method}:{seq:03d}:{kind}",
        name=f"{name} [line {line}]",
        origin=Origin(method=method, line=line, kind=kind, detail=detail),
        hypotheses=hyps, hyp_sources=hyp_sources,
        goal=goal, var_sorts=dict(sorts), loop_ids=loop_ids, detail=detail,
        tables=tables)


def generate_obligations(tunit: TypedUnit, method: str | None = None) -> ObligationSet:
    """Deterministic obligation set for one method (or all of them), with one
    obligation per unit lemma; lemmas also appear among every other
    obligation's hypotheses."""
    unit = tunit.unit
    if method is None:
        targets = [m.name for m in unit.methods]
    elif method in tunit.method_index:
        targets = [method]
    else:
        raise VcgenError(f"unknown method {method!r}")
    obset = ObligationSet(unit=unit.name, unit_digest=unit_digest(tunit),
                          obligations=[], methods=tuple(targets))
    obligations, tables = obset.obligations, (obset._forms, obset._renders)

    lemma_forms = []
    for lem in unit.lemmas:
        g = unwrap_old(lem.statement)
        lemma_forms.append(g)
        sorts, _, _ = _closure_info(g)
        obligations.append(Obligation(
            id=f"lemma:{lem.name}", name=f"lemma {lem.name}",
            origin=Origin(method="", line=lem.pos[0], kind="lemma", detail=lem.name),
            hypotheses=(), goal=g, var_sorts=sorts, tables=tables))

    for mname in targets:
        try:
            obligations.extend(_method_obligations(tunit, mname, lemma_forms, tables))
        except RecursionError:
            # a formula nested deeper than Python's stack (a long run of
            # asserts wraps the post once per assert)
            raise VcgenError(f"obligations of method {mname!r}: nesting too deep "
                             "to generate") from None
    return obset


def _method_obligations(tunit: TypedUnit, mname: str, lemma_forms, tables) -> list:
    m = tunit.method(mname)
    requires = unwrap_old(m.spec.requires)
    # one tuple each, which every obligation of the main pass holds
    base_hyps = (*lemma_forms, requires)
    base_sources = ("lemma",) * len(lemma_forms) + ("requires",)
    out = []
    seq = itertools.count()
    # the method's memo, see _make_obligation
    memo = S.Memo()

    # main pass: the declared ensures, plus every post-independent obligation
    engine = _Wp(tunit, m, m.spec.ensures, "ensures")
    (pre,), (kind,), sides = engine.wp(m.body, (engine.exit_post,), ("ensures",), [])
    out.append(_make_obligation(mname, next(seq), kind, m.pos[0], "",
                                pre, base_hyps, base_sources, memo, tables))
    for s in sides:
        out.append(_make_obligation(mname, next(seq), s.kind, s.line, s.detail,
                                    s.formula, base_hyps, base_sources, memo, tables))

    # behaviour passes contribute only their own postcondition chain. A pass
    # walks the main pass's statements, so its pre and sides line up one to
    # one with the main pass's: the chain is in those of kind `behaviour`,
    # and in any other whose formula differs from the main pass's (a pre
    # that reached a loop, a return inside a loop body)
    main = [pre] + [s.formula for s in sides]
    for b in m.spec.behaviours:
        hyps = (*base_hyps, unwrap_old(b.assumes))
        sources = (*base_sources, "assumes")
        engine = _Wp(tunit, m, b.ensures, "behaviour")
        (pre,), (kind,), sides = engine.wp(m.body, (engine.exit_post,),
                                           ("behaviour",), [])
        chain = [_Side(-1, kind, m.pos[0], "", pre)] + sides
        for s, main_formula in zip(chain, main):
            if s.kind == "behaviour" or s.formula != main_formula:
                detail = b.name if not s.detail else f"{b.name}, {s.detail}"
                out.append(_make_obligation(mname, next(seq), "behaviour", s.line,
                                            detail, s.formula, hyps, sources,
                                            memo, tables))
    return out


# ---------------------------------------------------------------------------
# the wp operation of the public API (single statement, loop-free friendly)

def wp(tunit: TypedUnit, method: str, stmt: S.Stmt, post: S.Expr):
    """Weakest precondition of one typed statement: (pre, side obligations as
    (kind, formula) pairs). Statement and post must come from the typed unit's
    method scope."""
    m = tunit.method(method)
    engine = _Wp(tunit, m, post, "ensures")
    (pre,), _, sides = engine.wp(stmt, (post,), ("ensures",), [])
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

    The obligations that share (method, havoc symbols, call-result symbols)
    form a group: they are instantiated on one list of state bundles, so
    they are evaluated together, bundle by bundle. For each bundle one
    eval_formula call evaluates every test of the group that has not ended
    (a CompiledTests; see interp): each test's `==>` chain is a path in a
    prefix trie of antecedent closures, walked once per bundle, so an
    antecedent that many tests share runs once and a false one passes
    every test under it vacuously. A test that a bundle falsifies or that
    faults ends there and is not evaluated again.

    The groups and their CompiledTests are derived once per set and kept
    on it (see _trace_groups): a later call on an unchanged set neither
    groups nor compiles, but for a (mode, state layout) it has not met.

    What depends on the trace alone is derived once per call, in an index
    that the groups share: each method's segments, each callee's recorded
    results, and the state bundles of each group. Its BindCache coerces
    each recorded value once per type, binds each Old state once per bind
    class and keeps which tests have ended. The index and its cache belong
    to the call alone: nothing keeps them once it returns, and a later call
    starts afresh.

    A fault (EvalError or ExecutionFault) in a test makes its obligation
    not-instantiable with the fault's message; it never ends the call.
    """
    if outcome.status != "normal":
        raise VcgenError("trace validation needs an outcome with status 'normal'")
    if outcome.trace is None:
        raise VcgenError("outcome was produced without trace collection")
    if obset.unit_digest != outcome.unit_digest:
        raise VcgenError("unit mismatch between obligation set and outcome")

    index = _TraceIndex(outcome)
    obligations = obset.obligations
    results = [None] * len(obligations)
    for key, members, tests in _trace_groups(obset):
        if key is None:
            unmet = "no program point"
        elif key[0] not in index.segments:
            unmet = f"method {key[0]} not in trace"
        else:
            unmet = next((f"no recorded call of {callee}" for _, callee in key[2]
                          if callee not in index.results), None)
        if unmet is not None:
            for k in members:
                results[k] = ObligationTraceResult(obligations[k].id,
                                                   "not-instantiable", unmet)
            continue
        bundles = index.bundles(*key)
        for states in bundles:
            for t, end in eval_formula(tests, states, index.mode, cache=index.cache):
                k = members[t]
                if end is False:
                    witness = {n: repr(v) for n, v in states["Here"].items()}
                    results[k] = ObligationTraceResult(
                        obligations[k].id, "fail", "falsified by recorded state", witness)
                else:
                    results[k] = ObligationTraceResult(
                        obligations[k].id, "not-instantiable", str(end))
        verdict, detail = (("pass", f"{len(bundles)} instantiation(s)") if bundles else
                           ("not-instantiable", "no matching snapshots in trace"))
        for k in members:
            if results[k] is None:
                results[k] = ObligationTraceResult(obligations[k].id, verdict, detail)
    return TraceValidationReport(method=outcome.method, results=results)


def _trace_groups(obset: ObligationSet) -> tuple:
    """The set's groups as (key, positions, tests): key is (method, havoc,
    result_syms), havoc the sorted (loop id, symbol, variable it stands
    for) and result_syms the sorted (call-result symbol, callee) of the
    members' free symbols, and tests a CompiledTests of the members'
    validation formulas. The lemmas are one group, with key and tests None.
    An obligation is frozen, so the groups are kept on the set beside the
    members they were derived from, and derived again when the set's list
    holds another member."""
    kept, groups = obset._trace_groups
    obs = obset.obligations
    if len(kept) == len(obs) and all(map(operator.is_, kept, obs)):
        return groups
    members = {}
    for k, ob in enumerate(obs):
        key = None
        if ob.kind != "lemma":
            havoc, result_syms = set(), set()
            for f in [ob.goal, *ob.hypotheses]:
                for n in S.walk(f):
                    if isinstance(n, S.FreshVar):
                        if n.loop_id >= 0:
                            havoc.add((n.loop_id, n.name, n.base))
                        elif n.base.endswith(".result"):
                            result_syms.add((n.name, n.base[:-len(".result")]))
            key = (ob.origin.method, tuple(sorted(havoc)), tuple(sorted(result_syms)))
        members.setdefault(key, []).append(k)
    groups = tuple(
        (key, ks, None if key is None else
         CompiledTests(validation_formula(obs[k]) for k in ks))
        for key, ks in members.items())
    obset._trace_groups = tuple(obs), groups
    return groups


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
        open_segs = {}
        for snap in outcome.trace:
            if snap.kind == "entry":
                open_segs[snap.method] = seg = [snap]
                self.segments.setdefault(snap.method, []).append((dict(snap.state), seg))
            elif snap.method in open_segs:
                open_segs[snap.method].append(snap)
            if snap.kind == "exit":
                self.results.setdefault(snap.method, []).append(snap.result)

    def bundles(self, method, havoc, result_syms) -> list:
        """The state bundle of every instantiation of the free symbols
        havoc and result_syms (as a group's key holds them) in method, in
        evaluation order: segment by segment, combo by combo, then each
        pick of recorded callee results.

        A call-result symbol is universally quantified in the obligation,
        so any recorded return value of the callee is a legitimate
        instantiation; the assumed callee contract vacuously discharges
        mispaired ones. A segment's entry state is the Old state of every
        bundle of that segment, and the Here state of those that
        instantiate nothing."""
        out = []
        picks = [dict(p) for p in itertools.product(
            *[[(name, v) for v in self.results[callee]] for name, callee in result_syms])]
        loops = sorted({loop_id for loop_id, _, _ in havoc})
        for old, seg in self.segments[method]:
            for combo in _combos(seg, loops):
                env = {}
                for loop_id, name, base in havoc:
                    state = combo[loop_id].state
                    if base not in state:
                        break
                    env[name] = state[base]
                else:
                    for pick in picks:
                        here = {**old, **env, **pick} if env or pick else old
                        out.append({"Here": here, "Old": old})
        return out


def validation_formula(ob) -> S.Expr:
    """The ground test of an obligation: its non-lemma hypotheses ==> goal.

    Trace validation evaluates it on recorded states, and the prover on a
    candidate counterexample. Lemma hypotheses are valid, so conditioning
    on them cannot change a verdict; leaving them out avoids their
    (typically unbounded) quantifiers."""
    test = ob.goal
    for h, src in zip(reversed(ob.hypotheses), reversed(ob.hyp_sources)):
        if src != "lemma":
            test = _imp(h, test)
    return test


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
