"""AST for the MiniJML annotated mini-language.

Nodes are plain dataclasses; equality is structural and ignores source
positions and inferred types, so that parse(pretty_print(u)) == u can be
stated directly. Nodes are never mutated after construction, which makes
units safe to share between threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional


# ---------------------------------------------------------------------------
# Types

@dataclass(frozen=True)
class SemType:
    kind: str           # 'int' | 'real' | 'bool' | 'array'
    elem: Optional[str] = None   # 'int' | 'real' for arrays

    def __str__(self) -> str:
        if self.kind == "array":
            return f"{self.elem}[]"
        return self.kind

    @property
    def is_numeric(self) -> bool:
        return self.kind in ("int", "real")


INT = SemType("int")
REAL = SemType("real")
BOOL = SemType("bool")
ARRAY_INT = SemType("array", "int")
ARRAY_REAL = SemType("array", "real")
VOID = SemType("void")

LABELS = ("Old", "Pre", "Here", "LoopEntry")


def array_of(elem: SemType) -> SemType:
    return ARRAY_INT if elem.kind == "int" else ARRAY_REAL


def elem_type(t: SemType) -> SemType:
    return INT if t.elem == "int" else REAL


# ---------------------------------------------------------------------------
# Expressions and formulas (formulas are bool-typed expressions plus the
# two-state constructs)

@dataclass
class Node:
    pass


@dataclass(eq=True)
class Expr(Node):
    pos: tuple = field(default=(0, 0), compare=False)
    # filled in by the typechecker on the typed copy
    ty: Optional[SemType] = field(default=None, compare=False, repr=False)


@dataclass(eq=True)
class IntLit(Expr):
    value: int = 0


@dataclass(eq=True)
class RealLit(Expr):
    text: str = "0.0"                 # literal as written, round-trips
    value: Fraction = Fraction(0)     # exact decimal value


@dataclass(eq=True)
class BoolLit(Expr):
    value: bool = False


@dataclass(eq=True)
class Var(Expr):
    name: str = ""


@dataclass(eq=True)
class Unary(Expr):
    op: str = "-"                     # '-' | '!'
    operand: Expr = None


@dataclass(eq=True)
class Binary(Expr):
    op: str = "+"   # + - * / && || ==> == != < <= > >=
    left: Expr = None
    right: Expr = None


@dataclass(eq=True)
class Index(Expr):
    array: Expr = None
    index: Expr = None


@dataclass(eq=True)
class Call(Expr):
    name: str = ""
    args: list = field(default_factory=list)


@dataclass(eq=True)
class NewArray(Expr):
    elem: SemType = None
    size: Expr = None


@dataclass(eq=True)
class OldExpr(Expr):
    """\\old(e) — e evaluated in the method pre-state."""
    operand: Expr = None


@dataclass(eq=True)
class ResultExpr(Expr):
    """\\result in an ensures clause."""


@dataclass(eq=True)
class LengthExpr(Expr):
    """\\length(a) — intrinsic array length."""
    array: Expr = None


@dataclass(eq=True)
class Forall(Expr):
    binders: list = field(default_factory=list)   # [(name, SemType)]
    body: Expr = None


@dataclass(eq=True)
class PermutPred(Expr):
    """Permut{L1,L2}(a, lo, hi) — multiset equality of a[lo..hi] between the
    two labeled snapshots. Parse-only: typecheck lowers it to a PermutAtom,
    so no typed unit holds one."""
    label1: str = "Old"
    label2: str = "Here"
    array: Expr = None
    lo: Expr = None
    hi: Expr = None


@dataclass(eq=True)
class PredCall(Expr):
    """Reference to a predefined predicate (is_sqrt)."""
    name: str = ""
    args: list = field(default_factory=list)


# Internal nodes (never produced by the parser; used by typecheck and vcgen)

@dataclass(eq=True)
class Coerce(Expr):
    """Explicit int->real widening inserted by the typechecker."""
    operand: Expr = None


@dataclass(eq=True)
class FreshVar(Expr):
    """Havoc symbol: an arbitrary value of the named program variable."""
    name: str = ""     # qualified, e.g. "i@L2"
    base: str = ""     # the program variable it stands for
    loop_id: int = -1


@dataclass(eq=True)
class AtLabel(Expr):
    """e evaluated in a labeled state. Typecheck reads a Permut LoopEntry
    label as an untagged one, which the interpreter evaluates in the
    loop-entry state; vcgen tags each with its loop (`LoopEntry#k`), so only
    that loop's havoc consumes it. No other label is evaluated."""
    operand: Expr = None
    label: str = "LoopEntry"


@dataclass(eq=True)
class Store(Expr):
    """Functional array update (vcgen-internal)."""
    array: Expr = None
    index: Expr = None
    value: Expr = None


@dataclass(eq=True)
class PermutAtom(Expr):
    """Lowered Permut: multiset equality of two explicit array terms on
    [lo..hi]. Typecheck builds it, with each term the one typed array read
    in its label's state: \\old(a) for Old and Pre, an AtLabel for
    LoopEntry, a itself for Here."""
    a1: Expr = None
    a2: Expr = None
    lo: Expr = None
    hi: Expr = None


# ---------------------------------------------------------------------------
# Statements

@dataclass(eq=True)
class Stmt(Node):
    pos: tuple = field(default=(0, 0), compare=False)


@dataclass(eq=True)
class VarDecl(Stmt):
    name: str = ""
    ty: SemType = None
    init: Optional[Expr] = None
    ghost: bool = False


@dataclass(eq=True)
class Assign(Stmt):
    name: str = ""
    expr: Expr = None
    ghost: bool = False       # true for /*@ set x = e; @*/


@dataclass(eq=True)
class ArrayAssign(Stmt):
    name: str = ""
    index: Expr = None
    expr: Expr = None


@dataclass(eq=True)
class If(Stmt):
    cond: Expr = None
    then: Stmt = None
    orelse: Optional[Stmt] = None


@dataclass(eq=True)
class LoopAnnot(Node):
    invariant: Expr = None
    variant: Optional[Expr] = None


@dataclass(eq=True)
class While(Stmt):
    annot: LoopAnnot = None
    cond: Expr = None
    body: Stmt = None


@dataclass(eq=True)
class DoWhile(Stmt):
    annot: LoopAnnot = None
    body: Stmt = None
    cond: Expr = None


@dataclass(eq=True)
class Return(Stmt):
    expr: Optional[Expr] = None


@dataclass(eq=True)
class AssertStmt(Stmt):
    formula: Expr = None


@dataclass(eq=True)
class Block(Stmt):
    stmts: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Declarations

@dataclass(eq=True)
class Behaviour(Node):
    name: str = ""
    assumes: Expr = None
    ensures: Expr = None


@dataclass(eq=True)
class MethodSpec(Node):
    requires: Expr = None      # defaults to true
    ensures: Expr = None       # defaults to true
    behaviours: list = field(default_factory=list)


@dataclass(eq=True)
class MethodDecl(Node):
    name: str = ""
    params: list = field(default_factory=list)    # [(name, SemType)]
    return_type: SemType = VOID
    spec: MethodSpec = None
    body: Block = None
    pos: tuple = field(default=(0, 0), compare=False)


@dataclass(eq=True)
class LemmaDecl(Node):
    name: str = ""
    statement: Expr = None
    pos: tuple = field(default=(0, 0), compare=False)


@dataclass(eq=True)
class SourceUnit(Node):
    name: str = "unit"
    lemmas: list = field(default_factory=list)
    methods: list = field(default_factory=list)

    def method(self, name: str) -> MethodDecl:
        for m in self.methods:
            if m.name == name:
                return m
        raise KeyError(name)


TRUE = BoolLit(value=True)
FALSE = BoolLit(value=False)


def conj(parts: list) -> Expr:
    """Left-nested conjunction (matching parser associativity); true for []."""
    parts = [p for p in parts if p is not None]
    if not parts:
        return BoolLit(value=True)
    out = parts[0]
    for p in parts[1:]:
        out = Binary(op="&&", left=out, right=p, pos=out.pos)
    return out


def chain(e: Expr, op: str) -> list:
    """The operands of the maximal chain of `op` at e, left to right, under
    any nesting; chain(f, "&&") is the inverse of conj."""
    parts, todo = [], [e]
    while todo:
        n = todo.pop()
        if isinstance(n, Binary) and n.op == op:
            todo += (n.right, n.left)
        else:
            parts.append(n)
    return parts


def bound_from(g: Expr, name: str):
    """(kind, bound expr, delta) when g compares the variable `name` with a
    term: kind is "lo" or "hi", and name's bound is that term plus delta."""
    if not (isinstance(g, Binary) and g.op in ("<", "<=", ">", ">=")):
        return None
    l, r = g.left, g.right
    if isinstance(l, Var) and l.name == name:
        return {"<": ("hi", r, -1), "<=": ("hi", r, 0),
                ">": ("lo", r, 1), ">=": ("lo", r, 0)}[g.op]
    if isinstance(r, Var) and r.name == name:
        return {"<": ("lo", l, 1), "<=": ("lo", l, 0),
                ">": ("hi", l, -1), ">=": ("hi", l, 0)}[g.op]
    return None


# what each comparison operator means, over ints, Fractions and floats
COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
           ">=": operator.ge, "==": operator.eq, "!=": operator.ne}

# binding strength of each binary operator, loosest first; the parser and
# the printer read this one table. Operators associate to the left, except
# `==>` (to the right) and the comparisons, which share a level and do not
# associate. Unary operators bind tighter than any binary one.
PREC = {
    "==>": 1, "||": 2, "&&": 3,
    "==": 4, "!=": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5, "*": 6, "/": 6,
}
UNARY_PREC = 7


# ---------------------------------------------------------------------------
# The term core: every expression rewriter rebuilds terms through these.
#
# Terms are DAGs: wp shares an invariant, a condition or a continuation
# between many formulas, and the obligations of a set share hypotheses. So
# every stage that keeps a result per node object keeps it in a `Memo`, the
# one identity table. A key names a node, or each object of a tuple, by
# identity, plus one extra part compared by value (a state name, a depth).
# An entry holds the objects its key names, so no id of a key is reused
# while the table lives, and a hit requires the very objects: a table
# copied with its owner (copy.deepcopy, pickle) answers for none of the
# copies. A hit costs one dict lookup and the identity check; the
# recursions that make most lookups run inside the table (`rewrite`,
# `cached`). A table lives as long as its owner holds it. A memo of
# `rewrite` or `substitute` is valid for one transformation only, and a
# caller that applies one transformation to many formulas passes them all
# the same memo, so a shared subterm is rewritten once.

class Memo:
    """The identity table of the term core (see above). A stored value is
    never None, which the lookups return for a miss."""

    __slots__ = ("_entries", "created", "limit", "full")

    def __init__(self, limit=math.inf, full=None):
        self._entries = {}
        # the nodes `rewrite` built through the table; once they pass
        # limit, each one more calls full(table)
        self.created = 0
        self.limit = limit
        self.full = full

    def __len__(self):
        return len(self._entries)

    def clear(self):
        self._entries.clear()

    def get(self, node, extra=None):
        """The value put for this very node under extra (None: no extra
        part; a tuple for several)."""
        entry = self._entries.get(id(node) if extra is None else (id(node), extra))
        return entry[1] if entry is not None and entry[0] is node else None

    def put(self, node, value, extra=None):
        self._entries[id(node) if extra is None else (id(node), extra)] = node, value
        return value

    def get_all(self, objs: tuple, extra=None):
        """As `get`, for a key that names each object of objs."""
        entry = self._entries.get((tuple(map(id, objs)), extra))
        if entry is not None and all(map(operator.is_, entry[0], objs)):
            return entry[1]
        return None

    def put_all(self, objs: tuple, value, extra=None):
        self._entries[tuple(map(id, objs)), extra] = objs, value
        return value

    def cached(self, nodes, compute, extra=None) -> list:
        """compute(node, it)'s value for each of nodes, through the table
        under extra: compute runs once per node object, and reaches the
        node's children through the function it is given."""
        entries = self._entries

        def call(node):
            key = id(node) if extra is None else (id(node), extra)
            entry = entries.get(key)
            if entry is None or entry[0] is not node:
                entry = entries[key] = node, compute(node, call)
            return entry[1]
        out = [call(n) for n in nodes]
        # call's closure holds call: unbinding it breaks that cycle
        del call
        return out

    def rewrite(self, f: Expr, fn) -> Expr:
        """`rewrite` through the table, each node's result kept under the
        node alone."""
        entries = self._entries

        def tr(e):
            entry = entries.get(id(e))
            if entry is None or entry[0] is not e:
                out = fn(e)
                entry = entries[id(e)] = e, map_children(e, tr) if out is None else out
                if entry[1] is not e:
                    self.created += 1
                    if self.created > self.limit:
                        self.full(self)
            return entry[1]
        out = tr(f)
        # tr's closure holds tr: unbinding it breaks that cycle, so a table
        # made for this call is freed now, not at the next cyclic collection
        del tr
        return out


# the fields of each node class that hold child nodes, in dataclass field
# order (a list field holds a list of them), for expressions, statements and
# declarations alike; classes absent here are leaves
CHILDREN = {
    Unary: ("operand",), Coerce: ("operand",), OldExpr: ("operand",),
    AtLabel: ("operand",), LengthExpr: ("array",), NewArray: ("size",),
    Forall: ("body",), Binary: ("left", "right"), Index: ("array", "index"),
    Store: ("array", "index", "value"), Call: ("args",), PredCall: ("args",),
    PermutPred: ("array", "lo", "hi"), PermutAtom: ("a1", "a2", "lo", "hi"),
    VarDecl: ("init",), Assign: ("expr",), ArrayAssign: ("index", "expr"),
    If: ("cond", "then", "orelse"), LoopAnnot: ("invariant", "variant"),
    While: ("annot", "cond", "body"), DoWhile: ("annot", "body", "cond"),
    Return: ("expr",), AssertStmt: ("formula",), Block: ("stmts",),
    Behaviour: ("assumes", "ensures"),
    MethodSpec: ("requires", "ensures", "behaviours"),
    MethodDecl: ("spec", "body"), LemmaDecl: ("statement",),
    SourceUnit: ("lemmas", "methods"),
}


def children(e: Node):
    """The child nodes of e, in table order."""
    for name in CHILDREN.get(type(e), ()):
        v = getattr(e, name)
        if isinstance(v, list):
            yield from v
        elif v is not None:
            yield v


def map_children(e: Expr, fn) -> Expr:
    """e with fn applied to each child expression. Returns e itself when no
    child changed; otherwise a copy of e alone (pos and ty kept) with the
    new children."""
    changed = {}
    for name in CHILDREN.get(type(e), ()):
        old = getattr(e, name)
        if isinstance(old, list):
            new = [fn(x) for x in old]
            if any(a is not b for a, b in zip(new, old)):
                changed[name] = new
        elif old is not None:
            new = fn(old)
            if new is not old:
                changed[name] = new
    # what dataclasses.replace does, at a third of its cost
    return type(e)(**{**e.__dict__, **changed}) if changed else e


def rewrite(f: Expr, fn, memo=None) -> Expr:
    """Top-down rewrite: fn(e) returns e's replacement, or None to descend
    into e's children. Unchanged subtrees are returned as they are. fn is
    called once per node object, through `memo` (a fresh Memo when not
    given), which a caller may share between calls with the same fn, so
    that their common subterms are rewritten once."""
    return (Memo() if memo is None else memo).rewrite(f, fn)


def substitute(f: Expr, env: dict, pinned=(), memo=None) -> Expr:
    """Replace each free Var whose name is in env by env[name]. A quantifier
    binder shadows its name below it; nodes of the pinned classes (say
    OldExpr, whose operand denotes another state) are left whole. `memo` is
    as for `rewrite`, valid for this env and pinned alone: below a
    shadowing binder the narrowed env gets a memo of its own."""
    def fn(e):
        if isinstance(e, Var):
            return env.get(e.name, e)
        if isinstance(e, pinned):
            return e
        if isinstance(e, Forall) and any(n in env for n, _ in e.binders):
            inner = {k: v for k, v in env.items()
                     if all(k != n for n, _ in e.binders)}
            return map_children(e, lambda b: substitute(b, inner, pinned))
        return None
    return rewrite(f, fn, memo) if env else f


def walk(node: Node):
    """Yield node and all its descendants through `children`, depth first,
    the last child's subtree first (declaration bodies included)."""
    stack = [node]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(children(n))
