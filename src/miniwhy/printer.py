"""Canonical pretty-printer; parse(pretty_print(u)) is structurally equal to u."""

from __future__ import annotations

from . import syntax as S


def expr_to_str(e: S.Expr, parent_prec: int = 0) -> str:
    if isinstance(e, S.IntLit):
        return str(e.value)
    if isinstance(e, S.RealLit):
        return e.text
    if isinstance(e, S.BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, S.Var):
        return e.name
    if isinstance(e, S.FreshVar):
        return e.name
    if isinstance(e, S.Coerce):
        return expr_to_str(e.operand, parent_prec)
    if isinstance(e, S.Unary):
        s = f"{e.op}{expr_to_str(e.operand, S.UNARY_PREC)}"
        return s if parent_prec <= S.UNARY_PREC else f"({s})"
    if isinstance(e, S.Binary):
        # binding strengths come from the one table in syntax
        prec = S.PREC[e.op]
        if e.op == "==>":
            # right associative
            s = f"{expr_to_str(e.left, prec + 1)} {e.op} {expr_to_str(e.right, prec)}"
        else:
            s = f"{expr_to_str(e.left, prec)} {e.op} {expr_to_str(e.right, prec + 1)}"
        return s if prec >= parent_prec else f"({s})"
    if isinstance(e, S.Index):
        return f"{expr_to_str(e.array, S.UNARY_PREC)}[{expr_to_str(e.index)}]"
    if isinstance(e, S.Call):
        return f"{e.name}({', '.join(expr_to_str(a) for a in e.args)})"
    if isinstance(e, S.PredCall):
        return f"{e.name}({', '.join(expr_to_str(a) for a in e.args)})"
    if isinstance(e, S.NewArray):
        return f"new {e.elem}[{expr_to_str(e.size)}]"
    if isinstance(e, S.OldExpr):
        return f"\\old({expr_to_str(e.operand)})"
    if isinstance(e, S.ResultExpr):
        return "\\result"
    if isinstance(e, S.LengthExpr):
        return f"\\length({expr_to_str(e.array)})"
    if isinstance(e, S.Forall):
        groups = []
        for name, ty in e.binders:
            tyname = "integer" if ty.kind == "int" else ty.kind
            groups.append((tyname, name))
        # one \forall per binder type run, names space separated
        out = []
        k = 0
        while k < len(groups):
            tyname = groups[k][0]
            names = [groups[k][1]]
            while k + 1 < len(groups) and groups[k + 1][0] == tyname:
                k += 1
                names.append(groups[k][1])
            k += 1
            out.append(f"\\forall {tyname} {' '.join(names)}")
        if len(out) != 1:
            # mixed binder sorts print as nested quantifiers
            inner = expr_to_str(e.body, 0)
            for q in reversed(out):
                inner = f"{q}; {inner}"
            s = inner
        else:
            s = f"{out[0]}; {expr_to_str(e.body, 0)}"
        return s if parent_prec == 0 else f"({s})"
    if isinstance(e, S.PermutPred):
        return (f"Permut{{{e.label1},{e.label2}}}({expr_to_str(e.array)}, "
                f"{expr_to_str(e.lo)}, {expr_to_str(e.hi)})")
    if isinstance(e, S.AtLabel):
        return f"\\at({expr_to_str(e.operand)}, {e.label})"
    if isinstance(e, S.Store):
        return (f"\\store({expr_to_str(e.array)}, {expr_to_str(e.index)}, "
                f"{expr_to_str(e.value)})")
    if isinstance(e, S.PermutAtom):
        return (f"\\permut({expr_to_str(e.a1)}, {expr_to_str(e.a2)}, "
                f"{expr_to_str(e.lo)}, {expr_to_str(e.hi)})")
    raise TypeError(f"cannot print {type(e).__name__}")


class _Printer:
    def __init__(self):
        self.lines: list[str] = []
        self.depth = 0

    def emit(self, text: str):
        self.lines.append("    " * self.depth + text if text else "")

    def annot(self, clauses: list[str]):
        if not clauses:
            return
        self.emit(f"/*@ {clauses[0]}")
        for c in clauses[1:]:
            self.emit(f"  @ {c}")
        self.emit("  @*/")

    def unit(self, u: S.SourceUnit):
        first = True
        for lem in u.lemmas:
            if not first:
                self.emit("")
            first = False
            self.annot([f"lemma {lem.name} : {expr_to_str(lem.statement)};"])
        for m in u.methods:
            if not first:
                self.emit("")
            first = False
            self.method(m)

    def method(self, m: S.MethodDecl):
        clauses = []
        spec = m.spec
        if spec is not None:
            if spec.requires != S.BoolLit(value=True):
                clauses.append(f"requires {expr_to_str(spec.requires)};")
            if spec.ensures != S.BoolLit(value=True):
                clauses.append(f"ensures {expr_to_str(spec.ensures)};")
            for b in spec.behaviours:
                clauses.append(f"behaviour {b.name} :")
                clauses.append(f"  assumes {expr_to_str(b.assumes)};")
                clauses.append(f"  ensures {expr_to_str(b.ensures)};")
        self.annot(clauses)
        params = ", ".join(f"{ty} {name}" for name, ty in m.params)
        self.emit(f"{m.return_type} {m.name}({params}) {{")
        self.depth += 1
        for st in m.body.stmts:
            self.stmt(st)
        self.depth -= 1
        self.emit("}")

    def loop_annot(self, a: S.LoopAnnot):
        clauses = [f"loop_invariant {expr_to_str(a.invariant)};"]
        if a.variant is not None:
            clauses.append(f"loop_variant {expr_to_str(a.variant)};")
        self.annot(clauses)

    def stmt(self, st: S.Stmt):
        if isinstance(st, S.Block):
            self.emit("{")
            self.depth += 1
            for s in st.stmts:
                self.stmt(s)
            self.depth -= 1
            self.emit("}")
        elif isinstance(st, S.VarDecl):
            init = f" = {expr_to_str(st.init)}" if st.init is not None else ""
            if st.ghost:
                self.annot([f"ghost {st.ty} {st.name}{init};"])
            else:
                self.emit(f"{st.ty} {st.name}{init};")
        elif isinstance(st, S.Assign):
            if st.ghost:
                self.annot([f"set {st.name} = {expr_to_str(st.expr)};"])
            else:
                self.emit(f"{st.name} = {expr_to_str(st.expr)};")
        elif isinstance(st, S.ArrayAssign):
            self.emit(f"{st.name}[{expr_to_str(st.index)}] = {expr_to_str(st.expr)};")
        elif isinstance(st, S.If):
            self.emit(f"if ({expr_to_str(st.cond)})")
            self.indent_stmt(st.then)
            if st.orelse is not None:
                self.emit("else")
                self.indent_stmt(st.orelse)
        elif isinstance(st, S.While):
            self.loop_annot(st.annot)
            self.emit(f"while ({expr_to_str(st.cond)})")
            self.indent_stmt(st.body)
        elif isinstance(st, S.DoWhile):
            self.loop_annot(st.annot)
            self.emit("do")
            self.indent_stmt(st.body)
            self.emit(f"while ({expr_to_str(st.cond)});")
        elif isinstance(st, S.Return):
            if st.expr is None:
                self.emit("return;")
            else:
                self.emit(f"return {expr_to_str(st.expr)};")
        elif isinstance(st, S.AssertStmt):
            self.annot([f"assert {expr_to_str(st.formula)};"])
        else:
            raise TypeError(f"cannot print {type(st).__name__}")

    def indent_stmt(self, st: S.Stmt):
        if isinstance(st, S.Block):
            self.stmt(st)
        else:
            self.depth += 1
            self.stmt(st)
            self.depth -= 1


def pretty_print(unit: S.SourceUnit) -> str:
    """Render a SourceUnit as canonical MiniJML text."""
    p = _Printer()
    p.unit(unit)
    return "\n".join(p.lines) + "\n"
