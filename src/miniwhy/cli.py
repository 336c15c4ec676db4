"""Command-line front-end: check, run, vc, prove, test, corpus.

Exit codes: 0 success, 1 contract/proof/harness failure, 2 usage or
input errors. Each subcommand returns its exit code and its report (None
when it prints no report). `main` is the one failure boundary: a
MiniWhyError or OSError from any subcommand ends there as the stderr line
`<file>: <what>: <message>` and exit 2, with no report written; otherwise
`main` adds the timing and writes the report. Reports are deterministic
JSON (stable key order, LF, timing omitted unless MINIWHY_TIMINGS=1).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from . import __version__, corpus
from .errors import ExportError, MiniWhyError, ParseError, TypeCheckFailure
from .export import export_smtlib, export_sexp, export_xml, validate
from .interp import exec_method
from .parser import parse
from .prover import prove_internal
from .typecheck import typecheck
from .values import BINARY64, MODES, RATIONAL
from .vcgen import ObligationSet, generate_obligations

# what each failure is called on stderr; any other MiniWhyError is an `error`
_LABELS = ((ParseError, "parse error"), (TypeCheckFailure, "type error"),
           (ExportError, "export error"), (OSError, "i/o error"))


def _seed_default():
    env = os.environ.get("MINIWHY_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            pass
    return 42


def _report(command, path=None, digest=None):
    return {
        "schema": "miniwhy-report/1",
        "tool": f"miniwhy {__version__}",
        "command": command,
        "input": {"path": path, "sha256": digest},
        "obligations": [],
        "checks": [],
        "summary": {},
        "timing": None,
    }


def write_report(report: dict, path=None):
    """Serialize a report as UTF-8 JSON with LF endings and stable key order;
    identical inputs produce byte-identical output."""
    text = json.dumps(report, indent=2, ensure_ascii=False) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _load(path: str):
    """The file's typed unit and the SHA-256 of its bytes; bytes that are not
    UTF-8 are a parse error at the first bad one."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as ex:
        line_start = data.rfind(b"\n", 0, ex.start) + 1
        raise ParseError(f"invalid UTF-8 byte 0x{data[ex.start]:02x}",
                         data.count(b"\n", 0, ex.start) + 1,
                         len(data[line_start:ex.start].decode("utf-8")) + 1) from None
    name = os.path.splitext(os.path.basename(path))[0]
    return typecheck(parse(text, name)), hashlib.sha256(data).hexdigest()


def _obligations(args):
    tunit, digest = _load(args.file)
    return generate_obligations(tunit, args.method), digest


# ---------------------------------------------------------------------------
# subcommands: each returns (exit code, report or None)

def cmd_check(args):
    unit = _load(args.file)[0].source
    print(f"{args.file}: OK ({len(unit.methods)} method(s), "
          f"{len(unit.lemmas)} lemma(s))")
    return 0, None


def cmd_run(args):
    tunit, digest = _load(args.file)
    try:
        call_args = json.loads(args.args)
    except json.JSONDecodeError as ex:
        raise MiniWhyError(f"--args is not valid JSON: {ex}") from None
    except RecursionError:
        raise MiniWhyError("--args is nested too deeply") from None
    if not isinstance(call_args, list):
        raise MiniWhyError("--args must be a JSON array matching parameter order")
    outcome = exec_method(tunit, args.method, call_args, args.mode,
                          collect_events=True)
    report = _report("run", args.file, digest)
    report["checks"] = [
        {"case": f"{e.method}:{e.kind}" + (f":{e.label}" if e.label else ""),
         "verdict": e.verdict,
         "detail": f"line {e.line}" + (f"; witness {e.witness}" if e.witness else "")}
        for e in outcome.report]
    report["summary"] = {
        "method": args.method,
        "mode": args.mode,
        "status": outcome.status,
        "return": _jsonable(outcome.return_value),
        "error": outcome.error,
        "checks_passed": outcome.checks_passed,
    }
    return (0 if outcome.status == "normal" else 1), report


def _jsonable(v):
    from fractions import Fraction
    if isinstance(v, Fraction):
        return {"num": str(v.numerator), "den": str(v.denominator)}
    if isinstance(v, list):
        return [_jsonable(x) for x in v]
    return v


def cmd_vc(args):
    obset, digest = _obligations(args)
    report = _report("vc", args.file, digest)
    report["obligations"] = [
        {"id": ob.id, "name": ob.name, "kind": ob.kind, "status": "unknown",
         "detail": ob.detail}
        for ob in obset]
    report["summary"] = {"unit": obset.unit, "unit_sha": obset.unit_digest,
                         "count": len(obset)}
    return 0, report


_EXPORT_EXT = {"smt2": ".smt2", "sexp": ".lisp.sexp"}


def _documents(fmt, obset, residue):
    """(file name, validated document) for each document of the residue."""
    if fmt == "xml":
        sub = ObligationSet(unit=obset.unit, unit_digest=obset.unit_digest,
                            obligations=residue, methods=obset.methods)
        docs = [(f"{obset.unit}.xll.xml", export_xml(sub))]
    else:
        exporter = export_smtlib if fmt == "smt2" else export_sexp
        docs = [(ob.id.replace(":", "_") + _EXPORT_EXT[fmt], exporter(ob))
                for ob in residue]
    for _, doc in docs:
        validate(doc)
    return docs


def cmd_prove(args):
    obset, digest = _obligations(args)
    proofs = [prove_internal(ob) for ob in obset]
    # export reads none of the prover's table; held on, it slows the
    # collector through export and validation
    obset._forms.clear()
    residue = [ob for ob, st in zip(obset, proofs) if st.status == "unknown"]
    # every document is rendered before any is written, so an ExportError
    # leaves no output behind
    docs = _documents(args.export_unproved, obset, residue) \
        if args.export_unproved and residue else []
    if docs:
        os.makedirs(args.out_dir, exist_ok=True)
    for fname, doc in docs:
        with open(os.path.join(args.out_dir, fname), "w", encoding="utf-8",
                  newline="\n") as fh:
            fh.write(doc.text)
    unproved = "exported" if docs else "unknown"
    records = [{"id": ob.id, "name": ob.name, "kind": ob.kind,
                "status": unproved if st.status == "unknown" else st.status,
                "detail": st.detail}
               for ob, st in zip(obset, proofs)]
    statuses = [r["status"] for r in records]
    report = _report("prove", args.file, digest)
    report["obligations"] = records
    report["summary"] = {
        "count": len(obset),
        "proved_internal": statuses.count("proved-internal"),
        "unknown": statuses.count("unknown"),
        "exported": statuses.count("exported"),
        "refuted": statuses.count("refuted"),
    }
    return (1 if statuses.count("refuted") else 0), report


def cmd_test(args):
    seed = args.seed if args.seed is not None else _seed_default()
    if args.entry:
        entries = [args.entry]
    elif args.exhaustive:
        entries = list(corpus.EXHAUSTIVE_ENTRIES)
    else:
        entries = [e.name for e in corpus.corpus_sources() if e.method is not None]
    report = _report("test")
    total_failures = 0
    for name in entries:
        if args.exhaustive:
            rep = corpus.run_exhaustive(name, mode=args.mode)
        else:
            rep = corpus.run_randomized(name, args.cases, seed, args.mode)
        total_failures += len(rep.failures)
        for idx, case_args, reason in rep.failures[:args.max_failures]:
            report["checks"].append({"case": f"{name}[{idx}]", "verdict": "fail",
                                     "detail": reason})
        report["summary"][name] = {
            "cases": rep.cases, "failures": len(rep.failures),
            "seed": rep.seed, "mode": rep.mode,
        }
    return (0 if total_failures == 0 else 1), report


def cmd_corpus(args):
    for e in corpus.corpus_sources():
        print(e.name)
    return 0, None


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="miniwhy",
        description="Contract checking, weakest-precondition obligations, "
                    "internal proving and obligation export for MiniJML units.")
    p.add_argument("--version", action="version", version=f"miniwhy {__version__}")
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("check", help="parse and typecheck a unit")
    c.add_argument("file")
    c.set_defaults(fn=cmd_check)

    r = sub.add_parser("run", help="execute a method with contract checking")
    r.add_argument("file")
    r.add_argument("--method", required=True)
    r.add_argument("--args", required=True,
                   help="JSON array matching parameter order")
    r.add_argument("--mode", choices=MODES, default=RATIONAL)
    r.add_argument("--out", default=None)
    r.set_defaults(fn=cmd_run)

    v = sub.add_parser("vc", help="generate proof obligations")
    v.add_argument("file")
    v.add_argument("--method", default=None)
    v.add_argument("--out", default=None)
    v.set_defaults(fn=cmd_vc)

    pr = sub.add_parser("prove", help="run the internal prover; export residue")
    pr.add_argument("file")
    pr.add_argument("--method", default=None)
    pr.add_argument("--export-unproved", choices=("smt2", "xml", "sexp"),
                    default=None)
    pr.add_argument("--out-dir", default="obligations")
    pr.add_argument("--out", default=None)
    pr.set_defaults(fn=cmd_prove)

    t = sub.add_parser("test", help="randomized/exhaustive corpus harness")
    t.add_argument("--entry", default=None)
    t.add_argument("--cases", type=int, default=1000)
    t.add_argument("--seed", type=int, default=None,
                   help="defaults to MINIWHY_SEED or 42")
    t.add_argument("--mode", choices=MODES, default=BINARY64)
    t.add_argument("--exhaustive", action="store_true")
    t.add_argument("--max-failures", type=int, default=20,
                   help="failure records kept in the report")
    t.add_argument("--out", default=None)
    t.set_defaults(fn=cmd_test)

    co = sub.add_parser("corpus", help="corpus information")
    co.add_argument("action", choices=("list",))
    co.set_defaults(fn=cmd_corpus)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        code, report = args.fn(args)
        if report is not None:
            if os.environ.get("MINIWHY_TIMINGS") == "1":
                report["timing"] = {
                    "elapsed_ms": round((time.perf_counter() - t0) * 1000, 3)}
            write_report(report, args.out)
    except (MiniWhyError, OSError) as ex:
        what = next((w for cls, w in _LABELS if isinstance(ex, cls)), "error")
        subject = vars(args).get("file") or vars(args).get("entry") or "miniwhy"
        print(f"{subject}: {what}: {ex}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
