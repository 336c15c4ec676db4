"""Command-line front-end: check, run, vc, prove, test, corpus.

Exit codes: 0 success, 1 contract/proof/harness failure, 2 usage or
input errors. Reports are deterministic JSON (stable key order, LF,
timing omitted unless MINIWHY_TIMINGS=1).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from . import __version__, corpus
from .errors import MiniWhyError, ParseError, TypeCheckFailure
from .export import export_smtlib, export_sexp, export_xml, validate
from .interp import exec_method
from .parser import parse
from .prover import prove_internal
from .typecheck import check_unit, typecheck
from .values import BINARY64, MODES, RATIONAL
from .vcgen import generate_obligations


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
    with open(path, "rb") as fh:
        data = fh.read()
    digest = hashlib.sha256(data).hexdigest()
    name = os.path.splitext(os.path.basename(path))[0]
    return parse(data.decode("utf-8"), name), digest


def _maybe_timing(report, t0):
    if os.environ.get("MINIWHY_TIMINGS") == "1":
        import time
        report["timing"] = {"elapsed_ms": round((time.perf_counter() - t0) * 1000, 3)}


# ---------------------------------------------------------------------------
# subcommands

def cmd_check(args) -> int:
    try:
        unit, _ = _load(args.file)
    except ParseError as ex:
        print(f"{args.file}: parse error: {ex}", file=sys.stderr)
        return 2
    issues = check_unit(unit)
    for issue in issues:
        print(f"{args.file}:{issue}", file=sys.stderr)
    if issues:
        return 2
    print(f"{args.file}: OK ({len(unit.methods)} method(s), "
          f"{len(unit.lemmas)} lemma(s))")
    return 0


def cmd_run(args) -> int:
    import time
    t0 = time.perf_counter()
    try:
        unit, digest = _load(args.file)
        tunit = typecheck(unit)
    except (ParseError, TypeCheckFailure) as ex:
        print(f"{args.file}: {ex}", file=sys.stderr)
        return 2
    try:
        call_args = json.loads(args.args)
    except json.JSONDecodeError as ex:
        print(f"--args is not valid JSON: {ex}", file=sys.stderr)
        return 2
    if not isinstance(call_args, list):
        print("--args must be a JSON array matching parameter order",
              file=sys.stderr)
        return 2
    try:
        outcome = exec_method(tunit, args.method, call_args, args.mode,
                              collect_events=True)
    except MiniWhyError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
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
    _maybe_timing(report, t0)
    write_report(report, args.out)
    return 0 if outcome.status == "normal" else 1


def _jsonable(v):
    from fractions import Fraction
    if isinstance(v, Fraction):
        return {"num": str(v.numerator), "den": str(v.denominator)}
    if isinstance(v, list):
        return [_jsonable(x) for x in v]
    return v


def cmd_vc(args) -> int:
    import time
    t0 = time.perf_counter()
    try:
        unit, digest = _load(args.file)
        tunit = typecheck(unit)
        obset = generate_obligations(tunit, args.method)
    except (ParseError, TypeCheckFailure, MiniWhyError) as ex:
        print(f"{args.file}: {ex}", file=sys.stderr)
        return 2
    report = _report("vc", args.file, digest)
    report["obligations"] = [
        {"id": ob.id, "name": ob.name, "kind": ob.kind, "status": ob.status,
         "detail": ob.detail}
        for ob in obset]
    report["summary"] = {"unit": obset.unit, "unit_sha": obset.unit_digest,
                         "count": len(obset)}
    _maybe_timing(report, t0)
    write_report(report, args.out)
    return 0


_EXPORT_EXT = {"smt2": ".smt2", "sexp": ".lisp.sexp"}


def cmd_prove(args) -> int:
    import time
    t0 = time.perf_counter()
    try:
        unit, digest = _load(args.file)
        tunit = typecheck(unit)
        obset = generate_obligations(tunit, args.method)
    except (ParseError, TypeCheckFailure, MiniWhyError) as ex:
        print(f"{args.file}: {ex}", file=sys.stderr)
        return 2
    refuted = 0
    residue = []
    records = []
    for ob in obset:
        st = prove_internal(ob)
        ob.status = st.status
        if st.status == "refuted":
            refuted += 1
        elif not st.proved:
            residue.append(ob)
        records.append({"id": ob.id, "name": ob.name, "kind": ob.kind,
                        "status": ob.status, "detail": st.detail})
    # export reads none of the prover's table; held on, it slows the
    # collector through export and validation
    obset._forms.clear()
    exported = 0
    if args.export_unproved and residue:
        os.makedirs(args.out_dir, exist_ok=True)
        if args.export_unproved == "xml":
            from .vcgen import ObligationSet
            sub = ObligationSet(unit=obset.unit, unit_digest=obset.unit_digest,
                                obligations=residue, methods=obset.methods)
            doc = export_xml(sub)
            validate(doc)
            fname = os.path.join(args.out_dir, f"{obset.unit}.xll.xml")
            with open(fname, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(doc.text)
            exported = len(residue)
        else:
            exporter = export_smtlib if args.export_unproved == "smt2" else export_sexp
            for ob in residue:
                doc = exporter(ob)
                validate(doc)
                fname = os.path.join(
                    args.out_dir,
                    ob.id.replace(":", "_") + _EXPORT_EXT[args.export_unproved])
                with open(fname, "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(doc.text)
                exported += 1
        for ob in residue:
            ob.status = "exported"
        for rec in records:
            if rec["status"] == "unknown":
                rec["status"] = "exported"
    report = _report("prove", args.file, digest)
    report["obligations"] = records
    report["summary"] = {
        "count": len(obset),
        "proved_internal": sum(1 for r in records if r["status"] == "proved-internal"),
        "unknown": sum(1 for r in records if r["status"] == "unknown"),
        "exported": exported,
        "refuted": refuted,
    }
    _maybe_timing(report, t0)
    write_report(report, args.out)
    return 1 if refuted else 0


def cmd_test(args) -> int:
    import time
    t0 = time.perf_counter()
    seed = args.seed if args.seed is not None else _seed_default()
    entries = [args.entry] if args.entry else \
        [e.name for e in corpus.corpus_sources() if e.method is not None]
    report = _report("test")
    total_failures = 0
    for name in entries:
        try:
            if args.exhaustive:
                rep = corpus.run_exhaustive(name, mode=args.mode)
            else:
                rep = corpus.run_randomized(name, args.cases, seed, args.mode)
        except MiniWhyError as ex:
            print(f"{name}: {ex}", file=sys.stderr)
            return 2
        total_failures += len(rep.failures)
        for idx, case_args, reason in rep.failures[:args.max_failures]:
            report["checks"].append({"case": f"{name}[{idx}]", "verdict": "fail",
                                     "detail": reason})
        report["summary"][name] = {
            "cases": rep.cases, "failures": len(rep.failures),
            "seed": rep.seed, "mode": rep.mode,
        }
    _maybe_timing(report, t0)
    write_report(report, args.out)
    return 0 if total_failures == 0 else 1


def cmd_corpus(args) -> int:
    if args.action == "list":
        for e in corpus.corpus_sources():
            print(e.name)
        return 0
    print(f"unknown corpus action {args.action!r}", file=sys.stderr)
    return 2


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
    try:
        return args.fn(args)
    except OSError as ex:
        print(f"i/o error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
