"""Digest of everything the static pipeline produces for the corpus, per unit,
optionally compared with a second checkout.

    python3 tools/corpus_digest.py [--against PATH]

For each corpus unit it hashes (SHA-256) the unit's token stream (kind,
text, line and column of each token) and `repr` of its parse tree (source
positions included); then it generates the obligations and hashes, per
obligation: the id, the name, `repr` of the goal (source positions
included), the printed hypotheses, the sorted `var_sorts`, the status and
detail of `prove_internal`, and the SMT-LIB and s-expression exports (or
the text of the `ExportError` an exporter raised); then the unit's XML
export. It prints one line per unit and a total over the units.

Each checkout runs in a child process of its own, which imports the package
from that checkout's `src`. With --against, a line marked DIFF shows a unit
whose digest differs between the two checkouts (or that only one has), and
the exit code is 1 if any unit differs; without it, the exit code is 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unit_digest(name: str) -> str:
    from miniwhy import corpus
    from miniwhy.errors import ExportError
    from miniwhy.export import export_sexp, export_smtlib, export_xml
    from miniwhy.lexer import tokenize
    from miniwhy.parser import parse
    from miniwhy.printer import expr_to_str
    from miniwhy.prover import prove_internal
    from miniwhy.vcgen import generate_obligations

    def exported(export, arg):
        try:
            return export(arg).text
        except ExportError as ex:
            return f"ExportError: {ex}"

    digest = hashlib.sha256()
    text = corpus.source_text(name)
    digest.update(json.dumps([(t.kind, t.text, t.line, t.col)
                              for t in tokenize(text)]).encode())
    digest.update(repr(parse(text, name)).encode())
    obset = generate_obligations(corpus.unit(name))
    for ob in obset:
        status = prove_internal(ob)
        fields = [ob.id, ob.name, repr(ob.goal),
                  *(expr_to_str(h) for h in ob.hypotheses),
                  repr(sorted((k, str(t)) for k, t in ob.var_sorts.items())),
                  status.status, status.detail,
                  exported(export_smtlib, ob), exported(export_sexp, ob)]
        digest.update(json.dumps(fields).encode())
    digest.update(exported(export_xml, obset).encode())
    return digest.hexdigest()


def child(root: Path) -> None:
    """Runs in a fresh process: one JSON object {unit: digest}."""
    sys.path.insert(0, str(root / "src"))
    from miniwhy import corpus
    print(json.dumps({e.name: _unit_digest(e.name) for e in corpus.corpus_sources()}))


def _digests(root: Path) -> dict:
    run = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                          "--child", str(root)], capture_output=True, text=True)
    if run.returncode != 0:
        sys.exit(f"corpus_digest: the run of {root} failed:\n{run.stderr}")
    return json.loads(run.stdout)


def _total(digests: dict) -> str:
    return hashlib.sha256("".join(f"{u} {d}\n" for u, d in digests.items())
                          .encode()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", default=None, help="a second checkout to compare with")
    ap.add_argument("--child", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        child(Path(args.child))
        return 0

    sides = {"this": _digests(ROOT)}
    if args.against:
        sides["against"] = _digests(Path(args.against).resolve())
    units = sorted({u for digests in sides.values() for u in digests})
    differ = []
    for unit in units:
        row = [digests.get(unit, "-") for digests in sides.values()]
        if len(set(row)) > 1:
            differ.append(unit)
        print(f"{unit:<24} " + " ".join(d[:16] for d in row)
              + ("  DIFF" if unit in differ else ""))
    print(f"{'total':<24} " + " ".join(_total(d)[:16] for d in sides.values()))
    if args.against:
        print(f"differing units: {differ}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
