"""Per-stage times of the prove pipeline on each corpus unit, optionally
against a second checkout.

    python3 tools/stage_times.py [--reps N] [--passes P] [--against PATH]
                                 [--json FILE]

For each unit of this checkout's corpus one pass times five stages as `miniwhy prove
--export-unproved` runs them: parse+typecheck, vcgen, prover (every
obligation), export (SMT-LIB and s-expression of each unproved obligation,
and the XML of the unproved set) and validate (every exported document).
Two sub-stages are parts of prover: prover.simplify, the time spent in
`simplify`, and prover.fm, the time spent in `_eliminate` (Gaussian and
Fourier-Motzkin elimination of each leaf). Each is timed by wrapping the
name in `miniwhy.prover` that the prover calls, as perfbench's traced run
does; so it is timed alike in any checkout whose prover calls the function
through that name.
For quickselect and sqrt_newton it then times two stages of trace
validation on a fixed set of rational inputs (TRACE_INPUTS): exec+trace
(`exec_method` with trace recording, the unit already compiled) and
trace-validate (`instantiate_on_trace` of the unit's obligations on each
trace).

Each rep starts a fresh interpreter per checkout, this one and the one given
by --against, alternating which goes first. A process imports the package
from its checkout's `src`, does one untimed warm-up pass over the units,
then P timed passes, and reports each stage's median over them. Every
unit's pass is bracketed by the speed kernel of `perfbench/run.py`, and its
stage times are scaled to the kernel's reference speed, as the benchmark's
end-to-end times are; the unscaled times are kept in the JSON.

The printout gives, per stage and unit (and `corpus`, the sum over the
units that ran the stage), the median and interquartile range over the
reps of the scaled times in ms, and with --against the ratio of this
checkout's median to the other's.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# consecutive stages of one unit's pass
PIPELINE = ("parse+typecheck", "vcgen", "prover", "export", "validate")
# prover's sub-stages: the name in miniwhy.prover each one times
SUB_STAGES = {"prover.simplify": "simplify", "prover.fm": "_eliminate"}
# the pipeline with prover's sub-stages after it
PROVE_STAGES = PIPELINE[:3] + tuple(SUB_STAGES) + PIPELINE[3:]
TRACE_STAGES = ("exec+trace", "trace-validate")
STAGES = PROVE_STAGES + TRACE_STAGES
# (method, args) per unit for the trace stages; other units skip them
TRACE_INPUTS = {
    "quickselect": [("find_nth_lowest_number", [buf, len(buf), n]) for buf, n in (
        ([3, -1, 4, 1], 2), ([5, 9, -2, 6, 5], 1), ([2, 7, 1, -8, 2, 8], 4),
        ([0, 0, 3, -3, 0, 3], 0))],
    "sqrt_newton": [("sqrt", [Fraction(c)]) for c in ("2", "9/4", "0", "37/2")],
}


def _perfbench_run():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    mod = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _time_calls(prover, name) -> list:
    """Wrap `prover.<name>` so that each call adds its duration to the
    one-element list returned."""
    spent, function = [0.0], getattr(prover, name)

    def timed(*args):
        t0 = time.perf_counter()
        try:
            return function(*args)
        finally:
            spent[0] += time.perf_counter() - t0

    setattr(prover, name, timed)
    return spent


def _one_pass(pkg, sources, sub_spent):
    """{unit: {stage: seconds}} of one pass over the units, the trace
    stages only for units with TRACE_INPUTS. sub_spent maps each of
    SUB_STAGES to the list `_time_calls` returned for it."""
    parser, typecheck, vcgen, prover, export, interp = pkg
    times = {}
    for name, text in sources.items():
        t = [time.perf_counter()]
        tu = typecheck.typecheck(parser.parse(text, name))
        t.append(time.perf_counter())
        obset = vcgen.generate_obligations(tu)
        t.append(time.perf_counter())
        sub_before = {s: spent[0] for s, spent in sub_spent.items()}
        residue = [ob for ob in obset
                   if prover.prove_internal(ob).status == "unknown"]
        t.append(time.perf_counter())
        docs = [d for ob in residue
                for d in (export.export_smtlib(ob), export.export_sexp(ob))]
        if residue:
            docs.append(export.export_xml(vcgen.ObligationSet(
                unit=obset.unit, unit_digest=obset.unit_digest,
                obligations=residue, methods=obset.methods)))
        t.append(time.perf_counter())
        for d in docs:
            export.validate(d)
        t.append(time.perf_counter())
        times[name] = {s: b - a for s, a, b in zip(PIPELINE, t, t[1:])}
        times[name].update((s, spent[0] - sub_before[s])
                           for s, spent in sub_spent.items())
        if name in TRACE_INPUTS:
            interp.compile_unit(tu, "rational")         # in no stage
            t = [time.perf_counter()]
            outcomes = [interp.exec_method(tu, m, args, "rational", trace=True)
                        for m, args in TRACE_INPUTS[name]]
            t.append(time.perf_counter())
            for out in outcomes:
                vcgen.instantiate_on_trace(obset, out)
            t.append(time.perf_counter())
            times[name].update(zip(TRACE_STAGES, (t[1] - t[0], t[2] - t[1])))
    return times


def child(root: Path, units, passes: int) -> dict:
    """Runs in a fresh process: the stage medians of one checkout."""
    sys.path.insert(0, str(root / "src"))
    pkg = [importlib.import_module(f"miniwhy.{m}")
           for m in ("parser", "typecheck", "vcgen", "prover", "export", "interp")]
    bench = _perfbench_run()
    corpus = root / "src" / "miniwhy" / "corpus"
    sources = {u: (corpus / f"{u}.mjml").read_text() for u in units}
    sub_spent = {s: _time_calls(pkg[3], name) for s, name in SUB_STAGES.items()}
    _one_pass(pkg, sources, sub_spent)
    raw = {u: {s: [] for s in STAGES if u in _units(s, units)} for u in units}
    scaled = {u: {s: [] for s in d} for u, d in raw.items()}
    for _ in range(passes):
        for u in units:
            k0 = time.perf_counter()
            bench.kernel()
            k1 = time.perf_counter()
            took = _one_pass(pkg, {u: sources[u]}, sub_spent)[u]
            k2 = time.perf_counter()
            bench.kernel()
            k3 = time.perf_counter()
            scale = 2 * bench.KERNEL_REFERENCE_S / ((k1 - k0) + (k3 - k2))
            for s in raw[u]:
                raw[u][s].append(took[s])
                scaled[u][s].append(took[s] * scale)
    med = statistics.median
    return {"raw": {u: {s: med(v) for s, v in d.items()} for u, d in raw.items()},
            "scaled": {u: {s: med(v) for s, v in d.items()}
                       for u, d in scaled.items()}}


def _run_child(root: Path, passes: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", str(root),
           "--passes", str(passes)]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"stage_times: the run of {root} failed:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def _units(stage, units) -> list:
    """The units a pass times `stage` for."""
    return [u for u in units if stage in PROVE_STAGES or u in TRACE_INPUTS]


def _summary(reps: list, units) -> dict:
    """{stage: {unit or 'corpus': (median, q1, q3)}} of the scaled ms, the
    corpus row summing the units that ran the stage."""
    out = {}
    for s in STAGES:
        out[s] = {}
        ran = _units(s, units)
        for u in ran + ["corpus"]:
            vals = [1e3 * (sum(r["scaled"][x][s] for x in ran) if u == "corpus"
                           else r["scaled"][u][s]) for r in reps]
            if len(vals) > 1:
                q1, _, q3 = statistics.quantiles(vals, n=4, method="inclusive")
            else:
                q1 = q3 = vals[0]
            out[s][u] = (statistics.median(vals), q1, q3)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--passes", type=int, default=3)
    ap.add_argument("--against", default=None,
                    help="a second checkout to compare with")
    ap.add_argument("--json", default=None, help="write every rep here")
    ap.add_argument("--child", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.reps < 1 or args.passes < 1:
        ap.error("--reps and --passes must be at least 1")
    units = sorted(p.stem for p in (ROOT / "src" / "miniwhy" / "corpus").glob("*.mjml"))
    if args.child:
        print(json.dumps(child(Path(args.child), units, args.passes)))
        return 0

    sides = {"this": ROOT}
    if args.against:
        sides["against"] = Path(args.against).resolve()
    reps = {side: [] for side in sides}
    for i in range(args.reps):
        order = list(sides) if i % 2 == 0 else list(reversed(sides))
        for side in order:
            reps[side].append(_run_child(sides[side], args.passes))
    summary = {side: _summary(r, units) for side, r in reps.items()}

    head = f"{'stage':<16}{'unit':<20}{'this ms':>9}{'IQR':>16}"
    if args.against:
        head += f"{'against ms':>12}{'IQR':>16}{'ratio':>8}"
    print(head)
    for s in STAGES:
        for u in summary["this"][s]:
            m, q1, q3 = summary["this"][s][u]
            line = f"{s:<16}{u:<20}{m:>9.2f}{f'{q1:.2f}-{q3:.2f}':>16}"
            if args.against:
                pm, pq1, pq3 = summary["against"][s][u]
                line += (f"{pm:>12.2f}{f'{pq1:.2f}-{pq3:.2f}':>16}"
                         f"{m / pm if pm else float('nan'):>8.3f}")
            print(line)
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"sides": {k: str(v) for k, v in sides.items()}, "units": units,
             "passes": args.passes, "reps": reps,
             "summary_ms": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
