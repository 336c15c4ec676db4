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
through that name. Three sub-stages split validate by document format:
validate.smtlib2, validate.sexp and validate.xml, each the time of
`export.validate` on the pass's documents of that format; together they
are validate.
For quickselect and sqrt_newton it then times three stages of trace
validation on a fixed set of rational inputs (TRACE_INPUTS): exec+trace
(`exec_method` with trace recording, the unit already compiled), and
`instantiate_on_trace` of the unit's obligations on each trace, split in
two: trace-first, the call on the first trace, which meets the pass's
fresh obligation set and so compiles every test, and trace-later, the
calls on the other traces, which reuse the compiled tests and so time
evaluation. The untimed warm-up pass counts, for each of the two, the
calls of `vcgen.eval_formula` (one per evaluation the validator asks of
the interpreter) and the instantiations its reports pass (the sum of each
passed obligation's `N instantiation(s)`, the same in every checkout).
Two stages time the interpreter alone, `exec_method` on fixed inputs with
the unit already compiled (EXEC_INPUTS): exec.binary64, sqrt_newton's
`sqrt` in binary64 mode on 200 seeded log-uniform inputs in [1E-9, 1E9]
and three pinned ones, and exec.rational, quickselect on every 100th case
of the criterion-2 grid in exact rational mode.

Each rep starts a fresh interpreter per checkout, this one and the one given
by --against, alternating which goes first. A process imports the package
from its checkout's `src`, does one untimed warm-up pass over the units,
then P timed passes, and reports each stage's median over them. Every
unit's pass is bracketed by the speed kernel of `perfbench/run.py`, and its
stage times are scaled to the kernel's reference speed, as the benchmark's
end-to-end times are; the unscaled times are kept in the JSON.

Each stage also counts the cyclic garbage collector's work in it, read
through `gc.callbacks`: the full (generation-2) collections that started
in the stage and the unscaled time of every collection in it, whatever its
generation, which is part of the stage's time.

The printout gives, per stage and unit (and `corpus`, the sum over the
units that ran the stage), the median and interquartile range over the
reps of the scaled times in ms, then the medians over the reps of the full
collections per pass (`gc2`) and of the collector's ms (`gc ms`); with
--against the same for the other checkout, and the ratio of this
checkout's median time to the other's. Rep i of one checkout and rep i of
the other run one after the other, so they form a pair. A ratio is
resolved only when the same checkout is faster in at least nine tenths of
the pairs, the medians differ by more than the other checkout's IQR, and
each side has MIN_REPS or more reps; otherwise it is marked `~`. Stages
whose code did not change move by several percent from run to run, so
their IQRs may part by chance while their pairs split.
After a blank line, a second table gives the counts per pass of the trace
stages of each traced unit, for each checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import itertools
import json
import random
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
# validate's sub-stages: the document format each one times
FORMAT_STAGES = {"validate.smtlib2": "smtlib2", "validate.sexp": "sexp",
                 "validate.xml": "xll-xml"}
# the pipeline with the sub-stages of prover and validate after each
PROVE_STAGES = PIPELINE[:3] + tuple(SUB_STAGES) + PIPELINE[3:] + tuple(FORMAT_STAGES)
TRACE_STAGES = ("exec+trace", "trace-first", "trace-later")
COUNTED = TRACE_STAGES[1:]      # the trace stages that count eval_formula calls

# (method, args) per unit for the trace stages; other units skip them
TRACE_INPUTS = {
    "quickselect": [("find_nth_lowest_number", [buf, len(buf), n]) for buf, n in (
        ([3, -1, 4, 1], 2), ([5, 9, -2, 6, 5], 1), ([2, 7, 1, -8, 2, 8], 4),
        ([0, 0, 3, -3, 0, 3], 0))],
    "sqrt_newton": [("sqrt", [Fraction(c)]) for c in ("2", "9/4", "0", "37/2")],
}
_rng = random.Random(13)
# (unit, method, mode, argument lists) per interpreter stage
EXEC_INPUTS = {
    "exec.binary64": ("sqrt_newton", "sqrt", "binary64", [
        [c] for c in [10.0 ** _rng.uniform(-9.0, 9.0) for _ in range(200)]
        + [642.093481, 787487659.0, 1e308]]),
    "exec.rational": ("quickselect", "find_nth_lowest_number", "rational", [
        [list(vals), length, n] for length in range(1, 7)
        for vals in itertools.product((0, 1, 2, 3), repeat=length)
        for n in range(length)][::100]),
}
STAGES = PROVE_STAGES + TRACE_STAGES + tuple(EXEC_INPUTS)
MIN_REPS = 5        # fewer reps on either side leave a ratio unresolved


def _perfbench_run():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    mod = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class _Collector:
    """Running totals of the cyclic garbage collector's work in this
    process, kept by a `gc.callbacks` hook: the full (generation-2)
    collections started and the seconds spent in any collection."""

    def __init__(self):
        self.full, self.seconds, self._start = 0, 0.0, 0.0
        gc.callbacks.append(self._callback)

    def _callback(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter()
            self.full += info["generation"] == 2
        else:
            self.seconds += time.perf_counter() - self._start

    def mark(self) -> tuple:
        """(now, full collections, collector seconds) so far."""
        return time.perf_counter(), self.full, self.seconds


def _diff(a: tuple, b: tuple) -> tuple:
    """What passed between two marks: (seconds, full collections,
    collector seconds)."""
    return tuple(y - x for x, y in zip(a, b))


def _time_calls(prover, name, collector: _Collector) -> list:
    """Wrap `prover.<name>` so that each call adds what passed in it,
    (seconds, full collections, collector seconds), to the three-element
    list returned."""
    spent, function = [0.0, 0, 0.0], getattr(prover, name)

    def timed(*args):
        start = collector.mark()
        try:
            return function(*args)
        finally:
            for i, d in enumerate(_diff(start, collector.mark())):
                spent[i] += d

    setattr(prover, name, timed)
    return spent


def _instantiations(report) -> int:
    """The instantiations a trace validation report passes."""
    return sum(int(r.detail.split()[0]) for r in report.results if r.verdict == "pass")


def _one_pass(pkg, sources, sub_spent, collector, calls=None):
    """({unit: {stage: (seconds, full collections, collector seconds)}},
    {unit: {stage: (eval_formula calls, instantiations)}}) of one pass over
    the units, the trace stages only for units with TRACE_INPUTS and each
    interpreter stage only for its unit in EXEC_INPUTS. sub_spent
    maps each of SUB_STAGES to the list `_time_calls` returned for it;
    calls, when given, is the one-element list that counts the calls of
    `vcgen.eval_formula` (see _count_calls), else the counts are 0."""
    parser, typecheck, vcgen, prover, export, interp = pkg
    calls = [0] if calls is None else calls
    times, counts = {}, {}
    for name, text in sources.items():
        t = [collector.mark()]
        tu = typecheck.typecheck(parser.parse(text, name))
        t.append(collector.mark())
        obset = vcgen.generate_obligations(tu)
        t.append(collector.mark())
        sub_before = {s: list(spent) for s, spent in sub_spent.items()}
        residue = [ob for ob in obset
                   if prover.prove_internal(ob).status == "unknown"]
        # as `miniwhy prove`, release the prover table before export
        obset._forms.clear()
        t.append(collector.mark())
        docs = [d for ob in residue
                for d in (export.export_smtlib(ob), export.export_sexp(ob))]
        if residue:
            docs.append(export.export_xml(vcgen.ObligationSet(
                unit=obset.unit, unit_digest=obset.unit_digest,
                obligations=residue, methods=obset.methods)))
        t.append(collector.mark())
        by_format = {f: (0.0, 0, 0.0) for f in FORMAT_STAGES.values()}
        mark = t[-1]
        for d in docs:
            export.validate(d)
            start, mark = mark, collector.mark()
            by_format[d.format] = tuple(
                x + y for x, y in zip(by_format[d.format], _diff(start, mark)))
        t.append(mark)
        times[name] = {s: _diff(a, b) for s, a, b in zip(PIPELINE, t, t[1:])}
        times[name].update((s, _diff(sub_before[s], spent))
                           for s, spent in sub_spent.items())
        times[name].update((s, by_format[f]) for s, f in FORMAT_STAGES.items())
        if name in TRACE_INPUTS:
            interp.compile_unit(tu, "rational")         # in no stage
            t = [collector.mark()]
            outcomes = [interp.exec_method(tu, m, args, "rational", trace=True)
                        for m, args in TRACE_INPUTS[name]]
            t.append(collector.mark())
            reports, seen = [], [calls[0]]
            for out in outcomes:
                reports.append(vcgen.instantiate_on_trace(obset, out))
                t.append(collector.mark())
                seen.append(calls[0])
            times[name].update(zip(TRACE_STAGES, (
                _diff(t[0], t[1]), _diff(t[1], t[2]), _diff(t[2], t[-1]))))
            counts[name] = {
                "trace-first": (seen[1] - seen[0], _instantiations(reports[0])),
                "trace-later": (seen[-1] - seen[1],
                                sum(map(_instantiations, reports[1:])))}
        for stage, (unit, method, mode, inputs) in EXEC_INPUTS.items():
            if unit == name:
                interp.compile_unit(tu, mode)           # in no stage
                start = collector.mark()
                for args in inputs:
                    interp.exec_method(tu, method, args, mode)
                times[name][stage] = _diff(start, collector.mark())
    return times, counts


def _count_calls(vcgen) -> list:
    """Wrap `vcgen.eval_formula` so that each call adds one to the
    one-element list returned."""
    function, counter = vcgen.eval_formula, [0]

    def counted(*args, **kwargs):
        counter[0] += 1
        return function(*args, **kwargs)

    vcgen.eval_formula = counted
    return counter


def child(root: Path, units, passes: int) -> dict:
    """Runs in a fresh process: the stage medians of one checkout."""
    sys.path.insert(0, str(root / "src"))
    pkg = [importlib.import_module(f"miniwhy.{m}")
           for m in ("parser", "typecheck", "vcgen", "prover", "export", "interp")]
    bench = _perfbench_run()
    corpus = root / "src" / "miniwhy" / "corpus"
    sources = {u: (corpus / f"{u}.mjml").read_text() for u in units}
    collector = _Collector()
    sub_spent = {s: _time_calls(pkg[3], name, collector)
                 for s, name in SUB_STAGES.items()}
    # the warm-up pass, untimed, counts; the timed passes run unwrapped
    evaluate = pkg[2].eval_formula
    _, counts = _one_pass(pkg, sources, sub_spent, collector, _count_calls(pkg[2]))
    pkg[2].eval_formula = evaluate
    raw = {u: {s: [] for s in STAGES if u in _units(s, units)} for u in units}
    scaled = {u: {s: [] for s in d} for u, d in raw.items()}
    gc_full = {u: {s: [] for s in d} for u, d in raw.items()}
    gc_s = {u: {s: [] for s in d} for u, d in raw.items()}
    for _ in range(passes):
        for u in units:
            k0 = time.perf_counter()
            bench.kernel()
            k1 = time.perf_counter()
            took = _one_pass(pkg, {u: sources[u]}, sub_spent, collector)[0][u]
            k2 = time.perf_counter()
            bench.kernel()
            k3 = time.perf_counter()
            scale = 2 * bench.KERNEL_REFERENCE_S / ((k1 - k0) + (k3 - k2))
            for s in raw[u]:
                seconds, full, collector_s = took[s]
                raw[u][s].append(seconds)
                scaled[u][s].append(seconds * scale)
                gc_full[u][s].append(full)
                gc_s[u][s].append(collector_s)
    med = statistics.median
    out = {name: {u: {s: med(v) for s, v in d.items()} for u, d in table.items()}
           for name, table in (("raw", raw), ("scaled", scaled),
                               ("gc_full", gc_full), ("gc_s", gc_s))}
    out["counts"] = counts
    return out


def _run_child(root: Path, passes: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", str(root),
           "--passes", str(passes)]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"stage_times: the run of {root} failed:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def _units(stage, units) -> list:
    """The units a pass times `stage` for."""
    if stage in EXEC_INPUTS:
        return [u for u in units if u == EXEC_INPUTS[stage][0]]
    return [u for u in units if stage in PROVE_STAGES or u in TRACE_INPUTS]


def _summary(reps: list, units) -> dict:
    """{stage: {unit or 'corpus': (median, q1, q3, full collections,
    collector ms, values)}}: the median and quartiles of the scaled ms, the
    medians of the full collections per pass and of the collector's ms, and
    each rep's scaled ms in rep order, the corpus row summing the units
    that ran the stage."""
    out = {}
    for s in STAGES:
        out[s] = {}
        ran = _units(s, units)
        for u in ran + ["corpus"]:
            def per_rep(table, scale=1.0):
                return [scale * (sum(r[table][x][s] for x in ran) if u == "corpus"
                                 else r[table][u][s]) for r in reps]
            vals = per_rep("scaled", 1e3)
            if len(vals) > 1:
                q1, _, q3 = statistics.quantiles(vals, n=4, method="inclusive")
            else:
                q1 = q3 = vals[0]
            out[s][u] = (statistics.median(vals), q1, q3,
                         statistics.median(per_rep("gc_full")),
                         statistics.median(per_rep("gc_s", 1e3)), vals)
    return out


def _ratio(row, other) -> str:
    """The ratio column: row's median over other's, marked `~` unless the
    side with the lower median is faster in at least nine tenths of the
    pairs of rep i of each side, the medians differ by more than other's
    IQR and each side has MIN_REPS or more reps."""
    if not other[0]:
        return "nan"
    pairs = list(zip(row[5], other[5]))
    lower = row[0] < other[0]           # whether row's median is the lower
    faster = sum(a < b if lower else a > b for a, b in pairs)
    resolved = (10 * faster >= 9 * len(pairs)
                and abs(row[0] - other[0]) > other[2] - other[1]
                and min(len(row[5]), len(other[5])) >= MIN_REPS)
    return f"{row[0] / other[0]:.3f}" + ("" if resolved else "~")


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

    head = f"{'stage':<18}{'unit':<20}{'this ms':>9}{'IQR':>16}{'gc2':>6}{'gc ms':>8}"
    if args.against:
        head += f"{'against ms':>12}{'IQR':>16}{'gc2':>6}{'gc ms':>8}{'ratio':>8}"
    print(head)

    def columns(row, width):
        m, q1, q3, full, collector_ms, _ = row
        return (f"{m:>{width}.2f}{f'{q1:.2f}-{q3:.2f}':>16}"
                f"{full:>6g}{collector_ms:>8.2f}")

    for s in STAGES:
        for u in summary["this"][s]:
            row = summary["this"][s][u]
            line = f"{s:<18}{u:<20}{columns(row, 9)}"
            if args.against:
                other = summary["against"][s][u]
                line += f"{columns(other, 12)}{_ratio(row, other):>8}"
            print(line)
    print()
    head = f"{'counts per pass':<18}{'unit':<20}{'this calls':>11}{'inst':>8}"
    if args.against:
        head += f"{'against calls':>15}{'inst':>8}"
    print(head)
    for s in COUNTED:
        for u in _units(s, units):
            line = f"{s:<18}{u:<20}"
            for side, width in (("this", 11), ("against", 15)):
                if side in reps:
                    n, inst = reps[side][0]["counts"][u][s]
                    line += f"{n:>{width}}{inst:>8}"
            print(line)
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"sides": {k: str(v) for k, v in sides.items()}, "units": units,
             "passes": args.passes, "reps": reps,
             "summary_ms": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
