"""Benchmark of the miniwhy pipeline and its checking interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from its
``src`` directory; it exits non-zero without a result when that is missing.
Load comes from this one process and thread in a closed loop: each operation
starts when the previous one has been checked.

A run does a fixed number of rounds of operations, sized so that it lasts
about S seconds at the speed of the commit that defined the benchmark; the
same arguments always give the same work, so two commits are timed on the
same operations however fast they are.

``--trace 0`` runs the rounds with nothing wrapped and reports the
end-to-end metrics. ``setup_s`` is the median over fresh processes of the
time from process start to the end of the workload's set-up.

On a shared 2-vCPU virtual machine the same work changes speed by up to a
quarter within seconds, in CPU time as well as in wall time. So every
end-to-end time is scaled by the machine's speed measured around it: a fixed
pure-Python kernel that runs no package code is timed every 0.1 s and after
every longer operation, and each wall time is multiplied by
KERNEL_REFERENCE_S over the mean of the kernel times just before and just
after it. The results are wall times at the reference speed, in the units
named; the unscaled figures and the median scale are printed alongside.

``--trace 1`` runs a third as many rounds twice, alternating round by round:
untraced, and after a traced set-up with the package's public entry points
wrapped (see spans.py). It reports the per-layer metrics (span times unscaled), the ratio
of the two passes' scaled operation time, and fails when the deterministic
counters of the two passes differ or a layer the workload must reach records
no calls.

Every operation is checked against a reference written here (workloads.py);
a mismatch counts as a failed operation and makes the exit code 1. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 9
KERNEL_REFERENCE_S = 0.0025     # about the kernel's time on a 2-vCPU Xeon VM, Python 3.11
CALIBRATE_EVERY_S = 0.1
SHOWN_FAILURES = 10

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                    "peak_rss_mb": "MB", "setup_s": "s"}


def import_package():
    """Import miniwhy from this checkout's sources, never from elsewhere."""
    pkg = ROOT / "src" / "miniwhy"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: no package sources at {pkg}")
    sys.path.insert(0, str(ROOT / "src"))
    import miniwhy
    if Path(miniwhy.__file__).resolve().parent != pkg:
        sys.exit(f"perfbench: miniwhy was imported from {miniwhy.__file__}")


def kernel():
    """Fixed pure-Python work, no package code: dictionary, string and
    rational arithmetic, whose time tracks how fast the machine runs the
    interpreter at the moment. It makes no reference cycles, so it runs
    with the cyclic collector off: its time must not depend on how large
    the heap of the measured program is."""
    d = {}
    for i in range(6000):
        d[i & 255] = d.get(i & 255, 0) + len(str(i))
    acc = Fraction(0)
    for i in range(1, 250):
        acc += Fraction(1, 3) * Fraction(i, i + 1)
        if acc > 10:
            acc -= 10
    return d, acc


class SpeedGauge:
    """Brackets measured spans with kernel timings and scales each span by
    the mean of the kernel times just before and just after it. The kernel
    runs before a span when CALIBRATE_EVERY_S has passed since it last ran,
    and right after any span at least that long, so short spans share the
    bracket of their batch."""

    def __init__(self):
        self.scales = []
        self._kernel_s = None
        self._due = 0.0
        self._pending = []          # (list to append the scaled time to, time)

    def _calibrate(self):
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            kernel()
            kernel_s = time.perf_counter() - t0
        finally:
            if collecting:
                gc.enable()
        if self._pending:
            scale = 2 * KERNEL_REFERENCE_S / (self._kernel_s + kernel_s)
            for out, took in self._pending:
                out.append(took * scale)
            self._pending.clear()
        self._kernel_s = kernel_s
        self.scales.append(KERNEL_REFERENCE_S / kernel_s)
        self._due = time.perf_counter() + CALIBRATE_EVERY_S

    def before(self, force=False):
        if force or time.perf_counter() >= self._due:
            self._calibrate()

    def add(self, out: list, took: float):
        """Append ``took`` to ``out``, scaled, once its bracket is closed."""
        self._pending.append((out, took))
        if took >= CALIBRATE_EVERY_S:
            self._calibrate()

    def flush(self):
        if self._pending:
            self._calibrate()


@dataclass
class Pass:
    latencies: list = field(default_factory=list)      # scaled, seconds
    raw: list = field(default_factory=list)            # unscaled, seconds
    failures: list = field(default_factory=list)
    tally: Counter = field(default_factory=Counter)


def rounds_for(w, seconds: float) -> int:
    """Rounds that take about `seconds` at the workload's nominal speed; the
    work of a run depends on its arguments only, never on how fast it goes."""
    return max(1, round(seconds / w.round_s))


def run_round(w, i: int, out: Pass, gauge: SpeedGauge):
    from miniwhy.errors import MiniWhyError
    for item in w.round(i):
        gauge.before()
        t0 = time.perf_counter()
        try:
            result = w.run(item)
            error = None
        except MiniWhyError as ex:
            error = f"{item!r}: {type(ex).__name__}: {ex}"
        took = time.perf_counter() - t0
        out.raw.append(took)
        gauge.add(out.latencies, took)
        if error is not None:
            out.failures.append(error)
            continue
        reason = w.check(item, result, out.tally)
        if reason is not None:
            out.failures.append(reason)
    out.failures.extend(w.end_round())


def setup_seconds(workload: str, seed: int, gauge: SpeedGauge) -> tuple:
    """Median (scaled, unscaled) time from starting a fresh interpreter to
    the moment it has finished the workload's set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        gauge.before(force=True)
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as p:
            line = p.stdout.readline()
            took = time.perf_counter() - t0
            p.stdout.read()
        if line.strip() != "ready" or p.returncode != 0:
            sys.exit(f"perfbench: set-up probe exited with {p.returncode}")
        raw.append(took)
        gauge.add(scaled, took)
    gauge.flush()
    return statistics.median(scaled), statistics.median(raw)


def end_to_end(lat: list, setup_s: float) -> dict:
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": statistics.quantiles(lat, n=10)[-1] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def per_layer(tracer, plain_s: float, traced_s: float) -> dict:
    """Per-layer metrics as name -> (value, unit)."""
    span = tracer.spans
    c = tracer.counts
    m = {f"{layer}.s": (span[layer].total, "s")
         for layer in ("parser", "lexer", "typecheck", "vcgen", "simplify",
                       "prover", "export", "interp.exec", "interp.compile_unit",
                       "interp.eval_formula", "vcgen.trace")}
    m["export.validate_s"] = (span["export.validate"].total, "s")
    m["prover.self_s"] = (span["prover"].self_time, "s")
    m["vcgen.trace.self_s"] = (span["vcgen.trace"].self_time, "s")
    for layer in ("parser", "typecheck", "simplify", "prover", "interp.exec",
                  "interp.eval_formula"):
        m[f"{layer}.calls"] = (span[layer].calls, "count")
    for name in ("vcgen.obligations", "vcgen.goal_nodes", "vcgen.max_goal_nodes",
                 "simplify.nodes_in", "simplify.nodes_out", "prover.proved",
                 "prover.unknown", "prover.refuted", "export.docs",
                 "export.bytes", "interp.checks", "interp.violations",
                 "interp.trace_snapshots", "vcgen.trace.pass", "vcgen.trace.fail",
                 "vcgen.trace.not_instantiable"):
        m[name] = (c[name], "count")
    m["prover.max_ms"] = (span["prover"].longest * 1e3, "ms")
    obligations = c["vcgen.obligations"]
    m["proved_ratio"] = (c["prover.proved"] / obligations if obligations else 0.0,
                         "ratio")
    m["trace_overhead_ratio"] = (traced_s / plain_s, "ratio")
    return m


def environment(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)), "seed": args.seed,
            "commit": commit(), "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace}


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_untraced(w, args):
    gauge = SpeedGauge()
    setup_s, setup_raw = setup_seconds(args.workload, args.seed, gauge)
    w.setup()
    res = Pass()
    for i in range(rounds_for(w, args.seconds)):
        run_round(w, i, res, gauge)
    gauge.flush()
    lat = res.latencies
    metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(lat, setup_s).items()}
    raw = end_to_end(res.raw, setup_raw)
    extra = {f"unscaled.{k}": (raw[k], END_TO_END_UNITS[k])
             for k in ("ops_per_s", "op_p50_ms", "op_p90_ms", "setup_s")}
    extra["time_scale"] = (statistics.median(gauge.scales), "ratio")
    extra["samples"] = (len(lat), "count")
    extra["error_rate"] = (len(res.failures) / len(lat), "ratio")
    if "obligations" in res.tally:
        extra["proved_ratio"] = (res.tally["proved"] / res.tally["obligations"], "ratio")
    return metrics, extra, res.failures, len(lat), res.tally


def run_traced(w, args):
    from spans import BOUNDARIES, Tracer
    originals = [getattr(importlib.import_module(m), a) for m, a, _, _ in BOUNDARIES]
    rounds = rounds_for(w, args.seconds / 3)
    gauge = SpeedGauge()
    w.setup()
    tracer = Tracer()
    with tracer:
        fresh = type(w)(ROOT, args.seed)
        fresh.setup()
    # alternate untraced and traced rounds, so that drift and warm-up weigh
    # on both passes alike
    plain, traced = Pass(), Pass()
    for i in range(rounds):
        run_round(w, i, plain, gauge)
        with tracer:
            run_round(fresh, i, traced, gauge)
    gauge.flush()
    failures = plain.failures + traced.failures
    if [getattr(importlib.import_module(m), a) for m, a, _, _ in BOUNDARIES] != originals:
        failures.append("traced entry points were not restored")
    if plain.tally != traced.tally:
        diff = {k: (plain.tally[k], traced.tally[k])
                for k in plain.tally.keys() | traced.tally.keys()
                if plain.tally[k] != traced.tally[k]}
        failures.append(f"counters differ between two passes: {diff}")
    for layer in w.spans:
        if tracer.spans[layer].calls == 0:
            failures.append(f"layer {layer} recorded no calls")
    metrics = per_layer(tracer, sum(plain.latencies), sum(traced.latencies))
    extra = {"rounds": (rounds, "count"),
             "time_scale": (statistics.median(gauge.scales), "ratio")}
    attempted = len(plain.latencies) + len(traced.latencies)
    return metrics, extra, failures, attempted, plain.tally


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    import_package()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload](ROOT, args.seed)
    if args.setup_probe:
        w.setup()
        print("ready", flush=True)
        return 0

    print("env " + json.dumps(environment(args)))
    runner = run_traced if args.trace else run_untraced
    metrics, extra, failures, attempted, tally = runner(w, args)
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"metric {name:<32} {value:>16.6f} {unit}")
    print("counters " + json.dumps(dict(sorted(tally.items()))))
    for reason in failures[:SHOWN_FAILURES]:
        print(f"FAILED {reason}", file=sys.stderr)
    if len(failures) > SHOWN_FAILURES:
        print(f"... and {len(failures) - SHOWN_FAILURES} more", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
