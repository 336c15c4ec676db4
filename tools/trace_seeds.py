"""Replay the rounds of perfbench's `trace_validate` workload seed by seed,
untimed, and compare two checkouts' verdicts.

    python3 tools/trace_seeds.py --seeds A-B[,C,...] [--seconds S]
                                 [--against PATH] [--jobs N]

For each seed, a run builds the workload of `perfbench/workloads.py` as
`perfbench/run.py --workload trace_validate --seed N --seconds S` does
(default S = 20), runs its rounds, and checks every operation and round
with the workload's own checks. Nothing is timed. Per seed it prints the
exit code that run.py would give (1 when any operation or round check
fails), the number of failures, the workload's counters, and a SHA-256 over
every operation's per-obligation (id, verdict, detail, witness), so two
checkouts can be compared on everything an operation reports.

Each checkout runs in child processes of its own, which import the
package from that checkout's `src` and the workload from its `perfbench`.
The seeds are split into N contiguous chunks per checkout (--jobs, default
1), and at most N children run at a time. With --against, a line marked
DIFF shows a seed where the two checkouts differ in any of the four, and
the exit code is 1 if any seed differs; without it, the exit code is 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD = "trace_validate"


def parse_seeds(text: str) -> list:
    """'1-3,7' -> [1, 2, 3, 7]."""
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if sep else [int(lo)])
    return seeds


def _verdict_lines(item, result) -> list:
    outcome, report = result
    if report is None:
        return [f"{item!r} status {outcome.status}: {outcome.error}"]
    return [f"{item!r} {r.id} {r.verdict} {r.detail} {sorted(r.witness.items())}"
            for r in report.results]


def replay(root: Path, seed: int, seconds: float) -> dict:
    """One seed's rounds in this process, with the package and workload of
    the checkout at root (already on sys.path)."""
    from miniwhy.errors import MiniWhyError
    from workloads import WORKLOADS

    w = WORKLOADS[WORKLOAD](root, seed)
    w.setup()
    tally, failures = Counter(), []
    digest = hashlib.sha256()
    # perfbench/run.py's rounds_for: the rounds of a run of `seconds`
    for i in range(max(1, round(seconds / w.round_s))):
        for item in w.round(i):
            try:
                result = w.run(item)
            except MiniWhyError as ex:
                failures.append(f"{item!r}: {type(ex).__name__}: {ex}")
                digest.update(f"{failures[-1]}\n".encode())
                continue
            for line in _verdict_lines(item, result):
                digest.update(f"{line}\n".encode())
            reason = w.check(item, result, tally)
            if reason is not None:
                failures.append(reason)
        failures.extend(w.end_round())
    return {"seed": seed, "exit": int(bool(failures)), "failed": len(failures),
            "counters": dict(sorted(tally.items())), "hash": digest.hexdigest()[:16],
            "first_failure": failures[0] if failures else ""}


def child(root: Path, seeds: list, seconds: float) -> None:
    """Runs in a fresh process: one JSON line per seed."""
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(root / "perfbench"))
    for seed in seeds:
        print(json.dumps(replay(root, seed, seconds)), flush=True)


def _chunks(seeds: list, n: int) -> list:
    size = -(-len(seeds) // n)
    return [seeds[i:i + size] for i in range(0, len(seeds), size)]


def run_sides(sides: dict, seeds: list, seconds: float, jobs: int) -> dict:
    """{side: {seed: result}}, each chunk of seeds in a child process of its
    side, at most `jobs` children at a time."""
    tasks = [(side, root, chunk) for side, root in sides.items()
             for chunk in _chunks(seeds, jobs)]
    results = {side: {} for side in sides}
    running = []
    while tasks or running:
        while tasks and len(running) < jobs:
            side, root, chunk = tasks.pop(0)
            cmd = [sys.executable, str(Path(__file__).resolve()), "--child", str(root),
                   "--seeds", ",".join(map(str, chunk)), "--seconds", str(seconds)]
            running.append((side, root, subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)))
        for entry in list(running):
            side, root, p = entry
            if p.poll() is None:
                continue
            out, err = p.communicate()
            if p.returncode != 0:
                sys.exit(f"trace_seeds: the run of {root} failed:\n{err}")
            for line in out.splitlines():
                r = json.loads(line)
                results[side][r["seed"]] = r
            running.remove(entry)
        if running:
            time.sleep(0.05)
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="e.g. 1-300 or 1-20,23,67")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--against", default=None, help="a second checkout to compare with")
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--child", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if args.child:
        child(Path(args.child), seeds, args.seconds)
        return 0
    if args.jobs < 1:
        ap.error("--jobs must be at least 1")

    sides = {"this": ROOT}
    if args.against:
        sides["against"] = Path(args.against).resolve()
    results = run_sides(sides, seeds, args.seconds, args.jobs)
    differ = []
    for seed in seeds:
        rows = [results[side][seed] for side in sides]
        same = len({json.dumps([r[k] for k in ("exit", "failed", "counters", "hash")])
                    for r in rows}) == 1
        if not same:
            differ.append(seed)
        for side, r in zip(sides, rows):
            print(f"seed {seed:>4} {side:<8} exit {r['exit']} failed {r['failed']} "
                  f"hash {r['hash']} counters {json.dumps(r['counters'])}"
                  + ("" if same else "  DIFF"))
            if r["first_failure"]:
                print(f"          {r['first_failure']}")
    for side in sides:
        bad = [s for s in seeds if results[side][s]["exit"]]
        print(f"{side}: exit 1 at {len(bad)} seed(s): {bad}")
    if args.against:
        print(f"differing seeds: {differ}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
