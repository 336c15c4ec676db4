"""How obligation generation and proof grow with the size of a program.

    python3 tools/scaling.py [--family NAME ...] [--sizes LIST]

Three families of one-method units, written by the generators in
`tests/helpers.py`:

- nested: d nested `while` loops, each with an invariant and a variant
  (`nested_variants`);
- branches: n sequential `if`s, each changing y by +1 or -1
  (`sequential_branches`);
- straight: n sequential `y = y + 1;` (`straight_line`).

For each size it generates the unit's obligations and proves each one, in
this process, with this checkout's `src`, and prints one line: the number
of obligations, of distinct goal objects, and of distinct expression node
objects under the goals (the goals' DAG), the seconds vcgen and the prover
took, and the prover's verdicts. Where vcgen stops (its budget, or nesting
too deep) the line gives the `VcgenError` text instead. LIST is a comma-
separated list of sizes and ranges (`1-8,10`); without it each family
runs its default sizes.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from helpers import nested_variants, sequential_branches, straight_line  # noqa: E402
from miniwhy import syntax as S  # noqa: E402
from miniwhy.errors import VcgenError  # noqa: E402
from miniwhy.parser import parse  # noqa: E402
from miniwhy.prover import prove_internal  # noqa: E402
from miniwhy.typecheck import typecheck  # noqa: E402
from miniwhy.vcgen import generate_obligations  # noqa: E402

FAMILIES = {"nested": nested_variants, "branches": sequential_branches,
            "straight": straight_line}
DEFAULT_SIZES = {"nested": list(range(1, 13)), "branches": list(range(1, 15)),
                 "straight": list(range(100, 700, 100))}


def dag_nodes(goals) -> int:
    """Distinct expression node objects under the goals."""
    seen, stack = set(), list(goals)
    while stack:
        e = stack.pop()
        if id(e) not in seen:
            seen.add(id(e))
            stack.extend(S.children(e))
    return len(seen)


def measure(family: str, size: int) -> dict:
    """One row: the counts and times of one size, or the vcgen error."""
    tu = typecheck(parse(FAMILIES[family](size)))
    row = {"family": family, "size": size}
    t0 = time.perf_counter()
    try:
        obset = generate_obligations(tu)
    except VcgenError as ex:
        row.update(vcgen_s=time.perf_counter() - t0, error=str(ex))
        return row
    t1 = time.perf_counter()
    statuses = [prove_internal(ob) for ob in obset]
    t2 = time.perf_counter()
    goals = [ob.goal for ob in obset]
    row.update(obligations=len(goals), distinct=len({id(g) for g in goals}),
               dag_nodes=dag_nodes(goals), vcgen_s=t1 - t0, prover_s=t2 - t1,
               verdicts=dict(sorted(Counter(st.status for st in statuses).items())))
    return row


def format_row(row: dict) -> str:
    head = f"{row['family']:<10}{row['size']:>6}"
    if "error" in row:
        return f"{head}{'':>34}{row['vcgen_s']:>9.3f}{'-':>9}  {row['error']}"
    verdicts = " ".join(f"{k} {v}" for k, v in row["verdicts"].items())
    return (f"{head}{row['obligations']:>12}{row['distinct']:>10}"
            f"{row['dag_nodes']:>12}{row['vcgen_s']:>9.3f}{row['prover_s']:>9.3f}"
            f"  {verdicts}")


def parse_sizes(text: str) -> list:
    sizes = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        sizes.extend(range(int(lo), int(hi or lo) + 1))
    return sizes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--family", action="append", choices=sorted(FAMILIES),
                    help="a family to run (repeatable); default all three")
    ap.add_argument("--sizes", type=parse_sizes, default=None,
                    help="sizes and ranges, e.g. 1-8,10")
    args = ap.parse_args(argv)
    print(f"{'family':<10}{'size':>6}{'obligations':>12}{'distinct':>10}"
          f"{'dag nodes':>12}{'vcgen s':>9}{'prover s':>9}  verdicts or vcgen error")
    for family in args.family or list(FAMILIES):
        for size in args.sizes or DEFAULT_SIZES[family]:
            print(format_row(measure(family, size)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
