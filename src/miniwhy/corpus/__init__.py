"""The verified-program corpus and its testing harness.

Each entry pairs a MiniJML source file with an independent oracle and a
precondition-respecting input generator; run_randomized executes cases with
full contract checking and compares results against the oracle, mirroring
the test-first methodology the programs were originally validated with.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

from ..errors import MiniWhyError
from ..interp import exec_method
from ..parser import parse
from ..typecheck import TypedUnit, typecheck
from ..values import BINARY64, RATIONAL

SQRT_EPS = Fraction(12, 10**8)          # 1.2E-7 exactly


@dataclass
class CorpusEntry:
    name: str
    filename: str
    method: str | None        # method the harness drives; None for lemma files
    oracle: str               # nth-lowest | sqrt-bound | stddev-formula | translate-identity | none


@dataclass
class HarnessReport:
    entry: str
    cases: int
    failures: list = field(default_factory=list)   # (case index, args, reason)
    seed: int = 0
    mode: str = RATIONAL

    @property
    def ok(self) -> bool:
        return not self.failures


ENTRIES = [
    CorpusEntry("rectangle_translate", "translate.mjml", "translate", "translate-identity"),
    CorpusEntry("find_nth_lowest_number", "quickselect.mjml", "find_nth_lowest_number", "nth-lowest"),
    CorpusEntry("sqrt_newton", "sqrt_newton.mjml", "sqrt", "sqrt-bound"),
    CorpusEntry("calculate_std_dev", "calculate_std_dev.mjml", "calculate_std_dev", "stddev-formula"),
    CorpusEntry("lemmas", "lemmas.mjml", None, "none"),
]

_units: dict[str, TypedUnit] = {}


def corpus_sources() -> list[CorpusEntry]:
    """The five corpus entries; every source parses and typechecks."""
    return list(ENTRIES)


def entry(name: str) -> CorpusEntry:
    for e in ENTRIES:
        if e.name == name:
            return e
    raise MiniWhyError(f"unknown corpus entry {name!r}")


def source_text(name: str) -> str:
    e = entry(name)
    return (resources.files("miniwhy") / "corpus" / e.filename).read_text()


def unit(name: str) -> TypedUnit:
    if name not in _units:
        _units[name] = typecheck(parse(source_text(name), name))
    return _units[name]


# ---------------------------------------------------------------------------
# oracles

def oracle_nth_lowest(buf, bufLength: int, n: int):
    """Sort-based selection oracle; never mutates its input."""
    if not (1 <= bufLength <= len(buf)):
        raise MiniWhyError(f"bufLength {bufLength} out of range 1..{len(buf)}")
    if not (0 <= n < bufLength):
        raise MiniWhyError(f"n {n} out of range 0..{bufLength - 1}")
    return sorted(buf[:bufLength])[n]


def _sqrt_bound_ok(result, c) -> bool:
    r = Fraction(result)
    cf = Fraction(c)
    return result >= 0 and r * r >= cf and r * r - cf < SQRT_EPS


def _stddev_expected(n, sum_, sum2, mode):
    """Independent recompute of the standard-deviation contract.

    Returns ('zero', None) when the result must be exactly 0, else
    ('sqrt-bound', v) where the result must satisfy the sqrt bound for v.
    """
    num = Fraction if mode == RATIONAL else float
    n, sum_, sum2 = num(n), num(sum_), num(sum2)
    if n <= 0:
        return "zero", None
    d = (n * sum2 - sum_ * sum_) / n
    if d <= 0:
        return "zero", None
    return "sqrt-bound", d / (n - 1)


# ---------------------------------------------------------------------------
# generators (deterministic in seed and index)

def _rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


def random_case(name: str, seed: int, index: int) -> list:
    """Arguments for one harness case; always satisfies the requires clause."""
    e = entry(name)
    rng = _rng(seed, index)
    if e.name == "sqrt_newton":
        m = rng.randint(10**8, 10**9 - 1)
        exp = rng.randint(-17, 0)
        # m * 10^exp, log-uniform across the 18 decades of [1E-9, 1E9)
        return [Fraction(m, 10 ** -exp) if exp < 0 else Fraction(m * 10 ** exp)]
    if e.name == "find_nth_lowest_number":
        buflen = rng.randint(1, 32)
        pad = rng.randint(0, 2)
        buf = [rng.randint(-100, 100) for _ in range(buflen + pad)]
        n = rng.randint(0, buflen - 1)
        return [buf, buflen, n]
    if e.name == "calculate_std_dev":
        if rng.random() < 0.25:
            # precondition-valid but not realizable from any sample set
            n = rng.choice([-3, -1, 0, 2, 3, 5])
            return [n, rng.randint(-10, 10), rng.randint(-10, 10)]
        k = rng.choice([0] + list(range(1, 21)))
        xs = [rng.randint(-3, 3) for _ in range(k)]
        return [k, sum(xs), sum(x * x for x in xs)]
    if e.name == "rectangle_translate":
        return [Fraction(rng.randint(-1000, 1000), 4) for _ in range(4)]
    if e.name == "lemmas":
        return []
    raise MiniWhyError(f"unknown corpus entry {name!r}")


# ---------------------------------------------------------------------------
# harness

def _check_oracle(e: CorpusEntry, args, result, mode) -> str | None:
    """None when the oracle agrees, else a failure reason."""
    if e.oracle == "nth-lowest":
        buf, buflen, n = args
        want = oracle_nth_lowest(buf, buflen, n)
        if result != want:
            return f"result {result!r} != oracle {want!r}"
        return None
    if e.oracle == "sqrt-bound":
        if not _sqrt_bound_ok(result, args[0]):
            return f"sqrt bound violated for c={args[0]!r}: result {result!r}"
        return None
    if e.oracle == "stddev-formula":
        kind, v = _stddev_expected(*args, mode)
        if kind == "zero":
            if result != 0:
                return f"expected exactly 0, got {result!r}"
            return None
        if not _sqrt_bound_ok(result, v):
            return f"stddev bound violated for v={v!r}: result {result!r}"
        return None
    if e.oracle == "translate-identity":
        x, y, dx, dy = args
        num = Fraction if mode == RATIONAL else float
        want = [num(x) + num(dx), num(y) + num(dy)]
        if list(result) != want:
            return f"result {result!r} != {want!r}"
        return None
    return None


def run_case(name: str, args, mode: str):
    """Execute one case with full contract checking; (outcome, failure reason)."""
    e = entry(name)
    out = exec_method(unit(name), e.method, args, mode)
    if out.status != "normal":
        return out, out.error
    return out, _check_oracle(e, args, out.return_value, mode)


def _run_cases(name: str, cases, mode: str, seed: int = 0) -> HarnessReport:
    """Run each (index, args) case; failures list case index, args, reason."""
    report = HarnessReport(entry=name, cases=0, seed=seed, mode=mode)
    for i, args in cases:
        _, reason = run_case(name, args, mode)
        report.cases += 1
        if reason is not None:
            report.failures.append((i, args, reason))
    return report


def run_randomized(name: str, cases: int, seed: int, mode: str = BINARY64) -> HarnessReport:
    """Run `cases` generated inputs through the interpreter with contract
    checking and oracle comparison."""
    def case(i):
        args = random_case(name, seed, i)
        if mode == BINARY64:
            args = [[float(x) for x in a] if isinstance(a, list)
                    else (float(a) if isinstance(a, Fraction) else a) for a in args]
        return i, args
    count = cases if entry(name).method is not None else 0
    return _run_cases(name, map(case, range(count)), mode, seed)


def exhaustive_quickselect_cases(max_len: int = 6, values=(0, 1, 2, 3)):
    """All (buf, bufLength, n) with 1 <= len <= max_len over the value grid."""
    for length in range(1, max_len + 1):
        for vals in itertools.product(values, repeat=length):
            for n in range(length):
                yield list(vals), length, n


# the entries that define an exhaustive grid
EXHAUSTIVE_ENTRIES = ("find_nth_lowest_number",)


def run_exhaustive(name: str = "find_nth_lowest_number", mode: str = RATIONAL,
                   max_len: int = 6, values=(0, 1, 2, 3)) -> HarnessReport:
    """Exhaustive quickselect grid; the desk-scale total-correctness check."""
    if name not in EXHAUSTIVE_ENTRIES:
        raise MiniWhyError(f"no exhaustive grid is defined for {name!r}")
    grid = exhaustive_quickselect_cases(max_len, values)
    return _run_cases(name, ((i, list(case)) for i, case in enumerate(grid)), mode)
