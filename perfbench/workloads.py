"""The benchmark's workloads: seeded inputs, one timed operation each, and a
reference check per operation that does not come from the package.

Every workload calls the package through module attributes (``vcgen.
generate_obligations``, not a name bound at import), so the traced run can
wrap those attributes from outside the package.

A workload builds a pool of inputs in ``setup`` and hands them out in
fixed-size rounds that cycle through the pool. The untimed ``check`` adds the
deterministic counters of each operation to a tally; two passes over the
same rounds must produce the same tally.
"""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

export = importlib.import_module("miniwhy.export")
interp = importlib.import_module("miniwhy.interp")
parser = importlib.import_module("miniwhy.parser")
prover = importlib.import_module("miniwhy.prover")
syntax = importlib.import_module("miniwhy.syntax")
typecheck = importlib.import_module("miniwhy.typecheck")
vcgen = importlib.import_module("miniwhy.vcgen")

CORPUS_FILES = {
    "rectangle_translate": "translate.mjml",
    "find_nth_lowest_number": "quickselect.mjml",
    "sqrt_newton": "sqrt_newton.mjml",
    "calculate_std_dev": "calculate_std_dev.mjml",
    "lemmas": "lemmas.mjml",
}
QUICKSELECT = "find_nth_lowest_number"
SQRT_EPS = 1.2e-7            # the literal 1.2E-7 of sqrt_newton.mjml as a double


def count_nodes(e) -> int:
    """Expression nodes under ``e``, found through dataclass fields, lists
    and tuples; written here so the count does not depend on the package's
    own traversal."""
    n = 0
    stack = [e]
    while stack:
        x = stack.pop()
        if isinstance(x, syntax.Expr):
            n += 1
            stack.extend(getattr(x, f.name) for f in dataclasses.fields(x))
        elif isinstance(x, (list, tuple)):
            stack.extend(x)
    return n


def inventory(obset) -> str:
    """Obligation inventory in the format of tests/golden/*.obligations.txt."""
    return "".join(f"{ob.id}\t{ob.name}\n" for ob in obset)


def load_unit(root: Path, name: str):
    text = (root / "src" / "miniwhy" / "corpus" / CORPUS_FILES[name]).read_text()
    return typecheck.typecheck(parser.parse(text, name))


class Workload:
    name = ""
    why = ""
    round_size = 1
    round_s = 1.0        # nominal seconds per round; sizes a run
    spans = ()           # boundaries that must record calls on this workload

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.pool = []

    def setup(self):
        raise NotImplementedError

    def round(self, i: int) -> list:
        start = (i * self.round_size) % len(self.pool)
        return [self.pool[(start + k) % len(self.pool)]
                for k in range(self.round_size)]

    def run(self, item):
        raise NotImplementedError

    def check(self, item, result, tally: Counter) -> str | None:
        """None when the result agrees with the reference, else the reason."""
        raise NotImplementedError

    def end_round(self) -> list:
        """Reasons a completed round fails a check spanning its operations."""
        return []


# ---------------------------------------------------------------------------

@dataclasses.dataclass
class ProveResult:
    obset: object
    statuses: list
    docs: list
    valid: list


class ProveCorpus(Workload):
    """One operation is one corpus unit through parse, typecheck, obligation
    generation, the internal prover and export of the unproved residue, as
    ``miniwhy prove --export-unproved`` does per format. A round is every
    unit once, in a seeded order of its own, so that no unit always follows
    the same one (and pays for its garbage)."""

    name = "prove_corpus"
    why = ("vcgen, simplify, prover and export do nearly all the work; units "
           "of 2 to 51 obligations mix small-unit and large-goal costs")
    round_size = len(CORPUS_FILES)
    round_s = 1.0
    pool_rounds = 48
    spans = ("parser", "lexer", "typecheck", "vcgen", "simplify", "prover",
             "export", "export.validate")

    def setup(self):
        corpus_dir = self.root / "src" / "miniwhy" / "corpus"
        golden_dir = self.root / "tests" / "golden"
        self.sources = {n: (corpus_dir / f).read_text()
                        for n, f in CORPUS_FILES.items()}
        self.golden = {n: (golden_dir / f"{n}.obligations.txt").read_text(encoding="utf-8")
                       for n in CORPUS_FILES}
        rng = random.Random(self.seed)
        for _ in range(self.pool_rounds):
            self.pool.extend(rng.sample(sorted(CORPUS_FILES), len(CORPUS_FILES)))

    def run(self, name):
        tu = typecheck.typecheck(parser.parse(self.sources[name], name))
        obset = vcgen.generate_obligations(tu)
        statuses = [prover.prove_internal(ob) for ob in obset]
        residue = [ob for ob, st in zip(obset, statuses) if st.status == "unknown"]
        docs = []
        for ob in residue:
            docs.append(export.export_smtlib(ob))
            docs.append(export.export_sexp(ob))
        if residue:
            docs.append(export.export_xml(vcgen.ObligationSet(
                unit=obset.unit, unit_digest=obset.unit_digest,
                obligations=residue, methods=obset.methods)))
        valid = [export.validate(d) for d in docs]
        return ProveResult(obset, statuses, docs, valid)

    def check(self, name, result, tally):
        statuses = [st.status for st in result.statuses]
        tally["obligations"] += len(result.obset)
        tally[f"obligations.{name}"] += len(result.obset)
        tally["proved"] += statuses.count("proved-internal")
        tally["unknown"] += statuses.count("unknown")
        tally["refuted"] += statuses.count("refuted")
        tally["goal_nodes"] += sum(count_nodes(ob.goal) for ob in result.obset)
        tally["export_docs"] += len(result.docs)
        tally["export_bytes"] += sum(len(d.text.encode("utf-8")) for d in result.docs)
        if inventory(result.obset) != self.golden[name]:
            return f"{name}: obligation inventory differs from the golden file"
        if "refuted" in statuses:
            return f"{name}: {statuses.count('refuted')} obligation(s) refuted"
        if not all(v is True for v in result.valid):
            return f"{name}: an export failed validation"
        return None


# ---------------------------------------------------------------------------

def grid_cases(max_len=6, values=(0, 1, 2, 3)):
    """Every (buf, bufLength, n) over the value grid, as in acceptance
    criterion 2."""
    return [(vals, length, n)
            for length in range(1, max_len + 1)
            for vals in itertools.product(values, repeat=length)
            for n in range(length)]


def check_grid_answer(item, outcome) -> str | None:
    buf, length, n = item
    if outcome.status != "normal":
        return f"grid {item}: status {outcome.status}: {outcome.error}"
    want = sorted(buf[:length])[n]
    if outcome.return_value != want:
        return f"grid {item}: returned {outcome.return_value!r}, expected {want!r}"
    return None


class CheckGrid(Workload):
    """One operation is one checked quickselect execution in exact rational
    mode; the pool is the whole criterion-2 grid in seeded order."""

    name = "check_grid"
    why = ("interp statement execution and rational values do all the work; "
           "the bypass workload for every static-pipeline change")
    round_size = 1000
    round_s = 0.4
    spans = ("parser", "lexer", "typecheck", "interp.exec", "interp.compile_unit")

    def setup(self):
        self.unit = load_unit(self.root, QUICKSELECT)
        interp.compile_unit(self.unit, "rational")
        self.pool = grid_cases()
        random.Random(self.seed).shuffle(self.pool)

    def run(self, item):
        buf, length, n = item
        return interp.exec_method(self.unit, QUICKSELECT, [list(buf), length, n],
                                  "rational")

    def check(self, item, outcome, tally):
        tally["cases"] += 1
        tally["checks"] += outcome.checks_passed
        tally["violations"] += outcome.status == "contract-violation"
        return check_grid_answer(item, outcome)


# ---------------------------------------------------------------------------

def newton_replay(c: float):
    """(verdict, result) of ``sqrt(c)`` replayed in plain Python floats,
    checking the clauses sqrt_newton.mjml states in the order the checking
    interpreter evaluates them. The verdict is 'normal' or the kind of the
    first failing check."""
    eps = SQRT_EPS
    if not (c >= 0 and eps > 0):
        return "requires", None
    t = c if c > 1.0 else 1.1
    if not (t >= 0 and t * t > c):
        return "invariant-entry", None
    while t * t - c >= eps:
        t = (c / t + t) / 2.0
        if not (t >= 0 and t * t > c):
            return "invariant-preserved", None
    if not (t >= 0 and t * t >= c and t * t - c < eps):
        return "ensures", None
    return "normal", t


def newton_verdict(outcome) -> str:
    if outcome.status == "normal":
        return "normal"
    if outcome.status == "contract-violation" and outcome.report:
        return outcome.report[-1].kind
    return outcome.status


def check_newton(c: float, outcome) -> str | None:
    want, value = newton_replay(c)
    got = newton_verdict(outcome)
    if got != want:
        return f"sqrt({c!r}): verdict {got}, float replay says {want}"
    if want == "normal" and outcome.return_value != value:
        return f"sqrt({c!r}): returned {outcome.return_value!r}, replay {value!r}"
    return None


class NewtonBinary64(Workload):
    """One operation is one checked ``sqrt(c)`` in binary64 mode, c drawn
    log-uniformly from [1E-9, 1E9]. About a fifth of the cases end in a
    genuine invariant violation; those verdicts are correct answers."""

    name = "newton_binary64"
    why = ("the only workload on the binary64 values path and the "
           "contract-violation path")
    round_size = 2000
    round_s = 0.12
    pool_size = 20_000
    spans = ("parser", "lexer", "typecheck", "interp.exec", "interp.compile_unit")

    def setup(self):
        self.unit = load_unit(self.root, "sqrt_newton")
        interp.compile_unit(self.unit, "binary64")
        rng = random.Random(self.seed)
        self.pool = [10.0 ** rng.uniform(-9.0, 9.0) for _ in range(self.pool_size)]

    def run(self, c):
        return interp.exec_method(self.unit, "sqrt", [c], "binary64")

    def check(self, c, outcome, tally):
        tally["cases"] += 1
        tally["checks"] += outcome.checks_passed
        tally["violations"] += outcome.status == "contract-violation"
        return check_newton(c, outcome)


# ---------------------------------------------------------------------------

class TraceValidate(Workload):
    """One operation is one traced execution plus ``instantiate_on_trace``
    against obligations generated once in setup. A round holds one
    quickselect input of each length in ``lengths`` with values in -9..9
    (repeated values are needed: arrays of distinct values leave some
    obligations unreached), and one rational sqrt input as in acceptance
    criterion 7. The rank of each length steps through every value from a
    seeded start, round by round: the rank decides much of the work, and
    stepping it keeps the work of a run alike across seeds."""

    name = "trace_validate"
    why = ("vcgen instantiation and interp.eval_formula dominate: interp "
           "used for formula evaluation and trace recording")
    lengths = range(4, 7)
    sqrt_per_round = 1
    pool_rounds = 48
    round_size = len(lengths) + sqrt_per_round
    round_s = 0.55
    spans = ("parser", "lexer", "typecheck", "vcgen", "vcgen.trace",
             "interp.exec", "interp.compile_unit", "interp.eval_formula")

    def setup(self):
        self.qs_unit = load_unit(self.root, QUICKSELECT)
        self.sqrt_unit = load_unit(self.root, "sqrt_newton")
        interp.compile_unit(self.qs_unit, "rational")
        interp.compile_unit(self.sqrt_unit, "rational")
        self.obsets = {
            "qs": vcgen.generate_obligations(self.qs_unit, QUICKSELECT),
            "sqrt": vcgen.generate_obligations(self.sqrt_unit),
        }
        self.covered = {k: set() for k in self.obsets}
        rng = random.Random(self.seed)
        first_rank = {length: rng.randrange(length) for length in self.lengths}
        for r in range(self.pool_rounds):
            batch = []
            for length in self.lengths:
                buf = tuple(rng.randint(-9, 9) for _ in range(length))
                batch.append(("qs", buf, length, (first_rank[length] + r) % length))
            for _ in range(self.sqrt_per_round):
                batch.append(("sqrt", Fraction(rng.randint(0, 64), rng.choice([1, 2, 4]))))
            rng.shuffle(batch)
            self.pool.extend(batch)

    def run(self, item):
        if item[0] == "qs":
            _, buf, length, n = item
            outcome = interp.exec_method(self.qs_unit, QUICKSELECT,
                                         [list(buf), length, n], "rational",
                                         trace=True)
        else:
            outcome = interp.exec_method(self.sqrt_unit, "sqrt", [item[1]],
                                         "rational", trace=True)
        if outcome.status != "normal":
            return outcome, None
        return outcome, vcgen.instantiate_on_trace(self.obsets[item[0]], outcome)

    def check(self, item, result, tally):
        outcome, report = result
        tally["runs"] += 1
        tally["snapshots"] += len(outcome.trace or ())
        if report is None:
            return f"{item}: status {outcome.status}: {outcome.error}"
        verdicts = Counter(r.verdict for r in report.results)
        tally["pass"] += verdicts["pass"]
        tally["fail"] += verdicts["fail"]
        tally["not_instantiable"] += verdicts["not-instantiable"]
        self.covered[item[0]].update(r.id for r in report.passed)
        if report.failed:
            return f"{item}: {[r.id for r in report.failed]} falsified by the trace"
        return None

    def end_round(self):
        reasons = []
        for key, obset in self.obsets.items():
            missing = {ob.id for ob in obset} - self.covered[key]
            if missing:
                reasons.append(f"{key}: {len(missing)} obligation(s) never "
                               f"passed in the round, e.g. {min(missing)}")
            self.covered[key] = set()
        return reasons


WORKLOADS = {w.name: w for w in (ProveCorpus, CheckGrid, TraceValidate, NewtonBinary64)}
