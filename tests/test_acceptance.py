"""Acceptance suite: the pipeline's exit criteria, one test per criterion,
each printing a PASS/FAIL line with its measured numbers.

Criterion 3 is known-red and documented as such: under faithful IEEE
binary64 semantics the Newton square root genuinely returns values with
result*result < c on part of its input range (and trips the strict loop
invariant t*t > c); the test states the required property as-is and fails
honestly rather than weakening it. See the README.
"""

import re
import time
from fractions import Fraction

import pytest

from miniwhy import corpus
from miniwhy import syntax as S
from miniwhy.export import (export_sexp, export_smtlib, export_xml, validate)
from miniwhy.interp import exec_method
from miniwhy.parser import parse
from miniwhy.printer import pretty_print
from miniwhy.prover import prove_internal
from miniwhy.typecheck import check_unit, typecheck
from miniwhy.vcgen import (ObligationSet, generate_obligations,
                           instantiate_on_trace)

SQRT_EPS = Fraction(12, 10 ** 8)


def report(criterion, ok, detail):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    return ok


def test_criterion_1_corpus_health():
    t0 = time.perf_counter()
    for entry in corpus.corpus_sources():
        text = corpus.source_text(entry.name)
        unit = parse(text, entry.name)
        assert check_unit(unit) == [], entry.name
        assert parse(pretty_print(unit), entry.name) == unit, entry.name
    elapsed = time.perf_counter() - t0
    ok = elapsed < 1.0
    assert report(1, ok, f"five entries parse, typecheck, round-trip "
                         f"in {elapsed:.3f}s (< 1s)")


def test_criterion_2_quickselect_exhaustive(quickselect_grid):
    # lengths up to 6 over the values 0..3, run_exhaustive's defaults
    rep, elapsed = quickselect_grid
    # contract checking enforces Permut{Old,Here}, both partition clauses and
    # every invariant/variant check; the oracle comparison is exact
    detail = (f"{rep.cases} executions, {len(rep.failures)} failures, "
              f"{elapsed:.1f}s (< 60s)")
    ok = rep.cases == 30948 and not rep.failures and elapsed < 60.0
    assert report(2, ok, detail), rep.failures[:3]


@pytest.fixture(scope="module")
def sqrt_binary64_experiment():
    t0 = time.perf_counter()
    rep = corpus.run_randomized("sqrt_newton", 100_000, 42, "binary64")
    return rep, time.perf_counter() - t0


def test_criterion_3_sqrt_randomized_binary64(sqrt_binary64_experiment):
    rep, elapsed = sqrt_binary64_experiment
    contract = sum(1 for _, _, r in rep.failures if "violated in" in r
                   or "invariant" in r)
    detail = (f"{rep.cases} cases, {len(rep.failures)} failures "
              f"({contract} contract violations), {elapsed:.1f}s (< 30s); "
              f"the binary64 iterate can land at or below sqrt(c), so the "
              f"claimed 100% bound does not hold of the real arithmetic")
    ok = not rep.failures and elapsed < 30.0
    assert report(3, ok, detail)


def test_criterion_3_runtime_and_termination_hold(sqrt_binary64_experiment):
    """The attainable parts of the same experiment: the run fits the time
    budget, every case terminates (no step-limit hits), and every failure is
    a contract-level one, never a crash."""
    rep, elapsed = sqrt_binary64_experiment
    assert elapsed < 30.0
    assert rep.cases == 100_000
    assert not any("step limit" in r for _, _, r in rep.failures)
    rate = len(rep.failures) / rep.cases
    assert 0.10 < rate < 0.30      # observed ~19-20% at seed 42
    report("3-supplement", True,
           f"termination 100%, contract failure rate {rate:.1%}, {elapsed:.1f}s")


def test_criterion_4_stddev_spot_values(stddev_unit):
    import random
    out64 = exec_method(stddev_unit, "calculate_std_dev", [3.0, 6.0, 14.0],
                        "binary64")
    assert out64.status == "normal"
    assert abs(out64.return_value - 1.0) < 1e-6
    outq = exec_method(stddev_unit, "calculate_std_dev", [3, 6, 14], "rational")
    assert outq.status == "normal"
    r = Fraction(outq.return_value)
    assert r * r >= 1 and r * r - 1 < SQRT_EPS

    rng = random.Random(4)
    for _ in range(100):
        s = Fraction(rng.randint(-1000, 1000), rng.choice([1, 2, 4, 5]))
        out = exec_method(stddev_unit, "calculate_std_dev", [1, s, s * s],
                          "rational")
        assert out.status == "normal" and out.return_value == 0
        sf = float(s)
        out = exec_method(stddev_unit, "calculate_std_dev", [1.0, sf, sf * sf],
                          "binary64")
        assert out.status == "normal" and out.return_value == 0.0
    for n in (0, -1, -7):
        out = exec_method(stddev_unit, "calculate_std_dev", [n, 3, 9], "rational")
        assert out.status == "normal" and out.return_value == 0
    assert report(4, True, "spot values: (3,6,14) within bounds in both modes; "
                           "n=1 and n<=0 branches return exactly 0")


def test_criterion_5_internal_prover_parity(lemmas_unit, sqrt_unit, tmp_path):
    obs = generate_obligations(lemmas_unit)
    for ob in obs:
        st = prove_internal(ob)
        assert st.proved, (ob.id, st.reason)
    sq = generate_obligations(sqrt_unit, "sqrt_newton")
    preserve = next(ob for ob in sq if ob.kind == "invariant-preserve")
    st = prove_internal(preserve)
    assert st.status == "unknown", st
    docs = [export_smtlib(preserve),
            export_xml(ObligationSet(unit=sq.unit, unit_digest=sq.unit_digest,
                                     obligations=[preserve])),
            export_sexp(preserve)]
    for doc in docs:
        assert validate(doc)
    assert report(5, True, "both division lemmas proved internally with no "
                           "hints; Newton preservation unknown and exported "
                           "to smt2/xml/sexp")


def test_criterion_6_wp_oracle_equivalence(wp_triples):
    trials = 1000
    assert len(wp_triples) == trials
    mismatches = 0
    for t in wp_triples:
        assert t.sides == []
        assert t.status == "normal"
        mismatches += (t.lhs != t.rhs)
    ok = mismatches == 0
    assert report(6, ok, f"{trials} random loop-free (program, post, state) "
                         f"triples, {mismatches} disagreements (exact, "
                         f"rational mode)")


def test_criterion_7_trace_validation(quickselect_unit, sqrt_unit):
    import random
    rng = random.Random(1234)

    qs_obs = generate_obligations(quickselect_unit, "find_nth_lowest_number")
    checked = failed = 0
    covered = set()
    for _ in range(50):
        length = rng.randint(2, 8)
        buf = [rng.randint(-9, 9) for _ in range(length)]
        n = rng.randint(0, length - 1)
        out = exec_method(quickselect_unit, "find_nth_lowest_number",
                          [buf, length, n], "rational", trace=True)
        assert out.status == "normal"
        rep = instantiate_on_trace(qs_obs, out)
        failed += len(rep.failed)
        checked += len(rep.passed)
        covered |= {r.id for r in rep.passed}
    # every quickselect obligation instantiates somewhere in the batch
    out = exec_method(quickselect_unit, "find_nth_lowest_number",
                      [[9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 9, 8, 7, 6, 5, 4], 16, 7],
                      "rational", trace=True)
    rep = instantiate_on_trace(qs_obs, out)
    failed += len(rep.failed)
    checked += len(rep.passed)
    covered |= {r.id for r in rep.passed}
    assert covered == {ob.id for ob in qs_obs}

    sq_obs = generate_obligations(sqrt_unit)
    for _ in range(50):
        c = Fraction(rng.randint(0, 64), rng.choice([1, 2, 4]))
        out = exec_method(sqrt_unit, "sqrt", [c], "rational", trace=True)
        assert out.status == "normal"
        rep = instantiate_on_trace(sq_obs, out)
        failed += len(rep.failed)
        checked += len(rep.passed)
        ni = [r.id for r in rep.not_instantiable]
        assert not ni, ni

    # an injected falsified invariant is caught at runtime...
    falsified = corpus.source_text("sqrt_newton").replace(
        "t >= 0 && t * t > c", "t >= 0 && t * t < c", 1)
    bad_unit = typecheck(parse(falsified, "sqrt_newton"))
    bad_run = exec_method(bad_unit, "sqrt_newton", [2, Fraction(1, 1000)],
                          "rational")
    assert bad_run.status == "contract-violation"
    assert "invariant" in bad_run.error
    # ...and by trace validation of its own obligation on a healthy trace
    bad_obs = generate_obligations(bad_unit, "sqrt_newton")
    bad_init = next(ob for ob in bad_obs if ob.kind == "invariant-init")
    from dataclasses import replace as drep
    hosted = ObligationSet(unit=sq_obs.unit, unit_digest=sq_obs.unit_digest,
                           obligations=[drep(bad_init, id="injected:bad")])
    good_run = exec_method(sqrt_unit, "sqrt_newton", [2, Fraction(1, 1000)],
                           "rational", trace=True)
    rep = instantiate_on_trace(hosted, good_run)
    assert [r.verdict for r in rep.results] == ["fail"]

    ok = failed == 0
    assert report(7, ok, f"100 random runs: {checked} obligation "
                         f"instantiations pass, {failed} fail; injected false "
                         f"invariant caught at runtime and by validation")


def test_criterion_8_determinism_and_goldens(lemmas_unit):
    import os
    golden_dir = os.path.join(os.path.dirname(__file__), "golden")

    def pipeline(entry):
        tu = typecheck(parse(corpus.source_text(entry), entry))
        obs = generate_obligations(tu)
        inv = "".join(f"{ob.id}\t{ob.name}\n" for ob in obs)
        smt = "".join(export_smtlib(ob).text for ob in obs)
        xml = export_xml(obs).text
        sexp = "".join(export_sexp(ob).text for ob in obs)
        return inv, smt, xml, sexp

    for entry in ("rectangle_translate", "find_nth_lowest_number",
                  "sqrt_newton", "calculate_std_dev", "lemmas"):
        assert pipeline(entry) == pipeline(entry), entry
        inv = pipeline(entry)[0]
        with open(os.path.join(golden_dir, f"{entry}.obligations.txt"),
                  encoding="utf-8") as fh:
            assert inv == fh.read(), entry

    # s-expression export of the two lemmas matches the fixed reference
    # renderings modulo variable naming
    obs = generate_obligations(lemmas_unit)
    toks = lambda s: re.findall(r"[()]|[^\s()]+", s)
    reference = {
        "lemma:double_div_zero": (
            "(defthm double_div_zero (implies (and (realp x_0_0) (realp y_0) "
            "(and (equal x_0_0 0) (> y_0 0))) (equal (/ x_0_0 y_0) 0)))",
            {"x_0_0": "x", "y_0": "y"}),
        "lemma:double_div_pos": (
            "(defthm double_div_pos (implies (and (realp x_13) (realp y) "
            "(and (> x_13 0) (> y 0))) (> (/ x_13 y) 0)))",
            {"x_13": "x"}),
    }
    for oid, (target, rename) in reference.items():
        mine = toks(export_sexp(obs.by_id(oid)).text)
        want = [rename.get(t, t) for t in toks(target)]
        assert mine == want, oid
    assert report(8, True, "obligation sets and all three export formats "
                           "byte-stable and golden-matched; lemma defthms "
                           "match the reference forms modulo naming")


def test_criterion_9_own_counts_documented():
    """Obligation counts and prover scorecards are toolchain-specific, so no
    external tool's numbers are matched; this generator's counts are
    deterministic, asserted here, and golden-filed."""
    qs = generate_obligations(corpus.unit("find_nth_lowest_number"))
    sd = generate_obligations(corpus.unit("calculate_std_dev"))
    assert len(qs) == 51
    assert len(sd) == 13
    proved_qs = sum(prove_internal(ob).proved for ob in qs)
    proved_sd = sum(prove_internal(ob).proved for ob in sd)
    assert report(9, True,
                  f"documented own counts: quickselect {len(qs)} obligations "
                  f"({proved_qs} proved internally), stddev unit {len(sd)} "
                  f"({proved_sd} proved); external scorecards intentionally "
                  f"not matched")
