import json
import os
import random

import jsonschema
import pytest

from miniwhy import cli, corpus
from miniwhy.cli import main

from helpers import sequential_branches

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "..", "src", "miniwhy",
                           "schemas", "report.schema.json")


@pytest.fixture(scope="module")
def schema():
    with open(SCHEMA_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture()
def corpus_file(tmp_path):
    def write(entry):
        p = tmp_path / f"{entry}.mjml"
        p.write_text(corpus.source_text(entry), encoding="utf-8")
        return str(p)
    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_corpus_list(capsys):
    code, out, _ = run_cli(capsys, "corpus", "list")
    assert code == 0
    assert out.split() == ["rectangle_translate", "find_nth_lowest_number",
                           "sqrt_newton", "calculate_std_dev", "lemmas"]


def test_check_ok_and_broken(capsys, corpus_file, tmp_path):
    code, _, _ = run_cli(capsys, "check", corpus_file("sqrt_newton"))
    assert code == 0
    bad = tmp_path / "bad.mjml"
    bad.write_text("void f() { int x; x = 1.5; }", encoding="utf-8")
    code, _, err = run_cli(capsys, "check", str(bad))
    assert code == 2 and "int" in err
    worse = tmp_path / "worse.mjml"
    worse.write_text("import java.awt.Rectangle;", encoding="utf-8")
    code, _, err = run_cli(capsys, "check", str(worse))
    assert code == 2 and "parse error" in err


def test_run_normal_and_violation(capsys, corpus_file, schema, tmp_path):
    qs = corpus_file("find_nth_lowest_number")
    code, out, _ = run_cli(capsys, "run", qs,
                           "--method", "find_nth_lowest_number",
                           "--args", "[[3,1,2],3,1]")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, schema)
    assert report["summary"]["status"] == "normal"
    assert report["summary"]["return"] == 2

    # violated requires: n out of range
    code, out, _ = run_cli(capsys, "run", qs,
                           "--method", "find_nth_lowest_number",
                           "--args", "[[3,1,2],3,7]")
    assert code == 1
    report = json.loads(out)
    assert report["summary"]["status"] == "contract-violation"


def test_run_usage_errors(capsys, corpus_file):
    qs = corpus_file("find_nth_lowest_number")
    code, _, err = run_cli(capsys, "run", qs,
                           "--method", "find_nth_lowest_number",
                           "--args", "not json")
    assert code == 2 and "JSON" in err
    code, _, err = run_cli(capsys, "run", qs,
                           "--method", "find_nth_lowest_number",
                           "--args", "{}")
    assert code == 2 and "array" in err


@pytest.mark.parametrize("mode, call_args, message", [
    ("rational", "[[1e400], 1, 0]", "expected a finite real argument, got inf"),
    ("rational", "[[NaN], 1, 0]", "expected a finite real argument, got nan"),
    ("binary64", f"[[1{'0' * 400}], 1, 0]", "real argument out of binary64 range"),
    ("rational", "[" + "[" * 3000 + "]" * 3000 + ", 1, 0]", "--args is nested too deeply")],
    ids=["inf", "nan", "huge", "deep"])
def test_run_arguments_that_are_no_values_exit_2(capsys, corpus_file, mode,
                                                 call_args, message):
    qs = corpus_file("find_nth_lowest_number")
    code, out, err = run_cli(capsys, "run", qs, "--method", "find_nth_lowest_number",
                             "--args", call_args, "--mode", mode)
    assert code == 2 and out == ""
    assert err == f"{qs}: error: {message}\n"


def test_vc_report(capsys, corpus_file, schema, tmp_path):
    out_path = tmp_path / "vc.json"
    translate = corpus_file("rectangle_translate")
    code, _, _ = run_cli(capsys, "vc", translate, "--out", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text(encoding="utf-8"))
    jsonschema.validate(report, schema)
    assert report["summary"]["count"] == len(report["obligations"])
    assert any(o["kind"] == "ensures" for o in report["obligations"])


def test_prove_lemmas_all_internal(capsys, corpus_file, schema):
    code, out, _ = run_cli(capsys, "prove", corpus_file("lemmas"))
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, schema)
    statuses = {o["id"]: o["status"] for o in report["obligations"]}
    assert statuses == {"lemma:double_div_pos": "proved-internal",
                        "lemma:double_div_zero": "proved-internal"}


def test_prove_exports_residue(capsys, corpus_file, tmp_path, schema):
    out_dir = tmp_path / "residue"
    code, out, _ = run_cli(capsys, "prove", corpus_file("sqrt_newton"),
                           "--export-unproved", "smt2",
                           "--out-dir", str(out_dir))
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, schema)
    exported = [o for o in report["obligations"] if o["status"] == "exported"]
    assert exported
    files = sorted(os.listdir(out_dir))
    assert len(files) == len(exported)
    assert all(f.endswith(".smt2") for f in files)
    # no obligation silently dropped
    assert report["summary"]["count"] == \
        report["summary"]["proved_internal"] + len(exported)


def test_prove_exports_xml_residue(capsys, corpus_file, tmp_path):
    out_dir = tmp_path / "residue"
    code, _, _ = run_cli(capsys, "prove", corpus_file("find_nth_lowest_number"),
                         "--export-unproved", "xml", "--out-dir", str(out_dir))
    assert code == 0
    files = os.listdir(out_dir)
    assert files == ["find_nth_lowest_number.xll.xml"]


@pytest.mark.parametrize("fmt, exporter", [
    ("smt2", "export_smtlib"), ("sexp", "export_sexp"), ("xml", "export_xml")])
def test_prove_releases_the_prover_table_before_export(
        capsys, corpus_file, tmp_path, monkeypatch, fmt, exporter):
    sizes = []
    export = getattr(cli, exporter)

    def spy(doc_source):
        obs = doc_source.obligations if fmt == "xml" else [doc_source]
        sizes.extend(len(ob._forms) for ob in obs)
        return export(doc_source)

    monkeypatch.setattr(cli, exporter, spy)
    code, _, _ = run_cli(capsys, "prove", corpus_file("find_nth_lowest_number"),
                         "--export-unproved", fmt, "--out-dir", str(tmp_path / "out"))
    assert code == 0
    assert sizes and set(sizes) == {0}


def test_prove_refuted_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.mjml"
    bad.write_text("/*@ ensures \\result > 1.0; @*/\n"
                   "real f(real x) { return 1.0; }\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "prove", str(bad))
    assert code == 1
    report = json.loads(out)
    assert any(o["status"] == "refuted" for o in report["obligations"])


def test_prove_faulting_counterexample_reports_unknown(capsys, tmp_path):
    src = tmp_path / "fault.mjml"
    src.write_text("/*@ ensures (x / x) * 0.0 == 1.0; @*/\n"
                   "real f(real x) { return x; }\n", encoding="utf-8")
    code, _, _ = run_cli(capsys, "check", str(src))
    assert code == 0
    code, out, err = run_cli(capsys, "prove", str(src))
    assert code == 0 and "Traceback" not in err
    [ob] = json.loads(out)["obligations"]
    assert ob["status"] == "unknown"
    assert ob["detail"] == "counterexample not checkable: division by zero at line 1"


EARLY_RETURN = """/*@ requires true;
  @ ensures \\result >= 0;
  @*/
real m(real x) {
    if (x < 0) { return 0.0; }
    /*@ assert x >= 0; @*/
    return x;
}
"""


def test_an_assert_after_an_early_return_is_proved(capsys, tmp_path):
    """A return ends its path: a run at x = -1 returns before the assert,
    so the assert is not required there, and prove exits 0."""
    src = tmp_path / "early.mjml"
    src.write_text(EARLY_RETURN, encoding="utf-8")
    code, out, _ = run_cli(capsys, "run", str(src), "--method", "m",
                           "--args", "[-1]")
    assert code == 0 and json.loads(out)["summary"]["status"] == "normal"
    code, out, _ = run_cli(capsys, "prove", str(src))
    assert code == 0
    assert [(o["id"], o["status"]) for o in json.loads(out)["obligations"]] == [
        ("m:000:ensures", "proved-internal"),
        ("m:001:assert", "proved-internal")]


def test_test_subcommand_translate_ok(capsys, schema):
    code, out, _ = run_cli(capsys, "test", "--entry", "rectangle_translate",
                           "--cases", "50", "--seed", "3", "--mode", "rational")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, schema)
    assert report["summary"]["rectangle_translate"]["failures"] == 0


def test_test_subcommand_reports_failures(capsys):
    # binary64 Newton violates its contract on part of its input range
    code, out, _ = run_cli(capsys, "test", "--entry", "sqrt_newton",
                           "--cases", "300", "--seed", "42",
                           "--mode", "binary64")
    report = json.loads(out)
    expected = len(corpus.run_randomized("sqrt_newton", 300, 42, "binary64").failures)
    assert report["summary"]["sqrt_newton"]["failures"] == expected
    assert code == (0 if expected == 0 else 1)


def test_seed_env_default(capsys, monkeypatch):
    monkeypatch.setenv("MINIWHY_SEED", "17")
    code, out, _ = run_cli(capsys, "test", "--entry", "rectangle_translate",
                           "--cases", "20", "--mode", "rational")
    assert code == 0
    assert json.loads(out)["summary"]["rectangle_translate"]["seed"] == 17


def test_reports_are_byte_identical(capsys, corpus_file, tmp_path):
    translate = corpus_file("rectangle_translate")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(capsys, "vc", translate, "--out", str(a))[0] == 0
    assert run_cli(capsys, "vc", translate, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()


def test_inputs_never_mutated(capsys, corpus_file):
    path = corpus_file("sqrt_newton")
    before = open(path, "rb").read()
    run_cli(capsys, "check", path)
    run_cli(capsys, "vc", path)
    run_cli(capsys, "prove", path)
    run_cli(capsys, "run", path, "--method", "sqrt", "--args", "[2]")
    assert open(path, "rb").read() == before


def test_exhaustive_flag(capsys, monkeypatch, quickselect_grid):
    # the session runs the full grid once, for criterion 2 as well; here
    # the flag's wiring hands its report to the CLI
    calls = []

    def run_exhaustive(name, mode):
        calls.append((name, mode))
        return quickselect_grid[0]
    monkeypatch.setattr(corpus, "run_exhaustive", run_exhaustive)
    code, out, _ = run_cli(capsys, "test", "--entry", "find_nth_lowest_number",
                           "--exhaustive", "--mode", "rational")
    assert calls == [("find_nth_lowest_number", "rational")]
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["find_nth_lowest_number"]["cases"] == 30948


def test_exhaustive_without_an_entry_runs_every_grid(capsys, monkeypatch):
    small = corpus.exhaustive_quickselect_cases
    monkeypatch.setattr(corpus, "exhaustive_quickselect_cases",
                        lambda max_len, values: small(3, (0, 1)))
    code, out, err = run_cli(capsys, "test", "--exhaustive", "--mode", "rational")
    assert code == 0 and err == ""
    summary = json.loads(out)["summary"]
    assert list(summary) == list(corpus.EXHAUSTIVE_ENTRIES) == ["find_nth_lowest_number"]
    assert summary["find_nth_lowest_number"]["cases"] == 2 + 2 * 4 + 3 * 8
    code, _, err = run_cli(capsys, "test", "--entry", "sqrt_newton", "--exhaustive")
    assert code == 2
    assert err == "sqrt_newton: error: no exhaustive grid is defined for 'sqrt_newton'\n"


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


@pytest.mark.parametrize("text", [
    "int f(int x) { return " + " + ".join(["x"] * 500) + "; }",
    "int f(int x) { return " + "(" * 1000 + "x" + ")" * 1000 + "; }"],
    ids=["long-sum", "deep-parens"])
def test_nesting_too_deep_exits_2_without_a_traceback(capsys, tmp_path, text):
    src = tmp_path / "deep.mjml"
    src.write_text(text, encoding="utf-8")
    for argv in (["check"], ["vc"], ["prove"], ["run", "--method", "f",
                                                "--args", "[1]"]):
        code, _, err = run_cli(capsys, *argv[:1], str(src), *argv[1:])
        assert code == 2, argv
        assert "nesting too deep" in err and "Traceback" not in err


def test_a_unit_too_deep_to_compile_exits_2_on_run(capsys, tmp_path):
    # the requires is a sum of 400 terms: it typechecks, compiling overflows
    src = tmp_path / "deep.mjml"
    src.write_text("/*@ requires " + " + ".join(["x"] * 400)
                   + " > 0; @*/\nint f(int x) { return x; }", encoding="utf-8")
    assert run_cli(capsys, "check", str(src))[0] == 0
    code, _, err = run_cli(capsys, "run", str(src), "--method", "f", "--args", "[1]")
    assert code == 2
    assert "nesting too deep to compile" in err and "Traceback" not in err


@pytest.mark.parametrize("literal", ["\u00b2", "1\u00b2", "1.\u00b2", "1e\u00b2"])
def test_digits_that_are_not_decimal_exit_2(capsys, tmp_path, literal):
    src = tmp_path / "digits.mjml"
    src.write_text(f"/*@ lemma l: {literal} > 0; @*/", encoding="utf-8")
    assert cli.main(["check", str(src)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_a_non_ascii_identifier_exits_2_and_writes_no_document(capsys, tmp_path):
    src = tmp_path / "square.mjml"
    src.write_text("/*@ ensures \\result >= 0; @*/\n"
                   "int f(int x\u00b2) { return x\u00b2 * x\u00b2; }", encoding="utf-8")
    out_dir = tmp_path / "residue"
    for argv in (["check"], ["prove", "--export-unproved", "smt2",
                             "--out-dir", str(out_dir)]):
        code, _, err = run_cli(capsys, argv[0], str(src), *argv[1:])
        assert code == 2, argv
        assert "parse error" in err or "unexpected character" in err, err
    assert not out_dir.exists() or not os.listdir(out_dir)


@pytest.mark.parametrize("argv", [
    ["check"], ["run", "--method", "f", "--args", "[1]"], ["vc"], ["prove"]],
    ids=lambda argv: argv[0])
def test_input_that_is_not_utf8_is_a_parse_error(capsys, tmp_path, argv):
    src = tmp_path / "latin1.mjml"
    src.write_bytes(b"int f(int x) {\n  return x; // caf\xe9\n}\n")
    code, out, err = run_cli(capsys, argv[0], str(src), *argv[1:])
    assert code == 2 and out == ""
    assert err == f"{src}: parse error: 2:19: invalid UTF-8 byte 0xe9\n"


NEGATED_FORALL = ("/*@ requires n >= 0;\n"
                  "  @ ensures !(\\forall integer k; 0 <= k && k < n ==> k < x);\n"
                  "  @*/\n"
                  "int f(int n, int x) { return x; }\n")


def test_an_obligation_with_no_sexp_form_exits_2_and_writes_nothing(capsys, tmp_path):
    src = tmp_path / "exists.mjml"
    src.write_text(NEGATED_FORALL, encoding="utf-8")
    out_dir = tmp_path / "residue"
    code, out, err = run_cli(capsys, "prove", str(src), "--export-unproved", "sexp",
                             "--out-dir", str(out_dir))
    assert code == 2 and out == ""
    assert err.startswith(f"{src}: export error: existential quantification")
    assert not out_dir.exists() or not os.listdir(out_dir)


@pytest.mark.parametrize("fmt", ["smt2", "xml"])
def test_the_same_obligation_exports_to_smt2_and_xml(capsys, tmp_path, fmt):
    src = tmp_path / "exists.mjml"
    src.write_text(NEGATED_FORALL, encoding="utf-8")
    out_dir = tmp_path / "residue"
    code, out, _ = run_cli(capsys, "prove", str(src), "--export-unproved", fmt,
                           "--out-dir", str(out_dir))
    assert code == 0
    assert json.loads(out)["summary"]["exported"] == 1
    assert len(os.listdir(out_dir)) == 1


@pytest.mark.parametrize("argv", [
    ["run", "--args", "[]"], ["vc"], ["prove"]], ids=lambda argv: argv[0])
def test_an_unknown_method_exits_2(capsys, corpus_file, argv):
    src = corpus_file("rectangle_translate")
    code, out, err = run_cli(capsys, argv[0], src, "--method", "nope", *argv[1:])
    assert code == 2 and out == ""
    assert err == f"{src}: error: unknown method 'nope'\n"


def test_obligations_past_the_vcgen_budget_exit_2(capsys, tmp_path):
    src = tmp_path / "branches.mjml"
    src.write_text(sequential_branches(24), encoding="utf-8")
    for cmd in ("vc", "prove"):
        code, out, err = run_cli(capsys, cmd, str(src))
        assert code == 2 and out == ""
        assert err == (f"{src}: error: obligations of method 'f' exceed the "
                       f"vcgen budget of 100000 substituted nodes\n")


def _sequential_asserts(tmp_path, n):
    src = tmp_path / f"asserts{n}.mjml"
    src.write_text("/*@ requires x > 0; @*/\nint f(int x) {\n"
                   + "    /*@ assert x > 0; @*/\n" * n + "    return x;\n}\n",
                   encoding="utf-8")
    return str(src)


def test_obligations_deeper_than_the_python_stack_exit_2(capsys, tmp_path):
    # each assert wraps the post once more: 1 000 of them overflow vcgen
    src = _sequential_asserts(tmp_path, 1000)
    assert run_cli(capsys, "check", src)[0] == 0
    for cmd in ("vc", "prove"):
        code, out, err = run_cli(capsys, cmd, src)
        assert code == 2 and out == ""
        assert err == (f"{src}: error: obligations of method 'f': nesting too "
                       "deep to generate\n")


def test_a_goal_too_deep_to_prove_is_unknown(capsys, tmp_path):
    # 700 asserts are generated, but the first goal overflows the prover
    code, out, err = run_cli(capsys, "prove", _sequential_asserts(tmp_path, 700))
    assert code == 0 and err == ""
    records = json.loads(out)["obligations"]
    assert len(records) == 701
    assert (records[0]["status"], records[0]["detail"]) == \
        ("unknown", "resource cap: nesting too deep")
    assert all(r["status"] == "proved-internal" for r in records[1:])

def _mutants(count, seed):
    """Corpus sources with 1 to 3 characters deleted, inserted (one drawn
    from the same source) or swapped."""
    rng = random.Random(seed)
    sources = [corpus.source_text(e.name) for e in corpus.corpus_sources()]
    for _ in range(count):
        text = list(rng.choice(sources))
        for _ in range(rng.randint(1, 3)):
            i, j = rng.randrange(len(text)), rng.randrange(len(text))
            edit = rng.randrange(3)
            if edit == 0:
                del text[i]
            elif edit == 1:
                text.insert(i, text[j])
            else:
                text[i], text[j] = text[j], text[i]
        yield "".join(text)


def test_mutated_sources_end_in_an_exit_code(capsys, tmp_path):
    # an exception escaping main fails this test with its traceback
    src = tmp_path / "mutant.mjml"
    codes = []
    for text in _mutants(200, seed=33):
        src.write_text(text, encoding="utf-8")
        for argv in (["check"], ["vc"], ["prove", "--export-unproved", "sexp",
                                         "--out-dir", str(tmp_path / "residue")]):
            codes.append(main([argv[0], str(src), *argv[1:]]))
    capsys.readouterr()
    assert set(codes) <= {0, 1, 2}
    assert {0, 2} <= set(codes)
