import json
import os

import jsonschema
import pytest

from miniwhy import cli, corpus
from miniwhy.cli import main

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


def test_exhaustive_flag(capsys):
    code, out, _ = run_cli(capsys, "test", "--entry", "find_nth_lowest_number",
                           "--exhaustive", "--mode", "rational")
    # full grid runs in the acceptance suite; here just check the wiring
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["find_nth_lowest_number"]["cases"] == 30948


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
