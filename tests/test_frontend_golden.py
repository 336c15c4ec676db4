"""Front-end goldens: the token stream (kind, text, line, col) of the corpus
files and of the scanner's edge cases, and `repr` of the parse trees
(source positions included) of snippets that exercise operator binding.
An input that does not scan or parse records the `ParseError` text.

    PYTHONPATH=src python3 tests/test_frontend_golden.py

rewrites both golden files from the package on the path."""

import json
import os

from miniwhy import corpus
from miniwhy.errors import ParseError
from miniwhy.lexer import SYMBOLS, tokenize
from miniwhy.parser import parse

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
LEXER_GOLDEN = "lexer.tokens.txt"
PARSER_GOLDEN = "parser.trees.txt"

LEXER_EDGES = [
    # the input ends inside a // comment, in and out of an annotation
    "int x; // trailing",
    "int x; //",
    "/*@ requires x > 0; // no end",
    "a // one\nb // two\n",
    # a /* */ comment spanning lines, and one at the end
    "a /* one\ntwo\n  three */ b\n/* x */ c /**/ d /*/ e */",
    "x /* last */",
    # @ continuation lines, and @ anywhere else
    "/*@ requires a;\n  @ ensures b;\n  @ @ c;\n@\n  @*/",
    "/*@ requires a; @ b; @*/",
    "int @x;",
    "@",
    "@\nint x;",
    "/*@ a;\n /* c */ @ b @*/",
    "/*@ a;\n\t\r@ b @*/",
    "/*@ a; // c\n  @ b @*/",
    # nested, stray and unterminated comments and annotations
    "/*@ /*@ @*/ @*/",
    "a @*/",
    "a /* b",
    "a /* b\nc",
    "/*@ requires x;",
    "/*@ requires x;\n  @ ensures y;\n",
    "/*@ lemma l: true; @*/ /*@",
    # numbers
    "1.", "1.5e-3", "2E+7", "1e", "50f", "1_", "1e+", "1.e5", "1.5.2",
    "1..2", "007", "3.14 0.0 10e2 7E-0", "1.5ex", "2e3_", "x1 1x",
    # backslash words and reserved words
    "\\old(x) \\result \\forall \\length(a)", "\\foo", "\\", "\\old2",
    "class", "int classy; int class_;", "null", "Permut requires x_1 _y",
    # every symbol, spaced and glued
    "/*@ " + " ".join(s for s in SYMBOLS if s not in ("/*@", "@*/")) + " @*/",
    "a==>b==c!=d<=e>=f&&g||h<i>j=k!l+m-n*o/p(q)[r]{s},t;u:v",
    "a=>b a=<b a===b a!==b a<<=b",
    "& |",
    "a # b",
    "a\tb\r\nc",
    "",
]

_FORMULAS = [
    "a ==> b ==> c", "a || b && c", "a - b - c", "-a * b", "a <= b < c",
    "x == y != z", "a < b == c", "a && b || c ==> d", "(a ==> b) ==> c",
    "a * b + c / d - e", "!a && !b || c", "a + b <= c * d >= e",
    "a[i + 1] * -b[j] > 0", "f(a, b + c) > 0 && g()",
    "\\forall integer k; 0 <= k < n ==> a[k] > 0",
    "\\old(a[i]) == \\result + \\length(a)",
    "Permut{Old,Here}(a, 0, n - 1) && a ==> b",
    "a ==> (b || c) && d", "- - a", "a == b ==> c != d",
]

_PROGRAM = [
    "a ==> b", "a || b && c", "a - b - c", "-a * b", "a <= b < c",
    "x == y != z", "a[i + 1] * -b[j]", "f(a, b) + g(c) * 2",
    "(a + b) * c", "(a ==> b)", "!(a < b) && c", "a / b / c",
]

PARSE_SNIPPETS = (
    [f"/*@ lemma l: {f}; @*/" for f in _FORMULAS]
    + [f"int m(int a) {{ x = {e}; return {e}; }}" for e in _PROGRAM]
    + ["void m(int a) { /*@ ghost int g = a ==> b; @*/ }",
       "void m(int a) { /*@ ghost int g = \\old(a) + 1; @*/ "
       "/*@ set g = a[\\old(i)] || b; @*/ }",
       "void m(int n) {\n  /*@ loop_invariant n >= 0 ==> n < 9;\n"
       "    @ loop_variant n - 1; @*/\n  while (n > 0 && n < 9) { n = n - 1; }\n}",
       "/*@ requires a ==> b; ensures \\result == 1;\n"
       "  @ behaviour one: assumes a; ensures b || c; @*/\nint m() { return 1; }"]
)


def lexer_lines():
    sources = [(f"corpus {e.filename}", corpus.source_text(e.name))
               for e in corpus.corpus_sources()]
    sources += [(json.dumps(s), s) for s in LEXER_EDGES]
    out = []
    for title, text in sources:
        out.append(f"## {title}\n")
        try:
            out.extend(f"{t.kind}\t{t.text}\t{t.line}:{t.col}\n"
                       for t in tokenize(text))
        except ParseError as ex:
            out.append(f"ParseError: {ex}\n")
    return "".join(out)


def parser_lines():
    out = []
    for text in PARSE_SNIPPETS:
        try:
            tree = repr(parse(text))
        except ParseError as ex:
            tree = f"ParseError: {ex} {list(ex.expected)}"
        out.append(f"{json.dumps(text)}\n{tree}\n")
    return "".join(out)


def _golden(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return fh.read()


def test_token_streams_match_golden():
    assert lexer_lines() == _golden(LEXER_GOLDEN)


def test_parse_trees_match_golden():
    assert parser_lines() == _golden(PARSER_GOLDEN)


if __name__ == "__main__":
    for name, text in ((LEXER_GOLDEN, lexer_lines()), (PARSER_GOLDEN, parser_lines())):
        with open(os.path.join(GOLDEN, name), "w", encoding="utf-8") as fh:
            fh.write(text)
