"""Tokenizer for MiniJML source text.

One table, `_LEXEME`, states every lexeme class as a regular expression;
`tokenize` matches their ordered alternation and dispatches on the class
that matched. Annotation blocks are delimited by /*@ ... @*/ and tokenized
in the same stream as program text; a leading '@' on annotation
continuation lines is skipped, JML-style. Ordinary // and /* */ comments
are discarded. Identifiers are ASCII. Numeric literals take no suffix:
`50f` is a lex error by design.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError

KEYWORDS = {
    "int", "real", "bool", "void", "integer",
    "if", "else", "while", "do", "return", "new", "true", "false",
    "lemma", "requires", "ensures", "behaviour", "assumes", "assert",
    "loop_invariant", "loop_variant", "ghost", "set", "Permut",
}

# words that may never be used as identifiers: the constructs the grammar
# excludes by construction
FORBIDDEN_WORDS = {
    "import", "package", "extends", "implements", "native", "class",
    "interface", "public", "private", "protected", "static", "final",
    "float", "double", "null",
}

SYMBOLS = [
    "==>", "==", "!=", "<=", ">=", "&&", "||",
    "/*@", "@*/",
    "<", ">", "=", "!", "+", "-", "*", "/", "(", ")", "[", "]",
    "{", "}", ",", ";", ":",
]

BACKSLASH_WORDS = {"old", "result", "forall", "length"}


@dataclass(frozen=True)
class Token:
    kind: str     # 'ident', 'keyword', 'int', 'real', 'symbol', 'backslash', 'eof'
    text: str
    line: int
    col: int

    def __repr__(self):
        return f"Token({self.kind!r}, {self.text!r}, {self.line}:{self.col})"


def decimal_value(text: str) -> Fraction:
    """Exact rational value of a decimal/scientific literal."""
    mantissa = text
    exp = 0
    for e in ("e", "E"):
        if e in mantissa:
            mantissa, _, epart = mantissa.partition(e)
            exp = int(epart)
            break
    if "." in mantissa:
        whole, _, frac = mantissa.partition(".")
        exp -= len(frac)
        mantissa = (whole or "0") + frac
    base = Fraction(int(mantissa))
    if exp >= 0:
        return base * Fraction(10) ** exp
    return base / Fraction(10) ** (-exp)


# The lexeme classes, tried in order at each position: the first class that
# matches names the lexeme, and `other` catches any character that starts
# none. A number keeps the letter that follows it, which makes it a
# malformed literal. A word is ASCII, the alphabet that every export dialect
# can carry.
_LEXEME = re.compile("|".join(f"(?P<{name}>{pattern})" for name, pattern in (
    ("newline", r"\n"),
    ("blanks", r"[ \t\r]+"),
    ("at", r"@(?!\*/)"),
    ("line_comment", r"//[^\n]*"),
    ("block_comment", r"/\*(?!@).*?\*/"),
    ("open_comment", r"/\*(?!@)"),
    ("number", r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?[A-Za-z_]?"),
    ("word", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("backslash", r"\\[A-Za-z]*"),
    ("symbol", "|".join(map(re.escape, sorted(SYMBOLS, key=len, reverse=True)))),
    ("other", "."),
)), re.DOTALL)


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    in_annot = False
    at_line_start = True
    for m in _LEXEME.finditer(text):
        kind, lexeme = m.lastgroup, m.group()
        # JML continuation marker: '@' after line start inside an annotation
        if kind == "at" and not (in_annot and at_line_start):
            raise ParseError("unexpected '@'", line, col)
        at_line_start = kind == "newline" or (at_line_start and kind in ("blanks", "at"))
        if "\n" in lexeme:     # a newline, or a comment over several lines
            line += lexeme.count("\n")
            col = len(lexeme) - lexeme.rfind("\n")
            continue
        if kind == "line_comment":
            # the column stays at the comment: the eof token takes it when
            # the input ends inside the comment
            continue
        if kind == "number":
            if not lexeme[-1].isdecimal():
                raise ParseError(f"malformed numeric literal {lexeme!r} "
                                 "(suffixes are not allowed)", line, col)
            toks.append(Token("int" if lexeme.isdecimal() else "real",
                              lexeme, line, col))
        elif kind == "word":
            if lexeme in FORBIDDEN_WORDS:
                raise ParseError(f"reserved word {lexeme!r} is not part of the language",
                                 line, col)
            toks.append(Token("keyword" if lexeme in KEYWORDS else "ident",
                              lexeme, line, col))
        elif kind == "backslash":
            if lexeme[1:] not in BACKSLASH_WORDS:
                raise ParseError(f"unknown construct '{lexeme}'", line, col)
            toks.append(Token("backslash", lexeme[1:], line, col))
        elif kind == "symbol":
            if lexeme == "/*@":
                if in_annot:
                    raise ParseError("nested annotation block", line, col)
                in_annot = True
            elif lexeme == "@*/":
                if not in_annot:
                    raise ParseError("'@*/' outside an annotation block", line, col)
                in_annot = False
            toks.append(Token("symbol", lexeme, line, col))
        elif kind == "open_comment":
            raise ParseError("unterminated comment", line, col)
        elif kind == "other":
            raise ParseError(f"unexpected character {lexeme!r}", line, col)
        col += len(lexeme)
    if in_annot:
        raise ParseError("unterminated annotation block", line, col)
    toks.append(Token("eof", "", line, col))
    return toks
