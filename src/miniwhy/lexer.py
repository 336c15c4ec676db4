"""Tokenizer for MiniJML source text.

Annotation blocks are delimited by /*@ ... @*/ and tokenized in the same
stream as program text; a leading '@' on annotation continuation lines is
skipped, JML-style. Ordinary // and /* */ comments are discarded. Numeric
literals take no suffix: `50f` is a lex error by design.
"""

from __future__ import annotations

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


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(text)
    in_annot = False
    at_line_start = True

    def err(msg):
        raise ParseError(msg, line, col)

    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            at_line_start = True
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        # JML continuation marker: '@' after line start inside an annotation
        if c == "@" and not text.startswith("@*/", i):
            if in_annot and at_line_start:
                i += 1
                col += 1
                continue
            err("unexpected '@'")
        at_line_start = False
        # comments
        if text.startswith("//", i):
            j = text.find("\n", i)
            if j < 0:
                break
            i = j
            continue
        if text.startswith("/*", i) and not text.startswith("/*@", i):
            j = text.find("*/", i + 2)
            if j < 0:
                err("unterminated comment")
            skipped = text[i:j + 2]
            nl = skipped.count("\n")
            if nl:
                line += nl
                col = len(skipped) - skipped.rfind("\n")
            else:
                col += len(skipped)
            i = j + 2
            continue
        # numbers
        if c.isdecimal():
            j = i
            isreal = False
            while j < n and text[j].isdecimal():
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdecimal():
                isreal = True
                j += 1
                while j < n and text[j].isdecimal():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdecimal():
                    isreal = True
                    j = k
                    while j < n and text[j].isdecimal():
                        j += 1
            if j < n and (text[j].isalpha() or text[j] == "_"):
                err(f"malformed numeric literal {text[i:j + 1]!r} (suffixes are not allowed)")
            lit = text[i:j]
            toks.append(Token("real" if isreal else "int", lit, line, col))
            col += j - i
            i = j
            continue
        # identifiers / keywords
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word in FORBIDDEN_WORDS:
                err(f"reserved word {word!r} is not part of the language")
            kind = "keyword" if word in KEYWORDS else "ident"
            toks.append(Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        # backslash constructs
        if c == "\\":
            j = i + 1
            while j < n and text[j].isalpha():
                j += 1
            word = text[i + 1:j]
            if word not in BACKSLASH_WORDS:
                err(f"unknown construct '\\{word}'")
            toks.append(Token("backslash", word, line, col))
            col += j - i
            i = j
            continue
        # symbols, longest match first
        for s in SYMBOLS:
            if text.startswith(s, i):
                if s == "/*@":
                    if in_annot:
                        err("nested annotation block")
                    in_annot = True
                elif s == "@*/":
                    if not in_annot:
                        err("'@*/' outside an annotation block")
                    in_annot = False
                toks.append(Token("symbol", s, line, col))
                col += len(s)
                i += len(s)
                break
        else:
            err(f"unexpected character {c!r}")
    if in_annot:
        raise ParseError("unterminated annotation block", line, col)
    toks.append(Token("eof", "", line, col))
    return toks
