"""Textual literals for finite words, lassos, and carrier words.

Finite:   digits in 0..3, or the empty word written as an empty string
          or the single character representing epsilon.
Lasso:    u(v) with u, v digit strings, v nonempty, e.g. 1(0) or (01).
Carrier:  K[N,j]m with N, j in ASCII decimal digits and m a binary
          lasso literal, e.g. K[0,0](1) or K[2,1]0(10).

The matched digit strings go to FiniteWord and LassoWord as they are: the
word constructors are the one place that turns input into letters.
"""

import re

from .errors import InvalidAddress, LiteralSyntaxError
from .words import FiniteWord, KnjEncodedWord, LassoWord

_FINITE = re.compile(r"[0-3]*\Z")
_LASSO = re.compile(r"([0-3]*)\(([0-3]+)\)\Z")
_KNJ = re.compile(r"K\[([0-9]+),([0-9]+)\]([01]*)\(([01]+)\)\Z")

EPSILON = "ε"


def _check_fits(text, digits, size):
    """Refuse digits whose largest does not fit the alphabet, at that
    digit's first position in the literal."""
    top = max(digits)
    if int(top) >= size:
        raise LiteralSyntaxError(
            f"letter {top} does not fit an alphabet of size {size}", text.index(top)
        )


def parse_word_literal(text: str, size: int = 4):
    """Parse a literal into a FiniteWord, LassoWord, or KnjEncodedWord."""
    if not isinstance(text, str):
        raise LiteralSyntaxError("expected a string literal", 0)
    if text in ("", EPSILON):
        return FiniteWord((), size)
    if text.startswith("K"):
        m = _KNJ.match(text)
        if not m:
            raise LiteralSyntaxError(
                "carrier literal must look like K[N,j]u(v) with binary u(v)", 0
            )
        try:
            n, j = int(m.group(1)), int(m.group(2))
        except ValueError:  # past sys.get_int_max_str_digits()
            raise LiteralSyntaxError("carrier address has too many digits", 1) from None
        address_m = LassoWord(m.group(3), m.group(4), size=2)
        try:
            return KnjEncodedWord(n, j, address_m)
        except InvalidAddress as exc:
            raise LiteralSyntaxError(str(exc), 1) from exc
    if "(" in text or ")" in text:
        m = _LASSO.match(text)
        if not m:
            pos = text.index("(") if "(" in text else text.index(")")
            raise LiteralSyntaxError(
                "lasso literal must look like u(v) with nonempty v", pos
            )
        spoke, cycle = m.groups()
        _check_fits(text, spoke + cycle, size)
        return LassoWord(spoke, cycle, size=size)
    m = _FINITE.match(text)
    if not m:
        bad = next(i for i, c in enumerate(text) if c not in "0123")
        raise LiteralSyntaxError(f"unexpected character {text[bad]!r}", bad)
    _check_fits(text, text, size)
    return FiniteWord(text, size)


def format_word(w) -> str:
    """Inverse of parse_word_literal on its three shapes."""
    return str(w)
