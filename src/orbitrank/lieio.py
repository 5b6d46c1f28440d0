"""The .lie text format: exact structure constants in and out.

Grammar (tokens separated by whitespace, '#' starts a comment):

    lie 1
    dim <n>                      (1 <= n <= DIM_CAP = 64)
    basis <name> ... <name>
    [A,B] = c1 N1 + c2 N2 ...

Coefficients are integers or p/q rationals; omitted bracket pairs are zero.
Rendering is canonical (lowest terms, no /1, terms in basis order), so
parse(render(L)) reproduces L exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .liealg import DIM_CAP, LieAlgebra, validate

_BRACKET_RE = re.compile(r"^\[([A-Za-z_][A-Za-z0-9_]*),([A-Za-z_][A-Za-z0-9_]*)\]$")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_COEFF_RE = re.compile(r"^-?\d+(/\d+)?$")


class LieParseError(Exception):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def read_utf8(path: str, error) -> str:
    """A file's text; a byte that is not UTF-8 raises ``error(line, column, message)``.

    Lines are numbered as the parsers number them, with "?" standing in for
    the bad byte, and the column is that byte's.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lines = (data[: exc.start].decode("utf-8") + "?").splitlines()
        raise error(len(lines), len(lines[-1]), f"not valid UTF-8: {exc.reason}") from None


class LieFile(NamedTuple):
    """Parsed but not yet validated algebra description."""

    version: int
    dim: int
    basis: tuple[str, ...]
    brackets: tuple[tuple[str, str, tuple[tuple[Fraction, str], ...]], ...]


def _tokens_with_columns(line: str) -> list[tuple[str, int]]:
    out = []
    for match in re.finditer(r"\S+", line):
        out.append((match.group(0), match.start() + 1))
    return out


def parse_lie(text: str) -> LieFile:
    """Parse the text into a LieFile, with line/column on syntax errors."""
    version = None
    dim = None
    basis: tuple[str, ...] | None = None
    brackets: list[tuple[str, str, tuple[tuple[Fraction, str], ...]]] = []
    seen_pairs: set[frozenset[str]] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        toks = _tokens_with_columns(line)
        if not toks:
            continue
        word, col = toks[0]
        if version is None:
            if word != "lie" or len(toks) != 2 or toks[1][0] != "1":
                raise LieParseError(lineno, col, "expected header 'lie 1'")
            version = 1
        elif dim is None:
            if word != "dim" or len(toks) != 2:
                raise LieParseError(lineno, col, "expected 'dim <n>'")
            try:
                dim = int(toks[1][0])
            except ValueError:
                raise LieParseError(lineno, toks[1][1], "dimension must be an integer") from None
            if not 1 <= dim <= DIM_CAP:
                raise LieParseError(lineno, toks[1][1], f"dimension must be in [1, {DIM_CAP}]")
        elif basis is None:
            if word != "basis":
                raise LieParseError(lineno, col, "expected 'basis <names>'")
            names = []
            for tok, c in toks[1:]:
                if not _NAME_RE.match(tok):
                    raise LieParseError(lineno, c, f"bad basis name {tok!r}")
                names.append(tok)
            if len(names) != dim:
                raise LieParseError(lineno, col, f"{len(names)} basis names for dim {dim}")
            basis = tuple(names)
        else:
            m = _BRACKET_RE.match(word)
            if not m:
                raise LieParseError(lineno, col, f"expected a bracket line, got {word!r}")
            left, right = m.group(1), m.group(2)
            for name in (left, right):
                if name not in basis:
                    raise LieParseError(lineno, col, f"undeclared basis name {name!r}")
            pair = frozenset((left, right))
            if left == right:
                raise LieParseError(lineno, col, f"bracket [{left},{right}] of a vector with itself")
            if pair in seen_pairs:
                raise LieParseError(lineno, col, f"bracket for pair {left},{right} listed twice")
            seen_pairs.add(pair)
            if len(toks) < 2 or toks[1][0] != "=":
                raise LieParseError(lineno, col, "expected '=' after the bracket")
            rest = toks[2:]
            if not rest:
                raise LieParseError(lineno, col, "empty right-hand side; omit zero brackets")
            terms: list[tuple[Fraction, str]] = []
            i = 0
            while i < len(rest):
                if terms:
                    tok, c = rest[i]
                    if tok != "+":
                        raise LieParseError(lineno, c, f"expected '+', got {tok!r}")
                    i += 1
                if i + 1 >= len(rest):
                    raise LieParseError(lineno, rest[-1][1], "expected '<coefficient> <name>'")
                coeff_tok, cc = rest[i]
                name_tok, nc = rest[i + 1]
                if not _COEFF_RE.match(coeff_tok):
                    raise LieParseError(lineno, cc, f"bad coefficient {coeff_tok!r}")
                _, slash, den = coeff_tok.partition("/")
                if slash and int(den) == 0:
                    raise LieParseError(lineno, cc, f"zero denominator in coefficient {coeff_tok!r}")
                if name_tok not in basis:
                    raise LieParseError(lineno, nc, f"undeclared basis name {name_tok!r}")
                terms.append((Fraction(coeff_tok), name_tok))
                i += 2
            brackets.append((left, right, tuple(terms)))

    if version is None:
        raise LieParseError(1, 1, "expected header 'lie 1'")
    if dim is None:
        raise LieParseError(1, 1, "missing 'dim' line")
    if basis is None:
        raise LieParseError(1, 1, "missing 'basis' line")
    return LieFile(version=1, dim=dim, basis=basis, brackets=tuple(brackets))


def to_algebra(lf: LieFile) -> LieAlgebra:
    """Build and validate the algebra described by a LieFile."""
    index = {name: i for i, name in enumerate(lf.basis)}
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    for left, right, terms in lf.brackets:
        j, k = index[left], index[right]
        sign = 1
        if j > k:
            j, k, sign = k, j, -1
        vec: dict[int, Fraction] = {}
        for coeff, name in terms:
            l = index[name]
            vec[l] = vec.get(l, Fraction(0)) + sign * coeff
        table[(j, k)] = vec
    return validate(lf.dim, lf.basis, table)


def parse_lie_file(text: str) -> LieAlgebra:
    """Parse and validate in one step (Jacobi failures propagate)."""
    return to_algebra(parse_lie(text))


def render_bracket_terms(vec, basis: tuple[str, ...]) -> str:
    parts = [f"{c} {basis[l]}" for l, c in enumerate(vec) if c]
    return " + ".join(parts)


def render_lie(L: LieAlgebra) -> str:
    """Canonical .lie text for an algebra; parse(render(L)) == L."""
    lines = ["lie 1", f"dim {L.dim}", "basis " + " ".join(L.basis_names)]
    for (j, k) in sorted(L.constants):
        vec = L.constants[(j, k)]
        lines.append(
            f"[{L.basis_names[j]},{L.basis_names[k]}] = "
            + render_bracket_terms(vec, L.basis_names)
        )
    return "\n".join(lines) + "\n"
