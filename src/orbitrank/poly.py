"""Sparse multivariate and dense univariate polynomials over exact rationals.

Coefficients are ``fractions.Fraction`` throughout; no floating point enters
any computation here. Values are immutable by convention: every operation
returns a fresh polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

Exp = tuple[int, ...]


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _den(coeffs) -> int:
    return lcm(*(c.denominator for c in coeffs))


def _pack(polys: Sequence[Mapping[Exp, Fraction]], times: int):
    """(d, base, [(key, c * d)] per dict), d the common denominator, keys the
    exponents in base times * maxexp + 1: adding ``times`` keys adds vectors."""
    den = _den(c for t in polys for c in t.values())
    base = times * max((e for t in polys for exp in t for e in exp), default=0) + 1
    out = []
    for t in polys:
        out.append(items := [])
        for exp, c in t.items():
            key = 0
            for e in exp:
                key = key * base + e
            items.append((key, c.numerator * (den // c.denominator)))
    return den, base, out


def _mpoly(nvars: int, terms: dict) -> "MPoly":
    out = MPoly.__new__(MPoly)
    out.nvars, out.terms = nvars, terms
    return out


def _unpack(acc: dict[int, int], base: int, nvars: int, scale: int) -> "MPoly":
    """c / scale at each unpacked key of ``acc``, as an MPoly."""
    terms = {}
    while acc:
        key, c = acc.popitem()
        if c:
            exp = [0] * nvars
            for i in range(nvars - 1, -1, -1):
                key, exp[i] = divmod(key, base)
            terms[tuple(exp)] = Fraction(c, scale)
    return _mpoly(nvars, terms)


def _int_mul(a: list[int], b: list[int]) -> list[int]:
    """Product of two integer coefficient lists, lowest degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


class MPoly:
    """Sparse multivariate polynomial in ``nvars`` variables.

    Terms map exponent vectors (tuples of length ``nvars``) to nonzero
    rational coefficients; the zero polynomial stores no terms.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exp, Fraction] | None = None):
        self.nvars = nvars
        clean: dict[Exp, Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                exp = tuple(int(e) for e in exp)
                if len(exp) != nvars:
                    raise ValueError(f"exponent vector of length {len(exp)}, expected {nvars}")
                if any(e < 0 for e in exp):
                    raise ValueError(f"negative exponent in {exp}")
                c = _frac(coeff)
                if c:
                    clean[exp] = clean.get(exp, Fraction(0)) + c
                    if not clean[exp]:
                        del clean[exp]
        self.terms = clean

    @classmethod
    def zero(cls, nvars: int) -> "MPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, value, nvars: int) -> "MPoly":
        c = _frac(value)
        if not c:
            return cls(nvars)
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, index: int, nvars: int) -> "MPoly":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        exp = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {exp: Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        """Value of a constant polynomial (the zero polynomial gives 0)."""
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def _check_same_ring(self, other: "MPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"mixed variable counts: {self.nvars} vs {other.nvars}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other: "MPoly") -> "MPoly":
        self._check_same_ring(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            s = terms.get(exp, Fraction(0)) + c
            if s:
                terms[exp] = s
            else:
                terms.pop(exp, None)
        return _mpoly(self.nvars, terms)

    def __neg__(self) -> "MPoly":
        return _mpoly(self.nvars, {exp: -c for exp, c in self.terms.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other) -> "MPoly":
        if not isinstance(other, MPoly):
            c = _frac(other)
            if not c:
                return MPoly(self.nvars)
            return _mpoly(self.nvars, {exp: coeff * c for exp, coeff in self.terms.items()})
        self._check_same_ring(other)
        terms: dict[Exp, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(exp, Fraction(0)) + c1 * c2
                if s:
                    terms[exp] = s
                else:
                    terms.pop(exp, None)
        return _mpoly(self.nvars, terms)

    __rmul__ = __mul__

    def square(self) -> "MPoly":
        """self * self on Python ints over the common denominator d, keys
        packed in base 2 * maxexp + 1: each pair of terms is summed once
        (c_i**2 on the diagonal, 2*c_i*c_j off it), then divided by d**2.
        """
        den, base, (items,) = _pack([self.terms], 2)
        acc: dict[int, int] = {}
        get = acc.get
        for i, (ki, ci) in enumerate(items):
            acc[2 * ki] = get(2 * ki, 0) + ci * ci
            twice = 2 * ci
            for kj, cj in items[i + 1 :]:
                k = ki + kj
                acc[k] = get(k, 0) + twice * cj
        return _unpack(acc, base, self.nvars, den * den)

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative power")
        result = MPoly.constant(1, self.nvars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def evaluate(self, point: Sequence) -> Fraction:
        if len(point) != self.nvars:
            raise ValueError(f"point of length {len(point)}, expected {self.nvars}")
        pt = [_frac(x) for x in point]
        total = Fraction(0)
        for exp, c in self.terms.items():
            val = c
            for x, e in zip(pt, exp):
                if e:
                    val *= x**e
            total += val
        return total

    def restrict_to_segment(self, start: Sequence, end: Sequence) -> "UPoly":
        """Restriction to the line t -> start + t*(end - start) as a UPoly in t.

        On Python ints: start P/D, direction Q/D, coefficients over C. The
        powers (P_i + Q_i t)^e are built once, a term of degree deg is scaled
        by D**(top - deg), and the sum is divided by C * D**top at the end.
        """
        if len(start) != self.nvars or len(end) != self.nvars:
            raise ValueError("segment endpoints must match the variable count")
        if not self.terms:
            return UPoly.zero()
        p = [_frac(x) for x in start]
        q = [_frac(b) - a for a, b in zip(p, end)]
        den = _den(p + q)
        cden = _den(self.terms.values())
        top = self.total_degree()
        den_pow = [den**k for k in range(top + 1)]
        # powers[i][e]: coefficients of (P_i + Q_i t)^e, lowest degree first
        powers = []
        for i in range(self.nvars):
            line = [x.numerator * (den // x.denominator) for x in (p[i], q[i])]
            pw = [[1]]
            for _ in range(max(exp[i] for exp in self.terms)):
                pw.append(_int_mul(pw[-1], line))
            powers.append(pw)
        total = [0] * (top + 1)
        for exp, c in self.terms.items():
            term = [c.numerator * (cden // c.denominator) * den_pow[top - sum(exp)]]
            for pw, e in zip(powers, exp):
                if e:
                    term = _int_mul(term, pw[e])
            for k, x in enumerate(term):
                total[k] += x
        scale = cden * den_pow[top]
        return UPoly([Fraction(x, scale) for x in total])

    def render(self, names: Sequence[str]) -> str:
        """Canonical string, graded-lexicographic term order, descending."""
        if len(names) != self.nvars:
            raise ValueError("need one name per variable")
        if not self.terms:
            return "0"
        ordered = sorted(
            self.terms.items(),
            key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0])),
        )
        parts: list[str] = []
        for i, (exp, c) in enumerate(ordered):
            factors = []
            for name, e in zip(names, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mono = "*".join(factors)
            mag = abs(c)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            if i == 0:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts)

    def __repr__(self):
        names = [f"x{i}" for i in range(self.nvars)]
        return f"MPoly({self.render(names)})"


class UPoly:
    """Dense univariate polynomial, coefficients lowest degree first.

    The coefficient tuple is trimmed: the leading coefficient is nonzero
    unless the polynomial is zero (empty tuple).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "UPoly":
        return cls(())

    @classmethod
    def constant(cls, value) -> "UPoly":
        return cls((value,))

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, UPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "UPoly") -> "UPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UPoly(out)

    def __neg__(self) -> "UPoly":
        return UPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "UPoly") -> "UPoly":
        return self + (-other)

    def __mul__(self, other) -> "UPoly":
        if not isinstance(other, UPoly):
            c = _frac(other)
            return UPoly(tuple(x * c for x in self.coeffs))
        if not self.coeffs or not other.coeffs:
            return UPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UPoly(out)

    __rmul__ = __mul__

    def evaluate(self, x) -> Fraction:
        x = _frac(x)
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def derivative(self) -> "UPoly":
        return UPoly(tuple(c * k for k, c in enumerate(self.coeffs) if k >= 1))

    def divmod(self, other: "UPoly") -> tuple["UPoly", "UPoly"]:
        """Exact rational long division: self = q*other + r with deg r < deg other."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UPoly.zero(), UPoly(rem)
        quot = [Fraction(0)] * (dq + 1)
        lead = other.coeffs[-1]
        for k in range(dq, -1, -1):
            c = rem[k + len(other.coeffs) - 1] / lead
            quot[k] = c
            if c:
                for i, b in enumerate(other.coeffs):
                    rem[k + i] -= c * b
        return UPoly(quot), UPoly(rem)

    def __repr__(self):
        if not self.coeffs:
            return "UPoly(0)"
        parts = [f"{c}*t^{k}" for k, c in enumerate(self.coeffs) if c]
        return "UPoly(" + " + ".join(parts) + ")"


def primitive_part(p: UPoly) -> UPoly:
    """Divide out the positive content (gcd of numerators over lcm of
    denominators); the sign of every value is preserved."""
    if p.is_zero():
        return p
    return p * Fraction(_den(p.coeffs), gcd(*(c.numerator for c in p.coeffs)))


def poly_gcd(a: UPoly, b: UPoly) -> UPoly:
    """Greatest common divisor, returned primitive with positive leading coefficient."""
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, primitive_part(r)
    if a.is_zero():
        return a
    a = primitive_part(a)
    if a.leading() < 0:
        a = -a
    return a


def exact_div(a: UPoly, b: UPoly) -> UPoly:
    q, r = a.divmod(b)
    if not r.is_zero():
        raise ValueError("division is not exact")
    return q


def squarefree_part(p: UPoly) -> UPoly:
    """p with repeated roots collapsed: p / gcd(p, p')."""
    if p.degree() <= 0:
        return p
    g = poly_gcd(p, p.derivative())
    if g.degree() <= 0:
        return p
    return exact_div(p, g)


def sym_pfaffian(m: Sequence[Sequence[MPoly]]) -> MPoly:
    """Pfaffian of a skew-symmetric matrix of polynomials; zero for odd size.

    First-row expansion memoized on the remaining indices (at most 2**n
    states), on Python ints: Pf(B) = Pf(d*B) / d**(n/2), keys packed in base
    (n/2) * maxexp + 1. Raises ValueError unless skew with zero diagonal.
    """
    n = len(m)
    if n == 0:
        raise ValueError("empty matrix")
    nvars = m[0][0].nvars
    for i in range(n):
        if len(m[i]) != n:
            raise ValueError("matrix is not square")
        if {p.nvars for p in m[i]} != {nvars}:
            raise ValueError("mixed variable counts")
        if not m[i][i].is_zero():
            raise ValueError(f"nonzero diagonal entry at ({i},{i})")
        for j in range(i + 1, n):
            if not (m[i][j] + m[j][i]).is_zero():
                raise ValueError(f"entries ({i},{j}) and ({j},{i}) are not opposite")
    if n % 2:
        return MPoly.zero(nvars)
    den, base, packed = _pack([p.terms for row in m for p in row], n // 2)
    memo = {(): {0: 1}}

    def pf(idx: tuple[int, ...]) -> dict[int, int]:
        if idx not in memo:
            row, rest = idx[0] * n, idx[1:]
            acc = {}
            get = acc.get
            for t, j in enumerate(rest):
                if packed[row + j]:
                    sub = pf(rest[:t] + rest[t + 1 :]).items()
                    for k1, c1 in packed[row + j]:
                        c1 = -c1 if t % 2 else c1
                        for k2, c2 in sub:
                            k = k1 + k2
                            acc[k] = get(k, 0) + c1 * c2
            memo[idx] = {k: c for k, c in acc.items() if c}
        return memo[idx]

    return _unpack(pf(tuple(range(n))), base, nvars, den ** (n // 2))
