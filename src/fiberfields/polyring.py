"""Exact polynomial arithmetic over Z and Q.

IntPoly is a dense integer polynomial (coefficients lowest-degree first);
PlanePoly is an integer polynomial in x and y, monic in y, modelling a
plane curve presented as a cover of the x-line.  On top of the ring
operations this module provides:

  * a strict recursive-descent parser / canonical printer for the ASCII
    grammar (integer literals, x, y, + - * ^, parentheses; implicit
    multiplication only as coefficient-times-monomial like 3x^2),
  * resultants by subresultant pseudo-remainder sequences, discriminants,
    and y-discriminants of plane models (by evaluation/interpolation),
  * separable radicals preserving the leading coefficient,
  * complete factorization into irreducibles over Q (squarefree
    decomposition, modular factorization, Hensel lifting to a
    Landau-Mignotte bound, subset recombination), and
  * exact root counts modulo arbitrary m >= 2.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from . import _kernels, _modpoly, arith
from .errors import DomainError, PolyParseError

FACTOR_DEGREE_BOUND = 12
_MAX_EXPONENT = 1024
_ROOTS_BRUTE_BOUND = 1_000_000


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------


def _strip(coeffs) -> tuple[int, ...]:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(int(c) for c in cs)


@dataclass(frozen=True)
class IntPoly:
    """Dense integer polynomial; coeffs[k] multiplies x**k."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _strip(self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lc(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __neg__(self) -> "IntPoly":
        return IntPoly([-c for c in self.coeffs])

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly(())
        out = [0] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if c:
                for j, d in enumerate(b):
                    out[i + j] += c * d
        return IntPoly(out)

    def scale(self, a: int) -> "IntPoly":
        return IntPoly([a * c for c in self.coeffs])

    def pow(self, e: int) -> "IntPoly":
        result = IntPoly((1,))
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def derivative(self) -> "IntPoly":
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def content(self) -> int:
        """Signed content: gcd of coefficients carrying the sign of lc."""
        if not self.coeffs:
            return 0
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, c)
        return g if self.lc > 0 else -g

    def primitive(self) -> "IntPoly":
        """Primitive part with positive leading coefficient."""
        c = self.content()
        if c == 0:
            return self
        return IntPoly([a // c for a in self.coeffs])

    def __call__(self, n: int) -> int:
        """Exact Horner evaluation at the integer n."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * n + c
        return acc

    def __str__(self) -> str:
        return format_poly(self)


def poly_from_dict(d: dict[int, int]) -> IntPoly:
    if not d:
        return IntPoly(())
    out = [0] * (max(d) + 1)
    for k, c in d.items():
        out[k] = c
    return IntPoly(out)


X = IntPoly((0, 1))
ONE = IntPoly((1,))


@dataclass(frozen=True)
class PlanePoly:
    """Integer polynomial F(x, y), monic as a polynomial in y of degree >= 2.

    terms maps (x-degree, y-degree) to a nonzero coefficient, stored as a
    sorted tuple for hashability.
    """

    terms: tuple[tuple[tuple[int, int], int], ...]

    def __post_init__(self):
        cleaned = tuple(
            sorted(((ij, int(c)) for ij, c in self.terms if c != 0))
        )
        object.__setattr__(self, "terms", cleaned)
        ydeg = self.y_degree
        if ydeg < 2:
            raise DomainError("polyring", "plane polynomial needs y-degree >= 2")
        top = [(i, c) for (i, j), c in self.terms if j == ydeg]
        if top != [(0, 1)]:
            raise DomainError("polyring", "plane polynomial must be monic in y")

    @property
    def y_degree(self) -> int:
        return max((j for (_, j), _ in self.terms), default=-1)

    @property
    def x_degree(self) -> int:
        return max((i for (i, _), _ in self.terms), default=-1)

    def y_coefficients(self) -> list[IntPoly]:
        """Coefficient of y**j as an IntPoly in x, for j = 0..y_degree."""
        cols: list[dict[int, int]] = [dict() for _ in range(self.y_degree + 1)]
        for (i, j), c in self.terms:
            cols[j][i] = c
        return [poly_from_dict(d) for d in cols]

    def specialize_x(self, n: int) -> IntPoly:
        """F(n, y) as a univariate integer polynomial in y (monic)."""
        return IntPoly([cf(n) for cf in self.y_coefficients()])

    def __str__(self) -> str:
        return format_poly(self)


# ---------------------------------------------------------------------------
# parsing and printing
# ---------------------------------------------------------------------------

_TOK_INT = "int"
_TOK_VAR = "var"
_TOK_OP = "op"
_TOK_END = "end"


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append((_TOK_INT, int(text[i:j]), i))
            i = j
        elif ch.isalpha():
            if ch not in ("x", "y"):
                raise PolyParseError(f"unknown variable {ch!r}", i)
            tokens.append((_TOK_VAR, ch, i))
            i += 1
        elif ch in "+-*^()":
            tokens.append((_TOK_OP, ch, i))
            i += 1
        else:
            raise PolyParseError(f"unexpected character {ch!r}", i)
    tokens.append((_TOK_END, None, n))
    return tokens


class _Parser:
    """Recursive descent over the cover/polynomial grammar.

    Values are sparse dicts {(x_deg, y_deg): coeff}.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> dict[tuple[int, int], int]:
        value = self.expr()
        kind, _, offset = self.peek()
        if kind is not _TOK_END:
            raise PolyParseError("trailing input", offset)
        return value

    def expr(self):
        value = self.term()
        while True:
            kind, op, _ = self.peek()
            if kind is _TOK_OP and op in "+-":
                self.advance()
                rhs = self.term()
                value = _poly_add(value, rhs if op == "+" else _poly_neg(rhs))
            else:
                return value

    def term(self):
        value = self.unary()
        while True:
            kind, op, _ = self.peek()
            if kind is _TOK_OP and op == "*":
                self.advance()
                value = _poly_mul(value, self.unary())
            else:
                return value

    def unary(self):
        sign = 1
        while True:
            kind, op, _ = self.peek()
            if kind is _TOK_OP and op in "+-":
                self.advance()
                if op == "-":
                    sign = -sign
            else:
                break
        value = self.primary()
        return value if sign == 1 else _poly_neg(value)

    def primary(self):
        kind, val, offset = self.advance()
        if kind is _TOK_INT:
            value = {(0, 0): val} if val else {}
            nk, nv, _ = self.peek()
            if nk is _TOK_VAR:
                self.advance()
                mono = self.monomial_tail(nv)
                return _poly_mul(value, mono)
            if nk is _TOK_OP and nv == "^":
                e = self.exponent()
                return _poly_pow(value, e)
            return value
        if kind is _TOK_VAR:
            return self.monomial_tail(val)
        if kind is _TOK_OP and val == "(":
            value = self.expr()
            k2, v2, o2 = self.advance()
            if not (k2 is _TOK_OP and v2 == ")"):
                raise PolyParseError("expected ')'", o2)
            nk, nv, _ = self.peek()
            if nk is _TOK_OP and nv == "^":
                return _poly_pow(value, self.exponent())
            return value
        raise PolyParseError("expected integer, variable or '('", offset)

    def monomial_tail(self, var: str):
        e = 1
        kind, op, _ = self.peek()
        if kind is _TOK_OP and op == "^":
            e = self.exponent()
        key = (e, 0) if var == "x" else (0, e)
        return {key: 1}

    def exponent(self) -> int:
        self.advance()  # consume '^'
        kind, val, offset = self.peek()
        if kind is not _TOK_INT:
            raise PolyParseError("expected nonnegative integer exponent", offset)
        self.advance()
        if val > _MAX_EXPONENT:
            raise PolyParseError(f"exponent {val} exceeds limit {_MAX_EXPONENT}", offset)
        return val


def _poly_add(a, b):
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _poly_neg(a):
    return {k: -c for k, c in a.items()}


def _poly_mul(a, b):
    out: dict[tuple[int, int], int] = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            k = (i1 + i2, j1 + j2)
            s = out.get(k, 0) + c1 * c2
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def _poly_pow(a, e):
    result = {(0, 0): 1}
    base = a
    while e:
        if e & 1:
            result = _poly_mul(result, base)
        e >>= 1
        if e:
            base = _poly_mul(base, base)
    return result


def parse_poly(text: str) -> IntPoly | PlanePoly:
    """Parse the ASCII grammar into an IntPoly (x only) or PlanePoly (x, y)."""
    value = _Parser(text).parse()
    ydeg = max((j for (_, j) in value), default=0)
    if ydeg == 0:
        return poly_from_dict({i: c for (i, _), c in value.items()})
    return PlanePoly(tuple(value.items()))


def _format_monomial(var: str, e: int) -> str:
    if e == 1:
        return var
    return f"{var}^{e}"


def _format_term(c: int, parts: list[str]) -> str:
    body = "*".join(parts)
    if not body:
        return str(abs(c))
    if abs(c) == 1:
        return body
    return f"{abs(c)}{body}"


def format_poly(p: IntPoly | PlanePoly) -> str:
    """Canonical printer: descending powers, '*' only between variables."""
    if isinstance(p, IntPoly):
        items = [((i, 0), c) for i, c in enumerate(p.coeffs) if c]
    else:
        items = list(p.terms)
    if not items:
        return "0"
    items.sort(key=lambda t: (t[0][1], t[0][0]), reverse=True)
    chunks = []
    for (i, j), c in items:
        parts = []
        if j:
            parts.append(_format_monomial("y", j))
        if i:
            parts.append(_format_monomial("x", i))
        term = _format_term(c, parts)
        if not chunks:
            chunks.append(term if c > 0 else f"-{term}")
        else:
            chunks.append(f"{'+' if c > 0 else '-'} {term}")
    return " ".join(chunks)


# ---------------------------------------------------------------------------
# division, gcd, resultants
# ---------------------------------------------------------------------------


def exact_div(f: IntPoly, g: IntPoly) -> IntPoly | None:
    """f / g in Z[x] if the division is exact, else None."""
    if g.is_zero:
        raise DomainError("polyring", "division by zero polynomial")
    if f.is_zero:
        return IntPoly(())
    if f.degree < g.degree:
        return None
    rem = list(f.coeffs)
    q = [0] * (f.degree - g.degree + 1)
    gl = g.lc
    for k in range(f.degree - g.degree, -1, -1):
        top = rem[k + g.degree]
        if top % gl:
            return None
        c = top // gl
        q[k] = c
        if c:
            for i, b in enumerate(g.coeffs):
                rem[k + i] -= c * b
    if any(rem):
        return None
    return IntPoly(q)


def _pseudo_rem(f: IntPoly, g: IntPoly) -> IntPoly:
    """prem(f, g) = (lc(g) ** (deg f - deg g + 1) * f) mod g, exactly in Z[x]."""
    d = f.degree - g.degree + 1
    lb = g.lc
    r = f
    while not r.is_zero and r.degree >= g.degree:
        shift = [0] * (r.degree - g.degree) + list(g.coeffs)
        r = r.scale(lb) - IntPoly(shift).scale(r.lc)
        d -= 1
    return r.scale(lb ** max(d, 0))


def poly_gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """gcd in Z[x], primitive PRS; result has positive leading coefficient."""
    if f.is_zero:
        return g if g.lc > 0 else -g
    if g.is_zero:
        return f if f.lc > 0 else -f
    cont = math.gcd(abs(f.content()), abs(g.content()))
    a, b = f.primitive(), g.primitive()
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero:
        r = _pseudo_rem(a, b)
        a, b = b, r.primitive()
    return a.scale(cont)


def resultant(f: IntPoly, g: IntPoly) -> int:
    """res(f, g) by the subresultant pseudo-remainder sequence."""
    if f.is_zero or g.is_zero:
        raise DomainError("polyring", "resultant of zero polynomial")
    if f.degree == 0 and g.degree == 0:
        return 1
    if f.degree == 0:
        return f.lc ** g.degree
    if g.degree == 0:
        return g.lc ** f.degree
    sign = 1
    A, B = f, g
    if A.degree < B.degree:
        if A.degree % 2 == 1 and B.degree % 2 == 1:
            sign = -1
        A, B = B, A
    ca, cb = abs(A.content()), abs(B.content())
    A, B = IntPoly([c // ca for c in A.coeffs]), IntPoly([c // cb for c in B.coeffs])
    t = sign * ca**B.degree * cb**A.degree
    gg = hh = 1
    while True:
        delta = A.degree - B.degree
        if A.degree % 2 == 1 and B.degree % 2 == 1:
            t = -t
        R = _pseudo_rem(A, B)
        if R.is_zero:
            return 0
        denom = gg * hh**delta
        A, B = B, IntPoly([c // denom for c in R.coeffs])
        gg = A.lc
        if delta == 0:
            pass
        elif delta == 1:
            hh = gg
        else:
            hh = gg**delta // hh ** (delta - 1)
        if B.degree == 0:
            break
    d = A.degree
    if d == 0:
        return t * B.lc
    num = B.lc**d
    return t * (num // hh ** (d - 1))


def discriminant(f: IntPoly) -> int:
    """disc(f) = (-1)^(d(d-1)/2) res(f, f') / lc(f)."""
    if f.is_zero or f.degree < 1:
        raise DomainError("polyring", "discriminant needs degree >= 1")
    d = f.degree
    r = resultant(f, f.derivative())
    s = -1 if (d * (d - 1) // 2) % 2 else 1
    q, rem = divmod(s * r, f.lc)
    if rem:
        raise DomainError("polyring", "internal: discriminant division not exact")
    return q


def y_discriminant(F: PlanePoly) -> IntPoly:
    """Discriminant of F in y, as an integer polynomial in x.

    Computed by specializing x at enough integer points and interpolating;
    monic-in-y means no degree drop at any specialization.
    """
    p = F.y_degree
    m = max(F.x_degree, 0)
    bound = (2 * p - 1) * m
    xs = []
    vals = []
    x0 = 0
    while len(xs) < bound + 1:
        xs.append(x0)
        vals.append(discriminant(F.specialize_x(x0)))
        x0 = -x0 + (0 if x0 > 0 else 1)  # 0, 1, -1, 2, -2, ...
    coeffs = _interpolate_integer(xs, vals)
    return IntPoly(coeffs)


def _interpolate_integer(xs: list[int], ys: list[int]) -> list[int]:
    """Lagrange interpolation through (xs, ys); asserts integer coefficients."""
    n = len(xs)
    acc = [Fraction(0)] * n
    for i in range(n):
        num = [Fraction(1)]
        denom = Fraction(1)
        for j in range(n):
            if i == j:
                continue
            num = _frac_poly_mul_linear(num, -xs[j])
            denom *= xs[i] - xs[j]
        w = Fraction(ys[i]) / denom
        for k in range(len(num)):
            acc[k] += w * num[k]
    out = []
    for c in acc:
        if c.denominator != 1:
            raise DomainError("polyring", "internal: interpolation gave a non-integer")
        out.append(int(c))
    return out


def _frac_poly_mul_linear(poly: list[Fraction], c0: int) -> list[Fraction]:
    # multiply by (x + c0)
    out = [Fraction(0)] * (len(poly) + 1)
    for i, c in enumerate(poly):
        out[i] += c * c0
        out[i + 1] += c
    return out


# ---------------------------------------------------------------------------
# radical and squarefree machinery
# ---------------------------------------------------------------------------


def radical(g: IntPoly) -> IntPoly:
    """The separable polynomial with the same roots and leading coefficient
    as g: lc(g) times the product of the distinct monic irreducible factors.

    Always lands in Z[x]; divides g in Q[x], and g divides radical**e for e
    the largest multiplicity.
    """
    if g.is_zero or g.degree < 1:
        raise DomainError("polyring", "radical needs degree >= 1")
    fp = g.primitive()
    der = fp.derivative()
    gcd_fd = poly_gcd(fp, der)
    sqf = exact_div(fp, gcd_fd)
    if sqf is None:
        raise DomainError("polyring", "internal: squarefree part division failed")
    if sqf.lc < 0:
        sqf = -sqf
    scale, rem = divmod(g.lc, sqf.lc)
    if rem:
        raise DomainError("polyring", "internal: radical leading coefficient mismatch")
    return sqf.scale(scale)


def squarefree_decomposition(f: IntPoly) -> tuple[int, list[tuple[IntPoly, int]]]:
    """Yun decomposition: content and [(primitive a_i, i)] with
    f = content * prod a_i**i and the a_i pairwise coprime squarefree."""
    if f.is_zero:
        raise DomainError("polyring", "squarefree decomposition of zero")
    content = f.content()
    fp = f.primitive()
    if fp.degree == 0:
        return content, []
    der = fp.derivative()
    g = poly_gcd(fp, der)
    if g.degree == 0:
        return content, [(fp, 1)]
    w = exact_div(fp, g)
    y = exact_div(der, g)
    z = y - w.derivative()
    out = []
    i = 1
    while w.degree > 0:
        a = poly_gcd(w, z)
        if a.degree > 0:
            out.append((a, i))
        w2 = exact_div(w, a)
        y2 = exact_div(z, a)
        w, y = w2, y2
        z = y - w.derivative()
        i += 1
    return content, out


# ---------------------------------------------------------------------------
# factorization over Q
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IrreducibleFactorization:
    """content * prod(factor ** multiplicity); factors are primitive
    irreducible with positive leading coefficient, deterministically ordered
    (degree, then descending-coefficient tuple)."""

    content: int
    factors: tuple[tuple[IntPoly, int], ...]

    def reconstruct(self) -> IntPoly:
        out = IntPoly((self.content,))
        for poly, mult in self.factors:
            out = out * poly.pow(mult)
        return out

    @property
    def is_irreducible(self) -> bool:
        return (
            len(self.factors) == 1
            and self.factors[0][1] == 1
            and abs(self.content) == 1
        )


def _det_rng(tag: str, *ints: int) -> random.Random:
    h = hashlib.sha256(
        (tag + ":" + ",".join(map(str, ints))).encode()
    ).digest()
    return random.Random(int.from_bytes(h[:8], "big"))


def _mignotte_bound(f: IntPoly) -> int:
    norm2 = math.isqrt(sum(c * c for c in f.coeffs)) + 1
    return (1 << f.degree) * norm2 * abs(f.lc)


def _symmetric(c: int, m: int) -> int:
    c %= m
    return c - m if c > m // 2 else c


def _hensel_pair_lift(f, g, h, s, t, p, target):
    """Quadratic Hensel: from f = g*h (mod p) with s*g + t*h = 1 (mod p)
    to the same congruences mod p**(2^k) >= target.  h stays monic.
    Polynomials are _modpoly lists; returns (g, h, modulus)."""
    m = p
    while m < target:
        m2 = m * m
        fm = _modpoly.from_int_coeffs(f, m2)
        e = _modpoly.sub(fm, _modpoly.mul(g, h, m2), m2)
        q, r = _modpoly.divmod_(_modpoly.mul(s, e, m2), h, m2)
        g = _modpoly.add(g, _modpoly.add(_modpoly.mul(t, e, m2), _modpoly.mul(q, g, m2), m2), m2)
        h = _modpoly.add(h, r, m2)
        b = _modpoly.sub(
            _modpoly.add(_modpoly.mul(s, g, m2), _modpoly.mul(t, h, m2), m2), [1], m2
        )
        c, d = _modpoly.divmod_(_modpoly.mul(s, b, m2), h, m2)
        s = _modpoly.sub(s, d, m2)
        t = _modpoly.sub(t, _modpoly.add(_modpoly.mul(t, b, m2), _modpoly.mul(c, g, m2), m2), m2)
        m = m2
    return g, h, m


def _hensel_lift_tree(f_coeffs: list[int], facs: list[list[int]], p: int, target: int):
    """Lift monic modular factors of f (f = lc * prod facs mod p) to monic
    factors mod p**k >= target with f = lc * prod lifted (mod p**k).
    Returns (lifted list, modulus)."""
    if len(facs) == 1:
        m = p
        while m < target:
            m *= m
        lc_inv = pow(f_coeffs[-1] % m, -1, m)
        return [_modpoly.from_int_coeffs([c * lc_inv for c in f_coeffs], m)], m
    half = len(facs) // 2
    left, right = facs[:half], facs[half:]
    lc = f_coeffs[-1]
    g0 = _modpoly.from_int_coeffs([lc], p)
    for fac in left:
        g0 = _modpoly.mul(g0, fac, p)
    h0 = [1]
    for fac in right:
        h0 = _modpoly.mul(h0, fac, p)
    d, s, t = _modpoly.extended_gcd(g0, h0, p)
    if d != [1]:
        raise DomainError("polyring", "internal: modular factors not coprime")
    g, h, m = _hensel_pair_lift(f_coeffs, g0, h0, s, t, p, target)
    gl, _ = _hensel_lift_tree([_symmetric(c, m) for c in g], left, p, target)
    hl, _ = _hensel_lift_tree([_symmetric(c, m) for c in h], right, p, target)
    return gl + hl, m


def _good_prime(f: IntPoly) -> int:
    """Smallest odd prime not dividing lc(f) with f squarefree mod p."""
    for p in arith.primes_up_to(10_000):
        if p == 2 or f.lc % p == 0:
            continue
        fm = _modpoly.from_int_coeffs(f.coeffs, p)
        dm = _modpoly.deriv(fm, p)
        if not dm:
            continue
        if _modpoly.deg(_modpoly.gcd(fm, dm, p)) == 0:
            return p
    raise DomainError("polyring", "no squarefree reduction prime below bound")


def _factor_squarefree_primitive(f: IntPoly) -> list[IntPoly]:
    """Irreducible factors of a primitive squarefree f with lc > 0, deg >= 1."""
    if f.degree == 1:
        return [f]
    p = _good_prime(f)
    rng = _det_rng("edf", p, *f.coeffs)
    modular = _modpoly.factor_squarefree_monic(
        _modpoly.monic(_modpoly.from_int_coeffs(f.coeffs, p), p), p, rng
    )
    if len(modular) == 1:
        return [f]
    bound = _mignotte_bound(f)
    lifted, modulus = _hensel_lift_tree(list(f.coeffs), modular, p, 2 * bound + 1)

    found: list[IntPoly] = []
    current = f
    remaining = list(range(len(lifted)))
    size = 1
    while 2 * size <= len(remaining):
        hit = False
        for subset in combinations(remaining, size):
            cand = [current.lc % modulus]
            for idx in subset:
                cand = _modpoly.mul(cand, lifted[idx], modulus)
            cand_poly = IntPoly([_symmetric(c, modulus) for c in cand]).primitive()
            if cand_poly.degree < 1:
                continue
            q = exact_div(current, cand_poly)
            if q is not None:
                found.append(cand_poly)
                current = q
                remaining = [i for i in remaining if i not in subset]
                hit = True
                break
        if not hit:
            size += 1
    if current.degree >= 1:
        found.append(current)
    return found


def factor_over_Q(
    f: IntPoly, max_degree: int = FACTOR_DEGREE_BOUND
) -> IrreducibleFactorization:
    """Complete factorization of f into irreducibles over Q.

    Raises DomainError when f is zero or deg f exceeds max_degree.
    """
    if f.is_zero:
        raise DomainError("polyring", "cannot factor the zero polynomial")
    if f.degree > max_degree:
        raise DomainError(
            "polyring", f"degree {f.degree} exceeds factorization bound {max_degree}"
        )
    content, parts = squarefree_decomposition(f)
    out: list[tuple[IntPoly, int]] = []
    for part, mult in parts:
        for irr in _factor_squarefree_primitive(part):
            out.append((irr, mult))
    out.sort(key=lambda t: (t[0].degree, tuple(reversed(t[0].coeffs))))
    return IrreducibleFactorization(content, tuple(out))


# ---------------------------------------------------------------------------
# roots modulo m
# ---------------------------------------------------------------------------


def root_count_mod_prime_power(f: IntPoly, q: int, a: int) -> int:
    """Exact number of roots of f in Z/q**a (q prime, a >= 1).

    When q**a divides every coefficient, every residue is a root and the
    count is q**a at once.  Otherwise roots mod q are lifted one level at a
    time: a root where f' is a unit mod q lifts uniquely, and the q lifts
    of any other root mod q**k are all roots mod q**(k+1) or none are.
    Exact also when f vanishes mod q, where every residue is such a
    singular root.
    """
    if all(c % q**a == 0 for c in f.coeffs):
        return q**a
    base_roots = _modpoly.roots_mod_prime(f.coeffs, q)
    if a == 1:
        return len(base_roots)
    der = f.derivative()

    def count_from(r: int, k: int) -> int:
        if k == a:
            return 1
        if der(r) % q != 0:
            return 1  # nonsingular: unique lift at every further level
        mod_next = q ** (k + 1)
        if f(r) % mod_next != 0:
            return 0
        step = q**k
        return sum(count_from(r + t * step, k + 1) for t in range(q))

    return sum(count_from(r, 1) for r in base_roots)


def roots_mod(f: IntPoly, m: int) -> int:
    """Count of residues r mod m with f(r) = 0 (exact; m >= 2).

    Exhaustive below a fixed bound, prime-power lifting plus CRT above it.
    """
    if m < 2:
        raise DomainError("polyring", "roots_mod needs modulus >= 2")
    if m <= _ROOTS_BRUTE_BOUND:
        arr = np.array([c % m for c in f.coeffs], dtype=np.int64)
        return int(_kernels.poly_roots_mod(arr, m).shape[0])
    total = 1
    for q, a in arith.factor(m).factors:
        total *= root_count_mod_prime_power(f, q, a)
        if total == 0:
            return 0
    return total
