"""Shared test oracles, all deliberately independent of the library code:
plain trial division, Sylvester determinants over fractions, exhaustive
enumeration.  Slow but obviously correct."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from fiberfields.polyring import IntPoly, parse_poly


def oracle_factor(n: int) -> dict[int, int]:
    """Unsigned prime factorization of |n| by pure trial division."""
    assert n != 0
    m = abs(n)
    out: dict[int, int] = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def oracle_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def oracle_squarefree_kernel(n: int) -> int:
    k = 1 if n > 0 else -1
    for p, e in oracle_factor(n).items():
        if e % 2:
            k *= p
    return k


def oracle_p_free_value(n: int, p: int) -> int:
    """Reconstructed p-free kernel: sign (kept only for p = 2) times
    primes to exponents reduced mod p."""
    sign = 1 if n > 0 or p != 2 else -1
    if n < 0 and p == 2:
        sign = -1
    k = sign
    for q, e in oracle_factor(n).items():
        k *= q ** (e % p)
    return k


def oracle_resultant(f: IntPoly, g: IntPoly) -> Fraction:
    """Resultant as the Sylvester matrix determinant (fraction Gaussian
    elimination)."""
    m, n = f.degree, g.degree
    assert m >= 0 and n >= 0
    if m == 0 and n == 0:
        return Fraction(1)
    size = m + n
    rows = []
    fc = list(reversed(f.coeffs))  # highest degree first
    gc = list(reversed(g.coeffs))
    for i in range(n):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in fc] + [Fraction(0)] * (size - i - m - 1))
    for i in range(m):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in gc] + [Fraction(0)] * (size - i - n - 1))
    det = Fraction(1)
    for col in range(size):
        pivot = None
        for r in range(col, size):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = Fraction(1) / rows[col][col]
        for r in range(col + 1, size):
            if rows[r][col] != 0:
                factor = rows[r][col] * inv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return det


def poly(text: str) -> IntPoly:
    p = parse_poly(text)
    assert isinstance(p, IntPoly)
    return p


@pytest.fixture
def x():
    return poly("x")


@pytest.fixture(scope="session")
def swinnerton_dyer_32() -> IntPoly:
    """The degree-32 Swinnerton-Dyer polynomial, the product of the
    x + (+-sqrt 2 +- sqrt 3 +- sqrt 5 +- sqrt 7 +- sqrt 11): irreducible over
    Q, and a product of linear and quadratic factors mod every prime."""
    from sympy.polys.specialpolys import swinnerton_dyer_poly

    return IntPoly([int(c) for c in reversed(swinnerton_dyer_poly(5, polys=True).all_coeffs())])


@st.composite
def shaped_polynomials(draw, repeated=True):
    """Integer polynomials of degree >= 1 in the shapes where reduction mod
    a small prime p degenerates: inseparable mod 3 or 5 (a(x^p) + p b(x)),
    p dividing the leading coefficient or the content, and (when repeated)
    a repeated linear factor."""
    base = IntPoly(draw(st.lists(st.integers(-20, 20), min_size=2, max_size=4)))
    f = base if base.degree >= 1 else base + IntPoly((0, 1))
    q = draw(st.sampled_from([3, 5]))
    if draw(st.booleans()):
        spread = [0] * (q * f.degree + 1)
        for i, c in enumerate(f.coeffs):
            spread[q * i] = c
        f = IntPoly(spread) + IntPoly(draw(st.lists(st.integers(-5, 5), max_size=3))).scale(q)
    if repeated and draw(st.booleans()):
        f = f * IntPoly((draw(st.integers(-3, 3)), 1)).pow(draw(st.integers(2, 3)))
    lead = draw(st.sampled_from([1, 2, 3, 5, 7]))
    f = f + IntPoly((0,) * f.degree + ((lead - 1) * f.lc,))  # lc(f) times lead
    return f.scale(draw(st.sampled_from([1, -1, 2, 3, 4, 9, 25, -6])))
