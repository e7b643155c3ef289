import math
import random

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fiberfields import _kernels, _modpoly, polyring, sieve
from fiberfields.errors import BudgetError, DomainError, PolyParseError
from fiberfields.polyring import (
    IntPoly,
    PlanePoly,
    discriminant,
    exact_div,
    factor_over_Q,
    format_poly,
    parse_poly,
    poly_gcd,
    radical,
    resultant,
    squarefree_decomposition,
    y_discriminant,
)

from conftest import oracle_resultant, poly, shaped_polynomials

coeff_lists = st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=8)


# ---------------------------------------------------------------------------
# parsing / printing
# ---------------------------------------------------------------------------


def test_parse_examples():
    assert parse_poly("x^3 - x").coeffs == (0, -1, 0, 1)
    F = parse_poly("y^2 - (x^3 - x)")
    assert isinstance(F, PlanePoly)
    assert F.y_degree == 2
    assert F.specialize_x(2).coeffs == (-6, 0, 1)


def test_parse_syntax_error_offset():
    for text, message, position in [
        ("x^^2", "expected nonnegative integer exponent", 2),
        ("x^1025", "exponent 1025 exceeds limit 1024", 2),
        ("x $ 1", "unexpected character '\\$'", 2),
    ]:
        with pytest.raises(PolyParseError, match=message) as exc:
            parse_poly(text)
        assert exc.value.position == position
    assert parse_poly("x^1024").degree == 1024


@pytest.mark.parametrize(
    "text",
    ["x +", "(x", "x y", "2(x+1)", "x^-2", "z + 1", "x^(2)", ""],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(PolyParseError):
        parse_poly(text)


def test_parse_coefficient_monomials():
    assert parse_poly("3x^2").coeffs == (0, 0, 3)
    assert parse_poly("3 x^2").coeffs == (0, 0, 3)
    assert parse_poly("-2x + 7").coeffs == (7, -2)
    assert parse_poly("2^3").coeffs == (8,)
    assert parse_poly("(x+1)^2").coeffs == (1, 2, 1)


def test_plane_poly_must_be_monic():
    with pytest.raises(DomainError):
        parse_poly("2*y^2 - x")
    with pytest.raises(DomainError):
        parse_poly("x*y^2 - 1")
    with pytest.raises(DomainError):
        parse_poly("y - x")  # y-degree 1


@given(coeff_lists)
@settings(max_examples=100, deadline=None)
def test_print_parse_round_trip(coeffs):
    p = IntPoly(coeffs)
    assert parse_poly(format_poly(p)) == p


def test_plane_print_round_trip():
    for text in ["y^2 - (x^3 - x)", "y^3 - 2x*y + x^2*y^2 + y^4 - 7", "y^2 + 3x^2*y - x"]:
        F = parse_poly(text)
        assert parse_poly(format_poly(F)) == F


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_eval_examples():
    assert poly("x^3 - x")(2) == 6
    assert poly("x^3 - x")(1) == 0
    assert poly("x^2 + 1")(10) == 101


@given(coeff_lists, st.integers(min_value=-10**6, max_value=10**6))
@settings(max_examples=100, deadline=None)
def test_eval_matches_direct_sum(coeffs, n):
    p = IntPoly(coeffs)
    assert p(n) == sum(c * n**i for i, c in enumerate(p.coeffs))


# ---------------------------------------------------------------------------
# radical
# ---------------------------------------------------------------------------


def test_radical_examples():
    assert radical(parse_poly("x^2*(x+1)")) == poly("x^2 + x")
    assert radical(poly("x^3 - x")) == poly("x^3 - x")
    assert radical(poly("4x^2")) == poly("4x")


@given(shaped_polynomials())
@example(poly("-6x^3 + 6x"))
@example(parse_poly("-4*(x - 1)^3*(x^3 + 3)"))
@settings(max_examples=300, deadline=None)
def test_radical_matches_division_by_gcd_with_derivative(g):
    """fp / gcd(fp, fp') with fp the primitive part of g, made positive and
    scaled to lc(g)."""
    fp = g.primitive()
    sqf = exact_div(fp, poly_gcd(fp, fp.derivative()))
    if sqf.lc < 0:
        sqf = -sqf
    assert radical(g) == sqf.scale(g.lc // sqf.lc)


def _gcd_rule_prime(f):
    """The smallest odd prime p not dividing lc(f) with gcd(f, f') = 1 mod p
    and f' nonzero mod p."""
    for p in sympy.primerange(3, 10_000):
        if f.lc % p == 0:
            continue
        fm = _modpoly.from_int_coeffs(f.coeffs, p)
        dm = _modpoly.trim([i * c % p for i, c in enumerate(fm)][1:])
        if dm and _modpoly.deg(_modpoly.gcd(fm, dm, p)) == 0:
            return p
    raise AssertionError("no prime below 10,000")


@given(shaped_polynomials(repeated=False))
@example(poly("3x^2 + 3x + 5"))  # 3 | lc
@example(poly("x^3 + 3x + 3"))  # x^3 mod 3, and f' = 0 mod 3
@example(parse_poly("35*x^15 + x^5 + 3*x + 1"))  # inseparable mod 5, 5 and 7 | lc
@settings(max_examples=300, deadline=None)
def test_good_prime_matches_the_gcd_rule(f):
    """_good_prime on a primitive squarefree f of degree >= 2 (the shape
    _factor_squarefree_primitive hands it) against the gcd rule."""
    f = f.primitive()
    assume(f.degree >= 2 and discriminant(f) != 0)
    assert polyring._good_prime(f) == _gcd_rule_prime(f)


def test_radical_rejects_constants():
    with pytest.raises(DomainError):
        radical(poly("5"))


def test_radical_is_squarefree_and_preserves_lc():
    from fiberfields.polyring import _pseudo_rem

    rng = random.Random(3)
    basis = [poly("x"), poly("x + 1"), poly("2x - 3"), poly("x^2 + 1")]
    for _ in range(25):
        g = IntPoly((rng.choice([1, 2, -3, 6]),))
        max_mult = 1
        for f in rng.sample(basis, rng.randint(1, 3)):
            e = rng.randint(1, 3)
            max_mult = max(max_mult, e)
            g = g * f.pow(e)
        r = radical(g)
        assert r.lc == g.lc
        assert poly_gcd(r, r.derivative()).degree == 0
        # r | g and g | r^max_mult in Q[x]
        assert _pseudo_rem(g, r).is_zero
        assert _pseudo_rem(r.pow(max_mult), g).is_zero


# ---------------------------------------------------------------------------
# resultants / discriminants
# ---------------------------------------------------------------------------


def test_disc_examples():
    assert discriminant(poly("x^2 - 5")) == 20
    assert discriminant(poly("x^3 - x")) == 4  # -4a^3 - 27b^2 with a=-1, b=0
    assert discriminant(poly("x^2 + x + 1")) == -3


def test_resultant_against_sylvester_oracle():
    rng = random.Random(17)
    for _ in range(40):
        f = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(2, 6))])
        g = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(2, 6))])
        if f.is_zero or g.is_zero or f.degree < 1 or g.degree < 1:
            continue
        assert resultant(f, g) == oracle_resultant(f, g)


def test_y_discriminant_quadratic_formula():
    F = parse_poly("y^2 - (x^3 - x)")
    # disc(y^2 + c) = -4c with c = -(x^3 - x)
    assert y_discriminant(F) == poly("4x^3 - 4x")
    G = parse_poly("y^2 + x*y + x^2")
    # b^2 - 4c = x^2 - 4x^2 = -3x^2
    assert y_discriminant(G) == poly("-3x^2")


def test_y_discriminant_cubic():
    F = parse_poly("y^3 - (x^2 + 1)")
    # disc(y^3 + b) = -27 b^2
    expected = poly("x^2 + 1")
    expected = expected * expected
    assert y_discriminant(F) == expected.scale(-27)


@given(
    d=st.integers(2, 4),
    columns=st.lists(st.lists(st.integers(-5, 5), max_size=9), min_size=4, max_size=4),
    h=st.lists(st.integers(-4, 4), max_size=3),
)
@example(d=4, columns=[[-7, 0, 0, 1], [0] * 8 + [1], [], []], h=[])  # y^4 + x^8 y + x^3 - 7
@example(d=4, columns=[[3], [-2], [5], [4]], h=[1, -4, 1])  # a constant discriminant
@settings(max_examples=30, deadline=None)
def test_y_discriminant_matches_sympy(d, columns, h):
    """y_discriminant(F) is sympy.discriminant(F, y) for F = G(y - h(x)),
    G = y^d + (columns as polynomials in x) y^j monic of y-degree d, kept to
    x-degree <= 8: with h of degree 2 and d = 4, G has constant
    coefficients and F is deg G lines over Q-bar."""
    x, y = sympy.symbols("x y")
    room = 9 - d * max((i for i, c in enumerate(h) if c), default=0)
    G = y**d + sum(c * x**i * y**j for j, col in enumerate(columns[:d])
                   for i, c in enumerate(col[:room]))
    F = sympy.Poly(G.subs(y, y - sum(c * x**i for i, c in enumerate(h))), x, y)
    want = sympy.Poly(sympy.discriminant(F.as_expr(), y), x)
    mine = y_discriminant(PlanePoly(tuple((ij, int(c)) for ij, c in F.terms())))
    assert mine == IntPoly(tuple(int(c) for c in reversed(want.all_coeffs())))


def test_disc_zero_iff_repeated_factor():
    assert discriminant(parse_poly("(x+1)^2")) == 0
    assert discriminant(parse_poly("(x^2+1)*(x-3)")) != 0


# ---------------------------------------------------------------------------
# factorization over Q
# ---------------------------------------------------------------------------


def test_factor_examples():
    f = factor_over_Q(parse_poly("(x^2+1)*(x^3-2)"))
    assert f.content == 1
    assert [(p.coeffs, m) for p, m in f.factors] == [((1, 0, 1), 1), ((-2, 0, 0, 1), 1)]

    f2 = factor_over_Q(poly("x^2 - 1"))
    assert [(p.coeffs, m) for p, m in f2.factors] == [((-1, 1), 1), ((1, 1), 1)]

    f3 = factor_over_Q(poly("x^4 + 1"))
    assert [(p.coeffs, m) for p, m in f3.factors] == [((1, 0, 0, 0, 1), 1)]


def test_factor_round_trip_random():
    rng = random.Random(23)
    for _ in range(30):
        f = IntPoly([rng.randint(-20, 20) for _ in range(rng.randint(2, 9))])
        if f.is_zero:
            continue
        fact = factor_over_Q(f)
        assert fact.reconstruct() == f
        for p, _ in fact.factors:
            assert p.lc > 0
            assert p.content() in (1, -1)


def test_factor_multiplicities_and_content():
    f = parse_poly("18x^4 + 36x^3 + 18x^2")  # 18 x^2 (x+1)^2
    fact = factor_over_Q(f)
    assert fact.content == 18
    assert [(p.coeffs, m) for p, m in fact.factors] == [((0, 1), 2), ((1, 1), 2)]


def test_factor_agrees_with_sympy():
    xsym = sympy.Symbol("x")
    rng = random.Random(29)
    for _ in range(25):
        f = IntPoly([rng.randint(-15, 15) for _ in range(rng.randint(2, 10))])
        if f.is_zero or f.degree < 1:
            continue
        mine = factor_over_Q(f)
        expr = sum(c * xsym**i for i, c in enumerate(f.coeffs))
        _, sympy_factors = sympy.factor_list(expr)
        sympy_nonconst = [(p, m) for p, m in sympy_factors if p.free_symbols]
        assert len(mine.factors) == len(sympy_nonconst)
        for p, _ in mine.factors:
            pexpr = sympy.Poly(sum(c * xsym**i for i, c in enumerate(p.coeffs)), xsym)
            assert pexpr.is_irreducible


def test_factor_deterministic():
    f = parse_poly("(x^2+x+1)*(x^2-2)*(x-1)*(3x+5)")
    assert factor_over_Q(f) == factor_over_Q(f)
    degs = [p.degree for p, _ in factor_over_Q(f).factors]
    assert degs == sorted(degs)


def test_factor_has_no_degree_bound(swinnerton_dyer_32):
    """factor_over_Q takes any degree; only its subset recombination is
    limited.  The degree-32 Swinnerton-Dyer polynomial is irreducible with
    at least 16 modular factors, so proving it would try more than
    RECOMBINATION_LIMIT subsets: it raises BudgetError instead."""
    fact = factor_over_Q(poly("x^13 + x + 1"))
    assert [(p.coeffs, m) for p, m in fact.factors] == [((1, 1) + (0,) * 11 + (1,), 1)]
    with pytest.raises(BudgetError, match=r"^polyring: recombining \d+ modular factors passed 4096"):
        factor_over_Q(swinnerton_dyer_32)


def _most_subsets_tried(r):
    """The most subsets recombination tries with r modular factors: at
    each size s, j factors of size s found, then a pass over all
    C(r - js, s) subsets of the rest, while 2s <= r - js."""
    return sum(
        math.comb(r - j * s, s) for s in range(1, r // 2 + 1) for j in range((r - 2 * s) // s + 1)
    )


def test_recombination_limit_covers_twelve_modular_factors(monkeypatch):
    """A polynomial of degree <= 12 has at most 12 modular factors, so it
    always factors within the limit.  The limit counts subsets exactly: an
    irreducible f with r modular factors tries every subset of size up to
    r/2, and factors at that limit but not one below it."""
    assert (_most_subsets_tried(12), _most_subsets_tried(13)) == (2842, 4575)
    assert polyring.RECOMBINATION_LIMIT >= _most_subsets_tried(12)
    x = sympy.Symbol("x")
    sd16 = sympy.polys.specialpolys.swinnerton_dyer_poly(4, x, polys=True)
    f = IntPoly([int(c) for c in reversed(sd16.all_coeffs())])
    p = polyring._good_prime(f)
    r = sum(m for _, m in sympy.Poly(sd16, x, modulus=p).factor_list()[1])
    tried = sum(math.comb(r, s) for s in range(1, r // 2 + 1))
    monkeypatch.setattr(polyring, "RECOMBINATION_LIMIT", tried)
    assert factor_over_Q(f).factors == ((f, 1),)
    monkeypatch.setattr(polyring, "RECOMBINATION_LIMIT", tried - 1)
    with pytest.raises(BudgetError):
        factor_over_Q(f)


@given(
    content=st.sampled_from([1, -1, 2, -6, 45]),
    pieces=st.lists(
        st.tuples(coeff_lists.map(IntPoly).filter(lambda f: f.degree >= 1), st.integers(1, 3)),
        min_size=1,
        max_size=5,
    ),
)
@example(content=1, pieces=[(poly("x^20 + 1"), 1)])
@example(content=1, pieces=[(poly("x^24 - 1"), 1)])
@example(content=-1, pieces=[(poly("4x^15 + 27"), 1)])
@settings(max_examples=200, deadline=None)
def test_factor_over_Q_matches_sympy_factor_list(content, pieces):
    """factor_over_Q of content times the pieces to their multiplicities,
    each piece kept while the degree stays <= 30, is sympy's factor_list:
    the same content and the same irreducible factors and multiplicities."""
    f = IntPoly((content,))
    for piece, m in pieces:
        if (f * piece.pow(m)).degree <= 30:
            f = f * piece.pow(m)
    assume(f.degree >= 1)
    x = sympy.Symbol("x")
    lc, pairs = sympy.factor_list(sympy.Poly(list(reversed(f.coeffs)), x))
    fact = factor_over_Q(f)
    assert fact.content == lc
    assert sorted((p.coeffs, m) for p, m in fact.factors) == sorted(
        (tuple(int(c) for c in reversed(p.all_coeffs())), m) for p, m in pairs
    )


def test_squarefree_decomposition_round_trip():
    f = parse_poly("12x^5 - 12x^4 - 12x^3 + 12x^2")  # 12 x^2 (x-1)^2 (x+1)
    content, parts = squarefree_decomposition(f)
    assert content == 12
    rebuilt = IntPoly((content,))
    for a, i in parts:
        rebuilt = rebuilt * a.pow(i)
    assert rebuilt == f


def test_prime_power_count_when_q_power_divides_every_coefficient(monkeypatch):
    # 1000003**2 (x^2 + 1): every residue mod q**2 is a root, so q is a
    # fixed square prime, read off the content without trying a single
    # residue mod q
    q = 1_000_003
    count_roots = _kernels.poly_roots_mod

    def refuse_q(coeffs, m):
        if m % q == 0:
            raise AssertionError("roots mod q searched")
        return count_roots(coeffs, m)

    monkeypatch.setattr(_kernels, "poly_roots_mod", refuse_q)
    f = IntPoly((q * q, 0, q * q))
    assert f.content() % (q * q) == 0
    assert sieve.fixed_square_primes(f) == (q,)


# ---------------------------------------------------------------------------
# the divisibility ladder h(n) | c g(n) and g(n) | c h(n)^(p-1)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5])
def test_divisibility_ladder_small(p):
    rng = random.Random(41 + p)
    basis = [poly("x"), poly("x + 1"), poly("x - 2"), poly("2x + 1"), poly("x^2 + 1")]
    for _ in range(8):
        factors = rng.sample(basis, rng.randint(1, 3))
        mults = [rng.randint(1, p - 1) if p > 2 else 1 for _ in factors]
        g = IntPoly((rng.choice([1, 2, 3]),))
        for f, e in zip(factors, mults):
            g = g * f.pow(e)
        h = radical(g)
        c = 1
        for f, e in zip(factors, mults):
            c *= f.lc ** (e - 1)
        for n in range(-30, 31):
            gn, hn = g(n), h(n)
            if gn == 0:
                assert hn == 0
                continue
            assert (c * gn) % hn == 0
            assert (c * hn ** (p - 1)) % gn == 0
