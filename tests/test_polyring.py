import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberfields import _kernels, _modpoly
from fiberfields.errors import DomainError, PolyParseError
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
    root_count_mod_prime_power,
    roots_mod,
    squarefree_decomposition,
    y_discriminant,
)

from conftest import oracle_resultant, poly

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
    with pytest.raises(PolyParseError) as exc:
        parse_poly("x^^2")
    assert exc.value.position == 2


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
    assert f3.is_irreducible


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
    sympy = pytest.importorskip("sympy")
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


def test_factor_degree_bound():
    with pytest.raises(DomainError):
        factor_over_Q(poly("x^13 + x + 1"))
    assert factor_over_Q(poly("x^13 + x + 1"), max_degree=13).is_irreducible


def test_squarefree_decomposition_round_trip():
    f = parse_poly("12x^5 - 12x^4 - 12x^3 + 12x^2")  # 12 x^2 (x-1)^2 (x+1)
    content, parts = squarefree_decomposition(f)
    assert content == 12
    rebuilt = IntPoly((content,))
    for a, i in parts:
        rebuilt = rebuilt * a.pow(i)
    assert rebuilt == f


# ---------------------------------------------------------------------------
# roots_mod
# ---------------------------------------------------------------------------


def test_roots_mod_examples():
    assert roots_mod(poly("x^2 + 1"), 5) == 2
    assert roots_mod(poly("x^2 + 1"), 3) == 0
    assert roots_mod(poly("x"), 4) == 1


def test_roots_mod_matches_exhaustion():
    rng = random.Random(31)
    for _ in range(40):
        f = IntPoly([rng.randint(-40, 40) for _ in range(rng.randint(1, 6))])
        m = rng.randint(2, 250)
        brute = sum(1 for r in range(m) if f(r) % m == 0)
        assert roots_mod(f, m) == brute


def test_roots_mod_prime_power_lift_path():
    rng = random.Random(37)
    cases = [
        (IntPoly([rng.randint(-20, 20) for _ in range(rng.randint(1, 5))]),
         rng.choice([2, 3, 5, 7]), rng.randint(1, 3))
        for _ in range(30)
    ]
    # f vanishing mod p, and mod p**2, takes the all-lifts-or-none branch
    cases += [
        (poly(text), p, a)
        for text, p in (("4x + 4", 2), ("9x^2 + 9", 3), ("3x^3 + 6", 3))
        for a in (1, 2, 3)
    ]
    for f, p, a in cases:
        brute = sum(1 for r in range(p**a) if f(r) % p**a == 0)
        assert root_count_mod_prime_power(f, p, a) == brute, (f, p, a)


def test_prime_power_count_when_q_power_divides_every_coefficient(monkeypatch):
    # 1000003**2 (x^2 + 1): every residue mod q**2 is a root, counted
    # without finding a single root mod q
    def refuse(*args):
        raise AssertionError("roots mod q searched")

    monkeypatch.setattr(_modpoly, "roots_mod_prime", refuse)
    q = 1_000_003
    f = IntPoly((q * q, 0, q * q))
    assert root_count_mod_prime_power(f, q, 2) == q * q
    assert roots_mod(f, q * q) == q * q


def _exhaustive_roots(coeffs, m):
    return _kernels.poly_roots_mod(np.array([c % m for c in coeffs], dtype=np.int64), m)


@st.composite
def _polys_mod(draw, m):
    """Integer coefficient lists, lowest degree first: random, a product of
    distinct linear factors mod m, or vanishing mod a prime factor of m."""
    kind = draw(st.sampled_from(["random", "linear", "vanishing"]))
    if kind == "linear":
        roots = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=5, unique=True))
        f = [1]
        for r in roots:  # f * (x - r)
            f = [a - r * b for a, b in zip([0] + f, f + [0])]
        return f
    coeffs = draw(st.lists(st.integers(-(10**7), 10**7), min_size=1, max_size=6))
    if kind == "vanishing":
        q = draw(st.sampled_from(sorted(sympy.factorint(m))))
        coeffs = [q * c for c in coeffs]
    return coeffs


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(32_771, 200_000))
def test_roots_mod_prime_above_brute_limit_match_exhaustion(data, k):
    p = sympy.prevprime(k + 1)  # a prime in (2**15, 2 * 10**5]
    coeffs = data.draw(_polys_mod(p))
    assert _modpoly.roots_mod_prime(coeffs, p) == _exhaustive_roots(coeffs, p).tolist()


@settings(max_examples=30, deadline=None)
@given(
    st.data(),
    # prime powers above the bound, where roots lift level by level
    st.integers(10**6 + 1, 2 * 10**6) | st.sampled_from([1009**2, 3**13, 2**20]),
)
def test_roots_mod_crt_path_matches_exhaustion(data, m):
    coeffs = data.draw(_polys_mod(m))
    assert roots_mod(IntPoly(coeffs), m) == len(_exhaustive_roots(coeffs, m))


def test_roots_mod_rejects_tiny_modulus():
    with pytest.raises(DomainError):
        roots_mod(poly("x"), 1)


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
