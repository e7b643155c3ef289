import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Poly, symbols

from fiberfields import _modpoly

X = symbols("x")


@pytest.mark.parametrize("p", [2, 3, 5, 7, 31, 101, 151, 32771, 65537])
def test_splitting_degrees_match_sympy(p):
    """101 and 151 are primes the plane fingerprint uses; 32,771 and 65,537
    lie above 2^15.  Past p = 2, 20 inputs with lc >= 2 follow the first 40."""
    rng = random.Random(1000 + p)
    checked = 0
    while checked < (40 if p == 2 else 60):
        n = rng.randint(1, 8)
        f = [rng.randrange(p) for _ in range(n)] + [rng.randrange(1 if checked < 40 else 2, p)]
        _, factors = Poly(list(reversed(f)), X, modulus=p).factor_list()
        if any(e > 1 for _, e in factors):
            continue  # not squarefree (Poly.is_sqf misreports x^4 mod 2)
        want = sorted(g.degree() for g, _ in factors)
        assert _modpoly.splitting_degrees(f, p) == want, (f, p)
        checked += 1


def _reference_divmod(f, g, m):
    """Schoolbook long division: reduce and trim after every step."""
    inv = pow(g[-1], -1, m)
    r = list(f)
    dg = len(g) - 1
    q = [0] * max(len(f) - dg, 0)
    while len(r) - 1 >= dg and r:
        c = r[-1] * inv % m
        k = len(r) - 1 - dg
        q[k] = c
        for i, b in enumerate(g):
            r[i + k] = (r[i + k] - c * b) % m
        _modpoly.trim(r)
    return _modpoly.trim(q), r


def _reference_mod(f, g, m):
    return _reference_divmod(f, g, m)[1]


def _reference_pow(f, e, g, m):
    """Repeated multiplication for small e, right-to-left square-and-multiply
    above; every product is `mul` followed by long division."""
    if e <= 64:
        out = _reference_mod([1], g, m)
        for _ in range(e):
            out = _reference_mod(_modpoly.mul(out, f, m), g, m)
        return out
    out, sq = _reference_mod([1], g, m), _reference_mod(f, g, m)
    while e:
        if e & 1:
            out = _reference_mod(_modpoly.mul(out, sq, m), g, m)
        sq = _reference_mod(_modpoly.mul(sq, sq, m), g, m)
        e >>= 1
    return out


# primes from 2 to above 2^15, and two prime powers (Hensel lifting works mod p^k)
_MODULI = [2, 3, 5, 7, 31, 101, 151, 1009, 32771, 65537, 8, 81]


@st.composite
def _division_cases(draw):
    m = draw(st.sampled_from(_MODULI))
    dg = draw(st.integers(0, 8))
    units = st.integers(1, m - 1).filter(lambda c: math.gcd(c, m) == 1)
    lc = draw(units.filter(lambda c: c != 1) if m > 2 else units)
    g = draw(st.lists(st.integers(0, m - 1), min_size=dg, max_size=dg)) + [lc]
    shape = draw(st.sampled_from(["shorter", "longer", "any", "zero", "x"]))
    if shape == "zero":
        f = []
    elif shape == "x":
        f = [0, 1]
    else:
        lo, hi = {"shorter": (0, dg), "longer": (2 * dg + 2, 2 * dg + 6), "any": (0, 2 * dg + 4)}[shape]
        f = _modpoly.trim(draw(st.lists(st.integers(0, m - 1), min_size=lo, max_size=hi)))
    return f, g, m


@given(_division_cases())
@settings(max_examples=400, deadline=None)
def test_divmod_and_mod_match_long_division(case):
    f, g, m = case
    assert _modpoly.divmod_(f, g, m) == _reference_divmod(f, g, m)
    assert _modpoly.mod(f, g, m) == _reference_mod(f, g, m)


@given(_division_cases(), st.data())
@settings(max_examples=300, deadline=None)
def test_pow_mod_matches_repeated_multiplication(case, data):
    f, g, m = case
    d = max(len(g) - 1, 1)
    e = data.draw(
        st.sampled_from([0, 1, 2, m, (m**d - 1) // 2]) | st.integers(0, 2**40 - 1),
        label="e",
    )
    assert _modpoly.pow_mod(f, e, g, m) == _reference_pow(f, e, g, m)


def test_mod_and_pow_mod_edge_contract():
    with pytest.raises(ZeroDivisionError):
        _modpoly.mod([1, 2], [], 7)
    with pytest.raises(ZeroDivisionError):
        _modpoly.divmod_([1, 2], [], 7)
    with pytest.raises(ZeroDivisionError):
        _modpoly.pow_mod([0, 1], 5, [], 7)
    # lc(g) = 3 is no unit mod 9: raises as pow(3, -1, 9) does, even for short f
    for f in ([1, 2, 3, 4], [1], []):
        with pytest.raises(ValueError):
            _modpoly.mod(f, [1, 3], 9)
        with pytest.raises(ValueError):
            _modpoly.divmod_(f, [1, 3], 9)
        with pytest.raises(ValueError):
            _modpoly.pow_mod(f, 3, [1, 3], 9)
    with pytest.raises(ValueError):
        _modpoly.pow_mod([0, 1], -1, [1, 1], 7)
    # a constant g leaves no remainder, and e = 0 gives 1 mod g
    assert _modpoly.mod([3, 4, 5], [2], 7) == []
    assert _modpoly.pow_mod([3, 4], 0, [2], 7) == []
    assert _modpoly.pow_mod([3, 4], 0, [0, 0, 2], 7) == [1]
