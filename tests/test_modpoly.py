import random

import pytest
from sympy import Poly, symbols

from fiberfields import _modpoly

X = symbols("x")


@pytest.mark.parametrize("p", [2, 3, 5, 7, 31])
def test_splitting_degrees_match_sympy(p):
    rng = random.Random(1000 + p)
    checked = 0
    while checked < 40:
        n = rng.randint(1, 8)
        f = [rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)]
        _, factors = Poly(list(reversed(f)), X, modulus=p).factor_list()
        if any(e > 1 for _, e in factors):
            continue  # not squarefree (Poly.is_sqf misreports x^4 mod 2)
        want = sorted(g.degree() for g, _ in factors)
        assert _modpoly.splitting_degrees(f, p) == want, (f, p)
        checked += 1
