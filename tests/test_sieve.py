import math
import random
from fractions import Fraction

import pytest
import sympy

from fiberfields import arith
from fiberfields.cli import main
from fiberfields.errors import BudgetError, DomainError
from fiberfields.polyring import IntPoly, parse_poly
from fiberfields.sieve import (
    euler_density,
    exact_order_prime_ratio,
    fixed_square_primes,
    squarefree_value_count,
)

from conftest import oracle_factor, poly


def oracle_squarefree_outside(value: int, fixed: set[int]) -> bool:
    if value == 0:
        return False
    return all(e <= 1 for p, e in oracle_factor(value).items() if p not in fixed)


def oracle_count(h, N, fixed=frozenset()):
    return sum(1 for n in range(1, N + 1) if oracle_squarefree_outside(h(n), set(fixed)))


# ---------------------------------------------------------------------------
# squarefree_value_count
# ---------------------------------------------------------------------------


def test_identity_poly_small():
    rep = squarefree_value_count(poly("x"), 20)
    assert rep.count == 13
    assert rep.fixed_square_primes == ()
    flags = [bool(b) for b in rep.flags]
    assert [n for n, f in zip(range(1, 21), flags) if f] == [
        1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19,
    ]


def test_identity_poly_matches_classical_count():
    rep = squarefree_value_count(poly("x"), 10_000)
    sieve = bytearray([1]) * (10_001)
    for k in range(2, 101):
        for m in range(k * k, 10_001, k * k):
            sieve[m] = 0
    assert rep.count == sum(sieve[1:])


def test_square_poly_only_first_value():
    rep = squarefree_value_count(poly("x^2"), 100)
    assert rep.count == 1  # n = 1 gives 1
    assert rep.fixed_square_primes == ()


def test_fixed_prime_detected_and_ignored():
    rep = squarefree_value_count(poly("4x + 4"), 100)
    assert rep.fixed_square_primes == (2,)
    assert rep.count == oracle_count(poly("4x + 4"), 100, {2})


def test_fixed_primes_examples():
    assert fixed_square_primes(poly("4x + 4")) == (2,)
    assert fixed_square_primes(poly("4x^2 + 8x + 4")) == (2,)  # 4(x+1)^2
    assert fixed_square_primes(poly("x^2 + x + 4")) == ()  # h(1) = 6, only one factor 2
    assert fixed_square_primes(poly("x")) == ()
    assert fixed_square_primes(poly("9x^2 + 9")) == (3,)


def test_sieve_agrees_with_full_factorization():
    rng = random.Random(19)
    done = 0
    while done < 20:
        deg = rng.randint(1, 4)
        coeffs = [rng.randint(-15, 15) for _ in range(deg)] + [rng.randint(1, 15)]
        h = IntPoly(coeffs)
        rep = squarefree_value_count(h, 1000)
        fixed = set(rep.fixed_square_primes)
        expected = sum(
            1
            for n in range(1, 1001)
            if h(n) != 0
            and all(e <= 1 for q, e in arith.factor(h(n)).factors if q not in fixed)
        )
        assert rep.count == expected, (coeffs,)
        done += 1


def sympy_flags(h, N, fixed):
    return bytes(
        h(n) != 0
        and all(e <= 1 for q, e in sympy.factorint(abs(h(n))).items() if q not in fixed)
        for n in range(1, N + 1)
    )


def test_residual_above_cube_of_sieve_bound_with_repeated_large_prime():
    # T is capped at 10,000; h(1) = 10007**2 * 10009 >= T**3 is factored
    h = IntPoly((10007**2 * 10009 - 1, 1))
    rep = squarefree_value_count(h, 5)
    assert list(rep.flags) == [0, 1, 1, 0, 1]
    assert rep.count == 3
    assert rep.flags == sympy_flags(h, 5, ())
    assert rep.residuals_factored >= 1


def test_residual_over_budget_is_named(tmp_path, capsys):
    c = 10007 * 10009 * 10037
    with pytest.raises(BudgetError) as exc:
        squarefree_value_count(IntPoly((c - 1, 1)), 5, budget=1)
    assert str(exc.value).endswith("at n = 1")
    args = ["squarefree-density", "--poly", f"x + {c - 1}", "--N", "5", "--factor-budget", "1"]
    assert main(args + ["--out", str(tmp_path / "out.json")]) == 3
    assert "n = 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "constant, N, count",
    [(1, 50, 44), (10**20, 30, 11)],
    ids=["int64", "object"],  # values inside, then beyond the int64 envelope
)
def test_fixed_prime_above_sieve_bound_is_divided_out(constant, N, count):
    h = IntPoly((10007**2 * constant, 0, 10007**2))
    rep = squarefree_value_count(h, N)
    assert rep.fixed_square_primes == (10007,)
    assert rep.count == count
    assert rep.flags == sympy_flags(h, N, {10007})


def test_bigint_path_for_huge_coefficients():
    c = 10**25  # beyond the int64 envelope: the scan runs on object arrays
    h = IntPoly((c + 1, 1))  # x + (10^25+1)
    rep = squarefree_value_count(h, 50)
    assert rep.count == oracle_count_via_arith(h, 50, rep.fixed_square_primes)


def oracle_count_via_arith(h, N, fixed):
    fixed = set(fixed)
    total = 0
    for n in range(1, N + 1):
        v = h(n)
        if v == 0:
            continue
        if all(e <= 1 for q, e in arith.factor(v).factors if q not in fixed):
            total += 1
    return total


def test_sieve_rejects_bad_inputs():
    with pytest.raises(DomainError):
        squarefree_value_count(poly("3"), 10)
    with pytest.raises(DomainError):
        squarefree_value_count(poly("x"), 0)


# ---------------------------------------------------------------------------
# euler_density
# ---------------------------------------------------------------------------


def test_euler_density_linear():
    assert euler_density(poly("x"), 10) == Fraction(3, 4) * Fraction(8, 9) * Fraction(
        24, 25
    ) * Fraction(48, 49)


def test_euler_density_no_roots_gives_one():
    # x^2 - 2 has no roots mod 9, 25, 49 and one double... check via brute:
    # actually pick a polynomial with rho(p^2) = 0 for all p <= B
    h = poly("x^2 + x + 41")  # no roots mod 4, 9, 25, 49 (Euler's prime polynomial)
    val = euler_density(h, 7)
    brute = Fraction(1)
    for p in (2, 3, 5, 7):
        rho = sum(1 for r in range(p * p) if h(r) % (p * p) == 0)
        brute *= Fraction(p * p - rho, p * p)
    assert val == brute


def test_euler_density_brute_force_oracle():
    h = poly("x^2 + 1")
    val = euler_density(h, 100)
    brute = Fraction(1)
    for p in [q for q in range(2, 101) if all(q % d for d in range(2, q))]:
        rho = sum(1 for r in range(p * p) if (r * r + 1) % (p * p) == 0)
        brute *= Fraction(p * p - rho, p * p)
    assert val == brute


def test_euler_density_monotone_in_bound():
    h = poly("x^3 + 5")
    vals = [euler_density(h, B) for B in (10, 50, 200, 500)]
    for a, b in zip(vals, vals[1:]):
        assert b <= a


def test_euler_density_applies_radical_first():
    assert euler_density(parse_poly("(x+1)^2"), 50) == euler_density(poly("x + 1"), 50)


def test_euler_density_skips_fixed_primes():
    # the fixed prime 2 drops its (1 - rho/4) = 3/4 factor from the product
    assert euler_density(poly("4x + 4"), 50) == euler_density(poly("x + 1"), 50) / Fraction(3, 4)


# ---------------------------------------------------------------------------
# exact_order_prime_ratio
# ---------------------------------------------------------------------------


def test_exact_order_example():
    count, ratio = exact_order_prime_ratio(poly("x^2 + 1"), 5)
    # values 2, 5, 10, 17, 26; primes >= 5 with exponent one: {5, 13, 17}
    assert count == 3
    assert ratio == Fraction(3, 5)


def test_exact_order_n_equals_one():
    count, ratio = exact_order_prime_ratio(poly("x^2 + 1"), 1)
    assert count == 1  # g(1) = 2 has the single exponent-1 prime 2
    assert ratio == Fraction(1)


def test_exact_order_direct_factorization_oracle():
    g = poly("x^2 + 1")
    n = 40
    count, _ = exact_order_prime_ratio(g, n)
    expected = set()
    for m in range(1, n + 1):
        for q, e in oracle_factor(m * m + 1).items():
            if e == 1 and q >= n:
                expected.add(q)
    assert count == len(expected)


def test_exact_order_rejects_hypothesis_violations():
    with pytest.raises(DomainError) as exc:
        exact_order_prime_ratio(poly("x + 1"), 5)
    assert "degree" in str(exc.value)
    with pytest.raises(DomainError) as exc2:
        exact_order_prime_ratio(poly("x^2 - 1"), 5)
    assert "irreducible" in str(exc2.value)
