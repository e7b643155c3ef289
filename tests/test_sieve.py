import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fiberfields import _kernels, arith, polyring, sieve
from fiberfields.cli import main
from fiberfields.covers import cover_from_text
from fiberfields.errors import BudgetError, DomainError, UnfactoredResidualError
from fiberfields.polyring import IntPoly, factor_over_Q, parse_poly
from fiberfields.sieve import (
    TrialRootTable,
    euler_density,
    exact_order_prime_ratio,
    fixed_square_primes,
    squarefree_value_count,
    trial_prime_lists,
    trial_root_table,
)

from conftest import oracle_factor, poly, shaped_polynomials


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
    q = 2**31 - 1  # a content prime past int32: q (x^2 + 1) and q^2 (x^2 + 1)
    assert fixed_square_primes(IntPoly((q, 0, q))) == ()
    assert fixed_square_primes(IntPoly((q * q, 0, q * q))) == (q,)


@st.composite
def _content_times_primitive(draw):
    """c * f, with c a product of primes 2-13 at exponents 0-3, and f a
    random primitive polynomial of degree 1-4 or the product of x - r over
    all r mod a prime p <= 13."""
    content = math.prod(q ** draw(st.integers(0, 3)) for q in (2, 3, 5, 7, 11, 13))
    if draw(st.booleans()):
        f = IntPoly((1,))
        for r in range(draw(st.sampled_from([2, 3, 5, 7, 11, 13]))):
            f = f * IntPoly((-r, 1))
    else:
        coeffs = draw(st.lists(st.integers(-30, 30), min_size=2, max_size=5))
        f = IntPoly(coeffs[:-1] + [draw(st.integers(1, 30))]).primitive()
    return f.scale(content)


@given(_content_times_primitive())
@example(poly("4x + 4"))
@example(poly("9x^2 + 9"))
@example(poly("3x^3 + 6"))
@settings(max_examples=200, deadline=None)
def test_fixed_square_primes_match_exhaustion(h):
    """Every prime up to 13 tried on all p**2 residues.  No larger prime
    can be fixed: it divides no content drawn, and deg h <= 13."""
    want = tuple(
        p for p in arith.primes_up_to(13) if all(h(n) % (p * p) == 0 for n in range(p * p))
    )
    assert fixed_square_primes(h) == want


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


def test_every_segment_scans_with_the_sieve_primes(monkeypatch):
    """x + 10**13 leaves residuals in each of three segments of 1,001
    values; the segments after the first still divide out every prime up
    to T and flag as one segment does."""
    h = IntPoly((10**13, 1))
    one = squarefree_value_count(h, 3000)
    monkeypatch.setattr(sieve, "_SEGMENT", 1001)
    many = squarefree_value_count(h, 3000)
    assert many.flags == one.flags == sympy_flags(h, 3000, ())
    assert many.residuals_factored == one.residuals_factored


def test_residuals_skip_the_trial_stage(monkeypatch):
    """Every residual cofactor is free of the trial primes, so it reaches
    arith.factor once, with its complete ascending prime list from
    arith.split_cofactors, all above the trial limit, and factors as it
    would without."""
    assert sieve._SIEVE_PRIME_CAP == arith.TRIAL_DIVISION_LIMIT
    trial_product = math.prod(arith.primes_up_to(arith.TRIAL_DIVISION_LIMIT))
    calls = []
    real = arith.factor

    def recording(n, budget=None, trial_primes=None):
        calls.append((n, trial_primes))
        return real(n, budget, trial_primes)

    monkeypatch.setattr(arith, "factor", recording)
    h = IntPoly((10007**2 * 10009 - 1, 1))
    rep = squarefree_value_count(h, 40)
    assert rep.flags == sympy_flags(h, 40, ())
    assert len(calls) == rep.residuals_factored >= 1
    for c, trial_primes in calls:
        assert trial_primes == sorted(sympy.factorint(c))
        assert all(q > arith.TRIAL_DIVISION_LIMIT for q in trial_primes)
        assert math.gcd(c, trial_product) == 1
        assert real(c, trial_primes=trial_primes) == real(c)


def test_residual_overruns_are_the_ones_scalar_factor_overruns():
    """Of six residuals of x + 3e12 (n <= 60), rho overruns 400 steps on
    three; with the batch split the sieve names the same n as a factor
    call per residual."""
    h, N, budget = IntPoly((3 * 10**12, 1)), 60, 400
    want, residuals = [], 0
    for n in range(1, N + 1):
        f = sympy.factorint(h(n))
        if any(e >= 2 for q, e in f.items() if q <= arith.TRIAL_DIVISION_LIMIT):
            continue
        c = math.prod(q**e for q, e in f.items() if q > arith.TRIAL_DIVISION_LIMIT)
        if c < arith.TRIAL_DIVISION_LIMIT**3 or math.isqrt(c) ** 2 == c:
            continue
        residuals += 1
        try:
            arith.factor(c, budget, trial_primes=())
        except UnfactoredResidualError:
            want.append(n)
    assert (residuals, want) == (6, [2, 14, 26])
    with pytest.raises(BudgetError) as exc:
        squarefree_value_count(h, N, budget=budget)
    assert str(exc.value).endswith("at n = 2, 14, 26")


def test_residuals_reach_arith_factor_only_when_the_batch_resolves_them(monkeypatch):
    """Of the six residuals of x + 3e12 (n <= 60), arith.split_cofactors
    gives three an error verdict under a budget of 400: the sieve names
    their n and hands only the other three to arith.factor."""
    calls = []
    real = arith.factor

    def recording(n, budget=None, trial_primes=None):
        calls.append(n)
        return real(n, budget, trial_primes)

    monkeypatch.setattr(arith, "factor", recording)
    with pytest.raises(BudgetError, match="at n = 2, 14, 26$"):
        squarefree_value_count(IntPoly((3 * 10**12, 1)), 60, budget=400)
    assert len(calls) == 3


def test_residuals_reach_scalar_rho_only_when_the_batch_gives_them_up(monkeypatch):
    """x^3 + 2: arith.split_cofactors decides every residual, so rho runs
    inside it only, never from scratch in arith.factor.  At N = 12,000
    under a budget of 500 it gives 40 residuals an error verdict, and the
    sieve names them without running rho on them again."""
    inside, given_up, outside = [], [], []
    split, rho = arith.split_cofactors, arith._brent_rho

    def recording_split(ms, budget=None):
        inside.append(True)
        try:
            verdicts = split(ms, budget)
        finally:
            inside.pop()
        given_up.extend(v for v in verdicts if isinstance(v, UnfactoredResidualError))
        return verdicts

    def recording_rho(n, budget, lane=None):
        if not inside:
            outside.append(n)
        return rho(n, budget, lane)

    monkeypatch.setattr(arith, "split_cofactors", recording_split)
    monkeypatch.setattr(arith, "_brent_rho", recording_rho)
    rep = squarefree_value_count(poly("x^3 + 2"), 12_000)
    assert rep.residuals_factored == 170
    with pytest.raises(BudgetError) as exc:
        squarefree_value_count(poly("x^3 + 2"), 12_000, budget=500)
    assert len(given_up) == 40 and all(err.budget == 500 for err in given_up)
    assert str(exc.value).count(",") == 19 and str(exc.value).endswith("...")
    assert outside == []


def test_fixed_square_primes_honours_the_budget(tmp_path, capsys):
    c = 10007 * 10009  # the content; rho needs more than 1 iteration
    h = IntPoly((c, c))
    assert fixed_square_primes(h, budget=100_000) == ()
    with pytest.raises(UnfactoredResidualError, match=r"\(1 iterations\)"):
        fixed_square_primes(h, budget=1)
    args = ["squarefree-density", "--poly", f"{c}x + {c}", "--N", "5", "--factor-budget", "1"]
    assert main(args + ["--out", str(tmp_path / "out.json")]) == 3
    err = capsys.readouterr().err
    assert "(1 iterations)" in err and str(c) in err


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


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_square_test_agrees_with_isqrt(dtype):
    """Squares s**2 up to just below 2**62, where float(s**2) is rounded,
    their neighbours s**2 +- 1, cofactors below T**2 and unflagged
    squares: the float sqrt on int64 (and math.isqrt on object) arrays
    clears exactly the squares' flags and returns the flagged non-squares
    >= T**3."""
    rng = random.Random(29)
    T = 10_000
    roots = [rng.randrange(T, 2**31 - 1) for _ in range(3000)] + [2**31 - 2, 3_037_000_499]
    roots = [s for s in roots if s * s < 2**62]
    cs = [s * s + rng.choice([-1, 0, 0, 1]) for s in roots] + [1, 7, T * T - 1, T * T]
    flagged = [rng.random() < 0.9 for _ in cs]
    cofactors, flags = np.array(cs, dtype=dtype), np.array(flagged)
    rest = sieve._squares_and_residuals(cofactors, flags, T * T, T**3)
    squares = [f and c >= T * T and math.isqrt(c) ** 2 == c for c, f in zip(cs, flagged)]
    assert flags.tolist() == [f and not sq for f, sq in zip(flagged, squares)]
    assert rest.tolist() == [
        i for i, (c, f, sq) in enumerate(zip(cs, flagged, squares)) if f and not sq and c >= T**3
    ]


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
# trial primes along root progressions
# ---------------------------------------------------------------------------

TRIAL_PRIMES = arith.primes_up_to(arith.TRIAL_DIVISION_LIMIT)
LIMIT = arith.TRIAL_DIVISION_LIMIT


def oracle_trial_primes(value: int) -> list[int]:
    return [q for q in TRIAL_PRIMES if value % q == 0]


def oracle_listed_primes(g: IntPoly, n: int) -> list[int]:
    """What the lists must hold for a nonzero g(n): every prime <= LIMIT
    dividing it, every prime <= SIEVE_LIMIT of the value of a linear
    factor of g, and every prime of g's content, each found by division
    or sympy rather than along progressions."""
    value = g(n)
    listed = set(oracle_trial_primes(value))
    for f, _ in sympy.factor_list(sympy.Poly(list(reversed(g.coeffs)), sympy.Symbol("x")))[1]:
        if f.degree() == 1:
            listed |= {q for q in sympy.factorint(abs(f.eval(n))) if q <= arith.SIEVE_LIMIT}
    listed |= set(sympy.factorint(math.gcd(*g.coeffs)))
    return sorted(listed)


def sieved_lists(g: IntPoly, N: int, cuts) -> list[list[int]]:
    """The trial-prime lists of g(1..N), segmented at the cut points, from
    the table a cyclic pass builds (content rows included)."""
    table = trial_root_table(factor_over_Q(g), N, None)
    bounds = sorted({1, N + 1, *(c for c in cuts if 1 < c <= N)})
    lists = []
    for n0, n1 in zip(bounds, bounds[1:]):
        lists += trial_prime_lists(table, n0, n1 - n0)
    return lists


def check_lists(g: IntPoly, N: int, cuts, factored: int = 8) -> list[list[int]]:
    """The lists of the nonzero values of g(1..N) against the oracles, and
    the hinted factorizations of the first `factored` values against the
    unhinted ones and sympy's."""
    lists = sieved_lists(g, N, cuts)
    assert len(lists) == N
    for n, primes in enumerate(lists, 1):
        value = g(n)
        assert primes == sorted(set(primes)), (n, primes)  # ascending, distinct
        if value == 0:  # a branch fiber: nothing reads its list
            continue
        assert all(value % q == 0 for q in primes), (n, value)
        assert set(oracle_trial_primes(value)) <= set(primes), (n, value)
        assert primes == oracle_listed_primes(g, n), (n, value)
        if n <= factored:
            f = arith.factor(value, trial_primes=primes)
            assert f == arith.factor(value)
            assert dict(f.factors) == sympy.factorint(abs(value))
            assert f.sign == (1 if value > 0 else -1)
    return lists


@given(
    coeffs=st.lists(st.integers(-60, 60), min_size=2, max_size=5).filter(lambda c: c[-1] != 0),
    shift=st.sampled_from([0, -(2**63), 10**20]),
    N=st.integers(1, 90),
    cuts=st.lists(st.integers(2, 90), max_size=4),
)
@example(coeffs=[6, 0, 0, 6], shift=0, N=40, cuts=[7])  # 2 and 3 divide every value
@example(coeffs=[0, -1, 0, 1], shift=0, N=30, cuts=[2])  # branch fibers: g(1) = 0
@example(coeffs=[-5, 3, -1], shift=0, N=25, cuts=[])  # every value negative
@example(coeffs=[-7, 8], shift=0, N=1, cuts=[])  # g(1) = 1: the table is empty
@example(coeffs=[1, 0, 0, 0, 1], shift=10**20, N=60, cuts=[13, 14])  # object dtype
@example(coeffs=[3, 7], shift=10**20, N=40, cuts=[9])  # a linear g beyond SIEVE_LIMIT
@settings(max_examples=40, deadline=None)
def test_trial_prime_lists_match_oracles(coeffs, shift, N, cuts):
    """For every nonzero g(n): every listed prime divides it, every prime
    <= LIMIT dividing it is listed, and so is every prime <= SIEVE_LIMIT
    of a linear factor's value and of the content, and nothing else;
    hinted factorizations equal the unhinted ones and sympy's."""
    check_lists(IntPoly([coeffs[0] + shift] + coeffs[1:]), N, cuts)


linear_factor = st.tuples(
    st.sampled_from([1, 1, 2, 3, 7, 10007, 2 * 10009]),  # b, with primes > LIMIT
    st.one_of(st.integers(-60, 60), st.integers(-(3 * 10**6), 3 * 10**6)),  # c
    st.integers(1, 3),  # multiplicity
)


@given(
    content=st.sampled_from([1, -1, 6, -10007, 100160063, 2 * 10009**2]),
    linear=st.lists(linear_factor, min_size=1, max_size=3),
    twin=st.sampled_from([None, 10007, 10009, 49999]),
    rest=st.sampled_from([None, "x^2 + 1", "x^2 - 2"]),
    N=st.integers(1, 60),
    cuts=st.lists(st.integers(2, 60), max_size=3),
)
@example(content=10007, linear=[(1, -3, 1)], twin=None, rest=None, N=20, cuts=[])
@example(content=1, linear=[(1, -3, 1)], twin=10007, rest=None, N=20, cuts=[5])
@example(content=1, linear=[(10007, 1, 2)], twin=None, rest="x^2 + 1", N=30, cuts=[])
@example(content=-1, linear=[(3, -20, 1), (1, -2 * 10**6, 1)], twin=None, rest=None, N=40, cuts=[])
@settings(max_examples=40, deadline=None)
def test_linear_rows_list_every_prime_of_linear_values(content, linear, twin, rest, N, cuts):
    """g = content * prod (b x + c)^m [* a quadratic]: non-monic factors,
    primes > LIMIT dividing b, values beyond SIEVE_LIMIT, two factors
    congruent mod a large prime (twin), multiplicities, branch fibers and
    negative values.  With no quadratic, the lists are exactly the primes
    of g(n) up to SIEVE_LIMIT and those of the content."""
    if twin is not None:
        b, c, _ = linear[0]
        linear = linear + [(b, c + b * twin, 1)]
    g = IntPoly((content,))
    for b, c, m in linear:
        g = g * IntPoly((c, b)).pow(m)
    if rest is not None:
        g = g * poly(rest)
    lists = check_lists(g, N, cuts, factored=4)
    if rest is None:
        for n, primes in enumerate(lists, 1):
            if g(n):
                assert primes == [
                    q for q in sorted(sympy.factorint(abs(g(n))))
                    if q <= arith.SIEVE_LIMIT or content % q == 0
                ]


TRIAL_PRIMORIAL = math.prod(TRIAL_PRIMES)
table_factor = st.sampled_from(
    [
        "x", "x - 1", "2x + 3", "10007x - 5", "x - 9976", "3x - 2000000",
        "x^2 + 1", "x^2 - 2", "5x^2 + 7x - 3", "x^3 + 2x + 5", "x^4 + 3x + 7",
    ]
)


@given(
    content=st.sampled_from([1, -6, 9991, -10007, 2 * 10009**2]),
    factors=st.lists(table_factor, min_size=1, max_size=3),
    N=st.integers(1, 2 * 10**4),
)
@example(content=1, factors=["x^4 + 3x + 7"], N=5)  # values up to 647 only
@example(content=1, factors=["x^2 + 1", "x^3 + 2x + 5"], N=60)
@example(content=1, factors=["x", "x - 1", "x^2 - 2"], N=2 * 10**4)
@example(content=-10007, factors=["10007x - 5", "3x - 2000000"], N=9_000)
@settings(max_examples=12, deadline=None)
def test_trial_lists_of_nonzero_values_for_every_N(content, factors, N):
    """For N up to 2e4, where each factor lists only the primes its own
    values can have, a nonzero g(n) still lists exactly its primes
    <= LIMIT (their product is gcd(g(n), the product of all of them)),
    the primes <= SIEVE_LIMIT of each linear factor's value and the
    content's (sympy), ascending."""
    g = IntPoly((content,))
    for text in factors:
        g = g * poly(text)
    linear = [f for f in map(poly, factors) if f.degree == 1]
    content_large = {q for q in sympy.factorint(abs(content)) if q > LIMIT}
    lists = trial_prime_lists(trial_root_table(factor_over_Q(g), N, None), 1, N)
    for n, primes in enumerate(lists, 1):
        value = g(n)
        if value == 0:  # a branch fiber: nothing reads its list
            continue
        small = [q for q in primes if q <= LIMIT]
        assert math.prod(small) == math.gcd(value, TRIAL_PRIMORIAL), (n, value)
        large = content_large | {
            q for f in linear for q in sympy.factorint(abs(f(n))) if LIMIT < q <= arith.SIEVE_LIMIT
        }
        assert primes == small + sorted(large), (n, value)


def test_trial_root_table_asks_each_factor_for_its_own_primes(monkeypatch):
    """Work done: the roots of a nonlinear factor are sought mod the
    primes up to the bound of its values only, and a linear factor's
    need no root table at all."""
    calls = []
    real = _kernels.poly_roots_table

    def spy(coeffs, qs):
        calls.append(qs.tolist())
        return real(coeffs, qs)

    monkeypatch.setattr(_kernels, "poly_roots_table", spy)
    smooth = cover_from_text("y^2 - (x^3 - x)").factorization
    for N in (1, 5, 60, 5 * 10**4):
        trial_root_table(smooth, N)
    assert calls == []
    quartic = cover_from_text("y^3 - (x^4 + 3x + 7)").factorization
    trial_root_table(quartic, 5)  # values up to 5^4 + 3*5 + 7 = 647
    assert calls == [[q for q in TRIAL_PRIMES if q <= 647]]
    calls.clear()
    trial_root_table(quartic, 5 * 10**4)
    assert calls == [TRIAL_PRIMES]


def test_trial_root_table_examples():
    # the content's primes divide every value, whatever their size
    rows = trial_root_table(factor_over_Q(poly("6x^3 + 6")), 10).rows
    assert rows[:2] == ((2, None), (3, None))
    empty = trial_root_table(factor_over_Q(poly("8x - 7")), 1)
    assert empty == TrialRootTable((), complete=True)
    assert trial_prime_lists(empty, 1, 1) == [[]]
    # N < q: only the residues met by n <= N are kept
    assert 9973 not in dict(trial_root_table(factor_over_Q(poly("x - 9973")), 5).rows)
    assert dict(trial_root_table(factor_over_Q(poly("x - 9976")), 5).rows)[9973] == (3,)
    # linear rows: the roots 1, 0, -1 of x^3 - x, for q up to N + 1
    rows = dict(trial_root_table(factor_over_Q(poly("x^3 - x")), 20_000).rows)
    assert rows[10007] == (0, 1, 10006) and max(rows) == 19_997
    # q | b
    assert 10007 not in dict(trial_root_table(factor_over_Q(poly("10007x + 1")), 10).rows)
    # values beyond SIEVE_LIMIT: rows stop there, and keep residues 1..N
    rows = trial_root_table(factor_over_Q(poly("x - 1000000000000")), 100).rows
    assert rows[-1][0] <= arith.SIEVE_LIMIT
    assert all(1 <= r <= 100 for q, roots in rows if q > 100 for r in roots)


def test_content_rows_replace_linear_rows():
    """A large content prime divides every value, so its row holds None in
    place of the linear factor's root; a content whose factorization
    overruns the budget leaves them out, and the table is incomplete."""
    assert dict(trial_root_table(factor_over_Q(poly("x - 3")), 20_000).rows)[10007] == (3,)
    g = poly("10007x - 30021")  # 10007 (x - 3)
    table = trial_root_table(factor_over_Q(g), 20_000, None)
    assert [q for q, _ in table.rows].count(10007) == 1 and dict(table.rows)[10007] is None
    assert table.complete
    lists = trial_prime_lists(table, 1, 30)
    assert all(10007 in primes for primes in lists)
    big = 1_000_003 * 1_000_033
    g = IntPoly((big, big))  # big (x + 1)
    full = trial_root_table(factor_over_Q(g), 10, None)
    assert dict(full.rows)[1_000_033] is None and full.complete
    assert trial_root_table(factor_over_Q(g), 10, 1) == TrialRootTable(
        tuple((q, roots) for q, roots in full.rows if roots is not None), complete=False
    )


def test_trial_prime_lists_beyond_the_value_window():
    """N above TRIAL_DIVISION_LIMIT: the table comes from g(1..10^4) and the
    progressions carry it to every n."""
    g = poly("x^2 + 1")
    N = 20_000
    table = trial_root_table(factor_over_Q(g), N)
    for n0, count in ((1, 50), (9_990, 40), (10_000, 3), (19_960, 41)):
        lists = trial_prime_lists(table, n0, count)
        assert lists == [oracle_trial_primes(g(n)) for n in range(n0, n0 + count)]


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


def _euler_oracle(h, bound):
    """euler_density with rho counted by exhaustion mod p**2, prime by
    prime."""
    h = polyring.radical(h)
    coeffs = np.array(h.coeffs, dtype=object)
    out = Fraction(1)
    for p in arith.primes_up_to(bound):
        rho = _kernels.poly_roots_mod(coeffs, p * p).size
        if 0 < rho < p * p:
            out *= Fraction(p * p - rho, p * p)
    return out


@given(
    st.lists(st.integers(-30, 30), min_size=2, max_size=6).filter(lambda cs: cs[-1] != 0),
    st.sampled_from([1, 2, 3, 4, 12, 49]),
    st.sampled_from([1, 2, 8, 9]),
    st.integers(-3, 3),
    st.sampled_from([2, 3, 60, 250]),
)
@example(coeffs=[-8, 0, 1], lead=1, content=1, double=0, bound=60)  # x^2 - 8: a double root mod 2
@example(coeffs=[1, 1], lead=2, content=1, double=0, bound=60)  # 2 | lc(h)
@example(coeffs=[1, 1], lead=1, content=4, double=0, bound=3)  # h = 0 mod 4: p = 2 fixed
@settings(max_examples=80, deadline=None)
def test_euler_density_agrees_with_root_counts_per_prime(coeffs, lead, content, double, bound):
    """The lifts of the table's roots mod p against exhaustion mod p**2,
    on h times a squared linear factor or not, with p | lc(h) and content
    divisible by 2**3 or 3**2."""
    h = IntPoly(tuple(c * content for c in coeffs[:-1]) + (coeffs[-1] * lead * content,))
    if double:
        h = h * IntPoly((double, 1)) * IntPoly((double, 1))
    assert euler_density(h, bound) == _euler_oracle(h, bound)


@given(shaped_polynomials())
@example(poly("4x + 4"))  # h = 0 mod 2
@example(poly("x^3 + 3x + 9"))  # h' = 0 mod 3, h(r) = 0 mod 9 at no root
@example(poly("5x^5 + x + 25"))  # 5 | lc(h)
@settings(max_examples=300, deadline=None)
def test_square_root_counts_match_exhaustion(h):
    """The Hensel count of the roots of h mod p**2, for every p <= 31 in one
    call, against all p**2 residues (_kernels.poly_roots_mod)."""
    primes = arith.primes_up_to(31)
    coeffs = np.array(h.coeffs, dtype=object)
    want = [_kernels.poly_roots_mod(coeffs, p * p).size for p in primes]
    assert sieve._square_root_counts(h, primes) == want


def test_euler_density_rejects_bounds_past_the_root_table():
    with pytest.raises(DomainError):
        euler_density(poly("x^3 + 2"), 2**31)
    with pytest.raises(DomainError, match="euler_density needs a non-constant polynomial"):
        euler_density(poly("5"), 100)


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


@pytest.mark.parametrize(
    "text, n",
    # cofactors p*q and p*q*r, some of them above 2**50 in the second
    [("x^4 + 3x + 10^11 + 7", 150), ("x^4 + 3x + 2^52 + 1", 80)],
)
def test_exact_order_on_quartics_with_large_prime_pairs(text, n):
    g = poly(text)
    want = {
        q
        for m in range(1, n + 1)
        for q, e in sympy.factorint(g(m)).items()
        if e == 1 and q >= n
    }
    assert exact_order_prime_ratio(g, n) == (len(want), Fraction(len(want), n))


@pytest.mark.parametrize(
    "text, n, budget",
    [("x^4 + 3x + 10^11 + 7", 150, 1000), ("x^4 + 3x + 2^52 + 1", 80, 1600),
     ("x^4 + 3x + 2^52 + 1", 80, 3200)],
)
def test_exact_order_overrun_is_the_first_one_of_factor(text, n, budget):
    """The residual and budget named are those of the first m whose value
    arith.factor cannot split within budget."""
    g = poly(text)
    with pytest.raises(UnfactoredResidualError) as want:
        for m in range(1, n + 1):
            arith.factor(g(m), budget)
    with pytest.raises(UnfactoredResidualError) as got:
        exact_order_prime_ratio(g, n, budget)
    assert (got.value.residual, got.value.budget) == (want.value.residual, budget)


def test_exact_order_lists_the_content_primes(monkeypatch):
    """1000003 * 1000033 * (x^2 + 1) at n = 2,000: the content's primes
    are listed for every value (the content rows), so the batch split
    gets the cofactors of x^2 + 1 alone, 944 of them, instead of one per
    value with the content in it."""
    sizes = []
    split = arith.split_cofactors

    def recording(ms, budget=None):
        sizes.append(len(ms))
        return split(ms, budget)

    monkeypatch.setattr(arith, "split_cofactors", recording)
    exact_order_prime_ratio(poly("x^2 + 1"), 2000)
    plain = sum(sizes)
    sizes.clear()
    big = 1_000_003 * 1_000_033
    assert exact_order_prime_ratio(IntPoly((big, 0, big)), 2000) == (1280, Fraction(1280, 2000))
    assert sum(sizes) == plain == 944


def test_exact_order_rejects_hypothesis_violations():
    with pytest.raises(DomainError) as exc:
        exact_order_prime_ratio(poly("x + 1"), 5)
    assert "degree" in str(exc.value)
    with pytest.raises(DomainError) as exc2:
        exact_order_prime_ratio(poly("x^2 - 1"), 5)
    assert "irreducible" in str(exc2.value)
    with pytest.raises(DomainError, match="n >= 1 required"):
        exact_order_prime_ratio(poly("x^2 + 1"), 0)
