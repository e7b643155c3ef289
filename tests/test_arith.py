import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberfields import _kernels, arith
from fiberfields.arith import Factorization, factor, is_prime
from fiberfields.errors import DomainError, UnfactoredResidualError
from fiberfields.kummer import radical_class

from conftest import oracle_factor, oracle_is_prime, oracle_p_free_value, oracle_squarefree_kernel

nonzero_ints = st.integers(min_value=-10**9, max_value=10**9).filter(lambda n: n != 0)


def test_factor_examples():
    assert factor(12) == Factorization(1, ((2, 2), (3, 1)))
    assert factor(-1) == Factorization(-1, ())
    assert factor(1) == Factorization(1, ())
    assert factor(97) == Factorization(1, ((97, 1),))
    assert oracle_is_prime(97)


def test_factor_zero_rejected():
    with pytest.raises(DomainError):
        factor(0)


@pytest.mark.parametrize("n", [2, -360, 1009, 2**31 - 1, 10**12 + 39, -(3**7 * 5**2)])
def test_factor_matches_trial_division(n):
    f = factor(n)
    assert dict(f.factors) == oracle_factor(n)
    assert f.sign == (1 if n > 0 else -1)
    f.validate()


@given(nonzero_ints)
@settings(max_examples=150, deadline=None)
def test_factor_reconstructs(n):
    assert factor(n).reconstruct() == n


def test_factor_budget_error_names_residual():
    p = 1_000_000_007
    q = 1_000_000_033
    with pytest.raises(UnfactoredResidualError) as exc:
        factor(p * q, budget=8)
    assert exc.value.residual == p * q


@pytest.mark.parametrize("budget", [0, -1])
def test_factor_rejects_nonpositive_budget(budget):
    with pytest.raises(DomainError, match="budget must be positive"):
        factor(1_000_003 * 1_000_033, budget=budget)


@pytest.mark.parametrize("p", [1, 0, -2])
def test_factor_rejects_p_below_2(p):
    with pytest.raises(DomainError, match=f"p must be at least 2, got {p}"):
        factor(12, p=p)


def test_is_prime_small_and_carmichael():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(561)  # Carmichael
    assert not is_prime(2**32 + 1)
    assert is_prime(2**61 - 1)


def test_squarefree_kernel_examples():
    # the squarefree kernel is the 2-free kernel, sign kept
    assert radical_class(12, 2).kernel.reconstruct() == 3
    assert radical_class(1, 2).kernel.reconstruct() == 1
    assert radical_class(-18, 2).kernel.reconstruct() == -2
    assert radical_class(12, 2).kernel.reconstruct() == oracle_squarefree_kernel(12)


@given(nonzero_ints, st.integers(min_value=1, max_value=300))
@settings(max_examples=100, deadline=None)
def test_squarefree_kernel_square_invariance(n, k):
    assert radical_class(n * k * k, 2).kernel == radical_class(n, 2).kernel


def oracle_trial_primes(n: int) -> list[int]:
    return [q for q in arith.primes_up_to(arith.TRIAL_DIVISION_LIMIT) if n % q == 0]


@given(st.integers(min_value=-10**15, max_value=10**15).filter(lambda n: n != 0))
@settings(max_examples=150, deadline=None)
def test_factor_with_trial_primes_skips_only_the_trial_stage(n):
    primes = oracle_trial_primes(n)
    assert factor(n, trial_primes=primes) == factor(n)


@pytest.mark.parametrize("n", [1, -1, 10007, 10007 * 10009, -(10007**3) * 99991, 2**61 - 1])
def test_factor_without_trial_primes_by_contract(n):
    assert oracle_trial_primes(n) == []
    assert factor(n, trial_primes=()) == factor(n)
    assert factor(n, trial_primes=()).reconstruct() == n


@pytest.mark.parametrize("primes", [[3, 2], [2, 2, 3], [2, 3, 3, 5], [5, 3, 7], [1, 2, 3], [0, 2]])
def test_factor_rejects_trial_primes_not_strictly_ascending(primes):
    # factor builds its Factorization unchecked, so it checks the order of
    # the trial primes itself; a 1 or 0 would otherwise never divide out.
    with pytest.raises(DomainError, match="trial primes must be strictly increasing"):
        factor(2 * 3 * 5 * 7 * 10007, trial_primes=primes)


@pytest.mark.parametrize(
    "n, primes, q", [(30, [2, 3, 7], 7), (15, [2], 2), (-10007, [10009], 10009)]
)
def test_factor_rejects_trial_primes_that_do_not_divide(n, primes, q):
    # Unchecked, 30 with [2, 3, 7] leaves m = 0, on which the exponent loop
    # never ends, and 15 with [2] gives 2 * 7.
    with pytest.raises(DomainError, match=f"trial prime {q} does not divide {n}"):
        factor(n, trial_primes=primes)
    with pytest.raises(DomainError, match=f"trial prime {q} does not divide {n}"):
        factor(n, trial_primes=primes, p=2)


@pytest.mark.parametrize("factors", [((3, 1), (2, 1)), ((2, 1), (2, 1)), ((1, 1),), ((2, 0),)])
def test_factorization_constructor_validates(factors):
    with pytest.raises(DomainError):
        Factorization(1, factors)


def test_factor_checks_the_budget_when_no_rho_runs():
    with pytest.raises(DomainError, match="factor budget must be positive"):
        factor(840, budget=0, trial_primes=[2, 3, 5, 7])
    with pytest.raises(DomainError, match="factor budget must be positive"):
        factor(840, budget=-1)


def test_p_free_kernel_needs_a_prime():
    with pytest.raises(DomainError, match="kummer: radical_class needs a prime, got 4"):
        radical_class(12, 4)


def test_p_free_kernel_examples():
    assert radical_class(8, 3).kernel == Factorization(1, ())
    assert radical_class(12, 3).kernel == Factorization(1, ((2, 2), (3, 1)))
    assert radical_class(-4, 2).kernel == Factorization(-1, ())
    assert radical_class(-8, 3).kernel == Factorization(1, ())  # sign absorbed for odd p


@given(nonzero_ints, st.integers(min_value=1, max_value=40), st.sampled_from([2, 3, 5]))
@settings(max_examples=100, deadline=None)
def test_p_free_kernel_pth_power_invariance(n, k, p):
    assert radical_class(n * k**p, p).kernel == radical_class(n, p).kernel


@given(nonzero_ints)
@settings(max_examples=100, deadline=None)
def test_squarefree_kernel_is_2_free_kernel(n):
    assert radical_class(n, 2).kernel.reconstruct() == oracle_squarefree_kernel(n)
    assert radical_class(n, 2).kernel.reconstruct() == oracle_p_free_value(n, 2)


@pytest.mark.parametrize(
    "n, p, same",
    [(30, 2, True), (-30, 2, True), (12, 2, False), (-12, 3, False), (12, 3, True),
     (2**4 * 3**2 * 7, 5, True), (2**5 * 3, 5, False), (1, 2, True), (-1, 3, False),
     # the cofactor 10007^2 * 10009 * 10037 is split by rho
     (-4 * 10007**2 * 10009 * 10037, 2, False)],
)
def test_p_free_returns_a_reduced_factorization_itself(n, p, same):
    """factor(n, p=p) is the p-free kernel radical_class keeps: every
    exponent reduced into [1, p-1], the sign kept for p = 2 and absorbed
    for odd p.  It equals factor(n) exactly when n is reduced already."""
    kernel = factor(n, p=p)
    assert (kernel == factor(n)) == same
    assert kernel == radical_class(n, p).kernel
    assert kernel.reconstruct() == oracle_p_free_value(n, p)
    assert all(1 <= e < p for _, e in kernel.factors)


def test_p_free_kernel_exponent_range():
    f = radical_class(2**9 * 3**5 * 5, 5).kernel
    assert all(1 <= e <= 4 for _, e in f.factors)
    assert f == Factorization(1, ((2, 4), (5, 1)))


def test_introot_and_perfect_power():
    assert arith.introot(10**12, 2) == 10**6
    assert arith.introot(2**60 - 1, 3) == 2**20 - 1
    b, k = arith._prime_power_root(2**10, 2)
    assert b**k == 2**10 and oracle_is_prime(k)
    assert arith._prime_power_root(3**5, 2) == (3, 5)
    assert arith._prime_power_root(60, 2) is None


def test_factorization_invariants_enforced():
    with pytest.raises(DomainError):
        Factorization(1, ((3, 1), (2, 1)))  # out of order
    with pytest.raises(DomainError):
        Factorization(1, ((2, 0),))  # exponent < 1
    with pytest.raises(DomainError):
        Factorization(2, ())  # bad sign
    with pytest.raises(DomainError, match="listed factor 4 is not prime"):
        Factorization(1, ((4, 1),)).validate()  # only validate() tests primality


# ---------------------------------------------------------------------------
# factor against sympy across the trial/rho boundary
# ---------------------------------------------------------------------------

_TRIAL = arith.primes_up_to(arith.TRIAL_DIVISION_LIMIT)
_JUST_ABOVE_LIMIT = [10_007, 10_009, 10_037, 10_039, 10_061, 10_067, 10_069, 10_079]

_smooth = st.lists(
    st.tuples(st.sampled_from(_TRIAL), st.integers(1, 12)), min_size=1, max_size=8
).map(lambda fs: math.prod(p**e for p, e in fs))
# up to 14 distinct trial primes, large ones included
_spread = st.lists(
    st.integers(0, len(_TRIAL) - 1), min_size=2, max_size=14, unique=True
).map(lambda idx: math.prod(_TRIAL[i] for i in idx))
_boundary = st.sampled_from(
    [9973**k for k in range(1, 7)] + [10007**k for k in range(1, 7)] + [9973 * 10007]
)
_limit_square = st.sampled_from(_JUST_ABOVE_LIMIT).map(lambda p: p * p)
_cofactor = st.one_of(
    st.just(1),
    st.integers(2, 10**9),
    st.lists(st.integers(10**4, 10**9), min_size=2, max_size=3).map(math.prod),
)
_oracle_values = st.one_of(
    st.builds(
        lambda a, b, s: s * a * b,
        st.one_of(_smooth, _spread, _boundary, _limit_square),
        _cofactor,
        st.sampled_from([1, -1]),
    ),
    st.integers(2**64, 2**66),  # beyond 64 bits, no structure
)


@given(_oracle_values)
@settings(max_examples=300, deadline=None)
def test_factor_matches_sympy_factorint(n):
    f = factor(n)
    assert f.sign == (1 if n > 0 else -1)
    assert dict(f.factors) == sympy.factorint(abs(n))


# ---------------------------------------------------------------------------
# primes_up_to: one table
# ---------------------------------------------------------------------------


def test_primes_up_to_sieves_one_table_a_few_times(monkeypatch):
    """2,000 increasing limits up to 5,000 sieve the table at most 14 times,
    as each sieve at least doubles its bound, and every call gets a list of
    its own: one mutated by its caller changes no later answer."""
    sieved = []
    prime_flags = _kernels.prime_flags
    monkeypatch.setattr(
        _kernels, "prime_flags", lambda limit: sieved.append(limit) or prime_flags(limit)
    )
    monkeypatch.setattr(arith, "_prime_table", (np.zeros(0, dtype=np.int64), 0))
    want = list(sympy.primerange(2, 5001))
    for k in range(1, 2001):
        limit = 5000 * k // 2000
        got = arith.primes_up_to(limit)
        assert got == [q for q in want if q <= limit], limit
        got.reverse()
        got.append(4)
    assert len(sieved) <= 14
    assert arith.primes_up_to(5000) == want
    assert arith.primes_up_to(1) == arith.primes_up_to(-3) == []


def test_primes_not_dividing_walks_past_the_table(monkeypatch):
    """The walk lists the primes not dividing m in ascending order, across
    each growth of a table that starts empty; every prime divides 0."""
    monkeypatch.setattr(arith, "_prime_table", (np.zeros(0, dtype=np.int64), 0))
    m = -(3**4) * math.prod(sympy.primerange(2, 3000))
    walk = arith.primes_not_dividing(m)
    assert [next(walk) for _ in range(500)] == list(sympy.primerange(3000, 8000))[:500]
    with pytest.raises(DomainError, match="every prime divides 0"):
        next(arith.primes_not_dividing(0))


# ---------------------------------------------------------------------------
# Miller-Rabin threshold table
# ---------------------------------------------------------------------------

# psi_k, the least strong pseudoprime to the first k prime bases, for
# k = 1..7, 9, 12, 13 (psi_8 = psi_7 and psi_9 = psi_10 = psi_11).
_PSI = [
    2_047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747, 3_474_749_660_383,
    341_550_071_728_321, 3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461,
    3_317_044_064_679_887_385_961_981,
]
_PSI_K = [1, 2, 3, 4, 5, 6, 7, 9, 12, 13]
_PSI6, _PSI9, _PSI12 = _PSI[5], _PSI[7], _PSI[8]


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    return arith._miller_rabin_round(n, a, d, s)


def test_mr_threshold_table_rows_are_strong_pseudoprimes(monkeypatch):
    # The table holds every psi_k, and is_prime and the lanes read the same
    # rows: is_prime every row below psi_13, the lanes below
    # LANES_BELOW = 2**56 the rows up to psi_9, the first above it.
    assert _PSI[6] < _kernels.LANES_BELOW < _PSI9
    assert [psi for psi, _ in arith._MR_THRESHOLDS] == _PSI
    assert [len(bases) for _, bases in arith._MR_THRESHOLDS] == _PSI_K
    for psi, bases in arith._MR_THRESHOLDS:
        assert list(bases) == list(sympy.primerange(2, bases[-1] + 1))
        assert not sympy.isprime(psi)
        assert all(_strong_probable_prime(psi, a) for a in bases), psi
    assert arith._LANE_PSI.tolist() == _PSI[:8]
    rounds = []
    mr_round = arith._miller_rabin_round
    monkeypatch.setattr(
        arith, "_miller_rabin_round", lambda n, a, d, s: rounds.append(a) or mr_round(n, a, d, s)
    )
    for psi, bases in arith._MR_THRESHOLDS:
        q = sympy.prevprime(psi)  # above the row before
        rounds.clear()
        assert is_prime(q)
        assert tuple(rounds) == bases, psi
        if q < _kernels.LANES_BELOW:
            row = np.searchsorted(arith._LANE_PSI, q, side="right")
            assert arith._LANE_BASE_COUNT[row] == len(bases)
            assert arith._LANE_BASES[: len(bases)].tolist() == list(bases)
    rounds.clear()
    assert is_prime(sympy.nextprime(_PSI[-1]))
    assert rounds == [2]  # then the strong Lucas test


@pytest.mark.parametrize("psi", _PSI)
def test_is_prime_matches_sympy_around_thresholds(psi):
    assert not is_prime(psi)
    for n in range(psi - 2, psi + 3):
        assert is_prime(n) == sympy.isprime(n), n


# ---------------------------------------------------------------------------
# The table's rows on the window [psi_6, 2**64), against sympy
# ---------------------------------------------------------------------------


def test_is_prime_rejects_psi9_by_its_row():
    # A strong pseudoprime to every base up to 23, so Miller-Rabin to the
    # first nine prime bases calls it prime; its row, psi_12's, runs twelve.
    assert _PSI6 <= _PSI9 < 2**64
    assert all(_strong_probable_prime(_PSI9, a) for a in sympy.primerange(2, 24))
    assert sympy.isprime(_PSI9) is False
    assert not is_prime(_PSI9)


_WINDOW_PRIMES = [
    sympy.nextprime(_PSI6), sympy.nextprime(10**15), sympy.nextprime(2**32 * 10**6),
    sympy.prevprime(2**63), sympy.nextprime(2**63), sympy.prevprime(2**64),
]


@pytest.mark.parametrize("q", _WINDOW_PRIMES)
def test_is_prime_on_primes_in_the_window(q):
    assert _PSI6 <= q < 2**64
    for n in range(q - 30, q + 31):
        assert is_prime(n) == sympy.isprime(n), n


# primes just above sqrt(psi_6) = 1,864,068.4 and just below 2**32
_SQUARE_ROOTS = [sympy.nextprime(1_864_068 + 1000 * i) for i in range(4)] + [
    sympy.prevprime(2**32 - 10**6), sympy.prevprime(2**32)
]


@pytest.mark.parametrize("r", _SQUARE_ROOTS)
def test_is_prime_rejects_prime_squares_in_the_window(r):
    assert _PSI6 <= r * r < 2**64
    assert sympy.isprime(r * r) is False
    assert not is_prime(r * r)


def test_is_prime_matches_sympy_around_2_to_64():
    below = [sympy.prevprime(2**64 - k * 10**6) for k in range(3)]
    above = [sympy.nextprime(2**64 + k * 10**6) for k in range(3)]
    for q in below + above:
        assert is_prime(q)
    for n in range(2**64 - 60, 2**64 + 60):
        assert is_prime(n) == sympy.isprime(n), n


@given(st.integers(_PSI6, 2**64 - 1))
@settings(max_examples=400, deadline=None)
def test_is_prime_matches_sympy_in_the_window(n):
    assert is_prime(n) == sympy.isprime(n)
    q = sympy.nextprime(n)
    if q < 2**64:
        assert is_prime(q)


@given(
    st.integers(10**4, 10**8).map(sympy.nextprime).filter(lambda p: p <= 10**8),
    st.integers(10**8, 10**12).map(sympy.nextprime),
    st.integers(0, 3),
)
@settings(max_examples=200, deadline=None)
def test_factor_of_two_large_primes_matches_sympy(p, q, k):
    # rho splits p * q, and the part p <= TRIAL_DIVISION_LIMIT**2 is
    # recorded as prime without a test; k adds a power of p
    n = p ** (k + 1) * q
    assert dict(factor(n).factors) == sympy.factorint(n)


def _chernick(k_from, count):
    """Carmichael numbers (6k+1)(12k+1)(18k+1) with all three factors prime."""
    out = []
    k = k_from
    while len(out) < count:
        ps = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if all(sympy.isprime(p) for p in ps):
            out.append(math.prod(ps))
        k += 1
    return out


# (6k+1)(12k+1)(18k+1), k = 14001970: a strong pseudoprime to base 2
# above psi_13, which only Baillie-PSW's strong Lucas step rejects
_LUCAS_ONLY = 3_557_725_523_452_902_604_315_321

_CARMICHAEL = (
    [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
     5394826801, 232250619601, 9746347772161]
    + _chernick(10**4, 2) + _chernick(10**7, 2) + _chernick(10**9, 2)
    + [_LUCAS_ONLY]
)


@pytest.mark.parametrize("n", _CARMICHAEL)
def test_is_prime_rejects_carmichael_numbers(n):
    assert sympy.isprime(n) is False
    assert not is_prime(n)


def test_strong_lucas_step_rejects_composites():
    assert _LUCAS_ONLY == _chernick(14_001_970, 1)[0] > _PSI[-1]
    assert _strong_probable_prime(_LUCAS_ONLY, 2)
    assert not arith._strong_lucas_prp(_LUCAS_ONLY)
    # a square has no D with (D|n) = -1, so the search ends at its
    # perfect-square exit
    r = 10**12 + 39
    assert is_prime(r)
    assert not arith._strong_lucas_prp(r * r)


def test_psi12_factors_into_its_two_primes():
    assert factor(_PSI12) == Factorization(1, ((399_165_290_221, 1), (798_330_580_441, 1)))
    # Rho needs 1,961,982 iterations here, one run that finds 399165290221,
    # which is then divided out to its full power: an overrun is a named
    # failure, never the wrong kernel {399165290221, psi12}.
    a = _PSI12 * 399_165_290_221
    for budget in (1_961_982, 3_000_000, None):
        assert radical_class(a, 2, budget=budget).kernel == Factorization(
            1, ((798_330_580_441, 1),)
        )
    with pytest.raises(UnfactoredResidualError):
        radical_class(a, 2, budget=1_961_981)


# ---------------------------------------------------------------------------
# rho's budget accounting
# ---------------------------------------------------------------------------


# Smallest budget at which factor(p * q) succeeds.  The rho iterate sequence
# and its budget.spend calls fix these numbers; a change to either moves
# which fibers come out unresolved under --factor-budget.
LEAST_BUDGETS = [
    (100_003, 100_019, 510),
    (999_983, 1_000_003, 894),
    (10_000_019, 10_000_079, 3198),
    (12_345_701, 987_654_323, 6782),
    (100_000_007, 100_000_037, 31486),
    (1_000_000_007, 1_000_000_009, 31102),
]


@pytest.mark.parametrize("p, q, least_budget", LEAST_BUDGETS)
def test_rho_least_budget_pinned(p, q, least_budget):
    assert factor(p * q, budget=least_budget) == Factorization(1, ((p, 1), (q, 1)))
    with pytest.raises(UnfactoredResidualError):
        factor(p * q, budget=least_budget - 1)


# ---------------------------------------------------------------------------
# split_cofactors: the batch split of rho's inputs
# ---------------------------------------------------------------------------


_large_primes = st.one_of(
    st.integers(10**4, 10**7).map(sympy.nextprime),
    st.integers(2**24, 2**27).map(sympy.nextprime),  # products reach past 2**56
)
_cofactors = st.one_of(
    st.lists(st.tuples(_large_primes, st.integers(1, 3)), min_size=1, max_size=3).map(
        lambda parts: math.prod(p**e for p, e in parts)
    ),
    st.sampled_from([p * q for p, q, _ in LEAST_BUDGETS]),
)
# budgets anywhere, and next to the least budget of a LEAST_BUDGETS product
_budgets = st.one_of(
    st.integers(1, 10**4),
    st.sampled_from([b for _, _, least in LEAST_BUDGETS for b in range(least - 2, least + 2)]),
)


def _outcome(m, budget, trial_primes=None):
    try:
        return factor(m, budget, trial_primes)
    except UnfactoredResidualError as exc:
        return exc.residual, exc.budget


def _verdict(primes):
    if isinstance(primes, UnfactoredResidualError):
        return primes.residual, primes.budget
    return primes


@given(
    st.lists(_cofactors, min_size=1, max_size=12),
    _budgets,
    st.sampled_from([0, 3, arith._RHO_HAND_OFF]),
    st.sampled_from([0, arith._PRIME_HAND_OFF]),
)
@settings(max_examples=150, deadline=None)
def test_split_cofactors_then_factor_is_factor(ms, budget, hand_off, prime_hand_off):
    """Primes, pq, p^2 q, three primes, powers, some at or above 2**56:
    every verdict is the outcome of factor alone, the primes it finds or
    the residual and budget it names when it overruns, and factor given
    a list verdict returns that Factorization.  Lower
    hand-offs keep the lanes, rho's and the primality proofs', in the
    kernels."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "_RHO_HAND_OFF", hand_off)
        mp.setattr(arith, "_PRIME_HAND_OFF", prime_hand_off)
        split = arith.split_cofactors(ms, budget)
    for m, primes in zip(ms, split):
        alone = _outcome(m, budget)
        if isinstance(alone, Factorization):
            assert _verdict(primes) == sorted(alone.support()) == sorted(sympy.factorint(m))
        else:
            assert _verdict(primes) == alone
        if isinstance(primes, list):
            assert _outcome(m, budget, primes) == alone


# One copy is handed to _brent_rho after round 1; 64 copies stay in the
# lockstep kernel until they all find the factor together.
@pytest.mark.parametrize("copies", [1, 64])
@pytest.mark.parametrize(
    "p, q, least_budget", [c for c in LEAST_BUDGETS if c[0] * c[1] < _kernels.LANES_BELOW]
)
def test_split_cofactors_least_budget_is_factors(p, q, least_budget, copies):
    ms = [p * q] * copies
    assert arith.split_cofactors(ms, least_budget) == [[p, q]] * copies
    short = arith.split_cofactors(ms, least_budget - 1)
    assert [_verdict(v) for v in short] == [(p * q, least_budget - 1)] * copies


def test_split_cofactors_decides_past_the_lanes():
    """Everything below _kernels.LANES_BELOW = 2**56 is split in the lanes,
    r * s (about 2**50) and r * (2**31 - 1) (just below 2**56) included;
    r**3, 2**61 - 1 and s * (2**31 - 1) (just above 2**56) are split by
    scalar rho in the same call, and overrun the budget as factor does."""
    p, q, r, s, m31 = 10_007, 10_009, 33_554_393, 33_555_439, 2**31 - 1
    assert r * s >= 2**50 > p * q * 10_037
    assert r * m31 < _kernels.LANES_BELOW == 2**56 < s * m31
    ms = [p, p * q, r**3, 2**61 - 1, p * q * 10_037, p**2 * q, r * s, r * m31, s * m31]
    assert arith.split_cofactors(ms) == [
        [p], [p, q], [r], [2**61 - 1], [p, q, 10_037], [p, q], [r, s], [r, m31], [s, m31]
    ]
    [overrun] = arith.split_cofactors([s * m31], 8)
    assert _verdict(overrun) == _outcome(s * m31, 8) == (s * m31, 8)
    with pytest.raises(DomainError):
        arith.split_cofactors(ms, 0)


def test_split_cofactors_proves_a_whole_batch_in_the_lanes():
    """Primes, and semiprimes whose large part rho splits off, each kind
    at least a hand-off's worth: every primality proof, of the cofactors
    and of the parts, runs in the lanes, none in scalar is_prime."""
    count = max(arith._PRIME_HAND_OFF, arith._RHO_HAND_OFF)
    primes = [sympy.nextprime(10**8 + 17 * 10**12 * k) for k in range(count)]
    semiprimes = [
        sympy.nextprime(10**4 + 97 * k) * sympy.nextprime(10**9 + 10**7 * k)
        for k in range(count)
    ]
    ms = primes + semiprimes
    assert max(ms) < _kernels.LANES_BELOW
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "is_prime", lambda n: calls.append(n) or is_prime(n))
        split = arith.split_cofactors(ms)
    assert calls == []
    assert split == [sorted(sympy.factorint(m)) for m in ms]


_T = arith.TRIAL_DIVISION_LIMIT
_square_bases = st.one_of(
    st.integers(_T, _T + 10**4),
    st.integers(2**25 - 10**5, 2**25 - 40),  # squares near 2**50
    st.integers(2**28 - 10**5, 2**28 - 60),  # squares near 2**56
).map(sympy.nextprime)
_cube_bases = st.one_of(
    st.integers(_T, _T + 10**4),
    st.integers(103_000, 104_000),  # cubes near 2**50
    st.integers(415_000, 416_100),  # cubes near 2**56
).map(sympy.nextprime)


@given(
    st.lists(
        st.one_of(
            _square_bases.map(lambda p: p**2),
            _cube_bases.map(lambda p: p**3),
            st.tuples(_square_bases, _square_bases).map(lambda pq: pq[0] ** 2 * pq[1]),
            st.tuples(_square_bases, _square_bases).map(lambda pq: pq[0] * pq[1]),
            st.lists(_cube_bases, min_size=3, max_size=3).map(math.prod),
        ).filter(lambda m: _T**2 < m < _kernels.LANES_BELOW),
        max_size=20,
    )
)
@settings(max_examples=150, deadline=None)
def test_square_or_cube_roots_is_prime_power_root(ms):
    """Below LANES_BELOW with every prime above the trial limit, the batch
    root test finds the root _prime_power_root finds, or none where it
    does."""
    assert arith._square_or_cube_roots(ms) == [arith._prime_power_root(m, _T) for m in ms]


def test_square_or_cube_roots_at_the_envelope_edges():
    top_square = sympy.prevprime(2**25)
    top_cube = sympy.prevprime(104_032)
    bottom = sympy.nextprime(_T)
    ms = [top_square**2, top_cube**3, bottom**2, bottom**3, top_cube**2 * bottom,
          bottom * top_square, bottom**2 * sympy.nextprime(bottom)]
    assert max(ms) < _kernels.LANES_BELOW
    assert arith._square_or_cube_roots(ms) == [
        (top_square, 2), (top_cube, 3), (bottom, 2), (bottom, 3), None, None, None
    ]
    assert arith._square_or_cube_roots([]) == []


def test_square_or_cube_roots_at_the_top_of_the_lanes():
    """Above 2**53 a cofactor is not exact as a float, but a square's
    correctly rounded sqrt still is its root: the largest square and cube
    of a prime below 2**56, fourth powers (squares, as _prime_power_root
    tries k = 2 first), and products that are neither."""
    top_square = sympy.prevprime(2**28)
    top_cube = sympy.prevprime(416_128)
    fourth = sympy.prevprime(2**14)
    ms = [top_square**2, top_cube**3, fourth**4, top_square * sympy.prevprime(top_square),
          top_cube**2 * sympy.nextprime(300_000), top_square**2 - 2]
    assert 2**53 < min(ms) and max(ms) < _kernels.LANES_BELOW < sympy.nextprime(416_128) ** 3
    assert arith._square_or_cube_roots(ms) == [
        (top_square, 2), (top_cube, 3), (fourth**2, 2), None, None, None
    ]
    assert arith._square_or_cube_roots(ms) == [arith._prime_power_root(m, _T) for m in ms]


def test_a_repeated_large_prime_costs_one_rho_run(monkeypatch):
    """Each prime rho finds is divided out to its full power before the
    rest is split, so p**k q costs one rho run, not one per copy of p
    (14 runs for (2**31 - 1)**14 (2**61 - 1) would overrun the default
    budget).  split_cofactors finishes its lanes the same way, so it makes
    the rho calls factor makes (every lane resumed in _brent_rho here)."""
    calls = []
    rho = arith._brent_rho

    def recording(n, budget, lane=None):
        calls.append(n)
        return rho(n, budget, lane)

    monkeypatch.setattr(arith, "_brent_rho", recording)
    p, q = 2**31 - 1, 2**61 - 1
    for k in (1, 2, 14):
        calls.clear()
        assert factor(p**k * q) == Factorization(1, ((p, k), (q, 1)))
        assert calls == [p**k * q]
    ms = [10_007**2 * 100_003, 10_009**2 * 10_007]
    monkeypatch.setattr(arith, "_RHO_HAND_OFF", 10**6)
    calls.clear()
    assert arith.split_cofactors(ms) == [[10_007, 100_003], [10_007, 10_009]]
    assert calls == ms
    calls.clear()
    for m in ms:
        factor(m)
    assert calls == ms


# ---------------------------------------------------------------------------
# Miller-Rabin in lockstep, against is_prime and sympy
# ---------------------------------------------------------------------------


def _are_prime_in_the_lanes(ns):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "_PRIME_HAND_OFF", 0)
        return arith._are_prime(ns)


_odd_lanes = st.integers(10**8 // 2, _kernels.LANES_BELOW // 2 - 1).map(lambda k: 2 * k + 1)


@given(
    st.lists(
        st.one_of(
            _odd_lanes,
            _odd_lanes.map(sympy.nextprime).filter(lambda q: q < _kernels.LANES_BELOW),
            st.tuples(st.integers(10**4, 10**6), st.integers(10**8, 10**9)).map(
                lambda pq: sympy.nextprime(pq[0]) * sympy.nextprime(pq[1])
            ),
        ),
        min_size=1,
        max_size=24,
    )
)
@settings(max_examples=200, deadline=None)
def test_are_prime_in_the_lanes_matches_is_prime_and_sympy(ns):
    assert _are_prime_in_the_lanes(ns) == [is_prime(n) for n in ns]
    assert [is_prime(n) for n in ns] == [sympy.isprime(n) for n in ns]


def _proth_prime(s):
    """The least prime k * 2**s + 1 with k odd, from about 10**8 up."""
    k = (10**8 >> s) | 1
    while not sympy.isprime(k * 2**s + 1):
        k += 2
    return k * 2**s + 1


_BELOW_LANES = [sympy.prevprime(_kernels.LANES_BELOW)]
for _ in range(4):
    _BELOW_LANES.append(sympy.prevprime(_BELOW_LANES[-1]))
_FIXED_LANES = (
    _PSI[:7]
    + [n for n in _CARMICHAEL if n < _kernels.LANES_BELOW]
    + [p * p for p in sympy.primerange(10**4, 10**4 + 100)]
    + [_proth_prime(s) for s in range(1, 45)]
    + [k * 2**45 + 1 for k in range(1, 32, 2)]  # no prime among them
    + _BELOW_LANES
    + [
        p * sympy.prevprime(_kernels.LANES_BELOW // p)
        for p in (10_007, 1_000_003, sympy.prevprime(2**25))
    ]
)


def _strong_pseudoprimes_to_base_2(ns):
    return [n for n in ns if not sympy.isprime(n) and _strong_probable_prime(n, 2)]


_TOP_OF_THE_LANES = (
    _chernick(9_550, 12)  # the first Chernick numbers above 2**50
    + _strong_pseudoprimes_to_base_2(_chernick(11_000, 40))
    + [p * p for p in sympy.primerange(2**28 - 2_000, 2**28)]
    + [sympy.prevprime(2**28) * sympy.nextprime(2**27 + k * 10**6) for k in range(4)]
    # primes and composites with long squaring chains
    + [k * 2**50 + 1 for k in range(3, 64, 2)]
    + [k * 2**51 + 1 for k in range(1, 32, 2)]
)


def test_are_prime_in_the_lanes_above_2_50():
    """On (2**50, 2**56) the lanes read the psi_9 row, nine bases:
    Chernick Carmichael numbers, some of them strong pseudoprimes to
    base 2, squares of primes near 2**28, semiprimes of two primes near
    2**27 and 2**28, and the odd k * 2**50 + 1 and k * 2**51 + 1, whose
    squaring chains are long."""
    ns = _TOP_OF_THE_LANES
    assert all(2**50 < n < _kernels.LANES_BELOW and n % 2 for n in ns)
    assert len(_strong_pseudoprimes_to_base_2(ns)) >= 2
    want = [sympy.isprime(n) for n in ns]
    assert _are_prime_in_the_lanes(ns) == want
    assert [is_prime(n) for n in ns] == want


def test_are_prime_in_the_lanes_on_fixed_lanes():
    """psi_1 to psi_7 (psi_7 falls to the ninth base only), Carmichael
    numbers, squares of primes, primes k * 2**s + 1 for s up to 44 and
    the odd k * 2**45 + 1 below 2**50, with long squaring chains, and
    primes and semiprimes just below LANES_BELOW, in one batch."""
    ns = _FIXED_LANES
    assert max(ns) < _kernels.LANES_BELOW and all(n % 2 for n in ns)
    want = [sympy.isprime(n) for n in ns]
    assert _are_prime_in_the_lanes(ns) == want
    assert [is_prime(n) for n in ns] == want
