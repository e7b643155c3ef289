import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberfields import arith
from fiberfields.arith import (
    Factorization,
    exact_order_primes,
    factor,
    is_prime,
    p_free_kernel,
    squarefree_kernel,
    valuation,
)
from fiberfields.errors import DomainError, UnfactoredResidualError

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


def test_is_prime_small_and_carmichael():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(561)  # Carmichael
    assert not is_prime(2**32 + 1)
    assert is_prime(2**61 - 1)


def test_valuation_examples():
    assert valuation(12, 2) == 2
    assert valuation(7, 2) == 0
    assert valuation(-8, 2) == 3


def test_valuation_rejects_composite_and_zero():
    with pytest.raises(DomainError):
        valuation(12, 4)
    with pytest.raises(DomainError):
        valuation(0, 2)


@given(st.integers(min_value=-10**6, max_value=10**6).filter(lambda n: n),
       st.integers(min_value=-10**6, max_value=10**6).filter(lambda n: n),
       st.sampled_from([2, 3, 5, 7]))
@settings(max_examples=100, deadline=None)
def test_valuation_multiplicative(a, b, p):
    assert valuation(a * b, p) == valuation(a, p) + valuation(b, p)


def test_squarefree_kernel_examples():
    assert squarefree_kernel(12) == 3
    assert squarefree_kernel(1) == 1
    assert squarefree_kernel(-18) == -2
    assert squarefree_kernel(12) == oracle_squarefree_kernel(12)


@given(nonzero_ints, st.integers(min_value=1, max_value=300))
@settings(max_examples=100, deadline=None)
def test_squarefree_kernel_square_invariance(n, k):
    assert squarefree_kernel(n * k * k) == squarefree_kernel(n)


def test_p_free_kernel_examples():
    assert p_free_kernel(8, 3) == Factorization(1, ())
    assert p_free_kernel(12, 3) == Factorization(1, ((2, 2), (3, 1)))
    assert p_free_kernel(-4, 2) == Factorization(-1, ())
    assert p_free_kernel(-8, 3) == Factorization(1, ())  # sign absorbed for odd p


@given(nonzero_ints, st.integers(min_value=1, max_value=40), st.sampled_from([2, 3, 5]))
@settings(max_examples=100, deadline=None)
def test_p_free_kernel_pth_power_invariance(n, k, p):
    assert p_free_kernel(n * k**p, p) == p_free_kernel(n, p)


@given(nonzero_ints)
@settings(max_examples=100, deadline=None)
def test_squarefree_kernel_is_2_free_kernel(n):
    assert squarefree_kernel(n) == p_free_kernel(n, 2).reconstruct()
    assert squarefree_kernel(n) == oracle_p_free_value(n, 2)


def test_p_free_kernel_exponent_range():
    f = p_free_kernel(2**9 * 3**5 * 5, 5)
    assert all(1 <= e <= 4 for _, e in f.factors)
    assert f == Factorization(1, ((2, 4), (5, 1)))


def test_exact_order_primes_examples():
    assert exact_order_primes(12, 2) == {3}
    assert exact_order_primes(4, 2) == set()
    assert exact_order_primes(30, 3) == {3, 5}


def test_introot_and_perfect_power():
    assert arith.introot(10**12, 2) == 10**6
    assert arith.introot(2**60 - 1, 3) == 2**20 - 1
    b, k = arith.perfect_power(2**10)
    assert b**k == 2**10 and oracle_is_prime(k)
    assert arith.perfect_power(3**5) == (3, 5)
    assert arith.perfect_power(60) is None


def test_factorization_invariants_enforced():
    with pytest.raises(DomainError):
        Factorization(1, ((3, 1), (2, 1)))  # out of order
    with pytest.raises(DomainError):
        Factorization(1, ((2, 0),))  # exponent < 1
    with pytest.raises(DomainError):
        Factorization(2, ())  # bad sign
