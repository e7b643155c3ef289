"""Exact integer arithmetic: primality, factorization, valuations, and
multiplicative kernels modulo perfect powers.

All of the counting machinery upstream (Kummer classes, ramified sets,
squarefree statistics) reduces to exact signed prime-power decompositions
produced here.  Factorization runs trial division against a shared prime
sieve, then a deterministic Miller-Rabin / strong-Lucas primality test,
then Brent's variant of Pollard rho under an iteration budget.  A budget
overrun raises UnfactoredResidualError; residuals are never reported as
prime.
"""

from __future__ import annotations

import math
import random
import threading
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainError, UnfactoredResidualError

# Primes below this bound are sieved once and shared, read-only afterwards.
SIEVE_LIMIT = 1_000_000
# Trial division hands off to rho beyond this point; rho splits mid-size
# composites far faster than walking the rest of the sieve.
TRIAL_DIVISION_LIMIT = 10_000
DEFAULT_FACTOR_BUDGET = 2_000_000

# Deterministic Miller-Rabin is a proof below this bound (12 prime bases).
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_sieve_lock = threading.Lock()
_prime_cache: dict[int, list[int]] = {}


def primes_up_to(limit: int) -> list[int]:
    """Ascending primes <= limit, cached per limit (shared, read-only)."""
    if limit < 2:
        return []
    with _sieve_lock:
        cached = _prime_cache.get(limit)
        if cached is None:
            flags = _kernels.prime_flags(limit)
            cached = np.nonzero(flags)[0].tolist()
            _prime_cache[limit] = cached
        return cached


def _trial_primes() -> list[int]:
    return primes_up_to(TRIAL_DIVISION_LIMIT)


@dataclass(frozen=True)
class Factorization:
    """Signed prime-power decomposition: sign * prod(p**e).

    Primes are strictly increasing and exponents >= 1; the factorization
    of +-1 is the empty product.  Primality of the listed primes is the
    producer's obligation (factor guarantees it); validate() re-checks.
    """

    sign: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise DomainError("arith", f"sign must be +-1, got {self.sign}")
        last = 1
        for p, e in self.factors:
            if p <= last:
                raise DomainError("arith", "primes must be strictly increasing")
            if e < 1:
                raise DomainError("arith", f"exponent {e} < 1 for prime {p}")
            last = p

    def reconstruct(self) -> int:
        n = self.sign
        for p, e in self.factors:
            n *= p**e
        return n

    def support(self) -> frozenset[int]:
        return frozenset(p for p, _ in self.factors)

    def validate(self) -> None:
        """Re-run the primality part of the invariant (cheap checks run at init)."""
        for p, _ in self.factors:
            if not is_prime(p):
                raise DomainError("arith", f"listed factor {p} is not prime")


def _miller_rabin_round(n: int, a: int, d: int, s: int) -> bool:
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_prp(n: int) -> bool:
    # Selfridge parameter search: D = 5, -7, 9, ... with (D|n) = -1.
    d = 5
    while True:
        j = _jacobi(d, n)
        if j == -1:
            break
        if j == 0 and abs(d) != n:
            return False
        if d == 13 and math.isqrt(n) ** 2 == n:
            return False
        d = -(d + 2) if d > 0 else -(d - 2)
    q = (1 - d) // 4
    # n + 1 = k * 2**s, k odd
    k, s = n + 1, 0
    while k % 2 == 0:
        k //= 2
        s += 1
    u, v, qk = 1, 1, q % n
    for bit in bin(k)[3:]:
        u = u * v % n
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = (u + v) % n, (v + d * u) % n
            if u % 2:
                u += n
            if v % 2:
                v += n
            u, v = u // 2 % n, v // 2 % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


def is_prime(n: int) -> bool:
    """Deterministic for n below the 12-base Miller-Rabin bound (~3.3e24);
    Baillie-PSW above it (no counterexample is known)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n < _MR_DETERMINISTIC_BOUND:
        return all(_miller_rabin_round(n, a, d, s) for a in _MR_BASES)
    if not _miller_rabin_round(n, 2, d, s):
        return False
    return _strong_lucas_prp(n)


def introot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0."""
    if n < 0:
        raise DomainError("arith", "introot requires n >= 0")
    if k == 1 or n in (0, 1):
        return n
    if k == 2:
        return math.isqrt(n)
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x**k > n:
        x -= 1
    return x


def perfect_power(n: int) -> tuple[int, int] | None:
    """(b, k) with b**k == n and k prime, if any; None otherwise.  n >= 2."""
    for k in primes_up_to(n.bit_length()):
        b = introot(n, k)
        if b >= 2 and b**k == n:
            return b, k
    return None


class _Budget:
    __slots__ = ("left", "total")

    def __init__(self, total: int):
        self.left = total
        self.total = total

    def spend(self, amount: int, residual: int) -> None:
        self.left -= amount
        if self.left < 0:
            raise UnfactoredResidualError(residual, self.total)


def _brent_rho(n: int, budget: _Budget) -> int:
    """A nontrivial factor of odd composite n, Brent cycle detection.

    Seeded deterministically from n so repeated runs factor identically.
    """
    rng = random.Random(n)
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            budget.spend(r, n)
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                budget.spend(min(m, r - k), n)
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                budget.spend(1, n)
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        # unlucky parameter choice; retry with fresh (y, c)


def _split(m: int, counts: dict[int, int], mult: int, budget: _Budget) -> None:
    """Accumulate the prime factorization of m (> 1, no small factors) into counts."""
    if is_prime(m):
        counts[m] = counts.get(m, 0) + mult
        return
    power = perfect_power(m)
    if power is not None:
        b, k = power
        _split(b, counts, mult * k, budget)
        return
    d = _brent_rho(m, budget)
    _split(d, counts, mult, budget)
    _split(m // d, counts, mult, budget)


def factor(n: int, budget: int | None = None) -> Factorization:
    """Complete signed prime factorization of a nonzero integer.

    budget (None for DEFAULT_FACTOR_BUDGET, else >= 1) bounds the number
    of rho iterations spent on hard cofactors; running out raises
    UnfactoredResidualError naming the residual.
    """
    if n == 0:
        raise DomainError("arith", "factor(0) is undefined")
    if budget is None:
        budget = DEFAULT_FACTOR_BUDGET
    elif budget < 1:
        raise DomainError("arith", f"factor budget must be positive, got {budget}")
    sign = 1 if n > 0 else -1
    m = abs(n)
    counts: dict[int, int] = {}
    for p in _trial_primes():
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            counts[p] = e
    if m > 1:
        if m <= TRIAL_DIVISION_LIMIT * TRIAL_DIVISION_LIMIT:
            counts[m] = counts.get(m, 0) + 1  # below the trial bound squared: prime
        else:
            _split(m, counts, 1, _Budget(budget))
    return Factorization(sign, tuple(sorted(counts.items())))


def valuation(n: int, p: int) -> int:
    """Largest e with p**e dividing n (n nonzero, p prime)."""
    if n == 0:
        raise DomainError("arith", "valuation of 0 is undefined")
    if p < 2 or not is_prime(p):
        raise DomainError("arith", f"valuation requires a prime, got {p}")
    e = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        e += 1
    return e


def squarefree_kernel(n: int, budget: int | None = None) -> int:
    """sign(n) times the product of primes appearing to odd exponent in n.

    The output is squarefree and n divided by it is a perfect square.
    """
    f = factor(n, budget)
    k = f.sign
    for p, e in f.factors:
        if e % 2:
            k *= p
    return k


def p_free_kernel(n: int, p: int, budget: int | None = None) -> Factorization:
    """Canonical representative of n in Q*/(Q*)^p: exponents reduced into
    [1, p-1].  The sign is retained for p = 2 and absorbed for odd p
    (-1 is then a p-th power)."""
    if not is_prime(p):
        raise DomainError("arith", f"p_free_kernel requires a prime, got {p}")
    f = factor(n, budget)
    reduced = tuple((q, e % p) for q, e in f.factors if e % p != 0)
    sign = f.sign if p == 2 else 1
    return Factorization(sign, reduced)


def exact_order_primes(n: int, min_prime: int, budget: int | None = None) -> set[int]:
    """Primes q >= min_prime with valuation(n, q) exactly 1."""
    f = factor(n, budget)
    return {q for q, e in f.factors if e == 1 and q >= min_prime}
