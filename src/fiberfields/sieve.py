"""Squarefree-value statistics for integer polynomial sequences.

squarefree_value_count marks every n <= N whose value h(n) has
v_q(h(n)) <= 1 for all primes q outside the fixed-square set (primes whose
square divides every value; the finite obstruction that gets divided out
rather than counted against h).  The scan is exact:

  1. primes q <= T are divided out of every value along the root
     progressions of h mod q, segmented, by one array scan: int64 arrays
     when every |h(n)| fits the int64 envelope, object arrays of Python
     ints otherwise,
  2. the surviving cofactor has all prime factors > T, so below T**3 a
     perfect-square test decides squarefreeness, and
  3. the rare cofactors >= T**3 are fully factored (budgeted).

euler_density gives the truncated prediction prod (1 - rho(p^2)/p^2) as an
exact fraction, and exact_order_prime_ratio counts the large primes
dividing some early value exactly once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels, arith, polyring
from .errors import BudgetError, DomainError, UnfactoredResidualError
from .polyring import IntPoly

_SIEVE_PRIME_CAP = 10_000
_SEGMENT = 1 << 20
DEFAULT_EULER_BOUND = 1_000


@dataclass(frozen=True)
class SieveReport:
    h: IntPoly
    N: int
    fixed_square_primes: tuple[int, ...]
    count: int
    euler_product: Fraction
    euler_bound: int
    residuals_factored: int
    flags: bytes  # flags[n-1] = 1 when h(n) passes the squarefree condition

    @property
    def empirical_density(self) -> float:
        return self.count / self.N

    @property
    def euler_value(self) -> float:
        return float(self.euler_product)


def _coefficient_bound(h: IntPoly, N: int) -> int:
    return sum(abs(c) * N**i for i, c in enumerate(h.coeffs))


def fixed_square_primes(h: IntPoly) -> tuple[int, ...]:
    """Primes p with p**2 dividing h(n) for every integer n.

    Any such p divides the content or is at most deg h: otherwise h mod p
    is a nonzero polynomial of degree < p, so it cannot vanish at every
    residue.  Only those candidates are tried, each confirmed by an exact
    root count mod p**2.
    """
    candidates = set(arith.primes_up_to(h.degree))
    content = h.content()
    if abs(content) > 1:
        candidates |= arith.factor(content).support()
    fixed = [
        p
        for p in sorted(candidates)
        if polyring.root_count_mod_prime_power(h, p, 2) == p * p
    ]
    return tuple(fixed)


def _divide_out(values, p):
    """Divide the full p-part out of every entry of a value array."""
    mask = (values != 0) & (values % p == 0)
    while np.any(mask):
        np.floor_divide(values, p, out=values, where=mask)
        mask = mask & (values % p == 0)


def _scan(h, n0, count, primes, fixed, big_fixed, dtype):
    coeffs = np.array(h.coeffs, dtype=dtype)
    values = _kernels.eval_poly_range(coeffs, n0, count)
    np.absolute(values, out=values)
    flags = values != 0
    for p in big_fixed:
        _divide_out(values, p)
    _kernels.squarefree_scan(
        coeffs,
        n0,
        values,
        flags,
        np.array(primes, dtype=np.int64),
        np.array(fixed, dtype=np.int64),
    )
    return values.tolist(), flags


def squarefree_value_count(
    h: IntPoly,
    N: int,
    budget: int | None = None,
    euler_bound: int = DEFAULT_EULER_BOUND,
) -> SieveReport:
    """Exact count of n <= N with h(n) squarefree away from the fixed set."""
    if h.degree < 1:
        raise DomainError("sieve", "squarefree_value_count needs a non-constant polynomial")
    if N < 1:
        raise DomainError("sieve", "N >= 1 required")
    fixed = fixed_square_primes(h)
    bound = _coefficient_bound(h, N)
    T = max(37, min(_SIEVE_PRIME_CAP, arith.introot(bound, 3) + 1))
    primes = [q for q in arith.primes_up_to(T)]
    small_fixed = [p for p in fixed if p <= T]
    big_fixed = [p for p in fixed if p > T]
    # bound also caps every coefficient and every Horner partial sum
    dtype = np.int64 if bound < (1 << 62) else object

    flags_all = bytearray()
    residuals = 0
    bad: list[int] = []
    t2, t3 = T * T, T * T * T
    for n0 in range(1, N + 1, _SEGMENT):
        seg = min(_SEGMENT, N + 1 - n0)
        cofactors, flags = _scan(h, n0, seg, primes, small_fixed, big_fixed, dtype)
        for i, c in enumerate(cofactors):
            if not flags[i] or c <= 1 or c < t2:
                continue  # 1 or a prime: squarefree either way
            s = math.isqrt(c)
            if s * s == c:
                flags[i] = False
            elif c >= t3:
                residuals += 1
                try:
                    fact = arith.factor(c, budget)
                except UnfactoredResidualError:
                    bad.append(n0 + i)
                    continue
                if any(e >= 2 for _, e in fact.factors):
                    flags[i] = False
        flags_all.extend(flags.astype(np.uint8).tobytes())
    if bad:
        raise BudgetError(
            "sieve",
            "factorization budget exceeded on residual values at n = "
            + ", ".join(map(str, bad[:20]))
            + ("..." if len(bad) > 20 else ""),
        )
    count = sum(flags_all)
    return SieveReport(
        h=h,
        N=N,
        fixed_square_primes=fixed,
        count=count,
        euler_product=euler_density(h, euler_bound),
        euler_bound=euler_bound,
        residuals_factored=residuals,
        flags=bytes(flags_all),
    )


def euler_density(h: IntPoly, prime_bound: int) -> Fraction:
    """Truncated prediction prod_{p <= B, p not fixed} (1 - rho_h(p^2)/p^2),
    with rho the exact root count mod p^2, taken for the radical of h (h
    itself when h is separable).  A prime is fixed for the radical exactly
    when rho = p^2, so the fixed primes are skipped by that test."""
    if h.degree < 1:
        raise DomainError("sieve", "euler_density needs a non-constant polynomial")
    h = polyring.radical(h)
    out = Fraction(1)
    for p in arith.primes_up_to(prime_bound):
        rho = polyring.root_count_mod_prime_power(h, p, 2)
        if 0 < rho < p * p:
            out *= Fraction(p * p - rho, p * p)
    return out


def exact_order_prime_ratio(
    g: IntPoly, n: int, budget: int | None = None
) -> tuple[int, Fraction]:
    """Count of primes q >= n with v_q(g(m)) = 1 for some m <= n, and the
    ratio count/n.  Requires g irreducible over Q of degree >= 2."""
    if n < 1:
        raise DomainError("sieve", "n >= 1 required")
    if g.degree < 2:
        raise DomainError(
            "sieve",
            "exact_order_prime_ratio needs degree >= 2 (hypothesis violated: "
            f"deg g = {g.degree})",
        )
    fact = polyring.factor_over_Q(g)
    if len(fact.factors) != 1 or fact.factors[0][1] != 1:
        raise DomainError(
            "sieve",
            "exact_order_prime_ratio needs an irreducible polynomial "
            "(hypothesis violated: g factors over Q)",
        )
    hits: set[int] = set()
    for m in range(1, n + 1):
        value = g(m)
        if value == 0:
            continue
        hits |= arith.exact_order_primes(value, n, budget)
    return len(hits), Fraction(len(hits), n)
