"""Exact integer arithmetic: primality, factorization, and the reduction
of a factorization modulo p-th powers.

All of the counting machinery upstream (Kummer classes, ramified sets,
squarefree statistics) reduces to exact signed prime-power decompositions
produced here.  Factorization runs a trial stage over the primes up to
TRIAL_DIVISION_LIMIT, then a primality test, then Brent's variant of
Pollard rho under an iteration budget.  A budget overrun raises
UnfactoredResidualError; residuals are never reported as prime.

is_prime is a proof below psi_13 ~ 3.3e24 and a probable-prime test
above it:

  n < psi_6 = 3,474,749,660,383      Miller-Rabin to the first k prime
                                     bases, k from _MR_THRESHOLDS (the
                                     psi_k of Jaeschke, "On strong
                                     pseudoprimes to several bases", 1993)
  psi_6 <= n < 2**64                 Baillie-PSW: Miller-Rabin to base 2
                                     and a strong Lucas test with
                                     Selfridge's parameters (Baillie and
                                     Wagstaff, "Lucas pseudoprimes",
                                     1980).  Feitsma's list of the base-2
                                     strong pseudoprimes below 2**64 has
                                     no strong Lucas pseudoprime in it,
                                     so the test is exact there.
  2**64 <= n < psi_13                Miller-Rabin to the first 12 or 13
                                     prime bases (psi_12 and psi_13 by
                                     Sorenson and Webster, "Strong
                                     pseudoprimes to twelve prime bases",
                                     2017)
  psi_13 <= n                        Baillie-PSW; no counterexample is
                                     known

On primes, Baillie-PSW costs about as much as Miller-Rabin to 5 bases
near 1e11 and wins from 6 bases on (1.3x at 3e12, 1.5x at 1e13, 2x at
1e16), so is_prime takes it on the whole range from psi_6 to 2**64 and
reads the table's rows below psi_6 and above 2**64.

A batch of numbers below 2**56 is proven at once instead (_are_prime, for
split_cofactors), each number a lane of int64 arrays in numpy
(_kernels.strong_probable_primes), with Miller-Rabin to the bases of its
first row above it: the rows below psi_6 as is_prime reads them, the
first 7 prime bases on [psi_6, psi_7 = 341,550,071,728,321) and the
first 9 on [psi_7, 2**56), psi_9 ~ 3.8e18 being above 2**56.  Each row
is a proof, so every answer is is_prime's.  Base 2 runs on every lane,
then the other bases of the lanes that pass it run as one lane per
(number, base) pair.  A batch of fewer than _PRIME_HAND_OFF numbers, and
is_prime on a single number or one at or above 2**56, stay scalar.

The trial stage finds the distinct primes up to TRIAL_DIVISION_LIMIT
that divide m, in ascending order, one division per prime; each is then
divided out of m with its full exponent.  A caller that already knows m's
small primes passes them to factor as trial_primes and the stage is
skipped: the sieve finds them along the root progressions of a polynomial
(sieve.trial_root_table) for each of its nonzero values, together with
every prime of its linear factors' values up to SIEVE_LIMIT and every
prime of its content, and its squarefree residuals have none.
trial_primes are ascending distinct primes dividing m, and they include
every prime <= the limit that divides m; primes above the limit may be
listed too.  That is the caller's obligation, as primality of the
listed primes is the producer's for Factorization: a missing small prime
reaches _split and is recorded as a prime part, and a listed non-divisor
corrupts the cofactor.

Either way the cofactor left over is m with every prime <= the limit
removed, and possibly some larger primes too.  Every part of it that is
at most TRIAL_DIVISION_LIMIT**2 is therefore prime, since all its prime
factors exceed the limit, so it is recorded without a test (_split).
A listed large prime only shrinks the cofactor; when the list holds all
of m's primes, nothing reaches _split.

A caller holding many such cofactors at once (the squarefree sieve's
residuals, and each segment of values of a cyclic fiber stream or of
exact_order_prime_ratio, through sieve.value_prime_lists) decides them
all with split_cofactors, which gives each one a verdict: its primes, for
factor's trial_primes, or the UnfactoredResidualError that factor on it
would raise.  Cofactors below 2**56, the envelope of the kernels'
float-assisted mulmod, are split in the lanes.  Their primality is proven
in one batch (_are_prime), and the composites run Brent's rho together,
one lane of int64 arrays each (_kernels.brent_rho_lanes), on _brent_rho's
seeds and schedule: the lanes share the step counter, so a lane's steps,
gcds and spend are those of _brent_rho on it alone.  A lane whose gcd is
n, and every lane once fewer than _RHO_HAND_OFF are left, resumes in
_brent_rho from its (x, y, q, r, k) with its spend carried over, so the
backtrack and the retries stay there.  The parts of every split, the
factor d found and the cofactor with d's primes divided out to their full
powers, as _split_composite takes them, are then proven in one more
batch, and a composite part goes to _split's rho on a budget carrying
that spend, as in factor, so it is finished by the same rho calls factor
would make.  A cofactor at or above 2**56 is split by _split alone, as
factor splits it.  So a verdict is what factor would find, primes or
overrun, and no caller runs rho on a cofactor twice.
"""

from __future__ import annotations

import math
import random
import threading
from collections.abc import Sequence
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

# (psi, bases): Miller-Rabin to the first k prime bases proves n < psi
# prime, where psi = psi_k is the least strong pseudoprime to all of those
# bases (Jaeschke 1993; Sorenson and Webster 2017).  is_prime reads the
# rows below psi_6 and above 2**64, Baillie-PSW proving [psi_6, 2**64)
# (see the module docstring); the lanes of _are_prime read the rows up to
# psi_9, which lies above _kernels.LANES_BELOW.
_MR_THRESHOLDS = (
    (2_047, (2,)),
    (1_373_653, (2, 3)),
    (25_326_001, (2, 3, 5)),
    (3_215_031_751, (2, 3, 5, 7)),
    (2_152_302_898_747, (2, 3, 5, 7, 11)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318_665_857_834_031_151_167_461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (3_317_044_064_679_887_385_961_981, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)
# Baillie-PSW is a proof on [_BPSW_PROVEN_FROM, _BPSW_PROVEN_BELOW).
_BPSW_PROVEN_FROM = 3_474_749_660_383
_BPSW_PROVEN_BELOW = 2**64

# Rho's steps between two gcds (Brent's m).
_RHO_BLOCK = 128
# split_cofactors runs rho on its composites below _kernels.LANES_BELOW in
# lockstep, each a lane of _kernels.brent_rho_lanes, until fewer than
# _RHO_HAND_OFF lanes are left; then each resumes in _brent_rho, whose
# Python step is cheaper than a numpy step over that few lanes.  With one
# np.remainder per lane step and the buffers reused, 16, 24, 32 and 48
# split the residuals of x^3 + 2 at N = 3e4 in 0.136, 0.112, 0.114 and
# 0.116 s (64, 72, 79 and 88 scalar _brent_rho calls), and the batch of
# y^5 = x^4 + 3x + 7 at N = 5e3 in 0.145, 0.143, 0.143 and 0.150 s (92,
# 94, 101 and 120 calls): medians of 15 in-process rounds in rotating
# order, the quartiles of each overlapping the others' but 48's.
_RHO_HAND_OFF = 32
# The _MR_THRESHOLDS rows whose psi fits int64, for the lanes: every lane
# is below _kernels.LANES_BELOW < psi_9, the last of them.
_LANE_PSI = np.array([psi for psi, _ in _MR_THRESHOLDS if psi < 1 << 63], dtype=np.int64)
_LANE_BASE_COUNT = np.array([len(bases) for _, bases in _MR_THRESHOLDS[: _LANE_PSI.size]])
_LANE_BASES = np.array(_MR_THRESHOLDS[_LANE_PSI.size - 1][1], dtype=np.int64)
# _are_prime proves fewer numbers than this with scalar is_prime: the two
# kernel calls cost about 1.7-1.9 ms however few the lanes.  On batches of
# the residuals of x^3 + 2 (56% prime), scalar is_prime takes 1.3, 1.9,
# 2.0, 3.4 and 4.6 ms on 32, 48, 64, 96 and 128 of them, against 1.8,
# 1.9, 1.8, 1.7 and 2.5 ms in the lanes (medians of 7 alternating rounds).
_PRIME_HAND_OFF = 64

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


@dataclass(frozen=True, slots=True)
class Factorization:
    """Signed prime-power decomposition: sign * prod(p**e).

    Primes are strictly increasing and exponents >= 1; the factorization
    of +-1 is the empty product.  Factorization(sign, factors) checks the
    sign, the order and the exponents.  factor, _p_free and
    kummer._canonicalize produce their factors in that order by
    construction and go through ordered(), which skips the check: factor
    lists its trial primes in the order found (ascending from the trial
    stage; a caller's list that is not raises) or sorts the parts rho
    adds, and the other two reduce the exponents of an ordered
    factorization in place.  Primality of the listed primes is the
    producer's obligation (factor guarantees it); validate() re-checks.
    """

    sign: int
    factors: tuple[tuple[int, int], ...]

    @classmethod
    def ordered(cls, sign: int, factors: tuple[tuple[int, int], ...]) -> Factorization:
        """Factorization(sign, factors) without the check, for a producer
        whose sign is +-1 and whose primes are strictly increasing with
        exponents >= 1 by construction."""
        f = _new_object(cls)
        _set_sign(f, sign)
        _set_factors(f, factors)
        return f

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
            n *= p if e == 1 else p**e
        return n

    def support(self) -> frozenset[int]:
        return frozenset(p for p, _ in self.factors)

    def validate(self) -> None:
        """Re-run the primality part of the invariant (cheap checks run at init)."""
        for p, _ in self.factors:
            if not is_prime(p):
                raise DomainError("arith", f"listed factor {p} is not prime")


# Factorization.ordered sets the slots through their own descriptors, which
# object.__setattr__ would look up by name on every call.
_new_object = object.__new__
_set_sign = Factorization.sign.__set__
_set_factors = Factorization.factors.__set__


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
    """Deterministic below psi_13 ~ 3.3e24 (the ranges and their sources
    are in the module docstring): Miller-Rabin to the first k prime bases
    from _MR_THRESHOLDS below psi_6 ~ 3.47e12 (6 bases at most),
    Baillie-PSW from psi_6 to 2**64, Miller-Rabin to 12 or 13 bases from
    2**64 to psi_13.  Baillie-PSW above psi_13 (no counterexample is
    known)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if not _BPSW_PROVEN_FROM <= n < _BPSW_PROVEN_BELOW:
        for psi, bases in _MR_THRESHOLDS:
            if n < psi:
                return all(_miller_rabin_round(n, a, d, s) for a in bases)
    if not _miller_rabin_round(n, 2, d, s):
        return False
    return _strong_lucas_prp(n)


def _are_prime(ns: Sequence[int]) -> list[bool]:
    """[is_prime(n) for n in ns], for odd n with 37 < n < _kernels.LANES_BELOW.

    From _PRIME_HAND_OFF numbers on, Miller-Rabin runs in lockstep
    (_kernels.strong_probable_primes): base 2 on every lane, then the rest
    of each survivor's bases, from the first _MR_THRESHOLDS row above it,
    as one lane per (number, base) pair.  The rows are proofs, so each
    answer is is_prime's, Baillie-PSW's range [psi_6, 2**64) included."""
    if len(ns) < _PRIME_HAND_OFF:
        return [is_prime(n) for n in ns]
    n = np.array(ns, dtype=np.int64)
    prime = _kernels.strong_probable_primes(n, np.full_like(n, 2))
    live = np.flatnonzero(prime)
    count = _LANE_BASE_COUNT[np.searchsorted(_LANE_PSI, n[live], side="right")]
    per_base = [live[count > k] for k in range(1, _LANE_BASES.size)]
    lane = np.concatenate(per_base)
    base = np.repeat(_LANE_BASES[1:], [lanes.size for lanes in per_base])
    prime[lane[~_kernels.strong_probable_primes(n[lane], base)]] = False
    return prime.tolist()


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


def _prime_power_root(n: int, least_base: int) -> tuple[int, int] | None:
    """(b, k) with b**k == n (n >= 2) and k prime, if any, else None, for
    n all of whose roots are >= least_base: only prime exponents k with
    least_base**k <= n are tried."""
    for k in primes_up_to(n.bit_length()):
        if least_base**k > n:
            break
        b = introot(n, k)
        if b**k == n:
            return b, k
    return None


def _square_or_cube_roots(ms: Sequence[int]) -> list[tuple[int, int] | None]:
    """[_prime_power_root(m, TRIAL_DIVISION_LIMIT) for m in ms], on int64
    arrays, for m in (TRIAL_DIVISION_LIMIT**2, _kernels.LANES_BELOW = 2**56)
    with no prime factor up to TRIAL_DIVISION_LIMIT.  The only prime
    exponents such an m can have are 2 and 3, as TRIAL_DIVISION_LIMIT**5 >
    2**56 (a fourth power is a square).  From 2**53 on, m itself is not
    exact as a float, but a square's float sqrt still is its root: for
    m = s**2, float(m) is s**2 (1 + d) with |d| <= 2**-53, so
    sqrt(float(m)) is within s * 2**-54 < 2**-26 of s, and the correctly
    rounded sqrt rounds to s.  cbrt is not correctly rounded, so the
    rounded cube root and its neighbours are all cubed, exactly in int64.
    The square is taken last, since _prime_power_root tries k = 2 first."""
    a = np.array(ms, dtype=np.int64)
    f = a.astype(np.float64)
    cube = np.rint(np.cbrt(f)).astype(np.int64)
    square = np.rint(np.sqrt(f)).astype(np.int64)
    roots: list[tuple[int, int] | None] = [None] * len(ms)
    for r, k in ((cube - 1, 3), (cube, 3), (cube + 1, 3), (square, 2)):
        hit = np.flatnonzero(r**k == a)
        for i, b in zip(hit.tolist(), r[hit].tolist()):
            roots[i] = (b, k)
    return roots


class _Budget:
    __slots__ = ("left", "total")

    def __init__(self, total: int):
        self.left = total
        self.total = total

    def spend(self, amount: int, residual: int) -> None:
        self.left -= amount
        if self.left < 0:
            raise UnfactoredResidualError(residual, self.total)


def _brent_rho(n: int, budget: _Budget, lane: _kernels.RhoLane | None = None) -> int:
    """A nontrivial factor of odd composite n, Brent cycle detection.

    Seeded deterministically from n so repeated runs factor identically.
    Round r sets x to y and moves y r steps; blocks of _RHO_BLOCK steps
    then multiply |x - y| into q, each ending with gcd(q, n).  lane, from
    _kernels.brent_rho_lanes, resumes the first (y, c) at the start of a
    block, (x, y, q, r, k), its steps already spent from budget.
    """
    rng = random.Random(n)
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        if lane is None:
            x, q, r, k = y, 1, 1, 0
            y = (y * y + c) % n  # round 1
            budget.spend(1, n)
        else:
            x, y, q, r, k = lane
            lane = None
        g = 1
        while g == 1:
            ys = y
            steps = min(_RHO_BLOCK, r - k)
            for _ in range(steps):
                y = (y * y + c) % n
                q = q * (x - y) % n
            budget.spend(steps, n)
            g = math.gcd(q, n)
            k += _RHO_BLOCK
            if g == 1 and k >= r:
                x, r, k = y, 2 * r, 0
                for _ in range(r):
                    y = (y * y + c) % n
                budget.spend(r, n)
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                budget.spend(1, n)
                g = math.gcd(x - ys, n)
        if g != n:
            return g
        # unlucky parameter choice; retry with fresh (y, c)


def _split(m: int, counts: dict[int, int], mult: int, budget: _Budget) -> None:
    """Accumulate the prime factorization of m (> 1) into counts.

    m has no prime factor up to TRIAL_DIVISION_LIMIT, and neither has any
    part of it split off below.  So a part at most TRIAL_DIVISION_LIMIT**2
    is prime without a test: a composite one would be at least the square
    of a prime above the limit."""
    if m <= TRIAL_DIVISION_LIMIT * TRIAL_DIVISION_LIMIT or is_prime(m):
        counts[m] = counts.get(m, 0) + mult
        return
    _split_composite(m, counts, mult, budget)


def _split_composite(m: int, counts: dict[int, int], mult: int, budget: _Budget) -> None:
    """_split for an m already known to be composite.

    After rho finds a factor d, each prime of d is divided out of m to its
    full power before the rest is split, so a prime repeated in m costs
    one rho run, not one per copy."""
    # Every prime factor of m exceeds the trial limit, so does any root.
    power = _prime_power_root(m, TRIAL_DIVISION_LIMIT)
    if power is not None:
        b, k = power
        _split(b, counts, mult * k, budget)
        return
    d = _brent_rho(m, budget)
    found: dict[int, int] = {}
    _split(d, found, 1, budget)
    for p in found:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        counts[p] = counts.get(p, 0) + mult * e
    if m > 1:
        _split(m, counts, mult, budget)


def _budget_total(budget: int | None) -> int:
    if budget is None:
        return DEFAULT_FACTOR_BUDGET
    if budget < 1:
        raise DomainError("arith", f"factor budget must be positive, got {budget}")
    return budget


def split_cofactors(
    ms: Sequence[int], budget: int | None = None
) -> list[list[int] | UnfactoredResidualError]:
    """For each m (> 1, with no prime factor up to TRIAL_DIVISION_LIMIT,
    as _split takes it), its verdict: the ascending distinct primes of m,
    or the UnfactoredResidualError that factor(m, budget) raises, naming
    the same residual and budget.

    A cofactor at or above _kernels.LANES_BELOW is split by _split alone,
    on a budget of its own.  The rest take _split's checks: the T**2 rule,
    primality for the whole batch at once (_are_prime), and
    _prime_power_root, for all of the batch's composites at once too
    (_square_or_cube_roots).  The composites then run Brent's rho together
    (_kernels.brent_rho_lanes), from the seeds and on the schedule of
    _brent_rho, the last lanes and those whose gcd is n finishing in
    _brent_rho itself.  The parts of every split (the factor d, then the
    rest with d's primes divided out, as in _split_composite), and the
    base of every prime power, are proven prime in one more batch, and
    each composite part is finished as _split finishes it
    (_split_composite), on a _Budget that carries the spend so far.  So
    the rho calls, their seeds and the budget are those of
    factor(m, budget), and factor(m, budget, trial_primes=primes) gives
    the same Factorization.
    """
    total = _budget_total(budget)
    small = TRIAL_DIVISION_LIMIT * TRIAL_DIVISION_LIMIT
    verdicts: list = [None] * len(ms)
    tested = []
    for i, m in enumerate(ms):
        if m <= small:
            verdicts[i] = [m]
        elif m < _kernels.LANES_BELOW:
            tested.append(i)
        else:
            counts: dict[int, int] = {}
            try:
                _split(m, counts, 1, _Budget(total))
                verdicts[i] = sorted(counts)
            except UnfactoredResidualError as err:
                verdicts[i] = err
    # (index, parts, rho steps spent) of each cofactor left to finish
    splits: list[tuple[int, tuple[int, ...], int]] = []
    composite = []
    unproven = []
    for i, prime in zip(tested, _are_prime([ms[i] for i in tested])):
        if prime:
            verdicts[i] = [ms[i]]
        else:
            unproven.append(i)
    for i, power in zip(unproven, _square_or_cube_roots([ms[i] for i in unproven])):
        if power is not None:
            splits.append((i, (power[0],), 0))
        else:
            composite.append(i)
    ns = [ms[i] for i in composite]
    ys, cs = [], []
    for n in ns:  # one generator at a time: each holds a 2.5 KB state
        rng = random.Random(n)
        ys.append(rng.randrange(1, n))
        cs.append(rng.randrange(1, n))
    found, spent, lanes = _kernels.brent_rho_lanes(ns, ys, cs, total, _RHO_BLOCK, _RHO_HAND_OFF)
    for i, n, d, s, lane in zip(composite, ns, found, spent, lanes):
        if lane is not None:
            rho_budget = _Budget(total)
            try:
                rho_budget.spend(s, n)
                d = _brent_rho(n, rho_budget, lane)
            except UnfactoredResidualError as err:
                verdicts[i] = err
                continue
            s = total - rho_budget.left
        elif not d:
            verdicts[i] = UnfactoredResidualError(n, total)  # where _brent_rho overruns
            continue
        rest = n // d  # then d's primes to their full powers, as _split_composite
        while (g := math.gcd(rest, d)) > 1:
            rest //= g
        splits.append((i, (d, rest) if rest > 1 else (d,), s))
    parts = list({p for _, ps, _ in splits for p in ps if p > small})
    proven = {p for p, prime in zip(parts, _are_prime(parts)) if prime}
    for i, ps, steps in splits:
        part_budget = _Budget(total)
        counts = {}
        try:
            part_budget.spend(steps, ms[i])
            for p in ps:
                if p <= small or p in proven:
                    counts[p] = 1
                else:
                    _split_composite(p, counts, 1, part_budget)
        except UnfactoredResidualError as err:
            verdicts[i] = err
            continue
        verdicts[i] = sorted(counts)
    return verdicts


def factor(
    n: int,
    budget: int | None = None,
    trial_primes: Sequence[int] | None = None,
) -> Factorization:
    """Complete signed prime factorization of a nonzero integer.

    budget (None for DEFAULT_FACTOR_BUDGET, else >= 1) bounds the number
    of rho iterations spent on hard cofactors; running out raises
    UnfactoredResidualError naming the residual.  trial_primes, when
    given, are ascending distinct primes dividing n that include every
    prime <= TRIAL_DIVISION_LIMIT dividing n (the caller's obligation, see
    the module docstring), and the trial stage is skipped.  A list that is
    not strictly ascending raises DomainError.  What is left after
    dividing them out has no prime factor up to the limit, so _split's
    T**2 rule still holds for it.
    """
    if n == 0:
        raise DomainError("arith", "factor(0) is undefined")
    sign = 1 if n > 0 else -1
    m = abs(n)
    if trial_primes is None:
        trial_primes = [p for p in primes_up_to(TRIAL_DIVISION_LIMIT) if m % p == 0]
    factors = []
    last = 1
    for p in trial_primes:
        if p <= last:
            raise DomainError("arith", "trial primes must be strictly increasing")
        last = p
        m //= p
        e = 1
        while m % p == 0:
            m //= p
            e += 1
        factors.append((p, e))
    if m > 1:
        counts = dict(factors)
        _split(m, counts, 1, _Budget(_budget_total(budget)))
        factors = sorted(counts.items())
    elif budget is not None:
        _budget_total(budget)  # no rho runs, but a bad budget still raises
    return Factorization.ordered(sign, tuple(factors))


def _p_free(f: Factorization, p: int) -> Factorization:
    """The canonical representative in Q*/(Q*)^p of the number f factors,
    for p already proven prime: exponents reduced into [1, p-1], the sign
    kept for p = 2 and absorbed for odd p (-1 is then a p-th power).  f
    itself when it is reduced already: every exponent below p, and the
    sign kept (p = 2, or f positive)."""
    factors = f.factors
    if p == 2:
        for _, e in factors:
            if e > 1:
                return Factorization.ordered(
                    f.sign, tuple([(q, 1) for q, e in factors if e & 1])
                )
        return f
    for _, e in factors:
        if e >= p:
            return Factorization.ordered(1, tuple([(q, e % p) for q, e in factors if e % p]))
    return f if f.sign == 1 else Factorization.ordered(1, factors)
