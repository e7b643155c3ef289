"""Squarefree-value statistics for integer polynomial sequences, and the
trial primes of polynomial values by root progressions.

squarefree_value_count marks every n <= N whose value h(n) has
v_q(h(n)) <= 1 for all primes q outside the fixed-square set (primes whose
square divides every value; the finite obstruction that gets divided out
rather than counted against h).  The scan is exact:

  1. primes q <= T are divided out of every value along the root
     progressions of h mod q, segmented, in one pass over arrays
     (_kernels.squarefree_scan): the roots mod every q come from one
     batched root table (_kernels.poly_roots_table), every (q, root)
     progression's hits are numbered in one flat sequence and taken in
     blocks of int64 positions, and each hit's q-part is found and
     divided out as an array.  The values are int64 arrays when every
     |h(n)| fits the int64 envelope, object arrays of Python ints
     otherwise, through the same code,
  2. the surviving cofactor has all prime factors > T, so below T**3 a
     perfect-square test decides squarefreeness: on the int64 cofactors
     as one array, by a float sqrt, which is exact on squares, and by
     math.isqrt on object ones (_squares_and_residuals), and
  3. the rare cofactors >= T**3 are fully factored (budgeted); T is then
     arith.TRIAL_DIVISION_LIMIT, so they have no trial prime.  A
     segment's residuals are decided together (arith.split_cofactors:
     one lockstep primality proof over those below 2**56, one lockstep
     rho over the composites among them, whose lane step is one fused
     reduction, and scalar rho on those at or above 2**56).  Each
     residual the batch factored goes to arith.factor once with its
     primes, so arith.factor skips its trial stage; one past the budget
     is named in the BudgetError, and rho never runs on it again.

The same progressions give the cyclic fibers their trial primes (line
sieving; Pomerance, "A tale of two sieves", 1996).  A prime q divides g(n)
exactly when n mod q is a root of g mod q.  trial_root_table finds those
roots once per pass, from g's factorization over Q, which its caller
owns (the cover's, or exact_order_prime_ratio's), by one rule per
irreducible factor f: f lists the primes up to a bound on |f(n)|, n <= N
(a larger prime divides no nonzero value of f), capped at
arith.TRIAL_DIVISION_LIMIT for a nonlinear f, whose roots come from one
batched root table, the kernel the scan reads too, and at
arith.SIEVE_LIMIT for a linear b*x + c, whose root is -c/b mod q.  The
primes come from arith.primes_up_to, the one table of primes.  Each
prime of g's content divides every value and gets a row of its own.
trial_prime_lists walks the progressions over a segment of n, so
arith.factor receives each nonzero g(n)'s trial primes instead of
finding them by gcds; a zero value is a branch fiber, and nothing reads
its list.  When g is a content times linear factors whose values stay
below arith.SIEVE_LIMIT, the lists hold every prime of g(n) and nothing
is left for rho; the table then says it is complete.

value_prime_lists is the one way a pass over g(1..N) gets its values'
primes, for the cyclic fiber stream (diversity) and for
exact_order_prime_ratio, each handing it the factorization of g it
already has: one table, and window by window (segment_prime_lists) the
trial lists and, unless the table is complete, the primes of each
value's cofactor, split together by the batch split of step 3.

The root count of h mod p^2 has one routine, _square_root_counts: one
batched root table over the primes, and the Hensel lifts of those roots
mod p^2.  euler_density reads it for the truncated prediction
prod (1 - rho(p^2)/p^2), an exact fraction, and fixed_square_primes for
the primes p <= deg h, fixed when rho(p^2) = p^2.  exact_order_prime_ratio
counts the large primes dividing some early value exactly once, from the
lists value_prime_lists gives.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels, arith, polyring
from .errors import BudgetError, DomainError, UnfactoredResidualError
from .polyring import IntPoly, IrreducibleFactorization

# Residual cofactors have no prime factor up to this cap, which is what lets
# arith.split_cofactors decide them and arith.factor skip its trial stage.
_SIEVE_PRIME_CAP = arith.TRIAL_DIVISION_LIMIT
_SEGMENT = 1 << 20
# The most values per window of value_prime_lists, one segment_prime_lists
# call (see window_size).  Each call splits its cofactors in one lockstep
# rho (arith.split_cofactors), and every lockstep rho runs about the same
# number of steps, each a fixed number of numpy calls, whatever its width,
# until fewer than arith._RHO_HAND_OFF lanes are left.  y^5 = x^4 + 3x + 7
# at N = 5,000 ran 3,454 steps on 987 lanes and 3,070 on 301 at 4,096 (the
# split 0.15-0.23 s, 158 scalar _brent_rho calls), and runs 3,838 on 1,288
# at 16,384 (0.12-0.16 s, 120 calls).  The lists of a window are live at
# once (2.3 MB for 16,384 values of x^3 - x, 0.56 MB for 4,096), and each
# window walks every root progression (5,133 rows for x^3 - x at N = 5e4,
# most of them linear rows of primes above the window, which cost a step
# per root and window).
LIST_SEGMENT = 16384
DEFAULT_EULER_BOUND = 1_000


def window_size(N: int) -> int:
    """Values per window over 1..N: the fewest windows of at most
    LIST_SEGMENT values, each of this size but the last, which is no
    larger.  So the rho tail is paid as few times as it can be, and the
    lists of a window, all live at once, are as few as that allows
    (y^2 = x^3 - x at N = 5e4: four windows of 12,500, not three of
    16,384 and one of 848)."""
    return -(-N // -(-N // LIST_SEGMENT))


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


@dataclass(frozen=True)
class TrialRootTable:
    """The trial root table of g over n <= N."""

    # (q, the roots r in [0, q) of g mod q that some n <= N meets) for
    # every prime q listed for some value g(n), ascending in q; the roots
    # are None when q divides every value (a prime of g's content).
    rows: tuple[tuple[int, tuple[int, ...] | None], ...]
    # The rows list every prime of every nonzero g(n), n <= N.
    complete: bool


def _coefficient_bound(h: IntPoly, N: int) -> int:
    return sum(abs(c) * N**i for i, c in enumerate(h.coeffs))


def trial_root_table(
    fact: IrreducibleFactorization, N: int, budget: int | None = None
) -> TrialRootTable:
    """The residues n mod q at which q divides g(n), valid for 1 <= n <= N,
    for g = fact.reconstruct(), fact its factorization over Q as
    factor_over_Q gives it (multiplicities need not be g's own: a
    cyclic cover's are reduced mod p), and None for each prime of g's
    content.

    Each irreducible factor f lists every prime q <= min(B, cap), where B
    bounds |f(n)| over n <= N (max |b*n + c| for a linear f = b*x + c,
    the coefficient bound otherwise) and cap is arith.SIEVE_LIMIT for a
    linear f, arith.TRIAL_DIVISION_LIMIT otherwise.  A linear f's root is
    -c/b mod q (none where q divides b, as f is primitive), a nonlinear
    f's roots come from one _kernels.poly_roots_table over its primes,
    and a root r is kept when q <= N or 1 <= r <= N.  A prime
    q <= arith.TRIAL_DIVISION_LIMIT dividing a nonzero g(n) divides the
    content or some f(n) != 0, and then q <= |f(n)| <= B: it is listed.
    A zero g(n) is a branch fiber, and its list is not complete.

    The content's primes up to arith.TRIAL_DIVISION_LIMIT come from
    division; when they leave a cofactor > 1, arith.factor under budget
    finds the larger ones.  The table is complete when every factor of g
    is linear, each with |b*n + c| <= arith.SIEVE_LIMIT, unless the
    content's factorization overran the budget: the table then lists
    none of its large primes, and each value's cofactor keeps them."""
    bounds = [  # (f, the largest |f(n)| over n <= N or a bound on it, f's cap)
        (f, max(abs(f(1)), abs(f(N))), arith.SIEVE_LIMIT)
        if f.degree == 1
        else (f, _coefficient_bound(f, N), arith.TRIAL_DIVISION_LIMIT)
        for f, _ in fact.factors
    ]
    complete = all(f.degree == 1 and top <= arith.SIEVE_LIMIT for f, top, _ in bounds)
    tops = [min(top, cap) for _, top, cap in bounds]
    primes = np.array(arith.primes_up_to(max(tops)), dtype=np.int64)
    shift = arith.SIEVE_LIMIT.bit_length()  # every root r < q < 2**shift
    keys = []
    for (f, _, _), top in zip(bounds, tops):
        qs = primes[: np.searchsorted(primes, top, side="right")]
        if f.degree == 1:
            roots = _kernels.linear_roots_mod(f.coeffs[1], f.coeffs[0], qs)
        else:
            found = _kernels.poly_roots_table(np.array(f.coeffs, dtype=object), qs)
            qs = np.repeat(qs, [len(rs) for rs in found])
            roots = np.array([r for rs in found for r in rs], dtype=np.int64)
        # n <= N meets every residue mod q <= N, and only 1..N mod a larger q
        keep = (roots >= 0) & ((qs <= N) | ((roots >= 1) & (roots <= N)))
        keys.append((qs[keep] << shift) | roots[keep])
    keys = np.sort(np.concatenate(keys))  # ascending in q, then in r
    keys = keys[np.diff(keys, prepend=-1) != 0]  # factors sharing a root mod q
    key_qs = keys >> shift
    starts = np.flatnonzero(np.diff(key_qs, prepend=-1)).tolist()
    key_roots = (keys & ((1 << shift) - 1)).tolist()
    ends = starts[1:] + [len(key_roots)]
    rows = {q: tuple(key_roots[i:j]) for q, i, j in zip(key_qs[starts].tolist(), starts, ends)}
    content = abs(fact.content)
    small = [q for q in arith.primes_up_to(arith.TRIAL_DIVISION_LIMIT) if content % q == 0]
    rows.update((q, None) for q in small)
    if _cofactor(content, small) > 1:
        try:
            rows.update((q, None) for q, _ in arith.factor(content, budget, small).factors)
        except UnfactoredResidualError:
            complete = False
    return TrialRootTable(tuple(sorted(rows.items())), complete)


def trial_prime_lists(table: TrialRootTable, n0: int, count: int) -> list[list[int]]:
    """lists[i]: the ascending primes of the table dividing g(n0 + i), for
    the table of g and 1 <= n0 + i <= its N.  Every prime
    <= arith.TRIAL_DIVISION_LIMIT dividing a nonzero g(n0 + i) is among
    them."""
    lists: list[list[int]] = [[] for _ in range(count)]
    for q, residues in table.rows:
        if residues is None:
            for primes in lists:
                primes.append(q)
        elif q < count:
            for r in residues:
                for i in range((r - n0) % q, count, q):
                    lists[i].append(q)
        else:  # at most one hit per residue: skip building a range
            for r in residues:
                i = (r - n0) % q
                if i < count:
                    lists[i].append(q)
    return lists


def segment_prime_lists(
    table: TrialRootTable, g: IntPoly, n0: int, count: int, budget: int | None = None
) -> list[list[int] | UnfactoredResidualError]:
    """lists[i]: ascending distinct primes dividing g(n0 + i), to hand
    arith.factor as its trial primes, for the table of g and
    1 <= n0 + i <= its N.

    Each list starts as the table's (trial_prime_lists).  Unless the
    table is complete, every nonzero value is divided by its listed primes,
    the cofactors > 1 are decided at once (arith.split_cofactors), and a
    split's primes are merged into the list, which then holds every prime
    of the value.  Where the split overran the budget, the slot holds its
    UnfactoredResidualError instead, the one arith.factor on the value
    would raise."""
    lists = trial_prime_lists(table, n0, count)
    if table.complete:
        return lists
    cofactors = [
        _cofactor(value, primes) if value else 1
        for value, primes in zip(map(g, range(n0, n0 + count)), lists)
    ]
    rest = [i for i, c in enumerate(cofactors) if c > 1]
    for i, large in zip(rest, arith.split_cofactors([cofactors[i] for i in rest], budget)):
        if isinstance(large, UnfactoredResidualError):
            lists[i] = large
        else:
            lists[i] = sorted(lists[i] + large)
    return lists


def value_prime_lists(
    fact: IrreducibleFactorization, N: int, budget: int | None = None
) -> Iterator[tuple[int, list[int] | UnfactoredResidualError]]:
    """(n, the ascending distinct primes of g(n), or the split's error on
    its cofactor) for n = 1..N in increasing n, for g = fact.reconstruct()
    (fact as trial_root_table takes it), from one trial root table and a
    segment_prime_lists call per window of window_size(N) values.  Its
    reader decides what an error means: covers.specialize makes the fiber
    unresolved, exact_order_prime_ratio raises it.  A window's lists are
    freed before the next window's are built."""
    g = fact.reconstruct()
    table = trial_root_table(fact, N, budget)
    window = window_size(N)
    for n0 in range(1, N + 1, window):
        count = min(window, N + 1 - n0)
        yield from zip(range(n0, n0 + count), segment_prime_lists(table, g, n0, count, budget))


def fixed_square_primes(h: IntPoly, budget: int | None = None) -> tuple[int, ...]:
    """Primes p with p**2 dividing h(n) for every integer n, ascending.

    A prime p <= deg h is fixed exactly when every residue mod p**2 is a
    root of h, that is when h has p**2 roots mod p**2
    (_square_root_counts).

    A prime p > deg h is fixed exactly when p**2 divides the content c of
    h.  Let p**e be the exact power of p in c, so h = p**e h1 with h1 mod p
    nonzero.  h1 mod p has degree < p, so it does not vanish at every
    residue, and some h(n) has exactly e factors p: e >= 2 is needed, and
    it is enough.  budget bounds the factorization of c.
    """
    small = arith.primes_up_to(h.degree)
    fixed = [p for p, rho in zip(small, _square_root_counts(h, small)) if rho == p * p]
    content = h.content()
    if abs(content) > 1:
        fixed += [
            p for p, e in arith.factor(content, budget).factors if p > h.degree and e >= 2
        ]
    return tuple(fixed)


def _square_root_counts(h: IntPoly, primes: list[int]) -> list[int]:
    """The number of roots of h mod p**2 for each p in primes (int64,
    deg h * p**2 <= 2**62), exact for any nonconstant h.

    The roots mod every p come from one _kernels.poly_roots_table, and
    their lifts mod p**2 are counted by Hensel: h(r + t p) = h(r) + t p h'(r)
    mod p**2, so a root r with p not dividing h'(r) lifts once, and one
    with p | h'(r) lifts p times when p**2 | h(r) and not at all
    otherwise.  That holds when p divides h's content too: then h' = 0
    mod p, and every root mod p lifts p times or not at all."""
    der = h.derivative()
    table = _kernels.poly_roots_table(
        np.array(h.coeffs, dtype=object), np.array(primes, dtype=np.int64)
    )
    counts = []
    for p, roots in zip(primes, table):
        rho = 0
        for r in roots:
            if der(r) % p:
                rho += 1
            elif h(r) % (p * p) == 0:
                rho += p
        counts.append(rho)
    return counts


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
    return values, flags


def _squares_and_residuals(
    cofactors: np.ndarray, flags: np.ndarray, t2: int, t3: int
) -> np.ndarray:
    """Clear the flag of every flagged cofactor c >= t2 = T**2 that is a
    perfect square, and return the indices of the flagged cofactors
    c >= t3 = T**3 that are not.  A flagged cofactor below t2 is 1 or a
    prime, squarefree either way.

    Object cofactors take math.isqrt.  On int64 cofactors (all below
    2**62) a float sqrt is exact on squares: for c = s**2, float(c) is
    s**2 (1 + d) with |d| <= 2**-53, so sqrt(float(c)) is within
    s * 2**-54 of s, less than half an ulp of s, and the correctly
    rounded sqrt returns s itself.  A non-square c has no s with
    s * s == c, so no correction is needed either way."""
    large = np.flatnonzero(flags & (cofactors >= t2))
    c = cofactors[large]
    if c.dtype == object:
        s = np.array([math.isqrt(x) for x in c.tolist()], dtype=object)
    else:
        s = np.sqrt(c.astype(np.float64)).astype(np.int64)
    square = s * s == c
    flags[large[square]] = False
    # c <= bound < T**3 unless T is the cap, so a residual has no prime
    # factor up to arith.TRIAL_DIVISION_LIMIT
    return large[~square & (c >= t3)]


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
    fixed = fixed_square_primes(h, budget)
    bound = _coefficient_bound(h, N)
    T = max(37, min(_SIEVE_PRIME_CAP, arith.introot(bound, 3) + 1))
    primes = arith.primes_up_to(T)
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
        rest = _squares_and_residuals(cofactors, flags, t2, t3)
        residuals += rest.size
        rest_values = cofactors[rest].tolist()
        split = arith.split_cofactors(rest_values, budget)
        for i, c, large in zip(rest.tolist(), rest_values, split):
            if isinstance(large, UnfactoredResidualError):
                bad.append(n0 + i)
                continue
            fact = arith.factor(c, budget, trial_primes=large)
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
    with rho the exact root count mod p^2 (_square_root_counts), taken for
    the radical of h (h itself when h is separable).  A prime is fixed for
    the radical exactly when rho = p^2, so the fixed primes are skipped by
    that test."""
    if h.degree < 1:
        raise DomainError("sieve", "euler_density needs a non-constant polynomial")
    h = polyring.radical(h)
    if h.degree * prime_bound**2 > 1 << 62:  # poly_roots_table's int64 envelope
        raise DomainError(
            "sieve", f"euler bound {prime_bound} is too large for degree {h.degree}"
        )
    primes = arith.primes_up_to(prime_bound)
    out = Fraction(1)
    for p, rho in zip(primes, _square_root_counts(h, primes)):
        p2 = p * p
        if 0 < rho < p2:
            out *= Fraction(p2 - rho, p2)
    return out


def exact_order_prime_ratio(
    g: IntPoly, n: int, budget: int | None = None
) -> tuple[int, Fraction]:
    """Count of primes q >= n with v_q(g(m)) = 1 for some m <= n, and the
    ratio count/n.  Requires g irreducible over Q of degree >= 2.

    g is factored over Q once, to check that hypothesis, and
    value_prime_lists reads that factorization.  Its list for g(m) holds
    every prime of g(m) (g has no linear factor, so the table lists the
    primes <= the trial limit and the content's, and the batch split adds
    the rest), and a listed q counts when q**2 does not divide g(m).  The
    first value whose cofactor overran the budget raises the split's
    error, the UnfactoredResidualError a factor call per value raises at
    the same first m, when g's content has no prime above the trial
    limit."""
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
    for m, primes in value_prime_lists(fact, n, budget):
        if isinstance(primes, UnfactoredResidualError):
            raise primes
        value = g(m)  # g is irreducible of degree >= 2, so no value is 0
        hits.update(q for q in primes if q >= n and value % (q * q))
    return len(hits), Fraction(len(hits), n)


def _cofactor(value: int, primes: list[int]) -> int:
    """|value| with every listed prime divided out to its full power."""
    m = abs(value)
    for q in primes:
        m //= q
        while m % q == 0:
            m //= q
    return m
