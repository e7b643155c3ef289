"""Hot numeric loops: prime sieving, brute-force polynomial roots mod m,
the roots of a linear polynomial mod many primes at once, the squarefree
division scan over polynomial value ranges, and, on many numbers below
2**50 in lockstep (exact int64 products mod n by mulmod), Brent's rho and
the strong probable-prime test of Miller-Rabin.

The root and prime kernels work on int64 arrays; the root kernel reduces
its coefficients mod m first, so it also takes object coefficients.
eval_poly_range and squarefree_scan follow the dtype of the coefficient
array: int64 when the caller has checked that every value fits the int64
envelope, object arrays of Python ints outside it (see
sieve.squarefree_value_count).
`backend.name` names the implementation ("numpy") for benchmark records.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

backend = SimpleNamespace(name="numpy")


def prime_flags(limit: int) -> np.ndarray:
    """Boolean array f of length limit+1 with f[k] = k is prime."""
    flags = np.ones(limit + 1, dtype=np.bool_)
    flags[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def _reduce_mod(acc: np.ndarray, m: int) -> None:
    """acc %= m in place for acc >= 0, as acc - (acc // m) * m: numpy's
    int64 floor division by a scalar runs about 5x faster than its
    remainder (10^4 entries: 7 us against 34 us)."""
    quot = acc // m
    quot *= m
    acc -= quot


def _horner_mod(coeffs: np.ndarray, xs: np.ndarray, m: int) -> np.ndarray:
    """f(xs) mod m for xs in [0, m).  The coefficients are reduced mod m
    first (so object coefficients work too), and acc is reduced only when
    the next Horner step could leave int64: top bounds acc."""
    cs = [c % m for c in coeffs.tolist()] or [0]
    acc = np.full(xs.shape[0], cs[-1], dtype=np.int64)
    top = m - 1
    for c in reversed(cs[:-1]):
        if top * m >= 1 << 63:
            _reduce_mod(acc, m)
            top = m - 1
        acc *= xs
        acc += c
        top = top * m  # >= top * (m - 1) + (m - 1)
    _reduce_mod(acc, m)
    return acc


def poly_roots_mod(coeffs: np.ndarray, m: int, stop: int | None = None) -> np.ndarray:
    """All r in [0, m) with f(r) = 0 mod m, by exhaustion; with stop, only
    those r < stop.  Needs m*m < 2**63."""
    xs = np.arange(m if stop is None else min(m, stop), dtype=np.int64)
    return xs[_horner_mod(coeffs, xs, m) == 0]


def _int_mod(a: int, qs: np.ndarray) -> np.ndarray:
    """a mod q for every q in qs (0 < q < 2**31), for any Python int a:
    Horner over a's base-2**31 digits, the top one below 2**62, keeps
    every step in int64."""
    m, digits = abs(a), []
    while m >> 62:
        digits.append(m & 0x7FFFFFFF)
        m >>= 31
    acc = np.int64(m) % qs
    for d in reversed(digits):
        acc <<= 31
        acc += d
        acc %= qs
    return acc if a >= 0 else (qs - acc) % qs


def linear_roots_mod(b: int, c: int, qs: np.ndarray) -> np.ndarray:
    """For every prime q in qs (int64, q < 2**31), the root r in [0, q) of
    b*x + c mod q, or -1 when q divides b.  b's inverse is b**(q-2) mod q,
    by square-and-multiply across all q at once; b = +-1 is its own."""
    if abs(b) == 1:
        return _int_mod(-b * c, qs)
    bq = _int_mod(b, qs)
    inv = np.ones_like(qs)
    base, exps = bq, qs - 2
    while exps.any():
        odd = (exps & 1) == 1
        inv[odd] = inv[odd] * base[odd] % qs[odd]
        base = base * base % qs
        exps = exps >> 1
    roots = _int_mod(-c, qs) * inv % qs
    roots[bq == 0] = -1
    return roots


def eval_poly_range(coeffs: np.ndarray, n_start: int, count: int) -> np.ndarray:
    """h(n) for n_start <= n < n_start + count, in the dtype of coeffs."""
    xs = np.arange(n_start, n_start + count, dtype=coeffs.dtype)
    acc = np.zeros(count, dtype=coeffs.dtype)
    for k in range(coeffs.shape[0] - 1, -1, -1):
        acc = acc * xs + coeffs[k]
    return acc


# mulmod, and so brent_rho_lanes, is exact for moduli below this bound.
LANES_BELOW = 1 << 50


def mulmod(a: np.ndarray, b: np.ndarray, n: np.ndarray, ninv: np.ndarray) -> np.ndarray:
    """a * b mod n elementwise, for int64 arrays with 0 <= a, b < n < 2**50
    (LANES_BELOW) and ninv = 1.0 / n in float64.  The quotient
    q = trunc(a * ninv * b) is within 3/8 of a*b/n (three roundings of
    relative error 2**-53 each, of a number below 2**50), so r = a*b - q*n,
    computed in wrapping int64, lies in [-n, 2n), and one correction each
    way makes it exact."""
    q = (a * ninv * b).astype(np.int64)
    r = a * b
    r -= q * n
    r += n & (r >> 63)  # [0, 2n)
    r -= n
    r += n & (r >> 63)  # [0, n)
    return r


def _rho_step(y: np.ndarray, c: np.ndarray, n: np.ndarray, ninv: np.ndarray) -> np.ndarray:
    """(y * y + c) mod n for 0 <= y, c < n < 2**50."""
    y = mulmod(y, y, n, ninv)
    y += c
    y -= n
    y += n & (y >> 63)
    return y


# strong_probable_primes runs at most this many lanes at a time, so its
# arrays stay at 64 KB each however many lanes it is given.
_PRP_BLOCK = 8192


def strong_probable_primes(n: np.ndarray, a: np.ndarray) -> np.ndarray:
    """For int64 arrays with odd n and 1 < a < n < 2**50 (LANES_BELOW),
    whether n[i] is a strong probable prime to base a[i]: with
    n - 1 = d * 2**s and d odd, a**d = 1 or a**(d * 2**j) = n - 1 (mod n)
    for some 0 <= j < s, as arith._miller_rabin_round decides it.

    Every lane has its own d and s.  The lanes raise a to d together, in
    2-bit windows from the top of the largest d: two squarings, then one
    product with a**w, w the lane's next two bits, from a table of a**0
    to a**3 per lane.  Then each lane squares until it meets n - 1, meets
    1, or runs out of its s, and leaves the arrays once decided."""
    prime = np.zeros(n.size, dtype=np.bool_)
    for i in range(0, n.size, _PRP_BLOCK):
        block = slice(i, i + _PRP_BLOCK)
        prime[block] = _strong_probable_primes(n[block], a[block])
    return prime


def _strong_probable_primes(n: np.ndarray, a: np.ndarray) -> np.ndarray:
    ninv = 1.0 / n
    m = n - 1
    d = m // (m & -m)
    table = np.empty((4, n.size), dtype=np.int64)
    table[0], table[1] = 1, a
    table[2] = mulmod(a, a, n, ninv)
    table[3] = mulmod(table[2], a, n, ninv)
    lanes = np.arange(n.size)
    x = np.ones_like(n)
    for shift in range((int(d.max(initial=0)).bit_length() - 1) & ~1, -2, -2):
        x = mulmod(x, x, n, ninv)
        x = mulmod(x, x, n, ninv)
        x = mulmod(x, table[(d >> shift) & 3, lanes], n, ninv)
    prime = (x == 1) | (x == m)
    live = np.flatnonzero(~prime & (2 * d < m))
    x, d, n, ninv, m = (v[live] for v in (x, d, n, ninv, m))
    while live.size:
        x = mulmod(x, x, n, ninv)
        d *= 2
        hit = x == m
        prime[live[hit]] = True
        stay = ~hit & (x != 1) & (2 * d < m)
        live, x, d, n, ninv, m = (v[stay] for v in (live, x, d, n, ninv, m))
    return prime


RhoLane = tuple[int, int, int, int, int]


def brent_rho_lanes(
    ns: list[int], ys: list[int], cs: list[int], limit: int, block: int, hand_off: int
) -> tuple[list[int], list[int], list[RhoLane | None]]:
    """Brent's rho with the schedule of arith._brent_rho, on every odd
    composite n < 2**50 of ns at once, each a lane of int64 arrays started
    from its own (y, c).

    The lanes share the iteration counter, so they share the schedule: in
    round r, x is y, y moves r steps, then blocks of `block` steps each
    multiply |x - y| into q and end with gcd(q, n).  A lane leaves when its
    gcd is not 1.  Returns (found, spent, lanes), one entry per n:

      found[i] > 0      the factor 1 < gcd < n, found after spent[i] steps;
      lanes[i] given    the scalar loop resumes lane i from (x, y, q, r, k),
                        the start of the block at offset k of round r, with
                        spent[i] steps behind it: when its gcd was n (the
                        block is run again, and backtracks), or when fewer
                        than hand_off lanes were left;
      neither           spent would pass limit, as scalar rho would.
    """
    count = len(ns)
    found, spent_at = [0] * count, [0] * count
    lanes: list[RhoLane | None] = [None] * count
    live = np.arange(count)
    n = np.array(ns, dtype=np.int64)
    ninv = 1.0 / n
    c = np.array(cs, dtype=np.int64)
    x = np.array(ys, dtype=np.int64)
    q = np.ones(count, dtype=np.int64)
    r, k, spent = 1, 0, 1
    y = _rho_step(x, c, n, ninv)  # round 1: y moves one step from x
    while live.size >= hand_off and live.size:
        steps = min(block, r - k)
        if spent + steps > limit:
            return found, spent_at, lanes
        y0, q0 = y, q
        for _ in range(steps):
            y = _rho_step(y, c, n, ninv)
            d = x - y
            d += n & (d >> 63)
            q = mulmod(q, d, n, ninv)
        g = np.gcd(q, n)
        for i in np.flatnonzero(g == n).tolist():
            lanes[live[i]] = (int(x[i]), int(y0[i]), int(q0[i]), r, k)
            spent_at[live[i]] = spent
        spent += steps
        for i in np.flatnonzero((g != 1) & (g != n)).tolist():
            found[live[i]] = int(g[i])
            spent_at[live[i]] = spent
        stay = g == 1
        live, n, ninv, c, x, y, q = (a[stay] for a in (live, n, ninv, c, x, y, q))
        k += block
        if k >= r:  # a round past limit is caught at its first block
            x, r, k = y, 2 * r, 0
            for _ in range(r):
                y = _rho_step(y, c, n, ninv)
            spent += r
    for i, lane in enumerate(live.tolist()):
        lanes[lane] = (int(x[i]), int(y[i]), int(q[i]), r, k)
        spent_at[lane] = spent
    return found, spent_at, lanes


def squarefree_scan(
    coeffs: np.ndarray,
    n_start: int,
    values: np.ndarray,
    flags: np.ndarray,
    primes: np.ndarray,
    fixed: np.ndarray,
) -> None:
    """Divide every prime q in `primes` out of |h(n)| along the root
    progressions of h mod q, clearing flags[i] when q**2 divided values[i]
    (unless q is in `fixed`).  values is mutated into the q-free cofactors.
    """
    for q in primes.tolist():
        roots = poly_roots_mod(coeffs, q)
        is_fixed = bool(np.any(fixed == q))
        for r in roots.tolist():
            start = (r - n_start) % q
            sub = values[start::q]
            fsub = flags[start::q]
            exp = np.zeros(sub.shape[0], dtype=np.int64)
            div = (sub != 0) & (sub % q == 0)
            while np.any(div):
                np.floor_divide(sub, q, out=sub, where=div)
                exp[div] += 1
                div = div & (sub % q == 0)
            if not is_fixed:
                fsub[exp >= 2] = False
