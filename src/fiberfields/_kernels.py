"""Hot numeric loops: prime sieving, the roots of a polynomial mod many
primes at once, the roots of a linear polynomial mod many primes at once,
the squarefree division scan over polynomial value ranges, and, on many
numbers below 2**56 in lockstep (exact int64 products mod n by mulmod),
Brent's rho and the strong probable-prime test of Miller-Rabin.

poly_roots_table finds the roots of one polynomial mod every trial prime
in one pass over lanes, one prime each (Cantor-Zassenhaus): the trial
root table (sieve.trial_root_table) calls it once per nonlinear factor,
and the squarefree scan and the Euler product (sieve.euler_density) once
each.  poly_roots_mod finds roots by exhaustion: the table uses it only
for the primes dividing the leading coefficient,
sieve.fixed_square_primes tries every residue mod p and p**2 for the
primes p <= deg h with it, and the tests use it as the table's oracle.

The root and prime kernels work on int64 arrays; the root kernels reduce
the coefficients mod each prime first, so they also take object
coefficients.  eval_poly_range and squarefree_scan follow the dtype of
the coefficient array: int64 when the caller has checked that every
value fits the int64 envelope, object arrays of Python ints outside it
(see sieve.squarefree_value_count).
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


def poly_roots_mod(coeffs: np.ndarray, m: int) -> np.ndarray:
    """All r in [0, m) with f(r) = 0 mod m, by exhaustion.  Needs
    m*m < 2**63."""
    xs = np.arange(m, dtype=np.int64)
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


def _inverse_mod(a: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """a**(q-2) mod q for every prime q in qs and 0 <= a < q (int64,
    q < 2**31), the inverse of a where q does not divide it: by
    square-and-multiply across all q at once."""
    inv = np.ones_like(qs)
    base, exps = a, qs - 2
    while exps.any():
        odd = (exps & 1) == 1
        inv[odd] = inv[odd] * base[odd] % qs[odd]
        base = base * base % qs
        exps = exps >> 1
    return inv


def linear_roots_mod(b: int, c: int, qs: np.ndarray) -> np.ndarray:
    """For every prime q in qs (int64, q < 2**31), the root r in [0, q) of
    b*x + c mod q, or -1 when q divides b.  b = +-1 is its own inverse."""
    if abs(b) == 1:
        return _int_mod(-b * c, qs)
    bq = _int_mod(b, qs)
    roots = _int_mod(-c, qs) * _inverse_mod(bq, qs) % qs
    roots[bq == 0] = -1
    return roots


class _Quotients:
    """F_q[x] / (f) for one prime q and one monic f of degree d >= 1 per
    lane, f = x**d + low[:, 0] + ... + low[:, d-1] x**(d-1); an element
    is a row of its d coefficients in [0, q), ascending.  A product's
    terms, at most (2d - 1) * (q - 1)**2, stay in int64 while
    d * q**2 <= 2**62."""

    def __init__(self, low: np.ndarray, qs: np.ndarray):
        lanes, d = low.shape
        self.low, self.q = low, qs[:, None]
        # high[:, k] = x**(d + k) mod f, to reduce a product's top terms
        self.high = np.empty((lanes, d - 1, d), dtype=np.int64)
        power = -low % self.q  # x**d mod f
        for k in range(d - 1):
            self.high[:, k] = power
            power = self.times_x(power)

    def one(self) -> np.ndarray:
        e = np.zeros(self.low.shape, dtype=np.int64)
        e[:, 0] = 1
        return e

    def times_x(self, a: np.ndarray) -> np.ndarray:
        out = np.empty_like(a)
        out[:, 0] = 0
        out[:, 1:] = a[:, :-1]
        out -= a[:, -1:] * self.low
        out %= self.q
        return out

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        lanes, d = a.shape
        full = np.zeros((lanes, 2 * d - 1), dtype=np.int64)
        for i in range(d):  # entries <= d * (q - 1)**2
            full[:, i : i + d] += a[:, i : i + 1] * b
        top = full[:, d:] % self.q
        low = full[:, :d] + np.einsum("lk,lkj->lj", top, self.high)
        low %= self.q
        return low

    def power(self, a: np.ndarray, e: np.ndarray) -> np.ndarray:
        """(x + a)**e mod f, lane by lane, by square-and-multiply from the
        top bit of the largest e."""
        r = self.one()
        for shift in range(int(e.max(initial=0)).bit_length() - 1, -1, -1):
            r = self.mul(r, r)
            step = self.times_x(r)
            step += a[:, None] * r
            step %= self.q
            r = np.where(((e >> shift) & 1 == 1)[:, None], step, r)
        return r


def _degrees(a: np.ndarray) -> np.ndarray:
    """The degree of each row of coefficients (ascending), -1 for zero."""
    nonzero = a != 0
    top = a.shape[1] - 1 - np.argmax(nonzero[:, ::-1], axis=1)
    return np.where(nonzero.any(axis=1), top, -1)


def _gcds(a: np.ndarray, b: np.ndarray, qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A gcd of a[i] and b[i] mod qs[i] for every row, up to a unit, and
    its degree: rows of coefficients in [0, q), ascending, one width.
    Euclid without inverses: each step takes the leading term off the
    higher of the two, a <- lc(b) a - lc(a) x**s b, and a row leaves once
    its b is zero."""
    out, out_deg = np.empty_like(a), np.empty(a.shape[0], dtype=np.int64)
    cols = np.arange(a.shape[1])
    live, q = np.arange(a.shape[0]), qs[:, None]
    da, db = _degrees(a), _degrees(b)
    while True:
        swap = da < db
        a, b = np.where(swap[:, None], b, a), np.where(swap[:, None], a, b)
        da, db = np.where(swap, db, da), np.where(swap, da, db)
        done = db < 0
        if done.any():
            out[live[done]], out_deg[live[done]] = a[done], da[done]
            stay = ~done
            live, a, b, da, db, q = (v[stay] for v in (live, a, b, da, db, q))
            if not live.size:
                return out, out_deg
        rows = np.arange(live.size)
        src = cols - (da - db)[:, None]
        shifted = np.take_along_axis(b, np.maximum(src, 0), axis=1)
        shifted[src < 0] = 0
        a = b[rows, db][:, None] * a - a[rows, da][:, None] * shifted
        a %= q
        da = _degrees(a)


def _linear_roots(g: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """The root -g[i, 0] / g[i, 1] mod qs[i] of each row of degree 1."""
    return (qs - g[:, 0]) * _inverse_mod(g[:, 1], qs) % qs


# A round of poly_roots_table's split tries each piece at enough shifts a
# to fill this many rows, so the last few pieces take one round, not one
# round for each shift they need.
_SPLIT_ROWS = 64


def poly_roots_table(coeffs: np.ndarray, qs: np.ndarray) -> list[list[int]]:
    """roots[i]: the ascending r in [0, q) with h(r) = 0 mod q, q = qs[i],
    for h = sum coeffs[k] x**k (int64 or object coefficients of any size)
    and every prime q in qs (int64, deg h * q**2 <= 2**62).

    Every prime is a lane of the same arrays (Cantor-Zassenhaus).  h mod q
    made monic is f, and g = gcd(f, x**q - x), from x**q mod f by
    square-and-multiply, has f's roots, each once.  A g of degree 1 gives
    its root; one of degree q (q <= deg h) is x**q - x, every residue.  A
    larger g is a piece to split.  With w = (x + a)**((q-1)/2) mod f, the
    gcds of a piece with w - 1 and with w + 1 part its roots r by the
    quadratic character of r + a, and r = -a is in neither part.  Each
    piece tries a = 0, 1, 2, ... in turn and keeps the parts of the first
    a that splits it, until every part has one root; a = -r splits off
    the root r, so a piece splits within q tries.  A round tries every
    piece at the next shift, or at the next few when few pieces are left
    (_SPLIT_ROWS).  Where q divides lc(h), h = 0 mod q included, the roots
    are found by exhaustion (poly_roots_mod)."""
    cs = coeffs.tolist()
    while cs and cs[-1] == 0:
        cs.pop()
    roots: list[list[int]] = [[] for _ in range(qs.size)]
    lead = _int_mod(cs[-1], qs) if cs else np.zeros_like(qs)
    for i in np.flatnonzero(lead == 0).tolist():
        roots[i] = poly_roots_mod(coeffs, int(qs[i])).tolist()
    d = len(cs) - 1
    lanes = np.flatnonzero(lead != 0)
    if d < 1 or not lanes.size:
        return roots
    q = qs[lanes]
    low = np.stack([_int_mod(c, q) for c in cs[:-1]], axis=1)
    low *= _inverse_mod(lead[lanes], q)[:, None]
    low %= q[:, None]
    ring = _Quotients(low, q)
    f = np.concatenate([low, np.ones((q.size, 1), dtype=np.int64)], axis=1)
    frobenius = np.zeros_like(f)
    frobenius[:, :d] = ring.power(np.zeros_like(q), q) - ring.times_x(ring.one())
    g, deg = _gcds(f, frobenius % q[:, None], q)

    linear = np.flatnonzero(deg == 1)
    found_lanes, found_roots = [linear], [_linear_roots(g[linear], q[linear])]
    for i in np.flatnonzero(deg == q).tolist():
        found_lanes.append(np.full(q[i], i))
        found_roots.append(np.arange(q[i]))
    piece_lanes = np.flatnonzero((deg >= 2) & (deg < q))
    pieces, piece_deg, shift = g[piece_lanes], deg[piece_lanes], 0
    while piece_lanes.size:
        count = piece_lanes.size
        tries = -(-_SPLIT_ROWS // count)
        # row i * tries + t tries piece i at a = shift + t
        row_lanes = np.repeat(piece_lanes, tries)
        qr = q[row_lanes]
        a = (shift + np.tile(np.arange(tries), count)) % qr
        w = _Quotients(low[row_lanes], qr).power(a, qr // 2)
        rows = w.shape[0]
        others = np.zeros((2 * rows, d + 1), dtype=np.int64)
        others[:rows, :d] = others[rows:, :d] = w
        others[:rows, 0] -= 1
        others[rows:, 0] += 1
        part_q = np.tile(qr, 2)
        parts, part_deg = _gcds(
            np.tile(np.repeat(pieces, tries, axis=0), (2, 1)), others % part_q[:, None], part_q
        )
        minus, plus = part_deg[:rows].reshape(count, tries), part_deg[rows:].reshape(count, tries)
        splits = np.maximum(minus, plus) < piece_deg[:, None]
        chosen = np.arange(count) * tries + np.argmax(splits, axis=1)  # the first, or try 0
        hit = piece_deg - part_deg[chosen] - part_deg[rows + chosen] == 1  # r = -a
        found_lanes.append(piece_lanes[hit])
        found_roots.append(-a[chosen[hit]] % q[piece_lanes[hit]])
        kept = np.concatenate([chosen, rows + chosen])
        parts, part_deg, part_lanes = parts[kept], part_deg[kept], np.tile(piece_lanes, 2)
        linear = part_deg == 1
        found_lanes.append(part_lanes[linear])
        found_roots.append(_linear_roots(parts[linear], q[part_lanes[linear]]))
        larger = part_deg >= 2
        piece_lanes, pieces, piece_deg = part_lanes[larger], parts[larger], part_deg[larger]
        shift += tries

    lane_of, root_of = np.concatenate(found_lanes), np.concatenate(found_roots)
    order = np.lexsort((root_of, lane_of))
    bounds = np.searchsorted(lane_of[order], np.arange(lanes.size + 1)).tolist()
    flat = root_of[order].tolist()
    for lane, start, end in zip(lanes.tolist(), bounds, bounds[1:]):
        roots[lane] = flat[start:end]
    return roots


def eval_poly_range(coeffs: np.ndarray, n_start: int, count: int) -> np.ndarray:
    """h(n) for n_start <= n < n_start + count, in the dtype of coeffs."""
    xs = np.arange(n_start, n_start + count, dtype=coeffs.dtype)
    acc = np.zeros(count, dtype=coeffs.dtype)
    for k in range(coeffs.shape[0] - 1, -1, -1):
        acc = acc * xs + coeffs[k]
    return acc


# mulmod and _rho_step, and so the lockstep kernels built on them, are
# exact for moduli below this bound: past it the float quotient can leave
# a remainder that wraps int64 (2**57 and up: about 4% of products wrong).
LANES_BELOW = 1 << 56


def mulmod(
    a: np.ndarray, b: np.ndarray, n: np.ndarray, ninv: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """a * b mod n in [0, n) elementwise, for int64 arrays with |a|, |b| < n
    and 0 < n < 2**56 (LANES_BELOW), and ninv = 1.0 / n in float64; into
    out when given, which may be a.

    The quotient is q = trunc(a * ninv * b).  Its float carries three
    roundings of relative error 2**-53 each (ninv and two products), so
    with the second-order terms it is within 8 * 2**-53 * |a*b/n| of the
    exact quotient, which is below n, and truncation adds less than 1.
    So the true r = a*b - q*n satisfies |r| < (8 * 2**-53 * n + 1) * n,
    at most 2**62 + 2**56 < 2**63 for n <= 2**56: wrapping int64
    arithmetic gives r exactly, and np.remainder, which takes the sign of
    n, brings it into [0, n)."""
    q = a * ninv
    q *= b
    r = np.multiply(a, b, out=out)
    r -= q.astype(np.int64) * n
    return np.remainder(r, n, out=r)


def _rho_step(
    y: np.ndarray,
    c: np.ndarray,
    n: np.ndarray,
    ninv: np.ndarray,
    cninv: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """(y * y + c) mod n for 0 <= y, c < n < 2**56 (LANES_BELOW), with
    ninv = 1.0 / n and cninv = c * ninv in float64, in one reduction; into
    out when given, which may be y.

    The quotient is q = trunc(y * ninv * y + cninv).  Its float carries at
    most four roundings of relative error 2**-53 each (ninv, y * ninv, its
    product with y, the sum; cninv's two are no more), so with the
    second-order terms it is within 8 * 2**-53 * (y*y + c)/n of the exact
    quotient, which is at most n - 1, and truncation adds less than 1.  So
    the true r = y*y + c - q*n satisfies |r| < (8 * 2**-53 * n + 1) * n,
    at most 2**62 + 2**56 < 2**63 for n <= 2**56: wrapping int64
    arithmetic gives r exactly, and np.remainder brings it into [0, n)."""
    q = y * ninv
    q *= y
    q += cninv
    r = np.multiply(y, y, out=out)
    r += c
    r -= q.astype(np.int64) * n
    return np.remainder(r, n, out=r)


def _product_mod(d: np.ndarray, n: np.ndarray, ninv: np.ndarray) -> np.ndarray:
    """The product of the rows of d mod n, column by column, for rows with
    |d| < n: in [0, n) from two rows on (mulmod's range), the row itself
    for one.  A pairwise tree in place, so d's rows are spent: each level
    multiplies the first half of the rows by the second into the first,
    and an odd last row moves up behind them, so a run of k rows takes
    about log2(k) mulmod calls instead of k."""
    rows = d.shape[0]
    while rows > 1:
        half = rows // 2
        mulmod(d[:half], d[half : 2 * half], n, ninv, out=d[:half])
        if rows & 1:
            d[half] = d[rows - 1]
        rows -= half
    return d[0]


# brent_rho_lanes multiplies the |x - y| of this many steps at a time into
# its q, as one pairwise tree.
_TREE_STEPS = 16


# strong_probable_primes runs at most this many lanes at a time, so its
# arrays stay at 64 KB each however many lanes it is given.
_PRP_BLOCK = 8192


def strong_probable_primes(n: np.ndarray, a: np.ndarray) -> np.ndarray:
    """For int64 arrays with odd n and 1 < a < n < 2**56 (LANES_BELOW),
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
    mulmod(a, a, n, ninv, out=table[2])
    mulmod(table[2], a, n, ninv, out=table[3])
    lanes = np.arange(n.size)
    x = np.ones_like(n)
    for shift in range((int(d.max(initial=0)).bit_length() - 1) & ~1, -2, -2):
        mulmod(x, x, n, ninv, out=x)
        mulmod(x, x, n, ninv, out=x)
        mulmod(x, table[(d >> shift) & 3, lanes], n, ninv, out=x)
    prime = (x == 1) | (x == m)
    live = np.flatnonzero(~prime & (2 * d < m))
    x, d, n, ninv, m = (v[live] for v in (x, d, n, ninv, m))
    while live.size:
        mulmod(x, x, n, ninv, out=x)
        d *= 2
        hit = x == m
        prime[live[hit]] = True
        stay = ~hit & (x != 1) & (2 * d < m)
        if not stay.all():
            live, x, d, n, ninv, m = (v[stay] for v in (live, x, d, n, ninv, m))
    return prime


RhoLane = tuple[int, int, int, int, int]


def brent_rho_lanes(
    ns: list[int], ys: list[int], cs: list[int], limit: int, block: int, hand_off: int
) -> tuple[list[int], list[int], list[RhoLane | None]]:
    """Brent's rho with the schedule of arith._brent_rho, on every odd
    composite n < 2**56 (LANES_BELOW) of ns at once, each a lane of int64
    arrays started from its own (y, c).

    The lanes share the iteration counter, so they share the schedule: in
    round r, x is y, y moves r steps, then blocks of `block` steps each
    multiply |x - y| into q and end with gcd(q, n).  A lane leaves when its
    gcd is not 1.  Each step is one fused reduction (_rho_step).  Within a
    block, each run of _TREE_STEPS steps writes its y's into the rows of
    one preallocated stack, which then holds the signed x - y, and is
    multiplied as a pairwise tree in place (_product_mod), and the run's
    product into q: about log2(16) + 1 numpy mulmod calls per run instead
    of 16.  y and q are stepped in place too, so new arrays are made only
    when lanes leave.  mulmod is exact, and multiplication mod n is
    associative and commutative, so q at the end of each block, and so
    every gcd, found[i], spent[i] and lanes[i], is what multiplying one
    step at a time, as _brent_rho does, gives.  Returns (found, spent,
    lanes), one entry per n:

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
    cninv = c * ninv
    x = np.array(ys, dtype=np.int64)
    q = np.ones(count, dtype=np.int64)
    r, k, spent = 1, 0, 1
    y = _rho_step(x, c, n, ninv, cninv)  # round 1: y moves one step from x
    stack = np.empty((_TREE_STEPS, count), dtype=np.int64)
    while live.size >= hand_off and live.size:
        steps = min(block, r - k)
        if spent + steps > limit:
            return found, spent_at, lanes
        y0, q0 = y.copy(), q.copy()
        for run in range(0, steps, _TREE_STEPS):
            d = stack[: min(_TREE_STEPS, steps - run), : live.size]
            step = y
            for row in d:
                step = _rho_step(step, c, n, ninv, cninv, out=row)
            y[...] = step
            np.subtract(x, d, out=d)
            mulmod(q, _product_mod(d, n, ninv), n, ninv, out=q)
        g = np.gcd(q, n)
        for i in np.flatnonzero(g == n).tolist():
            lanes[live[i]] = (int(x[i]), int(y0[i]), int(q0[i]), r, k)
            spent_at[live[i]] = spent
        spent += steps
        for i in np.flatnonzero((g != 1) & (g != n)).tolist():
            found[live[i]] = int(g[i])
            spent_at[live[i]] = spent
        stay = g == 1
        if not stay.all():
            live, n, ninv, c, cninv, x, y, q = (
                a[stay] for a in (live, n, ninv, c, cninv, x, y, q)
            )
        k += block
        if k >= r:  # a round past limit is caught at its first block
            x[...] = y
            r, k = 2 * r, 0
            for _ in range(r):
                _rho_step(y, c, n, ninv, cninv, out=y)
            spent += r
    for i, lane in enumerate(live.tolist()):
        lanes[lane] = (int(x[i]), int(y[i]), int(q[i]), r, k)
        spent_at[lane] = spent
    return found, spent_at, lanes


# squarefree_scan takes the hits of its root progressions this many at a
# time, so each of its hit arrays stays at 128 KB however long the segment
# (a segment of 2**20 values of x^3 + 2 has about 2.6 million hits).
_HIT_BLOCK = 1 << 14


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

    The roots come from one poly_roots_table over all of `primes`.  Each
    (q, root) pair is a progression of hits i = start, start + q, ... in
    the segment, none when start >= len(values) (a window shorter than q).
    The hits of every progression are numbered in one flat sequence and
    taken _HIT_BLOCK at a time: a block's hits are int64 arrays of
    positions and primes.  q divides h(n) at every hit, so a nonzero
    value's q-part q**e (e >= 1) comes from dividing by q while it
    divides, on the ever fewer hits where it still does.  A value at two
    hits of a block (two primes) is divided by both powers through
    np.floor_divide.at, which applies repeated indices one after the
    other; each power is exact and coprime to the others, so the order
    does not matter.  The same code runs on int64 and on object values.
    """
    count = values.shape[0]
    table = poly_roots_table(coeffs, primes)
    q = np.repeat(primes, [len(roots) for roots in table])
    start = (np.array([r for roots in table for r in roots], dtype=np.int64) - n_start) % q
    hits = (count - start + q - 1) // q  # 0 when start >= count
    keep = hits > 0
    q, start, hits = q[keep], start[keep], hits[keep]
    first = np.cumsum(hits) - hits  # the flat number of each progression's first hit
    free = ~np.isin(q, fixed)
    total = int(hits.sum())
    for lo in range(0, total, _HIT_BLOCK):
        flat = np.arange(lo, min(lo + _HIT_BLOCK, total))
        prog = np.searchsorted(first, flat, side="right") - 1
        qh = q[prog]
        pos = start[prog] + (flat - first[prog]) * qh
        v = values[pos]
        nonzero = v != 0  # h(n) = 0: its flag is clear already
        pos, qh, v, free_h = pos[nonzero], qh[nonzero], v[nonzero], free[prog[nonzero]]
        qh = qh.astype(values.dtype, copy=False)
        rest = v // qh
        power = qh.copy()
        live = np.flatnonzero(rest % qh == 0)
        flags[pos[live[free_h[live]]]] = False  # e >= 2
        while live.size:
            ql = qh[live]
            rest[live] //= ql
            power[live] *= ql
            live = live[rest[live] % ql == 0]
        np.floor_divide.at(values, pos, power)
