"""Dense univariate polynomial arithmetic modulo an integer.

Polynomials are lists of coefficients in [0, m), lowest degree first, with
no trailing zeros ([] is the zero polynomial).  The modulus is a prime for
gcd/factoring routines and a prime power for Hensel lifting; divisions
only ever happen by polynomials whose leading coefficient is invertible.

`divmod_` is the one division loop (`mod` keeps its remainder): it writes
the quotient over the top coefficients it clears, trims nothing inside
the loop and reduces mod m once at the end.  `pow_mod` reduces each
product mod g in the loop that forms it.  These two carry every
splitting type, gcd and Cantor-Zassenhaus step.

Randomized splitting (Cantor-Zassenhaus) takes an explicit random.Random
so callers control determinism.
"""

from __future__ import annotations

import random


def trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def from_int_coeffs(coeffs, m: int) -> list[int]:
    return trim([c % m for c in coeffs])


def deg(f: list[int]) -> int:
    return len(f) - 1


def add(f, g, m):
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = (out[i] + c) % m
    return trim(out)


def sub(f, g, m):
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = (out[i] - c) % m
    return trim(out)


def mul(f, g, m):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] += a * b
    return trim([c % m for c in out])


def scale(f, a, m):
    a %= m
    return trim([c * a % m for c in f])


def divmod_(f, g, m):
    """(q, r) with f = q*g + r and deg r < deg g, both canonical.

    Working down from the top of a copy of f, each coefficient at degree
    k >= deg g is overwritten by the quotient coefficient that clears it,
    so the list ends as q above r.  Nothing is trimmed in the loop, and r
    is reduced mod m once, at the end.  g = [] raises ZeroDivisionError,
    and a non-unit lc(g) raises ValueError as pow(lc, -1, m) does,
    whatever f is.
    """
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    inv = pow(g[-1], -1, m)
    dg = len(g) - 1
    r = list(f)
    if len(r) <= dg:
        return [], trim([c % m for c in r])
    low = g[:-1]
    for k in range(len(r) - 1, dg - 1, -1):
        c = r[k] = r[k] * inv % m
        if c:
            for i, b in enumerate(low, k - dg):
                r[i] -= c * b
    q = r[dg:]
    del r[dg:]
    return trim(q), trim([c % m for c in r])


def mod(f, g, m):
    """Remainder of f by g mod m, canonical (deg < deg g, no trailing zeros),
    with divmod_'s edge contract."""
    return divmod_(f, g, m)[1]


def monic(f, m):
    if not f:
        return f
    return scale(f, pow(f[-1], -1, m), m)


def gcd(f, g, p):
    """Monic gcd mod a prime p."""
    a, b = list(f), list(g)
    while b:
        a, b = b, mod(a, b, p)
    return monic(a, p)


def extended_gcd(f, g, p):
    """(d, s, t) monic with s*f + t*g = d mod prime p."""
    a, b = list(f), list(g)
    sa, sb = [1], []
    ta, tb = [], [1]
    while b:
        q, r = divmod_(a, b, p)
        a, b = b, r
        sa, sb = sb, sub(sa, mul(q, sb, p), p)
        ta, tb = tb, sub(ta, mul(q, tb, p), p)
    if not a:
        return [], [], []
    inv = pow(a[-1], -1, p)
    return scale(a, inv, p), scale(sa, inv, p), scale(ta, inv, p)


def pow_mod(f, e: int, g, m):
    """f**e mod (g, m), the canonical remainder (1 mod g when e = 0).

    g is made monic once, x**deg g + low, so x**deg g = -low mod g.
    Left-to-right binary exponentiation then squares once per bit of e and
    multiplies by f once per set bit; when f reduces to x that multiply is
    a shift, folded into the squaring.  Each product is reduced mod g in
    the loop that forms it, on a list of deg g coefficients.  The edge
    contract is divmod_'s: g = [] raises ZeroDivisionError and a non-unit
    lc(g) raises ValueError; so does e < 0.
    """
    if e < 0:
        raise ValueError("negative exponent")
    base = mod(f, g, m)
    if e == 0:
        return mod([1], g, m)
    if not base:
        return []
    dg = len(g) - 1
    inv = pow(g[-1], -1, m)
    low = [c * inv % m for c in g[:-1]]
    by_x = base == [0, 1]
    base += [0] * (dg - len(base))
    acc = base
    for bit in bin(e)[3:]:
        shift = 1 if bit == "1" and by_x else 0
        for step in range(2 if bit == "1" and not by_x else 1):
            # step 0 squares acc (times x when shift is 1); step 1
            # multiplies that fresh square, now in acc, by base
            b = base if step else acc
            prod = [0] * (2 * dg - 1 + shift)
            for i, a in enumerate(acc, shift):
                if a:
                    for j, t in enumerate(b, i):
                        prod[j] += a * t
            for k in range(len(prod) - 1, dg - 1, -1):
                c = prod[k] % m
                if c:
                    for i, t in enumerate(low, k - dg):
                        prod[i] -= c * t
            acc = [c % m for c in prod[:dg]]
    return trim(acc)


def splitting_degrees(f, p) -> list[int]:
    """Sorted degrees of the irreducible factors of squarefree f mod p
    (distinct_degree_split lists its blocks in increasing degree)."""
    degrees: list[int] = []
    for block, d in distinct_degree_split(monic(f, p), p):
        degrees += [d] * (deg(block) // d)
    return degrees


def distinct_degree_split(f, p):
    """[(product of irreducible factors of degree d, d), ...] for monic
    squarefree f mod p, in increasing d."""
    fs = list(f)
    out = []
    h = [0, 1]
    d = 0
    while deg(fs) >= 2 * (d + 1):
        d += 1
        h = pow_mod(h, p, fs, p)
        g = gcd(sub(h, [0, 1], p), fs, p)
        if deg(g) > 0:
            out.append((g, d))
            fs = divmod_(fs, g, p)[0]
            h = mod(h, fs, p)
    if deg(fs) > 0:
        out.append((fs, deg(fs)))  # one irreducible factor, monic as f is
    return out


def equal_degree_split(f, d: int, p: int, rng: random.Random):
    """Monic irreducible factors of f mod p, all of degree d (p odd)."""
    if deg(f) == d:
        return [monic(f, p)]
    n = deg(f)
    while True:
        a = trim([rng.randrange(p) for _ in range(n)])
        if deg(a) < 1:
            continue
        g = gcd(a, f, p)
        if 0 < deg(g) < n:
            break
        b = pow_mod(a, (p**d - 1) // 2, f, p)
        g = gcd(sub(b, [1], p), f, p)
        if 0 < deg(g) < n:
            break
    rest = divmod_(f, g, p)[0]
    return equal_degree_split(g, d, p, rng) + equal_degree_split(rest, d, p, rng)


def factor_squarefree_monic(f, p: int, rng: random.Random):
    """Monic irreducible factors of monic squarefree f mod odd prime p,
    in a deterministic order (sorted by degree then coefficients)."""
    out = []
    for block, d in distinct_degree_split(f, p):
        out.extend(equal_degree_split(block, d, p, rng))
    return sorted(out, key=lambda g: (deg(g), tuple(reversed(g))))
