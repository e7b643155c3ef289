"""Dense univariate polynomial arithmetic modulo an integer.

Polynomials are lists of coefficients in [0, m), lowest degree first, with
no trailing zeros ([] is the zero polynomial).  The modulus is a prime for
gcd/factoring routines and a prime power for Hensel lifting; divisions
only ever happen by polynomials whose leading coefficient is invertible.

Randomized splitting (Cantor-Zassenhaus) takes an explicit random.Random
so callers control determinism.
"""

from __future__ import annotations

import random

import numpy as np

from . import _kernels


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
    """(q, r) with f = q*g + r and deg r < deg g.  lc(g) must be a unit mod m."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    inv = pow(g[-1], -1, m)
    r = list(f)
    dg = deg(g)
    q = [0] * max(len(f) - dg, 0)
    while len(r) - 1 >= dg and r:
        c = r[-1] * inv % m
        k = len(r) - 1 - dg
        q[k] = c
        for i, b in enumerate(g):
            r[i + k] = (r[i + k] - c * b) % m
        trim(r)
    return trim(q), r


def mod(f, g, m):
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
    """f**e mod (g, m) by binary exponentiation."""
    result = [1 % m]
    base = mod(f, g, m)
    while e:
        if e & 1:
            result = mod(mul(result, base, m), g, m)
        e >>= 1
        if e:
            base = mod(mul(base, base, m), g, m)
    return result


def deriv(f, m):
    return trim([i * c % m for i, c in enumerate(f)][1:])


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


_BRUTE_ROOT_LIMIT = 1 << 15


def roots_mod_prime(coeffs, p: int) -> list[int]:
    """Sorted roots in [0, p) of the integer polynomial coeffs mod prime p.

    Exhaustive below a small bound (via the array kernels), gcd with
    x**p - x plus degree-1 splitting above it.
    """
    f = from_int_coeffs(coeffs, p)
    if not f:
        return list(range(p))
    if deg(f) == 0:
        return []
    if p <= _BRUTE_ROOT_LIMIT:
        arr = np.array(f, dtype=np.int64)
        return [int(r) for r in _kernels.poly_roots_mod(arr, p)]
    xp = pow_mod([0, 1], p, f, p)
    lin = gcd(sub(xp, [0, 1], p), f, p)
    if deg(lin) <= 0:
        return []
    rng = random.Random(p * 0x9E3779B1 ^ len(coeffs))
    roots = []
    stack = [lin]
    while stack:
        g = stack.pop()
        if deg(g) == 1:
            roots.append((-g[0]) * pow(g[1], -1, p) % p)
            continue
        while True:
            a = rng.randrange(p)
            b = pow_mod([a, 1], (p - 1) // 2, g, p)
            h = gcd(sub(b, [1], p), g, p)
            if 0 < deg(h) < deg(g):
                stack.append(h)
                stack.append(divmod_(g, h, p)[0])
                break
    return sorted(roots)
