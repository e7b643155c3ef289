"""Hot numeric loops: prime sieving, brute-force polynomial roots mod m,
the roots of a linear polynomial mod many primes at once, and the
squarefree division scan over polynomial value ranges.

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
