"""Hot numeric loops: prime sieving, brute-force polynomial roots mod m,
and the squarefree division scan over polynomial value ranges.

The root and prime kernels work on int64 arrays.  eval_poly_range and
squarefree_scan follow the dtype of the coefficient array: int64 when the
caller has checked that every value fits the int64 envelope, object arrays
of Python ints outside it (see sieve.squarefree_value_count).
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


def _horner_mod(coeffs: np.ndarray, xs: np.ndarray, m: int) -> np.ndarray:
    acc = np.zeros(xs.shape[0], dtype=np.int64)
    for k in range(coeffs.shape[0] - 1, -1, -1):
        acc = (acc * xs + coeffs[k] % m) % m
    return acc


def poly_roots_mod(coeffs: np.ndarray, m: int) -> np.ndarray:
    """All r in [0, m) with f(r) = 0 mod m, by exhaustion.  Needs m*m < 2**63."""
    xs = np.arange(m, dtype=np.int64)
    return xs[_horner_mod(coeffs, xs, m) == 0]


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
