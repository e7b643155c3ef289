"""The numpy kernels against brute-force oracles in plain Python ints."""

import random

import numpy as np
import pytest

from fiberfields import _kernels

from conftest import oracle_is_prime


def test_active_backend_is_valid():
    assert _kernels.backend.name == "numpy"


@pytest.mark.parametrize("limit", [2, 3, 10, 97, 1000])
def test_prime_flags_agree(limit):
    flags = _kernels.prime_flags(limit)
    assert flags.tolist() == [oracle_is_prime(k) for k in range(limit + 1)]


def test_poly_roots_mod_agree():
    rng = random.Random(7)
    for _ in range(40):
        deg = rng.randint(0, 6)
        coeffs = np.array([rng.randint(-50, 50) for _ in range(deg + 1)], dtype=np.int64)
        m = rng.randint(2, 400)
        brute = [r for r in range(m) if sum(int(c) * r**i for i, c in enumerate(coeffs)) % m == 0]
        got = sorted(int(r) for r in _kernels.poly_roots_mod(coeffs, m))
        assert got == brute, (coeffs.tolist(), m)


@pytest.mark.parametrize("dtype, scale", [(np.int64, 1), (object, 10**20)], ids=["int64", "object"])
def test_poly_roots_mod_below_stop_agree(dtype, scale):
    """Large moduli and degrees, where Horner reduces acc only when the
    next step could leave int64, and object coefficients beyond int64."""
    rng = random.Random(13)
    for _ in range(40):
        deg = rng.randint(0, 8)
        coeffs = [rng.randint(-50 * scale, 50 * scale) for _ in range(deg + 1)]
        m = rng.choice([rng.randint(2, 400), rng.randint(400, 10**4), 3_037_000_493])
        stop = rng.randint(1, 300)
        brute = [
            r for r in range(min(m, stop)) if sum(c * r**i for i, c in enumerate(coeffs)) % m == 0
        ]
        got = _kernels.poly_roots_mod(np.array(coeffs, dtype=dtype), m, stop)
        assert got.tolist() == brute, (coeffs, m, stop)
    assert _kernels.poly_roots_mod(np.array([], dtype=np.int64), 5).tolist() == [0, 1, 2, 3, 4]


def test_linear_roots_mod_agree():
    """The root of b*x + c mod each prime, against pow(b, -1, q) in Python
    ints: b = +-1 and other b, q dividing b, |b| and |c| beyond int64, and
    primes up to just below 2**31."""
    rng = random.Random(17)
    qs = np.array(
        [q for q in range(2, 3000) if oracle_is_prime(q)] + [10007, 999_983, 2_147_483_647],
        dtype=np.int64,
    )
    for _ in range(40):
        b = rng.choice([1, -1, rng.randint(-60, 60) or 7, 10007 * rng.randint(1, 9),
                        rng.randint(-(10**30), 10**30)])
        c = rng.choice([rng.randint(-60, 60), rng.randint(-(10**40), 10**40)])
        want = [-1 if b % q == 0 else -c * pow(b, -1, q) % q for q in qs.tolist()]
        assert _kernels.linear_roots_mod(b, c, qs).tolist() == want, (b, c)


def test_eval_poly_range_agree():
    coeffs = np.array([3, -2, 0, 1], dtype=np.int64)
    vals = _kernels.eval_poly_range(coeffs, -5, 11)
    expected = [n**3 - 2 * n + 3 for n in range(-5, 6)]
    assert vals.tolist() == expected


def _scan_oracle(coeffs, n0, count, primes, fixed):
    """Cofactors and flags of squarefree_scan, by dividing each q fully
    out of |h(n)| with Python ints."""
    cofactors, flags = [], []
    for n in range(n0, n0 + count):
        v = abs(sum(c * n**i for i, c in enumerate(coeffs)))
        ok = v != 0
        for q in primes:
            e = 0
            while v and v % q == 0:
                v //= q
                e += 1
            if e >= 2 and q not in fixed:
                ok = False
        cofactors.append(v)
        flags.append(ok)
    return cofactors, flags


@pytest.mark.parametrize(
    "dtype, scale",
    [(np.int64, 1), (object, 10**20)],  # object arrays hold values beyond int64
    ids=["int64", "object"],
)
def test_squarefree_scan_agree(dtype, scale):
    rng = random.Random(11)
    primes = [2, 3, 5, 7, 11, 13]
    for _ in range(20):
        deg = rng.randint(1, 4)
        coeffs = [rng.randint(-9 * scale, 9 * scale) for _ in range(deg)] + [rng.randint(1, 9)]
        n0 = rng.randint(1, 50)
        count = rng.randint(1, 200)
        fixed = sorted(rng.sample([2, 3, 5], rng.randint(0, 2)))
        arr = np.array(coeffs, dtype=dtype)
        values = _kernels.eval_poly_range(arr, n0, count)
        assert values.dtype == arr.dtype
        np.absolute(values, out=values)
        flags = values != 0
        _kernels.squarefree_scan(
            arr, n0, values, flags,
            np.array(primes, dtype=np.int64), np.array(fixed, dtype=np.int64),
        )
        want = _scan_oracle(coeffs, n0, count, primes, fixed)
        assert (values.tolist(), flags.tolist()) == want, (coeffs, n0, count, fixed)
