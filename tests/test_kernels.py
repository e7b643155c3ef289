"""The numpy kernels against brute-force oracles in plain Python ints."""

import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fiberfields import _kernels, arith
from fiberfields.errors import UnfactoredResidualError

from conftest import oracle_is_prime


def test_active_backend_is_valid():
    assert _kernels.backend.name == "numpy"


@pytest.mark.parametrize("limit", [2, 3, 10, 97, 1000])
def test_prime_flags_agree(limit):
    flags = _kernels.prime_flags(limit)
    assert flags.tolist() == [oracle_is_prime(k) for k in range(limit + 1)]


def test_poly_roots_mod_agree():
    """Small cases, then degree up to 8 with m up to 3,000, where Horner
    reduces acc only when the next step could leave int64, on object
    coefficients beyond int64."""
    rng = random.Random(7)
    for _ in range(40):
        deg = rng.randint(0, 6)
        coeffs = np.array([rng.randint(-50, 50) for _ in range(deg + 1)], dtype=np.int64)
        m = rng.randint(2, 400)
        brute = [r for r in range(m) if sum(int(c) * r**i for i, c in enumerate(coeffs)) % m == 0]
        got = sorted(int(r) for r in _kernels.poly_roots_mod(coeffs, m))
        assert got == brute, (coeffs.tolist(), m)
    for _ in range(12):
        coeffs = [rng.randint(-(10**20), 10**20) for _ in range(rng.randint(1, 9))]
        m = rng.randint(400, 3000)
        brute = [r for r in range(m) if sum(c * r**i for i, c in enumerate(coeffs)) % m == 0]
        assert _kernels.poly_roots_mod(np.array(coeffs, dtype=object), m).tolist() == brute
    assert _kernels.poly_roots_mod(np.array([], dtype=np.int64), 5).tolist() == [0, 1, 2, 3, 4]


# q = 2 and 3, where x**q - x can divide h, primes past 2**14, and 65521,
# the largest below 2**16
TABLE_PRIMES = [q for q in range(2, 600) if oracle_is_prime(q)] + [16411, 40009, 65521]


@st.composite
def roots_table_cases(draw):
    """(coeffs, qs): h of degree 1-8, with a squared linear factor or not,
    and with lc(h), or every coefficient, divisible by one of the primes or
    not; coefficients beyond int64 on an object array.  qs holds 2 and 3."""
    wide = draw(st.booleans())
    bound = 10**25 if wide else 60
    square = draw(st.booleans())
    deg = draw(st.integers(1, 6 if square else 8))
    cs = draw(st.lists(st.integers(-bound, bound), min_size=deg + 1, max_size=deg + 1))
    cs[-1] = cs[-1] or 1
    if square:  # times (x - r)**2
        r = draw(st.integers(-9, 9))
        for _ in range(2):
            cs = [a - r * b for a, b in zip([0] + cs, cs + [0])]
    qs = sorted({2, 3} | set(draw(st.lists(st.sampled_from(TABLE_PRIMES), max_size=12))))
    q = draw(st.sampled_from(qs))
    divisible = draw(st.sampled_from(["none", "lc", "all"]))
    if divisible == "lc":
        cs[-1] *= q
    elif divisible == "all":
        cs = [c * q for c in cs]
    return np.array(cs, dtype=object if wide else np.int64), np.array(qs, dtype=np.int64)


@given(roots_table_cases())
@example((np.array([0, -1, 0, 1], dtype=np.int64), np.array([2, 3, 5], dtype=np.int64)))
@example((np.array([4, 0, 0, 0, 0, 0, 0, 0, 2], dtype=np.int64), np.array([2, 3], dtype=np.int64)))
@settings(max_examples=100, deadline=None)
def test_poly_roots_table_agrees_with_exhaustion(case):
    coeffs, qs = case
    assert _kernels.poly_roots_table(coeffs, qs) == [
        _kernels.poly_roots_mod(coeffs, q).tolist() for q in qs.tolist()
    ]


@pytest.mark.parametrize(
    "coeffs",
    [[0, -1, 0, 1], [2, 0, 0, 1], [7, 3, 0, 0, 1], [-(10**30), 1, 0, 0, 0, 0, 0, 0, 3]],
    ids=["x^3-x", "x^3+2", "x^4+3x+7", "degree-8"],
)
def test_poly_roots_table_over_the_trial_primes(coeffs):
    """Every prime up to arith.TRIAL_DIVISION_LIMIT at once, as the trial
    root table and the squarefree scan call it."""
    qs = np.array(arith.primes_up_to(arith.TRIAL_DIVISION_LIMIT), dtype=np.int64)
    arr = np.array(coeffs, dtype=object)
    assert _kernels.poly_roots_table(arr, qs) == [
        _kernels.poly_roots_mod(arr, q).tolist() for q in qs.tolist()
    ]


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


TRIAL_PRIMES = arith.primes_up_to(arith.TRIAL_DIVISION_LIMIT)


@st.composite
def scan_cases(draw):
    """(coeffs, n0, count, fixed): h of degree 1-4, times (x - r)**2 with
    r in the window or not (h(r) = 0, and a repeated root mod every q),
    lc(h) divisible by a trial prime or not, coefficients beyond int64
    (object arrays) or small, windows of 1-60 values, most of them
    shorter than most q, and fixed primes among the small ones."""
    wide = draw(st.booleans())
    bound = 10**25 if wide else 60
    deg = draw(st.integers(1, 4))
    cs = draw(st.lists(st.integers(-bound, bound), min_size=deg + 1, max_size=deg + 1))
    cs[-1] = cs[-1] or 1
    n0 = draw(st.integers(-50, 2000))
    count = draw(st.integers(1, 60))
    if draw(st.booleans()):
        r = draw(st.integers(n0 - 5, n0 + count + 5))
        for _ in range(2):
            cs = [a - r * b for a, b in zip([0] + cs, cs + [0])]
    if draw(st.booleans()):
        cs[-1] *= draw(st.sampled_from(TRIAL_PRIMES))
    fixed = draw(st.lists(st.sampled_from([2, 3, 5, 7, 11, 9973]), max_size=3, unique=True))
    return cs, n0, count, sorted(fixed)


@given(scan_cases())
@example(([2, 0, 0, 1], 1, 60, []))
@example(([0, -1, 0, 1], -3, 10, [2, 3]))  # h(-1) = h(0) = h(1) = 0
@example(([1, 0, 9973**2], 1, 5, [9973]))  # q | lc(h) for the largest q
@settings(max_examples=60, deadline=None)
def test_squarefree_scan_over_the_trial_primes_agrees(case):
    """All 1,229 trial primes at once, as the sieve calls it, against
    dividing each prime out with Python ints; int64 arrays wherever every
    value fits the sieve's int64 envelope, object arrays otherwise."""
    cs, n0, count, fixed = case
    bound = sum(abs(c) * (abs(n0) + count) ** i for i, c in enumerate(cs))
    arr = np.array(cs, dtype=np.int64 if bound < 1 << 62 else object)
    values = _kernels.eval_poly_range(arr, n0, count)
    np.absolute(values, out=values)
    flags = values != 0
    _kernels.squarefree_scan(
        arr, n0, values, flags,
        np.array(TRIAL_PRIMES, dtype=np.int64), np.array(fixed, dtype=np.int64),
    )
    assert (values.tolist(), flags.tolist()) == _scan_oracle(cs, n0, count, TRIAL_PRIMES, fixed)


def test_squarefree_scan_memory_is_bounded():
    """A 2**20-value int64 segment of x^3 + 2 has about 2.6 million hits;
    the scan takes them _HIT_BLOCK at a time, so its own allocations stay
    near a megabyte (the segment's values alone are 8 MB)."""
    coeffs = np.array([2, 0, 0, 1], dtype=np.int64)
    values = _kernels.eval_poly_range(coeffs, 1, 1 << 20)
    flags = values != 0
    primes = np.array(TRIAL_PRIMES, dtype=np.int64)
    tracemalloc.start()
    try:
        _kernels.squarefree_scan(coeffs, 1, values, flags, primes, np.array([], dtype=np.int64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 << 20, peak


LANE_LIMIT = _kernels.LANES_BELOW


@st.composite
def mulmod_cases(draw):
    n = draw(st.integers(1, LANE_LIMIT - 1))
    edge = st.sampled_from([0, n - 1])
    operand = st.one_of(edge, st.integers(0, n - 1))
    return n, [(draw(operand), draw(operand)) for _ in range(draw(st.integers(1, 8)))]


@given(mulmod_cases())
@example((LANE_LIMIT - 1, [(LANE_LIMIT - 2, LANE_LIMIT - 2), (0, LANE_LIMIT - 2), (1, 1)]))
@example((1, [(0, 0)]))
@settings(max_examples=300, deadline=None)
def test_mulmod_agrees_with_python_ints(case):
    """Exact up to the edge of the lane envelope; a numpy overflow warning
    would fail the test.  The int64 products wrap by design, silently."""
    n, pairs = case
    a = np.array([x for x, _ in pairs], dtype=np.int64)
    b = np.array([y for _, y in pairs], dtype=np.int64)
    ns = np.full(len(pairs), n, dtype=np.int64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _kernels.mulmod(a, b, ns, 1.0 / ns)
    assert got.tolist() == [x * y % n for x, y in pairs]


def test_mulmod_near_the_envelope_takes_both_corrections():
    """10^5 random products mod n in [2**49, LANES_BELOW), where the float
    quotient errs both ways."""
    rng = random.Random(19)
    ns = np.array([rng.randrange(2**49, LANE_LIMIT) for _ in range(100)] * 1000, dtype=np.int64)
    a = np.array([rng.randrange(n) for n in ns.tolist()], dtype=np.int64)
    b = np.array([rng.randrange(n) for n in ns.tolist()], dtype=np.int64)
    estimate = (a * (1.0 / ns) * b).astype(np.int64)
    rows = list(zip(a.tolist(), b.tolist(), estimate.tolist(), ns.tolist()))
    assert any(x * y < e * n for x, y, e, n in rows)
    assert any(x * y - e * n >= n for x, y, e, n in rows)
    got = _kernels.mulmod(a, b, ns, 1.0 / ns)
    assert got.tolist() == [x * y % n for x, y, n in zip(a.tolist(), b.tolist(), ns.tolist())]


@st.composite
def rho_step_cases(draw):
    n = draw(st.integers(2**49, LANE_LIMIT - 1))
    operand = st.one_of(st.sampled_from([0, n - 1]), st.integers(0, n - 1))
    return n, [(draw(operand), draw(operand)) for _ in range(draw(st.integers(1, 8)))]


@given(rho_step_cases())
@example((LANE_LIMIT - 1, [(LANE_LIMIT - 2, LANE_LIMIT - 2), (0, 0), (LANE_LIMIT - 2, 0)]))
@example((2**49, [(2**49 - 1, 2**49 - 1), (0, 2**49 - 1)]))
@settings(max_examples=300, deadline=None)
def test_fused_rho_step_agrees_with_python_ints(case):
    """(y*y + c) mod n in one reduction, for y, c in {0, n - 1, random}
    at the top of the lane envelope, without a numpy overflow warning."""
    n, pairs = case
    y = np.array([a for a, _ in pairs], dtype=np.int64)
    c = np.array([b for _, b in pairs], dtype=np.int64)
    ns = np.full(len(pairs), n, dtype=np.int64)
    ninv = 1.0 / ns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _kernels._rho_step(y, c, ns, ninv, c * ninv)
    assert got.tolist() == [(a * a + b) % n for a, b in pairs]


def test_fused_rho_step_near_the_envelope_takes_both_corrections():
    """10^5 random steps mod n in [2**49, LANES_BELOW), where the float
    quotient errs both ways."""
    rng = random.Random(23)
    ns = np.array([rng.randrange(2**49, LANE_LIMIT) for _ in range(100)] * 1000, dtype=np.int64)
    y = np.array([rng.randrange(n) for n in ns.tolist()], dtype=np.int64)
    c = np.array([rng.randrange(n) for n in ns.tolist()], dtype=np.int64)
    ninv = 1.0 / ns
    estimate = (y * ninv * y + c * ninv).astype(np.int64)
    rows = list(zip(y.tolist(), c.tolist(), estimate.tolist(), ns.tolist()))
    assert any(a * a + b < e * n for a, b, e, n in rows)
    assert any(a * a + b - e * n >= n for a, b, e, n in rows)
    got = _kernels._rho_step(y, c, ns, ninv, c * ninv)
    assert got.tolist() == [(a * a + b) % n for a, b, _, n in rows]


def test_the_remainder_bound_holds_at_the_envelope():
    """The bound of mulmod's and _rho_step's docstrings, in integers: the
    true remainder is below (8 * 2**-53 * n + 1) * n < 2**63 in size for
    every n up to LANES_BELOW.  And the lanes of arith._are_prime stay
    below psi_9, the last Miller-Rabin row they read, and above psi_7."""
    assert (8 * LANE_LIMIT + 2**53) * LANE_LIMIT <= (2**62 + 2**56) * 2**53 < 2**63 * 2**53
    psi = [psi for psi, _ in arith._MR_THRESHOLDS]
    assert psi[6] < LANE_LIMIT < psi[7]


@st.composite
def top_of_the_envelope_cases(draw, signed):
    """n in [2**55, LANES_BELOW) and operands 0, n - 1, n - 2 or random,
    negated at random when signed."""
    n = draw(st.integers(2**55, LANE_LIMIT - 1))
    operand = st.one_of(st.sampled_from([0, n - 1, n - 2]), st.integers(0, n - 1))
    if signed:
        operand = st.tuples(operand, st.booleans()).map(lambda vs: -vs[0] if vs[1] else vs[0])
    return n, [(draw(operand), draw(operand)) for _ in range(draw(st.integers(1, 8)))]


@given(top_of_the_envelope_cases(signed=True))
@example((LANE_LIMIT - 1, [(LANE_LIMIT - 2, LANE_LIMIT - 2), (2 - LANE_LIMIT, LANE_LIMIT - 3)]))
@example((2**55, [(2**55 - 1, 2**55 - 1), (1 - 2**55, 1 - 2**55), (0, 2 - 2**55)]))
@settings(max_examples=300, deadline=None)
def test_mulmod_at_the_top_of_the_envelope_agrees_with_python_ints(case):
    """Products of operands below n in size, the tree's signed x - y
    included, land in [0, n) as Python's % puts them."""
    n, pairs = case
    a = np.array([x for x, _ in pairs], dtype=np.int64)
    b = np.array([y for _, y in pairs], dtype=np.int64)
    ns = np.full(len(pairs), n, dtype=np.int64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _kernels.mulmod(a, b, ns, 1.0 / ns)
    assert got.tolist() == [x * y % n for x, y in pairs]


@given(top_of_the_envelope_cases(signed=False))
@example((LANE_LIMIT - 1, [(LANE_LIMIT - 2, LANE_LIMIT - 2), (LANE_LIMIT - 3, LANE_LIMIT - 3)]))
@example((2**55, [(2**55 - 1, 2**55 - 1), (2**55 - 2, 0), (0, 2**55 - 2)]))
@settings(max_examples=300, deadline=None)
def test_fused_rho_step_at_the_top_of_the_envelope_agrees_with_python_ints(case):
    n, pairs = case
    y = np.array([a for a, _ in pairs], dtype=np.int64)
    c = np.array([b for _, b in pairs], dtype=np.int64)
    ns = np.full(len(pairs), n, dtype=np.int64)
    ninv = 1.0 / ns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _kernels._rho_step(y, c, ns, ninv, c * ninv)
    assert got.tolist() == [(a * a + b) % n for a, b in pairs]


def test_the_kernels_write_into_out_in_place():
    """out may be the first operand: the lockstep loops step y and
    multiply into q in place."""
    rng = random.Random(29)
    ns = [rng.randrange(2**55, LANE_LIMIT) for _ in range(64)]
    a = [rng.randrange(n) for n in ns]
    b = [rng.randrange(n) for n in ns]
    n = np.array(ns, dtype=np.int64)
    x = np.array(a, dtype=np.int64)
    assert _kernels.mulmod(x, np.array(b, dtype=np.int64), n, 1.0 / n, out=x) is x
    assert x.tolist() == [u * v % m for u, v, m in zip(a, b, ns)]
    y, c = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
    assert _kernels._rho_step(y, c, n, 1.0 / n, c * (1.0 / n), out=y) is y
    assert y.tolist() == [(u * u + v) % m for u, v, m in zip(a, b, ns)]


@pytest.mark.parametrize("rows", [1, 2, 3, 7, 16, 17])
def test_product_mod_is_the_product_of_the_rows(rows):
    """The pairwise tree of brent_rho_lanes, odd row counts included."""
    rng = random.Random(rows)
    ns = [rng.randrange(2, LANE_LIMIT) for _ in range(50)]
    d = [[rng.randrange(n) for n in ns] for _ in range(rows)]
    n = np.array(ns, dtype=np.int64)
    got = _kernels._product_mod(np.array(d, dtype=np.int64), n, 1.0 / n)
    assert got.tolist() == [math.prod(col) % m for col, m in zip(zip(*d), ns)]


@st.composite
def prp_lanes(draw):
    """(n, a) lanes: odd 37 < n < LANES_BELOW, some prime, some with a long
    chain of 2s in n - 1, and prime bases a, some dividing n."""
    odd = st.integers(19, LANE_LIMIT // 2 - 1).map(lambda k: 2 * k + 1)
    chain = st.tuples(st.integers(1, 45), st.integers(0, 31)).map(
        lambda sk: (2 * sk[1] + 1) * 2 ** sk[0] + 1
    )
    ns = draw(st.lists(st.one_of(odd, chain, odd.map(sympy.nextprime)), min_size=1, max_size=16))
    bases = st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37])
    return [(n, draw(bases)) for n in ns if 37 < n < LANE_LIMIT]


@given(prp_lanes())
@settings(max_examples=300, deadline=None)
def test_strong_probable_primes_agree_with_the_scalar_round(lanes):
    """Each lane decides as arith._miller_rabin_round on its own n and a."""
    n = np.array([x for x, _ in lanes], dtype=np.int64)
    a = np.array([y for _, y in lanes], dtype=np.int64)
    want = []
    for x, y in lanes:
        d, s = x - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        want.append(arith._miller_rabin_round(x, y, d, s))
    assert _kernels.strong_probable_primes(n, a).tolist() == want


def _semiprimes(seed, count, low, high):
    rng = random.Random(seed)

    def prime():
        while not oracle_is_prime(v := rng.randrange(low, high)):
            pass
        return v

    return [prime() * prime() for _ in range(count)]


def _scalar_rho(n, limit, lane=None, spent=0):
    """(factor, steps spent) from arith._brent_rho, or None on overrun."""
    budget = arith._Budget(limit)
    budget.left -= spent
    try:
        d = arith._brent_rho(n, budget, lane)
    except UnfactoredResidualError:
        return None
    return d, limit - budget.left


def _wide_semiprimes(seed, count):
    """Semiprimes in [2**50, 2**54), one factor within 10**6 below 2**28,
    the other in [2**22 + 2**20, 2**26)."""
    rng = random.Random(seed)
    return [
        sympy.prevprime(2**28 - rng.randrange(10**6))
        * sympy.nextprime(rng.randrange(2**22 + 2**20, 2**26))
        for _ in range(count)
    ]


# Lanes above 2**50: the gcd of a block is n on the first two (16,002,601
# and 11,096,081 times primes near 2**28), and the last is the product of
# the two largest primes below 2**28, near the top of the lanes.
_WIDE_LANES = (
    [4_283_150_838_537_617, 2_968_976_051_896_909]
    + _wide_semiprimes(5, 24)
    + [268_435_399 * 268_435_367]
)


# counts: lanes handed back to the scalar loop, factors found in the
# kernel, and overruns.  With hand_off = 0 only lanes whose gcd was n come
# back; with hand_off past the lane count every lane does, after round 1.
@pytest.mark.parametrize(
    "hand_off, limit, counts",
    [
        (0, 10**7, (17, 311, 0)),
        (48, 10**7, (56, 272, 0)),
        (48, 3000, (11, 239, 78)),
        (48, 400, (0, 20, 308)),
        (10**6, 10**7, (328, 0, 0)),
    ],
)
def test_lockstep_rho_agrees_lane_by_lane(hand_off, limit, counts):
    """Every lane finds the factor scalar rho finds, after the same steps,
    or overruns where scalar rho overruns, whether it finished in the
    kernel or was resumed by the scalar loop, below 2**50 and above it."""
    # the last lane below 2**50 is a product of the two largest primes
    # below 2**25
    ns = _semiprimes(3, 300, 10**4, 3 * 10**6) + [33_554_393 * 33_554_383] + _WIDE_LANES
    assert all(2**50 <= n < _kernels.LANES_BELOW for n in _WIDE_LANES)
    seeds = [random.Random(n) for n in ns]
    ys = [rng.randrange(1, n) for rng, n in zip(seeds, ns)]
    cs = [rng.randrange(1, n) for rng, n in zip(seeds, ns)]
    found, spent, lanes = _kernels.brent_rho_lanes(ns, ys, cs, limit, arith._RHO_BLOCK, hand_off)
    handed = 0
    for n, d, s, lane in zip(ns, found, spent, lanes):
        want = _scalar_rho(n, limit)
        if lane is not None:
            handed += 1
            assert _scalar_rho(n, limit, lane, s) == want, n
        elif d:
            assert (d, s) == want, n
        else:
            assert want is None, n
    assert (handed, sum(map(bool, found)), found.count(0) - handed) == counts
