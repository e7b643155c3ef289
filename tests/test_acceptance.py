"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see every line.  All
tolerances are pinned here.  The rank-growth clause of criterion 4,
r(10^3)/10^3 >= 0.5, is held on a cover with a nonrational branch point,
the hypothesis under which linear rank growth is expected.  On
y^2 = x^3 - x every branch point is rational and each value n^3 - n is
(N+1)-smooth, so the F_2-rank is capped by pi(N+1) + 1 (169 at N = 1000);
that cover is instead pinned to an exact oracle rank and to the cap.
"""

import bisect
import json
import random
import time
from fractions import Fraction

import pytest

import fiberfields as ff
from fiberfields import arith, cli, diversity
from fiberfields.diversity import _radical_minpoly
from fiberfields.polyring import IntPoly

from conftest import poly

CUBIC = "y^2 - (x^3 - x)"


def gate(criterion: str, ok: bool, detail: str = ""):
    print(f"[ACCEPTANCE] criterion {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -- independent brute-force factorization for the oracle passes -------------

_ORACLE_PRIMES = None


def oracle_primes():
    global _ORACLE_PRIMES
    if _ORACLE_PRIMES is None:
        limit = 10_002
        flags = bytearray([1]) * (limit + 1)
        flags[0] = flags[1] = 0
        for p in range(2, int(limit**0.5) + 1):
            if flags[p]:
                flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
        _ORACLE_PRIMES = [i for i, f in enumerate(flags) if f]
    return _ORACLE_PRIMES


def oracle_full_factor(m: int) -> dict[int, int]:
    """Trial division by a locally sieved prime list; complete for inputs
    whose prime factors stay below 10^4 (true for n^3 - n with n <= 10^4)."""
    out: dict[int, int] = {}
    m = abs(m)
    for p in oracle_primes():
        if p * p > m:
            break
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def oracle_kernel(m: int) -> int:
    k = 1 if m > 0 else -1
    for p, e in oracle_full_factor(m).items():
        if e % 2:
            k *= p
    return k


def oracle_f2_ranks(values) -> list[int]:
    """Prefix ranks over F_2 of the square classes of `values`.  A nonzero
    value is the set of primes dividing it to an odd power, plus -1 when
    it is negative; a zero (a branch fiber) adds no row.  Rows reduce
    against a basis keyed by their largest element."""
    basis: dict[int, set[int]] = {}
    ranks = []
    for v in values:
        if v:
            row = {q for q, e in oracle_full_factor(v).items() if e % 2}
            if v < 0:
                row.add(-1)
            while row:
                top = max(row)
                if top not in basis:
                    basis[top] = row
                    break
                row = row ^ basis[top]
        ranks.append(len(basis))
    return ranks


@pytest.fixture(scope="module")
def cubic_cover():
    return ff.cover_from_text(CUBIC)


@pytest.fixture(scope="module")
def weak_exact_1e4(cubic_cover):
    t0 = time.perf_counter()
    rep = ff.weak_diversity_count(cubic_cover, 10_000, "exact-kummer")
    return rep, time.perf_counter() - t0


# ---------------------------------------------------------------------------


def test_criterion_01_oracle_equivalence(weak_exact_1e4):
    rep, engine_seconds = weak_exact_1e4
    t0 = time.perf_counter()
    kernels = {oracle_kernel(n**3 - n) for n in range(2, 10_001)}
    oracle_seconds = time.perf_counter() - t0
    total = engine_seconds + oracle_seconds
    ok = rep.distinct == len(kernels) and total <= 60.0
    gate(
        "1",
        ok,
        f"exact D(10^4) = {rep.distinct}, oracle distinct kernels = {len(kernels)}, "
        f"runtime {total:.1f}s (limit 60s)",
    )


def test_criterion_02_weak_diversity_trend(cubic_cover, weak_exact_1e4):
    rep4, _ = weak_exact_1e4
    rep3 = ff.weak_diversity_count(cubic_cover, 1_000, "exact-kummer")
    ok = rep3.ratio >= 0.2 and rep4.ratio >= 0.2
    gate(
        "2",
        ok,
        f"D(10^3)/10^3 = {rep3.ratio:.4f}, D(10^4)/10^4 = {rep4.ratio:.4f} (floor 0.2, "
        "confirmed by the criterion-1 oracle)",
    )


def test_criterion_03_lower_bound_chain():
    rng = random.Random(20260809)
    built = 0
    violations = 0
    while built < 10:
        p = rng.choice([2, 3, 5])
        deg = rng.randint(1, 5)
        g = IntPoly([rng.randint(-20, 20) for _ in range(deg)] + [rng.randint(1, 20)])
        try:
            cover = ff.normalize_cyclic(p, g)
        except ff.DomainError:
            continue
        built += 1
        exact = ff.weak_diversity_count(cover, 1000, "exact-kummer")
        ram = ff.weak_diversity_count(cover, 1000, "ramified-set")
        assert len(exact.series) == len(ram.series) == 1000
        violations += sum(1 for r, e in zip(ram.series, exact.series) if r > e)
    gate("3", violations == 0, f"10 covers, N = 10^3, prefix violations = {violations}")


def test_criterion_04_kummer_degree_law_oracle(cubic_cover):
    # part one: g = x, N = 8, exhaustive subset-product enumeration
    ident = ff.normalize_cyclic(2, poly("x"))
    rep8 = ff.strong_diversity_rank(ident, 8)
    classes = set()
    for mask in range(1 << 8):
        prod = 1
        for i in range(8):
            if mask >> i & 1:
                prod *= i + 1
        classes.add(oracle_kernel(prod))
    ok_a = 2**rep8.rank == len(classes)

    # the same confirmation at small N on the acceptance cover
    rep10 = ff.strong_diversity_rank(cubic_cover, 10)
    values = [n**3 - n for n in range(2, 11)]
    classes10 = set()
    for mask in range(1 << len(values)):
        prod = 1
        for i, v in enumerate(values):
            if mask >> i & 1:
                prod *= v
        classes10.add(oracle_kernel(prod))
    ok_b = 2**rep10.rank == len(classes10)
    gate(
        "4 (degree law oracle)",
        ok_a and ok_b,
        f"2^r(8) = {2**rep8.rank} vs {len(classes)} subset classes; "
        f"cover at N = 10: 2^r = {2**rep10.rank} vs {len(classes10)}",
    )


def test_criterion_04_rank_growth_as_stated(cubic_cover):
    """The rank-growth clause of criterion 4: r(10^3)/10^3 >= 0.5 when the
    cover has a nonrational branch point.  (a) On criterion 10's cover
    y^2 = x^2 - 2 the floor must hold and the rank series must equal the
    oracle's.  (b) On y^2 = x^3 - x every branch point is rational and
    n^3 - n = (n-1)n(n+1) > 0 has only prime factors <= n + 1, so
    r(n) <= pi(n+1) + 1 (169 at n = 1000) and the floor is unreachable;
    there each prefix must stay under that cap and the rank series must
    equal the oracle's.  CHANGES.md records why the clause was narrowed."""
    N = 1000
    sqrt2 = ff.cover_from_text("y^2 - (x^2 - 2)")
    nonrational_a, _ = ff.has_nonrational_branch_point(sqrt2)
    rep_a = ff.strong_diversity_rank(sqrt2, N)
    oracle_a = oracle_f2_ranks(n * n - 2 for n in range(1, N + 1))
    ratio = rep_a.rank / N
    gate(
        "4 (rank growth, nonrational branch point)",
        nonrational_a and ratio >= 0.5 and list(rep_a.ranks) == oracle_a,
        f"y^2=x^2-2: nonrational={nonrational_a}, r(10^3) = {rep_a.rank}, "
        f"oracle {oracle_a[-1]}, ratio {ratio:.3f} (floor 0.5)",
    )

    nonrational_b, _ = ff.has_nonrational_branch_point(cubic_cover)
    rep_b = ff.strong_diversity_rank(cubic_cover, N)
    oracle_b = oracle_f2_ranks(n**3 - n for n in range(1, N + 1))
    caps = [bisect.bisect_right(oracle_primes(), n + 1) + 1 for n in range(1, N + 1)]
    over_cap = [n for n, (r, cap) in enumerate(zip(rep_b.ranks, caps), start=1) if r > cap]
    gate(
        "4 (rank cap, all branch points rational)",
        not nonrational_b and list(rep_b.ranks) == oracle_b and not over_cap,
        f"y^2=x^3-x: nonrational={nonrational_b}, r(10^3) = {rep_b.rank}, "
        f"oracle {oracle_b[-1]}, cap pi(1001)+1 = {caps[-1]}, "
        f"prefixes over the cap = {len(over_cap)}",
    )


def test_criterion_05_norm_collision_bound():
    rng = random.Random(5)
    t0 = time.perf_counter()
    violations = 0
    for _ in range(50):
        deg = rng.randint(1, 6)
        coeffs = [rng.randint(-50, 50) for _ in range(deg)]
        lc = rng.choice([c for c in range(-50, 51) if c])
        h = IntPoly(coeffs + [lc])
        mult, _ = ff.norm_collision_check(h, 10_000)
        if mult > 2 * h.degree:
            violations += 1
    elapsed = time.perf_counter() - t0
    gate(
        "5",
        violations == 0 and elapsed <= 30.0,
        f"50 polynomials, N = 10^4, violations = {violations}, runtime {elapsed:.1f}s (limit 30s)",
    )


def _is_pth_power_rational(fr: Fraction, p: int) -> bool:
    if fr == 0:
        return False
    if p == 2 and fr < 0:
        return False
    num, den = abs(fr.numerator), fr.denominator
    r, s = arith.introot(num, p), arith.introot(den, p)
    return r**p == num and s**p == den


def test_criterion_06_radical_classification():
    mismatches = 0
    pairs = 0
    collision_pairs = 0
    distinct_pairs = 0
    soundness_failures = 0
    for p in (2, 3):
        values = [a for a in range(2, 201) if not _is_pth_power_rational(Fraction(a), p)]
        classes = {a: ff.radical_class(a, p) for a in values}
        fps = {
            a: ff.field_fingerprint(_radical_minpoly(p, a), 100) for a in values
        }
        for i, a in enumerate(values):
            for b in values[i:]:
                pairs += 1
                oracle = any(
                    _is_pth_power_rational(Fraction(b) / Fraction(a) ** j, p)
                    for j in range(1, p)
                )
                if oracle != ff.radical_fields_isomorphic(a, b, p):
                    mismatches += 1
                if classes[a].key() == classes[b].key():
                    if fps[a] != fps[b]:
                        soundness_failures += 1
                else:
                    distinct_pairs += 1
                    if fps[a] == fps[b]:
                        collision_pairs += 1
    collision_rate = collision_pairs / max(distinct_pairs, 1)
    ok = mismatches == 0 and soundness_failures == 0 and collision_rate < 0.01
    gate(
        "6",
        ok,
        f"{pairs} pairs, twist-oracle mismatches = {mismatches}, "
        f"equal-class fingerprint failures = {soundness_failures}, "
        f"fingerprint collisions on distinct classes = {collision_pairs} "
        f"({100 * collision_rate:.3f}% < 1%)",
    )


def test_criterion_07_squarefree_density_unconditional():
    h = poly("x^2 + 1")
    t0 = time.perf_counter()
    prediction = ff.euler_density(h, 10_000)  # the prediction oracle, first
    report = ff.squarefree_value_count(h, 1_000_000, euler_bound=10_000)
    elapsed = time.perf_counter() - t0
    gap = abs(report.empirical_density - float(prediction))
    ok = gap < 0.01 and elapsed <= 300.0
    gate(
        "7",
        ok,
        f"empirical {report.empirical_density:.6f} vs Euler {float(prediction):.6f}, "
        f"|gap| = {gap:.6f} < 0.01, runtime {elapsed:.1f}s (limit 300s)",
    )


def test_criterion_08_exact_order_prime_counter():
    g = poly("x^2 + 1")
    details = []
    ok = True
    for n in (100, 1000):
        count, ratio = ff.exact_order_prime_ratio(g, n)
        # direct factorization oracle confirming the frozen floor
        expected = set()
        for m in range(1, n + 1):
            for q, e in arith.factor(m * m + 1).factors:
                if e == 1 and q >= n:
                    expected.add(q)
        ok = ok and count == len(expected) and ratio >= Fraction(1, 2)
        details.append(f"n={n}: count={count} ratio={float(ratio):.3f}")
    gate("8", ok, "; ".join(details) + " (floor 0.5)")


def test_criterion_09_divisibility_ladder():
    rng = random.Random(99)
    basis = [poly("x"), poly("x + 1"), poly("x - 1"), poly("2x + 1"),
             poly("x^2 + 1"), poly("3x - 2")]
    violations = 0
    built = 0
    while built < 20:
        p = rng.choice([2, 3, 5])
        chosen = rng.sample(basis, rng.randint(1, 3))
        mults = [rng.randint(1, p - 1) for _ in chosen]
        g = IntPoly((rng.choice([1, 2, 5]),))
        for f, e in zip(chosen, mults):
            g = g * f.pow(e)
        if g.degree < 1:
            continue
        built += 1
        h = ff.radical(g)
        c = 1
        for f, e in zip(chosen, mults):
            c *= f.lc ** (e - 1)
        for n in range(1, 201):
            gn, hn = g(n), h(n)
            if gn == 0:
                continue
            if (c * gn) % hn != 0 or (c * hn ** (p - 1)) % gn != 0:
                violations += 1
    gate("9", violations == 0, f"20 covers, n <= 200, violations = {violations}")


def test_criterion_10_hypothesis_checkers():
    sqrt2 = ff.cover_from_text("y^2 - (x^2 - 2)")
    flag_a, _ = ff.has_nonrational_branch_point(sqrt2)
    inf_a = ff.points_over_infinity(sqrt2)

    cubic_root = ff.cover_from_text("y^3 - (x^3 - 2)")
    inf_b = ff.points_over_infinity(cubic_root)

    neither = ff.cover_from_text(CUBIC)
    flag_c, _ = ff.has_nonrational_branch_point(neither)
    inf_c = ff.points_over_infinity(neither)

    ok = flag_a and inf_a < 3 and inf_b == 3 and not flag_c and inf_c < 3
    gate(
        "10",
        ok,
        f"y^2=x^2-2: nonrational={flag_a}; y^3=x^3-2: points over infinity={inf_b}; "
        f"y^2=x^3-x: nonrational={flag_c}, points over infinity={inf_c}",
    )


def test_criterion_11_determinism(tmp_path):
    configs = [
        ["weak-diversity", "--cover", CUBIC, "--N", "10000", "--method", "exact"],
        ["strong-diversity", "--cover", CUBIC, "--N", "1000"],
    ]
    ok = True
    details = []
    for args in configs:
        blobs = []
        for jobs in ("1", "4", "16"):
            out = tmp_path / f"{args[0]}-{jobs}.json"
            status = cli.main(args + ["--jobs", jobs, "--out", str(out)])
            assert status == 0
            blobs.append(out.read_bytes())
        identical = blobs[0] == blobs[1] == blobs[2]
        ok = ok and identical
        details.append(f"{args[0]}: byte-identical across jobs 1/4/16 = {identical}")
    gate("11", ok, "; ".join(details))
