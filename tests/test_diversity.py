import dataclasses
import itertools
import random

import pytest

from fiberfields import diversity
from fiberfields.covers import cover_from_text, normalize_cyclic, plane_cover
from fiberfields.diversity import (
    FpRowReducer,
    compare_methods,
    norm_collision_check,
    ramified_excluded_primes,
    strong_diversity_rank,
    weak_diversity_count,
)
from fiberfields.errors import BudgetError, DomainError
from fiberfields.polyring import IntPoly, parse_poly

from conftest import oracle_squarefree_kernel, poly


# ---------------------------------------------------------------------------
# weak diversity
# ---------------------------------------------------------------------------


def test_weak_exact_example_identity_cover():
    cov = normalize_cyclic(2, poly("x"))
    rep = weak_diversity_count(cov, 10, "exact-kummer")
    # distinct squarefree kernels of 1..10: {1, 2, 3, 5, 6, 7, 10}
    assert rep.distinct == 7
    assert rep.distinct == len({oracle_squarefree_kernel(n) for n in range(1, 11)})
    assert [n for n, r in rep.skipped if r == "degenerate-counted-as-Q"] == [1, 4, 9]


@pytest.mark.parametrize("method", ["exact-kummer", "ramified-set", "fingerprint"])
def test_weak_single_fiber(method):
    cov = normalize_cyclic(2, poly("x + 1"))  # fiber 1 regular (value 2)
    rep = weak_diversity_count(cov, 1, method)
    assert rep.series == (1,)


def test_weak_series_monotone_unit_steps():
    rng = random.Random(3)
    for _ in range(6):
        g = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(2, 5))])
        try:
            cov = normalize_cyclic(rng.choice([2, 3]), g)
        except DomainError:
            continue
        rep = weak_diversity_count(cov, 60, "exact-kummer")
        assert rep.series[-1] <= 60
        for a, b in zip(rep.series, rep.series[1:]):
            assert b - a in (0, 1)
        assert all(n <= 60 for n, _ in rep.skipped)


def test_weak_ramified_lower_bound_prefixwise():
    cov = cover_from_text("y^2 - (x^3 - x)")
    exact = weak_diversity_count(cov, 200, "exact-kummer")
    ram = weak_diversity_count(cov, 200, "ramified-set")
    assert all(r <= e for r, e in zip(ram.series, exact.series))

    cov2 = normalize_cyclic(3, poly("x^2 + 1"))
    exact2 = weak_diversity_count(cov2, 50, "exact-kummer")
    ram2 = weak_diversity_count(cov2, 50, "ramified-set")
    assert all(r <= e for r, e in zip(ram2.series, exact2.series))


def test_weak_method_cover_mismatch():
    plane = plane_cover(parse_poly("y^2 - (x^3 - x)"))
    with pytest.raises(DomainError):
        weak_diversity_count(plane, 10, "exact-kummer")
    with pytest.raises(DomainError):
        weak_diversity_count(plane, 10, "ramified-set")
    # fingerprint is fine on both cover kinds
    assert weak_diversity_count(plane, 10, "fingerprint").distinct >= 1


def test_weak_rejects_bad_n_and_method():
    cov = normalize_cyclic(2, poly("x"))
    with pytest.raises(DomainError):
        weak_diversity_count(cov, 0, "exact-kummer")
    with pytest.raises(DomainError):
        weak_diversity_count(cov, 5, "frequencies")


def test_weak_plane_fingerprint_counts_split_fibers():
    plane = plane_cover(parse_poly("y^2 - (x^3 - x)"))
    rep = weak_diversity_count(plane, 30, "fingerprint")
    cyc = cover_from_text("y^2 - (x^3 - x)")
    exact = weak_diversity_count(cyc, 30, "exact-kummer")
    assert rep.distinct <= exact.distinct
    assert rep.distinct >= exact.distinct - 2  # tight on this sample


def test_weak_jobs_determinism():
    cov = cover_from_text("y^2 - (x^3 - x)")
    reports = [
        weak_diversity_count(cov, 120, "exact-kummer", jobs=j) for j in (1, 3, 7)
    ]
    assert reports[0] == reports[1] == reports[2]


# ---------------------------------------------------------------------------
# strong diversity
# ---------------------------------------------------------------------------


def test_strong_example_series():
    cov = normalize_cyclic(2, poly("x"))
    rep = strong_diversity_rank(cov, 4)
    assert rep.ranks == (0, 1, 2, 2)


def test_strong_trivial_first_fiber():
    cov = normalize_cyclic(3, poly("8x - 7"))  # g(1) = 1 is a cube
    rep = strong_diversity_rank(cov, 1)
    assert rep.ranks == (0,)


def test_strong_subset_product_oracle():
    """2^r(8) equals the distinct square classes among all subset products
    of {1..8}, by exhaustive enumeration."""
    cov = normalize_cyclic(2, poly("x"))
    rep = strong_diversity_rank(cov, 8)
    classes = set()
    for mask in range(1 << 8):
        prod = 1
        for i in range(8):
            if mask >> i & 1:
                prod *= i + 1
        classes.add(oracle_squarefree_kernel(prod))
    assert 2 ** rep.rank == len(classes)


def test_strong_subset_product_oracle_on_cubic_cover():
    cov = cover_from_text("y^2 - (x^3 - x)")
    N = 10
    rep = strong_diversity_rank(cov, N)
    values = [n**3 - n for n in range(1, N + 1) if n**3 - n != 0]
    classes = set()
    for mask in range(1 << len(values)):
        prod = 1
        for i, v in enumerate(values):
            if mask >> i & 1:
                prod *= v
        classes.add(oracle_squarefree_kernel(prod))
    assert 2 ** rep.rank == len(classes)


def test_strong_rank_monotone_unit_steps():
    cov = cover_from_text("y^2 - (x^3 - x)")
    rep = strong_diversity_rank(cov, 150)
    for a, b in zip(rep.ranks, rep.ranks[1:]):
        assert b - a in (0, 1)
    # rank bounded by number of primes seen
    assert rep.rank <= len(
        {p for n in range(2, 151) for p in dict_factor_support(n**3 - n)}
    ) + 1


def dict_factor_support(n):
    from conftest import oracle_factor

    return oracle_factor(n).keys()


def test_strong_jobs_determinism():
    cov = normalize_cyclic(3, poly("x^2 + 1"))
    reps = [strong_diversity_rank(cov, 80, jobs=j) for j in (1, 4)]
    assert reps[0] == reps[1]


def test_strong_aborts_on_unresolved():
    p = 1_000_000_007
    q = 1_000_000_033
    cov = normalize_cyclic(2, IntPoly((p * q - 1, 0, 0, 1)))  # g(1) = p*q
    with pytest.raises(BudgetError) as exc:
        strong_diversity_rank(cov, 3, budget=4)
    assert "n = 1" in str(exc.value)


def test_strong_rejects_plane():
    with pytest.raises(DomainError):
        strong_diversity_rank(plane_cover(parse_poly("y^2 - (x^3 - x)")), 5)


def test_fp_reducer_odd_p():
    red = FpRowReducer(3)
    from fiberfields.arith import Factorization

    assert red.add_kernel(Factorization(1, ((2, 1),)))
    assert red.add_kernel(Factorization(1, ((2, 1), (3, 1))))
    # 2^2 * 3^2 = (2*3)^2 is dependent: (2,2),(3,2) = 2*row1 + 2*row2 mod 3
    assert not red.add_kernel(Factorization(1, ((2, 2), (3, 2))))
    assert red.rank == 2


def test_fp_reducer_sign_column():
    red = FpRowReducer(2)
    from fiberfields.arith import Factorization

    assert red.add_kernel(Factorization(-1, ()))  # class of -1
    assert red.add_kernel(Factorization(1, ((2, 1),)))
    assert not red.add_kernel(Factorization(-1, ((2, 1),)))  # -2 = (-1)*2
    assert red.rank == 2


# ---------------------------------------------------------------------------
# norm collisions
# ---------------------------------------------------------------------------


def test_norm_collision_examples():
    assert norm_collision_check(poly("x^2"), 100) == (1, 1)
    assert norm_collision_check(poly("x"), 100) == (1, 1)
    # |n^2 - 5n| = 6 at n = 2, 3, 6 (the sign merge joins both solution sets)
    assert norm_collision_check(poly("x^2 - 5x"), 100) == (3, 6)


def test_norm_collision_exhaustive_oracle():
    h = poly("x^2 - 5x")
    from collections import Counter

    counts = Counter(abs(h(n)) for n in range(1, 101))
    mult, witness = norm_collision_check(h, 100)
    assert mult == max(counts.values())
    assert counts[witness] == mult


def test_norm_collision_bound_random():
    rng = random.Random(9)
    for _ in range(25):
        deg = rng.randint(1, 6)
        coeffs = [rng.randint(-30, 30) for _ in range(deg)] + [rng.choice([-3, -1, 1, 2, 5])]
        h = IntPoly(coeffs)
        mult, _ = norm_collision_check(h, 2000)
        assert mult <= 2 * h.degree


def test_norm_collision_bound_violation_raises():
    class ConstantDegreeOne:
        """Claims degree 1 but takes one value everywhere."""

        degree = 1

        def __call__(self, n):
            return 7

    with pytest.raises(DomainError, match="internal: norm multiplicity 3 exceeds"):
        norm_collision_check(ConstantDegreeOne(), 3)


def test_norm_collision_rejects_constant():
    with pytest.raises(DomainError):
        norm_collision_check(poly("7"), 10)


# ---------------------------------------------------------------------------
# compare_methods
# ---------------------------------------------------------------------------


def test_compare_methods_order():
    cov = cover_from_text("y^2 - (x^3 - x)")
    cmp = compare_methods(cov, 50)
    table = cmp.table()
    assert table["ramified-set"] <= table["exact-kummer"]
    assert table["fingerprint"] <= table["exact-kummer"]

    cmp1 = compare_methods(cov, 2)  # n=1 is branch; single counted fiber
    assert len(set(cmp1.table().values())) == 1


def test_compare_methods_cubic_cover():
    cov = normalize_cyclic(3, poly("x^2 + 1"))
    table = compare_methods(cov, 50).table()
    assert table["ramified-set"] <= table["exact-kummer"]


@pytest.mark.parametrize("method", ["ramified-set", "fingerprint"])
def test_compare_methods_soundness_violation_raises(method, monkeypatch):
    real = diversity.weak_diversity_count

    def inflated(cover, N, m, **kw):
        report = real(cover, N, m, **kw)
        if m == method:
            report = dataclasses.replace(report, series=report.series + (10**6,))
        return report

    monkeypatch.setattr(diversity, "weak_diversity_count", inflated)
    with pytest.raises(DomainError, match=f"internal: {method} count 1000000 exceeds"):
        compare_methods(cover_from_text("y^2 - (x^3 - x)"), 20)


def test_compare_methods_rejects_plane():
    with pytest.raises(DomainError):
        compare_methods(plane_cover(parse_poly("y^2 - (x^3 - x)")), 5)


def test_excluded_primes_cover_dependent():
    cov = cover_from_text("y^2 - (x^3 - x)")
    excluded = ramified_excluded_primes(cov)
    # p = 2, lc = 1, disc(x^3 - x) = 4
    assert excluded == {2}
    cov2 = normalize_cyclic(3, poly("5x^2 + 5"))
    excluded2 = ramified_excluded_primes(cov2)
    assert 3 in excluded2 and 5 in excluded2
