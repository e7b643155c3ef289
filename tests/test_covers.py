import math
import random

import pytest

from fiberfields.covers import (
    CyclicCover,
    PlaneCover,
    branch_polynomial,
    cover_from_text,
    has_nonrational_branch_point,
    normalize_cyclic,
    plane_cover,
    points_over_infinity,
    specialize,
)
from fiberfields.errors import DomainError
from fiberfields.kummer import radical_class
from fiberfields.polyring import IntPoly, parse_poly, poly_gcd

from conftest import poly


def orbit_count(p: int, d: int) -> int:
    """Independent place count at infinity: orbits of k -> k + d on Z/p
    (the monodromy of the p leading-term branches y ~ zeta^k x^(d/p))."""
    seen = set()
    orbits = 0
    for start in range(p):
        if start in seen:
            continue
        orbits += 1
        k = start
        while k not in seen:
            seen.add(k)
            k = (k + d) % p
    return orbits


def test_normalize_examples():
    c = normalize_cyclic(2, parse_poly("x^2*(x+1)"))
    assert c.g == poly("x + 1")
    assert [(f.coeffs, m) for f, m in c.removed] == [(((0, 1)), 2)]

    c2 = normalize_cyclic(3, poly("x^3 - x"))
    assert c2.g == poly("x^3 - x")
    assert c2.removed == ()

    with pytest.raises(DomainError):
        normalize_cyclic(2, parse_poly("(x^2+1)^2"))


def test_normalize_rejects_geometrically_reducible():
    # 2x^2 is not a square in Q[x], but is one over Qbar: still rejected
    with pytest.raises(DomainError):
        normalize_cyclic(2, poly("2x^2"))


def test_normalize_rejects_bad_inputs():
    with pytest.raises(DomainError):
        normalize_cyclic(4, poly("x"))
    with pytest.raises(DomainError):
        normalize_cyclic(2, poly("7"))


def test_normalize_idempotent():
    rng = random.Random(5)
    for _ in range(20):
        p = rng.choice([2, 3, 5])
        g = IntPoly([rng.randint(-10, 10) for _ in range(rng.randint(2, 6))])
        try:
            c = normalize_cyclic(p, g)
        except DomainError:
            continue
        again = normalize_cyclic(p, c.g)
        assert again.g == c.g
        assert again.removed == ()


def test_normalize_preserves_fiber_classes():
    rng = random.Random(7)
    for _ in range(12):
        p = rng.choice([2, 3])
        base = poly("x + 1") * poly("x - 2").pow(p)  # (x-2)^p gets removed
        c = normalize_cyclic(p, base)
        removed_roots = {2}
        for n in range(-5, 12):
            if n in removed_roots or base(n) == 0:
                continue
            before = radical_class(base(n), p)
            after = radical_class(c.g(n), p)
            assert before.key() == after.key()


def test_branch_polynomial_examples():
    assert branch_polynomial(normalize_cyclic(2, poly("x^3 - x"))) == poly("x^3 - x")
    c = normalize_cyclic(2, parse_poly("x^2*(x+1)"))
    assert branch_polynomial(c) == poly("x + 1")
    F = cover_from_text("y^2 - x^3 + x + y")  # genuinely plane
    bp = branch_polynomial(F)
    assert poly_gcd(bp, bp.derivative()).degree == 0  # squarefree


def test_branch_polynomial_plane_discriminant():
    # for the cyclic-shaped cover parsed as plane, radical(4(x^3-x)) = 4(x^3-x)... up to lc
    F = plane_cover(parse_poly("y^2 - (x^3 - x)"))
    bp = branch_polynomial(F)
    # same roots as x^3 - x
    assert {n for n in range(-3, 4) if bp(n) == 0} == {-1, 0, 1}
    assert poly_gcd(bp, bp.derivative()).degree == 0


def test_branch_polynomial_always_squarefree():
    rng = random.Random(11)
    for _ in range(15):
        p = rng.choice([2, 3])
        g = IntPoly([rng.randint(-8, 8) for _ in range(rng.randint(2, 5))])
        try:
            c = normalize_cyclic(p, g)
        except DomainError:
            continue
        bp = branch_polynomial(c)
        assert poly_gcd(bp, bp.derivative()).degree == 0


def test_nonrational_branch_point():
    assert has_nonrational_branch_point(normalize_cyclic(2, poly("x^3 - x"))) == (False, None)
    flag, witness = has_nonrational_branch_point(normalize_cyclic(2, poly("x^2 - 2")))
    assert flag and witness == poly("x^2 - 2")
    flag3, witness3 = has_nonrational_branch_point(normalize_cyclic(3, poly("x^2 + x + 1")))
    assert flag3 and witness3 == poly("x^2 + x + 1")


def test_points_over_infinity_examples():
    assert points_over_infinity(normalize_cyclic(2, poly("x^3 - x"))) == 1
    assert points_over_infinity(normalize_cyclic(3, poly("x^3 - 2"))) == 3
    assert points_over_infinity(normalize_cyclic(5, poly("x^2 + 1"))) == 1


def test_points_over_infinity_matches_monodromy_oracle():
    rng = random.Random(13)
    for _ in range(20):
        p = rng.choice([2, 3, 5, 7])
        g = IntPoly([rng.randint(-6, 6) for _ in range(rng.randint(2, 7))])
        try:
            c = normalize_cyclic(p, g)
        except DomainError:
            continue
        got = points_over_infinity(c)
        assert got == orbit_count(c.p, c.g.degree)
        assert c.p % got == 0  # divides p


def test_points_over_infinity_rejects_plane():
    with pytest.raises(DomainError):
        points_over_infinity(plane_cover(parse_poly("y^2 - (x^3 - x)")))


def test_specialize_cyclic():
    c = cover_from_text("y^2 - (x^3 - x)")
    assert isinstance(c, CyclicCover)
    fib = specialize(c, 2)
    assert fib.status == "regular"
    assert fib.value == 6
    assert fib.kummer_class.kernel.reconstruct() == 6
    assert specialize(c, 1).status == "branch"
    assert specialize(c, 0).status == "branch"
    # g(n) a square: degenerate, counted as Q
    cx = normalize_cyclic(2, poly("x"))
    assert specialize(cx, 4).status == "degenerate"


def test_specialize_cross_module_consistency():
    c = cover_from_text("y^2 - (x^3 - x)")
    for n in range(2, 40):
        fib = specialize(c, n)
        assert fib.kummer_class.key() == radical_class(n**3 - n, 2).key()


def test_specialize_plane():
    F = plane_cover(parse_poly("y^2 - (x^3 - x)"))
    fib = specialize(F, 2)
    assert fib.status == "regular"
    assert len(fib.factors) == 1
    factor, fingerprint = fib.factors[0]
    assert factor == poly("x^2 - 6")  # y^2 - 6 printed in x by the univariate type
    assert fingerprint.degree == 2
    assert specialize(F, 1).status == "branch"
    # a split fiber: y^2 - x at x = 4 gives two rational points
    G = plane_cover(parse_poly("y^2 - x^3"))
    fib8 = specialize(G, 4)
    assert fib8.status == "regular"
    assert [f.degree for f, _ in fib8.factors] == [1, 1]


@pytest.mark.parametrize("text", ["y^2", "(y^2 - x)^2"])
def test_plane_cover_rejects_inseparable_model(text):
    F = parse_poly(text)
    with pytest.raises(DomainError, match="not separable in y"):
        plane_cover(F)
    with pytest.raises(DomainError, match="not separable in y"):
        PlaneCover(F, False, None)


def test_specialize_unresolved_on_tiny_budget():
    p = 1_000_000_007
    q = 1_000_000_033
    g = IntPoly((p * q, 0, 0, 1))  # g(0) would be the hard semiprime; use shifted fiber
    c = normalize_cyclic(2, g)
    fib = specialize(c, 0, budget=4)
    assert fib.status == "unresolved"
    assert "budget" in fib.note


def test_cover_from_text_dispatch():
    assert isinstance(cover_from_text("y^2 - (x^3 - x)"), CyclicCover)
    assert isinstance(cover_from_text("y^3 - (x^3 - 2)"), CyclicCover)
    # composite y-degree: plane path
    assert isinstance(cover_from_text("y^4 - (x^3 - 2)"), PlaneCover)
    # mixed terms: plane path
    assert isinstance(cover_from_text("y^2 - x*y + x^3"), PlaneCover)
    with pytest.raises(DomainError):
        cover_from_text("x^2 + 1")
