import math
import pickle
import random

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fiberfields import kummer, polyring
from fiberfields.arith import Factorization, split_cofactors
from fiberfields.covers import (
    CyclicCover,
    FiberSpec,
    PlaneCover,
    branch_factorization,
    branch_polynomial,
    cover_from_text,
    has_nonrational_branch_point,
    normalize_cyclic,
    plane_cover,
    points_over_infinity,
    specialize,
)
from fiberfields.diversity import _WeakFold
from fiberfields.errors import DomainError, UnfactoredResidualError
from fiberfields.kummer import KummerClass, radical_class
from fiberfields.polyring import (
    IntPoly,
    IrreducibleFactorization,
    PlanePoly,
    parse_poly,
    poly_gcd,
)

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


def test_specialize_trial_primes():
    c = normalize_cyclic(2, poly("x^3 - x"))
    assert specialize(c, 6, trial_primes=[2, 3, 5, 7]) == specialize(c, 6)
    with pytest.raises(DomainError, match="covers: trial_primes applies to cyclic covers only"):
        specialize(plane_cover(parse_poly("y^3 + x*y + x^2 + 1")), 2, trial_primes=[])
    with pytest.raises(DomainError, match="covers: value applies to cyclic covers only"):
        specialize(plane_cover(parse_poly("y^3 + x*y + x^2 + 1")), 2, value=7)
    assert specialize(c, 6, value=210) == specialize(c, 6)
    with pytest.raises(DomainError, match="kummer: radical_class needs a prime"):
        specialize(CyclicCover(4, IrreducibleFactorization(1, ((poly("x + 1"), 1),))), 2, trial_primes=[3])


def test_specialize_takes_an_error_verdict_as_unresolved():
    """The batch split's error on a cofactor past the budget makes the
    fiber unresolved with that error as its note, the fiber specialize
    gives when arith.factor overruns on the whole value; a branch fiber
    stays a branch fiber."""
    c = normalize_cyclic(5, poly("x^2 + 1002101470318"))
    (err,) = split_cofactors([24441499279], 40)  # the cofactor of g(11)
    assert isinstance(err, UnfactoredResidualError)
    fiber = specialize(c, 11, 40, trial_primes=err)
    assert fiber == FiberSpec(11, "unresolved", c.g(11), note=str(err))
    assert fiber == specialize(c, 11, 40)
    assert specialize(normalize_cyclic(2, poly("x - 3")), 3, trial_primes=err) == FiberSpec(
        3, "branch", 0
    )


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


def _factor_first(cover, n):
    """Reference plane fiber: F(n, y) factored over Q first, a branch on a
    repeated factor, and a fingerprint for every irreducible factor."""
    fy = cover.F.specialize_x(n)
    fact = polyring.factor_over_Q(fy)
    if any(mult >= 2 for _, mult in fact.factors):
        return FiberSpec(n, "branch")
    pairs = tuple(
        (poly, kummer._fingerprint_irreducible(poly, kummer.DEFAULT_PRIME_BUDGET))
        for poly, _ in fact.factors
    )
    return FiberSpec(n, "regular", factors=pairs)


def _structural(fiber):
    # FieldFingerprint equality is agreement at shared primes; compare the
    # listed primes and splitting types themselves.
    if fiber.factors is None:
        return fiber
    return fiber._replace(
        factors=tuple((poly, fp.degree, fp.splitting) for poly, fp in fiber.factors)
    )


def _inert(fp):
    return any(degrees == (fp.degree,) for _, degrees in fp.splitting)


@given(
    d=st.integers(2, 5),
    lower=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 4), st.integers(-6, 6)), max_size=6
    ),
)
@example(4, [(1, 2, 1), (0, 0, 1)])  # y^4 + x*y^2 + 1: V4, never an inert prime
@example(3, [(0, 1, -3), (1, 0, 1)])  # y^3 - 3*y + x: n = 2 is a branch fiber
@example(3, [(1, 1, 1), (2, 0, 1), (0, 0, 1)])  # n = 1 and n = 37 are reducible
@settings(max_examples=25, deadline=None)
def test_plane_specialize_matches_factoring_first(d, lower):
    """A plane fiber certified irreducible by an inert prime is the fiber
    that factoring F(n, y) over Q first gives, down to each listed prime
    and splitting type; so is every fiber that falls back.  Certified fibers are irreducible for sympy."""
    terms = {(0, d): 1}
    for i, j, c in lower:
        terms[i, j % d] = terms.get((i, j % d), 0) + c
    try:
        cover = plane_cover(PlanePoly(tuple(terms.items())))
    except DomainError:  # inseparable in y, or free of x
        assume(False)
    y = sympy.symbols("y")
    for n in range(-2, 39):
        fiber = specialize(cover, n)
        assert _structural(fiber) == _structural(_factor_first(cover, n)), n
        if fiber.status == "regular" and len(fiber.factors) == 1 and _inert(fiber.factors[0][1]):
            fy = cover.F.specialize_x(n)
            _, factors = sympy.Poly(list(reversed(fy.coeffs)), y).factor_list()
            assert [m for _, m in factors] == [1] and factors[0][0].degree() == d, n


def test_plane_fibers_reach_factor_over_Q_only_without_an_inert_prime(monkeypatch):
    """On y^3 + x*y + x^2 + 1, n <= 300, only F(1, y) and F(37, y) have no
    inert prime among their 32 (both are reducible); every other fiber is
    certified irreducible without factor_over_Q."""
    cover = plane_cover(parse_poly("y^3 + x*y + x^2 + 1"))
    real = polyring.factor_over_Q
    factored = []

    def recording(f, *args):
        factored.append(f)
        return real(f, *args)

    monkeypatch.setattr(polyring, "factor_over_Q", recording)
    fibers = [specialize(cover, n) for n in range(1, 301)]
    no_inert = [
        n for n in range(1, 301)
        if not _inert(kummer._fingerprint_irreducible(cover.F.specialize_x(n), 32))
    ]
    assert no_inert == [1, 37]
    assert factored == [cover.F.specialize_x(n) for n in no_inert]
    assert [len(fibers[n - 1].factors) for n in no_inert] == [2, 2]


@pytest.mark.parametrize("text", ["y^2", "(y^2 - x)^2"])
def test_plane_cover_rejects_inseparable_model(text):
    F = parse_poly(text)
    with pytest.raises(DomainError, match="not separable in y"):
        plane_cover(F)
    with pytest.raises(DomainError, match="not separable in y"):
        PlaneCover(F, False, None)


@pytest.mark.parametrize("text", ["y^2 - 5", "y^3 - 2", "y^4 + y + 1"])
def test_plane_cover_rejects_x_free_model(text):
    F = parse_poly(text)
    with pytest.raises(DomainError, match="does not involve x"):
        plane_cover(F)
    with pytest.raises(DomainError, match="does not involve x"):
        PlaneCover(F, False, None)
    with pytest.raises(DomainError, match="does not involve x"):
        cover_from_text(text)


_small_poly = st.lists(st.integers(-4, 4), min_size=1, max_size=3).map(IntPoly)


def _quadratic(a: IntPoly, b: IntPoly) -> PlanePoly:
    """y^2 + a(x) y + b(x)."""
    terms = [((0, 2), 1)]
    terms += [((i, 1), c) for i, c in enumerate(a.coeffs)]
    terms += [((i, 0), c) for i, c in enumerate(b.coeffs)]
    return PlanePoly(tuple(terms))


@given(b=_small_poly, c=st.integers(-6, 6).filter(bool), h=_small_poly)
@example(b=IntPoly((-1,)), c=2, h=IntPoly((0, 1)))  # (y - 1)^2 - 2x^2
@example(b=IntPoly((0, 1)), c=1, h=IntPoly((1,)))  # (y + x)^2 - 1: a constant D
@settings(max_examples=60, deadline=None)
def test_quadratic_plane_model_with_square_discriminant_is_rejected(b, c, h):
    """(y + b)^2 - c h(x)^2 is two lines over Q(sqrt(c))(x): its
    y-discriminant 4c h^2 is a constant times a square."""
    assume(not h.is_zero and (h.degree >= 1 or b.degree >= 1))  # separable, involves x
    F = _quadratic(b.scale(2), b * b - (h * h).scale(c))
    message = "plane model of y-degree 2 has a y-discriminant that is a constant times a square"
    with pytest.raises(DomainError, match=message):
        plane_cover(F)
    with pytest.raises(DomainError, match=message):
        PlaneCover(F, False, None)


@given(a=_small_poly, b=_small_poly)
@example(a=IntPoly((0, 2)), b=IntPoly((0, 0, 0, -1)))  # D = 4x^2 (x + 1)
@settings(max_examples=60, deadline=None)
def test_quadratic_plane_model_with_nonsquare_discriminant_is_accepted(a, b):
    """A monic quadratic involving x whose y-discriminant a^2 - 4b has a
    factor of odd multiplicity (sympy.sqf_list) is a cover, and keeps
    that discriminant."""
    assume(a.degree >= 1 or b.degree >= 1)
    x = sympy.Symbol("x")
    disc = sympy.Poly(list(reversed((a * a - b.scale(4)).coeffs)) or [0], x)
    assume(any(m % 2 for _, m in sympy.sqf_list(disc)[1]))
    cover = plane_cover(_quadratic(a, b))
    assert cover.disc == IntPoly(tuple(reversed(disc.all_coeffs())))


@given(
    low=st.lists(st.integers(-5, 5), min_size=3, max_size=4),
    h=st.lists(st.integers(-4, 4), min_size=2, max_size=3).map(IntPoly),
)
@example(low=[-1, -1, 0], h=IntPoly((0, 1)))  # (y - x)^3 - (y - x) - 1
@settings(max_examples=25, deadline=None)
def test_plane_model_with_constant_discriminant_is_rejected(low, h):
    """F = G(y - h(x)), G monic and squarefree of degree 3 or 4 and h
    nonconstant: its y-discriminant is disc(G), a nonzero constant, and F
    is deg G lines y = h(x) + a over Q-bar."""
    G = IntPoly(tuple(low) + (1,))
    assume(h.degree >= 1 and poly_gcd(G, G.derivative()).degree == 0)
    assume(G.degree * h.degree <= 8)
    text = " + ".join(f"({c})*(y - ({polyring.format_poly(h)}))^{k}"
                      for k, c in enumerate(G.coeffs))
    with pytest.raises(DomainError, match="plane model has a constant y-discriminant"):
        PlaneCover(parse_poly(text), False, None)


@given(
    p=st.sampled_from([2, 3, 5]),
    content=st.sampled_from([1, -1, 4, -12, 125]),
    factors=st.lists(st.tuples(_small_poly, st.integers(1, 6)), min_size=1, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_cyclic_cover_owns_the_factorization_of_g(p, content, factors):
    """normalize_cyclic keeps the one factor_over_Q of g, multiplicities
    reduced mod p, as the factorization of cover.g, and
    branch_factorization reads it: it is factor_over_Q of the branch
    polynomial, the radical of cover.g."""
    g = IntPoly((content,))
    for f, m in factors:
        g = g * f.pow(m)
    assume(1 <= g.degree <= 12)
    try:
        cover = normalize_cyclic(p, g)
    except DomainError:
        return
    assert cover.factorization == polyring.factor_over_Q(cover.g)
    assert cover.factorization.reconstruct() == cover.g
    fact = branch_factorization(cover)
    assert fact == polyring.factor_over_Q(polyring.radical(cover.g))
    assert fact.reconstruct() == branch_polynomial(cover)


def test_specialize_unresolved_on_tiny_budget():
    p = 1_000_000_007
    q = 1_000_000_033
    g = IntPoly((p * q, 0, 0, 1))  # g(0) would be the hard semiprime; use shifted fiber
    c = normalize_cyclic(2, g)
    fib = specialize(c, 0, budget=4)
    assert fib.status == "unresolved"
    assert "budget" in fib.note


def _rebuilt(cover: CyclicCover, fiber: FiberSpec) -> FiberSpec:
    """The fiber again from g(n) and sympy's factorization, its Kummer
    class built by the validating constructors Factorization(sign, factors)
    and KummerClass(p, kernel).  An unresolved fiber keeps its note."""
    p, n = cover.p, fiber.n
    value = cover.g(n)
    if value == 0:
        return FiberSpec(n, "branch", 0)
    if fiber.status == "unresolved":
        return FiberSpec(n, "unresolved", value, note=fiber.note)
    factors = tuple((q, e % p) for q, e in sorted(sympy.factorint(abs(value)).items()) if e % p)
    cls = KummerClass(p, Factorization(-1 if p == 2 and value < 0 else 1, factors))
    return FiberSpec(n, "degenerate" if cls.is_trivial else "regular", value, cls)


_HARD = 1_000_000_007 * 1_000_000_033  # a semiprime past a budget of 4 rho steps


@given(
    st.sampled_from([2, 3, 5, 7]),
    st.lists(st.integers(-60, 60), min_size=2, max_size=4),
    st.integers(-400, 400),
    st.sampled_from([None, 4]),
)
@example(2, [0, 1], 49, None)  # degenerate: 7^2
@example(3, [0, 1], -8, None)  # degenerate: the sign is absorbed for odd p
@example(7, [0, 1], 128, None)  # degenerate: 2^7
@example(2, [0, 1], -4, None)  # regular: Q(sqrt(-1))
@example(3, [0, 1], 12, None)  # regular: 2^2 * 3, the twist 2 * 3^2 is larger
@example(5, [_HARD, 0, 0, 1], 0, 4)  # unresolved
@example(2, [_HARD, 1], 0, 4)  # unresolved
@settings(max_examples=200, deadline=None)
def test_specialize_builds_what_the_validating_constructors_build(p, coeffs, n, budget):
    """specialize builds its FiberSpec and radical_class its KummerClass
    without their checking constructors; rebuilt through them from an
    independent factorization, every cyclic fiber is the same, and the
    exact-kummer fold keys a regular fiber by KummerClass.key()[1], the
    value of the least twist of its kernel."""
    try:
        cover = normalize_cyclic(p, IntPoly(tuple(coeffs)))
    except DomainError:
        assume(False)  # constant g, or a p-th power
    fiber = specialize(cover, n, budget)
    rebuilt = _rebuilt(cover, fiber)
    assert fiber == rebuilt and hash(fiber) == hash(rebuilt)
    assert fiber.status != "unresolved" or budget is not None
    cls = fiber.kummer_class
    if cls is None:
        return
    kernel = rebuilt.kummer_class.kernel
    assert vars(cls) == {"p": p, "kernel": kernel}
    assert cls.kernel.factors == kernel.factors
    canonical = kummer._canonicalize(kernel, p)
    assert cls.canonical == canonical and cls.key() == rebuilt.kummer_class.key()
    if fiber.status == "regular":
        fold = _WeakFold(cover, "exact-kummer", budget, 32)
        fold.add(fiber)
        key = canonical.sign * math.prod(q**e for q, e in canonical.factors)
        assert fold._seen == {key} == {cls.key()[1]}


def test_fiber_spec_is_an_immutable_picklable_tuple():
    cover = cover_from_text("y^3 - (x^4 + 3*x + 7)")
    plane = plane_cover(parse_poly("y^3 + x*y + x^2 + 1"))
    fibers = [specialize(cover, n) for n in range(1, 6)] + [specialize(plane, 2)]
    fibers.append(specialize(normalize_cyclic(2, IntPoly((_HARD, 1))), 0, budget=4))
    for fiber in fibers:
        back = pickle.loads(pickle.dumps(fiber))
        assert type(back) is FiberSpec
        assert back == fiber and hash(back) == hash(fiber)
        assert back._asdict() == fiber._asdict()
        with pytest.raises(AttributeError):
            fiber.status = "branch"
    assert FiberSpec(3, "branch") == (3, "branch", None, None, None, None)


def test_cover_from_text_dispatch():
    assert isinstance(cover_from_text("y^2 - (x^3 - x)"), CyclicCover)
    assert isinstance(cover_from_text("y^3 - (x^3 - 2)"), CyclicCover)
    # composite y-degree: plane path
    assert isinstance(cover_from_text("y^4 - (x^3 - 2)"), PlaneCover)
    # mixed terms: plane path
    assert isinstance(cover_from_text("y^2 - x*y + x^3"), PlaneCover)
    with pytest.raises(DomainError):
        cover_from_text("x^2 + 1")
