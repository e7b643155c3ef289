"""Covers of the affine line over Q and their fibers.

Two kinds of cover: a cyclic cover y^p = g(x) of prime degree p, stored
with g normalized so every irreducible factor has multiplicity in
[1, p-1] (removing s(x)^p divisors changes no fiber class away from the
removed roots), and a plane cover F(x, y) = 0 monic in y.  Covers whose
defining g is a p-th power up to constants, and plane models free of x,
are rejected: the curve is geometrically reducible and the diversity
counting statements do not apply to it.

specialize() classifies the fiber over an integer n: branch (n is a root
of the branch polynomial), degenerate (the cyclic fiber value is a p-th
power, so the fiber splits into rational points and contributes the field
Q), unresolved (factorization budget ran out), or regular with either a
Kummer class (cyclic) or the irreducible factors of F(n, y) and their
fingerprints (plane).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import kummer, polyring
from .errors import BudgetError, DomainError
from .kummer import FieldFingerprint, KummerClass
from .polyring import IntPoly, PlanePoly

_IRRED_SAMPLE_POINTS = 12


@dataclass(frozen=True)
class CyclicCover:
    """y^p = g(x) with p prime and g reduced mod p-th powers."""

    p: int
    g: IntPoly
    removed: tuple[tuple[IntPoly, int], ...] = ()

    def describe(self) -> dict:
        return {
            "kind": "cyclic",
            "p": self.p,
            "g": polyring.format_poly(self.g),
            "removed_pth_power_factors": [
                {"factor": polyring.format_poly(f), "multiplicity": m}
                for f, m in self.removed
            ],
        }


@dataclass(frozen=True)
class PlaneCover:
    """F(x, y) = 0, monic in y, separable in y and involving x;
    irreducibility over Q(x) is certified only when some specialization
    F(n, y) is irreducible of full degree.

    An x-free F is rejected: it splits over Q-bar into lines y = const,
    so the curve is geometrically reducible.  Geometric irreducibility of
    any other model is not checked."""

    F: PlanePoly
    irreducibility_certified: bool
    irreducibility_witness: int | None

    def __post_init__(self):
        # A vanishing y-discriminant makes every fiber a branch fiber.
        if polyring.y_discriminant(self.F).is_zero:
            raise DomainError(
                "covers", "plane model is not separable in y (degenerate cover)"
            )
        if self.F.x_degree == 0:
            raise DomainError(
                "covers",
                "plane model does not involve x (the curve is geometrically reducible)",
            )

    @property
    def equation_text(self) -> str:
        return polyring.format_poly(self.F)

    def describe(self) -> dict:
        return {
            "kind": "plane",
            "F": self.equation_text,
            "y_degree": self.F.y_degree,
            "irreducibility_certified": self.irreducibility_certified,
            "irreducibility_witness": self.irreducibility_witness,
        }


CoverSpec = CyclicCover | PlaneCover


@dataclass(frozen=True)
class FiberSpec:
    """Classification of the fiber over x = n."""

    n: int
    status: str  # regular | branch | degenerate | unresolved
    value: int | None = None
    kummer_class: KummerClass | None = None
    factors: tuple[tuple[IntPoly, FieldFingerprint], ...] | None = None
    note: str | None = None


def normalize_cyclic(p: int, g: IntPoly) -> CyclicCover:
    """Build the cyclic cover y^p = g(x), reducing factor multiplicities
    mod p.  Rejects non-prime p, constant g, and g that is a p-th power up
    to constants (geometrically reducible cover)."""
    from . import arith

    if not arith.is_prime(p):
        raise DomainError("covers", f"cyclic covers need prime degree, got {p}")
    if g.is_zero or g.degree < 1:
        raise DomainError("covers", "cyclic covers need nonconstant g")
    fact = polyring.factor_over_Q(g)
    kept: list[tuple[IntPoly, int]] = []
    removed: list[tuple[IntPoly, int]] = []
    for poly, mult in fact.factors:
        r = mult % p
        if r:
            kept.append((poly, r))
            if mult != r:
                removed.append((poly, mult - r))
        else:
            removed.append((poly, mult))
    if not kept:
        raise DomainError(
            "covers",
            "reducible cover: every factor multiplicity of g is divisible by p "
            "(the curve y^p = g is geometrically reducible)",
        )
    g_norm = IntPoly((fact.content,))
    for poly, mult in kept:
        g_norm = g_norm * poly.pow(mult)
    return CyclicCover(p, g_norm, tuple(removed))


def branch_polynomial(cover: CoverSpec) -> IntPoly:
    """Squarefree polynomial whose roots are the finite branch points.

    Cyclic: the radical of the normalized g.  Plane: the radical of the
    y-discriminant (an over-approximation when the model is singular).
    A cover unramified over every finite point yields the constant 1.
    """
    if isinstance(cover, CyclicCover):
        return polyring.radical(cover.g)
    disc = polyring.y_discriminant(cover.F)
    if disc.degree < 1:
        return IntPoly((1,))
    return polyring.radical(disc)


def has_nonrational_branch_point(cover: CoverSpec) -> tuple[bool, IntPoly | None]:
    """Whether the branch locus contains a point of degree >= 2 over Q;
    the witness is the first irreducible factor of that degree."""
    bp = branch_polynomial(cover)
    if bp.degree < 1:
        return False, None
    for poly, _ in polyring.factor_over_Q(bp).factors:
        if poly.degree >= 2:
            return True, poly
    return False, None


def points_over_infinity(cover: CoverSpec) -> int:
    """Number of geometric points over infinity on the smooth completion
    of a normalized cyclic cover: gcd(p, deg g)."""
    if not isinstance(cover, CyclicCover):
        raise DomainError("covers", "points_over_infinity supports cyclic covers only")
    return math.gcd(cover.p, cover.g.degree)


def specialize(
    cover: CoverSpec,
    n: int,
    budget: int | None = None,
    prime_budget: int = kummer.DEFAULT_PRIME_BUDGET,
) -> FiberSpec:
    """Classify the fiber over x = n; never silently skips a fiber."""
    if isinstance(cover, CyclicCover):
        value = cover.g(n)
        if value == 0:
            return FiberSpec(n, "branch", value=0)
        try:
            cls = kummer.radical_class(value, cover.p, budget)
        except BudgetError as err:
            return FiberSpec(n, "unresolved", value=value, note=str(err))
        if cls.is_trivial:
            return FiberSpec(n, "degenerate", value=value, kummer_class=cls)
        return FiberSpec(n, "regular", value=value, kummer_class=cls)

    fy = cover.F.specialize_x(n)
    fact = polyring.factor_over_Q(fy)
    if any(mult >= 2 for _, mult in fact.factors):
        return FiberSpec(n, "branch")
    pairs = tuple(
        (poly, kummer._fingerprint_irreducible(poly, prime_budget))
        for poly, _ in fact.factors
    )
    return FiberSpec(n, "regular", factors=pairs)


def plane_cover(F: PlanePoly) -> PlaneCover:
    """Wrap a plane polynomial as a cover, hunting for an irreducible
    specialization F(n, y) as a finite irreducibility certificate."""
    witness = None
    for n in range(1, _IRRED_SAMPLE_POINTS + 1):
        fy = F.specialize_x(n)
        fact = polyring.factor_over_Q(fy)
        if len(fact.factors) == 1 and fact.factors[0][1] == 1:
            witness = n
            break
    return PlaneCover(F, witness is not None, witness)


def cover_from_text(text: str) -> CoverSpec:
    """Parse cover input: a plane equation F(x, y) = 0 in the polynomial
    grammar.  Shapes y^p - g(x) with p prime take the exact cyclic path;
    everything else stays a plane cover."""
    from . import arith

    poly = polyring.parse_poly(text)
    if isinstance(poly, IntPoly):
        raise DomainError("covers", "a cover needs the variable y (e.g. 'y^2 - (x^3 - x)')")
    p = poly.y_degree
    lower = [(ij, c) for ij, c in poly.terms if 0 < ij[1] < p]
    if not lower and arith.is_prime(p):
        g_terms = {i: -c for (i, j), c in poly.terms if j == 0}
        g = polyring.poly_from_dict(g_terms)
        if g.degree >= 1:
            return normalize_cyclic(p, g)
    return plane_cover(poly)
