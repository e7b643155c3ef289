"""Covers of the affine line over Q and their fibers.

Two kinds of cover: a cyclic cover y^p = g(x) of prime degree p, stored
as the factorization of g over Q with every multiplicity reduced to
[1, p-1] (removing s(x)^p divisors changes no fiber class away from the
removed roots), and a plane cover F(x, y) = 0 monic in y, stored with its
y-discriminant.  Covers whose defining g is a p-th power up to constants,
plane models free of x, and plane models of y-degree 2 whose
y-discriminant is a constant times a square are rejected: the curve is
geometrically reducible and the diversity counting statements do not
apply to it.

g is factored once, by normalize_cyclic, and the branch polynomial of a
plane cover once, by branch_factorization; the trial root table of a
cyclic pass and the branch checks read those factors.

specialize() classifies the fiber over an integer n: branch (n is a root
of the branch polynomial), degenerate (the cyclic fiber value is a p-th
power, so the fiber splits into rational points and contributes the field
Q), unresolved (factorization budget ran out), or regular with either a
Kummer class (cyclic) or the irreducible factors of F(n, y) and their
fingerprints (plane).  A fiber is a FiberSpec, a NamedTuple: immutable,
compared and hashed as the tuple of its fields, and cheap to build, since
a cyclic stream builds one per n.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

from . import arith, kummer, polyring
from .errors import BudgetError, DomainError, UnfactoredResidualError
from .kummer import FieldFingerprint, KummerClass
from .polyring import IntPoly, IrreducibleFactorization, PlanePoly

_IRRED_SAMPLE_POINTS = 12


@dataclass(frozen=True)
class CyclicCover:
    """y^p = g(x) with p prime and g reduced mod p-th powers.

    factorization is g over Q, as factor_over_Q gives it, each
    multiplicity in [1, p-1]; g is its reconstruct(), built once here."""

    p: int
    factorization: IrreducibleFactorization
    removed: tuple[tuple[IntPoly, int], ...] = ()
    g: IntPoly = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "g", self.factorization.reconstruct())

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
    F(n, y) is irreducible of full degree.  disc is the y-discriminant of
    F, computed once here.

    An x-free F is rejected: it splits over Q-bar into lines y = const,
    so the curve is geometrically reducible.  So is y^2 + a(x)*y + b(x)
    when disc = a^2 - 4b is a constant times a square c*h(x)^2: it is
    (y + a/2)^2 - c*h^2/4, two lines over Q(sqrt(c))(x).  In
    characteristic 0 that holds exactly when every multiplicity of disc's
    squarefree decomposition is even (none, for a constant disc).
    Geometric irreducibility of a model of y-degree 3 or more is not
    checked."""

    F: PlanePoly
    irreducibility_certified: bool
    irreducibility_witness: int | None
    disc: IntPoly = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "disc", polyring.y_discriminant(self.F))
        # A vanishing y-discriminant makes every fiber a branch fiber.
        if self.disc.is_zero:
            raise DomainError(
                "covers", "plane model is not separable in y (degenerate cover)"
            )
        if self.F.x_degree == 0:
            raise DomainError(
                "covers",
                "plane model does not involve x (the curve is geometrically reducible)",
            )
        if self.F.y_degree == 2 and all(
            m % 2 == 0 for _, m in polyring.squarefree_decomposition(self.disc)[1]
        ):
            raise DomainError(
                "covers",
                "plane model of y-degree 2 has a y-discriminant that is a constant "
                "times a square (the curve is geometrically reducible)",
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


class FiberSpec(NamedTuple):
    """Classification of the fiber over x = n.

    A NamedTuple, so a field cannot be reassigned, and two fibers are
    equal when their field tuples are.  A frozen dataclass would set each
    field through object.__setattr__, at about three times the cost of
    building the tuple, once per fiber."""

    n: int
    status: str  # regular | branch | degenerate | unresolved
    value: int | None = None
    kummer_class: KummerClass | None = None
    factors: tuple[tuple[IntPoly, FieldFingerprint], ...] | None = None
    note: str | None = None


def normalize_cyclic(p: int, g: IntPoly) -> CyclicCover:
    """Build the cyclic cover y^p = g(x), reducing factor multiplicities
    mod p, from the one factor_over_Q of g.  Rejects non-prime p, constant
    g, and g that is a p-th power up to constants (geometrically reducible
    cover)."""
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
    return CyclicCover(p, IrreducibleFactorization(fact.content, tuple(kept)), tuple(removed))


def branch_polynomial(cover: CoverSpec) -> IntPoly:
    """Squarefree polynomial whose roots are the finite branch points.

    Cyclic: the radical of the normalized g, built from its stored
    factors.  Plane: the radical of the y-discriminant (an
    over-approximation when the model is singular).  A cover unramified
    over every finite point yields the constant 1.
    """
    if isinstance(cover, CyclicCover):
        return branch_factorization(cover).reconstruct()
    if cover.disc.degree < 1:
        return IntPoly((1,))
    return polyring.radical(cover.disc)


def branch_factorization(cover: CoverSpec) -> IrreducibleFactorization:
    """branch_polynomial(cover) factored over Q, each factor once, as
    factor_over_Q gives it: its reconstruct() is branch_polynomial(cover).

    Cyclic: the distinct factors of g are the cover's own, and the
    content is lc(g) over their leading coefficients, so the product
    keeps lc(g), as polyring.radical does; nothing is factored.  Plane:
    one factor_over_Q of the branch polynomial."""
    if isinstance(cover, PlaneCover):
        return polyring.factor_over_Q(branch_polynomial(cover))
    factors = cover.factorization.factors
    lc = math.prod(poly.lc for poly, _ in factors)
    return IrreducibleFactorization(cover.g.lc // lc, tuple((poly, 1) for poly, _ in factors))


def nonrational_witness(fact: IrreducibleFactorization) -> IntPoly | None:
    """The first factor of degree >= 2 of a branch_factorization: a branch
    point of degree >= 2 over Q, or None when every one is rational."""
    return next((poly for poly, _ in fact.factors if poly.degree >= 2), None)


def has_nonrational_branch_point(cover: CoverSpec) -> tuple[bool, IntPoly | None]:
    """Whether the branch locus contains a point of degree >= 2 over Q,
    and nonrational_witness of the branch factorization."""
    witness = nonrational_witness(branch_factorization(cover))
    return witness is not None, witness


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
    trial_primes: Sequence[int] | UnfactoredResidualError | None = None,
) -> FiberSpec:
    """Classify the fiber over x = n; never silently skips a fiber.

    trial_primes, for a cyclic cover only, are ascending distinct primes
    dividing g(n), every one <= arith.TRIAL_DIVISION_LIMIT among them,
    handed to arith.factor, or the UnfactoredResidualError the batch split
    gave g(n)'s cofactor, which makes a fiber off the branch locus
    unresolved with its note (the verdicts of
    sieve.value_prime_lists).

    A plane fiber is F(n, y), monic of degree deg_y F, split by
    kummer.factor_certified: the fingerprint of F(n, y) comes first, and
    when one of its primes is inert the fiber is one regular field with
    that fingerprint, with no call to factor_over_Q.  Otherwise
    factor_over_Q decides: a repeated factor (a zero discriminant) is a
    branch fiber, an irreducible F(n, y) keeps the fingerprint it has, and
    each factor of a reducible one gets its own."""
    if isinstance(cover, CyclicCover):
        value = cover.g(n)
        if value == 0:
            return FiberSpec(n, "branch", 0)
        if isinstance(trial_primes, UnfactoredResidualError):
            return FiberSpec(n, "unresolved", value, note=str(trial_primes))
        try:
            cls = kummer.radical_class(value, cover.p, budget, trial_primes)
        except BudgetError as err:
            return FiberSpec(n, "unresolved", value, note=str(err))
        kernel = cls.kernel
        if not kernel.factors and kernel.sign == 1:  # cls.is_trivial
            return FiberSpec(n, "degenerate", value, cls)
        return FiberSpec(n, "regular", value, cls)

    if trial_primes is not None:
        raise DomainError("covers", "trial_primes applies to cyclic covers only")
    fy = cover.F.specialize_x(n)
    fact, fp = kummer.factor_certified(fy, prime_budget)
    if fp is None:  # disc F(n, y) = 0: a repeated factor
        return FiberSpec(n, "branch")
    if len(fact.factors) == 1:
        return FiberSpec(n, "regular", factors=((fy, fp),))
    pairs = tuple(
        (poly, kummer._fingerprint_irreducible(poly, prime_budget))
        for poly, _ in fact.factors
    )
    return FiberSpec(n, "regular", factors=pairs)


def plane_cover(F: PlanePoly) -> PlaneCover:
    """Wrap a plane polynomial as a cover, hunting for an irreducible
    specialization F(n, y) as a finite irreducibility certificate (by
    kummer.factor_certified, as specialize decides a fiber)."""
    witness = None
    for n in range(1, _IRRED_SAMPLE_POINTS + 1):
        fact, _ = kummer.factor_certified(F.specialize_x(n))
        if len(fact.factors) == 1 and fact.factors[0][1] == 1:
            witness = n
            break
    return PlaneCover(F, witness is not None, witness)


def cover_from_text(text: str) -> CoverSpec:
    """Parse cover input: a plane equation F(x, y) = 0 in the polynomial
    grammar.  Shapes y^p - g(x) with p prime take the exact cyclic path;
    everything else stays a plane cover."""
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
