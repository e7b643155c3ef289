"""Classification of pure radical extensions Q(a^(1/p)) and prime-splitting
fingerprints of number fields.

Two fields Q(a^(1/p)), Q(b^(1/p)) given by non-p-th-powers a, b are
isomorphic exactly when b = a^j * c^p for some j in [1, p-1] and rational c
(Kummer/Capelli).  The canonical form of a class: reduce all prime
exponents into [1, p-1] (sign kept for p = 2, absorbed for odd p), then
pick the exponent twist whose reconstructed absolute value is smallest.
Equality of canonical forms is the isomorphism test.

Fingerprints are one-sided distinctness certificates for arbitrary number
fields given by a minimal polynomial: the splitting type (sorted factor
degrees mod q) at good primes q is an isomorphism invariant, so two
fingerprints that disagree at a shared good prime certify distinct fields.
Fingerprint equality is agreement at all shared listed primes; the listed
primes themselves depend on the defining polynomial, so equality is
deliberately not structural.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import _modpoly, arith, polyring
from .arith import Factorization
from .errors import DomainError
from .polyring import IntPoly

DEFAULT_PRIME_BUDGET = 32


@dataclass(frozen=True)
class KummerClass:
    """Class of a nonzero rational in Q*/(Q*)^p up to exponent twist."""

    p: int
    kernel: Factorization
    canonical: Factorization

    @property
    def is_trivial(self) -> bool:
        """True when the underlying rational is a p-th power (field is Q)."""
        return not self.kernel.factors and self.kernel.sign == 1

    def key(self) -> tuple[int, int]:
        """Hashable isomorphism invariant: (p, canonical value).  The
        canonical form is a signed product of distinct primes with
        exponents in [1, p-1], so its value determines it."""
        return (self.p, self.canonical.reconstruct())


def _kernel_of_rational(a: Fraction, p: int, budget: int | None) -> Factorization:
    # a and a * den^p have the same class; num * den^(p-1) is integral
    n = a.numerator * a.denominator ** (p - 1)
    return arith.p_free_kernel(n, p, budget)


def _twist(kernel: Factorization, j: int, p: int) -> Factorization:
    factors = tuple((q, (e * j) % p) for q, e in kernel.factors)
    # j is invertible mod p and e in [1, p-1], so no exponent collapses
    return Factorization(kernel.sign, factors)


def _canonicalize(kernel: Factorization, p: int) -> Factorization:
    if p == 2 or not kernel.factors:
        return kernel
    best = None
    best_key = None
    for j in range(1, p):
        cand = _twist(kernel, j, p)
        key = (abs(cand.reconstruct()), tuple(e for _, e in cand.factors))
        if best_key is None or key < best_key:
            best, best_key = cand, key
    return best


def radical_class(a, p: int, budget: int | None = None) -> KummerClass:
    """Canonical Kummer class of the nonzero rational a for the prime p."""
    a = Fraction(a)
    if a == 0:
        raise DomainError("kummer", "radical_class needs a nonzero rational")
    if not arith.is_prime(p):
        raise DomainError("kummer", f"radical_class needs a prime, got {p}")
    kernel = _kernel_of_rational(a, p, budget)
    return KummerClass(p, kernel, _canonicalize(kernel, p))


def radical_fields_isomorphic(a, b, p: int, budget: int | None = None) -> bool:
    """Whether Q(a^(1/p)) and Q(b^(1/p)) are isomorphic fields.

    Degenerate inputs (p-th powers, where the "field" collapses to Q) are
    rejected; compare radical_class(...).is_trivial directly for those.
    """
    ca = radical_class(a, p, budget)
    cb = radical_class(b, p, budget)
    if ca.is_trivial or cb.is_trivial:
        raise DomainError("kummer", "input is a p-th power (degenerate radical field)")
    return ca.key() == cb.key()


def ramified_set(a, p: int, excluded: frozenset[int] | set[int] = frozenset(),
                 budget: int | None = None) -> frozenset[int]:
    """Primes dividing the kernel of a, minus `excluded` and minus p itself.

    Away from p and the excluded set these are exactly the primes ramified
    in Q(a^(1/p))/Q; ramification at p or at excluded primes is left
    undetermined on purpose.
    """
    cls = radical_class(a, p, budget)
    if cls.is_trivial:
        raise DomainError("kummer", "ramified_set of a p-th power is undefined")
    return frozenset(cls.kernel.support()) - frozenset(excluded) - {p}


# ---------------------------------------------------------------------------
# splitting-type fingerprints
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FieldFingerprint:
    """Degree plus splitting types at the first `budget` good primes.

    Equality means: same degree, and identical splitting types at every
    prime listed by both fingerprints.  Distinct-under-equality therefore
    certifies non-isomorphic fields; equality does not certify isomorphism.
    """

    degree: int
    splitting: tuple[tuple[int, tuple[int, ...]], ...]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldFingerprint):
            return NotImplemented
        if self.degree != other.degree:
            return False
        i = j = 0
        a, b = self.splitting, other.splitting
        while i < len(a) and j < len(b):
            if a[i][0] == b[j][0]:
                if a[i][1] != b[j][1]:
                    return False
                i += 1
                j += 1
            elif a[i][0] < b[j][0]:
                i += 1
            else:
                j += 1
        return True

    def __hash__(self):
        return hash(("FieldFingerprint", self.degree))


def field_fingerprint(
    minpoly: IntPoly, prime_budget: int = DEFAULT_PRIME_BUDGET
) -> FieldFingerprint:
    """Fingerprint of the field Q[x]/(minpoly) from factor degrees mod the
    first prime_budget primes dividing neither disc(minpoly) nor its
    leading coefficient.

    minpoly must be irreducible over Q (checked via factor_over_Q).
    """
    fact = polyring.factor_over_Q(minpoly)
    if len(fact.factors) != 1 or fact.factors[0][1] != 1 or minpoly.degree < 1:
        raise DomainError("kummer", "fingerprint needs an irreducible minimal polynomial")
    prim = fact.factors[0][0]
    return _fingerprint_irreducible(prim, prime_budget)


def _fingerprint_irreducible(prim: IntPoly, prime_budget: int) -> FieldFingerprint:
    """Fingerprint of a certified-irreducible primitive polynomial."""
    if prime_budget < 1:
        raise DomainError("kummer", "prime_budget must be positive")
    degree = prim.degree
    skip = abs(polyring.discriminant(prim)) * abs(prim.lc) if degree >= 1 else abs(prim.lc)
    splitting = []
    limit = 1000
    while True:
        for q in arith.primes_up_to(limit):
            if skip % q == 0:
                continue
            if splitting and q <= splitting[-1][0]:
                continue
            degrees = tuple(
                _modpoly.splitting_degrees(_modpoly.from_int_coeffs(prim.coeffs, q), q)
            )
            splitting.append((q, degrees))
            if len(splitting) == prime_budget:
                return FieldFingerprint(degree, tuple(splitting))
        limit *= 4
