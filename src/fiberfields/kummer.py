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

A fingerprint also certifies irreducibility.  Its primes are the first
primes dividing neither the leading coefficient nor the discriminant of
a primitive f (arith.primes_not_dividing), so a factorization of f in
Z[x] reduces mod each of them to one with the same degrees; when f is
irreducible mod one listed prime (it is inert), f is irreducible over Q.
factor_certified reads that certificate first, for f of any degree, and
calls factor_over_Q only when no listed prime is inert; it is the one
place covers and kummer decide whether a fiber or a minimal polynomial is
irreducible.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from . import _modpoly, arith, polyring
from .arith import Factorization
from .errors import DomainError
from .polyring import IntPoly, IrreducibleFactorization

DEFAULT_PRIME_BUDGET = 32


@dataclass(frozen=True)
class KummerClass:
    """Class of a nonzero rational in Q*/(Q*)^p up to exponent twist.

    The fields are p and the kernel, the factorization with its exponents
    reduced mod p, which arith.factor builds when given p.  The canonical
    form is a function of them, built on first read and cached in the
    instance's __dict__: the weak isomorphism count reads it, the rank
    fold and the ramified sets do not.  For p = 2 the canonical form is the
    kernel itself (its only twist is j = 1), so it is returned without a
    cache entry.  Equality and hashing see only p and the kernel, so two
    classes with the same p and kernel compare equal whether or not either
    one's canonical form was read.  (functools.cached_property would do
    the same, but before Python 3.12 it takes a lock on every first read.)

    KummerClass(p, kernel) is the public constructor.  radical_class, which
    builds one per cyclic fiber, writes p and the kernel straight into a
    new instance's __dict__ instead: the frozen dataclass __init__ sets
    each field through object.__setattr__, about twice the cost of the
    two stores."""

    p: int
    kernel: Factorization

    @property
    def canonical(self) -> Factorization:
        """The exponent twist of the kernel with the smallest absolute
        value (ties broken on the exponent tuple)."""
        if self.p == 2:
            return self.kernel
        cache = self.__dict__
        form = cache.get("canonical")
        if form is None:
            form = cache["canonical"] = _canonicalize(self.kernel, self.p)
        return form

    @property
    def is_trivial(self) -> bool:
        """True when the underlying rational is a p-th power (field is Q)."""
        return not self.kernel.factors and self.kernel.sign == 1

    def key(self) -> tuple[int, int]:
        """Hashable isomorphism invariant: (p, canonical value).  The
        canonical form is a signed product of distinct primes with
        exponents in [1, p-1], so its value determines it."""
        return (self.p, self.canonical.reconstruct())


# radical_class allocates its KummerClass without calling __init__
_new_object = object.__new__


def _canonicalize(kernel: Factorization, p: int) -> Factorization:
    """The twist kernel^j, j in [1, p-1], exponents reduced mod p, that is
    least on (absolute value, exponent tuple).  j is invertible mod p and
    each exponent is in [1, p-1], so no exponent collapses to 0."""
    if p == 2 or not kernel.factors:
        return kernel
    primes, exponents = zip(*kernel.factors)
    twists = (tuple(e * j % p for e in exponents) for j in range(1, p))
    _, best = min((math.prod(map(pow, primes, t)), t) for t in twists)
    if best == exponents:
        return kernel
    return Factorization.ordered(kernel.sign, tuple(zip(primes, best)))


def radical_class(
    a,
    p: int,
    budget: int | None = None,
    trial_primes: Sequence[int] | None = None,
) -> KummerClass:
    """Kummer class of the nonzero rational a for the prime p; its
    canonical form is built when first read.  p is proven prime here,
    once, and arith.factor(a, budget, trial_primes, p) builds the kernel
    itself, reducing the exponents mod p as it counts them; trial_primes
    is for an int a only."""
    if type(a) is not int:  # a plain int skips both conversions
        if trial_primes is not None:
            raise DomainError("kummer", "trial_primes needs an integer a")
        a = Fraction(a)
    if a == 0:
        raise DomainError("kummer", "radical_class needs a nonzero rational")
    if not arith.is_prime(p):
        raise DomainError("kummer", f"radical_class needs a prime, got {p}")
    if type(a) is not int:
        # a and a * den^p have the same class; num * den^(p-1) is integral
        a = a.numerator * a.denominator ** (p - 1)
    kernel = arith.factor(a, budget, trial_primes, p)
    # KummerClass(p, kernel), field for field, without the dataclass __init__
    cls = _new_object(KummerClass)
    fields = cls.__dict__
    fields["p"] = p
    fields["kernel"] = kernel
    return cls


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


def factor_certified(
    f: IntPoly, prime_budget: int = DEFAULT_PRIME_BUDGET
) -> tuple[IrreducibleFactorization, FieldFingerprint | None]:
    """factor_over_Q(f), and the fingerprint of f's primitive part when
    that part is squarefree of degree >= 1 (else None: f is constant or
    has a repeated factor).

    The fingerprint comes first.  When one of its primes is inert, the
    primitive part is irreducible (see the module docstring), and the
    factorization factor_over_Q would return, content times that part, is
    built without calling it.  The discriminant is computed once, here."""
    prim = f.primitive()
    disc = polyring.discriminant(prim) if prim.degree >= 1 else 0
    if not disc:
        return polyring.factor_over_Q(f), None
    fp = _fingerprint_irreducible(prim, prime_budget, disc)
    if any(degrees == (prim.degree,) for _, degrees in fp.splitting):
        return IrreducibleFactorization(f.content(), ((prim, 1),)), fp
    return polyring.factor_over_Q(f), fp


def field_fingerprint(
    minpoly: IntPoly, prime_budget: int = DEFAULT_PRIME_BUDGET
) -> FieldFingerprint:
    """Fingerprint of the field Q[x]/(minpoly) from factor degrees mod the
    first prime_budget primes dividing neither disc(minpoly) nor its
    leading coefficient.

    minpoly must be irreducible over Q (checked by factor_certified: a
    squarefree minpoly with a single irreducible factor).
    """
    fact, fp = factor_certified(minpoly, prime_budget)
    if fp is None or len(fact.factors) != 1:
        raise DomainError("kummer", "fingerprint needs an irreducible minimal polynomial")
    return fp


def _fingerprint_irreducible(
    prim: IntPoly, prime_budget: int, disc: int | None = None
) -> FieldFingerprint:
    """Fingerprint of a primitive polynomial of degree >= 1 and nonzero
    discriminant (disc, when the caller has computed it).

    Its splitting types describe a field only when prim is irreducible
    over Q: certified by factor_over_Q, by an inert prime among them (as
    factor_certified reads it), or by construction (a radical x^p - a, a
    not a p-th power).  A zero discriminant raises DomainError: every
    prime divides it, so none could be listed."""
    if prime_budget < 1:
        raise DomainError("kummer", "prime_budget must be positive")
    if disc is None:  # raises for degree < 1
        disc = polyring.discriminant(prim)
    if disc == 0:
        raise DomainError("kummer", "fingerprint needs a squarefree polynomial (zero discriminant)")
    splitting = tuple(
        (q, tuple(_modpoly.splitting_degrees(_modpoly.from_int_coeffs(prim.coeffs, q), q)))
        for q in islice(arith.primes_not_dividing(disc * prim.lc), prime_budget)
    )
    return FieldFingerprint(prim.degree, splitting)
