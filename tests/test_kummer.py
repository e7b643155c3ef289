import math
import pickle
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fiberfields import arith, kummer, polyring
from fiberfields.arith import Factorization
from fiberfields.covers import cover_from_text
from fiberfields.diversity import strong_diversity_rank, weak_diversity_count
from fiberfields.errors import DomainError
from fiberfields.kummer import (
    KummerClass,
    field_fingerprint,
    radical_class,
    radical_fields_isomorphic,
)
from fiberfields.polyring import IntPoly

from conftest import oracle_squarefree_kernel, poly


def twist_oracle(a, b, p) -> bool:
    """Brute force: b = a^j * c^p for some j in [1, p-1], c rational."""

    def is_pth_power(fr: Fraction) -> bool:
        from fiberfields.arith import introot

        if fr == 0:
            return False
        num, den = fr.numerator, fr.denominator
        if p == 2 and fr < 0:
            return False
        num = abs(num)
        r, s = introot(num, p), introot(den, p)
        return r**p == num and s**p == den

    a, b = Fraction(a), Fraction(b)
    return any(is_pth_power(b / a**j) for j in range(1, p))


def test_radical_class_examples():
    assert radical_class(8, 3).is_trivial
    assert radical_class(-8, 3).is_trivial  # sign absorbed for odd p
    assert radical_class(4, 3).key() == radical_class(2, 3).key()
    assert radical_class(12, 2).kernel.reconstruct() == 3
    assert not radical_class(-4, 2).is_trivial  # Q(sqrt(-1))


def test_radical_class_rational_inputs():
    assert radical_class(Fraction(1, 8), 3).is_trivial
    assert radical_class(Fraction(2, 9), 2).key() == radical_class(2, 2).key()
    with pytest.raises(DomainError):
        radical_class(0, 2)
    with pytest.raises(DomainError, match="kummer: radical_class needs a prime, got 4"):
        radical_class(5, 4)
    with pytest.raises(DomainError, match="kummer: trial_primes needs an integer a"):
        radical_class(Fraction(2, 9), 2, trial_primes=[2])
    assert radical_class(12, 3, trial_primes=[2, 3]) == radical_class(12, 3)


def test_canonical_picks_smallest_twist():
    # class of 4 = 2^2 mod cubes; twists are 4 and 2: canonical value 2
    assert radical_class(4, 3).canonical.reconstruct() == 2
    # 9 = 3^2: canonical twist is 3
    assert radical_class(9, 3).canonical.reconstruct() == 3


def test_isomorphic_examples():
    assert radical_fields_isomorphic(2, 16, 3)
    assert not radical_fields_isomorphic(2, 3, 2)
    assert radical_fields_isomorphic(2, 8, 2)
    # 18 = 2 * 3^2 has square class 2: same field as sqrt(2)
    assert radical_fields_isomorphic(2, 18, 2)
    assert twist_oracle(2, 18, 2)


def test_isomorphic_rejects_degenerate():
    with pytest.raises(DomainError):
        radical_fields_isomorphic(8, 2, 3)


def _old_twist(kernel, j, p):
    return Factorization(kernel.sign, tuple((q, (e * j) % p) for q, e in kernel.factors))


def _old_canonicalize(kernel, p):
    """The twist selection as first written: one Factorization per twist,
    keyed on (absolute value, exponent tuple)."""
    if p == 2 or not kernel.factors:
        return kernel
    best = None
    best_key = None
    for j in range(1, p):
        cand = _old_twist(kernel, j, p)
        key = (abs(cand.reconstruct()), tuple(e for _, e in cand.factors))
        if best_key is None or key < best_key:
            best, best_key = cand, key
    return best


@st.composite
def _kernels(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    primes = draw(st.lists(st.sampled_from([2, 3, 5, 7, 11, 13, 101, 9973, 10007,
                                            999_999_000_001]),
                           max_size=6, unique=True))
    factors = tuple((q, draw(st.integers(1, p - 1))) for q in sorted(primes))
    return Factorization(draw(st.sampled_from([1, -1])), factors), p


@given(_kernels())
@settings(max_examples=300, deadline=None)
def test_canonicalize_matches_one_factorization_per_twist(kernel_p):
    kernel, p = kernel_p
    assert kummer._canonicalize(kernel, p) == _old_canonicalize(kernel, p)
    assert KummerClass(p, kernel).canonical == _old_canonicalize(kernel, p)


def test_canonical_is_not_built_by_the_rank_fold(monkeypatch):
    calls = []
    original = kummer._canonicalize

    def counting(kernel, p):
        calls.append(p)
        return original(kernel, p)

    monkeypatch.setattr(kummer, "_canonicalize", counting)
    cover = cover_from_text("y^5 - (x^4 + 3*x + 7)")
    assert strong_diversity_rank(cover, 300).rank > 0
    assert calls == []
    weak_diversity_count(cover, 30, "ramified-set")
    assert calls == []
    weak_diversity_count(cover, 30, "exact-kummer")
    assert len(calls) == 30


@pytest.mark.parametrize("a, p", [(72, 5), (Fraction(-1800, 7), 5), (12, 2), (8, 3)])
def test_kummer_class_pickles_with_or_without_canonical(a, p):
    fresh, read = radical_class(a, p), radical_class(a, p)
    canonical = read.canonical
    assert "canonical" not in vars(fresh)
    # for p = 2 the canonical form is the kernel itself, read without a cache entry
    assert ("canonical" in vars(read)) == (p != 2)
    assert fresh == read and hash(fresh) == hash(read)
    for cls in (fresh, read):
        back = pickle.loads(pickle.dumps(cls))
        assert back == fresh == read and hash(back) == hash(read)
        assert back.canonical == canonical
        assert back.key() == read.key()


_LISTED = [2, 3, 5, 7, 13, 10007, 999983, 2**31 - 1, 2**61 - 1]


@given(
    st.one_of(
        st.integers(min_value=-(2**72), max_value=2**72),
        st.builds(
            lambda sign, powers: sign * math.prod(q**e for q, e in powers),
            st.sampled_from([1, -1]),
            st.lists(st.tuples(st.sampled_from(_LISTED), st.integers(1, 9)), max_size=5),
        ),
    ).filter(lambda a: a != 0),
    st.sampled_from([2, 3, 5, 7]),
)
# 14 copies of 2**31 - 1 overrun the default budget unless rho's prime is
# divided out to its full power at once
@example((2**31 - 1) ** 14 * (2**61 - 1), 2)
@settings(max_examples=200, deadline=None)
def test_unchecked_factorizations_equal_validated_ones(a, p):
    # factor, _p_free and _canonicalize build their Factorizations without
    # the constructor's check; rebuilt through it, each must be the same.
    oracle = sympy.factorint(abs(a))
    cls = radical_class(a, p, trial_primes=sorted(oracle))
    for f in (cls.kernel, cls.canonical):
        rebuilt = Factorization(f.sign, f.factors)
        assert f == rebuilt and hash(f) == hash(rebuilt) and f.factors == rebuilt.factors
        f.validate()
    assert cls == KummerClass(p, Factorization(cls.kernel.sign, cls.kernel.factors))
    f = arith.factor(a)
    assert f == Factorization(f.sign, f.factors) and dict(f.factors) == oracle


def test_integer_and_rational_inputs_give_the_same_class():
    for a in (72, -1800, 2250, 10**12 + 39, -(3**7 * 5**2)):
        for p in (2, 3, 5, 7):
            assert radical_class(a, p) == radical_class(Fraction(a), p)
            assert radical_class(a, p).canonical == radical_class(Fraction(a), p).canonical


@given(
    st.integers(min_value=2, max_value=400),
    st.integers(min_value=1, max_value=20),
    st.sampled_from([2, 3, 5]),
)
@settings(max_examples=120, deadline=None)
def test_twist_invariance(a, c, p):
    base = radical_class(a, p)
    for j in range(1, p):
        twisted = radical_class(a**j * c**p, p)
        if base.is_trivial:
            assert twisted.is_trivial
        else:
            assert twisted.key() == base.key()


def test_cross_oracle_squarefree_kernels():
    squarefree = [a for a in range(1, 201) if oracle_squarefree_kernel(a) == a]
    for a in squarefree:
        for b in squarefree:
            if a == 1 or b == 1:
                continue
            assert radical_fields_isomorphic(a, b, 2) == (a == b)


def ramified_set(a, p, excluded=frozenset()):
    """The primes ramified in Q(a^(1/p)) away from p and the excluded set:
    those of the class's kernel."""
    return radical_class(a, p).kernel.support() - excluded - {p}


def test_ramified_set_examples():
    assert ramified_set(12, 2) == {3}
    assert ramified_set(15, 2, {3}) == {5}
    assert ramified_set(2, 3) == {2}
    assert ramified_set(2 * 3**2 * 5, 3) == {2, 5}


def test_ramified_set_depends_only_on_class():
    rng = random.Random(13)
    for _ in range(40):
        a = rng.randint(2, 500)
        p = rng.choice([2, 3, 5])
        c = rng.randint(1, 12)
        if radical_class(a, p).is_trivial:
            continue
        j = rng.randint(1, p - 1)
        assert ramified_set(a, p) == ramified_set(a**j * c**p, p)


def test_fingerprint_examples():
    assert field_fingerprint(poly("x^2 - 2"), 40) == field_fingerprint(poly("x^2 - 18"), 40)
    assert field_fingerprint(poly("x^2 - 2"), 40) != field_fingerprint(poly("x^2 - 3"), 40)
    lin = field_fingerprint(poly("x - 5"), 10)
    assert lin.degree == 1
    assert all(degrees == (1,) for _, degrees in lin.splitting)


def test_fingerprint_past_the_first_thousand_primes():
    """300 primes not dividing disc(x^3 - x - 1) = -23 run past 1,000, so
    the search grows its sieve and skips the primes it has listed: each
    is listed once, in order, the last 1,993, with sympy's splitting type."""
    fp = field_fingerprint(poly("x^3 - x - 1"), 300)
    primes = [q for q in sympy.primerange(2, 2000) if q != 23][:300]
    assert [q for q, _ in fp.splitting] == primes and primes[-1] == 1993
    x = sympy.Symbol("x")
    for q, degrees in fp.splitting:
        _, factors = sympy.Poly(x**3 - x - 1, x, modulus=q).factor_list()
        assert degrees == tuple(sorted(f.degree() for f, m in factors for _ in range(m)))


def test_fingerprint_of_a_repeated_factor_raises(monkeypatch):
    """Every prime divides a zero discriminant, so no prime can be listed:
    the search raises at once instead of growing its sieve without bound
    (primes_up_to is patched to refuse limits above 1e5)."""
    real = arith.primes_up_to

    def bounded(limit):
        if limit > 10**5:
            raise RuntimeError(f"prime sieve grew to {limit}")
        return real(limit)

    monkeypatch.setattr(arith, "primes_up_to", bounded)
    with pytest.raises(DomainError, match="zero discriminant"):
        kummer._fingerprint_irreducible(poly("x^2 - 2*x + 1"), 8)
    with pytest.raises(DomainError, match="irreducible minimal polynomial"):
        field_fingerprint(poly("(x^2 + 1)^2"), 8)


@given(
    coeffs=st.lists(st.integers(-20, 20), min_size=1, max_size=7),
    scale=st.integers(-6, 6).filter(bool),
    square=st.booleans(),
)
@example([1, 0, 1], -3, False)  # -3 (x^2 + 1): certified, negative content
@example([2, 0, 0, 1], 1, True)  # (x^3 + 2)^2: a repeated factor, no fingerprint
@example([1, 0, 1, 0, 1], 1, False)  # x^4 + x^2 + 1, reducible: no inert prime
@example([1, 0, 3, 0, 1], 2, False)  # 2 (x^4 + 3x^2 + 1), V4: never an inert prime
@example([5], 1, False)  # a constant
@settings(max_examples=150, deadline=None)
def test_factor_certified_is_factor_over_Q(coeffs, scale, square):
    """The factorization is factor_over_Q's, object for object; the
    fingerprint is that of the primitive part when it is squarefree."""
    f = IntPoly(coeffs).scale(scale)
    if square:
        f = f * f
    assume(not f.is_zero)
    fact, fp = kummer.factor_certified(f)
    assert fact == polyring.factor_over_Q(f)
    prim = f.primitive()
    squarefree = prim.degree >= 1 and polyring.discriminant(prim) != 0
    assert (fp is not None) == squarefree
    if squarefree:
        ref = kummer._fingerprint_irreducible(prim, kummer.DEFAULT_PRIME_BUDGET)
        assert (fp.degree, fp.splitting) == (ref.degree, ref.splitting)


def test_factor_certified_keeps_the_degree_bound():
    # x^13 + 2 is Eisenstein at 2, so an inert prime would certify it
    with pytest.raises(DomainError, match="exceeds factorization bound"):
        kummer.factor_certified(poly("x^13 + 2"))


def test_fingerprint_rejects_reducible():
    with pytest.raises(DomainError):
        field_fingerprint(poly("x^2 - 1"), 10)


def test_fingerprint_splitting_sums_to_degree():
    fp = field_fingerprint(poly("x^4 + 1"), 25)
    assert fp.degree == 4
    for q, degrees in fp.splitting:
        assert sum(degrees) == 4
    # x^4+1 splits into quadratics or linears at every odd prime
    assert all(max(d) <= 2 for _, d in fp.splitting)


_FINGERPRINT_ORACLE_POLYS = [f"x^3 + {n}*x + {n * n + 1}" for n in range(2, 31)] + [
    "x^4 + 3*x + 7",
    "2*x^6 + 3*x + 3",  # Eisenstein at 3, and lc 2 must be skipped
]


@pytest.mark.parametrize("text", _FINGERPRINT_ORACLE_POLYS)
def test_fingerprint_matches_sympy_factor_degrees(text):
    """Each listed q comes in ascending order, divides neither disc nor lc,
    and carries the sorted degrees of sympy's factor_list mod q.  The
    cubics are the fibers y^3 + n*y + n^2 + 1 of the plane cover."""
    f = poly(text)
    fp = field_fingerprint(f, kummer.DEFAULT_PRIME_BUDGET)
    x = sympy.symbols("x")
    coeffs = list(reversed(f.coeffs))
    skip = sympy.discriminant(sympy.Poly(coeffs, x)) * f.lc
    qs = [q for q, _ in fp.splitting]
    assert len(qs) == kummer.DEFAULT_PRIME_BUDGET
    assert qs == sorted(set(qs))
    for q, degrees in fp.splitting:
        assert sympy.isprime(q) and math.gcd(q, skip) == 1, (text, q)
        _, factors = sympy.Poly(coeffs, x, modulus=q).factor_list()
        assert degrees == tuple(sorted(g.degree() for g, _ in factors)), (text, q)


def test_fingerprint_oracle_skips_the_reducible_fiber():
    # n = 1: y^3 + y + 2 = (y + 1)(y^2 - y + 2)
    with pytest.raises(DomainError):
        field_fingerprint(poly("x^3 + 1*x + 2"), 10)


def test_soundness_chain_on_sample():
    """distinct ramified sets => distinct classes => equal classes have
    equal fingerprints; class-distinct equal-fingerprint pairs only logged."""
    from fiberfields.diversity import _radical_minpoly

    p = 2
    sample = [a for a in range(2, 120) if not radical_class(a, p).is_trivial]
    classes = {a: radical_class(a, p) for a in sample}
    fps = {a: field_fingerprint(_radical_minpoly(p, classes[a].canonical.reconstruct()), 100)
           for a in sample}
    collisions = 0
    for i, a in enumerate(sample):
        for b in sample[i + 1:]:
            same_class = classes[a].key() == classes[b].key()
            if ramified_set(a, p) != ramified_set(b, p):
                assert not same_class
            if same_class:
                assert fps[a] == fps[b]
            elif fps[a] == fps[b]:
                collisions += 1
    assert collisions == 0  # recorded; budget 100 separates this sample
