"""Counting engines over fibers 1..N: distinct residue fields per prefix,
compositum degree growth as F_p-rank of kernel exponent vectors, and the
norm-collision bound.

Three counting methods with a fixed soundness order (both inequalities
hold for every prefix):

  exact-kummer   distinct canonical Kummer classes; exact for cyclic covers.
  ramified-set   distinct ramified-prime sets away from a cover-dependent
                 excluded set; a certified lower bound for the exact count.
  fingerprint    distinct splitting-type fingerprints, grouped greedily into
                 pairwise-incompatible representatives; the representatives
                 are provably pairwise non-isomorphic, so the group count is
                 again a certified lower bound.

Fibers are specialized in one lazy pass over n = 1..N.  On a cyclic cover
the value g(n) reaches arith.factor with its primes already known, or
with the budget overrun met on it, from sieve.value_prime_lists.  Each fiber
is folded as it arrives, so no fold holds the fibers: a weak fold keeps
one int per distinct class (exact-kummer: the canonical value of the
Kummer class; ramified-set: the product of the ramified primes), and
compare_methods feeds its three folds from the same pass.  The pass and
the folds run in one process in increasing n, so a report depends on
the cover, N, the method and the budgets alone.  Both the rank fold and
the fingerprint grouper do near-linear work in N: the rank fold pivots
each row on its newest prime, so a row bringing a new prime needs no
elimination (FpRowReducer), and the fingerprint grouper indexes its
representatives by degree shape and by splitting types at small primes,
so it checks a fiber only against representatives that could match
(_FingerprintGrouper).
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass

from . import arith, covers, kummer, polyring, sieve
from .covers import CoverSpec, CyclicCover, FiberSpec, PlaneCover
from .errors import BudgetError, DomainError
from .kummer import FieldFingerprint
from .polyring import IntPoly

METHODS = ("exact-kummer", "ramified-set", "fingerprint")


@dataclass(frozen=True)
class DiversityReport:
    cover: dict
    N: int
    method: str
    series: tuple[int, ...]
    skipped: tuple[tuple[int, str], ...]
    assumptions: tuple[str, ...]

    @property
    def distinct(self) -> int:
        return self.series[-1]

    @property
    def ratio(self) -> float:
        return self.distinct / self.N


@dataclass(frozen=True)
class CompositumReport:
    cover: dict
    p: int
    N: int
    ranks: tuple[int, ...]
    skipped: tuple[tuple[int, str], ...]

    @property
    def rank(self) -> int:
        return self.ranks[-1]

    def log_degree_series(self) -> list[float]:
        lp = math.log(self.p)
        return [r * lp for r in self.ranks]


# ---------------------------------------------------------------------------
# fiber streaming
# ---------------------------------------------------------------------------


def _fiber_stream(
    cover: CoverSpec,
    N: int,
    budget: int | None = None,
    prime_budget: int = kummer.DEFAULT_PRIME_BUDGET,
) -> Iterator[FiberSpec]:
    """The fibers over x = 1..N in increasing n, specialized lazily; a
    cyclic value is handed the primes sieve.value_prime_lists gives it."""
    if isinstance(cover, CyclicCover):
        for n, primes in sieve.value_prime_lists(cover.factorization, N, budget):
            yield covers.specialize(cover, n, budget, prime_budget, primes)
    else:
        for n in range(1, N + 1):
            yield covers.specialize(cover, n, budget, prime_budget)


# ---------------------------------------------------------------------------
# fingerprint grouping: greedy antichain of pairwise-incompatible reps
# ---------------------------------------------------------------------------


def _multiset_compatible(
    a: tuple[FieldFingerprint, ...], b: tuple[FieldFingerprint, ...]
) -> bool:
    """Whether the two fingerprint multisets could describe the same
    multiset of fields: a perfect matching under fingerprint equality."""
    if len(a) != len(b):
        return False
    if sorted(f.degree for f in a) != sorted(f.degree for f in b):
        return False
    match: list[int | None] = [None] * len(b)

    def try_assign(i: int, seen: set[int]) -> bool:
        for j in range(len(b)):
            if j in seen or a[i] != b[j]:
                continue
            seen.add(j)
            if match[j] is None or try_assign(match[j], seen):
                match[j] = i
                return True
        return False

    return all(try_assign(i, set()) for i in range(len(a)))


# Small primes at which the grouper indexes splitting types; a fingerprint
# lists each good prime in increasing order, so these are at its front.
# The first 24 primes: on y^3 + x*y + x^2 + 1 the grouper makes 1
# _multiset_compatible call at N = 100 and 1 at N = 1,000, against 71 and
# 8,415 with the first 8, and the series is the same.
_PROBE_PRIMES = tuple(arith.primes_up_to(89))


def _index_keys(key: tuple[FieldFingerprint, ...]):
    """The degree shape of a fingerprint multiset, and its signature at
    each probe prime that every fingerprint in it lists: the sorted
    multiset of (degree, splitting type at q)."""
    shape = tuple(sorted(f.degree for f in key))
    listed = [dict(f.splitting[: len(_PROBE_PRIMES)]) for f in key]
    signatures = []
    for q in _PROBE_PRIMES:
        if all(q in types for types in listed):
            signatures.append(
                (q, tuple(sorted((f.degree, types[q]) for f, types in zip(key, listed))))
            )
    return shape, signatures


class _FingerprintGrouper:
    """Counts distinct fingerprint multisets conservatively: a new fiber
    joins the first compatible representative, else becomes a new one.
    Representatives are pairwise incompatible, hence provably pairwise
    distinct field multisets: the count is a certified lower bound.

    An index of rep-index bitsets skips only reps that provably cannot
    match.  A perfect matching under fingerprint equality needs equal
    sorted degree tuples, and, at a prime q listed by every fingerprint on
    both sides, equal multisets of (degree, splitting type at q).  So the
    candidates are the reps of the key's degree shape that, at each probe
    prime the key lists throughout, either do not list q throughout or
    have the key's signature there.  The candidates are tried in rep
    order, and every skipped rep is incompatible, so the first compatible
    rep, the reps list and the count are those of a scan over every rep."""

    def __init__(self):
        self.reps: list[tuple[FieldFingerprint, ...]] = []
        self._has_trivial = False
        self._by_shape: dict[tuple[int, ...], int] = {}
        self._listed: dict[int, int] = dict.fromkeys(_PROBE_PRIMES, 0)
        self._by_signature: dict[tuple, int] = {}

    def add(self, key) -> bool:
        """Returns True when the count grew."""
        if key == "Q":
            if self._has_trivial:
                return False
            self._has_trivial = True
            return True
        reps = self.reps
        shape, signatures = _index_keys(key)
        everyone = (1 << len(reps)) - 1
        candidates = self._by_shape.get(shape, 0)
        for q, sig in signatures:
            candidates &= (everyone ^ self._listed[q]) | self._by_signature.get((q, sig), 0)
        while candidates:
            low = candidates & -candidates
            if _multiset_compatible(reps[low.bit_length() - 1], key):
                return False
            candidates ^= low
        bit = 1 << len(reps)
        reps.append(key)
        self._by_shape[shape] = self._by_shape.get(shape, 0) | bit
        for q, sig in signatures:
            self._listed[q] |= bit
            self._by_signature[(q, sig)] = self._by_signature.get((q, sig), 0) | bit
        return True

    @property
    def count(self) -> int:
        return len(self.reps) + (1 if self._has_trivial else 0)


def _sorted_fingerprints(
    pairs: tuple[tuple[IntPoly, FieldFingerprint], ...]
) -> tuple[FieldFingerprint, ...]:
    return tuple(
        fp
        for _, fp in sorted(
            pairs, key=lambda t: (t[1].degree, t[1].splitting, t[0].coeffs)
        )
    )


def _radical_minpoly(p: int, a: int) -> IntPoly:
    return IntPoly((-a,) + (0,) * (p - 1) + (1,))


# ---------------------------------------------------------------------------
# the ramified-set exclusions
# ---------------------------------------------------------------------------


def ramified_excluded_primes(cover: CyclicCover, budget: int | None = None) -> frozenset[int]:
    """Primes dividing p, lc(g), or disc(radical(g)), the discriminant of
    the branch polynomial: the finite set the ramified-set method ignores
    (the computable stand-in for bad primes fixed once per cover)."""
    excluded = {cover.p}
    excluded |= arith.factor(cover.g.lc, budget).support()
    disc = polyring.discriminant(covers.branch_polynomial(cover))
    if disc != 0:
        excluded |= arith.factor(disc, budget).support()
    return frozenset(excluded)


# ---------------------------------------------------------------------------
# weak diversity
# ---------------------------------------------------------------------------


def _validate(cover: CoverSpec, N: int, method: str, prime_budget: int) -> None:
    if N < 1:
        raise DomainError("diversity", "N >= 1 required")
    if prime_budget < 1:
        raise DomainError("diversity", "prime_budget must be positive")
    if method not in METHODS:
        raise DomainError("diversity", f"unknown method {method!r} (choose from {METHODS})")
    if method in ("exact-kummer", "ramified-set") and not isinstance(cover, CyclicCover):
        raise DomainError("diversity", f"method {method} needs a cyclic cover")


def _base_assumptions(cover: CoverSpec, method: str) -> list[str]:
    notes = []
    if isinstance(cover, PlaneCover):
        if cover.irreducibility_certified:
            notes.append(
                "plane model irreducibility certified by the specialization at "
                f"x = {cover.irreducibility_witness}"
            )
        else:
            notes.append(
                "plane model assumed geometrically irreducible (no irreducible "
                "specialization found among the sampled fibers)"
            )
    if method == "ramified-set":
        notes.append("ramified-set counts are a certified lower bound for the exact count")
    if method == "fingerprint":
        notes.append(
            "fingerprint counts distinct pairwise-incompatible splitting fingerprints: "
            "a certified lower bound for the number of distinct residue-field multisets"
        )
    if isinstance(cover, CyclicCover) and cover.removed:
        notes.append(
            "fibers at roots of removed p-th-power factors keep their class only "
            "away from those roots"
        )
    return notes


class _WeakFold:
    """The series of one weak method, fed the fibers one at a time in
    increasing n.

    Exact-kummer keys a class by its canonical value, a signed product of
    distinct primes with exponents in [1, p-1], and ramified-set by the
    product of its ramified primes (1 for none): one int per distinct
    class, injective by unique factorization (the canonical value is the
    one in KummerClass.key()).  Degenerate fibers share the key "Q"."""

    def __init__(
        self, cover: CoverSpec, method: str, budget: int | None, prime_budget: int
    ):
        self.cover = cover
        self.method = method
        self.prime_budget = prime_budget
        self.assumptions = _base_assumptions(cover, method)
        self.excluded: frozenset[int] = frozenset()
        if method == "ramified-set":
            self.excluded = ramified_excluded_primes(cover, budget)
            self.assumptions.append(
                "ramified-set exclusions: " + ", ".join(map(str, sorted(self.excluded)))
            )
        self.series: list[int] = []
        self.skipped: list[tuple[int, str]] = []
        self._seen: set = set()
        self._grouper = _FingerprintGrouper()
        self._count = 0

    def add(self, fiber: FiberSpec) -> None:
        cover, method, status = self.cover, self.method, fiber.status
        if status == "regular" and method == "exact-kummer":
            key = fiber.kummer_class.canonical.reconstruct()
        elif status in ("branch", "unresolved"):
            self.skipped.append((fiber.n, status))
            self.series.append(self._count)
            return
        elif status == "degenerate":
            self.skipped.append((fiber.n, "degenerate-counted-as-Q"))
            key = "Q"
        elif method == "fingerprint":
            if isinstance(cover, CyclicCover):
                a = fiber.kummer_class.canonical.reconstruct()
                fp = kummer._fingerprint_irreducible(
                    _radical_minpoly(cover.p, a), self.prime_budget
                )
                key = (fp,)
            else:
                key = _sorted_fingerprints(fiber.factors)
        else:  # ramified-set; the exclusions hold p
            factors = fiber.kummer_class.kernel.factors
            key = math.prod(q for q, _ in factors if q not in self.excluded)

        if method == "fingerprint":
            if self._grouper.add(key):
                self._count += 1
        elif key not in self._seen:
            self._seen.add(key)
            self._count += 1
        self.series.append(self._count)

    def report(self, N: int) -> DiversityReport:
        return DiversityReport(
            cover=self.cover.describe(),
            N=N,
            method=self.method,
            series=tuple(self.series),
            skipped=tuple(self.skipped),
            assumptions=tuple(self.assumptions),
        )


def weak_diversity_count(
    cover: CoverSpec,
    N: int,
    method: str = "exact-kummer",
    budget: int | None = None,
    prime_budget: int = kummer.DEFAULT_PRIME_BUDGET,
) -> DiversityReport:
    """Distinct residue fields over the fibers at x = 1..N, per method.

    Branch fibers are excluded; degenerate fibers count the field Q once;
    unresolved fibers are reported, never silently dropped.
    """
    _validate(cover, N, method, prime_budget)
    fold = _WeakFold(cover, method, budget, prime_budget)
    for fiber in _fiber_stream(cover, N, budget, prime_budget):
        fold.add(fiber)
    return fold.report(N)


# ---------------------------------------------------------------------------
# strong diversity: F_p-rank of kernel exponent vectors
# ---------------------------------------------------------------------------


class FpRowReducer:
    """Online row reduction over F_p with columns labelled by primes as
    they are discovered.  For p = 2 rows are int bitsets (bit 0 = sign);
    for odd p rows are sparse column->coefficient dicts.

    Each row pivots on its newest column, the largest column index.  The
    rank of a set of rows does not depend on which nonzero entry each
    pivot uses; here every stored pivot row's pivot is its largest column,
    so each reduction step strictly lowers the top column of the row being
    reduced and the loop ends.  Columns are numbered in order of
    discovery, so a row holding a never-seen prime is a new pivot at once,
    with no elimination: the singleton rule of structured Gaussian
    elimination (LaMacchia and Odlyzko, "Solving large sparse linear
    systems over finite fields", 1990).  Odd-p pivot rows are stored
    scaled so that the pivot entry is 1, and without that entry."""

    def __init__(self, p: int):
        self.p = p
        self.columns: dict = {}
        self._pivots: dict = {}
        self.rank = 0

    def _column(self, label) -> int:
        idx = self.columns.get(label)
        if idx is None:
            idx = len(self.columns)
            self.columns[label] = idx
        return idx

    def add_kernel(self, kernel: arith.Factorization) -> bool:
        """Reduce the exponent vector of a kernel; True if the rank grew."""
        if self.p == 2:
            row = 0
            if kernel.sign == -1:
                row |= 1 << self._column("sign")
            for q, e in kernel.factors:
                if e % 2:
                    row |= 1 << self._column(q)
            return self._add_bitset(row)
        row = {self._column(q): e % self.p for q, e in kernel.factors if e % self.p}
        return self._add_sparse(row)

    def _add_bitset(self, row: int) -> bool:
        pivots = self._pivots
        while row:
            top = row.bit_length()
            piv = pivots.get(top)
            if piv is None:
                pivots[top] = row
                self.rank += 1
                return True
            row ^= piv
        return False

    def _add_sparse(self, row: dict) -> bool:
        p = self.p
        pivots = self._pivots
        while row:
            col = max(row)
            piv = pivots.get(col)
            if piv is None:
                inv = pow(row.pop(col), -1, p)
                pivots[col] = {k: v * inv % p for k, v in row.items()}
                self.rank += 1
                return True
            c = row.pop(col)
            for k, v in piv.items():
                w = (row.get(k, 0) - c * v) % p
                if w:
                    row[k] = w
                else:
                    del row[k]
        return False


def strong_diversity_rank(
    cover: CoverSpec,
    N: int,
    budget: int | None = None,
) -> CompositumReport:
    """Rank over F_p of the kernel exponent vectors of g(1..n); the
    compositum of the fiber fields has degree p**rank over Q (adjoining
    p-th roots of unity has degree prime to p, so no collapse).

    Each row has a column per prime, plus a sign column when p = 2, so
    the rank is at most the number of distinct primes dividing
    g(1)..g(N), plus one when p = 2.  When g splits into linear factors
    over Q those primes are O(N), so the rank is O(N / log N); linear
    growth is the case of a nonrational branch point."""
    if not isinstance(cover, CyclicCover):
        raise DomainError("diversity", "strong_diversity_rank needs a cyclic cover")
    if N < 1:
        raise DomainError("diversity", "N >= 1 required")
    reducer = FpRowReducer(cover.p)
    ranks: list[int] = []
    skipped: list[tuple[int, str]] = []
    for fiber in _fiber_stream(cover, N, budget):
        if fiber.status == "unresolved":
            raise BudgetError(
                "diversity",
                f"strong_diversity_rank aborted: fiber n = {fiber.n} unresolved "
                f"({fiber.note})",
            )
        if fiber.status == "branch":
            skipped.append((fiber.n, "branch"))
        else:
            reducer.add_kernel(fiber.kummer_class.kernel)
        ranks.append(reducer.rank)
    return CompositumReport(
        cover=cover.describe(),
        p=cover.p,
        N=N,
        ranks=tuple(ranks),
        skipped=tuple(skipped),
    )


# ---------------------------------------------------------------------------
# norm collisions
# ---------------------------------------------------------------------------


def norm_collision_check(h: IntPoly, N: int) -> tuple[int, int]:
    """Max multiplicity of a value of |h| on 1..N and the smallest value
    attaining it.  |h(n)| = v has at most deg(h) solutions per sign, so the
    multiplicity can never exceed 2 deg(h)."""
    if h.degree < 1:
        raise DomainError("diversity", "norm_collision_check needs a non-constant polynomial")
    if N < 1:
        raise DomainError("diversity", "N >= 1 required")
    counts = Counter(abs(h(n)) for n in range(1, N + 1))
    max_mult = max(counts.values())
    witness = min(v for v, c in counts.items() if c == max_mult)
    if max_mult > 2 * h.degree:
        raise DomainError(
            "diversity", f"internal: norm multiplicity {max_mult} exceeds 2*deg(h)"
        )
    return max_mult, witness


# ---------------------------------------------------------------------------
# cross-method comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MethodComparison:
    exact: DiversityReport
    ramified: DiversityReport
    fingerprint: DiversityReport

    def table(self) -> dict[str, int]:
        return {
            "exact-kummer": self.exact.distinct,
            "ramified-set": self.ramified.distinct,
            "fingerprint": self.fingerprint.distinct,
        }


def compare_methods(
    cover: CoverSpec,
    N: int,
    budget: int | None = None,
    prime_budget: int = kummer.DEFAULT_PRIME_BUDGET,
) -> MethodComparison:
    """Run all three methods on one pass over the fibers and check the
    soundness order: ramified-set <= exact and fingerprint <= exact."""
    if not isinstance(cover, CyclicCover):
        raise DomainError("diversity", "compare_methods needs a cyclic cover")
    for method in METHODS:
        _validate(cover, N, method, prime_budget)
    folds = [_WeakFold(cover, method, budget, prime_budget) for method in METHODS]
    for fiber in _fiber_stream(cover, N, budget, prime_budget):
        for fold in folds:
            fold.add(fiber)
    exact, ramified, fingerprint = (fold.report(N) for fold in folds)
    cmp = MethodComparison(exact=exact, ramified=ramified, fingerprint=fingerprint)
    for method, report in (("ramified-set", cmp.ramified), ("fingerprint", cmp.fingerprint)):
        if report.distinct > cmp.exact.distinct:
            raise DomainError(
                "diversity",
                f"internal: {method} count {report.distinct} exceeds the exact "
                f"count {cmp.exact.distinct}",
            )
    return cmp
