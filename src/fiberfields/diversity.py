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

Fibers are specialized (optionally across a process pool); series folds
are serial in increasing n, so reports are identical for every worker
count.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import arith, covers, kummer, polyring
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
        import math

        lp = math.log(self.p)
        return [r * lp for r in self.ranks]


# ---------------------------------------------------------------------------
# fiber streaming
# ---------------------------------------------------------------------------


def _specialize_range(args):
    cover, n0, n1, budget, prime_budget = args
    return [covers.specialize(cover, n, budget, prime_budget) for n in range(n0, n1)]


def _fiber_stream(
    cover: CoverSpec,
    N: int,
    jobs: int = 1,
    budget: int | None = None,
    prime_budget: int = kummer.DEFAULT_PRIME_BUDGET,
) -> list[FiberSpec]:
    if jobs <= 1:
        return _specialize_range((cover, 1, N + 1, budget, prime_budget))
    chunk = max(1, -(-N // (jobs * 4)))
    tasks = [
        (cover, n0, min(n0 + chunk, N + 1), budget, prime_budget)
        for n0 in range(1, N + 1, chunk)
    ]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        out: list[FiberSpec] = []
        for part in pool.map(_specialize_range, tasks):
            out.extend(part)
    return out


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


class _FingerprintGrouper:
    """Counts distinct fingerprint multisets conservatively: a new fiber
    joins the first compatible representative, else becomes a new one.
    Representatives are pairwise incompatible, hence provably pairwise
    distinct field multisets: the count is a certified lower bound."""

    def __init__(self):
        self.reps: list[tuple[FieldFingerprint, ...]] = []
        self._has_trivial = False

    def add(self, key) -> bool:
        """Returns True when the count grew."""
        if key == "Q":
            if self._has_trivial:
                return False
            self._has_trivial = True
            return True
        for rep in self.reps:
            if _multiset_compatible(rep, key):
                return False
        self.reps.append(key)
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
    """Primes dividing p, lc(g), or disc(radical(g)): the finite set the
    ramified-set method ignores (the computable stand-in for bad primes
    fixed once per cover)."""
    excluded = {cover.p}
    excluded |= arith.factor(cover.g.lc, budget).support()
    disc = polyring.discriminant(polyring.radical(cover.g))
    if disc != 0:
        excluded |= arith.factor(disc, budget).support()
    return frozenset(excluded)


# ---------------------------------------------------------------------------
# weak diversity
# ---------------------------------------------------------------------------


def _validate(cover: CoverSpec, N: int, method: str) -> None:
    if N < 1:
        raise DomainError("diversity", "N >= 1 required")
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


def weak_diversity_count(
    cover: CoverSpec,
    N: int,
    method: str = "exact-kummer",
    jobs: int = 1,
    budget: int | None = None,
    prime_budget: int = kummer.DEFAULT_PRIME_BUDGET,
    _fibers: list[FiberSpec] | None = None,
) -> DiversityReport:
    """Distinct residue fields over the fibers at x = 1..N, per method.

    Branch fibers are excluded; degenerate fibers count the field Q once;
    unresolved fibers are reported, never silently dropped.
    """
    _validate(cover, N, method)
    fibers = _fibers if _fibers is not None else _fiber_stream(
        cover, N, jobs, budget, prime_budget
    )
    skipped: list[tuple[int, str]] = []
    series: list[int] = []
    assumptions = _base_assumptions(cover, method)

    excluded: frozenset[int] = frozenset()
    if method == "ramified-set":
        excluded = ramified_excluded_primes(cover, budget)
        assumptions.append(
            "ramified-set exclusions: " + ", ".join(map(str, sorted(excluded)))
        )

    seen: set = set()
    grouper = _FingerprintGrouper()
    count = 0
    for fiber in fibers:
        if fiber.status == "branch":
            skipped.append((fiber.n, "branch"))
            series.append(count)
            continue
        if fiber.status == "unresolved":
            skipped.append((fiber.n, "unresolved"))
            series.append(count)
            continue
        if fiber.status == "degenerate":
            skipped.append((fiber.n, "degenerate-counted-as-Q"))
            key = "Q"
        elif method == "fingerprint":
            if isinstance(cover, CyclicCover):
                a = fiber.kummer_class.canonical.reconstruct()
                fp = kummer._fingerprint_irreducible(
                    _radical_minpoly(cover.p, a), prime_budget
                )
                key = (fp,)
            else:
                key = _sorted_fingerprints(fiber.factors)
        elif method == "exact-kummer":
            key = fiber.kummer_class.key()
        else:  # ramified-set
            key = frozenset(fiber.kummer_class.kernel.support()) - excluded - {cover.p}

        if method == "fingerprint":
            if grouper.add(key):
                count += 1
        else:
            if key not in seen:
                seen.add(key)
                count += 1
        series.append(count)

    return DiversityReport(
        cover=cover.describe(),
        N=N,
        method=method,
        series=tuple(series),
        skipped=tuple(skipped),
        assumptions=tuple(assumptions),
    )


# ---------------------------------------------------------------------------
# strong diversity: F_p-rank of kernel exponent vectors
# ---------------------------------------------------------------------------


class FpRowReducer:
    """Online row reduction over F_p with columns labelled by primes as
    they are discovered.  For p = 2 rows are int bitsets (bit 0 = sign);
    for odd p rows are sparse column->coefficient dicts."""

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
            low = row & -row
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = row
                self.rank += 1
                return True
            row ^= piv
        return False

    def _add_sparse(self, row: dict) -> bool:
        p = self.p
        pivots = self._pivots
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                inv = pow(row[col], -1, p)
                normalized = {k: v * inv % p for k, v in row.items()}
                pivots[col] = normalized
                self.rank += 1
                return True
            c = row[col]
            new = dict(row)
            for k, v in piv.items():
                w = (new.get(k, 0) - c * v) % p
                if w:
                    new[k] = w
                else:
                    new.pop(k, None)
            row = new
        return False


def strong_diversity_rank(
    cover: CoverSpec,
    N: int,
    jobs: int = 1,
    budget: int | None = None,
    _fibers: list[FiberSpec] | None = None,
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
    fibers = _fibers if _fibers is not None else _fiber_stream(cover, N, jobs, budget)
    reducer = FpRowReducer(cover.p)
    ranks: list[int] = []
    skipped: list[tuple[int, str]] = []
    for fiber in fibers:
        if fiber.status == "unresolved":
            raise BudgetError(
                "diversity",
                f"strong_diversity_rank aborted: fiber n = {fiber.n} unresolved ({fiber.note})",
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
    jobs: int = 1,
    budget: int | None = None,
    prime_budget: int = kummer.DEFAULT_PRIME_BUDGET,
) -> MethodComparison:
    """Run all three methods on one shared fiber scan and check the
    soundness order: ramified-set <= exact and fingerprint <= exact."""
    if not isinstance(cover, CyclicCover):
        raise DomainError("diversity", "compare_methods needs a cyclic cover")
    fibers = _fiber_stream(cover, N, jobs, budget, prime_budget)
    reports = {
        method: weak_diversity_count(
            cover, N, method, budget=budget, prime_budget=prime_budget, _fibers=fibers
        )
        for method in METHODS
    }
    cmp = MethodComparison(
        exact=reports["exact-kummer"],
        ramified=reports["ramified-set"],
        fingerprint=reports["fingerprint"],
    )
    for method, report in (("ramified-set", cmp.ramified), ("fingerprint", cmp.fingerprint)):
        if report.distinct > cmp.exact.distinct:
            raise DomainError(
                "diversity",
                f"internal: {method} count {report.distinct} exceeds the exact "
                f"count {cmp.exact.distinct}",
            )
    return cmp
