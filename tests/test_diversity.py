import dataclasses
import hashlib
import itertools
import json
import random
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy import GF, factorint
from sympy.polys.matrices import DomainMatrix

from fiberfields import arith, covers, diversity, kummer, sieve
from fiberfields.cli import main
from fiberfields.arith import Factorization
from fiberfields.covers import cover_from_text, normalize_cyclic, plane_cover
from fiberfields.diversity import (
    METHODS,
    FpRowReducer,
    compare_methods,
    norm_collision_check,
    ramified_excluded_primes,
    strong_diversity_rank,
    weak_diversity_count,
)
from fiberfields.errors import BudgetError, DomainError
from fiberfields.kummer import FieldFingerprint
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


@pytest.mark.parametrize("prime_budget", [0, -1])
def test_nonpositive_prime_budget_rejected(prime_budget):
    """A fingerprint needs at least one prime; a budget below 1 used to
    make the prime search run forever."""
    plane = plane_cover(parse_poly("y^3 + x*y + x^2 + 1"))
    with pytest.raises(DomainError, match="prime_budget must be positive"):
        weak_diversity_count(plane, 3, "fingerprint", prime_budget=prime_budget)
    with pytest.raises(DomainError, match="prime_budget must be positive"):
        compare_methods(cover_from_text("y^2 - (x^3 - x)"), 3, prime_budget=prime_budget)
    with pytest.raises(DomainError, match="prime_budget must be positive"):
        kummer._fingerprint_irreducible(poly("x^2 - 2"), prime_budget)


def test_cyclic_stream_hands_every_factor_its_trial_primes(monkeypatch):
    """No cyclic fiber falls back to arith.factor's own trial stage."""
    calls = []
    real = arith.factor

    def recording(n, budget=None, trial_primes=None, p=None):
        calls.append((n, trial_primes is not None))
        return real(n, budget, trial_primes, p)

    monkeypatch.setattr(arith, "factor", recording)
    cover = cover_from_text("y^2 - (x^3 - x)")
    fibers = list(diversity._fiber_stream(cover, 70))
    assert sorted(n for n, _ in calls) == sorted(
        f.value for f in fibers if f.status != "branch"
    )
    assert {hinted for _, hinted in calls} == {True}


def test_cyclic_stream_builds_one_factorization_per_fiber(monkeypatch):
    """The kernel arith.factor builds with p is the fiber's only
    Factorization: none is built first at full exponents and reduced
    after.  At N = 2000 most values of x^3 - x have an even exponent."""
    built = []
    ordered = Factorization.ordered.__func__
    checked = Factorization.__post_init__

    def counting_ordered(cls, sign, factors):
        f = ordered(cls, sign, factors)
        built.append(f)
        return f

    def counting_checked(self):
        checked(self)
        built.append(self)

    monkeypatch.setattr(Factorization, "ordered", classmethod(counting_ordered))
    monkeypatch.setattr(Factorization, "__post_init__", counting_checked)
    cover = cover_from_text("y^2 - (x^3 - x)")
    fibers = [f for f in diversity._fiber_stream(cover, 2000) if f.status != "branch"]
    assert len(fibers) == 1999
    assert [id(f) for f in built] == [id(f.kummer_class.kernel) for f in fibers]
    assert sum(any(e > 1 for _, e in arith.factor(f.value).factors) for f in fibers) > 1000


@pytest.fixture
def rho_log(monkeypatch):
    """A list with an entry for every arith._split and arith._brent_rho
    call."""
    log = []
    for name in ("_split", "_brent_rho"):
        real = getattr(arith, name)

        def recording(*args, real=real, name=name):
            log.append(f"{name} {args[0]}")
            return real(*args)

        monkeypatch.setattr(arith, name, recording)
    return log


def test_split_values_never_reach_rho(rho_log, tmp_path):
    """y^2 = x^3 - x: every prime of (n - 1) n (n + 1) is on a linear row,
    so no value is left for _split or rho under --jobs 1 or 2, and the two
    reports are byte-identical.  N is past TRIAL_DIVISION_LIMIT, so
    primes above it (10007 to 10099) divide some values."""
    blobs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"j{jobs}.json"
        assert main(["weak-diversity", "--cover", "y^2 - (x^3 - x)", "--N", "10100",
                     "--method", "exact", "--jobs", jobs, "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert rho_log == []
    assert blobs[0] == blobs[1]


def test_large_content_prime_is_factored_once(rho_log):
    """100160063 = 10007 * 10009 is split once per pass, not once a fiber."""
    cover = cover_from_text("y^2 - 100160063*(x^3 - x)")
    fibers = list(diversity._fiber_stream(cover, 300))
    assert [c for c in rho_log if c.startswith("_brent_rho")] == ["_brent_rho 100160063"]
    assert all(
        f.kummer_class.kernel.support() >= {10007, 10009} for f in fibers if f.status == "regular"
    )


def test_cyclic_fiber_proves_p_once(monkeypatch):
    cover = normalize_cyclic(5, poly("x^4 + 3x + 7"))
    proofs = []
    real = arith.is_prime

    def recording(n):
        proofs.append(n)
        return real(n)

    monkeypatch.setattr(arith, "is_prime", recording)
    fibers = list(diversity._fiber_stream(cover, 40))
    assert proofs.count(5) == len(fibers) == 40


# g for the stream oracle: the lists come from the table alone, merged
# with a batch split, or left to arith.factor.
STREAM_POLYS = (
    "x^4 + 3*x + 7",  # irreducible; composite cofactors from n = 100 on
    "x^2 + 1",
    "(x + 900000)*(x^2 + 10^9 + 7)",  # linear-row primes > 10^4 merge with split primes
    "10007*(x^3 + 2)",  # a content prime above 10^4
    "x^2 + 100140024",  # 10007^2 - 25: the cofactor at n = 5 is 10007^2
    "x^2 + 1002101470318",  # 10007^3 - 25: the cofactor at n = 5 is 10007^3
    "x^4 + 3*x + 2^52 + 1",  # cofactors above 2^50, in the lanes
    "x^4 + 3*x + 2^58 + 1",  # cofactors at or above 2^56, left to arith.factor
    "x^3 - 64000",  # (x - 40)(x^2 + 40x + 1600): negative values, a branch fiber
    # On both sides of the int64 envelope of the window's evaluation
    # (sieve._coefficient_bound(g, N) < 2**62): past it for every N ...
    "x^3 + 2^62 + 3",
    # ... and inside it up to N = 23, past it from N = 24 on: negative
    # values up to n = 19 and a branch fiber at n = 20 on both sides.
    "(x - 20)*(2^52*x + 1)",
)


def _fiber_fields(fiber):
    return fiber.n, fiber.status, fiber.value, fiber.kummer_class, fiber.note


@given(
    p=st.sampled_from([2, 3, 5]),
    g=st.sampled_from(STREAM_POLYS),
    N=st.integers(1, 60),
    budget=st.sampled_from([None, 40, 400]),
)
@example(p=5, g="x^4 + 3*x + 7", N=1500, budget=None)  # the lanes run
@example(p=5, g="x^4 + 3*x + 7", N=1500, budget=400)  # and overrun
@example(p=5, g="x^2 + 1002101470318", N=60, budget=40)  # unresolved fibers
@example(p=3, g="(x + 900000)*(x^2 + 10^9 + 7)", N=60, budget=None)
@example(p=2, g="x^2 + 100140024", N=6, budget=None)
@example(p=3, g="x^2 + 1002101470318", N=6, budget=None)
@example(p=2, g="x^4 + 3*x + 2^52 + 1", N=12, budget=400)
@example(p=3, g="x^4 + 3*x + 2^58 + 1", N=12, budget=400)
@example(p=5, g="x^3 - 64000", N=45, budget=None)
@example(p=2, g="x^3 + 2^62 + 3", N=12, budget=None)
@example(p=3, g="(x - 20)*(2^52*x + 1)", N=23, budget=None)  # int64 values
@example(p=3, g="(x - 20)*(2^52*x + 1)", N=24, budget=None)  # Python-int values
@example(p=2, g="(x - 20)*(2^52*x + 1)", N=40, budget=400)
@settings(max_examples=25, deadline=None)
def test_batched_stream_is_a_specialize_call_per_fiber(p, g, N, budget):
    """Every fiber of the stream is the one covers.specialize gives with
    the table's trial primes alone, where arith.factor runs rho on the
    whole cofactor: the same status, value, class and note, unresolved
    fibers included.  Without a budget it is
    also the one specialize gives with no trial primes, where arith.factor
    runs its own trial stage.  Under a budget that can differ: a listed
    prime above the trial limit (a linear row or the content's) shrinks
    the cofactor rho sees.  The stream evaluates g once per window, in
    int64 or in Python ints, and hands each value to specialize, so the
    values are those of per-fiber evaluation on both sides of the
    envelope, negative and zero ones included, and a handed value gives
    the fiber specialize gives on its own."""
    cover = cover_from_text(f"y^{p} - ({g})")
    lists = sieve.trial_prime_lists(sieve.trial_root_table(cover.factorization, N, budget), 1, N)
    want = [
        _fiber_fields(covers.specialize(cover, n, budget, trial_primes=primes))
        for n, primes in enumerate(lists, 1)
    ]
    if budget is None:
        alone = [covers.specialize(cover, n) for n in range(1, N + 1)]
        assert want == [_fiber_fields(f) for f in alone]
        assert alone == [covers.specialize(cover, n, value=cover.g(n)) for n in range(1, N + 1)]
    got = diversity._fiber_stream(cover, N, budget)
    assert [_fiber_fields(f) for f in got] == want


def test_the_stream_evaluates_g_once_per_window(monkeypatch):
    """No fiber of a cyclic stream, nor any value of
    exact_order_prime_ratio, is an IntPoly call on g: sieve.value_prime_lists
    evaluates g over each window as an array and hands the values down to
    segment_prime_lists, covers.specialize and exact_order_prime_ratio, on
    a complete table (x^3 - x) and an incomplete one."""
    calls = []
    call = IntPoly.__call__

    def recording(self, n):
        calls.append((self.coeffs, n))
        return call(self, n)

    cases = [
        (cover_from_text("y^2 - (x^3 - x)"), lambda c: weak_diversity_count(c, 2000)),
        (cover_from_text("y^5 - (x^4 + 3*x + 7)"), lambda c: strong_diversity_rank(c, 500)),
    ]
    monkeypatch.setattr(IntPoly, "__call__", recording)
    for cover, run in cases:
        calls.clear()
        run(cover)
        assert [n for coeffs, n in calls if coeffs == cover.g.coeffs] == []
    g = poly("x^2 + 1")
    calls.clear()
    assert sieve.exact_order_prime_ratio(g, 500)[0] > 0
    assert [n for coeffs, n in calls if coeffs == g.coeffs] == []


def test_stream_splits_cofactors_in_lanes_unless_the_table_is_complete(monkeypatch, tmp_path):
    """y^5 = x^4 + 3x + 7 at N = 2,000: the composite cofactors are below
    2**50 and are split in one lockstep batch, so rho never starts from
    scratch (350 times with a factor call per fiber), and the report is
    the one that stream wrote.  y^2 = x^3 - x: the table lists every
    prime of every value, so nothing is split and rho never runs."""
    splits, rho_calls = [], []
    split, rho = arith.split_cofactors, arith._brent_rho

    def recording_split(ms, budget=None):
        splits.append(len(ms))
        return split(ms, budget)

    def recording_rho(n, budget, lane=None):
        rho_calls.append(lane is None)
        return rho(n, budget, lane)

    monkeypatch.setattr(arith, "split_cofactors", recording_split)
    monkeypatch.setattr(arith, "_brent_rho", recording_rho)
    out = tmp_path / "quintic.json"
    assert main(["strong-diversity", "--cover", "y^5 - (x^4 + 3*x + 7)", "--N", "2000",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "c44886159101788676948dfee73503111e0e895b8f61606bdce3b22709fccec4"
    )
    assert len(splits) == 1 and rho_calls and not any(rho_calls)
    splits.clear()
    rho_calls.clear()
    cover = cover_from_text("y^2 - (x^3 - x)")
    assert weak_diversity_count(cover, 5000).distinct > 0
    assert splits == rho_calls == []


def test_stream_runs_rho_once_on_a_cofactor_past_the_budget(monkeypatch, tmp_path):
    """y^5 = x^4 + 3x + 7 at N = 5,000 under a budget of 2,000: the batch
    split decides every cofactor, 138 of them past the budget, and each
    such fiber is unresolved with the error the split named.  Rho runs
    inside arith.split_cofactors only; with a rerun in arith.factor it
    started from scratch 138 more times, and the report was the same."""
    inside, outside = [], []
    split, rho = arith.split_cofactors, arith._brent_rho

    def recording_split(ms, budget=None):
        inside.append(True)
        try:
            return split(ms, budget)
        finally:
            inside.pop()

    def recording_rho(n, budget, lane=None):
        if not inside:
            outside.append(n)
        return rho(n, budget, lane)

    monkeypatch.setattr(arith, "split_cofactors", recording_split)
    monkeypatch.setattr(arith, "_brent_rho", recording_rho)
    out = tmp_path / "weak.json"
    assert main(["weak-diversity", "--cover", "y^5 - (x^4 + 3*x + 7)", "--N", "5000",
                 "--method", "exact", "--factor-budget", "2000", "--out", str(out)]) == 0
    blob = out.read_bytes()
    assert hashlib.sha256(blob).hexdigest() == (
        "73af62d300adeb9b85447e038d6350310488557e11426205c6a048933c987d90"
    )
    skipped = json.loads(blob)["skipped"]
    assert len(skipped) == 138 and {s["reason"] for s in skipped} == {"unresolved"}
    assert outside == []


def test_serial_stream_splits_one_batch_per_window(monkeypatch, tmp_path):
    """y^5 = x^4 + 3x + 7 at N = 5,000 fits one window (sieve.window_size),
    so the serial stream makes one arith.split_cofactors call: each
    lockstep rho pays the same tail of steps whatever its width, and a
    window of 4,096 paid it twice.  The --jobs 2 run makes the same
    split and writes the same report."""
    splits = []
    split = arith.split_cofactors

    def recording_split(ms, budget=None):
        splits.append(len(ms))
        return split(ms, budget)

    monkeypatch.setattr(arith, "split_cofactors", recording_split)
    blobs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"j{jobs}.json"
        assert main(["strong-diversity", "--cover", "y^5 - (x^4 + 3*x + 7)", "--N", "5000",
                     "--jobs", jobs, "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert len(splits) == 2 and splits[0] == splits[1]
    assert blobs[0] == blobs[1]
    assert hashlib.sha256(blobs[0]).hexdigest() == (
        "b6a3eb5b406d457a5e466b2e86559f28053a6bc6c881a884462cab8a35852b48"
    )


def test_serial_stream_windows_are_the_fewest_of_one_size(monkeypatch):
    """ceil(N / sieve.LIST_SEGMENT) windows, all of sieve.window_size(N)
    fibers but the last, which is no larger: with a window of at most 8,
    N = 20 takes 7, 7 and 6, not 8, 8 and 4."""
    calls = []
    segment_prime_lists = sieve.segment_prime_lists

    def recording(table, values, n0, budget=None):
        calls.append((n0, len(values)))
        return segment_prime_lists(table, values, n0, budget)

    monkeypatch.setattr(sieve, "segment_prime_lists", recording)
    monkeypatch.setattr(sieve, "LIST_SEGMENT", 8)
    cover = cover_from_text("y^5 - (x^4 + 3*x + 7)")
    assert [f.n for f in diversity._fiber_stream(cover, 20)] == list(range(1, 21))
    assert calls == [(1, 7), (8, 7), (15, 6)]
    for N in range(1, 100):
        window = sieve.window_size(N)
        assert window <= 8 and -(-N // window) == -(-N // 8)


def test_quintic_report_is_the_same_for_every_worker_count(tmp_path):
    blobs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"j{jobs}.json"
        assert main(["strong-diversity", "--cover", "y^5 - (x^4 + 3*x + 7)", "--N", "500",
                     "--jobs", jobs, "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def _old_key_series(cover, N, method):
    """The weak series of a fold over a materialised fiber list, keyed by
    (p, sign, factors) tuples and ramified-prime frozensets."""
    fibers = [covers.specialize(cover, n) for n in range(1, N + 1)]
    excluded = ramified_excluded_primes(cover)
    seen, count, series = set(), 0, []
    for fiber in fibers:
        if fiber.status in ("branch", "unresolved"):
            series.append(count)
            continue
        cls = fiber.kummer_class
        if fiber.status == "degenerate":
            key = "Q"
        elif method == "exact-kummer":
            key = (cover.p, cls.canonical.sign, cls.canonical.factors)
        else:
            key = frozenset(cls.kernel.support()) - excluded - {cover.p}
        if key not in seen:
            seen.add(key)
            count += 1
        series.append(count)
    return tuple(series)


@st.composite
def _cyclic_covers(draw):
    """y^p = c * prod (x - r)^m, times x^2 + d or not: roots in 1..N give
    branch fibers, c < 0 or roots past n give negative values, and values
    that are p-th powers (as often for few roots) give degenerate fibers."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    c = draw(st.integers(-12, 12).filter(bool))
    g = IntPoly((c,))
    for _ in range(draw(st.integers(0, 3))):
        r = draw(st.integers(-5, 40))
        for _ in range(draw(st.integers(1, p - 1))):
            g = g * IntPoly((-r, 1))
    if draw(st.booleans()):
        g = g * IntPoly((draw(st.integers(-6, 6)), 0, 1))
    try:
        return normalize_cyclic(p, g)
    except DomainError:
        assume(False)


@given(_cyclic_covers(), st.integers(1, 60))
@settings(max_examples=150, deadline=None)
@example(normalize_cyclic(2, poly("-x^2 + 4x")), 12)  # degenerate n = 2, branch n = 4
@example(normalize_cyclic(3, poly("x")), 30)  # cubes degenerate
def test_int_keys_match_tuple_and_frozenset_keys(cover, N):
    for method in ("exact-kummer", "ramified-set"):
        assert weak_diversity_count(cover, N, method).series == _old_key_series(cover, N, method)


@pytest.mark.parametrize("method", ["exact-kummer", "ramified-set"])
def test_weak_fold_memory_per_fiber(method):
    """The weak fold holds one int per distinct class, not the fibers."""
    cov = cover_from_text("y^2 - (x^3 - x)")
    N = 20_000
    weak_diversity_count(cov, 10, method)  # build the lazy tables first
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = weak_diversity_count(cov, N, method)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.series) == N
    assert (peak - base) / N < 400


# ---------------------------------------------------------------------------
# fingerprint grouper
# ---------------------------------------------------------------------------


def _naively_compatible(a, b) -> bool:
    """Some ordering of b matches a fingerprint for fingerprint."""
    return len(a) == len(b) and any(
        all(x == y for x, y in zip(a, perm)) for perm in itertools.permutations(b)
    )


def _naive_group(keys):
    """Greedy first-compatible scan over every representative."""
    reps, has_trivial, grew = [], False, []
    for key in keys:
        if key == "Q":
            grew.append(not has_trivial)
            has_trivial = True
        elif any(_naively_compatible(rep, key) for rep in reps):
            grew.append(False)
        else:
            reps.append(key)
            grew.append(True)
    return grew, reps


_GROUPER_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
_PARTITIONS = {1: [(1,)], 2: [(1, 1), (2,)], 3: [(1, 1, 1), (1, 2), (3,)],
               4: [(1, 1, 1, 1), (1, 1, 2), (1, 3), (2, 2), (4,)]}


# A base field: degree and a splitting-type choice at each prime.
_FIELDS = st.lists(
    st.tuples(st.integers(1, 4), st.lists(st.integers(0, 4), min_size=10, max_size=10)),
    min_size=1, max_size=5,
)
# A key: no factors for "Q", else per factor (base field, index of the
# prime whose type changes if it is >= 0, the new type, mask of the primes
# kept).
_KEY_SPECS = st.lists(
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(-10, 9), st.integers(0, 4),
                  st.integers(0, 2 ** 10 - 1)),
        max_size=3,
    ),
    min_size=5, max_size=30,
)


@st.composite
def _fingerprint_streams(draw):
    """Keys drawn from a few base fields, so that many keys are compatible.
    Each factor drops some primes (as when q divides the discriminant) and
    may change one splitting type; keys may repeat a field, and "Q" stands
    for a degenerate fiber."""
    fields = draw(_FIELDS)
    keys = []
    for spec in draw(_KEY_SPECS):
        if not spec:
            keys.append("Q")
            continue
        factors = []
        for field, changed, new_type, kept in spec:
            degree, choices = fields[field % len(fields)]
            choices = list(choices)
            if changed >= 0:
                choices[changed] = new_type
            partitions = _PARTITIONS[degree]
            splitting = tuple(
                (q, partitions[c % len(partitions)])
                for i, (q, c) in enumerate(zip(_GROUPER_PRIMES, choices))
                if kept >> i & 1
            )
            factors.append(FieldFingerprint(degree, splitting))
        keys.append(tuple(sorted(factors, key=lambda f: (f.degree, f.splitting))))
    return keys


@given(_fingerprint_streams())
@settings(max_examples=300, deadline=None)
def test_grouper_matches_naive_scan(keys):
    grouper = diversity._FingerprintGrouper()
    grew = [grouper.add(key) for key in keys]
    naive_grew, naive_reps = _naive_group(keys)
    assert grew == naive_grew
    assert len(grouper.reps) == len(naive_reps)
    assert all(a is b for a, b in zip(grouper.reps, naive_reps))
    assert grouper.count == sum(grew)


def test_grouper_compat_checks_stay_near_linear(monkeypatch):
    """The index keeps the grouper far from one check per (fiber, rep)
    pair: a full scan makes 44,552 checks at N = 300.  At N = 1,000 it
    makes at most one per fiber; probing the first 8 primes alone made
    8,415 there."""
    calls = 0
    real = diversity._multiset_compatible

    def counted(a, b):
        nonlocal calls
        calls += 1
        return real(a, b)

    monkeypatch.setattr(diversity, "_multiset_compatible", counted)
    cover = cover_from_text("y^3 + x*y + x^2 + 1")
    rep = weak_diversity_count(cover, 300, "fingerprint")
    assert rep.distinct == 299
    assert 0 < calls < 5_000
    calls = 0
    rep = weak_diversity_count(cover, 1000, "fingerprint")
    assert rep.distinct == 999
    assert 0 < calls <= 1000


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
    with pytest.raises(DomainError, match="N >= 1 required"):
        strong_diversity_rank(cover_from_text("y^2 - (x^3 - x)"), 0)


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


_RANK_PRIMES = (2, 3, 5, 7, 11, 13)


@st.composite
def _kernel_rows(draw):
    """(p, rows): rows introduce new primes, reuse only primes already
    seen, repeat an earlier row, or vanish mod p; the sign is random."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    rows, seen = [], []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["fresh", "old", "repeat", "zero"]))
        sign = draw(st.sampled_from([1, -1]))
        if kind == "repeat" and rows:
            rows.append(draw(st.sampled_from(rows)))
            continue
        primes = draw(st.sets(st.sampled_from(seen if kind == "old" and seen else _RANK_PRIMES)))
        if kind == "zero":
            exps = {q: p * draw(st.integers(1, 2)) for q in primes}
            sign = 1 if p == 2 else sign
        else:
            exps = {q: draw(st.integers(1, 2 * p)) for q in primes}
        seen.extend(q for q in sorted(exps) if q not in seen)
        rows.append(Factorization(sign, tuple(sorted(exps.items()))))
    return p, rows


def _sympy_prefix_ranks(p, rows):
    K = GF(p)
    dense = [
        [K(int(p == 2 and f.sign == -1))]
        + [K(dict(f.factors).get(q, 0)) for q in _RANK_PRIMES]
        for f in rows
    ]
    width = 1 + len(_RANK_PRIMES)
    return [DomainMatrix(dense[:k], (k, width), K).rank() for k in range(1, len(rows) + 1)]


@given(_kernel_rows())
@settings(max_examples=200, deadline=None)
def test_fp_reducer_prefix_ranks_match_sympy(case):
    p, rows = case
    red = FpRowReducer(p)
    ranks = []
    for f in rows:
        before = red.rank
        grew = red.add_kernel(f)
        assert red.rank == before + grew
        ranks.append(red.rank)
    assert ranks == _sympy_prefix_ranks(p, rows)


def _factorint_prefix_ranks(values, p):
    """Prefix F_p-ranks of the exponent vectors of `values` mod p (with a
    sign column when p = 2), by elimination on the smallest label."""
    basis: dict[int, dict[int, int]] = {}
    ranks = []
    for v in values:
        row = {q: e % p for q, e in factorint(v).items() if e % p and (q != -1 or p == 2)}
        while row:
            low = min(row)
            if low not in basis:
                inv = pow(row[low], -1, p)
                basis[low] = {q: e * inv % p for q, e in row.items()}
                break
            c = row[low]
            for q, e in basis[low].items():
                row[q] = (row.get(q, 0) - c * e) % p
            row = {q: e for q, e in row.items() if e}
        ranks.append(len(basis))
    return ranks


@pytest.mark.parametrize("p", [5, 2])
def test_strong_rank_series_matches_factorint_elimination(p):
    cov = cover_from_text(f"y^{p} - (x^4 + 3*x + 7)")
    rep = strong_diversity_rank(cov, 80)
    assert list(rep.ranks) == _factorint_prefix_ranks(
        [n**4 + 3 * n + 7 for n in range(1, 81)], p
    )


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
    with pytest.raises(DomainError, match="N >= 1 required"):
        norm_collision_check(poly("x^2 + 1"), 0)


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
    real = diversity._WeakFold.report

    def inflated(fold, N):
        report = real(fold, N)
        if fold.method == method:
            report = dataclasses.replace(report, series=report.series + (10**6,))
        return report

    monkeypatch.setattr(diversity._WeakFold, "report", inflated)
    with pytest.raises(DomainError, match=f"internal: {method} count 1000000 exceeds"):
        compare_methods(cover_from_text("y^2 - (x^3 - x)"), 20)


def test_compare_methods_specializes_each_fiber_once(monkeypatch):
    calls = []
    real = covers.specialize

    def counted(cover, n, *args):
        calls.append(n)
        return real(cover, n, *args)

    monkeypatch.setattr(covers, "specialize", counted)
    cov = cover_from_text("y^2 - (x^3 - x)")
    cmp = compare_methods(cov, 60)
    assert calls == list(range(1, 61))
    monkeypatch.undo()
    for method, report in zip(METHODS, (cmp.exact, cmp.ramified, cmp.fingerprint)):
        assert report == weak_diversity_count(cov, 60, method)


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
