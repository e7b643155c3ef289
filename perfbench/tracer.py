"""Outside-in layer tracing for one `fiberfields` process.

The tracer replaces module-level functions and methods at the boundaries
where one layer calls another (`setattr` on the module or class, so the
library source stays untouched) and keeps a span stack.  A span's self
time is its duration minus the durations of the spans it encloses, so the
self times of all spans add up to the duration of the outermost one,
`cli.run`.  Every boundary below is reached through a module attribute at
call time, which is what makes the interception see every call.
"""

from __future__ import annotations

import functools
import importlib
import math
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

import numpy as np


@dataclass
class Span:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


# (module, attribute, span name); "Class.method" attributes patch the class.
SPANS = (
    ("cli", "run", "cli.run"),
    ("covers", "cover_from_text", "covers.cover_from_text"),
    ("covers", "specialize", "covers.specialize"),
    ("arith", "factor", "arith.factor"),
    ("kummer", "radical_class", "kummer.radical_class"),
    ("kummer", "_fingerprint_irreducible", "kummer.fingerprint"),
    ("diversity", "_fiber_stream", "diversity.fiber_stream"),
    ("diversity", "weak_diversity_count", "diversity.fold"),
    ("diversity", "strong_diversity_rank", "diversity.fold"),
    ("diversity", "FpRowReducer.add_kernel", "diversity.rank_fold"),
    ("diversity", "_FingerprintGrouper.add", "diversity.fingerprint_group"),
    ("polyring", "factor_over_Q", "polyring.factor_over_Q"),
    ("_modpoly", "splitting_degrees", "modpoly.splitting_degrees"),
    ("sieve", "squarefree_value_count", "sieve.squarefree_value_count"),
    ("sieve", "fixed_square_primes", "sieve.fixed_square_primes"),
    ("sieve", "euler_density", "sieve.euler_density"),
    ("_kernels", "squarefree_scan", "kernels.squarefree_scan"),
    ("_kernels", "eval_poly_range", "kernels.eval_poly_range"),
)
# Counted but not timed: 5e5 calls per run on plane-fingerprint, each far
# cheaper than a span's own bookkeeping.
COUNTED = (("diversity", "_multiset_compatible", "diversity.compat_check"),)


def _owner(modules: dict, module: str, attr: str):
    obj = modules[module]
    *path, leaf = attr.split(".")
    for part in path:
        obj = getattr(obj, part)
    return obj, leaf


class Tracer:
    """Installs span wrappers on the `fiberfields` modules; use as a
    context manager.  Leaving it puts every original object back."""

    def __init__(self, package):
        names = {m for m, _, _ in SPANS + COUNTED}
        self.modules = {m: importlib.import_module(f"{package.__name__}.{m}") for m in names}
        self.spans: dict[str, Span] = {}
        self.counts: Counter = Counter()
        self.scan_args: list[tuple[np.ndarray, int, int, np.ndarray]] = []
        self._stack: list[list] = []  # [span name, child seconds]
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for module, attr, name in SPANS:
            self._patch(module, attr, lambda fn, name=name: self._timed(name, fn))
        for module, attr, name in COUNTED:
            self._patch(module, attr, lambda fn, name=name: self._counted(name, fn))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)
        return False

    def _patch(self, module, attr, make):
        owner, leaf = _owner(self.modules, module, attr)
        original = owner.__dict__[leaf]
        self._saved.append((owner, leaf, original))
        setattr(owner, leaf, functools.wraps(original)(make(original)))

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, name, fn):
        stack = self._stack
        span = self.spans.setdefault(name, Span())
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if observe is not None:
                observe(args, result, parent)
            return result

        return wrapper

    # -- counts read off arguments and results after the span closes; the
    # parent span, if any, still absorbs this bookkeeping --

    def _observe_arith_factor(self, args, result, parent):
        limit = self.modules["arith"].TRIAL_DIVISION_LIMIT
        cofactor = math.prod(q**e for q, e in result.factors if q > limit)
        if cofactor > limit * limit:
            self.counts["arith.factor.split"] += 1
        if parent == "sieve.squarefree_value_count":
            self.counts["sieve.residuals"] += 1

    def _observe_covers_specialize(self, args, result, parent):
        self.counts["covers.fibers." + result.status] += 1

    def _observe_diversity_rank_fold(self, args, result, parent):
        self.counts["diversity.rank_fold.growth"] += bool(result)

    def _observe_kernels_squarefree_scan(self, args, result, parent):
        coeffs, n_start, values, _flags, primes, _fixed = args
        self.scan_args.append((coeffs.copy(), n_start, len(values), primes.copy()))

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced `cli.main` lasting `wall_s`."""
        s = {name: self.spans.get(name, Span()) for _, _, name in SPANS}
        c = self.counts
        out: dict[str, float] = {"trace.wall_s": wall_s}
        for name, span in s.items():
            out[name + ".self_s"] = span.self_s
        for name in ("arith.factor", "kummer.radical_class", "kummer.fingerprint",
                     "covers.specialize", "polyring.factor_over_Q",
                     "modpoly.splitting_degrees"):
            out[name + ".calls"] = s[name].calls
        calls = s["arith.factor"].calls
        out["arith.factor.split_frac"] = c["arith.factor.split"] / calls if calls else 0.0
        for status in ("regular", "branch", "degenerate", "unresolved"):
            out["covers.fibers." + status] = c["covers.fibers." + status]
        out["diversity.fiber_stream.s"] = s["diversity.fiber_stream"].total_s
        rows = s["diversity.rank_fold"].calls
        out["diversity.rank_fold.rows"] = rows
        out["diversity.rank_fold.growth_frac"] = (
            c["diversity.rank_fold.growth"] / rows if rows else 0.0
        )
        checks = c["diversity.compat_check"]
        adds = s["diversity.fingerprint_group"].calls
        out["diversity.fingerprint_group.compat_checks"] = checks
        out["diversity.fingerprint_group.checks_per_fiber"] = checks / adds if adds else 0.0
        out["sieve.residuals"] = c["sieve.residuals"]
        out["kernels.squarefree_scan.primes"] = sum(len(a[3]) for a in self.scan_args)
        out["kernels.squarefree_scan.progression_steps"] = sum(
            progression_steps(*a) for a in self.scan_args
        )
        out["cli.render.self_s"] = out.pop("cli.run.self_s")
        out["trace.other_s"] = wall_s - s["cli.run"].total_s
        return out


def progression_steps(coeffs, n_start, count, primes) -> int:
    """Computed, not measured: sum over q of #roots(h mod q) * ceil(count/q),
    the number of strided slots the squarefree scan visits."""
    steps = 0
    for q in primes.tolist():
        xs = np.arange(q, dtype=np.int64)
        acc = np.zeros(q, dtype=np.int64)
        for c in coeffs[::-1].tolist():
            acc = (acc * xs + c % q) % q
        steps += int(np.count_nonzero(acc == 0)) * -(-count // q)
    return steps
