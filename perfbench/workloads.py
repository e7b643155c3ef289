"""The benchmark's workloads: one `fiberfields` CLI invocation each.

Every workload pins the sha256 of the JSON report the CLI writes for it,
so a run that changes a single byte of output fails its correctness
check.  `smoke_n` is a small N on the same code path, used by the tests.
A workload with `pool_check` also runs once with `--jobs 2`, untimed, and
that report must hash to the same digest.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    source_flag: str  # --cover or --poly
    source: str
    n: int
    extra: tuple[str, ...]
    items: str  # what N counts: fibers or values
    digest: str  # sha256 of the report at `n`
    smoke_n: int
    pool_check: bool = False

    def argv(self, n: int) -> list[str]:
        return [self.subcommand, self.source_flag, self.source, "--N", str(n), *self.extra]


WORKLOADS = {
    w.name: w
    for w in (
        # n^3 - n is (n+1)-smooth, so trial division in arith.factor resolves
        # every fiber: the per-fiber scan, FiberSpec memory and rendering of a
        # 5e4-entry series, with no rank fold.  The --jobs 2 report must equal
        # this one byte for byte.
        Workload("cubic-smooth-weak", "weak-diversity", "--cover", "y^2 - (x^3 - x)", 50_000,
                 ("--method", "exact", "--jobs", "1"), "fibers",
                 "b7698989eba307063b0e1f177f0c813ecdfe34e89cbbe9d9b5e38616d1420b2b", 2_000,
                 pool_check=True),
        # Values with large prime factors reach primality proving and rho;
        # p = 5 exercises the four canonicalisation twists and the sparse
        # F_5 rank fold.
        Workload("quintic-rank", "strong-diversity", "--cover", "y^5 - (x^4 + 3*x + 7)", 5_000,
                 ("--jobs", "1"), "fibers",
                 "b6a3eb5b406d457a5e466b2e86559f28053a6bc6c881a884462cab8a35852b48", 500),
        # No integer factoring: factor_over_Q of F(n, y), splitting degrees at
        # 32 primes per factor, and the greedy grouper's ~N^2/2 checks.
        Workload("plane-fingerprint", "weak-diversity", "--cover", "y^3 + x*y + x^2 + 1", 1_000,
                 ("--method", "fingerprint", "--jobs", "1"), "fibers",
                 "305e5d5d4d1a3653f0bc66a413d43cee0c6bcfc768a0f4ab9ecfa7f071de1a17", 100),
        # The only workload on sieve and _kernels.  Most of its time is the
        # residual step (4,522 cofactors go to rho); the smoke size is the
        # smallest order of N at which any cofactor does.
        Workload("cubic-squarefree", "squarefree-density", "--poly", "x^3 + 2", 30_000,
                 ("--jobs", "1"), "values",
                 "cd7fd69d6014fcd24b58d4a8301c43dc6d364a5fb23dd11105e6aa3b31ae642b", 12_000),
    )
}
