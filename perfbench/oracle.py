"""Independent checks of a sample of fibers, drawn from the run's seed.

sympy stands in for the library's own arithmetic: `factorint` for Kummer
kernels and squarefree flags, `factor_list` for the factor degrees of
F(n, y).  Each sampled fiber is classified by the library and by sympy,
and every disagreement is one mismatch.
"""

from __future__ import annotations

import random

import sympy

X, Y = sympy.symbols("x y")
SAMPLE = 32


def _expr(text: str):
    return sympy.expand(sympy.sympify(text.replace("^", "**"), locals={"x": X, "y": Y}))


def sample(n: int, seed: int) -> list[int]:
    return sorted(random.Random(seed).sample(range(1, n + 1), min(SAMPLE, n)))


def _cyclic_expected(g, p: int, n: int) -> tuple:
    v = int(g.subs(X, n))
    if v == 0:
        return ("branch",)
    kernel = tuple(sorted((q, e % p) for q, e in sympy.factorint(abs(v)).items() if e % p))
    sign = -1 if (p == 2 and v < 0) else 1
    status = "degenerate" if not kernel and sign == 1 else "regular"
    return (status, sign, kernel)


def _cyclic_actual(fiber) -> tuple:
    if fiber.status == "branch":
        return ("branch",)
    kernel = fiber.kummer_class.kernel
    return (fiber.status, kernel.sign, kernel.factors)


def _plane_expected(F, n: int) -> tuple:
    _, factors = sympy.factor_list(F.subs(X, n), Y)
    if any(mult >= 2 for _, mult in factors):
        return ("branch",)
    return ("regular", tuple(sorted(sympy.degree(f, Y) for f, _ in factors)))


def _plane_actual(fiber) -> tuple:
    if fiber.status == "branch":
        return ("branch",)
    return (fiber.status, tuple(sorted(poly.degree for poly, _ in fiber.factors)))


def _fixed_square_primes(h) -> set[int]:
    """Primes whose square divides h(n) for every n: such a prime divides
    the content of h or is at most deg h, and is confirmed on Z/p^2."""
    poly = sympy.Poly(h, X)
    candidates = set(sympy.primerange(2, poly.degree() + 1))
    candidates |= set(sympy.factorint(abs(int(poly.content()))))
    return {p for p in candidates if all(int(h.subs(X, r)) % (p * p) == 0 for r in range(p * p))}


def check(workload, n: int, seed: int) -> dict:
    """Classify the sampled fibers of `workload` at size n both ways."""
    from fiberfields import covers, polyring, sieve

    ns = sample(n, seed)
    F = _expr(workload.source)
    if workload.subcommand == "squarefree-density":
        flags = sieve.squarefree_value_count(polyring.parse_poly(workload.source), n).flags
        fixed = _fixed_square_primes(F)
        pairs = []
        for m in ns:
            v = abs(int(F.subs(X, m)))
            ok = v != 0 and all(e == 1 for q, e in sympy.factorint(v).items() if q not in fixed)
            pairs.append((m, ("squarefree", ok), ("squarefree", bool(flags[m - 1]))))
    else:
        cover = covers.cover_from_text(workload.source)
        p = int(sympy.degree(F, Y))
        g = sympy.expand(Y**p - F)
        if g.has(Y):
            pairs = [(m, _plane_expected(F, m), _plane_actual(covers.specialize(cover, m)))
                     for m in ns]
        else:
            pairs = [(m, _cyclic_expected(g, p, m), _cyclic_actual(covers.specialize(cover, m)))
                     for m in ns]
    mismatches = [m for m, want, got in pairs if want != got]
    return {"sampled": ns, "mismatches": mismatches}
