"""Command-line front end: parse covers, dispatch computations, emit reports.

Every subcommand emits one report with the same JSON envelope:

    { "tool_version", "config", "series", "summary", "skipped", "assumptions" }

"assumptions" lists the hypotheses a run leans on but does not verify
(e.g. geometric irreducibility of a plane model).  Reports go to stdout or
--out; diagnostics go to stderr.  Exit codes: 0 success, 2 domain error
(violated precondition, named with its module), 3 budget error.

Execution knobs (--jobs, --out, --output) are not echoed into the config
section.  --jobs is accepted for compatibility and must be positive, but
fibers are always processed serially, so a report is byte-identical for
every --jobs value.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import __version__, covers, diversity, kummer, polyring, sieve
from .errors import BudgetError, DomainError

_METHOD_ALIASES = {
    "exact": "exact-kummer",
    "ramified": "ramified-set",
    "fingerprint": "fingerprint",
}

# The published envelope every JSON report validates against.
REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["tool_version", "config", "series", "summary", "skipped", "assumptions"],
    "properties": {
        "tool_version": {"type": "string"},
        "config": {
            "type": "object",
            "required": ["subcommand"],
            "properties": {"subcommand": {"type": "string"}},
        },
        "series": {
            "type": "object",
            "additionalProperties": {
                "type": "array",
                "items": {"type": "number"},
            },
        },
        "summary": {"type": "object"},
        "skipped": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["n", "reason"],
                "properties": {
                    "n": {"type": "integer"},
                    "reason": {
                        "enum": ["branch", "degenerate-counted-as-Q", "unresolved"]
                    },
                },
            },
        },
        "assumptions": {"type": "array", "items": {"type": "string"}},
    },
}


@dataclass
class RunConfig:
    subcommand: str
    cover_text: str | None = None
    poly_text: str | None = None
    a: Fraction | None = None
    b: Fraction | None = None
    p: int | None = None
    N: int | None = None
    method: str = "exact"
    prime_budget: int = kummer.DEFAULT_PRIME_BUDGET
    euler_bound: int = sieve.DEFAULT_EULER_BOUND
    output: str = "json"
    out_path: str | None = None
    jobs: int = 1
    factor_budget: int | None = None

    def validate(self) -> None:
        if self.N is not None and self.N < 1:
            raise DomainError("cli", "N >= 1 required")
        if self.prime_budget < 1 or self.euler_bound < 1:
            raise DomainError("cli", "budgets must be positive")
        if self.factor_budget is not None and self.factor_budget < 1:
            raise DomainError("cli", "budgets must be positive")
        if self.jobs < 1:
            raise DomainError("cli", "--jobs must be positive")
        if (self.cover_text is None) == (self.poly_text is None) and self.subcommand in (
            "weak-diversity",
            "strong-diversity",
            "branch-check",
        ):
            raise DomainError("cli", "exactly one input source (--cover) required")


def _envelope(config: dict, series: dict, summary: dict, skipped, assumptions) -> dict:
    return {
        "tool_version": __version__,
        "config": config,
        "series": series,
        "summary": summary,
        "skipped": [{"n": n, "reason": reason} for n, reason in skipped],
        "assumptions": list(assumptions),
    }


def _require(value, flag: str):
    if value is None:
        raise DomainError("cli", f"{flag} is required for this subcommand")
    return value


def _run_weak(cfg: RunConfig):
    cover = covers.cover_from_text(_require(cfg.cover_text, "--cover"))
    method = _METHOD_ALIASES.get(cfg.method, cfg.method)
    report = diversity.weak_diversity_count(
        cover,
        _require(cfg.N, "--N"),
        method,
        budget=cfg.factor_budget,
        prime_budget=cfg.prime_budget,
    )
    config = {
        "subcommand": "weak-diversity",
        "cover": cfg.cover_text,
        "N": cfg.N,
        "method": method,
        "prime_budget": cfg.prime_budget,
        "factor_budget": cfg.factor_budget,
    }
    summary = {
        "cover": report.cover,
        "distinct_fields": report.distinct,
        "ratio": report.ratio,
    }
    doc = _envelope(config, {"D": list(report.series)}, summary, report.skipped, report.assumptions)
    return doc, lambda: _series_csv(report.series, report.skipped, "D")


def _run_strong(cfg: RunConfig):
    cover = covers.cover_from_text(_require(cfg.cover_text, "--cover"))
    report = diversity.strong_diversity_rank(
        cover, _require(cfg.N, "--N"), budget=cfg.factor_budget
    )
    config = {
        "subcommand": "strong-diversity",
        "cover": cfg.cover_text,
        "N": cfg.N,
        "factor_budget": cfg.factor_budget,
    }
    summary = {
        "cover": report.cover,
        "p": report.p,
        "rank": report.rank,
        "compositum_degree": f"{report.p}^{report.rank}",
        "log10_degree": report.rank * math.log10(report.p),
    }
    series = {"r": list(report.ranks), "log_degree": report.log_degree_series()}
    doc = _envelope(config, series, summary, report.skipped, ())
    return doc, lambda: _series_csv(report.ranks, report.skipped, "r")


def _run_sieve(cfg: RunConfig):
    poly = polyring.parse_poly(_require(cfg.poly_text, "--poly"))
    if not isinstance(poly, polyring.IntPoly):
        raise DomainError("cli", "--poly must be univariate in x")
    report = sieve.squarefree_value_count(
        poly, _require(cfg.N, "--N"), budget=cfg.factor_budget, euler_bound=cfg.euler_bound
    )
    config = {
        "subcommand": "squarefree-density",
        "poly": cfg.poly_text,
        "N": cfg.N,
        "euler_bound": cfg.euler_bound,
        "factor_budget": cfg.factor_budget,
    }
    summary = {
        "count": report.count,
        "empirical_density": report.empirical_density,
        "euler_product": {
            "numerator": str(report.euler_product.numerator),
            "denominator": str(report.euler_product.denominator),
            "value": report.euler_value,
        },
        "fixed_square_primes": list(report.fixed_square_primes),
        "residuals_factored": report.residuals_factored,
    }
    doc = _envelope(config, {}, summary, (), ())
    return doc, lambda: _flags_csv(report.flags)


def _run_classify(cfg: RunConfig):
    a = _require(cfg.a, "a")
    p = _require(cfg.p, "p")
    cls = kummer.radical_class(a, p, cfg.factor_budget)
    summary = {
        "a": str(a),
        "p": p,
        "trivial": cls.is_trivial,
        "kernel": _fact_dict(cls.kernel),
        "canonical": _fact_dict(cls.canonical),
        "canonical_value": cls.canonical.reconstruct(),
    }
    if cfg.b is not None:
        iso = kummer.radical_fields_isomorphic(a, cfg.b, p, cfg.factor_budget)
        summary["isomorphic_to"] = {"b": str(cfg.b), "isomorphic": iso}
    config = {
        "subcommand": "classify-radical",
        "a": str(a),
        "p": p,
        "b": str(cfg.b) if cfg.b is not None else None,
        "factor_budget": cfg.factor_budget,
    }
    return _envelope(config, {}, summary, (), ()), None


def _fact_dict(f) -> dict:
    return {"sign": f.sign, "factors": [[q, e] for q, e in f.factors]}


def _run_branch_check(cfg: RunConfig):
    cover = covers.cover_from_text(_require(cfg.cover_text, "--cover"))
    fact = covers.branch_factorization(cover)
    bp = fact.reconstruct()
    witness = covers.nonrational_witness(fact)
    nonrational = witness is not None
    factor_degrees = sorted(poly.degree for poly, _ in fact.factors)
    if isinstance(cover, covers.CyclicCover):
        n_inf = covers.points_over_infinity(cover)
    else:
        n_inf = None
    cases = []
    if nonrational:
        cases.append("nonrational-branch-point")
    if n_inf is not None and n_inf >= 3:
        cases.append("three-points-over-infinity")
    summary = {
        "cover": cover.describe(),
        "branch_polynomial": polyring.format_poly(bp),
        "branch_factor_degrees": factor_degrees,
        "has_nonrational_branch_point": nonrational,
        "nonrational_witness": polyring.format_poly(witness) if witness else None,
        "points_over_infinity": n_inf,
        "applicable_cases": cases if cases else ["none"],
    }
    assumptions = []
    if isinstance(cover, covers.PlaneCover):
        assumptions.append(
            "plane branch polynomial over-approximates the branch locus "
            "(roots of the y-discriminant)"
        )
        assumptions.append("points over infinity are not computed for plane covers")
    config = {"subcommand": "branch-check", "cover": cfg.cover_text}
    return _envelope(config, {}, summary, (), assumptions), None


def _run_norm_collisions(cfg: RunConfig):
    poly = polyring.parse_poly(_require(cfg.poly_text, "--poly"))
    if not isinstance(poly, polyring.IntPoly):
        raise DomainError("cli", "--poly must be univariate in x")
    max_mult, witness = diversity.norm_collision_check(poly, _require(cfg.N, "--N"))
    config = {
        "subcommand": "norm-collisions",
        "poly": cfg.poly_text,
        "N": cfg.N,
    }
    summary = {
        "max_multiplicity": max_mult,
        "witness_value": witness,
        "bound": 2 * poly.degree,
    }
    return _envelope(config, {}, summary, (), ()), None


def _series_csv(series, skipped, column: str) -> str:
    skip_ns = {n for n, _ in skipped}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(["n", column])
    for i, value in enumerate(series):
        n = i + 1
        if n in skip_ns:
            continue
        writer.writerow([n, value])
    return buf.getvalue()


def _flags_csv(flags) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(["n", "squarefree"])
    for i, flag in enumerate(flags):
        writer.writerow([i + 1, flag])
    return buf.getvalue()


def _render_json(value, pad: str = "\n") -> str:
    """The text of json.dumps(value, indent=2).  With an indent, json runs
    its pure-Python encoder, one generator step per list entry; here every
    list of scalars (the long series) goes to json's C encoder in one
    call, with the indented separator as its item separator."""
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (
            inner + json.dumps(k if isinstance(k, str) else json.dumps(k)) + ": "
            + _render_json(v, inner)
            for k, v in value.items()
        )
        return "{" + ",".join(items) + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if any(issubclass(t, (dict, list, tuple)) for t in set(map(type, value))):
            return "[" + ",".join(inner + _render_json(v, inner) for v in value) + pad + "]"
        return "[" + inner + json.dumps(value, separators=("," + inner, ": "))[1:-1] + pad + "]"
    return json.dumps(value)


# Each runner returns (JSON document, CSV renderer or None); the CSV text
# is built only under --output csv.
_RUNNERS = {
    "weak-diversity": _run_weak,
    "strong-diversity": _run_strong,
    "squarefree-density": _run_sieve,
    "classify-radical": _run_classify,
    "branch-check": _run_branch_check,
    "norm-collisions": _run_norm_collisions,
}


def run(cfg: RunConfig) -> tuple[int, str | None]:
    """Execute a validated config; returns (exit status, rendered report)."""
    try:
        cfg.validate()
        doc, render_csv = _RUNNERS[cfg.subcommand](cfg)
    except DomainError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2, None
    except BudgetError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3, None
    if cfg.output == "csv":
        if render_csv is None:
            print(
                f"error: cli: csv output is not available for {cfg.subcommand}",
                file=sys.stderr,
            )
            return 2, None
        rendered = render_csv()
    else:
        rendered = _render_json(doc) + "\n"
    if cfg.out_path:
        with open(cfg.out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)
    return 0, rendered


_JOBS_HELP = "accepted for compatibility; fibers are always processed serially"


def _add_common(sub, n_flag=True, poly_source=False, cover_source=False):
    if cover_source:
        sub.add_argument("--cover", help="cover equation, e.g. 'y^2 - (x^3 - x)'")
    if poly_source:
        sub.add_argument("--poly", help="integer polynomial in x")
    if n_flag:
        sub.add_argument("--N", type=int, required=True, help="range bound (fibers 1..N)")
    sub.add_argument("--output", choices=("json", "csv"), default="json")
    sub.add_argument("--out", dest="out_path", help="write the report to this path")
    sub.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    sub.add_argument("--factor-budget", type=int, default=None, help="rho iteration budget")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fiberfields",
        description="Residue-field diversity of branched covers of the affine line over Q",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    weak = subs.add_parser("weak-diversity", help="distinct residue fields over fibers 1..N")
    _add_common(weak, cover_source=True)
    weak.add_argument("--method", choices=("exact", "ramified", "fingerprint"), default="exact")
    weak.add_argument("--primes", type=int, default=kummer.DEFAULT_PRIME_BUDGET,
                      help="fingerprint prime budget")

    strong = subs.add_parser("strong-diversity", help="compositum rank growth over F_p")
    _add_common(strong, cover_source=True)

    sv = subs.add_parser("squarefree-density", help="squarefree values of h(n) for n <= N")
    _add_common(sv, poly_source=True)
    sv.add_argument("--euler-bound", type=int, default=sieve.DEFAULT_EULER_BOUND,
                    help="prime bound of the truncated Euler product")

    cr = subs.add_parser("classify-radical", help="Kummer class of a in Q*/(Q*)^p")
    cr.add_argument("a", help="nonzero rational, e.g. 16 or 3/4")
    cr.add_argument("p", type=int, help="prime")
    cr.add_argument("--isomorphic-to", dest="b", default=None,
                    help="also decide whether Q(a^(1/p)) and Q(b^(1/p)) agree")
    cr.add_argument("--output", choices=("json", "csv"), default="json")
    cr.add_argument("--out", dest="out_path")
    cr.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    cr.add_argument("--factor-budget", type=int, default=None)

    bc = subs.add_parser("branch-check", help="branch locus and hypothesis flags")
    _add_common(bc, n_flag=False, cover_source=True)

    nc = subs.add_parser("norm-collisions", help="max multiplicity of |h(n)| on 1..N")
    _add_common(nc, poly_source=True)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(subcommand=args.subcommand)
    for field in ("N", "jobs", "out_path", "output"):
        if hasattr(args, field):
            setattr(cfg, field, getattr(args, field))
    if getattr(args, "factor_budget", None) is not None:
        cfg.factor_budget = args.factor_budget
    if getattr(args, "cover", None) is not None:
        cfg.cover_text = args.cover
    if getattr(args, "poly", None) is not None:
        cfg.poly_text = args.poly
    if hasattr(args, "method"):
        cfg.method = args.method
    if hasattr(args, "primes"):
        cfg.prime_budget = args.primes
    if hasattr(args, "euler_bound"):
        cfg.euler_bound = args.euler_bound
    if hasattr(args, "a"):
        cfg.a = _parse_rational(args.a)
        cfg.p = args.p
        if args.b is not None:
            cfg.b = _parse_rational(args.b)
    return cfg


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        raise DomainError("cli", f"not a rational number: {text!r} ({err})")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
    except DomainError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    status, _ = run(cfg)
    return status


if __name__ == "__main__":
    sys.exit(main())
