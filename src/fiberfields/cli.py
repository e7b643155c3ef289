"""Command-line front end: parse covers, dispatch computations, emit reports.

Every subcommand emits one report with the same JSON envelope:

    { "tool_version", "config", "series", "summary", "skipped", "assumptions" }

"assumptions" lists the hypotheses a run leans on but does not verify
(e.g. geometric irreducibility of a plane model).  Reports go to stdout or
--out; diagnostics go to stderr.  Exit codes: 0 success, 2 domain error
(violated precondition, named with its module) or usage error, 3 budget
error.  Flags are checked in the parser alone: a missing or unknown flag,
a count below 1, a malformed rational or --output csv where the
subcommand has no CSV form exits 2 through argparse, with its usage line;
the runners read the parsed namespace as it is.  A value may begin with
"-" (--poly -x^2-1, classify-radical -1/8 3 --isomorphic-to -3/4): only
-h is an option of one "-".

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
import re
import sys
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


def _envelope(config: dict, series: dict, summary: dict, skipped, assumptions) -> dict:
    return {
        "tool_version": __version__,
        "config": config,
        "series": series,
        "summary": summary,
        "skipped": [{"n": n, "reason": reason} for n, reason in skipped],
        "assumptions": list(assumptions),
    }


def _run_weak(args: argparse.Namespace):
    cover = covers.cover_from_text(args.cover)
    method = _METHOD_ALIASES.get(args.method, args.method)
    report = diversity.weak_diversity_count(
        cover, args.N, method, budget=args.factor_budget, prime_budget=args.primes
    )
    config = {
        "subcommand": "weak-diversity",
        "cover": args.cover,
        "N": args.N,
        "method": method,
        "prime_budget": args.primes,
        "factor_budget": args.factor_budget,
    }
    summary = {
        "cover": report.cover,
        "distinct_fields": report.distinct,
        "ratio": report.ratio,
    }
    doc = _envelope(config, {"D": list(report.series)}, summary, report.skipped, report.assumptions)
    return doc, lambda: _series_csv(report.series, report.skipped, "D")


def _run_strong(args: argparse.Namespace):
    cover = covers.cover_from_text(args.cover)
    report = diversity.strong_diversity_rank(cover, args.N, budget=args.factor_budget)
    config = {
        "subcommand": "strong-diversity",
        "cover": args.cover,
        "N": args.N,
        "factor_budget": args.factor_budget,
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


def _run_sieve(args: argparse.Namespace):
    poly = polyring.parse_poly(args.poly)
    if not isinstance(poly, polyring.IntPoly):
        raise DomainError("cli", "--poly must be univariate in x")
    report = sieve.squarefree_value_count(
        poly, args.N, budget=args.factor_budget, euler_bound=args.euler_bound
    )
    config = {
        "subcommand": "squarefree-density",
        "poly": args.poly,
        "N": args.N,
        "euler_bound": args.euler_bound,
        "factor_budget": args.factor_budget,
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


def _run_classify(args: argparse.Namespace):
    a, p = args.a, args.p
    cls = kummer.radical_class(a, p, args.factor_budget)
    summary = {
        "a": str(a),
        "p": p,
        "trivial": cls.is_trivial,
        "kernel": _fact_dict(cls.kernel),
        "canonical": _fact_dict(cls.canonical),
        "canonical_value": cls.canonical.reconstruct(),
    }
    if args.b is not None:
        iso = kummer.radical_fields_isomorphic(a, args.b, p, args.factor_budget)
        summary["isomorphic_to"] = {"b": str(args.b), "isomorphic": iso}
    config = {
        "subcommand": "classify-radical",
        "a": str(a),
        "p": p,
        "b": str(args.b) if args.b is not None else None,
        "factor_budget": args.factor_budget,
    }
    return _envelope(config, {}, summary, (), ()), None


def _fact_dict(f) -> dict:
    return {"sign": f.sign, "factors": [[q, e] for q, e in f.factors]}


def _run_branch_check(args: argparse.Namespace):
    cover = covers.cover_from_text(args.cover)
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
    config = {"subcommand": "branch-check", "cover": args.cover}
    return _envelope(config, {}, summary, (), assumptions), None


def _run_norm_collisions(args: argparse.Namespace):
    poly = polyring.parse_poly(args.poly)
    if not isinstance(poly, polyring.IntPoly):
        raise DomainError("cli", "--poly must be univariate in x")
    max_mult, witness = diversity.norm_collision_check(poly, args.N)
    config = {
        "subcommand": "norm-collisions",
        "poly": args.poly,
        "N": args.N,
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
# is built only under --output csv, which the parser offers only where a
# runner has a renderer.
_RUNNERS = {
    "weak-diversity": _run_weak,
    "strong-diversity": _run_strong,
    "squarefree-density": _run_sieve,
    "classify-radical": _run_classify,
    "branch-check": _run_branch_check,
    "norm-collisions": _run_norm_collisions,
}


def run(args: argparse.Namespace) -> tuple[int, str | None]:
    """Execute parsed arguments; returns (exit status, rendered report)."""
    try:
        doc, render_csv = _RUNNERS[args.subcommand](args)
    except DomainError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2, None
    except BudgetError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3, None
    rendered = render_csv() if args.output == "csv" else _render_json(doc) + "\n"
    if args.out_path:
        with open(args.out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)
    return 0, rendered


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r} ({err})") from None


_JOBS_HELP = "accepted for compatibility; fibers are always processed serially"


def _add_common(sub, n_flag=True, poly_source=False, cover_source=False, outputs=("json",)):
    if cover_source:
        sub.add_argument("--cover", required=True, help="cover equation, e.g. 'y^2 - (x^3 - x)'")
    if poly_source:
        sub.add_argument("--poly", required=True, help="integer polynomial in x")
    if n_flag:
        sub.add_argument("--N", type=_positive, required=True, help="range bound (fibers 1..N)")
    sub.add_argument("--output", choices=outputs, default="json")
    sub.add_argument("--out", dest="out_path", help="write the report to this path")
    sub.add_argument("--jobs", type=_positive, default=1, help=_JOBS_HELP)
    sub.add_argument("--factor-budget", type=_positive, default=None, help="rho iteration budget")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads an argument beginning with one "-"
    as a value, the way argparse reads a negative number, unless it is an
    option (-h): so --poly -x^2-1, --isomorphic-to -3/4 and a positional
    -1/8 are values.  Every other option of this CLI begins with "--".
    Subparsers are built by the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-[^-]")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fiberfields",
        description="Residue-field diversity of branched covers of the affine line over Q",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    weak = subs.add_parser("weak-diversity", help="distinct residue fields over fibers 1..N")
    _add_common(weak, cover_source=True, outputs=("json", "csv"))
    weak.add_argument("--method", choices=("exact", "ramified", "fingerprint"), default="exact")
    weak.add_argument("--primes", type=_positive, default=kummer.DEFAULT_PRIME_BUDGET,
                      help="fingerprint prime budget")

    strong = subs.add_parser("strong-diversity", help="compositum rank growth over F_p")
    _add_common(strong, cover_source=True, outputs=("json", "csv"))

    sv = subs.add_parser("squarefree-density", help="squarefree values of h(n) for n <= N")
    _add_common(sv, poly_source=True, outputs=("json", "csv"))
    sv.add_argument("--euler-bound", type=_positive, default=sieve.DEFAULT_EULER_BOUND,
                    help="prime bound of the truncated Euler product")

    cr = subs.add_parser("classify-radical", help="Kummer class of a in Q*/(Q*)^p")
    cr.add_argument("a", type=_parse_rational, help="nonzero rational, e.g. 16 or 3/4")
    cr.add_argument("p", type=int, help="prime")
    cr.add_argument("--isomorphic-to", dest="b", type=_parse_rational, default=None,
                    help="also decide whether Q(a^(1/p)) and Q(b^(1/p)) agree")
    _add_common(cr, n_flag=False)

    bc = subs.add_parser("branch-check", help="branch locus and hypothesis flags")
    _add_common(bc, n_flag=False, cover_source=True)

    nc = subs.add_parser("norm-collisions", help="max multiplicity of |h(n)| on 1..N")
    _add_common(nc, poly_source=True)

    return parser


def main(argv=None) -> int:
    status, _ = run(build_parser().parse_args(argv))
    return status


if __name__ == "__main__":
    sys.exit(main())
