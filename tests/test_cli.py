import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fiberfields import __version__, cli, polyring, sieve
from fiberfields.cli import REPORT_SCHEMA, main
from fiberfields.covers import cover_from_text
from fiberfields.polyring import IntPoly, PlanePoly, format_poly, parse_poly

GOLDEN = Path(__file__).parent / "golden"


def run_cli(args, tmp_path, name="out.json"):
    out = tmp_path / name
    status = main(args + ["--out", str(out)])
    return status, out


def load(out: Path) -> dict:
    return json.loads(out.read_text())


def validate_schema(doc: dict):
    jsonschema.validate(doc, REPORT_SCHEMA)


# ---------------------------------------------------------------------------
# subcommands run and validate
# ---------------------------------------------------------------------------


def test_weak_diversity_json(tmp_path):
    status, out = run_cli(
        ["weak-diversity", "--cover", "y^2 - (x^3 - x)", "--N", "50", "--method", "exact"],
        tmp_path,
    )
    assert status == 0
    doc = load(out)
    validate_schema(doc)
    assert doc["config"]["method"] == "exact-kummer"
    assert len(doc["series"]["D"]) == 50
    assert doc["summary"]["distinct_fields"] == doc["series"]["D"][-1]
    assert doc["skipped"][0] == {"n": 1, "reason": "branch"}


def test_strong_diversity_json(tmp_path):
    status, out = run_cli(
        ["strong-diversity", "--cover", "y^2 - (x^3 - x)", "--N", "30"], tmp_path
    )
    assert status == 0
    doc = load(out)
    validate_schema(doc)
    assert len(doc["series"]["r"]) == 30
    assert len(doc["series"]["log_degree"]) == 30
    assert doc["summary"]["compositum_degree"] == f"2^{doc['series']['r'][-1]}"


def test_squarefree_density_json(tmp_path):
    status, out = run_cli(
        ["squarefree-density", "--poly", "x^2 + 1", "--N", "500", "--euler-bound", "100"],
        tmp_path,
    )
    assert status == 0
    doc = load(out)
    validate_schema(doc)
    assert 0.0 <= doc["summary"]["empirical_density"] <= 1.0
    assert 0.0 <= doc["summary"]["euler_product"]["value"] <= 1.0


def test_classify_radical_json(tmp_path):
    status, out = run_cli(["classify-radical", "16", "3"], tmp_path)
    assert status == 0
    doc = load(out)
    validate_schema(doc)
    # 16 = 2^4 is 2 up to a cube times twist
    assert doc["summary"]["canonical_value"] == 2
    assert doc["summary"]["trivial"] is False

    status2, out2 = run_cli(
        ["classify-radical", "2", "3", "--isomorphic-to", "16"], tmp_path, "iso.json"
    )
    assert status2 == 0
    assert load(out2)["summary"]["isomorphic_to"]["isomorphic"] is True


def test_classify_radical_rational(tmp_path):
    status, out = run_cli(["classify-radical", "3/4", "2"], tmp_path)
    assert status == 0
    doc = load(out)
    assert doc["summary"]["canonical_value"] == 3  # 3/4 ~ 3 mod squares


def test_branch_check_cases(tmp_path):
    status, out = run_cli(["branch-check", "--cover", "y^2 - (x^2 - 2)"], tmp_path)
    doc = load(out)
    validate_schema(doc)
    assert doc["summary"]["has_nonrational_branch_point"] is True
    assert doc["summary"]["applicable_cases"] == ["nonrational-branch-point"]

    _, out2 = run_cli(["branch-check", "--cover", "y^3 - (x^3 - 2)"], tmp_path, "b2.json")
    doc2 = load(out2)
    assert doc2["summary"]["points_over_infinity"] == 3
    assert "three-points-over-infinity" in doc2["summary"]["applicable_cases"]

    _, out3 = run_cli(["branch-check", "--cover", "y^2 - (x^3 - x)"], tmp_path, "b3.json")
    doc3 = load(out3)
    assert doc3["summary"]["has_nonrational_branch_point"] is False
    assert doc3["summary"]["points_over_infinity"] == 1
    assert doc3["summary"]["applicable_cases"] == ["none"]


def test_norm_collisions_json(tmp_path):
    status, out = run_cli(["norm-collisions", "--poly", "x^2 - 5x", "--N", "100"], tmp_path)
    assert status == 0
    doc = load(out)
    validate_schema(doc)
    assert doc["summary"]["max_multiplicity"] == 3
    assert doc["summary"]["bound"] == 4


# ---------------------------------------------------------------------------
# exit codes and diagnostics
# ---------------------------------------------------------------------------


def test_exit_code_domain_error(tmp_path, capsys):
    status = main(["classify-radical", "16", "4"])
    assert status == 2
    err = capsys.readouterr().err
    assert err == "error: kummer: radical_class needs a prime, got 4\n"


@pytest.mark.parametrize(
    "args",
    [
        ["weak-diversity", "--cover", "y^2", "--N", "5", "--method", "exact"],
        ["weak-diversity", "--cover", "y^2", "--N", "5", "--method", "fingerprint"],
        ["branch-check", "--cover", "y^2"],
    ],
)
def test_inseparable_plane_model_rejected(args, capsys):
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err == "error: covers: plane model is not separable in y (degenerate cover)\n"


@pytest.mark.parametrize("cover", ["y^2 - 5", "y^3 - 2"])
@pytest.mark.parametrize(
    "args",
    [
        ["weak-diversity", "--N", "5", "--method", "fingerprint"],
        ["weak-diversity", "--N", "5", "--method", "exact"],
        ["branch-check"],
    ],
)
def test_x_free_plane_model_rejected(args, cover, capsys):
    assert main(args + ["--cover", cover]) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: covers: plane model does not involve x (the curve is geometrically reducible)\n"
    )


@pytest.mark.parametrize(
    "args", [["weak-diversity", "--N", "30", "--method", "fingerprint"], ["branch-check"]]
)
def test_reducible_quadratic_plane_model_rejected(args, capsys):
    # (y - 1)^2 = 2x^2: two lines, conjugate over Q(sqrt(2))
    assert main(args + ["--cover", "y^2 - 2*y + 1 - 2*x^2"]) == 2
    assert capsys.readouterr().err == (
        "error: covers: plane model of y-degree 2 has a y-discriminant that is a constant "
        "times a square (the curve is geometrically reducible)\n"
    )


@pytest.mark.parametrize(
    "args", [["weak-diversity", "--N", "20", "--method", "fingerprint"], ["branch-check"]]
)
def test_plane_model_with_constant_discriminant_rejected(args, capsys):
    # three lines y = x + a, conjugate over Q(a), a^3 - a - 1 = 0: disc -23
    assert main(args + ["--cover", "(y - x)^3 - (y - x) - 1"]) == 2
    assert capsys.readouterr().err == (
        "error: covers: plane model has a constant y-discriminant, so it is unramified over "
        "the affine line (the curve is geometrically reducible)\n"
    )


def test_uncertified_plane_model_names_its_assumption(tmp_path):
    # F(n, y) = y (y + 2n) for n = 1..12, the sampled fibers, and the
    # y-discriminant 4 (x^2 + (x - 1)...(x - 12)) is not a constant times a square
    roots = "*".join(f"(x - {r})" for r in range(1, 13))
    status, out = run_cli(
        ["weak-diversity", "--cover", f"(y + x)^2 - x^2 - {roots}", "--N", "14",
         "--method", "fingerprint"],
        tmp_path,
    )
    assert status == 0
    doc = load(out)
    validate_schema(doc)
    assert doc["summary"]["cover"]["irreducibility_certified"] is False
    assert doc["summary"]["cover"]["irreducibility_witness"] is None
    assert doc["assumptions"][0] == (
        "plane model assumed geometrically irreducible (no irreducible "
        "specialization found among the sampled fibers)"
    )


def test_classify_radical_psi12_is_not_prime(tmp_path):
    # 318665857834031151167461 is a strong pseudoprime to the first 12 prime bases
    status, out = run_cli(["classify-radical", "318665857834031151167461", "2"], tmp_path)
    assert status == 0
    assert load(out)["summary"]["kernel"]["factors"] == [[399165290221, 1], [798330580441, 1]]


# Summaries of classify-radical as the release that built every class's
# canonical form eagerly wrote them; odd p with nontrivial twists.
_CLASSIFY_PINNED = [
    (["72", "5", "--isomorphic-to", "1944"],
     {"a": "72", "p": 5, "trivial": False,
      "kernel": {"sign": 1, "factors": [[2, 3], [3, 2]]},
      "canonical": {"sign": 1, "factors": [[2, 4], [3, 1]]}, "canonical_value": 48,
      "isomorphic_to": {"b": "1944", "isomorphic": False}}),
    (["--", "-1800/7", "5"],
     {"a": "-1800/7", "p": 5, "trivial": False,
      "kernel": {"sign": 1, "factors": [[2, 3], [3, 2], [5, 2], [7, 4]]},
      "canonical": {"sign": 1, "factors": [[2, 4], [3, 1], [5, 1], [7, 2]]},
      "canonical_value": 11760}),
    (["--", "2250/11", "7"],
     {"a": "2250/11", "p": 7, "trivial": False,
      "kernel": {"sign": 1, "factors": [[2, 1], [3, 2], [5, 3], [11, 6]]},
      "canonical": {"sign": 1, "factors": [[2, 5], [3, 3], [5, 1], [11, 2]]},
      "canonical_value": 522720}),
    (["--", "-999999000001", "3"],
     {"a": "-999999000001", "p": 3, "trivial": False,
      "kernel": {"sign": 1, "factors": [[999999000001, 1]]},
      "canonical": {"sign": 1, "factors": [[999999000001, 1]]},
      "canonical_value": 999999000001}),
]


@pytest.mark.parametrize("args, summary", _CLASSIFY_PINNED)
def test_classify_radical_summary_pinned(tmp_path, args, summary):
    out = tmp_path / "c.json"
    assert main(["classify-radical", "--out", str(out)] + args) == 0
    assert load(out)["summary"] == summary


def test_exit_code_parse_error(capsys):
    status = main(["weak-diversity", "--cover", "y^2 - x^^2", "--N", "5"])
    assert status == 2
    assert "offset" in capsys.readouterr().err


def test_exit_code_budget_error(capsys):
    semiprime = str(1_000_000_007 * 1_000_000_033)
    status = main(["classify-radical", semiprime, "2", "--factor-budget", "4"])
    assert status == 3
    assert "budget" in capsys.readouterr().err


def test_factoring_past_degree_12(tmp_path, capsys, swinnerton_dyer_32):
    """factor_over_Q has no degree bound: the branch polynomial -4x^15 - 27
    of y^3 + x^5 y + 1 and g = x^13 + x + 1 factor.  Its recombination
    limit does: g of degree 32 with 16 or more modular factors and no
    proper factor exits 3, naming polyring."""
    out = tmp_path / "r.json"
    assert main(["branch-check", "--cover", "y^3 + x^5*y + 1", "--out", str(out)]) == 0
    assert load(out)["summary"]["branch_factor_degrees"] == [15]
    cover = "y^13 - (x^13 + x + 1)"
    assert main(["weak-diversity", "--cover", cover, "--N", "10", "--out", str(out)]) == 0
    assert load(out)["summary"]["distinct_fields"] == 10
    capsys.readouterr()
    cover = f"y^2 - ({polyring.format_poly(swinnerton_dyer_32)})"
    assert main(["branch-check", "--cover", cover]) == 3
    assert capsys.readouterr().err.startswith("error: polyring: recombining ")


# The count flags of each subcommand besides --jobs and --factor-budget.
_COUNT_FLAGS = {
    "weak-diversity": ["--N", "--primes"],
    "strong-diversity": ["--N"],
    "squarefree-density": ["--N", "--euler-bound"],
    "norm-collisions": ["--N"],
}


@pytest.mark.parametrize(
    "args",
    [
        ["weak-diversity", "--cover", "y^2 - (x^3 - x)", "--N", "5"],
        ["strong-diversity", "--cover", "y^2 - (x^3 - x)", "--N", "5"],
        ["squarefree-density", "--poly", "x^2 + 1", "--N", "5"],
        ["classify-radical", "16", "3"],
        ["branch-check", "--cover", "y^2 - (x^3 - x)"],
        ["norm-collisions", "--poly", "x^2 + 1", "--N", "5"],
    ],
    ids=lambda args: args[0],
)
def test_jobs_is_accepted_but_must_be_positive(args, tmp_path, capsys):
    """Every subcommand takes the common flags --output, --out and --jobs,
    and processes fibers serially whatever --jobs is; those that factor
    integers take --factor-budget, and branch-check and norm-collisions,
    which do not, refuse it.  The parser refuses 0 and a non-integer for
    --jobs and for each of its other count flags with exit status 2,
    naming the flag."""
    with pytest.raises(SystemExit):
        main([args[0], "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "accepted for compatibility; fibers are always processed serially" in help_text
    out = tmp_path / "r.json"
    budget = ["--factor-budget", "100000"]
    budgeted = args[0] not in ("branch-check", "norm-collisions")
    common = ["--output", "json", "--out", str(out), "--jobs", "3"] + (budget if budgeted else [])
    assert main(args + common) == 0
    validate_schema(load(out))
    if not budgeted:
        with pytest.raises(SystemExit) as exc:
            main(args + budget)
        assert exc.value.code == 2
        assert "unrecognized arguments: --factor-budget 100000" in capsys.readouterr().err
    for flag in _COUNT_FLAGS.get(args[0], []) + ["--jobs"] + (["--factor-budget"] if budgeted else []):
        with pytest.raises(SystemExit) as exc:
            main(args + [flag, "0"])
        assert exc.value.code == 2
        assert f"argument {flag}: must be >= 1, got 0" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(args + [flag, "abc"])
        assert exc.value.code == 2
        assert f"argument {flag}: invalid int value: 'abc'" in capsys.readouterr().err


def test_csv_unavailable_for_classify(monkeypatch, capsys):
    """The parser refuses --output csv where no CSV form exists, before any
    runner starts: each runner's first step raises here."""

    def refuse(*args, **kwargs):
        raise AssertionError("runner started")

    monkeypatch.setattr(cli.kummer, "radical_class", refuse)
    monkeypatch.setattr(cli.covers, "cover_from_text", refuse)
    monkeypatch.setattr(cli.polyring, "parse_poly", refuse)
    for args in (
        ["classify-radical", "16", "3"],
        ["branch-check", "--cover", "y^2 - (x^3 - x)"],
        ["norm-collisions", "--poly", "x^2 + 1", "--N", "5"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(args + ["--output", "csv"])
        assert exc.value.code == 2
        assert "argument --output: invalid choice: 'csv'" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["squarefree-density", "norm-collisions"])
def test_poly_must_be_univariate(subcommand, capsys):
    assert main([subcommand, "--poly", "y^2 + x", "--N", "5"]) == 2
    assert capsys.readouterr().err == "error: cli: --poly must be univariate in x\n"


def test_rational_argument_must_parse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify-radical", "1/0", "2"])
    assert exc.value.code == 2
    assert "argument a: not a rational number: '1/0'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, spelled_out",
    [
        (["squarefree-density", "--poly", "-x^2-1", "--N", "5"],
         ["squarefree-density", "--poly=-x^2-1", "--N", "5"]),
        (["norm-collisions", "--poly", "-x^2+3", "--N", "5"],
         ["norm-collisions", "--poly=-x^2+3", "--N", "5"]),
        (["weak-diversity", "--cover", "-(x^3-x)+y^2", "--N", "20"],
         ["weak-diversity", "--cover=-(x^3-x)+y^2", "--N", "20"]),
        (["branch-check", "--cover", "-(x^2-2)+y^2"],
         ["branch-check", "--cover=-(x^2-2)+y^2"]),
        (["classify-radical", "2", "3", "--isomorphic-to", "-3/4"],
         ["classify-radical", "2", "3", "--isomorphic-to=-3/4"]),
        (["classify-radical", "-1/8", "3"], ["classify-radical", "--", "-1/8", "3"]),
    ],
)
def test_values_may_begin_with_a_minus(args, spelled_out, tmp_path):
    """A value that begins with "-" is read as the value of its flag or
    position, as it is when written --flag=value or after "--"."""
    blobs = []
    for i, argv in enumerate((args, spelled_out)):
        out = tmp_path / f"{i}.json"
        assert main(argv[:1] + ["--out", str(out)] + argv[1:]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    if args[1] == "-1/8":  # (-1/2)^3
        assert json.loads(blobs[0])["summary"]["trivial"] is True


def test_an_unknown_single_dash_argument_is_still_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify-radical", "-N", "3"])
    assert exc.value.code == 2
    assert "argument a: not a rational number: '-N'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["weak-diversity", "--cover", "y^2 - x", "--N", "5", "-x"])
    assert exc.value.code == 2
    assert "unrecognized arguments: -x" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def test_weak_csv_row_count(tmp_path):
    out = tmp_path / "weak.csv"
    status = main(
        ["weak-diversity", "--cover", "y^2 - (x^3 - x)", "--N", "50",
         "--method", "exact", "--output", "csv", "--out", str(out)]
    )
    assert status == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,D"
    json_out = tmp_path / "weak.json"
    main(["weak-diversity", "--cover", "y^2 - (x^3 - x)", "--N", "50",
          "--method", "exact", "--out", str(json_out)])
    skipped = len(load(json_out)["skipped"])
    assert len(lines) - 1 == 50 - skipped


@pytest.mark.parametrize(
    "args",
    [
        ["weak-diversity", "--cover", "y^2 - (x^3 - x)", "--N", "20"],
        ["strong-diversity", "--cover", "y^2 - (x^3 - x)", "--N", "20"],
        ["squarefree-density", "--poly", "x^2 + 1", "--N", "20"],
    ],
)
def test_json_output_builds_no_csv(args, tmp_path, monkeypatch):
    def refuse(*a, **kw):
        raise AssertionError("csv rendered for --output json")

    monkeypatch.setattr(cli.csv, "writer", refuse)
    out = tmp_path / "out.json"
    assert main(args + ["--out", str(out)]) == 0
    validate_schema(load(out))


def test_sieve_csv_rows(tmp_path):
    out = tmp_path / "sf.csv"
    status = main(
        ["squarefree-density", "--poly", "x", "--N", "20", "--output", "csv", "--out", str(out)]
    )
    assert status == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,squarefree"
    assert len(lines) == 21
    assert lines[1] == "1,1"
    assert lines[4] == "4,0"


# ---------------------------------------------------------------------------
# determinism and golden files
# ---------------------------------------------------------------------------


def test_reports_byte_identical_across_jobs(tmp_path):
    blobs = []
    for jobs in ("1", "3", "5"):
        out = tmp_path / f"w{jobs}.json"
        main(["weak-diversity", "--cover", "y^2 - (x^3 - x)", "--N", "80",
              "--method", "exact", "--jobs", jobs, "--out", str(out)])
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


@pytest.mark.parametrize(
    "args",
    [
        ["strong-diversity", "--cover", "y^5 - (x^4 + 3*x + 7)", "--N", "300"],
        # values beyond the int64 envelope: the trial root table is built on
        # an object array
        ["weak-diversity", "--cover", "y^3 - (x^5 + 100000000000000000000*x + 1)",
         "--N", "40", "--method", "exact"],
        ["weak-diversity", "--cover", "y^2 - (x^3 - x)", "--N", "120", "--method", "ramified"],
    ],
    ids=["strong", "weak-object", "ramified"],
)
def test_pooled_reports_byte_identical_to_serial(args, tmp_path):
    blobs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"r{jobs}.json"
        assert main(args + ["--jobs", jobs, "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


_QUINTIC = ["strong-diversity", "--cover", "y^5 - (x^4 + 3*x + 7)", "--N", "7000"]


@pytest.mark.parametrize(
    "args, status, digest",
    [
        # the first unresolved fiber's cofactor, about 2**50.9, is past the
        # budget: the run aborts there, writing no report
        (_QUINTIC + ["--factor-budget", "14000"], 3,
         "15a156970f2133ce9071327c8fa599a4421412741d54d6c47cd9129a7d0e9ca9"),
        # every fiber resolves, cofactors up to 2**51.1 among them
        (_QUINTIC + ["--factor-budget", "18000"], 0,
         "ad9ae25cae567ed22192b1da002071f53da41ca61df0fdc7f81a8ed0f50e4c56"),
        # values pass 2**50 near n = 104,000; the error names the first 20
        # of the residuals past the budget
        (["squarefree-density", "--poly", "x^3 + 2", "--N", "120000",
          "--factor-budget", "500"], 3,
         "e1736a5a68c543d103f17c36a9b7249cd1664c674ca6b88778727bf74328723f"),
    ],
    ids=["quintic-aborts", "quintic-resolves", "cubic-squarefree-aborts"],
)
def test_budgeted_runs_across_2_50_are_pinned(args, status, digest, tmp_path, capsys):
    """Budgeted runs whose cofactors cross 2**50 in the lanes of
    arith.split_cofactors: the exit status, and the sha256 of the report,
    or of stderr when the run writes none."""
    out = tmp_path / "report.json"
    assert main(args + ["--out", str(out)]) == status
    blob = out.read_bytes() if out.exists() else capsys.readouterr().err.encode()
    assert hashlib.sha256(blob).hexdigest() == digest


# ---------------------------------------------------------------------------
# reference reports of squarefree-density, from sympy.factorint alone
# ---------------------------------------------------------------------------


def _squarefree_reference(h: IntPoly, N: int) -> tuple[list[int], list[int]]:
    """(the fixed square primes, the flags of h(1..N)): a prime p <= deg h
    is fixed when p^2 divides h at every residue mod p^2, a larger one
    when p^2 divides the content; h(n) passes when it is nonzero and no
    prime outside the fixed set divides it twice (sympy.factorint)."""
    fixed = [
        p for p in sympy.primerange(2, h.degree + 1)
        if all(h(r) % (p * p) == 0 for r in range(p * p))
    ]
    content = math.gcd(*h.coeffs)
    fixed += sorted(p for p, e in sympy.factorint(content).items() if p > h.degree and e >= 2)
    flags = [
        int(h(n) != 0 and all(e == 1 for q, e in sympy.factorint(abs(h(n))).items()
                              if q not in fixed))
        for n in range(1, N + 1)
    ]
    return fixed, flags


@given(
    coeffs=st.lists(st.integers(-20, 20), min_size=2, max_size=4).filter(lambda c: c[-1] != 0),
    content=st.sampled_from([1, -1, 2, 4, 12, -18, 75, 10007**2]),
    shift=st.sampled_from([0, 0, 0, 0, 2**62, -(10**19)]),  # past the int64 envelope
    N=st.integers(1, 300),
)
@example(coeffs=[0, 1, 1], content=2, shift=0, N=300)  # 2 (x^2 + x): 2 is fixed
@example(coeffs=[2, 0, 0, 1], content=10007**2, shift=0, N=60)  # a fixed prime above T
@example(coeffs=[1, 0, 1], content=1, shift=2**62, N=100)  # object values
@settings(max_examples=12, deadline=None)
def test_squarefree_report_matches_a_reference_from_factorint(coeffs, content, shift, N):
    """squarefree-density: the count, the fixed square primes and the CSV
    flags of cli.run are those computed from sympy.factorint of each
    value h(n)."""
    h = IntPoly(tuple(content * c for c in [coeffs[0] + shift] + coeffs[1:]))
    fixed, flags = _squarefree_reference(h, N)
    reports = {}
    for output in ("json", "csv"):
        args = cli.build_parser().parse_args(
            ["squarefree-density", f"--poly={format_poly(h)}", "--N", str(N), "--output", output]
        )
        with contextlib.redirect_stdout(io.StringIO()):
            status, reports[output] = cli.run(args)
        assert status == 0
    summary = json.loads(reports["json"])["summary"]
    assert (summary["count"], summary["fixed_square_primes"]) == (sum(flags), fixed)
    assert reports["csv"].splitlines()[1:] == [f"{n},{f}" for n, f in enumerate(flags, 1)]


# ---------------------------------------------------------------------------
# reference reports of cyclic covers, from sympy.factorint alone
# ---------------------------------------------------------------------------


def _reference_reports(p: int, g: IntPoly, N: int) -> dict[str, tuple[list, list]]:
    """(series, skipped) of weak-diversity --method exact and ramified and
    of strong-diversity on y^p = g(x), g with no factor of multiplicity
    >= p.  By Kummer theory Q(a^(1/p)) is fixed by the subgroup a
    generates in Q*/Q*^p, so an exact class is the set of the p - 1
    nontrivial powers of a's exponent vector (the sign counts for p = 2
    only: -1 is a p-th power for odd p).  The ramified set leaves out the
    primes of p, lc(g) and disc(radical(g)); the rank is that of the
    exponent vectors over F_p, pivoting on the smallest column."""
    x = sympy.Symbol("x")
    G = sympy.Poly(list(reversed(g.coeffs)), x)
    distinct = [f for f, _ in sympy.factor_list(G)[1]]
    rad = math.prod(distinct[1:], start=distinct[0])
    rad = rad * (G.LC() // rad.LC())
    excluded = {p} | set(sympy.factorint(abs(G.LC())))
    excluded |= set(sympy.factorint(abs(rad.discriminant())))
    exact, ramified, pivots = set(), set(), {}
    out = {"exact": ([], []), "ramified": ([], []), "strong": ([], [])}
    for n in range(1, N + 1):
        value = g(n)
        if value == 0:
            for series, skipped in out.values():
                skipped.append({"n": n, "reason": "branch"})
        else:
            exponents = {q: e % p for q, e in sympy.factorint(abs(value)).items() if e % p}
            sign = -1 if value < 0 and p == 2 else 1
            if not exponents and sign == 1:
                out["exact"][1].append({"n": n, "reason": "degenerate-counted-as-Q"})
                out["ramified"][1].append({"n": n, "reason": "degenerate-counted-as-Q"})
                exact.add("Q")
                ramified.add("Q")
            else:
                exact.add(frozenset(
                    (sign**k, frozenset((q, k * e % p) for q, e in exponents.items()))
                    for k in range(1, p)
                ))
                ramified.add(frozenset(q for q in exponents if q not in excluded))
            row = dict(exponents)
            if sign == -1:
                row[-1] = 1  # the sign column
            while row:
                col = min(row)
                if col not in pivots:
                    inv = pow(row[col], -1, p)
                    pivots[col] = {k: v * inv % p for k, v in row.items()}
                    break
                c = row[col]
                for k, v in pivots[col].items():
                    w = (row.get(k, 0) - c * v) % p
                    if w:
                        row[k] = w
                    else:
                        row.pop(k, None)
        out["exact"][0].append(len(exact))
        out["ramified"][0].append(len(ramified))
        out["strong"][0].append(len(pivots))
    return out


_factor_of_g = st.one_of(
    st.integers(1, 150).map(lambda r: (-r, 1)),  # x - r: a zero value if r <= N
    # b x + c with values past 10^4, some past arith.SIEVE_LIMIT: linear rows
    st.tuples(st.integers(-(3 * 10**6), 3 * 10**6), st.sampled_from([1, 2, 3, 10007])),
    st.sampled_from([(1, 0, 1), (-2, 0, 1), (41, 1, 1), (7, 3, 0, 1)]),
)


@given(
    p=st.sampled_from([2, 3, 5]),
    # a prime above 10^4 divides every value: content rows
    content=st.sampled_from([10007, -10009, 6 * 10007, 10007 * 10009, -(10007**2), 1000003]),
    factors=st.lists(_factor_of_g, min_size=1, max_size=3),
    N=st.integers(1, 150),
)
@example(p=2, content=10007, factors=[(-3, 1), (2_000_000, 1)], N=150)
@example(p=3, content=-(10007**2), factors=[(-5, 1), (-20_000, 1)], N=40)
@example(p=5, content=6 * 10007, factors=[(7, 3, 0, 1)], N=150)
@settings(max_examples=50, deadline=None)
def test_cyclic_reports_match_a_reference_from_factorint(p, content, factors, N):
    """weak-diversity --method exact and ramified and strong-diversity on
    y^p = g(x): the series and skipped lists of cli.run's JSON are those
    computed from sympy.factorint of each value g(n)."""
    g = IntPoly((content,))
    for f in factors:
        g = g * IntPoly(f)
    assume(g.degree <= 3)
    x = sympy.Symbol("x")
    assume(all(m < p for _, m in sympy.factor_list(sympy.Poly(list(reversed(g.coeffs)), x))[1]))
    text = f"y^{p} - ({format_poly(g)})"
    assert cover_from_text(text).g == g  # no factor was reduced mod p
    want = _reference_reports(p, g, N)
    for name, command, key in (
        ("exact", ["weak-diversity", "--method", "exact"], "D"),
        ("ramified", ["weak-diversity", "--method", "ramified"], "D"),
        ("strong", ["strong-diversity"], "r"),
    ):
        args = cli.build_parser().parse_args(command + [f"--cover={text}", "--N", str(N)])
        with contextlib.redirect_stdout(io.StringIO()):
            status, rendered = cli.run(args)
        assert status == 0
        doc = json.loads(rendered)
        assert (doc["series"][key], doc["skipped"]) == want[name], name


def _branch_reference(poly: sympy.Poly) -> dict:
    """The branch fields of a branch-check report whose branch points are
    the roots of poly: its radical with poly's leading coefficient, the
    degrees of its factors over Q from sympy.factor_list, and the first
    factor of degree >= 2 in (degree, descending coefficients) order."""
    if poly.degree() < 1:
        return {"branch_polynomial": "1", "branch_factor_degrees": [],
                "has_nonrational_branch_point": False, "nonrational_witness": None}
    factors = [f if f.LC() > 0 else -f for f, _ in sympy.factor_list(poly)[1]]
    radical = math.prod(factors, start=sympy.Poly(poly.LC(), poly.gen))
    radical = radical.exquo_ground(math.prod(f.LC() for f in factors))
    witness = min(
        (f for f in factors if f.degree() >= 2),
        key=lambda f: (f.degree(), f.all_coeffs()),
        default=None,
    )

    def text(f):
        return format_poly(IntPoly(tuple(int(c) for c in reversed(f.all_coeffs()))))

    return {
        "branch_polynomial": text(radical),
        "branch_factor_degrees": sorted(f.degree() for f in factors),
        "has_nonrational_branch_point": witness is not None,
        "nonrational_witness": text(witness) if witness is not None else None,
    }


def _branch_check(text: str) -> dict:
    args = cli.build_parser().parse_args(["branch-check", f"--cover={text}"])
    with contextlib.redirect_stdout(io.StringIO()):
        status, rendered = cli.run(args)
    assert status == 0
    summary = json.loads(rendered)["summary"]
    return {k: summary[k] for k in ("branch_polynomial", "branch_factor_degrees",
                                    "has_nonrational_branch_point", "nonrational_witness")}


_branch_factor = st.sampled_from(
    [(-1, 1), (2, 1), (0, 3), (-2, 0, 1), (1, 0, 1), (1, 1, 1), (3, 0, 2), (-2, 0, 0, 1)]
)


@given(
    p=st.sampled_from([2, 3, 5]),
    content=st.sampled_from([1, -1, 3, -8, 25, 96]),
    factors=st.lists(st.tuples(_branch_factor, st.integers(1, 6)), min_size=1, max_size=3),
)
@example(p=2, content=1, factors=[((-2, 0, 1), 1)])
@example(p=3, content=-8, factors=[((1, 0, 1), 3), ((-1, 1), 4), ((1, 1, 1), 2)])
@settings(max_examples=40, deadline=None)
def test_cyclic_branch_check_matches_a_reference_from_sympy(p, content, factors):
    """branch-check on y^p = g(x): the branch fields of cli.run's JSON are
    those of g's factors over Q from sympy.factor_list, without the
    factors whose multiplicity is 0 mod p."""
    g = IntPoly((content,))
    for f, m in factors:
        g = g * IntPoly(f).pow(m)
    x = sympy.Symbol("x")
    lc, pairs = sympy.factor_list(sympy.Poly(list(reversed(g.coeffs)), x))
    assume(any(m % p for _, m in pairs))
    kept = math.prod((f**(m % p) for f, m in pairs), start=sympy.Poly(lc, x))
    assert _branch_check(f"y^{p} - ({format_poly(g)})") == _branch_reference(kept)


@given(
    d=st.sampled_from([2, 3]),
    coeffs=st.lists(st.lists(st.integers(-3, 3), min_size=1, max_size=6), min_size=3, max_size=3),
)
@example(d=3, coeffs=[[1, 0, 1], [0, 1], [0]])  # y^3 + xy + x^2 + 1
@example(d=3, coeffs=[[1], [0, 0, 0, 0, 0, 1], [0]])  # y^3 + x^5 y + 1: -4x^15 - 27
@settings(max_examples=40, deadline=None)
def test_plane_branch_check_matches_a_reference_from_sympy(d, coeffs):
    """branch-check on a monic plane model F of y-degree 2 or 3 and
    x-degree up to 5, so that its y-discriminant may pass degree 12: the
    branch fields of cli.run's JSON are those of sympy.discriminant(F, y)."""
    x, y = sympy.symbols("x y")
    terms = [((0, d), 1)] + [((i, j), c) for j, col in enumerate(coeffs[:d])
                             for i, c in enumerate(col) if c]
    F = sum((c * x**i * y**j for (i, j), c in terms), sympy.Integer(0))
    assume(any(j for (_, j), _ in terms if 0 < j < d))  # not y^p - g: plane
    assume(any(i for (i, _), _ in terms))  # involves x
    disc = sympy.Poly(sympy.discriminant(F, y), x)
    assume(not disc.is_zero)
    # a quadratic whose discriminant is a constant times a square is two lines
    assume(d == 3 or any(m % 2 for _, m in sympy.sqf_list(disc)[1]))
    text = format_poly(PlanePoly(tuple(terms)))
    assert _branch_check(text) == _branch_reference(disc)


def _record(monkeypatch, name):
    """The arguments of every call to polyring.<name> from here on."""
    calls = []
    original = getattr(polyring, name)

    def recording(f, *args):
        calls.append(f)
        return original(f, *args)

    monkeypatch.setattr(polyring, name, recording)
    return calls


@pytest.mark.parametrize(
    "args",
    [
        ["weak-diversity", "--N", "40", "--method", "exact"],
        ["weak-diversity", "--N", "40", "--method", "ramified"],
        ["strong-diversity", "--N", "40"],
        ["branch-check"],
    ],
    ids=["weak-exact", "weak-ramified", "strong", "branch-check"],
)
def test_cyclic_runs_factor_g_once(args, monkeypatch, tmp_path):
    """normalize_cyclic factors g, and the trial root table, the
    ramified-set exclusions and the branch fields read its factors."""
    calls = _record(monkeypatch, "factor_over_Q")
    g = parse_poly("(x^2 + 1)^4*(x - 2)")
    assert main(args + ["--cover", f"y^3 - ({format_poly(g)})", "--out", str(tmp_path / "o")]) == 0
    assert calls == [g]


def test_plane_branch_check_factors_the_branch_polynomial_once(monkeypatch, tmp_path):
    """One y-discriminant, built with the cover, and one factor_over_Q of
    its radical; the witness hunt's fibers F(n, y) are factored apart."""
    F = parse_poly("y^3 + x*y + x^2 + 1")
    calls = _record(monkeypatch, "factor_over_Q")
    discriminants = _record(monkeypatch, "y_discriminant")
    out = tmp_path / "o.json"
    assert main(["branch-check", "--cover", format_poly(F), "--out", str(out)]) == 0
    hunt = {F.specialize_x(n) for n in range(1, 13)}
    bp = parse_poly(json.loads(out.read_text())["summary"]["branch_polynomial"])
    assert [f for f in calls if f not in hunt] == [bp]
    assert discriminants == [F]


def test_exact_order_prime_ratio_factors_g_once(monkeypatch):
    calls = _record(monkeypatch, "factor_over_Q")
    g = parse_poly("x^2 + 1")
    assert sieve.exact_order_prime_ratio(g, 50)[0] > 0
    assert calls == [g]


def test_golden_weak_diversity(tmp_path):
    out = tmp_path / "golden.json"
    status = main(["weak-diversity", "--cover", "y^2 - (x^3 - x)", "--N", "1000",
                   "--method", "exact", "--out", str(out)])
    assert status == 0
    assert out.read_bytes() == (GOLDEN / "weak_diversity_cubic_n1000.json").read_bytes()


def test_golden_branch_check(tmp_path):
    out = tmp_path / "golden2.json"
    status = main(["branch-check", "--cover", "y^2 - (x^2 - 2)", "--out", str(out)])
    assert status == 0
    assert out.read_bytes() == (GOLDEN / "branch_check_sqrt2.json").read_bytes()


# ---------------------------------------------------------------------------
# JSON rendering: the text of json.dumps(doc, indent=2)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "args",
    [
        ["weak-diversity", "--cover", "y^2 - (x^3 - x)", "--N", "60", "--method", "exact"],
        ["strong-diversity", "--cover", "y^5 - (x^4 + 3*x + 7)", "--N", "40"],
        ["squarefree-density", "--poly", "x^3 + 2", "--N", "500"],
        ["classify-radical", "3/4", "2", "--isomorphic-to", "12"],
        ["branch-check", "--cover", "y^3 + x*y + x^2 + 1"],
        ["norm-collisions", "--poly", "x^2 - 5x", "--N", "100"],
    ],
    ids=lambda args: args[0],
)
def test_report_text_is_json_dumps(args, tmp_path):
    parsed = cli.build_parser().parse_args(args)
    doc, _ = cli._RUNNERS[parsed.subcommand](parsed)
    text = json.dumps(doc, indent=2)
    assert cli._render_json(doc) == text
    status, out = run_cli(args, tmp_path)
    assert status == 0
    assert out.read_text() == text + "\n"


@pytest.mark.parametrize("name", ["weak_diversity_cubic_n1000.json", "branch_check_sqrt2.json"])
def test_golden_text_is_json_dumps(name):
    text = (GOLDEN / name).read_text()
    doc = json.loads(text)
    assert cli._render_json(doc) + "\n" == json.dumps(doc, indent=2) + "\n" == text


_json_keys = st.one_of(st.text(max_size=4), st.integers(), st.booleans(), st.none(), st.floats())
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=6)
    | st.tuples(inner, inner)
    | st.dictionaries(_json_keys, inner, max_size=4),
    max_leaves=16,
)


@given(_json_values)
@settings(max_examples=40, deadline=None)
def test_render_json_matches_json_dumps(value):
    assert cli._render_json(value) == json.dumps(value, indent=2)


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fiberfields.cli", "classify-radical", "12", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["summary"]["canonical_value"] == 3


def test_package_runs_as_module():
    proc = subprocess.run(
        [sys.executable, "-m", "fiberfields", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == __version__
