import json
import subprocess
import sys
from pathlib import Path

import pytest

from fiberfields import __version__, cli
from fiberfields.cli import REPORT_SCHEMA, main

GOLDEN = Path(__file__).parent / "golden"


def run_cli(args, tmp_path, name="out.json"):
    out = tmp_path / name
    status = main(args + ["--out", str(out)])
    return status, out


def load(out: Path) -> dict:
    return json.loads(out.read_text())


def validate_schema(doc: dict):
    jsonschema = pytest.importorskip("jsonschema")
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
    status = main(["weak-diversity", "--cover", "y^2 - x", "--N", "0"])
    assert status == 2
    err = capsys.readouterr().err
    assert "N >= 1 required" in err


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


def test_classify_radical_psi12_is_not_prime(tmp_path):
    # 318665857834031151167461 is a strong pseudoprime to the first 12 prime bases
    status, out = run_cli(["classify-radical", "318665857834031151167461", "2"], tmp_path)
    assert status == 0
    assert load(out)["summary"]["kernel"]["factors"] == [[399165290221, 1], [798330580441, 1]]


def test_exit_code_parse_error(capsys):
    status = main(["weak-diversity", "--cover", "y^2 - x^^2", "--N", "5"])
    assert status == 2
    assert "offset" in capsys.readouterr().err


def test_exit_code_budget_error(capsys):
    semiprime = str(1_000_000_007 * 1_000_000_033)
    status = main(["classify-radical", semiprime, "2", "--factor-budget", "4"])
    assert status == 3
    assert "budget" in capsys.readouterr().err


def test_csv_unavailable_for_classify(capsys):
    status = main(["classify-radical", "16", "3", "--output", "csv"])
    assert status == 2


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
