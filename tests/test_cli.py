"""Command line interface: argument handling, output formats, exit codes."""

import json
from fractions import Fraction

import pytest

from parkcrit.cli import main
from parkcrit.enumeration import FptTable, tutte_series
from parkcrit.laws import binary0k


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_json(capsys):
    code, out, err = run_cli(
        capsys, "analyze", "--family", "binary0k", "--alpha", "1/14", "--k", "2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["regime"] == "critical"
    assert doc["law"]["params"]["alpha"] == "1/14"
    assert doc["critical_time"] == pytest.approx(3.0, abs=1e-9)
    assert doc["crit_density"] == pytest.approx(0.875, abs=1e-12)


def test_analyze_accepts_decimal_alpha_exactly(capsys):
    # 0.05 on the command line means the literal decimal, not the float blob
    code, out, _ = run_cli(capsys, "analyze", "--family", "binary0k", "--alpha", "0.05")
    assert code == 0
    doc = json.loads(out)
    assert doc["law"]["params"]["alpha"] == "1/20"
    assert doc["regime"] == "subcritical"


def test_analyze_csv(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--family", "geometric", "--alpha", "1/8", "--format", "csv"
    )
    assert code == 0
    rows = dict(line.split(",", 1) for line in out.strip().splitlines()[1:])
    assert rows["regime"] == "critical"
    assert float(rows["empty_prob"]) == pytest.approx(27 / 32, abs=1e-9)


def test_analyze_law_file(tmp_path, capsys):
    spec = {"family": {"name": "binary0k", "alpha": "1/14", "k": 2}}
    path = tmp_path / "law.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, "analyze", "--law", str(path))
    assert code == 0
    assert json.loads(out)["regime"] == "critical"


def test_finite_law_flag(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--finite", "1/2", "1/4", "1/8", "1/8"
    )
    assert code == 0
    assert json.loads(out)["regime"] in {"subcritical", "critical", "supercritical"}


def test_conflicting_law_flags_rejected(capsys):
    code, _, err = run_cli(
        capsys, "analyze", "--family", "poisson", "--alpha", "0.1", "--finite", "1"
    )
    assert code == 2
    assert err


def test_missing_law_rejected(capsys):
    code, _, err = run_cli(capsys, "analyze")
    assert code == 2


def test_unknown_family_rejected(capsys):
    code, _, err = run_cli(capsys, "analyze", "--family", "zeta", "--alpha", "0.1")
    assert code == 2


def test_degenerate_law_rejected(tmp_path, capsys):
    path = tmp_path / "law.json"
    path.write_text(json.dumps({"finite": ["1/2", "1/2"]}))
    code, _, err = run_cli(capsys, "analyze", "--law", str(path))
    assert code == 2
    assert "Mu01IsOne" in err


@pytest.mark.parametrize(
    "family",
    [
        {"name": "binary0k", "alpha": "1/14", "k": 2, "mix": 1},
        {"name": "nongeneric_example", "mix": "1/2", "alpha": "1/2"},
        {"name": "poisson", "alpha": "1/10", "k": 2},
    ],
)
def test_law_file_with_unexpected_family_keys(tmp_path, capsys, family):
    path = tmp_path / "law.json"
    path.write_text(json.dumps({"family": family}))
    code, _, err = run_cli(capsys, "analyze", "--law", str(path))
    assert code == 2
    assert "unexpected family keys" in err


@pytest.mark.parametrize(
    "family", [{"name": "poisson"}, {"name": "binary0k", "k": 3}, "poisson", 5, None]
)
def test_law_file_with_malformed_family(tmp_path, capsys, family):
    # a missing alpha or a family that is no JSON object is an input error
    path = tmp_path / "law.json"
    path.write_text(json.dumps({"family": family}))
    code, _, err = run_cli(capsys, "analyze", "--law", str(path))
    assert code == 2
    assert "LawError" in err


@pytest.mark.parametrize("k, code", [(3, 0), ("3", 0), (2.7, 2), ("5/2", 2), (True, 2)])
def test_law_file_binary0k_k_must_be_an_integer(tmp_path, capsys, k, code):
    path = tmp_path / "law.json"
    path.write_text(json.dumps({"family": {"name": "binary0k", "alpha": "1/20", "k": k}}))
    got, out, err = run_cli(capsys, "analyze", "--law", str(path))
    assert got == code
    if code:
        assert "LawError" in err
    else:
        assert json.loads(out)["law"]["params"]["k"] == 3


def test_law_file_with_unknown_keys(tmp_path, capsys):
    path = tmp_path / "law.json"
    path.write_text(json.dumps({"finite": ["1"], "extra": 1}))
    code, _, err = run_cli(capsys, "analyze", "--law", str(path))
    assert code == 2


def test_sweep(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--families", "binary0k,poisson,geometric", "--k", "2"
    )
    assert code == 0
    doc = json.loads(out)
    vals = {row["family"]: row["critical_mean"] for row in doc["results"]}
    assert vals["binary0k"] == pytest.approx(1 / 14, abs=1e-6)
    assert vals["geometric"] == pytest.approx(1 / 8, abs=1e-6)


def test_sweep_refuses_nongeneric_example(capsys):
    code, _, err = run_cli(capsys, "sweep", "--families", "nongeneric_example")
    assert code == 3
    assert "BracketFailure" in err and "no supercritical member" in err


def test_flux_json(capsys):
    code, out, _ = run_cli(
        capsys, "flux", "--family", "binary0k", "--alpha", "0.05", "--order", "30"
    )
    assert code == 0
    doc = json.loads(out)
    assert sum(doc["probs"]) == pytest.approx(1.0, abs=1e-6)
    assert doc["empty_prob"] == pytest.approx(0.9187370948512927, abs=1e-9)


def test_flux_supercritical_fails(capsys):
    code, _, err = run_cli(capsys, "flux", "--family", "binary0k", "--alpha", "0.3")
    assert code == 3
    assert "NoSolution" in err


def test_enumerate_csv_round_trips(tmp_path, capsys):
    # stdout and --out carry the same text, which read_csv and verify accept
    argv = [
        "enumerate", "--family", "binary0k", "--alpha", "1/14",
        "--vertex-order", "4", "--flux-order", "2", "--format", "csv",
    ]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    out_path, stdout_path = tmp_path / "table.csv", tmp_path / "stdout.csv"
    assert run_cli(capsys, *argv, "--out", str(out_path))[0] == 0
    stdout_path.write_text(out, encoding="utf-8")
    assert stdout_path.read_bytes() == out_path.read_bytes()
    table = FptTable.read_csv(stdout_path)
    direct = tutte_series(binary0k(Fraction(1, 14)), 4, 2)
    assert table.rows == direct.rows
    code, _, err = run_cli(
        capsys, "verify", "--family", "binary0k", "--alpha", "1/14",
        "--table", str(stdout_path),
    )
    assert code == 0, err


def test_enumerate_oracle_flag(capsys):
    code, out, _ = run_cli(
        capsys,
        "enumerate", "--family", "binary0k", "--alpha", "1/14",
        "--vertex-order", "4", "--flux-order", "2", "--oracle",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["oracle_checked"] is True


def test_enumerate_json_entries(capsys):
    code, out, _ = run_cli(
        capsys,
        "enumerate", "--family", "binary0k", "--alpha", "1/14",
        "--vertex-order", "2", "--flux-order", "2",
    )
    assert code == 0
    doc = json.loads(out)
    cells = {(e["n"], e["p"]): e for e in doc["entries"]}
    assert cells[(2, 0)]["weight"] == "27/392"


def test_simulate_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate", "--family", "binary0k", "--alpha", "1/14",
        "--depth", "6", "--samples", "400", "--seed", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["samples"] == 400
    assert 0.5 < doc["empty_prob_hat"] < 1.0
    assert sum(doc["root_load_counts"]) == 400
    assert doc["mnodes_per_s"] == pytest.approx(
        400 * 127 / doc["elapsed_seconds"] / 1e6, rel=1e-12
    )


def test_simulate_cluster(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate", "--family", "binary0k", "--alpha", "1/14",
        "--depth", "8", "--samples", "300", "--seed", "3", "--cluster",
    )
    assert code == 0
    doc = json.loads(out)
    assert "size_counts" in doc and "censored" in doc
    assert doc["mnodes_per_s"] > 0


def test_simulate_budget(capsys):
    code, _, err = run_cli(
        capsys,
        "simulate", "--family", "binary0k", "--alpha", "1/14",
        "--depth", "30", "--samples", "100000",
    )
    assert code == 2
    assert "Budget" in err


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--family", "binary0k", "--alpha", "1/14")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert all(check["passed"] for check in doc["checks"])


def test_verify_rejects_corrupted_table(tmp_path, capsys):
    path = tmp_path / "table.csv"
    code, _, _ = run_cli(
        capsys,
        "enumerate", "--family", "binary0k", "--alpha", "1/14",
        "--vertex-order", "3", "--flux-order", "2",
        "--format", "csv", "--out", str(path),
    )
    assert code == 0
    text = path.read_text().replace("2,0,27,392", "2,0,28,392")
    path.write_text(text)
    code, out, err = run_cli(
        capsys,
        "verify", "--family", "binary0k", "--alpha", "1/14", "--table", str(path),
    )
    assert code == 3
    assert "table-match" in err


def test_out_writes_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "analyze", "--family", "binary0k", "--alpha", "1/14", "--out", str(path),
    )
    assert code == 0
    assert json.loads(path.read_text())["regime"] == "critical"


def test_missing_file_is_an_input_error(capsys):
    code, _, err = run_cli(capsys, "analyze", "--law", "/does/not/exist.json")
    assert code == 2


def test_floats_are_json_clean(capsys):
    # infinities travel as strings so every report stays valid json
    code, out, _ = run_cli(capsys, "analyze", "--family", "poisson", "--alpha", "0.05")
    assert code == 0
    doc = json.loads(out)
    assert doc["law"]["radius"] == "inf"

