"""Command line interface: argument handling, output formats, exit codes."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import parkcrit
from parkcrit import analytic, cli
from parkcrit.cli import main
from parkcrit.enumeration import FptTable, tutte_series
from parkcrit.laws import binary0k, poisson


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


def test_analyze_supercritical_has_no_crit_density(capsys):
    # the density at t_c is no probability here: poisson(440) read 3.2e187
    code, out, _ = run_cli(capsys, "analyze", "--family", "poisson", "--alpha", "440")
    assert code == 0
    doc = json.loads(out)
    assert doc["regime"] == "supercritical"
    assert doc["crit_density"] is None and "crit_density" in doc


def test_analyze_accepts_decimal_alpha_exactly(capsys):
    # 0.05 on the command line means the literal decimal, not the float blob
    code, out, _ = run_cli(capsys, "analyze", "--family", "binary0k", "--alpha", "0.05")
    assert code == 0
    doc = json.loads(out)
    assert doc["law"]["params"]["alpha"] == "1/20"
    assert doc["law"]["params"]["k"] == 2  # binary0k's default k
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
    for argv in [
        ("analyze", "--family", "poisson", "--alpha", "0.1", "--finite", "1"),
        # family flags without --family still form a family spec
        ("analyze", "--finite", "1/2", "1/4", "1/4", "--alpha", "0.1"),
        ("verify", "--k", "3"),
    ]:
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert "LawError" in err


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


def law_argvs(tmp_path, family):
    """The law as a --law file, then as the family flags holding the same keys."""
    path = tmp_path / "law.json"
    path.write_text(json.dumps({"family": family}))
    flags = [f"--{'family' if key == 'name' else key}={v}" for key, v in family.items()]
    return [["--law", str(path)], flags]


@pytest.mark.parametrize(
    "family",
    [
        {"name": "binary0k", "alpha": "1/14", "k": 2, "mix": 1},
        {"name": "nongeneric_example", "mix": "1/2", "alpha": "1/2"},
        {"name": "nongeneric_example", "alpha": "1/2"},
        {"name": "poisson", "alpha": "1/10", "k": 2},
        {"name": "poisson", "alpha": "0.1", "mix": "1/2"},
        {"name": "geometric", "alpha": "1/8", "k": 3},
    ],
)
def test_law_file_with_unexpected_family_keys(tmp_path, capsys, family):
    # flags and law files share one spec path, so both refuse the same keys
    for law in law_argvs(tmp_path, family):
        code, _, err = run_cli(capsys, "analyze", *law)
        assert code == 2, law
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
    for law in law_argvs(tmp_path, {"name": "binary0k", "alpha": "1/20", "k": k}):
        got, out, err = run_cli(capsys, "analyze", *law)
        assert got == code, law
        if code:
            assert "LawError" in err
        else:
            assert json.loads(out)["law"]["params"]["k"] == 3


def test_law_file_with_unknown_keys(tmp_path, capsys):
    path = tmp_path / "law.json"
    path.write_text(json.dumps({"finite": ["1"], "extra": 1}))
    code, _, err = run_cli(capsys, "analyze", "--law", str(path))
    assert code == 2


@pytest.mark.parametrize(
    "spec",
    [
        {"finite": ["1/2", "1/4", "1/4"], "extra": 1},
        {"finite": ["1/2", "1/4", "1/4"], "family": {"name": "poisson", "alpha": "1/10"}},
        {"family": {"name": "poisson", "alpha": "1/10"}, "finite": ["1/2", "1/4", "1/4"]},
        {},
    ],
)
def test_law_file_needs_exactly_one_law_entry(tmp_path, capsys, spec):
    # the finite law alone is valid, so only the entry beside it is refused
    path = tmp_path / "law.json"
    path.write_text(json.dumps({"finite": ["1/2", "1/4", "1/4"]}))
    assert run_cli(capsys, "analyze", "--law", str(path))[0] == 0
    path.write_text(json.dumps(spec))
    code, _, err = run_cli(capsys, "analyze", "--law", str(path))
    assert code == 2
    assert "LawError" in err and "exactly one entry" in err


def test_sweep(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--families", "binary0k,poisson,geometric", "--k", "2"
    )
    assert code == 0
    doc = json.loads(out)
    vals = {row["family"]: row["critical_mean"] for row in doc["results"]}
    assert vals["binary0k"] == pytest.approx(1 / 14, abs=1e-6)
    assert vals["geometric"] == pytest.approx(1 / 8, abs=1e-6)


@pytest.mark.parametrize("families", [",", "", " , "])
def test_sweep_refuses_an_empty_family_list(capsys, families):
    code, out, err = run_cli(capsys, "sweep", "--families", families)
    assert code == 2
    assert out == ""
    assert "LawError" in err


def test_sweep_refuses_an_infinite_tol(capsys):
    # it used to print the bracket midpoint, 25.00005, and exit 0
    code, out, err = run_cli(capsys, "sweep", "--families", "poisson", "--tol", "inf")
    assert code == 2
    assert out == ""
    assert "input error (OutOfDomain)" in err and "not finite" in err


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


def test_enumerate_oracle_past_its_budget(capsys):
    # 19**8 tuples of atoms; the oracle counts its work first and refuses
    code, out, err = run_cli(
        capsys,
        "enumerate", "--family", "geometric", "--alpha", "1/3",
        "--vertex-order", "8", "--flux-order", "10", "--oracle",
    )
    assert code == 2
    assert out == ""
    assert "input error (BudgetExceeded): brute force at orders (8, 10)" in err


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
    # rows u_0, u_1 = [1, 0] and u_2 = [2, 2] of the recursion, in units of k = 2 cars
    assert doc["max_row_bits"] == [0, 1, 2]


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
        "--depth", "8", "--samples", "300", "--seed", "3", "--cluster", "--threads", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert "size_counts" in doc and "censored" in doc
    assert doc["threads"] == 2
    assert doc["mnodes_per_s"] > 0


@pytest.mark.parametrize(
    "depth, samples, cost",
    [("30", "100000", "100000 * 2^30"), ("2000", "1", "1 * 2^2000")],  # 2^2000 overflows a float
    ids=["depth30", "depth2000"],
)
def test_simulate_budget(capsys, depth, samples, cost):
    code, out, err = run_cli(
        capsys,
        "simulate", "--family", "binary0k", "--alpha", "1/14",
        "--depth", depth, "--samples", samples,
    )
    assert code == 2
    assert out == ""
    assert f"input error (BudgetExceeded): samples * 2^depth = {cost} exceeds" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--family", "poisson", "--alpha", "1e400"),
        ("analyze", "--family", "geometric", "--alpha", "1e400"),
        ("analyze", "--family", "geometric", "--alpha", "1e-400"),
        ("simulate", "--family", "poisson", "--alpha", "1e-400", "--depth", "3", "--samples", "2"),
        ("analyze", "--family", "nongeneric_example", "--mix", "1e-400"),
    ],
)
def test_family_parameter_beyond_float_range_is_an_input_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "input error (BadFamilyParameter)" in err


def test_finite_mass_whose_float_is_zero_is_an_input_error(capsys):
    # printed "input error: max() arg is an empty sequence", with no code
    tiny = 10**400
    code, out, err = run_cli(capsys, "analyze", "--finite", f"{tiny - 1}/{tiny}", "0", f"1/{tiny}")
    assert code == 2
    assert out == ""
    assert "input error (BadFamilyParameter): the mass at 2 rounds to a float of 0.0" in err


def test_simulate_loads_beyond_int32_are_an_input_error(capsys):
    # k = 2^32 ended in a raw OverflowError traceback
    code, out, err = run_cli(
        capsys, "simulate", "--family", "binary0k", "--alpha", "1/2", "--k", str(2**32),
        "--depth", "2", "--samples", "3",
    )
    assert code == 2
    assert out == ""
    assert "input error (BudgetExceeded)" in err and "int32" in err


SIMULATE = ("simulate", "--family", "poisson", "--alpha", "0.1")
ENUMERATE = ("enumerate", "--family", "binary0k", "--alpha", "1/14")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (SIMULATE + ("--depth", "4", "--samples", "10", "--threads", "0"), "--threads"),
        (SIMULATE + ("--depth", "-1", "--samples", "10"), "--depth"),
        (SIMULATE + ("--depth", "4", "--samples", "0"), "--samples"),
        (SIMULATE + ("--depth", "4", "--samples", "10", "--seed", "-1"), "--seed"),
        (ENUMERATE + ("--vertex-order", "0", "--flux-order", "2"), "--vertex-order"),
        (ENUMERATE + ("--vertex-order", "3", "--flux-order", "-1"), "--flux-order"),
        (("flux", "--family", "binary0k", "--alpha", "1/20", "--order", "1"), "--order"),
        (("sweep", "--families", "binary0k", "--tol", "-1"), "--tol"),
        (("sweep", "--families", "poisson", "--tol", "0"), "--tol"),
        # only sweep reads a tolerance, its bracket width, so only sweep declares --tol
        (("analyze", "--family", "poisson", "--alpha", "0.1", "--tol", "nan"), "--tol"),
        (("verify", "--tol=-1e-9"), "--tol"),
        (SIMULATE + ("--depth", "4", "--samples", "10", "--budget", "nan"), "--budget"),
        (SIMULATE + ("--depth", "4", "--samples", "10", "--budget", "0"), "--budget"),
        (ENUMERATE + ("--vertex-order", "3", "--flux-order", "2", "--tol", "5"), "--tol"),
        (SIMULATE + ("--depth", "4", "--samples", "10", "--tol", "5"), "--tol"),
        (("flux", "--family", "poisson", "--alpha", "0.1", "--tol", "1e-6"), "--tol"),
    ],
)
def test_out_of_range_flags_are_input_errors(capsys, argv, flag):
    # refused while parsing, before any numerical work can report exit 3
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    if argv[0] != "sweep" and flag == "--tol":
        assert f"unrecognized arguments: {flag}" in err
    else:
        assert f"argument {flag}: must be" in err


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
    table = path.read_text()
    corruptions = {
        # a wrong weight, a repeated cell whose last copy is right, a cell
        # beyond the declared orders (3, 2), a negative weight and an order
        # below (1, 0)
        "entry (2, 0) is 1/14, recomputed 27/392": table.replace("2,0,27,392", "2,0,28,392"),
        "EnumerationError: table file repeats the (1, 0) entry":
            table.replace("\n1,0,", "\n1,0,999,1\n1,0,", 1),
        "EnumerationError: table file has the (9, 9) entry": table + "9,9,5,7\n",
        "EnumerationError: table file has a negative weight": table.replace("1,1,1,28", "1,1,1,-28"),
        "EnumerationError: table file has orders (3, -1)":
            table.replace("flux_order: 2", "flux_order: -1"),
    }
    for detail, text in corruptions.items():
        path.write_text(text)
        code, out, err = run_cli(
            capsys,
            "verify", "--family", "binary0k", "--alpha", "1/14", "--table", str(path),
        )
        assert code == 3, detail
        assert "table-match" in err
        (check,) = [c for c in json.loads(out)["checks"] if c["name"] == "table-match"]
        assert not check["passed"] and check["detail"].startswith(detail)


def _plant_report(monkeypatch, **fields):
    """classify, where the CLI and analytic look it up, reports these fields
    over the true report: classify refuses what no packaged law gives, so
    the guards after it are reached through a planted report."""
    true = analytic.classify
    fake = lambda law: dataclasses.replace(true(law), **fields)  # noqa: E731
    monkeypatch.setattr(analytic, "classify", fake)
    monkeypatch.setattr(cli, "classify", fake)


def test_verify_reports_checks_that_raise(capsys, monkeypatch):
    # at half its empty_prob, the flux law of poisson(0.1) raises
    # NegativeCoefficient; the fixed-point residual is still reported
    _plant_report(monkeypatch, empty_prob=0.5 * analytic.classify(poisson(0.1)).empty_prob)
    code, out, err = run_cli(capsys, "verify", "--family", "poisson", "--alpha", "0.1")
    assert code == 3
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert list(checks) == [
        "classify", "fixed-point-identity", "flux-total-mass", "flux-nonnegative",
        "load-recursion",
    ]
    assert checks["fixed-point-identity"]["detail"].startswith("residual=")
    for name in ("flux-total-mass", "flux-nonnegative", "load-recursion"):
        assert not checks[name]["passed"]
        assert checks[name]["detail"].startswith("NegativeCoefficient: ")
    assert err.startswith("verification failed: ")


def test_flux_entries_that_are_not_probabilities_exit_3(capsys, monkeypatch):
    # with an infinite empty_prob the flux law overflows, and must not be
    # printed as inf or nan with exit 0
    _plant_report(monkeypatch, empty_prob=math.inf)
    code, out, err = run_cli(capsys, "flux", "--family", "poisson", "--alpha", "0.1")
    assert (code, out) == (3, "")
    assert err.startswith("numerical failure (NoSolution): P(flux = 0) came out inf")


def test_analyze_critical_closed_form_outside_unit_interval_exits_3(capsys, monkeypatch):
    # at t = 1.5 the closed-form empty-root probability of binary0k(1/14) is
    # 1.077, a numerical failure, not bad input
    _plant_report(monkeypatch, critical_time=1.5)
    code, out, err = run_cli(capsys, "analyze", "--family", "binary0k", "--alpha", "1/14")
    assert (code, out) == (3, "")
    assert err.startswith("numerical failure (NoSolution): closed-form empty-root probability")


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


def test_module_entry_point_runs_the_cli():
    # python -m parkcrit.cli must run main, not import the module and exit 0
    src = str(Path(parkcrit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "parkcrit.cli", "analyze", "--family", "nope"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "argument --family: invalid choice: 'nope'" in proc.stderr


LAW_KEYS = [
    "law", "law.kind", "law.params", "law.params.alpha", "law.params.k",
    "law.mean", "law.mass_at_zero", "law.radius",
]
REGIME_KEYS = [
    "regime", "boundary_test", "margin_vanishes", "critical_time", "crit_density",
    "gf_at_crit", "lhs", "rhs", "gap", "empty_prob", "occupied_no_flux_prob",
]
SOLVED_KEYS = [
    "moments", "moments.empty_prob", "moments.mean_arrivals", "moments.mean_occupancy",
    "moments.mean_flux", "empty_vertex_offspring", "empty_vertex_offspring.p0",
    "empty_vertex_offspring.p1", "empty_vertex_offspring.p2", "empty_vertex_offspring.mean",
]
RUN_KEYS = ["depth", "samples", "seed", "threads", "load_bits", "group_trees", "elapsed_seconds"]
B0K = ("--family", "binary0k", "--alpha")
MC = ("--depth", "3", "--samples", "10")


def key_paths(obj, prefix=""):
    """Every key of a payload as a dotted path; a list of objects shows its first."""
    paths = []
    if isinstance(obj, dict):
        for key, value in obj.items():
            path = f"{prefix}.{key}" if prefix else key
            paths.append(path)
            paths.extend(key_paths(value, path))
    elif isinstance(obj, list) and obj and isinstance(obj[0], dict):
        paths.extend(key_paths(obj[0], prefix + "[]"))
    return paths


# The key sets are those of the payloads before they were built from the
# result records; only the order of the flux and simulate keys moved.  A
# new key, such as a diagnostics block, changes this table on purpose:
# simulate's root_load_tail came with the cap on its histogram, and its
# load_bits and group_trees with loads settled in int16.
@pytest.mark.parametrize(
    "argv, keys",
    [
        (("analyze",) + B0K + ("1/20",), LAW_KEYS + REGIME_KEYS + SOLVED_KEYS),
        (
            ("analyze",) + B0K + ("1/14",),
            LAW_KEYS + REGIME_KEYS + SOLVED_KEYS + [
                "critical_closed_form", "critical_closed_form.empty_prob",
                "critical_closed_form.occupied_no_flux_prob",
            ],
        ),
        (("analyze",) + B0K + ("3/10",), LAW_KEYS + REGIME_KEYS),
        (
            ("sweep", "--families", "binary0k"),
            ["results", "results[].family", "results[].k", "results[].critical_mean",
             "results[].tol"],
        ),
        (
            ("enumerate",) + B0K + ("1/14", "--vertex-order", "2", "--flux-order", "1"),
            LAW_KEYS + ["vertex_order", "flux_order", "source", "oracle_checked", "entries",
                        "entries[].n", "entries[].p", "entries[].weight", "max_row_bits"],
        ),
        (
            ("flux",) + B0K + ("1/20", "--order", "4"),
            LAW_KEYS + ["order", "probs", "empty_prob", "occupied_no_flux_prob", "mean_flux",
                        "mean_occupancy", "tail_mass"],
        ),
        (
            ("simulate",) + B0K + ("1/20",) + MC,
            LAW_KEYS + RUN_KEYS + ["root_load_counts", "root_load_tail", "empty_prob_hat",
                                   "empty_prob_ci", "mean_load", "flux_probs", "mnodes_per_s"],
        ),
        (
            ("simulate",) + B0K + ("1/20", "--cluster") + MC,
            LAW_KEYS + RUN_KEYS + ["size_counts", "censored", "mnodes_per_s"],
        ),
        (
            ("verify",),
            LAW_KEYS + ["checks", "checks[].name", "checks[].passed", "checks[].detail",
                        "passed"],
        ),
    ],
    ids=["analyze-sub", "analyze-crit", "analyze-super", "sweep", "enumerate", "flux",
         "simulate", "simulate-cluster", "verify"],
)
def test_json_payload_keys_are_pinned(capsys, argv, keys):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert key_paths(json.loads(out)) == ["schema", "command"] + keys
