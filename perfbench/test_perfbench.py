"""Self-tests for the benchmark: the checkers catch planted bad outputs, and
every workload runs end to end at a smoke size.

    python3 -m pytest perfbench -q
"""
import dataclasses
import json
import random
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from parkcrit import (  # noqa: E402
    binary0k,
    classify,
    estimate_root_law,
    flux_distribution,
    make_finite_law,
    tutte_series,
)


def test_probability_of_one_and_a_half_is_rejected():
    rep = classify(binary0k(Fraction(1, 20)))
    assert checks.regime_report(rep) == []
    assert checks.regime_report(dataclasses.replace(rep, empty_prob=1.5))


def test_flux_law_with_excess_mass_or_negative_term_is_rejected():
    fd = flux_distribution(binary0k(0.05), order=20)
    assert checks.flux_distribution(fd) == []
    assert checks.flux_distribution(dataclasses.replace(fd, probs=(1.5,) + fd.probs[1:]))
    assert checks.flux_distribution(dataclasses.replace(fd, probs=fd.probs[:-1] + (-1e-3,)))


def test_sweep_off_its_closed_form_is_rejected():
    target = checks.alpha_c_closed_form(3)
    assert checks.sweep("binary0k", 3, target + 1e-8) == []
    assert checks.sweep("binary0k", 3, target + 1e-5)
    assert checks.sweep("poisson", None, 0.1716)


def test_one_changed_table_cell_is_rejected():
    law = make_finite_law([Fraction(7, 10), Fraction(1, 10), Fraction(1, 10), Fraction(1, 10)])
    table = tutte_series(law, 6, 3)
    assert checks.table_cells(table, table, 6, 3) == []
    assert checks.table_shape(table, law) == []
    rows = [list(r) for r in table.rows]
    rows[4][2] += Fraction(1, 10**9)
    bad = dataclasses.replace(table, rows=tuple(tuple(r) for r in rows))
    assert checks.table_cells(bad, table, 6, 3) == ["cell (4, 2) differs from the oracle"]
    rows[1][0] += 1
    assert checks.table_shape(dataclasses.replace(table, rows=tuple(tuple(r) for r in rows)), law)


def test_thread_dependent_result_is_rejected():
    law = binary0k(0.05)
    one = estimate_root_law(law, 8, 64, seed=7, threads=1)
    two = estimate_root_law(law, 8, 64, seed=7, threads=2)
    assert checks.same_across_threads("root load", one.root_load_counts, two.root_load_counts) == []
    counts = list(two.root_load_counts)
    counts[0], counts[1] = counts[0] - 1, counts[1] + 1
    assert checks.same_across_threads("root load", one.root_load_counts, tuple(counts))


def test_pooled_histogram_far_from_the_flux_law_is_rejected():
    probs = flux_distribution(binary0k(0.05), order=10).probs
    samples = 10000
    counts = [round(probs[0] * samples), 0] + [round(p * samples) for p in probs[1:6]]
    assert checks.pooled_flux(counts, samples, probs) == []
    counts[2] += 300
    assert checks.pooled_flux(counts, samples, probs)


def test_cli_output_must_be_json_after_exit_zero():
    assert checks.cli_output(0, '{"schema": 1}') == []
    assert checks.cli_output(0, "regime: critical\n")
    assert checks.cli_output(3, '{"schema": 1}')
    # the package has no __main__ hook: this exits 0 and prints nothing
    rc, out, _, _, _ = workloads.run_child(
        [sys.executable, "-m", "parkcrit.cli", "analyze", "--family", "poisson", "--alpha", "0.1"],
        ROOT,
    )
    assert checks.cli_output(rc, out)


def test_every_prefix_of_a_draw_stream_covers_the_range_evenly():
    draws = workloads.Draws(random.Random(5))
    tenths = [0] * 10
    for i in range(1, 1001):
        tenths[int(draws("x") * 10)] += 1
        assert max(tenths) - min(tenths) <= 3, i


def test_same_seed_gives_same_inputs():
    import parkcrit

    def first_args(seed):
        ops = workloads.CliCold(parkcrit, seed, 2, ROOT).ops()
        return [next(ops).meta["args"] for _ in range(12)]

    assert first_args(4) == first_args(4)
    assert first_args(4) != first_args(5)


def test_host_clock_scales_by_the_nearest_reference_samples():
    clock = hostspeed.HostClock()
    clock.times = [float(t) for t in range(20)]
    clock.seconds = [hostspeed.NOMINAL_S] * 10 + [2 * hostspeed.NOMINAL_S] * 10
    assert clock.scale(2.0) == 1.0
    assert clock.scale(17.0) == 0.5
    assert clock.scale(100.0) == 0.5
    assert hostspeed.WallClock().scale(3.0) == 1.0


def test_benchmark_json_names_the_metrics_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "0.3", "--trace", trace)
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True
    assert doc["attempted"] >= 1
    names = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == names


def test_same_seed_attempts_and_fails_the_same_ops():
    def counts():
        done = bench("--workload", "analytic-mix", "--seed", "7", "--seconds", "0.5", "--trace", "0")
        doc = json.loads(done.stdout.strip().splitlines()[-1])
        return doc["attempted"], doc["failed"]

    first = counts()
    assert first[0] == 50
    assert counts() == first


def test_fails_without_the_program():
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = bench("--workload", "analytic-mix", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
