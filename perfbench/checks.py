"""Output checkers.  Each returns a list of problems; empty means the output passed.

They take plain values (reports, tables, arrays, process output), so the
self-tests can plant a bad output in each without running parkcrit.
"""
from __future__ import annotations

import json
import math

FLUX_MASS_SLACK = 1e-12
SWEEP_TOL = 1e-6
MC_Z_LIMIT = 4.0
MC_CHECKED_FLUX_VALUES = 4
# a bin expecting fewer events than this is judged with the spread of this many:
# the normal approximation behind "standard errors" fails for rare bins
MC_MIN_EXPECTED = 25


def alpha_c_closed_form(k):
    """Critical mean of binary0k(., k), as in the acceptance suite."""
    s = math.sqrt((k + 7) / (k - 1))
    inner = (k - 1) * (k + 4) + k * math.sqrt((k + 7) * (k - 1))
    return k / (1 + 2 ** (-k - 2) * (3 + s) ** k * inner)


def sweep_target(family, k):
    if family == "binary0k":
        return alpha_c_closed_form(k)
    return {"poisson": 3 - 2 * math.sqrt(2), "geometric": 1 / 8}[family]


def probabilities(named):
    """Problems for every value in named (name -> value or None) outside [0, 1]."""
    return [
        f"{name} is not a probability"
        for name, value in named.items()
        if value is not None and not 0.0 <= value <= 1.0
    ]


def regime_report(rep):
    return probabilities(
        {"empty_prob": rep.empty_prob, "occupied_no_flux_prob": rep.occupied_no_flux_prob}
    )


def flux_distribution(fd):
    problems = probabilities(
        {"empty_prob": fd.empty_prob, "occupied_no_flux_prob": fd.occupied_no_flux_prob}
    )
    if any(not 0.0 <= p <= 1.0 for p in fd.probs):
        problems.append("a flux term is not a probability")
    if not math.fsum(fd.probs) <= 1.0 + FLUX_MASS_SLACK:
        problems.append("flux mass exceeds 1")
    return problems


def mean_identities(moments):
    return probabilities({"empty_prob": moments["empty_prob"]})


def critical_quantities(cq):
    return probabilities(
        {
            "empty_prob": cq.empty_prob,
            "occupied_no_flux_prob": cq.occupied_no_flux_prob,
            "offspring.p0": cq.offspring.p0,
            "offspring.p1": cq.offspring.p1,
            "offspring.p2": cq.offspring.p2,
        }
    )


def sweep(family, k, alpha_c):
    if not abs(alpha_c - sweep_target(family, k)) <= SWEEP_TOL:
        return [f"{family} alpha_c off its closed form by more than {SWEEP_TOL}"]
    return []


def table_cells(table, reference, n_max, p_max):
    """Problems for cells (n, p), n <= n_max and p <= p_max, where the tables differ."""
    return [
        f"cell ({n}, {p}) differs from the oracle"
        for n in range(1, n_max + 1)
        for p in range(p_max + 1)
        if table.rows[n][p] != reference.rows[n][p]
    ]


def table_shape(table, law):
    """Cells are nonnegative and row 1 is the law shifted by one.

    A single vertex is fully parked with flux p exactly when p + 1 cars arrive.
    """
    problems = []
    if any(c < 0 for row in table.rows for c in row):
        problems.append("negative table cell")
    if list(table.rows[1]) != [law.coefficient(p + 1) for p in range(table.flux_order + 1)]:
        problems.append("row 1 is not the law shifted by one")
    return problems


def table_max_bits(table):
    return max(
        max(c.numerator.bit_length(), c.denominator.bit_length())
        for row in table.rows
        for c in row
    )


def same_across_threads(name, a, b):
    """a and b must be bit-identical: the sample stream ignores the thread count."""
    return [] if a == b else [f"{name} depends on the thread count"]


def pooled_flux(load_counts, samples, analytic_probs):
    """Pooled root-load histogram against the analytic flux law.

    P(flux = 0) = P(load <= 1) and P(flux = k) = P(load = k + 1); each of
    the first few is compared in units of its binomial standard error,
    floored at that of a bin expecting MC_MIN_EXPECTED events.
    """
    counts = list(load_counts) + [0] * (MC_CHECKED_FLUX_VALUES + 2)
    observed = [(counts[0] + counts[1]) / samples]
    observed += [counts[k + 1] / samples for k in range(1, MC_CHECKED_FLUX_VALUES)]
    problems = []
    for k, (hat, p) in enumerate(zip(observed, analytic_probs)):
        se = math.sqrt(max(p * (1.0 - p), MC_MIN_EXPECTED / samples) / samples)
        z = abs(hat - p) / se
        if not z <= MC_Z_LIMIT:
            problems.append(f"P(flux = {k}) is {z:.1f} standard errors off")
    return problems


def cli_output(returncode, stdout):
    """The CLI must exit 0 and print one JSON object."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        doc = json.loads(stdout)
    except ValueError:
        return ["stdout is not JSON"]
    if not isinstance(doc, dict):
        return ["stdout JSON is not an object"]
    return []
