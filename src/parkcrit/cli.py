"""Command line interface.

Subcommands: analyze, sweep, enumerate, flux, simulate, verify.  Output
is JSON (default) or CSV, to stdout or --out.  Exit codes: 0 success,
2 bad input (law spec, file, parameters), 3 numerical failure or a
failed verification check.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from fractions import Fraction

from . import __version__
from .analytic import (
    classify,
    critical_quantities,
    empty_vertex_offspring,
    find_alpha_c,
    flux_distribution,
    flux_zero_gf,
    mean_identities,
    occupancy_self_consistency,
)
# brute_force_table and flux_via_table are unused here, but perfbench/tracing.py
# patches both names on parkcrit.cli: removing them breaks every traced run
from .enumeration import (
    FptTable,
    brute_force_table,
    check_against_oracle,
    first_mismatch,
    flux_via_table,
    tutte_series,
)
from .errors import (
    BudgetExceeded,
    LawError,
    NonExactLaw,
    OutOfDomain,
    ParkingModelError,
    UnsampleableLaw,
)
from .laws import FAMILIES, make_finite_law
from .simulate import NODE_BUDGET, estimate_root_law, root_cluster_stats

SCHEMA_VERSION = 1
_INPUT_ERRORS = (LawError, NonExactLaw, OutOfDomain, UnsampleableLaw, BudgetExceeded)


# --- law specification ----------------------------------------------------------

def _exact_number(value, what):
    """JSON numbers become the rational they print as, so 0.05 means 1/20."""
    if isinstance(value, bool):
        raise LawError(f"{what} must be a number, got a bool")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise LawError(f"cannot parse {what} {value!r}") from exc
    raise LawError(f"{what} must be a number or a rational string")


def _law_from_spec(spec):
    if not isinstance(spec, dict):
        raise LawError("law spec must be a JSON object")
    if len(spec) != 1 or not spec.keys() <= {"finite", "family"}:
        raise LawError(
            f"law spec needs exactly one entry, 'finite' or 'family'; got keys {sorted(spec)}"
        )
    if "finite" in spec:
        probs = spec["finite"]
        if not isinstance(probs, list):
            raise LawError("'finite' must be a list of masses")
        return make_finite_law([_exact_number(p, "mass") for p in probs])
    if not isinstance(spec["family"], dict):
        raise LawError("'family' must be a JSON object")
    fam = dict(spec["family"])
    name = fam.pop("name", None)
    if name not in FAMILIES:
        raise LawError(f"unknown family {name!r}; choose from {sorted(FAMILIES)}")
    if name == "nongeneric_example":
        params = [_exact_number(fam.pop("mix", 1), "mix")]
    elif "alpha" in fam:
        params = [_exact_number(fam.pop("alpha"), "alpha")]
    else:
        raise LawError(f"family {name} needs 'alpha'")
    if name == "binary0k":
        k = _exact_number(fam.pop("k", 2), "k")
        if k.denominator != 1:
            raise LawError(f"binary0k's k must be an integer, got {k}")
        params.append(int(k))
    if fam:
        raise LawError(f"unexpected family keys {sorted(fam)}")
    return FAMILIES[name](*params)


def _load_law(args, default=None):
    """The law of --law, --finite or the family flags, through one spec path.

    The family flags form the {"family": {...}} object a law file holds,
    with only the flags given, so they are refused the same way.
    """
    flags = {"name": args.family, "alpha": args.alpha, "k": args.k, "mix": args.mix}
    family = {key: value for key, value in flags.items() if value is not None}
    given = [args.law is not None, bool(family), bool(args.finite)]
    if not any(given) and default is not None:
        return default
    if sum(given) != 1:
        raise LawError("specify the law exactly one way: --law, --family, or --finite")
    if args.law is not None:
        with open(args.law, "r", encoding="utf-8") as fh:
            return _law_from_spec(json.load(fh))
    return _law_from_spec({"finite": args.finite} if args.finite else {"family": family})


def _add_law_flags(sub):
    sub.add_argument("--law", help="path to a JSON law spec")
    sub.add_argument("--family", choices=sorted(FAMILIES), help="family name")
    sub.add_argument("--alpha", help="family mean, exact string like 1/14 or 0.05")
    sub.add_argument("--k", help="support point for binary0k, an integer (default 2)")
    sub.add_argument("--mix", help="mixing weight for nongeneric_example")
    sub.add_argument(
        "--finite", nargs="+", metavar="MASS",
        help="finite law masses at 0,1,2,... as exact rationals",
    )


# --- output ---------------------------------------------------------------------

def _plain(value):
    """Digest a value for output: 15 significant digits for floats."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            return repr(value)
        return json.loads(format(value, ".15g"))
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return str(value)


def _csv_cell(value):
    v = _plain(value)
    if isinstance(v, (list, dict)):
        raise ValueError("nested value in CSV output")
    return "" if v is None else str(v)


def _emit(args, payload, csv_rows):
    if args.format == "json":
        body = {"schema": SCHEMA_VERSION, "command": args.command}
        body.update(_plain(payload))
        text = json.dumps(body, indent=2) + "\n"
    else:
        text = "\n".join(",".join(_csv_cell(c) for c in row) for row in csv_rows) + "\n"
    _write(args, text)


def _write(args, text):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _record(rec, **rename):
    """A result record's fields in declaration order, law_desc left out."""
    return {
        rename.get(f.name, f.name): getattr(rec, f.name)
        for f in dataclasses.fields(rec)
        if f.name != "law_desc"
    }


def _law_payload(law):
    return {
        "kind": law.kind,
        "params": law.params(),
        "mean": float(law.mean()),
        "mass_at_zero": law.mu0,
        "radius": float(law.radius),
    }


# --- subcommand handlers --------------------------------------------------------

def _cmd_analyze(args):
    law = _load_law(args)
    rep = classify(law)
    payload = {"law": _law_payload(law), **_record(rep, test="boundary_test")}
    if rep.empty_prob is not None:
        payload["moments"] = mean_identities(law)
        off = empty_vertex_offspring(rep.empty_prob, rep.occupied_no_flux_prob)
        payload["empty_vertex_offspring"] = _record(off)
    if rep.regime == "critical":
        cq = critical_quantities(law)
        payload["critical_closed_form"] = {
            "empty_prob": cq.empty_prob,
            "occupied_no_flux_prob": cq.occupied_no_flux_prob,
        }
    rows = [["key", "value"]]
    flat = _plain(payload)

    def walk(prefix, obj):
        if isinstance(obj, dict):
            for k, v in obj.items():
                walk(f"{prefix}.{k}" if prefix else k, v)
        elif isinstance(obj, list):
            for i, v in enumerate(obj):
                walk(f"{prefix}[{i}]", v)
        else:
            rows.append([prefix, "" if obj is None else obj])

    walk("", flat)
    _emit(args, payload, rows)
    return 0


def _cmd_sweep(args):
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    if not families:
        raise LawError("--families names no family")
    results = []
    for fam in families:
        if fam not in FAMILIES:
            raise LawError(f"unknown family {fam!r}")
        kwargs = {"tol": args.tol}
        if fam == "binary0k":
            kwargs["k"] = args.k
        alpha_c = find_alpha_c(fam, **kwargs)
        results.append(
            {
                "family": fam,
                "k": args.k if fam == "binary0k" else None,
                "critical_mean": alpha_c,
                "tol": args.tol,
            }
        )
    rows = [list(results[0])]
    rows.extend(list(r.values()) for r in results)
    _emit(args, {"results": results}, rows)
    return 0


def _cmd_enumerate(args):
    law = _load_law(args)
    if args.oracle:
        table = check_against_oracle(law, args.vertex_order, args.flux_order)
    else:
        table = tutte_series(law, args.vertex_order, args.flux_order)
    if args.format == "csv":
        _write(args, table.csv_text())
        return 0
    entries = []
    for n in range(1, table.vertex_order + 1):
        for p in range(table.flux_order + 1):
            entries.append({"n": n, "p": p, "weight": table.rows[n][p]})
    payload = {
        "law": _law_payload(law),
        "vertex_order": table.vertex_order,
        "flux_order": table.flux_order,
        "source": table.source,
        "oracle_checked": bool(args.oracle),
        "entries": entries,
        "max_row_bits": list(table.row_bits),
    }
    _emit(args, payload, [])
    return 0


def _cmd_flux(args):
    law = _load_law(args)
    fd = flux_distribution(law, order=args.order)
    payload = {"law": _law_payload(law), "order": args.order, **_record(fd)}
    rows = [["k", "probability"]]
    rows.extend([k, p] for k, p in enumerate(fd.probs))
    _emit(args, payload, rows)
    return 0


def _cmd_simulate(args):
    law = _load_law(args)
    measure = root_cluster_stats if args.cluster else estimate_root_law
    st = measure(law, args.depth, args.samples, args.seed, args.threads, args.budget)
    if args.cluster:
        rows = [["size", "count"]]
        rows.extend([n, c] for n, c in enumerate(st.size_counts) if c or n == 0)
    else:
        rows = [["key", "value"]]
        rows.append(["empty_prob_hat", st.empty_prob_hat])
        rows.append(["empty_prob_ci", st.empty_prob_ci])
        rows.append(["mean_load", st.mean_load])
        rows.extend([f"flux_{k}", p] for k, p in enumerate(st.flux_probs))
    payload = {"law": _law_payload(law), **_record(st), "mnodes_per_s": st.mnodes_per_s}
    _emit(args, payload, rows)
    return 0


def _cmd_verify(args):
    law = _load_law(args, default=FAMILIES["binary0k"](Fraction(1, 14), 2))
    report = functools.partial(classify, law)
    flux_law = functools.cache(functools.partial(flux_distribution, law, order=60))
    checks = []

    def check(name, run):
        """Record run()'s (passed, detail); a coded error fails this check alone."""
        try:
            passed, detail = run()
        except ParkingModelError as exc:
            passed, detail = False, f"{exc.code}: {exc}"
        checks.append({"name": name, "passed": bool(passed), "detail": detail})
        return passed

    def fixed_point():
        p = report().empty_prob
        q = flux_zero_gf(law, p)
        resid = abs(law.mu0 * p * q * q - 1.0)
        return resid <= 1e-8, f"residual={resid:.3e}"

    def flux_mass():
        total = math.fsum(flux_law().probs)
        low = 1.0 - 1e-6 if report().regime == "subcritical" else -math.inf
        return low <= total <= 1.0 + 1e-12, f"sum={total:.15g}"

    def flux_nonnegative():
        probs = flux_law().probs
        return all(p >= 0.0 for p in probs), f"min={min(probs):.3e}"

    def load_recursion():
        worst = max(map(abs, occupancy_self_consistency(law, flux_law(), 20)))
        return worst <= 1e-8, f"max residual={worst:.3e}"

    def oracle():
        check_against_oracle(law, 4, 2)
        return True, "orders (4, 2) agree exactly"

    def table_match():
        table = FptTable.read_csv(args.table)
        bad = first_mismatch(table, tutte_series(law, table.vertex_order, table.flux_order))
        return not bad, "entry (%s, %s) is %s, recomputed %s" % bad if bad else "all entries agree"

    classified = check("classify", lambda: (True, f"regime={report().regime}"))
    if classified and report().empty_prob is not None:
        check("fixed-point-identity", fixed_point)
        check("flux-total-mass", flux_mass)
        check("flux-nonnegative", flux_nonnegative)
        check("load-recursion", load_recursion)
    if law.is_exact and law.finite_support() is not None:
        check("enumeration-oracle", oracle)
    if args.table:
        check("table-match", table_match)

    failed = [c for c in checks if not c["passed"]]
    payload = {
        "law": _law_payload(law),
        "checks": checks,
        "passed": not failed,
    }
    rows = [["check", "passed", "detail"]]
    rows.extend([c["name"], c["passed"], c["detail"]] for c in checks)
    _emit(args, payload, rows)
    if failed:
        sys.stderr.write(
            "verification failed: " + ", ".join(c["name"] for c in failed) + "\n"
        )
        return 3
    return 0


# --- wiring ---------------------------------------------------------------------

def _checked(convert, ok, bound):
    """argparse type: convert, then refuse a value outside its range with exit 2."""

    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse says "invalid int value" by this name
    return parse


def _at_least(lo):
    return _checked(int, lambda v: v >= lo, f"at least {lo}")


_POSITIVE_FLOAT = _checked(float, lambda v: v > 0.0, "positive")
_SEED = _checked(int, lambda v: 0 <= v < 2**64, "in [0, 2^64)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="parkcrit",
        description="Phase-transition analysis of the parking process on the "
        "infinite binary tree",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    def common(sub, law=True):
        if law:
            _add_law_flags(sub)
        sub.add_argument("--format", choices=["json", "csv"], default="json")
        sub.add_argument("--out", help="write output to this path instead of stdout")

    p = subs.add_parser("analyze", help="decide the regime and report quantities")
    common(p)
    p.set_defaults(handler=_cmd_analyze)

    p = subs.add_parser(
        "sweep",
        help="critical mean per family: Newton's method on the critical system, "
        "checked by two regime evaluations per family",
    )
    p.add_argument(
        "--families", default="binary0k,poisson,geometric",
        help="comma-separated family names",
    )
    p.add_argument("--k", type=int, default=2, help="support point for binary0k")
    common(p, law=False)
    p.add_argument("--tol", type=_POSITIVE_FLOAT, default=1e-6,
                   help="the critical mean a lies within a*tol/2 of where the regime changes")
    p.set_defaults(handler=_cmd_sweep)

    p = subs.add_parser("enumerate", help="exact fully parked tree weight table")
    common(p)
    p.add_argument("--vertex-order", type=_at_least(1), required=True, metavar="N")
    p.add_argument("--flux-order", type=_at_least(0), required=True, metavar="P")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against brute-force enumeration")
    p.set_defaults(handler=_cmd_enumerate)

    p = subs.add_parser("flux", help="flux distribution at the root")
    common(p)
    p.add_argument("--order", type=_at_least(2), default=40, help="largest flux value")
    p.set_defaults(handler=_cmd_flux)

    p = subs.add_parser("simulate", help="Monte Carlo on a depth-truncated tree")
    common(p)
    p.add_argument("--depth", type=_at_least(0), required=True)
    p.add_argument("--samples", type=_at_least(1), required=True)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--threads", type=_at_least(1), default=1, help="worker threads")
    p.add_argument("--budget", type=_POSITIVE_FLOAT, default=NODE_BUDGET,
                   help="cap on samples * 2^depth")
    p.add_argument("--cluster", action="store_true",
                   help="measure root cluster sizes instead of the root load")
    p.set_defaults(handler=_cmd_simulate)

    p = subs.add_parser("verify", help="internal consistency checks")
    common(p)
    p.add_argument("--table", help="check a stored weight table against recomputation")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except _INPUT_ERRORS as exc:
        code = getattr(exc, "code", type(exc).__name__)
        sys.stderr.write(f"input error ({code}): {exc}\n")
        return 2
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except ParkingModelError as exc:
        sys.stderr.write(f"numerical failure ({exc.code}): {exc}\n")
        return 3


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
