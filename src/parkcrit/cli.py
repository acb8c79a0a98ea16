"""Command line interface.

Subcommands: analyze, sweep, enumerate, flux, simulate, verify.  Output
is JSON (default) or CSV, to stdout or --out.  Exit codes: 0 success,
2 bad input (law spec, file, parameters), 3 numerical failure or a
failed verification check.
"""
from __future__ import annotations

import argparse
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
    OracleMismatch,
    ParkingModelError,
    UnsampleableLaw,
)
from .laws import FAMILIES, make_finite_law
from .simulate import NODE_BUDGET, estimate_root_law, root_cluster_stats

SCHEMA_VERSION = 1
_INPUT_ERRORS = (LawError, NonExactLaw, UnsampleableLaw, BudgetExceeded)


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
    if "finite" in spec:
        probs = spec["finite"]
        if not isinstance(probs, list):
            raise LawError("'finite' must be a list of masses")
        return make_finite_law([_exact_number(p, "mass") for p in probs])
    if "family" in spec:
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
    raise LawError("law spec needs a 'finite' or a 'family' entry")


def _load_law(args):
    given = [
        args.law is not None,
        args.family is not None,
        bool(getattr(args, "finite", None)),
    ]
    if sum(given) != 1:
        raise LawError("specify the law exactly one way: --law, --family, or --finite")
    if args.law is not None:
        with open(args.law, "r", encoding="utf-8") as fh:
            return _law_from_spec(json.load(fh))
    if getattr(args, "finite", None):
        return make_finite_law([_exact_number(p, "mass") for p in args.finite])
    spec = {"family": {"name": args.family}}
    if args.family == "nongeneric_example":
        spec["family"]["mix"] = args.mix if args.mix is not None else 1
    else:
        if args.alpha is None:
            raise LawError(f"family {args.family} needs --alpha")
        spec["family"]["alpha"] = args.alpha
        if args.family == "binary0k":
            spec["family"]["k"] = args.k
    return _law_from_spec(spec)


def _add_law_flags(sub):
    sub.add_argument("--law", help="path to a JSON law spec")
    sub.add_argument("--family", choices=sorted(FAMILIES), help="family name")
    sub.add_argument("--alpha", help="family mean, exact string like 1/14 or 0.05")
    sub.add_argument("--k", type=int, default=2, help="support point for binary0k")
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
    rep = classify(law, args.tol)
    payload = {
        "law": _law_payload(law),
        "regime": rep.regime,
        "boundary_test": rep.test,
        "margin_vanishes": rep.margin_vanishes,
        "critical_time": rep.critical_time,
        "crit_density": rep.crit_density,
        "gf_at_crit": rep.gf_at_crit,
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "gap": rep.gap,
        "empty_prob": rep.empty_prob,
        "occupied_no_flux_prob": rep.occupied_no_flux_prob,
    }
    if rep.empty_prob is not None:
        payload["moments"] = mean_identities(law, args.tol)
        off = empty_vertex_offspring(rep.empty_prob, rep.occupied_no_flux_prob)
        payload["empty_vertex_offspring"] = {
            "p0": off.p0, "p1": off.p1, "p2": off.p2, "mean": off.mean,
        }
    if rep.regime == "critical":
        cq = critical_quantities(law, args.tol)
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
    rows = [["family", "k", "critical_mean", "tol"]]
    for r in results:
        rows.append([r["family"], r["k"], r["critical_mean"], r["tol"]])
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
    }
    _emit(args, payload, [])
    return 0


def _cmd_flux(args):
    law = _load_law(args)
    fd = flux_distribution(law, order=args.order, tol=args.tol)
    payload = {
        "law": _law_payload(law),
        "order": args.order,
        "empty_prob": fd.empty_prob,
        "occupied_no_flux_prob": fd.occupied_no_flux_prob,
        "mean_flux": fd.mean_flux,
        "mean_occupancy": fd.mean_occupancy,
        "tail_mass": fd.tail_mass,
        "probs": list(fd.probs),
    }
    rows = [["k", "probability"]]
    rows.extend([k, p] for k, p in enumerate(fd.probs))
    _emit(args, payload, rows)
    return 0


def _cmd_simulate(args):
    law = _load_law(args)
    if args.cluster:
        st = root_cluster_stats(
            law, args.depth, args.samples, args.seed, args.threads, args.budget
        )
        payload = {
            "law": _law_payload(law),
            "depth": st.depth,
            "samples": st.samples,
            "seed": st.seed,
            "censored": st.censored,
            "size_counts": list(st.size_counts),
            "elapsed_seconds": st.elapsed_seconds,
            "mnodes_per_s": st.mnodes_per_s,
        }
        rows = [["size", "count"]]
        rows.extend([n, c] for n, c in enumerate(st.size_counts) if c or n == 0)
        _emit(args, payload, rows)
        return 0
    st = estimate_root_law(
        law, args.depth, args.samples, args.seed, args.threads, args.budget
    )
    payload = {
        "law": _law_payload(law),
        "depth": st.depth,
        "samples": st.samples,
        "seed": st.seed,
        "threads": st.threads,
        "empty_prob_hat": st.empty_prob_hat,
        "empty_prob_ci": st.empty_prob_ci,
        "mean_load": st.mean_load,
        "root_load_counts": list(st.root_load_counts),
        "flux_probs": list(st.flux_probs),
        "elapsed_seconds": st.elapsed_seconds,
        "mnodes_per_s": st.mnodes_per_s,
    }
    rows = [["key", "value"]]
    rows.append(["empty_prob_hat", st.empty_prob_hat])
    rows.append(["empty_prob_ci", st.empty_prob_ci])
    rows.append(["mean_load", st.mean_load])
    rows.extend([f"flux_{k}", p] for k, p in enumerate(st.flux_probs))
    _emit(args, payload, rows)
    return 0


def _cmd_verify(args):
    if args.law or args.family or getattr(args, "finite", None):
        law = _load_law(args)
    else:
        law = FAMILIES["binary0k"](Fraction(1, 14), 2)
    checks = []

    def record(name, passed, detail):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    rep = classify(law, args.tol)
    record("classify", True, f"regime={rep.regime}")

    if rep.empty_prob is not None:
        q = flux_zero_gf(law, rep.empty_prob)
        resid = abs(law.mu0 * rep.empty_prob * q * q - 1.0)
        record("fixed-point-identity", resid <= 1e-8, f"residual={resid:.3e}")

        fd = flux_distribution(law, order=60, tol=args.tol)
        total = math.fsum(fd.probs)
        ok = total <= 1.0 + 1e-12
        detail = f"sum={total:.15g}"
        if rep.regime == "subcritical":
            ok = ok and total >= 1.0 - 1e-6
        record("flux-total-mass", ok, detail)
        record(
            "flux-nonnegative",
            all(p >= 0.0 for p in fd.probs),
            f"min={min(fd.probs):.3e}",
        )
        resids = occupancy_self_consistency(law, fd, 20)
        worst = max(abs(r) for r in resids)
        record("load-recursion", worst <= 1e-8, f"max residual={worst:.3e}")

    if law.is_exact and law.finite_support() is not None:
        try:
            check_against_oracle(law, 4, 2)
            record("enumeration-oracle", True, "orders (4, 2) agree exactly")
        except OracleMismatch as exc:
            record("enumeration-oracle", False, str(exc))

    if args.table:
        try:
            table = FptTable.read_csv(args.table)
            fresh = tutte_series(law, table.vertex_order, table.flux_order)
            bad = first_mismatch(table, fresh)
            detail = "all entries agree"
            if bad:
                detail = "entry (%s, %s) is %s, recomputed %s" % bad
            record("table-match", not bad, detail)
        except ParkingModelError as exc:
            record("table-match", False, f"{exc.code}: {exc}")

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
        sub.add_argument("--tol", type=float, default=1e-9,
                         help="criticality decision band")

    p = subs.add_parser("analyze", help="decide the regime and report quantities")
    common(p)
    p.set_defaults(handler=_cmd_analyze)

    p = subs.add_parser("sweep", help="critical mean per family, by bisection")
    p.add_argument(
        "--families", default="binary0k,poisson,geometric",
        help="comma-separated family names",
    )
    p.add_argument("--k", type=int, default=2, help="support point for binary0k")
    common(p, law=False)
    p.set_defaults(handler=_cmd_sweep)
    # sweep tolerance applies to the bisection bracket, not the decision band
    p.set_defaults(tol=1e-6)

    p = subs.add_parser("enumerate", help="exact fully parked tree weight table")
    common(p)
    p.add_argument("--vertex-order", type=int, required=True, metavar="N")
    p.add_argument("--flux-order", type=int, required=True, metavar="P")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against brute-force enumeration")
    p.set_defaults(handler=_cmd_enumerate)

    p = subs.add_parser("flux", help="flux distribution at the root")
    common(p)
    p.add_argument("--order", type=int, default=40, help="largest flux value")
    p.set_defaults(handler=_cmd_flux)

    p = subs.add_parser("simulate", help="Monte Carlo on a depth-truncated tree")
    common(p)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1, help="worker threads")
    p.add_argument("--budget", type=float, default=NODE_BUDGET,
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
