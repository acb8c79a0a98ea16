"""Run one parkcrit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload analytic-mix --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout: it imports parkcrit from the
checkout's ``src`` and nothing else.  One client drives the workload's ops
in a closed loop; every op's output is checked.  The number of ops is fixed
by the workload and ``--seconds`` (about ``--seconds`` of work on a 2-core
x86-64 host), so one seed always gives the same ops, the same attempted
count and the same failures.  End-to-end times are scaled by host speed
(hostspeed.py).  The report goes to standard output, and its last line is
one JSON object with the keys correct, attempted, failed and metrics.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
public callables in spans and reports the per-layer metrics instead (see
README.md).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter

from hostspeed import HostClock, WallClock

ROOT = Path(__file__).resolve().parent.parent
CPUS = sorted(os.sched_getaffinity(0))  # before the run pins itself to the first
SRC = ROOT / "src"
SETUP_PROBES = 4  # before the loop, and as many after it
TAIL_BEYOND = 10  # the tail latency is the highest percentile with this many samples beyond it
REPLAY_SHARE = 0.25  # share of the loop's time spent rerunning ops to measure the tracing overhead
WALL_CAP = 4.0  # the loop stops short of its op count only after this many times --seconds

WORKLOADS = ("analytic-mix", "exact-tables", "mc-root-law", "cli-cold")
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
LAYERS = ("laws", "series", "analytic", "enumeration", "simulate", "cli")
SUBCOMMANDS = ("analyze", "sweep", "enumerate", "flux", "simulate", "verify")
SPAN_COUNTS = ("laws.derivatives", "analytic.classify")
SPAN_SELF_TIMES = (
    "laws.derivatives", "laws.exact_coefficients",
    "analytic.classify", "analytic.find_critical_time", "analytic.solve_empty_prob",
    "analytic.find_alpha_c", "analytic.flux_distribution",
    "series.sqrt_series", "series.reciprocal",
    "enumeration.tutte_series", "enumeration.brute_force_table", "enumeration.flux_via_table",
)
# counts, self times, failures and refusals are per attempted op of the timed loop
PER_LAYER = {
    "ops_failed_frac": "fraction",
    **{f"{name}.calls": "count/op" for name in SPAN_COUNTS},
    **{f"{name}.self_s": "s/op" for name in SPAN_SELF_TIMES},
    "analytic.classify.cache_misses": "count/op",
    "analytic.find_critical_time.cache_misses": "count/op",
    "analytic.find_alpha_c.critical_time_solves": "count/sweep",
    "enumeration.tutte_series.cells": "count/op",
    "enumeration.table_max_bits": "bits",
    "mnodes_per_s": "Mnode/s",
    **{f"simulate.draw.mnodes_per_s.{law}": "Mnode/s"
       for law in ("binary0k", "poisson", "geometric", "finite")},
    "simulate.draw_share": "fraction",
    "simulate.sample_root_load.mnodes_per_s.threads1": "Mnode/s",
    "simulate.sample_root_load.mnodes_per_s.threadsN": "Mnode/s",
    "simulate.thread_efficiency": "fraction",
    "simulate.root_cluster_stats.mnodes_per_s": "Mnode/s",
    "cli.import.parkcrit_ms": "ms",
    "cli.import.numpy_ms": "ms",
    **{f"cli.{sub}.p50_ms": "ms" for sub in SUBCOMMANDS},
    **{f"cli.main.{sub}_ms": "ms" for sub in SUBCOMMANDS},
    **{f"refused.{layer}": "count/op" for layer in LAYERS},
    "trace.overhead_frac": "fraction",
    "trace.accounted_frac": "fraction",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up only, print 'ready' and exit (used to time set-up)")
    return p.parse_args(argv)


def import_parkcrit():
    """parkcrit from this checkout's src, or None when the checkout has none."""
    if not (SRC / "parkcrit" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import parkcrit
    import parkcrit.cli

    if Path(parkcrit.__file__).resolve().parent != SRC / "parkcrit":
        return None
    return parkcrit


def workload_class(name):
    import workloads as W

    return dict(zip(WORKLOADS, (W.AnalyticMix, W.ExactTables, W.McRootLaw, W.CliCold)))[name]


def make_workload(pk, name, seed):
    import workloads as W

    return workload_class(name)(pk, seed, W.nproc(), ROOT)


def time_setup(args, clock):
    """(scaled, measured) seconds from starting a fresh interpreter to its first op being ready."""
    import workloads as W

    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"]
    clock.surround()
    t0 = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=W.child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    killer = threading.Timer(120.0, proc.kill)
    killer.start()
    try:
        line = proc.stdout.readline()
        seconds = perf_counter() - t0
        _, err = proc.communicate()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {err.decode()[-500:]}")
    # sampled once the probe has exited, so that it does not compete with the samples
    clock.surround()
    return seconds * clock.scale(t0 + 0.5 * seconds), seconds


def refusing_layer(exc):
    """The innermost parkcrit module in the exception's traceback."""
    layer = "cli"
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        path = Path(frame.f_code.co_filename)
        if path.parent.name == "parkcrit" and path.stem in LAYERS:
            layer = path.stem
    return layer


def op_count(wl, seconds):
    """The ops a run attempts: the workload's nominal rate times `seconds`, at least 1."""
    return max(1, round(wl.OPS_PER_S * seconds))


def timed_loop(pk, wl, n_ops, seconds, tracer, clock):
    """Closed loop: `n_ops` ops, one at a time, with host-speed samples between them.

    Past WALL_CAP times `seconds` of wall time no further op starts, so a
    much slower program still finishes its run.
    """
    from workloads import Record

    errors = pk.errors
    ops = wl.ops()
    run_op, check, next_op = (lambda op, outs: op.run(outs)), wl.check_output, next
    if tracer:
        run_op = tracer.wrap("bench.op", run_op)
        check = tracer.wrap("bench.check", check)
        next_op = tracer.wrap("bench.inputs", next)
    records = []
    clock.surround()
    start = perf_counter()
    deadline = start + WALL_CAP * seconds
    while len(records) < n_ops and perf_counter() < deadline:
        op = next_op(ops)
        outputs, status, reason = [], "ok", ""
        t0 = perf_counter()
        try:
            run_op(op, outputs)
        except errors.OracleMismatch as exc:
            status, reason = "failed", exc.code
        except errors.ParkingModelError as exc:
            status, reason = "refused", f"{refusing_layer(exc)}:{exc.code}"
        except Exception as exc:  # any other exception is a failed op, counted by type
            status, reason = "failed", type(exc).__name__
        latency = perf_counter() - t0
        problems = [p for name, value in outputs for p in check(op, name, value)]
        if problems:
            status, reason = "failed", problems[0]
        records.append(Record(op, status, latency, outputs if wl.KEEP_OUTPUTS else [], reason, t0))
        clock.tick()
    loop_s = perf_counter() - start
    clock.surround()
    return records, loop_s


def replay_overhead(pk, wl, records, budget_s):
    """Tracing overhead: the loop's first ops rerun, each untraced and then traced.

    Pairing each op with itself keeps the machine's drift out of the ratio.
    """
    from tracing import Tracer, patch_parkcrit

    plain = traced = 0.0
    for r in records:
        if plain + traced >= budget_s:
            break
        for tracer in (None, Tracer()):
            wl.clear_caches()
            if tracer:
                patch_parkcrit(tracer, pk)
            t0 = perf_counter()
            try:
                r.op.run([])
            except Exception:  # the timed loop already classified this op
                pass
            seconds = perf_counter() - t0
            if tracer:
                tracer.unpatch_all()
                traced += seconds
            else:
                plain += seconds
    return traced / plain - 1.0


def end_to_end(latencies, setup_s, peak_rss_mb):
    """The end-to-end metrics from op latencies and set-up times, both scaled or both measured."""
    lat = sorted(latencies)
    n = len(lat)
    tail_index = max(n - TAIL_BEYOND - 1, 0)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": n / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": lat[tail_index] * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    tail_note = (f"p{100.0 * (tail_index + 1) / n:.2f} of {n} samples, "
                 f"{n - tail_index - 1} beyond it")
    return metrics, tail_note


def per_layer(records, tracer, loop_s, cache_misses, replay):
    n = len(records)
    metrics = dict.fromkeys(PER_LAYER, 0)
    metrics["ops_failed_frac"] = sum(r.status == "failed" for r in records) / n
    for name in SPAN_COUNTS:
        metrics[f"{name}.calls"] = tracer.calls.get(name, 0) / n
    for name in SPAN_SELF_TIMES:
        metrics[f"{name}.self_s"] = tracer.self_s.get(name, 0.0) / n
    for r in records:
        if r.status == "refused":
            metrics[f"refused.{r.reason.split(':')[0]}"] += 1 / n
    metrics["analytic.classify.cache_misses"] = cache_misses[0] / n
    metrics["analytic.find_critical_time.cache_misses"] = cache_misses[1] / n
    metrics["trace.accounted_frac"] = tracer.total_self_s() / loop_s
    metrics["trace.overhead_frac"] = replay
    return metrics


def git_commit():
    """HEAD of the checkout when it is a git work tree, read from .git directly."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(args, wl, n_ops, records, loop_s, setup_s, verdicts, tracer, metrics, units, tail_note,
           notes):
    """The human-readable report, then the result as one JSON line."""
    import numpy

    counts = {s: sum(r.status == s for r in records) for s in ("ok", "refused", "failed")}
    reasons = {}
    for r in records:
        if r.status != "ok":
            key = f"{r.status} {r.op.kind}: {r.reason}"
            reasons[key] = reasons.get(key, 0) + 1
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    pinned = f"; ops pinned to cpu {CPUS[0]}" if wl.HOST_SCALED else ""
    print(f"env: nproc={len(CPUS)} python={platform.python_version()} numpy={numpy.__version__} "
          f"commit={git_commit()} PARKCRIT_THREADS={os.environ.get('PARKCRIT_THREADS', 'unset')} "
          f"(threads passed explicitly: {wl.threads}{pinned})")
    for line in notes:
        print(line)
    print(f"ops: attempted={len(records)} ok={counts['ok']} refused={counts['refused']} "
          f"failed={counts['failed']} (failed share {counts['failed'] / len(records):.4f}) "
          f"in {loop_s:.3f} s")
    if len(records) < n_ops:
        print(f"stopped at the wall-time cap ({WALL_CAP:g} x --seconds): "
              f"{len(records)} of {n_ops} ops ran")
    if setup_s:
        print("set-up samples: " + " ".join(f"{s:.3f} s" for s in setup_s))
    for key, n in sorted(reasons.items()):
        print(f"  {n:6d} x {key}")
    for kind in sorted({r.op.kind for r in records}):
        lat = [r.latency for r in records if r.op.kind == kind]
        print(f"  op {kind}: {len(lat)} ops, p50 {statistics.median(lat) * 1e3:.3f} ms")
    for name, passed, detail in verdicts:
        print(f"check {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    if tracer:
        for name in sorted(tracer.self_s):
            print(f"  span {name}: {tracer.calls[name]} calls, self {tracer.self_s[name]:.4f} s")
    for name, value in metrics.items():
        print(f"metric {name} = {value} {units[name]}"
              + (f" ({tail_note})" if name == "op_tail_ms" else ""))
    print(json.dumps({
        "correct": all(passed for _, passed, _ in verdicts),
        "attempted": len(records),
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


def main(argv=None):
    args = parse_args(argv)
    pk = import_parkcrit()
    if pk is None:
        sys.stderr.write(f"no parkcrit package under {SRC}\n")
        return 2
    if args.setup_probe:
        next(make_workload(pk, args.workload, args.seed).ops())
        print("ready", flush=True)
        return 0

    from tracing import Tracer, patch_parkcrit

    # Set-up probes, and the ops of a host-scaled workload, run on one CPU
    # with the host-speed reference, and their times are scaled by it.
    # Per-layer metrics stay as measured.
    host_scaled = workload_class(args.workload).HOST_SCALED
    clock = WallClock() if args.trace else HostClock()
    loop_clock = clock if host_scaled else WallClock()
    os.sched_setaffinity(0, {CPUS[0]})
    setup = [] if args.trace else [time_setup(args, clock) for _ in range(SETUP_PROBES)]
    if not host_scaled:
        os.sched_setaffinity(0, CPUS)
    wl = make_workload(pk, args.workload, args.seed)
    misses0 = (wl.classify_cache.cache_info().misses, wl.critical_time_cache.cache_info().misses)
    tracer = None
    if args.trace:
        tracer = Tracer()
        patch_parkcrit(tracer, pk)
    n_ops = op_count(wl, args.seconds)
    try:
        records, loop_s = timed_loop(pk, wl, n_ops, args.seconds, tracer, loop_clock)
    finally:
        if tracer:
            tracer.unpatch_all()
    misses = (wl.classify_cache.cache_info().misses - misses0[0],
              wl.critical_time_cache.cache_info().misses - misses0[1])
    if not args.trace:
        os.sched_setaffinity(0, {CPUS[0]})
        setup += [time_setup(args, clock) for _ in range(SETUP_PROBES)]

    verdicts = wl.run_checks(records)
    tail_note, notes = "", []
    if args.trace:
        extra, extra_verdicts = wl.traced_metrics(records, tracer, loop_s)
        verdicts += extra_verdicts
        replay = replay_overhead(pk, wl, records, REPLAY_SHARE * loop_s)
        metrics = per_layer(records, tracer, loop_s, misses, replay)
        metrics.update(extra)
        verdicts.append(("trace-accounts-for-loop", metrics["trace.accounted_frac"] >= 0.95,
                         f"span self times sum to {metrics['trace.accounted_frac']:.4f} "
                         f"of the {loop_s:.2f} s loop"))
        units = PER_LAYER
    else:
        lat, rss = [r.latency for r in records], wl.peak_rss_mb()
        scaled = [t * loop_clock.scale(r.started + 0.5 * t) for r, t in zip(records, lat)]
        metrics, tail_note = end_to_end(scaled, [s for s, _ in setup], rss)
        units = END_TO_END
        measured, _ = end_to_end(lat, [s for _, s in setup], rss)
        notes += [
            f"{clock.describe()} (hostspeed.py): set-up times below are scaled"
            + (", and so are op times" if loop_clock.seconds else "; op times are as measured"),
            "as measured, before scaling: " + ", ".join(
                f"{name} = {measured[name]:.6g}"
                for name in ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms")),
        ]
    report(args, wl, n_ops, records, loop_s, [s for s, _ in setup], verdicts, tracer, metrics, units,
           tail_note, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
