"""The four workloads: seeded inputs, the op each input drives, and the checks.

Every workload is one client in a closed loop: it sends its next op only
after the previous one returned.  Inputs come only from the seed, through
``Draws``, whose low-discrepancy streams give every run of a workload nearly
the same mix of op costs, so runs on different seeds can be compared.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

import checks


@dataclass
class Op:
    """One call into the public API.

    run(outputs) appends (name, value) pairs as it gets them, so an
    invalid output is still checked when a later call raises.
    """

    kind: str
    run: Callable[[list], None]
    meta: dict = field(default_factory=dict)


@dataclass
class Record:
    """One attempted op: status is ok, refused or failed."""

    op: Op
    status: str
    latency: float
    outputs: list
    reason: str = ""
    started: float = 0.0  # perf_counter() when the op began


class Draws:
    """Uniform draws in [0, 1), one low-discrepancy stream per name.

    Stream j is the Kronecker sequence u0 + i * frac(sqrt(p_j)) mod 1 with a
    seeded offset u0 and p_j the j-th prime: every prefix of it covers
    [0, 1) evenly, so the share of draws in any range, and with it the mix
    of op costs and outcomes, differs between seeds by a draw or two.
    """

    STEPS = tuple(math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53))

    def __init__(self, rng):
        self.rng = rng
        self.streams = {}

    def __call__(self, stream):
        if stream not in self.streams:
            self.streams[stream] = [self.rng.random(), self.STEPS[len(self.streams)]]
        state = self.streams[stream]
        u = state[0]
        state[0] = (u + state[1]) % 1.0
        return u

    def log_uniform(self, stream, lo, hi):
        return lo * (hi / lo) ** self(stream)

    def integer(self, stream, lo, hi):
        """Integer in lo..hi inclusive."""
        return lo + int(self(stream) * (hi - lo + 1))

    def choice(self, stream, values):
        return values[int(self(stream) * len(values))]


def decimal(x, places=6):
    """x rounded to an exact decimal Fraction, never 0."""
    scale = 10**places
    return Fraction(max(1, round(x * scale)), scale)


def nproc():
    return len(os.sched_getaffinity(0))


class Workload:
    """Base: subclasses yield ops from ``ops()`` and say how to check them."""

    name = ""
    KEEP_OUTPUTS = True  # whether records keep op outputs for the checks after the loop
    # ops a run attempts per --seconds: about the untraced rate on a 2-core
    # x86-64 host (Python 3.11), so a run measures about --seconds there
    OPS_PER_S = 1.0
    # whether the ops run on one CPU and their times are scaled by the host
    # speed measured on it (hostspeed.py); set-up times always are
    HOST_SCALED = True

    def __init__(self, pk, seed, threads, root):
        self.pk = pk
        self.root = root
        self.seed = seed
        self.threads = threads
        self.rng = random.Random(f"{self.name}:{seed}")
        self.draws = Draws(self.rng)
        self.seen = set()
        # lru_cache objects, kept before tracing replaces the module attributes
        self.classify_cache = pk.analytic.classify
        self.critical_time_cache = pk.analytic.find_critical_time

    def fresh(self, make):
        """make() -> (law, ...) until the law is one no earlier op of this run used."""
        while True:
            made = make()
            if made[0] not in self.seen:
                self.seen.add(made[0])
                return made

    def check_output(self, op, name, value):
        return CHECKERS[name](value)

    def run_checks(self, records):
        """Verdicts (name, passed, detail) on the run as a whole."""
        return []

    def traced_metrics(self, records, tracer, loop_s):
        """Per-layer metrics beyond span totals, and their verdicts."""
        return {}, []

    def clear_caches(self):
        self.classify_cache.cache_clear()
        self.critical_time_cache.cache_clear()

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


CHECKERS = {
    "classify": checks.regime_report,
    "flux_distribution": checks.flux_distribution,
    "mean_identities": checks.mean_identities,
    "critical_quantities": checks.critical_quantities,
    "sweep": lambda out: checks.sweep(*out),
    "flux_via_table": lambda cmp: checks.probabilities(
        {f"table P(flux = {p})": v for p, v in enumerate(cmp.probs)}
    ),
}


# --- analytic-mix ----------------------------------------------------------------

class AnalyticMix(Workload):
    """Regime questions about laws new to the run; every 20th op is a sweep."""

    name = "analytic-mix"
    KEEP_OUTPUTS = False
    OPS_PER_S = 100.0
    # binary0k is mostly supercritical and costs a steady ~5 ms, so with four
    # in ten the median op falls inside that plateau rather than at an edge
    FAMILY_CYCLE = (
        "binary0k", "poisson", "binary0k", "geometric", "finite",
        "binary0k", "poisson", "binary0k", "geometric", "nongeneric_example",
    )
    SWEEP_EVERY = 20
    SWEEP_FAMILIES = ("binary0k", "poisson", "geometric")

    def make_law(self, family):
        L, d = self.pk.laws, self.draws
        if family == "binary0k":
            k = d.integer("binary0k.k", 2, 30)
            alpha = min(decimal(d.log_uniform("binary0k.alpha", 1e-3, k)), k - Fraction(1, 10**6))
            return L.binary0k(alpha, k)
        if family in ("poisson", "geometric"):
            return L.FAMILIES[family](d.log_uniform(f"{family}.alpha", 1e-3, 1e3))
        if family == "nongeneric_example":
            return L.nongeneric_example(d.log_uniform("nongeneric.mix", 1e-3, 1.0))
        atoms = d.integer("finite.atoms", 4, 6)
        off_zero = d.log_uniform("finite.off_zero", 1e-3, 0.5)
        weights = [0.05 + self.rng.random() for _ in range(atoms - 1)]
        masses = [decimal(off_zero * w / sum(weights)) for w in weights]
        return L.make_finite_law([1 - sum(masses)] + masses)

    def ops(self):
        laws_made = sweeps_made = 0
        for i in range(1 << 40):
            if i % self.SWEEP_EVERY == self.SWEEP_EVERY - 1:
                yield self.sweep_op(self.SWEEP_FAMILIES[sweeps_made % 3])
                sweeps_made += 1
            else:
                family = self.FAMILY_CYCLE[laws_made % len(self.FAMILY_CYCLE)]
                law, = self.fresh(lambda: (self.make_law(family),))
                yield self.law_op(law, self.draws.integer("flux.order", 40, 200))
                laws_made += 1

    def law_op(self, law, order):
        A, cache = self.pk.analytic, self.classify_cache
        meta = {"family": law.kind}

        def run(outputs):
            misses = cache.cache_info().misses
            rep = A.classify(law)
            meta["fresh"] = cache.cache_info().misses > misses
            outputs.append(("classify", rep))
            if rep.regime == "supercritical":
                return
            outputs.append(("flux_distribution", A.flux_distribution(law, order)))
            outputs.append(("mean_identities", A.mean_identities(law)))
            if rep.regime == "critical":
                outputs.append(("critical_quantities", A.critical_quantities(law)))

        return Op("classify", run, meta)

    def sweep_op(self, family):
        A, cache, d = self.pk.analytic, self.critical_time_cache, self.draws
        k = d.integer("sweep.k", 2, 8) if family == "binary0k" else None
        target = checks.sweep_target(family, k)
        lo = target * d.log_uniform("sweep.lo", 0.02, 0.5)
        hi = target * d.log_uniform("sweep.hi", 2.0, 50.0)
        if family == "binary0k":
            hi = min(hi, k * 0.999)
        meta = {"family": family}

        def run(outputs):
            misses = cache.cache_info().misses
            alpha_c = A.find_alpha_c(family, k=k, lo=lo, hi=hi)
            meta["critical_time_solves"] = cache.cache_info().misses - misses
            outputs.append(("sweep", (family, k, alpha_c)))

        return Op("sweep", run, meta)

    def run_checks(self, records):
        law_ops = [r.op for r in records if r.op.kind == "classify"]
        stale = sum(1 for op in law_ops if not op.meta.get("fresh", True))
        return [("fresh-laws", stale == 0,
                 f"{len(law_ops) - stale}/{len(law_ops)} first classify calls missed the cache")]

    def traced_metrics(self, records, tracer, loop_s):
        solves = [r.op.meta["critical_time_solves"] for r in records
                  if r.op.kind == "sweep" and "critical_time_solves" in r.op.meta]
        return {
            "analytic.find_alpha_c.critical_time_solves":
                statistics.mean(solves) if solves else 0.0,
        }, []


# --- exact-tables ----------------------------------------------------------------

class ExactTables(Workload):
    """Exact weight tables: tutte_series on three kinds of support, plus the oracle.

    Vertex orders differ by support (finite 40..55, geometric 80, binary0k
    120), so op costs fall into separate flat bands: the median op is a
    binary0k table and the tail a geometric one, whatever the seed.
    """

    name = "exact-tables"
    OPS_PER_S = 3.0
    # in every ten ops, from cheapest to dearest: two finite tables, four
    # binary0k tables, one oracle and three geometric tables.  Sorted by
    # latency, the middle op is then a binary0k table with the edges of its
    # band six ops or more away, and the tail op (the 50th of 60) is a
    # geometric one.  The oracle alternates between its two laws.
    CYCLE = (
        "tutte.geometric", "tutte.binary0k", "tutte.finite", "tutte.binary0k", "tutte.geometric",
        "oracle.binary0k", "tutte.binary0k", "tutte.finite", "tutte.geometric", "tutte.binary0k",
        "tutte.geometric", "tutte.binary0k", "tutte.finite", "tutte.binary0k", "tutte.geometric",
        "oracle.finite", "tutte.binary0k", "tutte.finite", "tutte.geometric", "tutte.binary0k",
    )
    FLUX_ORDER = 5
    GEOMETRIC_N, BINARY0K_N = 80, 120
    ORACLE_N, ORACLE_P = 6, 3
    DIGEST_SEED = 0
    DIGEST_OPS = 48

    def __init__(self, pk, seed, threads, root):
        super().__init__(pk, seed, threads, root)
        self.counters = dict.fromkeys(self.CYCLE, 0)

    def make(self, kind):
        L, d = self.pk.laws, self.draws
        j = self.counters[kind]
        self.counters[kind] += 1
        if kind == "tutte.geometric":
            # dense support; 1/(20 + j) keeps every law new at nearly the cost of 1/20
            return L.geometric(Fraction(1, 20 + j)), self.GEOMETRIC_N
        if kind == "tutte.binary0k":
            return L.binary0k(Fraction(1, 20 + j), d.choice("binary0k.k", (3, 4, 5))), self.BINARY0K_N
        if kind == "oracle.binary0k":
            return L.binary0k(Fraction(1, 15 + j), 2), self.ORACLE_N
        atoms = 4 if kind == "oracle.finite" else d.choice("finite.atoms", (4, 5, 6))
        scale = 400 if kind == "oracle.finite" else 100
        masses = [Fraction(1 + self.rng.randrange(4), scale) for _ in range(atoms - 1)]
        law = L.make_finite_law([1 - sum(masses)] + masses)
        if kind == "oracle.finite":
            return law, self.ORACLE_N
        return law, d.choice("finite.N", (40, 45, 50, 55))

    def ops(self):
        for i in range(1 << 40):
            kind = self.CYCLE[i % len(self.CYCLE)]
            law, n = self.fresh(lambda: self.make(kind))
            yield self.oracle_op(law) if kind.startswith("oracle") else self.tutte_op(kind, law, n)

    def tutte_op(self, kind, law, n):
        E = self.pk.enumeration
        meta = {"law": law, "n": n}

        def run(outputs):
            outputs.append(("table", E.tutte_series(law, n, self.FLUX_ORDER)))

        return Op(kind, run, meta)

    def oracle_op(self, law):
        E, cache = self.pk.enumeration, self.classify_cache
        meta = {"law": law}

        def run(outputs):
            table = E.check_against_oracle(law, self.ORACLE_N, self.ORACLE_P)
            outputs.append(("table", table))
            misses = cache.cache_info().misses
            cmp = E.flux_via_table(law, table)
            meta["fresh"] = cache.cache_info().misses > misses
            outputs.append(("flux_via_table", cmp))

        return Op("oracle", run, meta)

    def check_output(self, op, name, value):
        if name != "table":
            return super().check_output(op, name, value)
        return checks.table_shape(value, op.meta["law"])

    def run_checks(self, records):
        oracle = [r.op for r in records if r.op.kind == "oracle" and "fresh" in r.op.meta]
        stale = sum(1 for op in oracle if not op.meta["fresh"])
        return [("fresh-laws", stale == 0,
                 f"{len(oracle) - stale}/{len(oracle)} flux_via_table calls missed the classify cache")]

    def traced_metrics(self, records, tracer, loop_s):
        E = self.pk.enumeration
        tables = [(i, r.op, r.outputs[0][1]) for i, r in enumerate(records)
                  if r.outputs and r.outputs[0][0] == "table"]
        cells = sum(
            t.vertex_order * (t.flux_order + 1) + t.vertex_order * (t.vertex_order - 1) // 2
            for _, _, t in tables
        )
        metrics = {
            "enumeration.tutte_series.cells": cells / len(records),
            "enumeration.table_max_bits": max((checks.table_max_bits(t) for _, _, t in tables), default=0),
        }
        mismatched = 0
        for _, op, table in tables:
            if op.kind != "oracle":
                oracle = E.brute_force_table(op.meta["law"], self.ORACLE_N, self.ORACLE_P)
                mismatched += bool(checks.table_cells(table, oracle, self.ORACLE_N, self.ORACLE_P))
        verdicts = [("oracle-agreement", mismatched == 0,
                     f"{len(tables) - mismatched}/{len(tables)} tables agree with brute_force_table "
                     f"on n <= {self.ORACLE_N}, p <= {self.ORACLE_P}")]
        if self.seed == self.DIGEST_SEED:
            verdicts.append(self.digest_verdict(tables))
        return metrics, verdicts

    def digest_verdict(self, tables):
        recorded = json.loads((Path(__file__).parent / DIGESTS_FILE).read_text())
        got = table_digests([(i, t) for i, _, t in tables if i < self.DIGEST_OPS], self.root)
        wrong = [i for i, h in got.items() if recorded.get(i) != h]
        return ("table-digests", not wrong,
                f"{len(got) - len(wrong)}/{len(got)} CSV digests match {DIGESTS_FILE}")


DIGESTS_FILE = "table_digests.json"


def table_digests(indexed_tables, root):
    """{str(op index): SHA-256 of the CSV that FptTable.write_csv writes}."""
    out = {}
    with tempfile.TemporaryDirectory(dir=root, prefix=".perfbench-") as tmp:
        path = Path(tmp) / "table.csv"
        for i, table in indexed_tables:
            table.write_csv(path)
            out[str(i)] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


# --- mc-root-law ------------------------------------------------------------------

class McRootLaw(Workload):
    """estimate_root_law on four laws in rotation, and a few root_cluster_stats."""

    name = "mc-root-law"
    OPS_PER_S = 5.5
    HOST_SCALED = False  # its ops use every core, which the one-thread reference does not track
    DEPTH, SAMPLES = 16, 128
    CLUSTER_DEPTH, CLUSTER_SAMPLES = 16, 64
    FLUX_ORDER = 10
    DRAW_SAMPLES, DRAW_ROUNDS = 16, 4
    # geometric a third time in ten puts the median op inside its plateau
    CYCLE = ("binary0k", "poisson", "geometric", "finite",
             "binary0k", "poisson", "geometric", "finite", "geometric", "cluster")

    def __init__(self, pk, seed, threads, root):
        super().__init__(pk, seed, threads, root)
        L = pk.laws
        self.laws = {
            "binary0k": L.binary0k(0.05),
            "poisson": L.poisson(0.1),
            "geometric": L.geometric(0.1),
            "finite": L.make_finite_law(
                [Fraction(49, 50), Fraction(1, 100), Fraction(1, 200), Fraction(1, 200)]),
        }

    def ops(self):
        names = list(self.laws)
        for i in range(1 << 40):
            stream_seed = self.rng.getrandbits(62)
            name = self.CYCLE[i % len(self.CYCLE)]
            if name == "cluster":
                yield self.cluster_op(names[(i // len(self.CYCLE)) % 4], stream_seed)
            else:
                yield self.estimate_op(name, stream_seed)

    def estimate_op(self, name, stream_seed):
        S, law = self.pk.simulate, self.laws[name]
        meta = {
            "law": name, "seed": stream_seed,
            "nodes": self.SAMPLES * ((2 << self.DEPTH) - 1),
        }

        def run(outputs):
            st = S.estimate_root_law(law, self.DEPTH, self.SAMPLES, stream_seed, self.threads)
            outputs.append(("estimate", st))

        return Op("estimate_root_law", run, meta)

    def cluster_op(self, name, stream_seed):
        S, law = self.pk.simulate, self.laws[name]
        meta = {
            "law": name, "seed": stream_seed,
            "nodes": self.CLUSTER_SAMPLES * ((2 << self.CLUSTER_DEPTH) - 1),
        }

        def run(outputs):
            st = S.root_cluster_stats(
                law, self.CLUSTER_DEPTH, self.CLUSTER_SAMPLES, stream_seed, self.threads
            )
            outputs.append(("cluster", st))

        return Op("root_cluster_stats", run, meta)

    def check_output(self, op, name, st):
        if name == "estimate":
            problems = [] if sum(st.root_load_counts) == st.samples else ["histogram mass"]
            return problems + checks.probabilities(
                {f"P(flux = {k})": p for k, p in enumerate(st.flux_probs)}
            )
        return [] if sum(st.size_counts) == st.samples else ["cluster histogram mass"]

    def run_checks(self, records):
        verdicts = []
        for name, law in self.laws.items():
            pooled, samples = Counter(), 0
            for r in records:
                if r.op.kind == "estimate_root_law" and r.op.meta["law"] == name and r.outputs:
                    st = r.outputs[0][1]
                    pooled.update(dict(enumerate(st.root_load_counts)))
                    samples += st.samples
            if not samples:
                continue
            ref = self.pk.analytic.flux_distribution(law, self.FLUX_ORDER).probs
            counts = [pooled[load] for load in range(max(pooled) + 1)]
            problems = checks.pooled_flux(counts, samples, ref)
            verdicts.append((f"pooled-flux.{name}", not problems,
                             f"{samples} samples; " + ("; ".join(problems) or
                                                      f"within {checks.MC_Z_LIMIT:g} standard errors")))
        return verdicts

    def traced_metrics(self, records, tracer, loop_s):
        """Reruns every op at threads=1 and times the draws alone."""
        S = self.pk.simulate
        est = [r for r in records if r.op.kind == "estimate_root_law" and r.outputs]
        clus = [r for r in records if r.op.kind == "root_cluster_stats" and r.outputs]
        differing, t1_s, t1_nodes = 0, {}, {}
        for r in est + clus:
            law, seed = self.laws[r.op.meta["law"]], r.op.meta["seed"]
            if r.op.kind == "estimate_root_law":
                one = S.estimate_root_law(law, self.DEPTH, self.SAMPLES, seed, 1)
                got = r.outputs[0][1]
                differing += bool(checks.same_across_threads(
                    "root load", (got.root_load_counts, got.mean_load, got.flux_probs),
                    (one.root_load_counts, one.mean_load, one.flux_probs)))
                name = r.op.meta["law"]
                t1_s[name] = t1_s.get(name, 0.0) + one.elapsed_seconds
                t1_nodes[name] = t1_nodes.get(name, 0) + r.op.meta["nodes"]
            else:
                one = S.root_cluster_stats(law, self.CLUSTER_DEPTH, self.CLUSTER_SAMPLES, seed, 1)
                got = r.outputs[0][1]
                differing += bool(checks.same_across_threads(
                    "cluster sizes", (got.size_counts, got.censored), (one.size_counts, one.censored)))
        verdicts = [("threads-1-identical", differing == 0,
                     f"{len(est) + len(clus) - differing}/{len(est) + len(clus)} ops bit-identical "
                     f"at threads=1 and threads={self.threads}")]

        nodes_est = sum(r.op.meta["nodes"] for r in est)
        nodes_clus = sum(r.op.meta["nodes"] for r in clus)
        metrics = {
            "mnodes_per_s": nodes_est / sum(r.latency for r in est) / 1e6 if est else 0.0,
            "simulate.root_cluster_stats.mnodes_per_s":
                nodes_clus / tracer.total_s["simulate.root_cluster_stats"] / 1e6 if clus else 0.0,
        }
        span_s = tracer.total_s["simulate.sample_root_load"]
        n_rate = nodes_est / span_s / 1e6 if span_s else 0.0
        one_rate = sum(t1_nodes.values()) / sum(t1_s.values()) / 1e6 if t1_s else 0.0
        metrics["simulate.sample_root_load.mnodes_per_s.threadsN"] = n_rate
        metrics["simulate.sample_root_load.mnodes_per_s.threads1"] = one_rate
        metrics["simulate.thread_efficiency"] = n_rate / (one_rate * self.threads) if one_rate else 0.0

        per_sample = (2 << self.DEPTH) - 1
        draw_s = full_s = 0.0
        for name, law in self.laws.items():
            drawing, full = self.time_draws(law)
            metrics[f"simulate.draw.mnodes_per_s.{name}"] = (
                self.DRAW_ROUNDS * self.DRAW_SAMPLES * per_sample / drawing / 1e6)
            # weighted by how often the loop ran this law
            runs = sum(1 for r in est if r.op.meta["law"] == name)
            draw_s, full_s = draw_s + runs * drawing, full_s + runs * full
        metrics["simulate.draw_share"] = draw_s / full_s if full_s else 0.0
        return metrics, verdicts

    def time_draws(self, law):
        """(seconds drawing every level, seconds in sample_root_load) for the same samples.

        The two alternate round by round at threads=1, so drift hits both alike.
        """
        S = self.pk.simulate
        draw = S.make_sampler(law)
        drawing = full = 0.0
        for _ in range(self.DRAW_ROUNDS):
            t0 = time.perf_counter()
            for i in range(self.DRAW_SAMPLES):
                rng = np.random.Generator(np.random.Philox(key=(self.seed << 64) + i))
                for lvl in range(self.DEPTH + 1):
                    draw(rng, 1 << lvl)
            t1 = time.perf_counter()
            S.sample_root_load(law, self.DEPTH, self.DRAW_SAMPLES, self.seed, 1)
            drawing += t1 - t0
            full += time.perf_counter() - t1
        return drawing, full


# --- cli-cold ---------------------------------------------------------------------

SUBCOMMANDS = ("analyze", "sweep", "enumerate", "flux", "simulate", "verify")
CLI_CODE = "from parkcrit.cli import run; run()"


def child_env():
    """The environment for child interpreters: this checkout's src, no inherited threads."""
    env = {k: v for k, v in os.environ.items() if k != "PARKCRIT_THREADS"}
    env["PYTHONPATH"] = "src"
    return env


def run_child(argv, cwd, timeout=120.0):
    """(returncode, stdout, stderr, peak RSS in MB, seconds) of one child process."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    err = []
    drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    drain.start()
    killer = threading.Timer(timeout, os.kill, (proc.pid, 9))
    killer.start()
    try:
        out = proc.stdout.read()
        drain.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    seconds = time.perf_counter() - t0
    return proc.returncode, out.decode(), err[0].decode(), usage.ru_maxrss / 1024.0, seconds


class CliCold(Workload):
    """One fresh interpreter per op, cycling over the six subcommands (simulate twice).

    Laws here are kept subcritical with moderate means: this workload
    measures process start, imports, argparse and JSON output; the
    analytic range and its defects are analytic-mix's.
    """

    name = "cli-cold"
    KEEP_OUTPUTS = False
    OPS_PER_S = 4.0
    # simulate, the dearest subcommand, twice in every seven ops: the tail op
    # (the 70th of 80) then falls inside its band rather than at its edge
    CYCLE = ("analyze", "simulate", "sweep", "enumerate", "flux", "simulate", "verify")

    def __init__(self, pk, seed, threads, root):
        super().__init__(pk, seed, threads, root)
        self.child_rss_mb = 0.0

    def law_flags(self, family, lo, hi):
        alpha = decimal(self.draws.log_uniform(f"{family}.alpha", lo, hi))
        flags = ["--family", family, "--alpha", str(alpha)]
        return flags + ["--k", "2"] if family == "binary0k" else flags

    def argv(self, sub, i):
        d = self.draws
        family = ("binary0k", "poisson", "geometric")[(i // len(self.CYCLE)) % 3]
        if sub == "analyze":
            return self.law_flags(family, 1e-3, 1.0)
        if sub == "sweep":
            return ["--families", family, "--k", str(d.integer("sweep.k", 2, 5))]
        if sub == "enumerate":
            masses = [Fraction(1 + self.rng.randrange(4), 100) for _ in range(3)]
            probs = [1 - sum(masses)] + masses
            return (["--finite"] + [str(p) for p in probs]
                    + ["--vertex-order", str(d.integer("enumerate.N", 8, 14)), "--flux-order", "3"])
        if sub == "flux":
            return self.law_flags(family, 1e-3, 0.05) + ["--order", str(d.integer("flux.order", 40, 100))]
        if sub == "simulate":
            return (self.law_flags("binary0k", 0.01, 0.06)
                    + ["--depth", "12", "--samples", "200",
                       "--seed", str(self.rng.getrandbits(32)), "--threads", str(self.threads)])
        return self.law_flags("binary0k", 1e-3, 0.06)

    def ops(self):
        for i in range(1 << 40):
            sub = self.CYCLE[i % len(self.CYCLE)]
            yield self.cli_op(sub, [sub] + self.argv(sub, i))

    def cli_op(self, sub, args):
        meta = {"args": args}

        def run(outputs):
            rc, out, err, rss_mb, _ = run_child([sys.executable, "-c", CLI_CODE] + args, self.root)
            self.child_rss_mb = max(self.child_rss_mb, rss_mb)
            outputs.append(("cli", (rc, out)))

        return Op(f"cli.{sub}", run, meta)

    def check_output(self, op, name, value):
        return checks.cli_output(*value)

    def peak_rss_mb(self):
        """The largest CLI process, which is what a CLI user waits on."""
        return self.child_rss_mb

    def traced_metrics(self, records, tracer, loop_s):
        """Import times from -X importtime and in-process main(argv) per subcommand."""
        metrics = {}
        imports = [import_times(self.root) for _ in range(5)]
        for pkg in ("parkcrit", "numpy"):
            metrics[f"cli.import.{pkg}_ms"] = statistics.median(t[pkg] for t in imports)
        for sub in SUBCOMMANDS:
            lat = [r.latency for r in records if r.op.kind == f"cli.{sub}"]
            metrics[f"cli.{sub}.p50_ms"] = statistics.median(lat) * 1e3 if lat else 0.0
            times = []
            for r in records:
                if r.op.kind == f"cli.{sub}":
                    self.clear_caches()
                    sink = io.StringIO()
                    t0 = time.perf_counter()
                    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
                        self.pk.cli.main(r.op.meta["args"])
                    times.append(time.perf_counter() - t0)
            metrics[f"cli.main.{sub}_ms"] = statistics.median(times) * 1e3 if times else 0.0
        return metrics, []


def import_times(root):
    """Cumulative import milliseconds of parkcrit and numpy in a fresh interpreter."""
    _, _, err, _, _ = run_child([sys.executable, "-X", "importtime", "-c", "import parkcrit"], root)
    out = {}
    for line in err.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] in ("parkcrit", "numpy"):
            out[parts[2]] = int(parts[1]) / 1e3
    return out
