#!/usr/bin/env python3
"""The Dolos benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload persist-heavy|read-mostly|crash-sweep
                             --seed N --seconds S --trace 0|1

Builds perfbench_driver (perfbench/driver.cc) against the simulator
sources of this checkout, runs it for about --seconds, checks every
operation, and prints the metrics. With --trace 0 the final JSON line
carries the end-to-end metrics; with --trace 1 it carries the
per-layer metrics. Either way the lines before it print the simulated
metrics, the per-mode speedups next to the paper's, the workload's
regime properties and a repro line for every failed operation.
perfbench/README.md defines every metric.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("persist-heavy", "read-mostly", "crash-sweep")
MODES = ("baseline", "dolos-full", "dolos-partial", "dolos-post")
DOLOS_MODES = MODES[1:]
# Figure 12 average speedups over the Pre-WPQ-Secure baseline
# (EXPERIMENTS.md).
PAPER_SPEEDUP = {"dolos-full": 1.66, "dolos-partial": 1.66,
                 "dolos-post": 1.59}
PROFILER_COMPS = ("eventKernel", "core", "cacheModel", "controller",
                  "securityEngine", "aes", "mac", "sha", "ctrPad", "nvm",
                  "verify")
CRYPTO_COMPS = {"aes": "aes", "mac": "mac", "ctrPad": "ctr_pad",
                "sha": "sha"}


def build(targets=("perfbench_driver",)):
    """Configure (once) and build into $CARGO_TARGET_DIR (default
    .bench_build/ in the checkout); returns the build directory."""
    bdir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                        ".bench_build")
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j4", "--target", *targets])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            sys.exit(f"build failed: {' '.join(cmd)}")
    return bdir


def quantile(values, q):
    """The q-quantile (0 < q < 1), interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def ratio(num, den):
    return num / den if den else 0.0


def flatten_stats(dump):
    """Stat tree of System::dumpStatsJson -> {dotted.path: number}."""
    out = {}

    def walk(group, prefix):
        path = prefix + group["name"]
        for name, s in group.get("scalars", {}).items():
            out[f"{path}.{name}"] = s["value"]
        for name, a in group.get("averages", {}).items():
            out[f"{path}.{name}.total"] = a["total"]
            out[f"{path}.{name}.samples"] = a["samples"]
        for child in group.get("children", []):
            walk(child, path + ".")

    for group in dump["groups"]:
        walk(group, "")
    return out


class Sims:
    """Sums over a set of pass-0 simulations: runWorkload's counters and
    stat-tree deltas over the transactions (end of setup to the last
    commit, before the verifier)."""

    def __init__(self, recs):
        self.recs = recs
        self.tx = sum(r["tx"] for r in recs)

    def run(self, field):
        return sum(r[field] for r in self.recs)

    def stat(self, path):
        total = 0
        for r in self.recs:
            post = r["post"].get(path)
            if post is None:
                raise KeyError(path)
            total += post - r["pre"].get(path, 0)
        return total

    def avg(self, path):
        return ratio(self.stat(path + ".total"), self.stat(path + ".samples"))

    def per_tx(self, path):
        return ratio(self.stat(path), self.tx)

    def miss_ratio(self, path):
        misses = self.stat(path + ".misses")
        return ratio(misses, misses + self.stat(path + ".hits"))


# Simulated per-layer metrics: (name, unit, f(Sims)). The stage-cycle
# metrics are occupancy: they overlap each other and the core's run, so
# they are never summed; cpu.cycles_per_tx is printed beside them.
SIM_LAYER = (
    ("cpu.cycles_per_tx", "cycles/tx", lambda s: ratio(s.run("runCycles"), s.tx)),
    ("cpu.cpi", "cycles/inst",
     lambda s: ratio(s.run("runCycles"), s.run("instructions"))),
    ("cpu.fence_stall_share", "ratio",
     lambda s: ratio(s.run("fenceStallCycles"), s.run("runCycles"))),
    ("dolos.wpq.retries_per_kwr", "1/kwr",
     lambda s: 1000 * ratio(s.run("retryEvents"), s.run("writeRequests"))),
    ("dolos.wpq.coalesce_ratio", "ratio",
     lambda s: ratio(s.run("coalesces"), s.run("writeRequests"))),
    ("dolos.wpq.occupancy_avg", "entries", lambda s: s.avg("mc.occupancy")),
    ("dolos.wpq.drain_latency_avg", "cycles", lambda s: s.avg("mc.drainLatency")),
    ("dolos.wpq.persist_latency_avg", "cycles",
     lambda s: s.avg("mc.persistLatency")),
    ("dolos.wpq.stall_cycles", "cycles/tx", lambda s: s.per_tx("mc.wpqStallCycles")),
    ("dolos.misu.mac_cycles", "cycles/tx", lambda s: s.per_tx("mc.misu.macCycles")),
    ("mem.llc.miss_ratio", "ratio", lambda s: s.miss_ratio("hierarchy.llc")),
    ("mem.nvm.reads_per_tx", "reads/tx", lambda s: s.per_tx("nvm.reads")),
    ("mem.nvm.read_queueing_avg", "cycles", lambda s: s.avg("nvm.readQueueing")),
    ("mem.nvm.writes_per_tx", "writes/tx", lambda s: s.per_tx("nvm.writes")),
    ("mem.nvm.write_queueing_avg", "cycles", lambda s: s.avg("nvm.writeQueueing")),
    ("mem.nvm.bank_conflicts_per_kwr", "1/kwr",
     lambda s: 1000 * ratio(s.stat("nvm.bankConflicts"), s.run("writeRequests"))),
    ("secure.mac_cycles", "cycles/tx", lambda s: s.per_tx("secEngine.macCycles")),
    ("secure.aes_cycles", "cycles/tx", lambda s: s.per_tx("secEngine.aesCycles")),
    ("secure.bmt_cycles", "cycles/tx", lambda s: s.per_tx("secEngine.bmtCycles")),
    ("secure.ctr_fetch_cycles", "cycles/tx",
     lambda s: s.per_tx("secEngine.ctrFetchCycles")),
    ("secure.write_latency_avg", "cycles", lambda s: s.avg("secEngine.writeLatency")),
    ("secure.read_latency_avg", "cycles", lambda s: s.avg("secEngine.readLatency")),
    ("secure.counter_cache.miss_ratio", "ratio",
     lambda s: s.miss_ratio("secEngine.counterCache")),
)


def sim_layer_metrics(sims):
    """Per-layer simulated metrics over the Dolos modes (plain names)
    and over the baseline (".baseline" names). A stat the tree does not
    have is reported as absent, never as a number."""
    groups = (("", [r for r in sims if r["mode"] in DOLOS_MODES]),
              (".baseline", [r for r in sims if r["mode"] == "baseline"]))
    metrics, absent = {}, []
    for suffix, recs in groups:
        agg = Sims(recs)
        for name, unit, fn in SIM_LAYER:
            if suffix and name.startswith("dolos.misu."):
                continue  # the baseline has no Mi-SU
            try:
                metrics[name + suffix] = (fn(agg), unit)
            except KeyError as missing:
                absent.append(f"{name + suffix} (stat {missing} not found)")
    return metrics, absent


def median_ms(values_ns):
    return statistics.median(values_ns) / 1e6 if values_ns else 0.0


class Run:
    def __init__(self, args, records):
        self.args = args
        self.recs = records
        self.failures = []
        self.attempted = 0

    def fail(self, rec, why):
        point = f" crash-point={rec['op']}" if "op" in rec else ""
        self.failures.append(
            f"REPRO: python3 perfbench/run.py --workload {self.args.workload}"
            f" --seed {self.args.seed} --seconds 1 --trace 0 # app={rec['app']}"
            f" mode={rec['mode']}{point} pass={rec['pass']}: {why}")

    def check(self):
        """Count attempted and failed operations. A failed enumeration
        or boot counts as one more attempted operation."""
        first = {}
        for r in self.recs:
            if r["rec"] == "end":
                continue
            is_op = r["rec"] in ("sim", "point")
            self.attempted += is_op
            why = self.problem(r, first)
            if why:
                self.attempted += not is_op
                self.fail(r, why)

    @staticmethod
    def problem(r, first):
        """Why a record failed, or None. Every pass must reproduce the
        simulated outcome pass 0 recorded in @first."""
        kind = r["rec"]
        if "error" in r:
            return f"{kind} threw: {r['error']}"
        if kind == "sim":
            if not r["verified"]:
                return f"verify failed: {r['diag']}"
            if r["attack"]:
                return "attack alarm in a fault-free run"
            outcome = tuple(r[k] for k in (
                "tx", "runCycles", "instructions", "retryEvents",
                "writeRequests", "fenceStallCycles", "coalesces"))
        elif kind == "point":
            if not r["passed"]:
                return r.get("diag", "point failed")
            outcome = (r["step"], r["attempts"])
        elif kind == "enumerate":
            outcome = (r["candidates"],)
        else:
            return None
        key = (kind, r["app"], r["mode"], r.get("op"))
        if first.setdefault(key, outcome) != outcome:
            return (f"pass {r['pass']} differs from pass 0: {outcome} vs "
                    f"{first[key]}")
        return None

    def of(self, kind, **match):
        return [r for r in self.recs if r["rec"] == kind and "error" not in r
                and all(r.get(k) == v for k, v in match.items())]


def simulated(run):
    """Simulated results of pass 0 (identical in every pass)."""
    sims = run.of("sim", **{"pass": 0})
    for r in sims:
        r["pre"] = flatten_stats(r["stats_pre"])
        r["post"] = flatten_stats(r["stats_post"])
    cpt = {(r["app"], r["mode"]): r["runCycles"] / r["tx"] for r in sims}
    apps = sorted({app for app, _ in cpt})
    per_mode = {m: geomean([cpt[(a, m)] for a in apps]) for m in MODES}
    speedup = {m: geomean([cpt[(a, "baseline")] / cpt[(a, m)] for a in apps])
               for m in DOLOS_MODES}
    error = statistics.fmean(abs(speedup[m] - PAPER_SPEEDUP[m]) /
                             PAPER_SPEEDUP[m] for m in DOLOS_MODES)
    return sims, cpt, per_mode, speedup, error


def ms_per_ktx(rec):
    return rec["run_ns"] / 1e6 / (rec["tx"] / 1000)


def ms_per_point(rec):
    return rec["ns"] / 1e6


def by_op(recs, sample):
    """Host-time samples of each operation over the run's passes. An
    operation is a simulation (app, mode) or a crash point (app, mode,
    point); every pass repeats the same deterministic work."""
    groups = {}
    for r in recs:
        groups.setdefault((r["app"], r["mode"], r.get("op")), []).append(
            sample(r))
    return groups


def typical(groups, q):
    """Geometric mean over operations of each one's q-quantile.

    Operations differ in host cost by up to 100x (apps, crash depth),
    so a quantile of the pooled samples can fall in the gap between two
    clusters and jump across it from run to run; a quantile over one
    operation's repeats measures only how its host time varies."""
    return geomean([quantile(v, q) for v in groups.values()]) \
        if groups else 0.0


def setup_seconds(run):
    """Median over passes of the pass's set-up work: machine
    construction plus Workload::setup for every simulation, and the
    crash-point enumeration of every (app, Dolos mode)."""
    per_pass = {}
    for r in run.of("sim"):
        per_pass[r["pass"]] = per_pass.get(r["pass"], 0) + \
            r["construct_ns"] + r["setup_ns"]
    for r in run.of("enumerate"):
        per_pass[r["pass"]] = per_pass.get(r["pass"], 0) + r["ns"]
    return statistics.median(per_pass.values()) / 1e9


def boot_share(run):
    """Construction plus recovery, as a share of one crash point."""
    boots = run.of("boot")
    points = [ms_per_point(r) for r in run.of("point", traced=False)]
    boot_ms = (median_ms([b["construct_ns"] for b in boots]) +
               median_ms([b["recover_ns"] for b in boots]))
    return ratio(boot_ms, statistics.median(points) if points else 0)


def host_layer_metrics(run, absent):
    """Host-side per-layer metrics. Profiler components the library no
    longer has are reported as absent."""
    traced_ops = run.of("sim", traced=True) + run.of("point", traced=True)
    comp_ns, comp_calls = {}, {}
    for r in traced_ops:
        for comp, (ns, calls) in r["prof"].items():
            comp_ns[comp] = comp_ns.get(comp, 0) + ns
            comp_calls[comp] = comp_calls.get(comp, 0) + calls
    attributed = sum(comp_ns.values())
    wall = sum(r.get("run_ns", r.get("ns", 0)) for r in traced_ops)
    m = {}
    for comp in PROFILER_COMPS:
        if comp not in comp_ns:
            absent.append(f"host.{comp}.share (profiler component "
                          f"'{comp}' not found)")
            continue
        m[f"host.{comp}.share"] = (ratio(comp_ns[comp], attributed), "ratio")
        if comp in CRYPTO_COMPS:
            m[f"crypto.{CRYPTO_COMPS[comp]}.ns_per_call"] = (
                ratio(comp_ns[comp], comp_calls[comp]), "ns")
    m["host.attributed_share"] = (ratio(attributed, wall), "ratio")

    sims = run.of("sim", traced=False)
    points = run.of("point", traced=False)
    boots = run.of("boot")
    m["span.system_construct_ms"] = (
        median_ms([r["construct_ns"] for r in run.of("sim")]), "ms")
    m["span.workload_setup_ms"] = (
        median_ms([r["setup_ns"] for r in run.of("sim")]), "ms")
    m["span.run_workload_ms"] = (median_ms([r["run_ns"] for r in sims]), "ms")
    m["span.verify_ms"] = (median_ms([r["verify_ns"] for r in run.of("sim")]),
                           "ms")
    m["span.enumerate_points_ms"] = (
        median_ms([r["ns"] for r in run.of("enumerate")]), "ms")
    m["span.crash_point_ms"] = (median_ms([r["ns"] for r in points]), "ms")
    m["span.boot_construct_ms"] = (
        median_ms([r["construct_ns"] for r in boots]), "ms")
    m["span.boot_setup_ms"] = (median_ms([r["setup_ns"] for r in boots]), "ms")
    m["span.recover_ms"] = (median_ms([r["recover_ns"] for r in boots]), "ms")
    m["span.crash_point_boot_share"] = (boot_share(run), "ratio")
    m["verify.points_candidate"] = (
        sum(r["candidates"] for r in run.of("enumerate", **{"pass": 0})),
        "count")
    m["verify.points_run"] = (len(run.of("point")), "count")
    m["sim.instructions_per_host_s"] = (
        ratio(sum(r["instructions"] for r in sims),
              sum(r["run_ns"] for r in sims) / 1e9), "1/s")

    for name, kind, sample in (("ktx", "sim", ms_per_ktx),
                               ("point", "point", ms_per_point)):
        m[f"trace.overhead_ms_per_{name}"] = (
            typical(by_op(run.of(kind, traced=True), sample), 0.5) -
            typical(by_op(run.of(kind, traced=False), sample), 0.5),
            "ms")
    return m


def regime(workload, layer, run):
    """The property that puts the workload in its regime."""
    if workload == "persist-heavy":
        keys = ("cpu.fence_stall_share", "dolos.wpq.retries_per_kwr")
    elif workload == "read-mostly":
        keys = ("dolos.wpq.retries_per_kwr", "mem.llc.miss_ratio",
                "mem.nvm.reads_per_tx")
    else:
        return (f"crash-point construction+recovery share = "
                f"{boot_share(run):.3f} (median construct + median "
                f"recover over median crash point)")
    return ", ".join(f"dolos {k} = {layer[k][0]:.4g}" for k in keys
                     if k in layer)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    started = time.monotonic()
    bdir = build()
    cmd = [os.path.join(bdir, "perfbench_driver"), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace)]
    # The driver stops starting passes at --seconds; the last pass may
    # run past it.
    timeout_s = 2 * args.seconds + 90
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:
        sys.exit(f"driver exceeded {timeout_s} s")
    records = [json.loads(line) for line in done.stdout.splitlines() if line]
    if done.returncode != 0 or not records or records[-1]["rec"] != "end":
        sys.exit(f"driver failed (exit {done.returncode})")
    end = records[-1]

    run = Run(args, records)
    run.check()
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{end['passes']} passes in {end['seconds']:.1f} s "
          f"(run.py total {time.monotonic() - started:.1f} s)")
    failed = len(run.failures)
    for line in run.failures:
        print(line)
    print(f"  failed_ratio = {ratio(failed, run.attempted)!r} "
          f"({failed} of {run.attempted} ops)")
    if any(r["rec"] == "sim" and r["pass"] == 0 and "error" in r
           for r in records):
        sys.exit("a simulation threw; no metrics")

    sims, cpt, per_mode, speedup, error = simulated(run)
    layer, absent = sim_layer_metrics(sims)
    print("timing starts at the first transaction, with the modelled caches "
          "as Workload::setup left them (warm, not emptied)")
    # Simulated values, tagged [sim]: identical in every run of a seed,
    # traced or not.
    simulated_values = {f"cycles_per_tx.{app}.{mode}": (v, "cycles/tx")
                        for (app, mode), v in sorted(cpt.items())}
    simulated_values.update({f"sim_cycles_per_tx.{m}": (per_mode[m],
                                                         "cycles/tx")
                             for m in MODES})
    simulated_values["fig12_speedup_error"] = (error, "ratio")
    simulated_values.update(layer)
    for name, (v, unit) in simulated_values.items():
        print(f"  [sim] {name} = {v!r} {unit}")
    for m in DOLOS_MODES:
        print(f"  speedup {m} = {speedup[m]:.3f}x (paper Figure 12: "
              f"{PAPER_SPEEDUP[m]:.2f}x)")
    print(f"  regime: {regime(args.workload, layer, run)}")

    ktx = by_op(run.of("sim", traced=False), ms_per_ktx)
    pts = by_op(run.of("point", traced=False), ms_per_point)
    if args.trace == 0:
        metrics = {f"sim_cycles_per_tx.{m}": (per_mode[m], "cycles/tx")
                   for m in MODES}
        metrics["fig12_speedup_error"] = (error, "ratio")
        metrics["host_ms_per_ktx.p50"] = (typical(ktx, 0.5), "ms")
        metrics["host_ms_per_ktx.p90"] = (typical(ktx, 0.9), "ms")
        metrics["host_ms_per_point.p50"] = (typical(pts, 0.5), "ms")
        metrics["host_ms_per_point.p90"] = (typical(pts, 0.9), "ms")
        metrics["setup_s"] = (setup_seconds(run), "s")
        metrics["peak_rss_mb"] = (end["peak_rss_kb"] / 1024, "MB")
        for name, groups in (("simulation", ktx), ("crash-point", pts)):
            counts = [len(v) for v in groups.values()]
            print(f"  samples: {sum(counts)} {name} runs of {len(counts)} "
                  f"operations, at least {min(counts, default=0)} per operation")
    else:
        metrics = dict(layer)
        metrics.update(host_layer_metrics(run, absent))
    for name, (v, unit) in metrics.items():
        if name not in simulated_values:
            print(f"  {name} = {v!r} {unit}")
    for a in absent:
        print(f"  absent: {a}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
