/**
 * @file
 * Benchmark driver: runs one workload of the Dolos benchmark against
 * the simulator's public library API and prints one JSON record per
 * operation on stdout (NDJSON). run.py turns the records into the
 * benchmark's metrics; README.md describes the workloads and metrics.
 *
 *   perfbench_driver --workload W --seed N --seconds S --trace 0|1
 *
 * An operation is either one simulation (the transactions of one
 * workload run on a freshly constructed machine, timed) or one crash
 * point (a timed runCrashPoint call). Set-up work is timed on its own:
 * machine construction and Workload::setup per simulation, and the
 * crash-point enumeration per (app, Dolos mode). A pass runs every
 * operation of the workload once; passes repeat until the next one
 * would overrun --seconds. The simulator is deterministic, so every pass must
 * reproduce the first pass's simulated results; run.py checks that.
 *
 * Every pass also times the boot work a crash point repeats
 * (construction, setup, recovery) on the crash points' machine, and
 * pass 0 dumps the stat tree of every simulation, both outside the
 * timed spans. --trace 1 alternates passes: even passes are timed
 * exactly as in --trace 0, odd passes run the timed operations with
 * the host self-profiler enabled. Nothing inside the library is
 * instrumented for the benchmark.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "dolos/system.hh"
#include "sim/json.hh"
#include "sim/profiler.hh"
#include "sim/random.hh"
#include "verify/sweep_driver.hh"
#include "workloads/pmem.hh"
#include "workloads/workload.hh"

namespace
{

using namespace dolos;
using Clock = std::chrono::steady_clock;

/** One benchmark workload: the machine, the apps and the op counts. */
struct Spec
{
    const char *name;
    bool smallMachine;             ///< torture-lane sizing
    std::vector<std::string> apps;
    unsigned txSize;
    std::uint64_t numKeys;
    unsigned readsPerTx;           ///< 0 = the app's Figure 12 preset
    std::uint64_t simTxns;         ///< transactions per simulation
    std::uint64_t sweepTxns;       ///< transactions per crash-point run
    std::size_t pointsPerConfig;   ///< sampled crash points per
                                   ///< (app, Dolos mode)
};

const std::vector<Spec> &
specs()
{
    static const std::vector<Spec> all = {
        {"persist-heavy", false,
         {"hashmap", "ctree", "btree", "rbtree", "nstore-ycsb", "redis"},
         1024, 1024, 0, 500, 2, 3},
        {"read-mostly", false, {"nstore-ycsb", "redis"}, 128, 262144, 16,
         1000, 2, 4},
        {"crash-sweep", true, {"hashmap", "btree"}, 256, 48, 1, 600, 3,
         256},
    };
    return all;
}

const char *const allModes[] = {"baseline", "dolos-full", "dolos-partial",
                                "dolos-post"};
const char *const dolosModes[] = {"dolos-full", "dolos-partial",
                                  "dolos-post"};

SecurityMode
modeOf(const char *name)
{
    return *parseSecurityMode(name);
}

/** SystemConfig::paperDefault() with the mode and, for the small
 *  machine, the torture lane's sizing. */
SystemConfig
machine(const Spec &spec, const char *mode)
{
    auto cfg = SystemConfig::paperDefault();
    cfg.mode = modeOf(mode);
    if (spec.smallMachine) {
        cfg.secure.functionalLeaves = 2048;
        cfg.secure.map.protectedBytes = Addr(2048) * pageBytes;
        cfg.hierarchy.l1 = {"l1", 1024, 2, 2};
        cfg.hierarchy.l2 = {"l2", 4096, 4, 20};
        cfg.hierarchy.llc = {"llc", 16384, 8, 32};
    }
    return cfg;
}

/**
 * Workload parameters. The Figure 12 machine uses the paper experiment
 * drivers' per-app compute-to-persist preset; the small machine uses
 * the torture lane's parameters.
 */
workloads::WorkloadParams
params(const Spec &spec, const std::string &app, std::uint64_t seed)
{
    if (spec.smallMachine) {
        workloads::WorkloadParams p;
        p.txSize = spec.txSize;
        p.numKeys = spec.numKeys;
        p.seed = seed;
        p.thinkTime = 400;
        p.readsPerTx = spec.readsPerTx;
        return p;
    }
    bench::BenchOptions opts;
    opts.numKeys = spec.numKeys;
    opts.seed = seed;
    auto p = bench::presetFor(app, opts, spec.txSize);
    if (spec.readsPerTx)
        p.readsPerTx = spec.readsPerTx;
    return p;
}

std::uint64_t
nanosSince(Clock::time_point t0)
{
    return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             Clock::now() - t0)
                             .count());
}

std::string
quoted(const std::string &s)
{
    return "\"" + json::escape(s) + "\"";
}

/** Exclusive host ns and call count per profiler component. */
std::string
profJson()
{
    const auto &p = prof::Profiler::instance();
    std::string out = "{";
    for (std::size_t i = 0; i < std::size_t(prof::Comp::NumComps); ++i) {
        const auto c = static_cast<prof::Comp>(i);
        if (i)
            out += ",";
        out += quoted(prof::compName(c)) + ":[" +
               std::to_string(p.exclusiveNanos(c)) + "," +
               std::to_string(p.calls(c)) + "]";
    }
    return out + "}";
}

/** Host self-profiler on for one timed operation (traced passes). */
class ProfiledScope
{
  public:
    explicit ProfiledScope(bool traced) : traced(traced)
    {
        if (traced)
            prof::Profiler::instance().enable();
    }
    ~ProfiledScope()
    {
        if (traced)
            prof::Profiler::instance().disable();
    }
    ProfiledScope(const ProfiledScope &) = delete;
    ProfiledScope &operator=(const ProfiledScope &) = delete;

  private:
    bool traced;
};

std::string
statsJson(const System &sys)
{
    std::ostringstream os;
    sys.dumpStatsJson(os);
    return os.str();
}

void
emit(const std::string &record)
{
    std::fputs(record.c_str(), stdout);
    std::fputc('\n', stdout);
}

std::string
head(const char *rec, unsigned pass, bool traced, const std::string &app,
     const char *mode)
{
    return std::string("{\"rec\":\"") + rec + "\",\"pass\":" +
           std::to_string(pass) + ",\"traced\":" +
           (traced ? "true" : "false") + ",\"app\":" + quoted(app) +
           ",\"mode\":" + quoted(mode);
}

/** The counters runWorkload reports, read at one instant. */
struct Counters
{
    Cycles now;
    std::uint64_t instructions, retryEvents, writeRequests;
    std::uint64_t fenceStallCycles, coalesces;

    explicit Counters(System &sys)
        : now(sys.core().now()),
          instructions(sys.core().instructions()),
          retryEvents(sys.controller().retryEvents()),
          writeRequests(sys.controller().writeRequests()),
          fenceStallCycles(sys.core().fenceStallCycles()),
          coalesces(sys.controller().coalesces())
    {
    }
};

void
runTransactions(workloads::PmemEnv &env, workloads::Workload &wl,
                std::uint64_t txns)
{
    for (std::uint64_t i = 0; i < txns; ++i)
        wl.transaction(env, i);
}

/**
 * One simulation on a freshly constructed machine. It runs the op
 * sequence of runWorkload without a crash plan (Workload::setup, the
 * transactions, the verifier) on one PmemEnv, with spans and stat
 * snapshots between the phases. The measured window (counters, stat
 * deltas, host time) is the transactions only: it starts at the end
 * of setup and ends before the verifier walks the heap.
 */
void
simulate(const Spec &spec, const std::string &app, const char *mode,
         std::uint64_t seed, unsigned pass, bool traced, bool dump_stats)
{
    std::string rec = head("sim", pass, traced, app, mode);
    try {
        const auto t0 = Clock::now();
        System sys(machine(spec, mode));
        const auto construct_ns = nanosSince(t0);
        auto wl = workloads::makeWorkload(app, params(spec, app, seed));
        const auto t1 = Clock::now();
        workloads::PmemEnv env(sys);
        wl->setup(env);
        const auto setup_ns = nanosSince(t1);

        std::string pre, post;
        if (dump_stats)
            pre = statsJson(sys);
        const Counters c0(sys);
        std::uint64_t run_ns = 0;
        {
            ProfiledScope profiled(traced);
            const auto t2 = Clock::now();
            runTransactions(env, *wl, spec.simTxns);
            run_ns = nanosSince(t2);
        }
        const Counters c1(sys);
        if (dump_stats)
            post = statsJson(sys);

        std::string diag;
        const auto t3 = Clock::now();
        const bool verified = wl->verify(env, &diag);
        const auto verify_ns = nanosSince(t3);

        char buf[512];
        std::snprintf(
            buf, sizeof(buf),
            ",\"construct_ns\":%llu,\"setup_ns\":%llu,\"run_ns\":%llu,"
            "\"verify_ns\":%llu,\"tx\":%llu,\"runCycles\":%llu,"
            "\"instructions\":%llu,\"retryEvents\":%llu,"
            "\"writeRequests\":%llu,\"fenceStallCycles\":%llu,"
            "\"coalesces\":%llu,\"verified\":%s,\"attack\":%s",
            (unsigned long long)construct_ns, (unsigned long long)setup_ns,
            (unsigned long long)run_ns, (unsigned long long)verify_ns,
            (unsigned long long)spec.simTxns,
            (unsigned long long)(c1.now - c0.now),
            (unsigned long long)(c1.instructions - c0.instructions),
            (unsigned long long)(c1.retryEvents - c0.retryEvents),
            (unsigned long long)(c1.writeRequests - c0.writeRequests),
            (unsigned long long)(c1.fenceStallCycles - c0.fenceStallCycles),
            (unsigned long long)(c1.coalesces - c0.coalesces),
            verified ? "true" : "false",
            sys.attackDetected() ? "true" : "false");
        rec += buf;
        rec += ",\"diag\":" + quoted(diag);
        if (dump_stats)
            rec += ",\"stats_pre\":" + pre + ",\"stats_post\":" + post;
        if (traced)
            rec += ",\"prof\":" + profJson();
    } catch (const std::exception &e) {
        rec += ",\"error\":" + quoted(e.what());
    }
    emit(rec + "}");
}

/** The crash points one (app, Dolos mode) pair sweeps. */
struct CrashConfig
{
    std::string app;
    const char *mode;
    verify::SweepOptions opt;
    std::vector<std::uint64_t> sample;
};

verify::SweepOptions
sweepOptions(const Spec &spec, const std::string &app, const char *mode,
             std::uint64_t seed)
{
    verify::SweepOptions opt;
    opt.mode = modeOf(mode);
    opt.workload = app;
    opt.numTx = spec.sweepTxns;
    opt.params = params(spec, app, seed);
    opt.base = machine(spec, mode);
    opt.pointSet = verify::CrashPoints::Microstep;
    return opt;
}

/** A seeded sample of @p k distinct candidates, in increasing order. */
std::vector<std::uint64_t>
samplePoints(std::vector<std::uint64_t> cands, std::size_t k,
             std::uint64_t seed)
{
    Random rng(seed);
    k = std::min(k, cands.size());
    for (std::size_t i = 0; i < k; ++i)
        std::swap(cands[i], cands[i + rng.below(cands.size() - i)]);
    cands.resize(k);
    std::sort(cands.begin(), cands.end());
    return cands;
}

/** Enumerate a config's candidates (set-up work, timed as such). */
void
enumerate(CrashConfig &cc, const Spec &spec, std::uint64_t seed,
          unsigned pass, bool traced, std::uint64_t salt)
{
    std::string rec = head("enumerate", pass, traced, cc.app, cc.mode);
    try {
        const auto t0 = Clock::now();
        const auto cands = verify::enumerateCrashPoints(cc.opt);
        const auto ns = nanosSince(t0);
        if (pass == 0)
            cc.sample = samplePoints(cands, spec.pointsPerConfig,
                                     seed * 0x9E3779B97F4A7C15ULL + salt);
        rec += ",\"ns\":" + std::to_string(ns) +
               ",\"candidates\":" + std::to_string(cands.size()) +
               ",\"sampled\":" + std::to_string(cc.sample.size());
    } catch (const std::exception &e) {
        rec += ",\"error\":" + quoted(e.what());
    }
    emit(rec + "}");
}

void
crashPoint(const CrashConfig &cc, std::uint64_t op, unsigned pass,
           bool traced)
{
    std::string rec = head("point", pass, traced, cc.app, cc.mode);
    rec += ",\"op\":" + std::to_string(op);
    try {
        verify::CrashPointResult r;
        std::uint64_t ns = 0;
        {
            ProfiledScope profiled(traced);
            const auto t0 = Clock::now();
            r = verify::runCrashPoint(cc.opt, op);
            ns = nanosSince(t0);
        }
        rec += ",\"ns\":" + std::to_string(ns) +
               ",\"passed\":" + (r.passed() ? "true" : "false") +
               ",\"step\":" + quoted(r.microstep) +
               ",\"attempts\":" + std::to_string(r.recoveryAttempts);
        if (!r.passed()) {
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "structure=%d attack=%d fired=%d, ",
                          int(r.structureVerified), int(r.attackDetected),
                          int(r.crashFired));
            rec += ",\"diag\":" + quoted(buf + r.oracle.summary());
        }
        if (traced)
            rec += ",\"prof\":" + profJson();
    } catch (const std::exception &e) {
        rec += ",\"error\":" + quoted(e.what());
    }
    emit(rec + "}");
}

/**
 * The boot work every crash point repeats, timed from outside
 * runCrashPoint on the same machine: construction, Workload::setup,
 * and recovery after a power failure at the end of the point's run.
 */
void
bootSpans(const CrashConfig &cc, unsigned pass, bool traced)
{
    std::string rec = head("boot", pass, traced, cc.app, cc.mode);
    try {
        const auto t0 = Clock::now();
        System sys(cc.opt.base);
        const auto construct_ns = nanosSince(t0);
        auto wl = workloads::makeWorkload(cc.app, cc.opt.params);
        const auto t1 = Clock::now();
        workloads::PmemEnv env(sys);
        wl->setup(env);
        const auto setup_ns = nanosSince(t1);
        runTransactions(env, *wl, cc.opt.numTx);
        sys.crash();
        const auto t2 = Clock::now();
        sys.recoverToCompletion();
        const auto recover_ns = nanosSince(t2);
        rec += ",\"construct_ns\":" + std::to_string(construct_ns) +
               ",\"setup_ns\":" + std::to_string(setup_ns) +
               ",\"recover_ns\":" + std::to_string(recover_ns);
    } catch (const std::exception &e) {
        rec += ",\"error\":" + quoted(e.what());
    }
    emit(rec + "}");
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "%s\nusage: perfbench_driver --workload "
                 "persist-heavy|read-mostly|crash-sweep --seed N "
                 "--seconds S --trace 0|1\n",
                 why);
    std::exit(2);
}

std::uint64_t
number(const char *text, const char *flag)
{
    char *end = nullptr;
    const auto v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0')
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    const Spec *spec = nullptr;
    std::uint64_t seed = 0, seconds = 0;
    bool seed_set = false, seconds_set = false, trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        if (a == "--workload") {
            for (const auto &s : specs())
                if (s.name == std::string(v))
                    spec = &s;
            if (!spec)
                usage("unknown workload");
        } else if (a == "--seed") {
            seed = number(v, "--seed");
            seed_set = true;
        } else if (a == "--seconds") {
            seconds = number(v, "--seconds");
            seconds_set = true;
        } else if (a == "--trace") {
            if (std::strcmp(v, "0") && std::strcmp(v, "1"))
                usage("--trace takes 0 or 1");
            trace = v[0] == '1';
        } else {
            usage(("unknown option " + a).c_str());
        }
    }
    if (!spec || !seed_set || !seconds_set)
        usage("--workload, --seed and --seconds are required");
    if (seconds > 3600)
        usage("--seconds is at most 3600");

    std::vector<CrashConfig> crashes;
    for (const auto &app : spec->apps)
        for (const char *mode : dolosModes)
            crashes.push_back(
                {app, mode, sweepOptions(*spec, app, mode, seed), {}});

    // Trace runs alternate timed-only and profiled passes, so each
    // side gets at least two.
    const unsigned min_passes = trace ? 4 : 3;
    const auto start = Clock::now();
    std::uint64_t last_pass_ns = 0;
    unsigned pass = 0;
    for (;; ++pass) {
        const auto elapsed = nanosSince(start);
        if (pass >= min_passes &&
            elapsed + last_pass_ns > seconds * 1'000'000'000ULL)
            break;
        const auto t0 = Clock::now();
        const bool traced = trace && pass % 2 == 1;
        for (const auto &app : spec->apps)
            for (const char *mode : allModes)
                simulate(*spec, app, mode, seed, pass, traced, pass == 0);
        std::uint64_t salt = 0;
        for (auto &cc : crashes) {
            enumerate(cc, *spec, seed, pass, traced, ++salt);
            bootSpans(cc, pass, traced);
            for (const auto op : cc.sample)
                crashPoint(cc, op, pass, traced);
        }
        last_pass_ns = nanosSince(t0);
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    emit("{\"rec\":\"end\",\"passes\":" + std::to_string(pass) +
         ",\"seconds\":" + std::to_string(nanosSince(start) / 1e9) +
         ",\"peak_rss_kb\":" + std::to_string(ru.ru_maxrss) + "}");
    return 0;
}
