/**
 * @file
 * Simulator self-benchmark implementation.
 */

#include "workloads/selfbench.hh"

#include <chrono>
#include <cstdio>

#include "dolos/system.hh"
#include "sim/profiler.hh"
#include "workloads/runner.hh"

namespace dolos::workloads
{

namespace
{

struct TimedRun
{
    RunResult run;
    double hostSeconds = 0;
};

TimedRun
oneRun(const SelfbenchOptions &opt)
{
    auto cfg = SystemConfig::paperDefault();
    cfg.mode = opt.mode;
    cfg.name = "selfbench";
    System sys(cfg);
    WorkloadParams params;
    params.numKeys = opt.numKeys;
    params.seed = opt.seed;
    auto wl = makeWorkload(opt.workload, params);
    const auto start = std::chrono::steady_clock::now();
    TimedRun out;
    out.run = runWorkload(sys, *wl, opt.txns);
    out.hostSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return out;
}

} // namespace

SelfbenchResult
runSelfbench(const SelfbenchOptions &opt)
{
    SelfbenchResult res;
    res.workload = opt.workload;

    // Phase 1: unprofiled timing runs; the fastest is the simulator's
    // throughput (the slower ones absorbed host noise, not work).
    prof::Profiler::instance().disable();
    const unsigned repeats = opt.repeats ? opt.repeats : 1;
    for (unsigned i = 0; i < repeats; ++i) {
        TimedRun t = oneRun(opt);
        if (i == 0 || t.hostSeconds < res.hostSeconds) {
            res.hostSeconds = t.hostSeconds;
            res.transactions = t.run.transactions;
            res.instructions = t.run.instructions;
            res.simCycles = t.run.runCycles;
        }
    }
    if (res.hostSeconds > 0) {
        res.eventsPerSec = double(res.instructions) / res.hostSeconds;
        res.simCyclesPerSec = double(res.simCycles) / res.hostSeconds;
    }

#if DOLOS_SELFPROF
    // Phase 2: one profiled run for the attribution table only.
    auto &prof = prof::Profiler::instance();
    prof.enable();
    oneRun(opt);
    prof.disable();
    res.profiled = true;
    const double total = double(prof.attributedNanos());
    for (std::size_t i = 0;
         i < std::size_t(prof::Comp::NumComps); ++i) {
        const auto c = static_cast<prof::Comp>(i);
        if (!prof.calls(c))
            continue;
        SelfbenchComponent sc;
        sc.name = prof::compName(c);
        sc.seconds = double(prof.exclusiveNanos(c)) * 1e-9;
        sc.share =
            total > 0 ? double(prof.exclusiveNanos(c)) / total : 0;
        sc.calls = prof.calls(c);
        res.components.push_back(sc);
    }
    prof.reset();
#endif
    return res;
}

void
formatSelfbench(const SelfbenchResult &r, std::ostream &os)
{
    char line[256];
    std::snprintf(line, sizeof(line),
                  "selfbench %s: %llu txns, %llu instructions, "
                  "%llu cycles in %.3f s host\n",
                  r.workload.c_str(),
                  (unsigned long long)r.transactions,
                  (unsigned long long)r.instructions,
                  (unsigned long long)r.simCycles, r.hostSeconds);
    os << line;
    std::snprintf(line, sizeof(line),
                  "  %.0f simulated instructions/sec, "
                  "%.0f simulated cycles/sec\n",
                  r.eventsPerSec, r.simCyclesPerSec);
    os << line;
    if (!r.profiled) {
        os << "  (self-profiler compiled out: build with "
              "-DDOLOS_SELFPROF=ON for attribution)\n";
        return;
    }
    os << "  host-time attribution (exclusive):\n";
    for (const auto &c : r.components) {
        std::snprintf(line, sizeof(line),
                      "    %-16s %9.6f s  %5.1f%%  %llu calls  "
                      "%.0f ns/call\n",
                      c.name.c_str(), c.seconds, c.share * 100,
                      (unsigned long long)c.calls,
                      c.seconds * 1e9 / double(c.calls));
        os << line;
    }
}

} // namespace dolos::workloads
