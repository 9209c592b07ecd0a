/**
 * @file
 * Simulator self-benchmark driver: host throughput (simulated
 * instructions per wall-clock second) plus the self-profiler's
 * per-component attribution. Not a paper figure — this is the
 * host-performance gate BENCH_selfbench.json records, so a simulator
 * change that halves throughput fails CI even when the simulated
 * numbers are untouched.
 *
 * The gated figure is host-relative: events/sec divided by the rate
 * of a fixed calibration kernel timed in the same process, so a
 * slower or busier host moves both and the ratio stays put. The
 * kernel is not simulator code, so a simulator speed-up (crypto,
 * NVM model) cannot cancel itself out. The attribution shares and
 * each component's host nanoseconds per profiled call are recorded
 * for the report but never gated (dolos_report treats them as
 * neutral).
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>

#include "bench/common.hh"
#include "workloads/selfbench.hh"

using namespace dolos;
using namespace dolos::bench;

namespace
{

/**
 * Host-speed calibration kernel: hash-map churn, ordered-map inserts,
 * small heap allocations and byte-table lookups — the container,
 * allocator and table-lookup mix a timing simulator spends its time
 * on, written against the standard library only. Returns kernel
 * steps per second for one timed run.
 */
double
calibrationRate()
{
    constexpr std::uint64_t steps = std::uint64_t(1) << 19;
    std::unordered_map<std::uint64_t, std::uint64_t> hashed;
    hashed.reserve(1 << 14);
    std::map<std::uint64_t, std::uint64_t> ordered;
    std::uint8_t table[256];
    for (unsigned i = 0; i < 256; ++i)
        table[i] = std::uint8_t(i * 167 + 13);

    const auto start = std::chrono::steady_clock::now();
    std::uint64_t x = 0x2545F4914F6CDD1DULL, acc = 0;
    for (std::uint64_t i = 0; i < steps; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const auto [it, fresh] = hashed.try_emplace(x & 0x3FFF, x);
        if (!fresh) {
            acc += it->second;
            it->second ^= acc;
        }
        if ((x & 0xF) == 0)
            ordered[x & 0xFFF] = acc;
        if ((x & 0x3F) == 1) {
            const auto buf = std::make_unique<std::uint64_t[]>(8);
            buf[x & 7] = acc;
            acc += buf[acc & 7];
        }
        std::uint64_t b = acc;
        for (unsigned r = 0; r < 16; ++r)
            b = (b << 8) ^ table[(b >> 56) ^ (x & 0xFF)];
        acc ^= b;
    }
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    // A volatile sink keeps the loop from being optimized away.
    volatile std::uint64_t sink = acc + hashed.size() + ordered.size();
    (void)sink;
    return secs > 0 ? double(steps) / secs : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = BenchOptions::parse(argc, argv);
    printHeader("Simulator self-benchmark: host throughput and "
                "host-time attribution",
                "n/a (host-performance gate, not a paper result)",
                opts);

    workloads::SelfbenchOptions so;
    so.txns = opts.txns;
    so.numKeys = opts.numKeys;
    so.seed = opts.seed;
    so.repeats = 1;
    // Host noise comes and goes within a second, so the kernel and
    // the simulator take turns, and the gate pairs the fastest run of
    // each: both peaks sample the same stretch of host time.
    constexpr unsigned rounds = 15;
    workloads::SelfbenchResult r;
    double calibration = 0;
    for (unsigned i = 0; i < rounds; ++i) {
        calibration = std::max(calibration, calibrationRate());
        auto run = workloads::runSelfbench(so);
        if (run.eventsPerSec > r.eventsPerSec)
            r = std::move(run);
    }
    formatSelfbench(r, std::cout);
    const double relative = r.eventsPerSec / calibration;
    std::printf("calibration kernel : %.0f steps/sec\n"
                "host-relative      : %.4f events per kernel step\n",
                calibration, relative);

    // Absolute rates depend on the host: printed above, not gated.
    BenchReport report("selfbench", opts);
    report.add(r.workload + ".eventsPerSecRelative", relative);
    for (const auto &c : r.components) {
        const std::string key = r.workload + ".prof." + c.name;
        report.add(key + ".share", c.share);
        report.add(key + ".nsPerCall", c.seconds * 1e9 / double(c.calls));
    }
    report.write();
    return 0;
}
