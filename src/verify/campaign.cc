/**
 * @file
 * Campaign scaffolding implementation.
 */

#include "verify/campaign.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>

namespace dolos::verify
{

void
forEachCase(std::size_t n, unsigned jobs,
            const std::function<void(std::size_t)> &fn)
{
    std::atomic<std::size_t> next{0};
    std::atomic<bool> stop{false};
    std::mutex errMu;
    std::exception_ptr firstError;
    const auto worker = [&] {
        while (!stop.load(std::memory_order_relaxed)) {
            const std::size_t k =
                next.fetch_add(1, std::memory_order_relaxed);
            if (k >= n)
                return;
            try {
                fn(k);
            } catch (...) {
                const std::lock_guard<std::mutex> g(errMu);
                if (!firstError)
                    firstError = std::current_exception();
                stop.store(true, std::memory_order_relaxed);
            }
        }
    };

    std::vector<std::thread> helpers;
    const std::size_t workers = std::min<std::size_t>(jobs, n);
    try {
        for (std::size_t w = 1; w < workers; ++w)
            helpers.emplace_back(worker);
    } catch (const std::system_error &) {
        // No thread to spare: the workers already running finish
        // every case, with the same results.
    }
    worker();
    for (auto &t : helpers)
        t.join();
    if (firstError)
        std::rethrow_exception(firstError);
}

SystemConfig
smallMachineConfig(SecurityMode mode, unsigned pages)
{
    auto cfg = SystemConfig::paperDefault();
    cfg.mode = mode;
    cfg.secure.functionalLeaves = pages;
    cfg.secure.map.protectedBytes = Addr(pages) * pageBytes;
    cfg.hierarchy.l1 = {"l1", 1024, 2, 2};
    cfg.hierarchy.l2 = {"l2", 4096, 4, 20};
    cfg.hierarchy.llc = {"llc", 16384, 8, 32};
    return cfg;
}

workloads::WorkloadParams
smallWorkloadParams(std::uint64_t seed)
{
    workloads::WorkloadParams p;
    p.txSize = 256;
    p.numKeys = 48;
    p.seed = seed;
    p.thinkTime = 400;
    p.readsPerTx = 1;
    return p;
}

} // namespace dolos::verify
