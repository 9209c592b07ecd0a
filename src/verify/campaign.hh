/**
 * @file
 * Scaffolding shared by the verification campaigns: the crash-point
 * sweep, dolos_torture and dolos_fuzz.
 *
 * runCases is the one worker pool. Every case is self-contained (a
 * fresh System, golden model and thread-local crash-point registry),
 * so results land in the slot of their case index and the verdicts
 * are bit-identical for any job count; only the interleaving of
 * heartbeats on stderr varies.
 */

#ifndef DOLOS_VERIFY_CAMPAIGN_HH
#define DOLOS_VERIFY_CAMPAIGN_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "dolos/config.hh"
#include "workloads/workload.hh"

namespace dolos::verify
{

/**
 * Run @p fn(k) for every k in [0, n) on min(jobs, n) workers that
 * claim indices in increasing order. The calling thread is worker 0,
 * so jobs <= 1 is a plain loop on it. After the first exception the
 * workers stop claiming indices; it is rethrown on the calling thread
 * once every worker has joined.
 */
void forEachCase(std::size_t n, unsigned jobs,
                 const std::function<void(std::size_t)> &fn);

/** forEachCase that keeps fn(k)'s result in slot k. */
template <typename Fn>
auto
runCases(std::size_t n, unsigned jobs, Fn &&fn)
    -> std::vector<std::invoke_result_t<Fn &, std::size_t>>
{
    using Result = std::invoke_result_t<Fn &, std::size_t>;
    static_assert(!std::is_same_v<Result, bool>,
                  "std::vector<bool> slots share words across threads");
    std::vector<Result> out(n);
    forEachCase(n, jobs, [&](std::size_t k) { out[k] = fn(k); });
    return out;
}

/**
 * The small campaign machine: paper defaults for @p mode with a
 * functional tree of @p pages pages and 1/4/16 KB L1/L2/LLC caches,
 * small enough that campaigns finish in CI time and evictions are
 * frequent.
 */
SystemConfig smallMachineConfig(SecurityMode mode, unsigned pages);

/**
 * The small-workload preset of the campaign machines: 256 B
 * transactions over 48 keys with one read each and a short think
 * time, seeded by @p seed. Used by torture sweeps, fuzz episodes and
 * the perf-equivalence differential.
 */
workloads::WorkloadParams smallWorkloadParams(std::uint64_t seed);

} // namespace dolos::verify

#endif // DOLOS_VERIFY_CAMPAIGN_HH
