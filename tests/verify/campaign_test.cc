/**
 * @file
 * The shared campaign worker pool: every case index runs exactly once
 * for any job count, results land in their own slot, and a worker's
 * exception surfaces on the calling thread after every worker joined.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "verify/campaign.hh"

namespace
{

using dolos::verify::runCases;

TEST(RunCases, EveryIndexRunsExactlyOnceForAnyJobCount)
{
    constexpr std::size_t n = 37;
    for (const unsigned jobs : {1u, 3u, unsigned(n) + 5}) {
        std::vector<std::atomic<int>> runs(n);
        const auto out = runCases(n, jobs, [&](std::size_t k) {
            runs[k].fetch_add(1);
            return k * k;
        });
        ASSERT_EQ(out.size(), n);
        for (std::size_t k = 0; k < n; ++k) {
            EXPECT_EQ(runs[k].load(), 1) << "jobs " << jobs << " k " << k;
            EXPECT_EQ(out[k], k * k) << "jobs " << jobs << " k " << k;
        }
    }
}

TEST(RunCases, OneJobRunsInOrderOnTheCallingThread)
{
    const auto caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    runCases(5, 1, [&](std::size_t k) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(k);
        return 0;
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(RunCases, WorkerExceptionIsRethrownAfterJoin)
{
    for (const unsigned jobs : {1u, 3u}) {
        // Only the throwing case may still count as running once the
        // exception arrives: every other case has finished, because
        // its worker joined first.
        std::atomic<int> running{0};
        EXPECT_THROW(runCases(20, jobs,
                              [&](std::size_t k) {
                                  running.fetch_add(1);
                                  if (k == 4)
                                      throw std::runtime_error("case 4");
                                  running.fetch_sub(1);
                                  return 0;
                              }),
                     std::runtime_error);
        EXPECT_EQ(running.load(), 1) << "jobs " << jobs;
    }
}

} // namespace
