/**
 * @file
 * Controller tests: persist-ack points per mode, WPQ occupancy and
 * retries, coalescing, read forwarding, crash dump and recovery.
 */

#include <gtest/gtest.h>

#include <optional>

#include "dolos/controller.hh"
#include "workloads/runner.hh"

namespace
{

using namespace dolos;

SystemConfig
testConfig(SecurityMode mode)
{
    auto cfg = SystemConfig::paperDefault();
    cfg.mode = mode;
    cfg.secure.functionalLeaves = 256;
    cfg.secure.map.protectedBytes = Addr(256) * pageBytes;
    return cfg;
}

Block
pattern(std::uint8_t seed)
{
    Block b;
    for (unsigned i = 0; i < blockSize; ++i)
        b[i] = std::uint8_t(seed * 7 + i);
    return b;
}

struct Rig
{
    /** The paper-default machine, or one draining at @p watermark_pct. */
    explicit Rig(SecurityMode mode,
                 std::optional<unsigned> watermark_pct = std::nullopt)
        : cfg(testConfig(mode))
    {
        if (watermark_pct)
            cfg.wpq.drainWatermarkPct = *watermark_pct;
        nvm = std::make_unique<NvmDevice>(cfg.nvm);
        eng = std::make_unique<SecurityEngine>(cfg.secure, *nvm);
        mc = std::make_unique<SecureMemController>(cfg, *nvm, *eng);
    }

    SystemConfig cfg;
    std::unique_ptr<NvmDevice> nvm;
    std::unique_ptr<SecurityEngine> eng;
    std::unique_ptr<SecureMemController> mc;
};

TEST(Controller, NonSecurePersistIsJustTransit)
{
    Rig rig(SecurityMode::NonSecureIdeal);
    const auto t = rig.mc->persistBlock(0x1000, pattern(1), 1000);
    EXPECT_EQ(t.persistTick, 1000u + rig.cfg.wpq.mcTransitLatency);
}

TEST(Controller, BaselinePaysFullSecurityBeforePersist)
{
    Rig rig(SecurityMode::PreWpqSecure);
    const auto t = rig.mc->persistBlock(0x1000, pattern(1), 1000);
    // At least counter fetch (600) + AES (40) + 10 MACs (1600).
    EXPECT_GE(t.persistTick, 1000u + 600u + 40u + 1600u);
}

TEST(Controller, DolosPartialPaysOneMac)
{
    Rig rig(SecurityMode::DolosPartialWpq);
    const auto t = rig.mc->persistBlock(0x1000, pattern(1), 1000);
    EXPECT_EQ(t.persistTick,
              1000u + rig.cfg.wpq.mcTransitLatency + 160u);
}

TEST(Controller, DolosFullPaysTwoMacs)
{
    Rig rig(SecurityMode::DolosFullWpq);
    const auto t = rig.mc->persistBlock(0x1000, pattern(1), 1000);
    EXPECT_EQ(t.persistTick,
              1000u + rig.cfg.wpq.mcTransitLatency + 320u);
}

TEST(Controller, DolosPostPersistsImmediately)
{
    Rig rig(SecurityMode::DolosPostWpq);
    const auto t = rig.mc->persistBlock(0x1000, pattern(1), 1000);
    EXPECT_EQ(t.persistTick, 1000u + rig.cfg.wpq.mcTransitLatency);
}

TEST(Controller, DolosPostSecondWriteWaitsForBusyUnit)
{
    Rig rig(SecurityMode::DolosPostWpq);
    const auto t1 = rig.mc->persistBlock(0x1000, pattern(1), 1000);
    // Immediately following write must wait out the deferred MAC.
    const auto t2 = rig.mc->persistBlock(0x1040, pattern(2), 1000);
    EXPECT_GE(t2.persistTick, t1.persistTick + 160u);
}

TEST(Controller, IdealRawReadRetryBackoffSchedule)
{
    // Characterisation of the media retry schedule on the ideal
    // machine's raw read: a transient flip heals on the first retry,
    // sent 300 cycles after the faulted 600-cycle read.
    Rig rig(SecurityMode::NonSecureIdeal);
    rig.nvm->writeFunctional(0x1000, pattern(5));
    rig.nvm->injectTransientFlip(0x1000, 17);
    const Tick sent = 1000 + rig.cfg.wpq.mcTransitLatency;
    const auto rd = rig.mc->readBlock(0x1000, 1000);
    EXPECT_EQ(rd.data, pattern(5));
    EXPECT_EQ(rd.completeTick, sent + 600 + 300 + 600);
    EXPECT_EQ(rig.nvm->reads(), 2u);
    EXPECT_EQ(rig.nvm->mediaErrorReads(), 1u);
    EXPECT_EQ(rig.nvm->quarantineCount(), 0u);

    // A stuck cell keeps failing: three retries after 300, 600 and
    // 1200 cycles, then the block is retired and reads as zeros.
    rig.nvm->writeFunctional(0x2000, pattern(6));
    rig.nvm->injectStuckBit(0x2000, 3, !(pattern(6)[0] & 0x08));
    const auto stuck = rig.mc->readBlock(0x2000, 100000);
    const Tick sent2 = 100000 + rig.cfg.wpq.mcTransitLatency;
    EXPECT_EQ(stuck.data, zeroBlock());
    EXPECT_EQ(stuck.completeTick, sent2 + 4 * 600 + 300 + 600 + 1200);
    EXPECT_EQ(rig.nvm->reads(), 6u);
    ASSERT_TRUE(rig.nvm->isQuarantined(0x2000));
    EXPECT_EQ(rig.nvm->quarantineLog().at(0x2000).retries, 3u);
    EXPECT_EQ(rig.nvm->quarantineLog().at(0x2000).reason,
              "uncorrectable media fault (raw read)");
}

TEST(Controller, WpqCapacityMatchesMode)
{
    EXPECT_EQ(Rig(SecurityMode::DolosFullWpq).mc->wpqCapacity(), 16u);
    EXPECT_EQ(Rig(SecurityMode::DolosPartialWpq).mc->wpqCapacity(), 13u);
    EXPECT_EQ(Rig(SecurityMode::DolosPostWpq).mc->wpqCapacity(), 10u);
    EXPECT_EQ(Rig(SecurityMode::PreWpqSecure).mc->wpqCapacity(), 16u);
}

TEST(Controller, BurstBeyondCapacityCausesRetries)
{
    // The Post design has the smallest WPQ (10 entries) and accepts
    // writes at the Mi-SU pipeline rate, so a long back-to-back
    // burst overruns the Ma-SU drain latency and must retry.
    Rig rig(SecurityMode::DolosPostWpq);
    Tick t = 0;
    for (int i = 0; i < 60; ++i) {
        const auto tk = rig.mc->persistBlock(Addr(i) * 64, pattern(1), t);
        t = tk.persistTick;
    }
    EXPECT_GT(rig.mc->retryEvents(), 0u);
    EXPECT_EQ(rig.mc->writeRequests(), 60u);
    EXPECT_GT(rig.mc->retriesPerKiloWrites(), 0.0);
}

TEST(Controller, NoRetriesWhenWritesAreSpacedOut)
{
    Rig rig(SecurityMode::DolosPartialWpq);
    Tick t = 0;
    for (int i = 0; i < 40; ++i) {
        rig.mc->persistBlock(Addr(i) * 64, pattern(1), t);
        t += 10000; // far slower than the drain rate
    }
    EXPECT_EQ(rig.mc->retryEvents(), 0u);
}

TEST(Controller, ReadHitsWpqTagArray)
{
    Rig rig(SecurityMode::DolosPartialWpq);
    const Block pt = pattern(5);
    const auto tk = rig.mc->persistBlock(0x2000, pt, 0);
    // Read immediately after persist: the entry is still in the WPQ.
    const auto rd = rig.mc->readBlock(0x2000, tk.persistTick + 1);
    EXPECT_EQ(rd.data, pt);
    EXPECT_EQ(rig.mc->wpqReadHits(), 1u);
    // A cheap forward: transit + 1-cycle XOR.
    EXPECT_LE(rd.completeTick - (tk.persistTick + 1),
              rig.cfg.wpq.mcTransitLatency + 1);
}

TEST(Controller, ReadAfterDrainComesFromNvm)
{
    Rig rig(SecurityMode::DolosPartialWpq);
    const Block pt = pattern(6);
    rig.mc->persistBlock(0x2000, pt, 0);
    // After a quiesce the read misses the WPQ and decrypts from NVM.
    rig.mc->drainTo(1'000'000);
    const auto rd = rig.mc->readBlock(0x2000, 1'000'000);
    EXPECT_EQ(rd.data, pt);
    EXPECT_EQ(rig.mc->wpqReadHits(), 0u);
    EXPECT_FALSE(rig.eng->attackDetected());
}

TEST(Controller, CoalescingMergesBackToBackWrites)
{
    Rig rig(SecurityMode::DolosPartialWpq);
    const auto t1 = rig.mc->persistBlock(0x2000, pattern(1), 0);
    const auto t2 = rig.mc->persistBlock(0x2000, pattern(2),
                                         t1.persistTick);
    EXPECT_GE(rig.mc->coalesces(), 1u);
    const auto rd = rig.mc->readBlock(0x2000, t2.persistTick + 1);
    EXPECT_EQ(rd.data, pattern(2));
}

TEST(Controller, CoalescingDisabledAllocatesTwoEntries)
{
    auto cfg = testConfig(SecurityMode::DolosPartialWpq);
    cfg.wpq.coalescing = false;
    NvmDevice nvm(cfg.nvm);
    SecurityEngine eng(cfg.secure, nvm);
    SecureMemController mc(cfg, nvm, eng);
    const auto t1 = mc.persistBlock(0x2000, pattern(1), 0);
    mc.persistBlock(0x2000, pattern(2), t1.persistTick);
    EXPECT_EQ(mc.coalesces(), 0u);
    const auto rd = mc.readBlock(0x2000, t1.persistTick + 1);
    EXPECT_EQ(rd.data, pattern(2)); // newest entry wins
}

TEST(Controller, PendingPersistTickSeesInFlightWrite)
{
    Rig rig(SecurityMode::DolosPartialWpq);
    const auto tk = rig.mc->persistBlock(0x2000, pattern(1), 0);
    EXPECT_EQ(rig.mc->pendingPersistTick(0x2000, 1), tk.persistTick);
    EXPECT_EQ(rig.mc->pendingPersistTick(0x9000, 1), 1u);
}

TEST(Controller, CrashDumpsUndrainedEntriesWithinBudget)
{
    Rig rig(SecurityMode::DolosPartialWpq);
    Tick t = 0;
    for (int i = 0; i < 8; ++i) {
        const auto tk = rig.mc->persistBlock(Addr(i) * 64, pattern(1), t);
        t = tk.persistTick;
    }
    // Crash immediately: most entries have not drained.
    const auto dump = rig.mc->crash(t);
    EXPECT_GT(dump.entriesDumped, 0u);
    EXPECT_TRUE(dump.withinAdrBudget);
}

TEST(Controller, CrashLongAfterQuiesceDumpsNothing)
{
    Rig rig(SecurityMode::DolosPartialWpq);
    rig.mc->persistBlock(0x1000, pattern(1), 0);
    rig.mc->drainTo(10'000'000);
    const auto dump = rig.mc->crash(10'000'000);
    EXPECT_EQ(dump.entriesDumped, 0u);
}

TEST(Controller, LoneWriteBelowWatermarkStaysUntilCrashThenRecovers)
{
    // Time alone never drains an entry below the watermark: it
    // stays readable from the WPQ, the ADR dump carries it, and
    // recovery restores it.
    Rig rig(SecurityMode::DolosPartialWpq, 50);
    const Block pt = pattern(7);
    rig.mc->persistBlock(0x2000, pt, 0);
    EXPECT_EQ(rig.mc->readBlock(0x2000, 10'000'000).data, pt);
    EXPECT_EQ(rig.mc->wpqReadHits(), 1u);

    const auto dump = rig.mc->crash(10'000'000);
    EXPECT_EQ(dump.entriesDumped, 1u);
    EXPECT_TRUE(dump.withinAdrBudget);
    const auto rec = rig.mc->recover();
    EXPECT_TRUE(rec.misuVerified);
    EXPECT_EQ(rec.entriesRecovered, 1u);
    EXPECT_EQ(rig.mc->readBlock(0x2000, 20'000'000).data, pt);
    EXPECT_FALSE(rig.eng->attackDetected());
}

TEST(Controller, DrainStartsWhenUndrainedCountReachesWatermark)
{
    // Partial at 50%: H = ceil(13 / 2) = 7. Six spaced writes all
    // wait in the queue; the seventh starts the oldest one's drain.
    Rig rig(SecurityMode::DolosPartialWpq, 50);
    Tick t = 0;
    for (int i = 0; i < 6; ++i) {
        rig.mc->persistBlock(Addr(i) * 64, pattern(1), t);
        t += 100'000;
    }
    rig.mc->readBlock(0, t);
    EXPECT_EQ(rig.mc->wpqReadHits(), 1u); // entry 0 still waits

    rig.mc->persistBlock(Addr(6) * 64, pattern(1), t);
    t += 100'000;
    rig.mc->readBlock(0, t);
    EXPECT_EQ(rig.mc->wpqReadHits(), 1u); // entry 0 drained
    rig.mc->readBlock(64, t);
    EXPECT_EQ(rig.mc->wpqReadHits(), 2u); // entry 1 still waits
}

TEST(Controller, DrainWaitsForTheWatermarkEntryToCommit)
{
    // Baseline at 10%: H = ceil(1.6) = 2, and a drained entry leaves
    // the queue when its NVM write issues. The second write reaches
    // the watermark, but the first entry's drain cannot start before
    // that write has committed (secured and inserted).
    Rig rig(SecurityMode::PreWpqSecure, 10);
    rig.mc->persistBlock(0x0, pattern(1), 0);
    const auto second = rig.mc->persistBlock(0x40, pattern(2), 100'000);
    ASSERT_GT(second.persistTick, 101'000u);
    rig.mc->readBlock(0x0, 101'000);
    EXPECT_EQ(rig.mc->wpqReadHits(), 1u); // not drained yet
    rig.mc->readBlock(0x0, second.persistTick + 10);
    EXPECT_EQ(rig.mc->wpqReadHits(), 1u); // drained and released
}

TEST(Controller, BaselinePageReencryptionResecuresQueuedWrites)
{
    // The baseline queues ciphertext. Block 0x40 waits below the
    // watermark while 128 writes to block 0x0 of the same page
    // overflow its minor counter and re-encrypt the page: the queued
    // 0x40 write must drain, or dump, under the new counters.
    for (const bool crash : {false, true}) {
        Rig rig(SecurityMode::PreWpqSecure, 100);
        const Block b = pattern(40);
        Tick t = rig.mc->persistBlock(0x40, b, 0).persistTick;
        for (int i = 0; i < int(minorCounterLimit); ++i)
            t = rig.mc->persistBlock(0x0, pattern(std::uint8_t(i)), t)
                    .persistTick;
        if (crash) {
            rig.mc->crash(t);
            rig.mc->recover();
        } else {
            rig.mc->drainTo(t + 1'000'000);
        }
        const Tick rt = t + 2'000'000;
        EXPECT_EQ(rig.mc->readBlock(0x40, rt).data, b) << crash;
        EXPECT_EQ(rig.mc->readBlock(0x0, rt).data,
                  pattern(std::uint8_t(minorCounterLimit - 1)))
            << crash;
        EXPECT_EQ(rig.mc->wpqReadHits(), 0u) << crash;
        EXPECT_FALSE(rig.eng->attackDetected()) << crash;
    }
}

TEST(Controller, WatermarkDrainsDoNotDependOnPollFrequency)
{
    // The same writes, once with dense reads of unrelated blocks in
    // between (each read runs the drain loop) and once without: the
    // persist ticks and the engine's work must match exactly.
    auto drive = [](bool poll) {
        Rig rig(SecurityMode::DolosPartialWpq, 50);
        std::vector<Tick> ticks;
        Tick t = 0;
        for (int i = 0; i < 40; ++i) {
            // Block 0 every third write (it coalesces while waiting),
            // fresh blocks otherwise (they fill the queue and drain).
            const Addr a = i % 3 == 0 ? 0 : Addr(i) * 64;
            const auto tk =
                rig.mc->persistBlock(a, pattern(std::uint8_t(i)), t);
            ticks.push_back(tk.persistTick);
            const Tick next = tk.persistTick + 700;
            if (poll)
                for (Tick p = t; p < next; p += 250)
                    rig.mc->pendingPersistTick(0x80000, p);
            t = next;
        }
        ticks.push_back(rig.mc->coalesces());
        ticks.push_back(rig.mc->crash(t).entriesDumped);
        return ticks;
    };
    const auto sparse = drive(false);
    EXPECT_GT(sparse[sparse.size() - 2], 0u) << "no write coalesced";
    EXPECT_GT(sparse.back(), 0u) << "nothing waiting at the crash";
    EXPECT_EQ(sparse, drive(true));
}

TEST(Controller, EagerWatermarkReproducesRecordedCyclesPerTx)
{
    // p = 0 is the eager queue: run cycles of dolos-sim --txns 40
    // --keys 64 --seed 42 (default think time, 16-entry budget) as
    // recorded before the watermark existed. The modes whose drains
    // run the security engine reproduce them exactly. The ideal and
    // baseline queues now free a slot when its NVM write issues, not
    // when it completes, so they run faster than recorded; their
    // expected values are pinned from this model.
    struct Recorded
    {
        const char *workload;
        SecurityMode mode;
        std::uint64_t beforeWatermark;
        std::uint64_t expected;
    };
    const Recorded recorded[] = {
        {"hashmap", SecurityMode::NonSecureIdeal, 3226336, 2731370},
        {"hashmap", SecurityMode::PreWpqSecure, 5753958, 4488400},
        {"hashmap", SecurityMode::PostWpqUnprotected, 3701330, 3701330},
        {"hashmap", SecurityMode::DolosFullWpq, 4353104, 4353104},
        {"hashmap", SecurityMode::DolosPartialWpq, 4279075, 4279075},
        {"hashmap", SecurityMode::DolosPostWpq, 4281397, 4281397},
        {"hashmap", SecurityMode::EadrSecure, 2723982, 2723982},
        {"btree", SecurityMode::NonSecureIdeal, 2875298, 2151350},
        {"btree", SecurityMode::PreWpqSecure, 6296938, 6050902},
        {"btree", SecurityMode::PostWpqUnprotected, 3487354, 3487354},
        {"btree", SecurityMode::DolosFullWpq, 5995628, 5995628},
        {"btree", SecurityMode::DolosPartialWpq, 5967410, 5967410},
        {"btree", SecurityMode::DolosPostWpq, 5969466, 5969466},
        {"btree", SecurityMode::EadrSecure, 2141858, 2141858},
    };
    for (const auto &r : recorded) {
        auto cfg = SystemConfig::paperDefault();
        cfg.mode = r.mode;
        cfg.wpq.drainWatermarkPct = 0;
        System sys(cfg);
        workloads::WorkloadParams params;
        params.txSize = 1024;
        params.numKeys = 64;
        params.seed = 42;
        params.thinkTime = 60000;
        auto wl = workloads::makeWorkload(r.workload, params);
        const auto res = workloads::runWorkload(sys, *wl, 40);
        EXPECT_TRUE(res.verified) << res.verifyDiagnostic;
        EXPECT_EQ(res.runCycles, r.expected)
            << r.workload << " " << securityModeName(r.mode);
        EXPECT_LE(r.expected, r.beforeWatermark);
    }
}

TEST(Controller, RecoveryRestoresUndrainedWrites)
{
    Rig rig(SecurityMode::DolosPartialWpq);
    Tick t = 0;
    std::vector<std::pair<Addr, Block>> writes;
    for (int i = 0; i < 6; ++i) {
        const Addr a = Addr(i) * 64;
        const Block pt = pattern(std::uint8_t(10 + i));
        const auto tk = rig.mc->persistBlock(a, pt, t);
        t = tk.persistTick;
        writes.emplace_back(a, pt);
    }
    rig.mc->crash(t);
    const auto rec = rig.mc->recover();
    EXPECT_TRUE(rec.misuVerified);
    EXPECT_TRUE(rec.engine.rootVerified);

    Tick rt = 100'000'000;
    for (const auto &[a, pt] : writes) {
        const auto rd = rig.mc->readBlock(a, rt);
        EXPECT_EQ(rd.data, pt) << std::hex << a;
        rt = rd.completeTick;
    }
    EXPECT_FALSE(rig.eng->attackDetected());
}

TEST(Controller, WithoutAdrDumpUndrainedDataWouldBeLost)
{
    // Negative control: the dump region is wiped before recovery, so
    // the persist-acked (but undrained) write must NOT be readable —
    // demonstrating the dump is what preserves it.
    Rig rig(SecurityMode::DolosPartialWpq);
    const Block pt = pattern(3);
    const auto tk = rig.mc->persistBlock(0x3000, pt, 0);
    rig.mc->crash(tk.persistTick);
    rig.nvm->writeFunctional(AddressMap::wpqDumpBase, zeroBlock());
    const auto rec = rig.mc->recover();
    EXPECT_EQ(rec.entriesRecovered, 0u);
    const auto rd = rig.mc->readBlock(0x3000, 100'000'000);
    EXPECT_NE(rd.data, pt);
}

TEST(Controller, TamperedDumpIsDetected)
{
    Rig rig(SecurityMode::DolosPartialWpq);
    const auto tk = rig.mc->persistBlock(0x3000, pattern(4), 0);
    rig.mc->crash(tk.persistTick);
    // Flip one bit of the first dumped entry's ciphertext.
    const Addr e0 = AddressMap::wpqDumpAddr(1);
    Block b = rig.nvm->readFunctional(e0);
    b[0] ^= 1;
    rig.nvm->writeFunctional(e0, b);
    const auto rec = rig.mc->recover();
    EXPECT_FALSE(rec.misuVerified);
    EXPECT_EQ(rec.entriesRecovered, 0u);
}

TEST(Controller, TamperedDumpDetectedByFullWpqRoot)
{
    Rig rig(SecurityMode::DolosFullWpq);
    const auto tk = rig.mc->persistBlock(0x3000, pattern(4), 0);
    rig.mc->crash(tk.persistTick);
    const Addr e0 = AddressMap::wpqDumpAddr(1);
    Block b = rig.nvm->readFunctional(e0);
    b[9] ^= 0x20;
    rig.nvm->writeFunctional(e0, b);
    const auto rec = rig.mc->recover();
    EXPECT_FALSE(rec.misuVerified);
}

TEST(Controller, RecoveryAcrossAllDolosModes)
{
    for (const auto mode : {SecurityMode::DolosFullWpq,
                            SecurityMode::DolosPartialWpq,
                            SecurityMode::DolosPostWpq}) {
        Rig rig(mode);
        const Block pt = pattern(9);
        const auto tk = rig.mc->persistBlock(0x4000, pt, 0);
        rig.mc->crash(tk.persistTick);
        const auto rec = rig.mc->recover();
        EXPECT_TRUE(rec.misuVerified) << securityModeName(mode);
        const auto rd = rig.mc->readBlock(0x4000, 100'000'000);
        EXPECT_EQ(rd.data, pt) << securityModeName(mode);
    }
}

TEST(Controller, BaselineCrashNeedsNoDumpRegion)
{
    Rig rig(SecurityMode::PreWpqSecure);
    const Block pt = pattern(8);
    const auto tk = rig.mc->persistBlock(0x5000, pt, 0);
    rig.mc->crash(tk.persistTick);
    const auto rec = rig.mc->recover();
    EXPECT_TRUE(rec.engine.rootVerified);
    const auto rd = rig.mc->readBlock(0x5000, 100'000'000);
    EXPECT_EQ(rd.data, pt);
}

TEST(Controller, PostWpqUnprotectedCrashViolatesAdrBudget)
{
    Rig rig(SecurityMode::PostWpqUnprotected);
    const auto tk = rig.mc->persistBlock(0x1000, pattern(1), 0);
    const auto dump = rig.mc->crash(tk.persistTick);
    EXPECT_FALSE(dump.withinAdrBudget);
}

TEST(Controller, ModeledRecoveryCyclesMatchPaperFullWpq)
{
    // §5.5: 16 * (600 + 40 + 2100 + 40) = 44480 cycles.
    Rig rig(SecurityMode::DolosFullWpq);
    const auto tk = rig.mc->persistBlock(0x1000, pattern(1), 0);
    rig.mc->crash(tk.persistTick);
    const auto rec = rig.mc->recover();
    EXPECT_EQ(rec.modeledRecoveryCycles, 44480u);
}

} // namespace
