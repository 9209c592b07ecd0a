/**
 * @file
 * Microstep crash-point tests: power failures *inside* the persist
 * path. The registry's probe/arm contract, committed-prefix recovery
 * from mid-climb BMT pipeline crashes and from crashes while an older
 * same-line entry drains ahead of its newer copy, the root-commit
 * window under both crash schemes, and the compound
 * crash-during-recovery case.
 *
 * Every armed run replays a machine a probe run enumerated, so a
 * silent non-firing is itself a failure (CrashPointResult.crashFired).
 */

#include <gtest/gtest.h>

#include <vector>

#include "dolos/controller.hh"
#include "sim/crash_points.hh"
#include "verify/campaign.hh"
#include "verify/sweep_driver.hh"
#include "workloads/pmem.hh"

namespace
{

using namespace dolos;
using namespace dolos::verify;
namespace cp = dolos::crashpoint;

/** Small machine, pipelined Ma-SU (the default). */
SystemConfig
smallBase()
{
    auto cfg = smallMachineConfig(SecurityMode::DolosPartialWpq, 2048);
    // A tiny counter cache forces real counter misses and evictions
    // of dirty counter blocks.
    cfg.secure.counterCache = {"counterCache", 512, 2};
    cfg.secure.mtCache = {"mtCache", 16 * 1024, 8};
    return cfg;
}

SweepOptions
sweepFor(SecurityMode mode)
{
    SweepOptions opt;
    opt.mode = mode;
    opt.workload = "hashmap";
    opt.numTx = 3;
    // Page-spanning transactions so counter-block misses (and with
    // them counter evictions) occur during the measured run.
    opt.params.txSize = 6144;
    opt.params.numKeys = 1024;
    opt.params.thinkTime = 400;
    opt.params.readsPerTx = 1;
    opt.params.seed = 7;
    opt.base = smallBase();
    opt.pointSet = CrashPoints::Microstep;
    return opt;
}

/** Probe run: the full firing sequence of the measured run. */
std::vector<cp::Step>
probeSequence(const SweepOptions &opt)
{
    auto &reg = cp::Registry::instance();
    SystemConfig cfg = opt.base;
    cfg.mode = opt.mode;
    System sys(cfg);
    const auto wl = workloads::makeWorkload(opt.workload, opt.params);
    workloads::PmemEnv env(sys);
    wl->setup(env);
    reg.reset();
    reg.enableCounting();
    for (std::uint64_t i = 0; i < opt.numTx; ++i)
        wl->transaction(env, i);
    const std::vector<cp::Step> seq = reg.sequence();
    reg.reset();
    return seq;
}

/** Firing indices of one step within a probe sequence. */
std::vector<std::uint64_t>
indicesOf(const std::vector<cp::Step> &seq, cp::Step step)
{
    std::vector<std::uint64_t> out;
    for (std::uint64_t i = 0; i < seq.size(); ++i)
        if (seq[i] == step)
            out.push_back(i);
    return out;
}

void
expectPointPasses(const SweepOptions &opt, std::uint64_t idx)
{
    const auto res = runCrashPoint(opt, idx);
    EXPECT_TRUE(res.passed())
        << "crash index " << idx << " step=" << res.microstep
        << " structure=" << res.structureVerified
        << " attack=" << res.attackDetected
        << " fired=" << res.crashFired << " "
        << res.oracle.summary();
}

TEST(CrashPointRegistry, CountsRecordsArmsAndAutoDisarms)
{
    auto &reg = cp::Registry::instance();
    reg.reset();
    EXPECT_FALSE(reg.active());

    reg.enableCounting();
    reg.fire(cp::Step::MasuCtrFetch);
    reg.fire(cp::Step::MasuBmtLevel);
    reg.fire(cp::Step::MasuBmtLevel);
    EXPECT_EQ(reg.firings(), 3u);
    EXPECT_EQ(reg.firingsOf(cp::Step::MasuBmtLevel), 2u);
    EXPECT_EQ(reg.firingsOf(cp::Step::WpqCtWrite), 0u);
    ASSERT_EQ(reg.sequence().size(), 3u);
    EXPECT_EQ(reg.sequence()[0], cp::Step::MasuCtrFetch);
    EXPECT_EQ(reg.sequence()[2], cp::Step::MasuBmtLevel);

    reg.reset();
    EXPECT_EQ(reg.firings(), 0u);
    EXPECT_TRUE(reg.sequence().empty());

    reg.arm(1);
    EXPECT_TRUE(reg.active());
    EXPECT_NO_THROW(reg.fire(cp::Step::WpqDrainIssue)); // index 0
    EXPECT_FALSE(reg.crashFired());
    try {
        reg.fire(cp::Step::MasuBmtCoalesce); // index 1: the armed one
        FAIL() << "expected MicrostepCrash";
    } catch (const cp::MicrostepCrash &c) {
        EXPECT_EQ(c.step, cp::Step::MasuBmtCoalesce);
        EXPECT_EQ(c.index, 1u);
    }
    EXPECT_TRUE(reg.crashFired());
    EXPECT_EQ(reg.firedStep(), cp::Step::MasuBmtCoalesce);
    // Auto-disarmed: recovery's own persist traffic cannot re-trip.
    EXPECT_NO_THROW(reg.fire(cp::Step::WpqCtWrite));
    EXPECT_EQ(reg.firings(), 3u);
    reg.reset();
}

TEST(MicrostepProbe, EveryLeverFamilyFiresUnderDefaults)
{
    const auto opt = sweepFor(SecurityMode::DolosPartialWpq);
    const auto seq = probeSequence(opt);
    ASSERT_FALSE(seq.empty());

    // Every Ma-SU and drain step, the pipeline's coalesce included
    // (the eADR flush steps fire only inside an eADR crash).
    const cp::Step expected[] = {
        cp::Step::MasuCtrFetch,   cp::Step::MasuCtrBumped,
        cp::Step::MasuAesPad,     cp::Step::MasuMacStored,
        cp::Step::MasuBmtLevel,   cp::Step::MasuBmtCoalesce,
        cp::Step::MasuRootCommit, cp::Step::MasuCtrEvict,
        cp::Step::WpqDrainIssue,  cp::Step::WpqCtWrite,
        cp::Step::WpqRedoClear,
    };
    for (const auto step : expected)
        EXPECT_FALSE(indicesOf(seq, step).empty())
            << "no firing of " << cp::stepName(step);

    // The sweep driver's enumeration is the same count.
    const auto points = enumerateCrashPoints(opt);
    EXPECT_EQ(points.size(), seq.size());
}

TEST(MicrostepCrash, MidClimbBmtPipelineCrashesRecover)
{
    const auto opt = sweepFor(SecurityMode::DolosPartialWpq);
    const auto seq = probeSequence(opt);
    const auto climbs = indicesOf(seq, cp::Step::MasuBmtLevel);
    ASSERT_GT(climbs.size(), 2u);
    // First, a middle, and the last charged level of a pipelined
    // climb window — recovery must land the committed prefix.
    expectPointPasses(opt, climbs.front());
    expectPointPasses(opt, climbs[climbs.size() / 2]);
    expectPointPasses(opt, climbs.back());
}

TEST(MicrostepCrash, RootCommitWindowRecoversUnderBothSchemes)
{
    for (const auto scheme :
         {CrashScheme::Anubis, CrashScheme::Osiris}) {
        auto opt = sweepFor(SecurityMode::DolosFullWpq);
        opt.base.secure.crashScheme = scheme;
        const auto seq = probeSequence(opt);
        const auto commits = indicesOf(seq, cp::Step::MasuRootCommit);
        ASSERT_FALSE(commits.empty()) << int(scheme);
        // The window between the engine's atomic commit group and the
        // controller's redo-ready hook: crash right at the commit
        // hook and right before it (the previous firing).
        expectPointPasses(opt, commits.front());
        if (commits.front() > 0)
            expectPointPasses(opt, commits.front() - 1);
        expectPointPasses(opt, commits.back());
    }
}

TEST(MicrostepCrash, CrashDuringRecoveryAtMicrostepPoint)
{
    // Compound failure: power dies inside a drain, then dies again at
    // recovery checkpoint 2 — the restartable recovery must converge.
    auto opt = sweepFor(SecurityMode::DolosPartialWpq);
    opt.recoveryCrashStep = 2;
    const auto seq = probeSequence(opt);
    const auto commits = indicesOf(seq, cp::Step::MasuRootCommit);
    ASSERT_FALSE(commits.empty());
    const auto res = runCrashPoint(opt, commits.front());
    EXPECT_TRUE(res.passed())
        << res.microstep << " " << res.oracle.summary();
    EXPECT_GE(res.recoveryAttempts, 2u);
}

// ---------------------------------------------------------------------
// A superseded same-line entry, at controller level: with insertion
// coalescing off, an older and a newer write to one line sit in the
// WPQ together and the older one drains first. Power dying anywhere
// in those drains must recover the newest value.

SystemConfig
rigConfig()
{
    auto cfg = SystemConfig::paperDefault();
    cfg.mode = SecurityMode::DolosPartialWpq;
    cfg.secure.functionalLeaves = 256;
    cfg.secure.map.protectedBytes = Addr(256) * pageBytes;
    cfg.wpq.coalescing = false;
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
    Rig() : cfg(rigConfig())
    {
        nvm = std::make_unique<NvmDevice>(cfg.nvm);
        eng = std::make_unique<SecurityEngine>(cfg.secure, *nvm);
        mc = std::make_unique<SecureMemController>(cfg, *nvm, *eng);
    }

    void
    queueSupersededPair()
    {
        mc->persistBlock(0x1000, pattern(1), 0);
        mc->persistBlock(0x1000, pattern(2), 10);
        mc->persistBlock(0x2000, pattern(3), 20);
    }

    SystemConfig cfg;
    std::unique_ptr<NvmDevice> nvm;
    std::unique_ptr<SecurityEngine> eng;
    std::unique_ptr<SecureMemController> mc;
};

/** Firing sequence of the rig's traffic, drained to completion. */
std::vector<cp::Step>
probeRig()
{
    auto &reg = cp::Registry::instance();
    Rig probe;
    reg.reset();
    reg.enableCounting();
    probe.queueSupersededPair();
    probe.mc->drainTo(10'000'000);
    const std::vector<cp::Step> seq = reg.sequence();
    reg.reset();
    return seq;
}

/**
 * Replay the rig's traffic with power failing at firing @p idx
 * (expected to be a @p step), recover, and check the newest values.
 */
void
expectRigCrashRecovers(std::uint64_t idx, cp::Step step)
{
    auto &reg = cp::Registry::instance();
    Rig rig;
    reg.reset();
    reg.arm(idx);
    bool fired = false;
    try {
        rig.queueSupersededPair();
        rig.mc->drainTo(10'000'000);
    } catch (const cp::MicrostepCrash &c) {
        EXPECT_EQ(c.step, step) << idx;
        fired = true;
    }
    reg.reset();
    ASSERT_TRUE(fired) << "armed replay diverged from the probe at "
                       << idx;

    // Power dies mid-drain: ADR dumps the WPQ as found (the drain in
    // flight is NOT completed), then recovery re-drains the dump.
    rig.mc->crash(10'000'000, /*complete_in_flight=*/false);
    EXPECT_TRUE(rig.mc->recover().misuVerified) << idx;
    EXPECT_EQ(rig.mc->readBlock(0x1000, 20'000'000).data, pattern(2))
        << idx;
    EXPECT_EQ(rig.mc->readBlock(0x2000, 20'000'000).data, pattern(3))
        << idx;
    EXPECT_FALSE(rig.eng->attackDetected()) << idx;
}

TEST(MicrostepCrash, SupersededDrainCrashRecoversNewestValue)
{
    // The older entry's ciphertext has reached NVM while the newer
    // same-line entry is still queued: recovery must not let the
    // stale write win.
    const auto seq = probeRig();
    const auto ct_writes = indicesOf(seq, cp::Step::WpqCtWrite);
    ASSERT_EQ(ct_writes.size(), 3u);
    expectRigCrashRecovers(ct_writes.front(), cp::Step::WpqCtWrite);
}

TEST(MicrostepCrash, EverySupersededPairFiringRecoversNewestValue)
{
    const auto seq = probeRig();
    ASSERT_FALSE(seq.empty());
    for (std::uint64_t idx = 0; idx < seq.size(); ++idx)
        expectRigCrashRecovers(idx, seq[idx]);
}

} // namespace
