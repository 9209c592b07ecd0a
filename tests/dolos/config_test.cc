/**
 * @file
 * SecurityMode / WpqParams configuration coverage: every enumerator
 * must have a usable-entry count, a distinct human-readable name and
 * a correct Dolos-family classification.
 */

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "dolos/config.hh"
#include "dolos/system.hh"

namespace
{

using namespace dolos;

constexpr SecurityMode allModes[] = {
    SecurityMode::NonSecureIdeal,     SecurityMode::PreWpqSecure,
    SecurityMode::PostWpqUnprotected, SecurityMode::DolosFullWpq,
    SecurityMode::DolosPartialWpq,    SecurityMode::DolosPostWpq,
};

TEST(WpqParamsConfig, EntriesForEveryMode)
{
    const WpqParams p; // paper defaults: 16 / 13 / 10
    EXPECT_EQ(p.entriesFor(SecurityMode::NonSecureIdeal), 16u);
    EXPECT_EQ(p.entriesFor(SecurityMode::PreWpqSecure), 16u);
    EXPECT_EQ(p.entriesFor(SecurityMode::PostWpqUnprotected), 16u);
    EXPECT_EQ(p.entriesFor(SecurityMode::DolosFullWpq), 16u);
    EXPECT_EQ(p.entriesFor(SecurityMode::DolosPartialWpq), 13u);
    EXPECT_EQ(p.entriesFor(SecurityMode::DolosPostWpq), 10u);
}

TEST(WpqParamsConfig, EntriesForTracksTunedParams)
{
    WpqParams p;
    p.adrBudgetEntries = 32;
    p.partialEntries = 26;
    p.postEntries = 20;
    EXPECT_EQ(p.entriesFor(SecurityMode::DolosFullWpq), 32u);
    EXPECT_EQ(p.entriesFor(SecurityMode::DolosPartialWpq), 26u);
    EXPECT_EQ(p.entriesFor(SecurityMode::DolosPostWpq), 20u);
    EXPECT_EQ(p.entriesFor(SecurityMode::PreWpqSecure), 32u);
}

TEST(WpqParamsConfig, NoModeExceedsTheAdrBudget)
{
    const WpqParams p;
    for (const auto mode : allModes)
        EXPECT_LE(p.entriesFor(mode), p.adrBudgetEntries)
            << securityModeName(mode);
}

TEST(WpqParamsConfig, DrainWatermarkStaysWithinTheQueue)
{
    // Every Figure 15 size, plus every queue of 1..16 entries (the
    // small budgets dolos-sim --wpq can build), at every percentage:
    // 1 <= H <= entriesFor(mode), so a full queue always has an
    // entry old enough to drain.
    struct Sizes
    {
        unsigned budget, partial, post;
    };
    std::vector<Sizes> sizes = {
        {16, 13, 10}, {32, 28, 20}, {64, 57, 40}, {128, 113, 80}};
    for (unsigned n = 1; n <= 16; ++n)
        sizes.push_back({n, n, n});
    for (const auto &sz : sizes) {
        for (unsigned pct = 0; pct <= 100; ++pct) {
            WpqParams p;
            p.adrBudgetEntries = sz.budget;
            p.partialEntries = sz.partial;
            p.postEntries = sz.post;
            p.drainWatermarkPct = pct;
            for (const auto mode : allModes) {
                const unsigned h = p.drainWatermark(mode);
                EXPECT_GE(h, 1u) << sz.budget << " " << pct;
                EXPECT_LE(h, p.entriesFor(mode))
                    << sz.budget << " " << pct;
            }
            EXPECT_LE(p.drainWatermark(SecurityMode::EadrSecure),
                      p.entriesFor(SecurityMode::EadrSecure));
        }
    }
}

TEST(WpqParamsConfig, DrainWatermarkRoundsUp)
{
    WpqParams p; // 16 / 13 / 10 entries
    p.drainWatermarkPct = 0;
    EXPECT_EQ(p.drainWatermark(SecurityMode::DolosPartialWpq), 1u);
    p.drainWatermarkPct = 50;
    EXPECT_EQ(p.drainWatermark(SecurityMode::DolosFullWpq), 8u);
    EXPECT_EQ(p.drainWatermark(SecurityMode::DolosPartialWpq), 7u);
    EXPECT_EQ(p.drainWatermark(SecurityMode::DolosPostWpq), 5u);
    p.drainWatermarkPct = 1;
    EXPECT_EQ(p.drainWatermark(SecurityMode::PreWpqSecure), 1u);
    p.drainWatermarkPct = 100;
    EXPECT_EQ(p.drainWatermark(SecurityMode::DolosPostWpq), 10u);
}

TEST(SecurityModeConfig, NamesAreNonEmptyAndDistinct)
{
    std::set<std::string> seen;
    for (const auto mode : allModes) {
        const std::string name = securityModeName(mode);
        EXPECT_FALSE(name.empty());
        EXPECT_TRUE(seen.insert(name).second)
            << "duplicate mode name: " << name;
    }
    EXPECT_EQ(seen.size(), std::size(allModes));
}

TEST(SecurityModeConfig, ExpectedNames)
{
    EXPECT_STREQ(securityModeName(SecurityMode::NonSecureIdeal),
                 "NonSecureIdeal");
    EXPECT_STREQ(securityModeName(SecurityMode::PreWpqSecure),
                 "PreWpqSecure");
    EXPECT_STREQ(securityModeName(SecurityMode::PostWpqUnprotected),
                 "PostWpqUnprotected");
    EXPECT_STREQ(securityModeName(SecurityMode::DolosFullWpq),
                 "Dolos-Full-WPQ");
    EXPECT_STREQ(securityModeName(SecurityMode::DolosPartialWpq),
                 "Dolos-Partial-WPQ");
    EXPECT_STREQ(securityModeName(SecurityMode::DolosPostWpq),
                 "Dolos-Post-WPQ");
}

TEST(SecurityModeConfig, DolosFamilyClassification)
{
    EXPECT_FALSE(isDolosMode(SecurityMode::NonSecureIdeal));
    EXPECT_FALSE(isDolosMode(SecurityMode::PreWpqSecure));
    EXPECT_FALSE(isDolosMode(SecurityMode::PostWpqUnprotected));
    EXPECT_TRUE(isDolosMode(SecurityMode::DolosFullWpq));
    EXPECT_TRUE(isDolosMode(SecurityMode::DolosPartialWpq));
    EXPECT_TRUE(isDolosMode(SecurityMode::DolosPostWpq));
}

TEST(SecurityModeConfig, ParseAcceptsEveryCliNameAndAlias)
{
    EXPECT_EQ(parseSecurityMode("ideal"), SecurityMode::NonSecureIdeal);
    EXPECT_EQ(parseSecurityMode("baseline"),
              SecurityMode::PreWpqSecure);
    EXPECT_EQ(parseSecurityMode("post-unprotected"),
              SecurityMode::PostWpqUnprotected);
    EXPECT_EQ(parseSecurityMode("dolos-full"),
              SecurityMode::DolosFullWpq);
    EXPECT_EQ(parseSecurityMode("full_wpq"),
              SecurityMode::DolosFullWpq);
    EXPECT_EQ(parseSecurityMode("dolos-partial"),
              SecurityMode::DolosPartialWpq);
    EXPECT_EQ(parseSecurityMode("partial_wpq"),
              SecurityMode::DolosPartialWpq);
    EXPECT_EQ(parseSecurityMode("dolos-post"),
              SecurityMode::DolosPostWpq);
    EXPECT_EQ(parseSecurityMode("post_wpq"),
              SecurityMode::DolosPostWpq);
}

TEST(SecurityModeConfig, CliNameRoundTripsForEveryMode)
{
    // One name table serves parse and print: every mode's repro-line
    // spelling parses back to the mode, and the names are distinct.
    std::set<std::string> names;
    for (unsigned m = 0; m <= unsigned(SecurityMode::EadrSecure); ++m) {
        const auto mode = SecurityMode(m);
        EXPECT_EQ(parseSecurityMode(securityModeCliName(mode)), mode)
            << securityModeCliName(mode);
        names.insert(securityModeCliName(mode));
    }
    EXPECT_EQ(names.size(), 7u);
}

TEST(SecurityModeConfig, ParseRejectsUnknownNames)
{
    // Rejected loudly as "no value" — never clamped to some default.
    EXPECT_EQ(parseSecurityMode(""), std::nullopt);
    EXPECT_EQ(parseSecurityMode("dolos"), std::nullopt);
    EXPECT_EQ(parseSecurityMode("IDEAL"), std::nullopt);
    EXPECT_EQ(parseSecurityMode("full-wpq"), std::nullopt);
}

TEST(ConfigValidation, PaperDefaultsAreValidForEveryMode)
{
    for (const auto mode : allModes) {
        auto cfg = SystemConfig::paperDefault();
        cfg.mode = mode;
        EXPECT_EQ(validateConfig(cfg), "") << securityModeName(mode);
    }
}

TEST(ConfigValidation, ZeroAdrBudgetIsRejected)
{
    auto cfg = SystemConfig::paperDefault();
    cfg.wpq.adrBudgetEntries = 0;
    EXPECT_NE(validateConfig(cfg).find("adrBudgetEntries"),
              std::string::npos)
        << validateConfig(cfg);
}

TEST(ConfigValidation, ZeroEntryQueueForActiveModeIsRejected)
{
    auto cfg = SystemConfig::paperDefault();
    cfg.mode = SecurityMode::DolosPartialWpq;
    cfg.wpq.partialEntries = 0;
    EXPECT_FALSE(validateConfig(cfg).empty());

    // The same zero is fine when another mode is selected — only the
    // active queue is constrained.
    cfg.mode = SecurityMode::DolosFullWpq;
    EXPECT_EQ(validateConfig(cfg), "");
}

TEST(ConfigValidation, OversizedModeQueuesAreRejected)
{
    auto cfg = SystemConfig::paperDefault();
    cfg.mode = SecurityMode::DolosPartialWpq;
    cfg.wpq.partialEntries = cfg.wpq.adrBudgetEntries + 1;
    EXPECT_NE(validateConfig(cfg).find("exceeds"), std::string::npos)
        << validateConfig(cfg);

    cfg = SystemConfig::paperDefault();
    cfg.mode = SecurityMode::DolosPostWpq;
    cfg.wpq.postEntries = cfg.wpq.adrBudgetEntries + 1;
    EXPECT_FALSE(validateConfig(cfg).empty());
}

TEST(ConfigValidation, DegenerateTimingAndGeometryAreRejected)
{
    auto cfg = SystemConfig::paperDefault();
    cfg.wpq.retryInterval = 0;
    EXPECT_FALSE(validateConfig(cfg).empty());

    cfg = SystemConfig::paperDefault();
    cfg.nvm.numBanks = 0;
    EXPECT_FALSE(validateConfig(cfg).empty());

    cfg = SystemConfig::paperDefault();
    cfg.secure.functionalLeaves = 0;
    EXPECT_FALSE(validateConfig(cfg).empty());

    cfg = SystemConfig::paperDefault();
    cfg.secure.map.protectedBytes = 0;
    EXPECT_FALSE(validateConfig(cfg).empty());
}

TEST(ConfigValidation, WatermarkAboveOneHundredPercentIsRejected)
{
    auto cfg = SystemConfig::paperDefault();
    cfg.wpq.drainWatermarkPct = 100;
    EXPECT_EQ(validateConfig(cfg), "");
    cfg.wpq.drainWatermarkPct = 101;
    EXPECT_NE(validateConfig(cfg).find("drainWatermarkPct"),
              std::string::npos)
        << validateConfig(cfg);
}

TEST(ConfigValidation, SystemCtorThrowsInsteadOfClamping)
{
    auto cfg = SystemConfig::paperDefault();
    cfg.wpq.adrBudgetEntries = 0;
    EXPECT_THROW({ System sys(cfg); }, std::invalid_argument);

    // The thrown message carries the validator's diagnostic.
    cfg = SystemConfig::paperDefault();
    cfg.mode = SecurityMode::DolosPartialWpq;
    cfg.wpq.partialEntries = cfg.wpq.adrBudgetEntries + 1;
    try {
        System sys(cfg);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("partialEntries"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ConfigValidation, ValidConfigConstructs)
{
    auto cfg = SystemConfig::paperDefault();
    cfg.mode = SecurityMode::DolosPostWpq;
    EXPECT_NO_THROW({ System sys(cfg); });
}

TEST(BmtPipelineSwitch, DefaultsOn)
{
    // The pipelined Ma-SU engine survived the microstep crash sweeps
    // and is the build default; --opt-knobs all names it.
    EXPECT_TRUE(SystemConfig::paperDefault().secure.bmtPipeline);
    EXPECT_EQ(parseBmtPipelineSpec("all"), std::optional<bool>(true));
    EXPECT_EQ(parseBmtPipelineSpec("none"), std::optional<bool>(false));
}

TEST(BmtPipelineSwitch, SpecRejectsAnythingButAllOrNone)
{
    // The retired lever names and the comma grammar are rejected,
    // never mapped onto the nearest setting.
    for (const char *bad :
         {"", "ALL", "all,", "bmt-pipeline", "drain-batch",
          "tag-prefetch", "bmt-pipeline,tag-prefetch", "bmt-window=4",
          "none,bmt-window=1"})
        EXPECT_EQ(parseBmtPipelineSpec(bad), std::nullopt) << bad;
}

TEST(BmtPipelineSwitch, SpecRoundTrips)
{
    // Repro lines print bmtPipelineSpec unconditionally; the printed
    // spec must rebuild the same engine.
    for (const bool piped : {false, true})
        EXPECT_EQ(parseBmtPipelineSpec(bmtPipelineSpec(piped)),
                  std::optional<bool>(piped));
}

TEST(BmtPipelineSwitch, PaperDefaultWithSwitchOffIsFullySerial)
{
    // The one switch decides the engine: with it off, the paper's
    // machine is the serial Ma-SU, so back-to-back writes sit at
    // least one full security latency (AES + 10 MACs) apart.
    const Cycles full_latency = 40 + 10 * 160;
    for (const bool piped : {false, true}) {
        auto cfg = SystemConfig::paperDefault();
        cfg.secure.bmtPipeline = piped;
        NvmDevice nvm(cfg.nvm);
        SecurityEngine eng(cfg.secure, nvm);
        const auto r1 = eng.secureWrite(0x1000, Block{}, 0);
        const auto r2 = eng.secureWrite(0x1040, Block{}, 10);
        if (piped)
            EXPECT_LT(r2.doneTick, r1.doneTick + full_latency);
        else
            EXPECT_GE(r2.doneTick, r1.doneTick + full_latency);
    }
}

} // namespace
